//! The functional near-storage trainer, [`SmartInfinityTrainer`].

use crate::checkpoint::{bits_to_tensor, tensor_to_bits, TrainerCheckpoint};
use crate::recover::recover;
use crate::trainer::{
    check_gradient_len, DegradedReport, StageReport, StepReport, TrainError, Trainer,
};
use csd::{CsdDevice, CsdError, CsdTrafficStats, SubgroupUpdate};
use faultkit::FaultPlan;
use gradcomp::{Compressor, ErrorFeedback};
use optim::Optimizer;
use parcore::ParExecutor;
use tensorlib::{Chunker, Dtype, FlatTensor, Partitioner, Shard};

/// Everything one lane may touch: disjoint per-device state, so the lanes can
/// run concurrently without synchronisation.
struct Lane<'a> {
    shard: Shard,
    csd: &'a mut CsdDevice,
    feedback: &'a mut ErrorFeedback,
    fp16_out: &'a mut [f32],
}

/// What every lane of one step reads.
struct StepInputs<'a> {
    grads: &'a FlatTensor,
    compressor: Option<Compressor>,
    optimizer: Optimizer,
    subgroup_elems: usize,
    step: u64,
    max_retries: u32,
}

/// Byte accounting of one lane's trip through the three stages, or of a whole
/// step once the lanes are summed.
#[derive(Debug, Clone, Copy, Default)]
struct LaneReport {
    write_bytes: u64,
    kept: u64,
    update_read_bytes: u64,
    update_write_bytes: u64,
    read_back_bytes: u64,
    degraded: DegradedReport,
}

impl LaneReport {
    fn absorb(&mut self, other: &LaneReport) {
        self.write_bytes += other.write_bytes;
        self.kept += other.kept;
        self.update_read_bytes += other.update_read_bytes;
        self.update_write_bytes += other.update_write_bytes;
        self.read_back_bytes += other.read_back_bytes;
        self.degraded.absorb(&other.degraded);
    }
}

/// The functional Smart-Infinity trainer: real bytes, real kernels, real
/// updated parameters.
///
/// The trainer distributes the flattened parameters contiguously across CSD
/// models (paper Section IV-D). Each step hands every shard's
/// gradient to its owner CSD (optionally Top-K compressed with error feedback
/// — SmartComp), runs the FPGA updater subgroup by subgroup over CSD-internal
/// P2P (SmartUpdate) and streams the refreshed FP16 working copy back to host
/// memory. One function does that per-shard work, a *lane*: write →
/// compress/update → read-back. A step runs the lanes on one of two
/// schedules:
///
/// * **In order** (the default): shards run one after another and the worker
///   pool is lent to the kernels inside each lane (the Top-K selection and the
///   CSD updater). This is the schedule that parallelises a run with fewer
///   CSDs than worker threads.
/// * **Overlapped** ([`SmartInfinityTrainer::with_pipelining`]): the lanes
///   run concurrently on the pool, each lane's kernels serially, so the
///   stages of different CSDs overlap instead of proceeding one global phase
///   at a time (paper Sections IV-B/IV-D). Each step's [`StepReport`] carries
///   a [`StageReport`]: the bytes the write, update and read-back stages
///   moved and the number of lanes in flight.
///
/// The schedule never changes a result bit, for any worker-thread or device
/// count: lanes touch disjoint state — their own [`CsdDevice`], their own
/// residual, their own slice of the FP16 working copy — and every kernel is
/// bit-identical for any executor. Without compression the result is also
/// bit-identical to the host baseline,
/// [`StorageOffloadTrainer`](crate::StorageOffloadTrainer).
///
/// Bad configuration is a [`TrainError::Config`], not a panic: the trainer is
/// reached from user-facing configuration (`smart_infinity::Session`).
#[derive(Debug)]
pub struct SmartInfinityTrainer {
    csds: Vec<CsdDevice>,
    partitioner: Partitioner,
    optimizer: Optimizer,
    params_fp16: FlatTensor,
    compressor: Option<Compressor>,
    feedback: Vec<ErrorFeedback>,
    // Gradient scratch buffers reused across steps: one per lane when the
    // lanes overlap, only the first when shards run in order.
    scratch: Vec<FlatTensor>,
    subgroup_elems: usize,
    pool: ParExecutor,
    // The executor lent to the kernels inside a lane: the pool when shards
    // run in order, a serial one when the lanes themselves share the pool.
    kernels: ParExecutor,
    pipelined: bool,
    step: u64,
    fault_plan: Option<FaultPlan>,
}

impl SmartInfinityTrainer {
    /// Creates a trainer: partitions the parameters across `num_csds` CSDs and
    /// initialises the FP32 master copy and zeroed optimizer states on each
    /// device. Shards run in order on a serial executor until
    /// [`SmartInfinityTrainer::with_threads`] or
    /// [`SmartInfinityTrainer::with_pipelining`] says otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for a zero device count or zero
    /// subgroup capacity, and a wrapped [`CsdError`] if a device cannot hold
    /// its shard.
    pub fn new(
        initial_params: &FlatTensor,
        optimizer: Optimizer,
        num_csds: usize,
        subgroup_elems: usize,
    ) -> Result<Self, TrainError> {
        if num_csds == 0 {
            return Err(TrainError::config("at least one CSD is required"));
        }
        if subgroup_elems == 0 {
            return Err(TrainError::config("subgroup capacity must be positive"));
        }
        let partitioner = Partitioner::contiguous(initial_params.len(), num_csds);
        let mut csds = Vec::with_capacity(num_csds);
        for shard in partitioner.shards() {
            let mut csd =
                CsdDevice::new(format!("csd{}", shard.device), u64::MAX / 4, u64::MAX / 4);
            csd.store_initial_state(
                "shard",
                &initial_params.slice(shard.offset, shard.len),
                &optimizer,
            )?;
            csds.push(csd);
        }
        let feedback = partitioner.shards().iter().map(|s| ErrorFeedback::new(s.len)).collect();
        let params_fp16 = FlatTensor::from_bytes(&initial_params.to_bytes(Dtype::F16), Dtype::F16);
        Ok(Self {
            csds,
            partitioner,
            optimizer,
            params_fp16,
            compressor: None,
            feedback,
            scratch: vec![FlatTensor::default(); num_csds],
            subgroup_elems,
            pool: ParExecutor::serial(),
            kernels: ParExecutor::serial(),
            pipelined: false,
            step: 0,
            fault_plan: None,
        })
    }

    /// Installs a fault plan: deterministic per-device injectors and a
    /// device-internal retry budget on every CSD, plus scheduled wear-out /
    /// dropout. An empty plan is a no-op, so the fault-free path stays
    /// bit-identical.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        if !plan.is_empty() {
            for (i, csd) in self.csds.iter_mut().enumerate() {
                csd.set_fault_injector(plan.injector(i as u64));
                csd.set_retry_budget(plan.max_retries());
            }
            self.fault_plan = Some(plan);
        }
        self
    }

    fn max_retries(&self) -> u32 {
        self.fault_plan.as_ref().map_or(0, FaultPlan::max_retries)
    }

    /// Fires scheduled wear-out / dropout at the start of their planned step.
    fn trigger_scheduled_faults(&mut self) {
        if let Some(plan) = &self.fault_plan {
            if plan.wearout_step() == Some(self.step) {
                if let Some(d) = plan.wearout_device(self.csds.len()) {
                    self.csds[d].inject_ssd_wearout();
                }
            }
            if plan.dropout_step() == Some(self.step) {
                if let Some(d) = plan.dropout_device(self.csds.len()) {
                    self.csds[d].inject_dropout();
                }
            }
        }
    }

    /// Enables SmartComp: each lane Top-K-compresses its shard's gradients
    /// (with error feedback) before they cross the host interconnect, and the
    /// CSD decompressor expands them.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] if `keep_ratio` is not in `(0, 1]`.
    pub fn with_compression(self, keep_ratio: f64) -> Result<Self, TrainError> {
        if !gradcomp::valid_keep_ratio(keep_ratio) {
            return Err(TrainError::config(format!(
                "Top-K keep ratio must be in (0, 1], got {keep_ratio}"
            )));
        }
        Ok(self.with_compressor(Compressor::top_k(keep_ratio)))
    }

    /// Enables SmartComp with an explicit coordinate selector (exact Top-K,
    /// threshold-accelerated Top-K, Random-K) instead of the default exact
    /// Top-K.
    pub fn with_compressor(mut self, compressor: Compressor) -> Self {
        self.compressor = Some(compressor);
        self
    }

    /// Sets the number of host worker threads. In order, they fan out the
    /// kernels of each shard; overlapped, they run the lanes. Results are
    /// bit-identical for every thread count.
    ///
    /// Lanes are scheduled by the default size-aware work-stealing executor:
    /// heavier shards are dealt first and idle workers steal queued lanes, so
    /// one skewed shard does not serialize the step. Use
    /// [`SmartInfinityTrainer::with_executor`] to pin the schedule instead.
    pub fn with_threads(self, num_threads: usize) -> Self {
        self.with_executor(ParExecutor::new(num_threads))
    }

    /// Sets the executor explicitly — e.g. [`ParExecutor::deterministic`] for
    /// bit-equivalence suites that want the lane→worker schedule pinned as
    /// well as the results (the results are identical in every mode
    /// regardless).
    pub fn with_executor(mut self, pool: ParExecutor) -> Self {
        self.pool = pool;
        self.lend_pool_to_kernels();
        self
    }

    /// Overlaps the lanes: they run concurrently on the worker pool, each
    /// lane's kernels serially (fanning out twice would oversubscribe the
    /// workers), and every step reports its [`StageReport`]. The timed
    /// counterpart is `smart_infinity::SmartInfinityEngine::with_pipelining`.
    #[must_use]
    pub fn with_pipelining(mut self) -> Self {
        self.pipelined = true;
        self.lend_pool_to_kernels();
        self
    }

    fn lend_pool_to_kernels(&mut self) {
        self.kernels = if self.pipelined { ParExecutor::serial() } else { self.pool };
        for csd in &mut self.csds {
            csd.set_threads(self.kernels.num_threads());
        }
    }

    /// The host worker-thread count of the execution backend.
    pub fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }

    /// Number of parameters being trained.
    pub fn num_params(&self) -> usize {
        self.partitioner.total()
    }

    /// Number of CSDs (lanes).
    pub fn num_csds(&self) -> usize {
        self.csds.len()
    }

    /// Number of completed steps.
    pub fn steps_completed(&self) -> u64 {
        self.step
    }

    /// The FP16 working copy of the parameters.
    pub fn params_fp16(&self) -> &FlatTensor {
        &self.params_fp16
    }

    /// Whether SmartComp is enabled.
    pub fn is_compressed(&self) -> bool {
        self.compressor.is_some()
    }

    /// Reassembles the FP32 master copy from all CSDs.
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`CsdError`] if a shard read fails.
    pub fn master_params(&mut self) -> Result<FlatTensor, TrainError> {
        let mut out = FlatTensor::zeros(self.partitioner.total());
        for (csd, shard) in self.csds.iter_mut().zip(self.partitioner.shards()) {
            if shard.len == 0 {
                continue;
            }
            // Reassembly is maintenance traffic: it observes state rather than
            // training, so it must neither fail on nor consume fault decisions.
            csd.suspend_faults(true);
            let result = csd.load_parameters("shard", 0, shard.len);
            csd.suspend_faults(false);
            out.write_slice(shard.offset, result?.as_slice());
        }
        Ok(out)
    }

    /// Aggregated CSD-internal P2P traffic statistics across all devices.
    pub fn aggregate_stats(&self) -> CsdTrafficStats {
        let mut total = CsdTrafficStats::default();
        for s in self.csds.iter().map(CsdDevice::stats) {
            total.p2p_read_bytes += s.p2p_read_bytes;
            total.p2p_write_bytes += s.p2p_write_bytes;
            total.updates_run += s.updates_run;
            total.elements_updated += s.elements_updated;
        }
        total
    }

    /// Runs one training step with an explicitly provided dense gradient.
    /// [`StepReport::gradient_bytes`] is the volume that crossed the host
    /// interconnect (dense, or the index+value stream under SmartComp); the
    /// storage counters are the CSD-internal P2P traffic; overlapped steps
    /// add the per-stage split in [`StepReport::stages`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] if `grads.len()` differs from the
    /// number of parameters, and otherwise the lowest-indexed shard's error
    /// if a device operation fails (deterministic regardless of scheduling).
    pub fn train_step_with_grads(&mut self, grads: &FlatTensor) -> Result<StepReport, TrainError> {
        check_gradient_len(grads.len(), self.num_params())?;
        self.step += 1;
        self.trigger_scheduled_faults();
        let inputs = StepInputs {
            grads,
            compressor: self.compressor,
            optimizer: self.optimizer,
            subgroup_elems: self.subgroup_elems,
            step: self.step,
            max_retries: self.max_retries(),
        };

        // Carve the step into lanes: shard i owns csds[i], feedback[i] and its
        // contiguous slice of the FP16 working copy.
        let mut fp16_rest = self.params_fp16.as_mut_slice();
        let lanes =
            self.partitioner.shards().iter().zip(&mut self.csds).zip(&mut self.feedback).map(
                move |((&shard, csd), feedback)| {
                    let (fp16_out, rest) = std::mem::take(&mut fp16_rest).split_at_mut(shard.len);
                    fp16_rest = rest;
                    Lane { shard, csd, feedback, fp16_out }
                },
            );
        let mut total = LaneReport::default();
        let stages = if self.pipelined {
            // Cost-weighted dispatch: a lane's work is proportional to its
            // shard size, so heavier shards are scheduled first (and
            // stealable) rather than letting one skewed shard serialize the
            // step.
            let lanes: Vec<_> = lanes.zip(&mut self.scratch).collect();
            let weights: Vec<usize> = lanes.iter().map(|(lane, _)| lane.shard.len).collect();
            let active_lanes = weights.iter().filter(|&&len| len > 0).count();
            let kernels = &self.kernels;
            let results = self.pool.map_weighted(lanes, &weights, |_, (lane, scratch)| {
                run_lane(lane, scratch, kernels, &inputs)
            });
            for lane in results {
                total.absorb(&lane?);
            }
            Some(StageReport {
                write_bytes: total.write_bytes,
                update_bytes: total.update_read_bytes + total.update_write_bytes,
                read_back_bytes: total.read_back_bytes,
                lanes: self.pool.num_threads().min(active_lanes).max(1),
            })
        } else {
            let scratch = &mut self.scratch[0];
            for lane in lanes {
                total.absorb(&run_lane(lane, scratch, &self.kernels, &inputs)?);
            }
            None
        };
        Ok(StepReport {
            step: self.step,
            gradient_bytes: total.write_bytes,
            storage_bytes_read: total.update_read_bytes,
            storage_bytes_written: total.update_write_bytes,
            compression_kept: self.compressor.map(|_| total.kept),
            threads: self.pool.num_threads(),
            kernel_path: tensorlib::KernelPath::active(),
            stages,
            degraded: total.degraded.into_option(),
        })
    }
}

/// One lane's trip through the stages, entirely on the lane's own device
/// state: write → compress/update → read-back. `kernels` is the executor the
/// Top-K selection may fan out on (the CSD updater uses the device's own).
fn run_lane(
    lane: Lane<'_>,
    scratch: &mut FlatTensor,
    kernels: &ParExecutor,
    inputs: &StepInputs<'_>,
) -> Result<LaneReport, CsdError> {
    let Lane { shard, csd, feedback, fp16_out } = lane;
    if shard.len == 0 {
        return Ok(LaneReport::default());
    }
    let before = csd.stats();
    // Recovery is lane-local: each lane owns its device, so retry and rebuild
    // decisions are deterministic regardless of how the lanes are scheduled.
    let max_retries = inputs.max_retries;
    let mut deg = DegradedReport::default();

    // Stage 1 — write: the shard's gradient crosses the host interconnect
    // downstream, dense or as the Top-K stream (error feedback, then a
    // selection that is bit-identical for any executor).
    inputs.grads.slice_into(shard.offset, shard.len, scratch);
    let compressed = match &inputs.compressor {
        None => None,
        Some(c) => {
            feedback.apply_in_place(scratch);
            let compressed = c.try_compress_par(scratch, kernels)?;
            feedback.update(scratch, &compressed);
            Some(compressed)
        }
    };
    let (write_bytes, kept) = match &compressed {
        None => (4 * shard.len as u64, 0),
        Some(c) => (c.compressed_bytes() as u64, c.num_selected() as u64),
    };
    if compressed.is_none() {
        // Dense gradients land on the owner CSD's SSD. Whole-region writes
        // are idempotent, so the recovery wrapper may retry them freely.
        recover(max_retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
            csd.store_gradients("shard", scratch)
        })?;
    }

    // Stage 2 — update: subgroup-by-subgroup near-storage optimizer step over
    // CSD-internal P2P. Transient faults are cleared *inside* the device (a
    // half-written subgroup must never be recomputed from already-updated
    // state); the wrapper here only handles dead devices, whose first failing
    // operation precedes any write-back.
    for subgroup in Chunker::new(shard.len, inputs.subgroup_elems).subgroups() {
        recover(max_retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
            csd.update_subgroup(SubgroupUpdate {
                shard: "shard",
                offset: subgroup.offset,
                len: subgroup.len,
                optimizer: inputs.optimizer,
                step: inputs.step,
                compressed: compressed.as_ref(),
            })
        })?;
    }

    // Stage 3 — read-back: the refreshed FP16 working copy returns to host
    // memory, rounded straight into this lane's output slice.
    let updated = recover(max_retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
        csd.load_parameters("shard", 0, shard.len)
    })?;
    updated.roundtrip_f16_into(fp16_out);

    // Fold the device-internal transient retries into the lane's report.
    let (retries, backoff_ms) = csd.take_fault_events();
    deg.transient_faults += retries;
    deg.retries += retries;
    deg.backoff_ms += backoff_ms;

    let after = csd.stats();
    Ok(LaneReport {
        write_bytes,
        kept,
        update_read_bytes: after.p2p_read_bytes - before.p2p_read_bytes,
        update_write_bytes: after.p2p_write_bytes - before.p2p_write_bytes,
        read_back_bytes: 2 * shard.len as u64,
        degraded: deg,
    })
}

impl Trainer for SmartInfinityTrainer {
    fn step(&mut self, grads: &FlatTensor) -> Result<StepReport, TrainError> {
        self.train_step_with_grads(grads)
    }

    fn params_fp16(&self) -> &FlatTensor {
        &self.params_fp16
    }

    fn master_params(&mut self) -> Result<FlatTensor, TrainError> {
        SmartInfinityTrainer::master_params(self)
    }

    fn steps_completed(&self) -> u64 {
        self.step
    }
    fn checkpoint(&mut self) -> Result<TrainerCheckpoint, TrainError> {
        let retries = self.max_retries();
        let num_aux = self.optimizer.kind().num_aux();
        let n = self.num_params();
        let mut master_bits = Vec::with_capacity(n);
        let mut aux_bits = vec![Vec::with_capacity(n); num_aux];
        let mut deg = DegradedReport::default();
        for (csd, shard) in self.csds.iter_mut().zip(self.partitioner.shards()) {
            if shard.len == 0 {
                continue;
            }
            // Checkpoint reads are maintenance traffic: injection is
            // suspended so they cannot perturb the deterministic fault
            // stream of the training ops. Dead devices are still rebuilt.
            csd.suspend_faults(true);
            let result = (|| -> Result<(), TrainError> {
                let t = recover(retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
                    csd.load_parameters("shard", 0, shard.len)
                })?;
                master_bits.extend(tensor_to_bits(&t));
                for (a, bits) in aux_bits.iter_mut().enumerate() {
                    let t = recover(retries, &mut deg, csd, CsdDevice::rebuild, |csd| {
                        csd.load_optimizer_state("shard", a, 0, shard.len)
                    })?;
                    bits.extend(tensor_to_bits(&t));
                }
                Ok(())
            })();
            csd.suspend_faults(false);
            result?;
        }
        let residual_bits = if self.compressor.is_some() {
            let mut bits = Vec::with_capacity(n);
            for feedback in &self.feedback {
                bits.extend(tensor_to_bits(feedback.residual()));
            }
            bits
        } else {
            Vec::new()
        };
        Ok(TrainerCheckpoint {
            step: self.step,
            num_params: n as u64,
            master_bits,
            aux_bits,
            residual_bits,
        })
    }

    fn restore(&mut self, checkpoint: &TrainerCheckpoint) -> Result<(), TrainError> {
        checkpoint.check_matches(self.num_params(), self.optimizer.kind().num_aux())?;
        if self.compressor.is_some() == checkpoint.residual_bits.is_empty() {
            return Err(TrainError::config(if self.compressor.is_some() {
                "checkpoint has no error-feedback residuals but compression is enabled"
            } else {
                "checkpoint carries error-feedback residuals but compression is disabled"
            }));
        }
        let master = bits_to_tensor(&checkpoint.master_bits);
        let optimizer = self.optimizer;
        for (csd, shard) in self.csds.iter_mut().zip(self.partitioner.shards()) {
            if shard.len == 0 {
                continue;
            }
            csd.suspend_faults(true);
            let result = (|| -> Result<(), TrainError> {
                let shard_params = master.slice(shard.offset, shard.len);
                csd.store_initial_state("shard", &shard_params, &optimizer)?;
                for (a, bits) in checkpoint.aux_bits.iter().enumerate() {
                    let aux = bits_to_tensor(&bits[shard.offset..shard.offset + shard.len]);
                    csd.store_optimizer_state("shard", a, &aux)?;
                }
                Ok(())
            })();
            csd.suspend_faults(false);
            result?;
            if !checkpoint.residual_bits.is_empty() {
                let residual = bits_to_tensor(
                    &checkpoint.residual_bits[shard.offset..shard.offset + shard.len],
                );
                self.feedback[shard.device].restore_residual(&residual);
            }
        }
        self.params_fp16 = FlatTensor::from_bytes(&master.to_bytes(Dtype::F16), Dtype::F16);
        self.step = checkpoint.step;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::{StorageOffloadTrainer, SyntheticGradients};

    /// Both schedules: `false` runs the shards in order, `true` overlaps them.
    const SCHEDULES: [bool; 2] = [false, true];

    fn scheduled(trainer: SmartInfinityTrainer, pipelined: bool) -> SmartInfinityTrainer {
        if pipelined {
            trainer.with_pipelining()
        } else {
            trainer
        }
    }

    #[test]
    fn pipelined_is_bit_identical_to_the_host_baseline() {
        // Without compression the near-storage update is numerically the
        // baseline update, so both schedules must match it bit for bit.
        let n = 5000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 1);
        for (pipelined, threads) in [(false, 1), (true, 4)] {
            let mut baseline = StorageOffloadTrainer::new(&initial, optimizer, 2, 1024).unwrap();
            let mut smart = SmartInfinityTrainer::new(&initial, optimizer, 3, 700).unwrap();
            smart = scheduled(smart, pipelined).with_threads(threads);
            for step in 0..4u64 {
                let grads = FlatTensor::randn(n, 0.01, 100 + step);
                baseline.train_step_with_grads(&grads).unwrap();
                smart.train_step_with_grads(&grads).unwrap();
            }
            assert_eq!(
                smart.master_params().unwrap().as_slice(),
                baseline.master_params().unwrap().as_slice(),
                "pipelined={pipelined}"
            );
            assert_eq!(smart.params_fp16().as_slice(), baseline.params_fp16().as_slice());
            assert_eq!(smart.steps_completed(), 4);
            assert_eq!(smart.num_csds(), 3);
            assert_eq!(smart.num_params(), n);
            assert!(!smart.is_compressed());
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let n = 4000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 7);
        let run = |pipelined: bool, threads: usize, keep: Option<f64>| {
            let mut t = SmartInfinityTrainer::new(&initial, optimizer, 3, 600).unwrap();
            if let Some(k) = keep {
                t = t.with_compression(k).unwrap();
            }
            t = scheduled(t, pipelined).with_threads(threads);
            assert_eq!(t.num_threads(), threads.max(1));
            let mut source = SyntheticGradients::new(n, 0.01, 55);
            let mut last = StepReport::default();
            for _ in 0..3 {
                last = t.step_from(&mut source).unwrap();
            }
            (t.master_params().unwrap(), t.params_fp16().clone(), last)
        };
        for keep in [None, Some(0.05)] {
            let (serial_master, serial_fp16, in_order_report) = run(false, 1, keep);
            assert_eq!(in_order_report.stages, None, "shards in order report no stages");
            for pipelined in SCHEDULES {
                let (_, _, serial_report) = run(pipelined, 1, keep);
                for threads in [2usize, 4, 7] {
                    let (master, fp16, report) = run(pipelined, threads, keep);
                    let at = format!("{keep:?} pipelined={pipelined} t={threads}");
                    assert_eq!(master.as_slice(), serial_master.as_slice(), "{at}");
                    assert_eq!(fp16.as_slice(), serial_fp16.as_slice(), "{at}");
                    assert_eq!(report.threads, threads);
                    assert_eq!(report.gradient_bytes, in_order_report.gradient_bytes, "{at}");
                    assert_eq!(report.storage_bytes_read, in_order_report.storage_bytes_read);
                    assert_eq!(report.compression_kept, in_order_report.compression_kept);
                    if !pipelined {
                        assert_eq!(report.stages, None, "{at}");
                        continue;
                    }
                    // Telemetry: identical bytes, different lane concurrency.
                    let (s, r) = (serial_report.stages.unwrap(), report.stages.unwrap());
                    assert_eq!(s.write_bytes, r.write_bytes);
                    assert_eq!(s.update_bytes, r.update_bytes);
                    assert_eq!(s.read_back_bytes, r.read_back_bytes);
                    assert_eq!(s.lanes, 1);
                    assert_eq!(r.lanes, threads.min(3));
                }
            }
        }
    }

    #[test]
    fn threads_and_pipelining_give_the_same_trainer_in_either_order() {
        let n = 3000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 11);
        let new = || SmartInfinityTrainer::new(&initial, optimizer, 3, 400).unwrap();
        let run = |mut t: SmartInfinityTrainer| {
            // Overlapped lanes keep their kernels serial.
            assert!(t.csds.iter().all(|csd| csd.executor().num_threads() == 1));
            let mut source = SyntheticGradients::new(n, 0.01, 12);
            let reports: Vec<StepReport> =
                (0..2).map(|_| t.step_from(&mut source).unwrap()).collect();
            (t.num_threads(), reports, t.master_params().unwrap(), t.params_fp16().clone())
        };
        let threads_first = run(new().with_threads(3).with_pipelining());
        let pipelining_first = run(new().with_pipelining().with_threads(3));
        assert_eq!(threads_first.0, 3);
        assert_eq!(threads_first.1[0].stages.map(|s| s.lanes), Some(3));
        assert_eq!(threads_first.0, pipelining_first.0);
        assert_eq!(threads_first.1, pipelining_first.1);
        assert_eq!(threads_first.2.as_slice(), pipelining_first.2.as_slice());
        assert_eq!(threads_first.3.as_slice(), pipelining_first.3.as_slice());
        // In order, the pool is lent to the kernels instead.
        let in_order = new().with_threads(3);
        assert!(in_order.csds.iter().all(|csd| csd.executor().num_threads() == 3));
    }

    #[test]
    fn work_stealing_matches_the_deterministic_schedule_bit_for_bit() {
        // Same trainer, same gradients, every thread count, both executor
        // modes and both schedules — the master copy and FP16 working copy
        // must agree exactly.
        let n = 4000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 21);
        let run = |pipelined: bool, pool: ParExecutor| {
            let t = SmartInfinityTrainer::new(&initial, optimizer, 4, 600)
                .unwrap()
                .with_compression(0.05)
                .unwrap();
            let mut t = scheduled(t, pipelined).with_executor(pool);
            let mut source = SyntheticGradients::new(n, 0.01, 99);
            let mut last = StepReport::default();
            for _ in 0..3 {
                last = t.step_from(&mut source).unwrap();
            }
            (t.master_params().unwrap(), t.params_fp16().clone(), last)
        };
        let (ref_master, ref_fp16, _) = run(true, ParExecutor::deterministic(1));
        for pipelined in SCHEDULES {
            for threads in [1usize, 2, 4, 7] {
                for pool in [ParExecutor::new(threads), ParExecutor::deterministic(threads)] {
                    let (master, fp16, report) = run(pipelined, pool);
                    let at =
                        format!("pipelined={pipelined} threads={threads} mode={:?}", pool.mode());
                    assert_eq!(master.as_slice(), ref_master.as_slice(), "master diverged: {at}");
                    assert_eq!(fp16.as_slice(), ref_fp16.as_slice(), "fp16 diverged: {at}");
                    // The report pins the runtime-detected SIMD path either way.
                    assert_eq!(report.kernel_path, tensorlib::KernelPath::active());
                }
            }
        }
    }

    #[test]
    fn stage_telemetry_matches_the_analytic_accounting() {
        let n = 6000;
        let optimizer = Optimizer::adam_default();
        for pipelined in SCHEDULES {
            let t = SmartInfinityTrainer::new(&FlatTensor::zeros(n), optimizer, 3, 1000).unwrap();
            let mut t = scheduled(t, pipelined).with_threads(2);
            let report = t.train_step_with_grads(&FlatTensor::zeros(n)).unwrap();
            // Dense Adam: 4n gradient down, 16n read + 12n written
            // internally, 2n FP16 up.
            assert_eq!(report.gradient_bytes, 4 * n as u64);
            assert_eq!(report.storage_bytes_read, 16 * n as u64);
            assert_eq!(report.storage_bytes_written, 12 * n as u64);
            let stats = t.aggregate_stats();
            assert_eq!(stats.p2p_read_bytes, 16 * n as u64);
            assert_eq!(stats.p2p_write_bytes, 12 * n as u64);
            assert_eq!(stats.elements_updated, n as u64);
            assert_eq!(stats.updates_run, 6); // 3 shards x 2 subgroups
            assert_eq!(report.is_pipelined(), pipelined);
            let Some(stages) = report.stages else { continue };
            assert_eq!(stages.write_bytes, 4 * n as u64);
            assert_eq!(stages.update_bytes, 28 * n as u64);
            assert_eq!(stages.read_back_bytes, 2 * n as u64);
            assert_eq!(stages.total_bytes(), 34 * n as u64);
            assert!(stages.is_overlapped());
            assert_eq!(stages.lanes, 2);
            // The flat counters agree with the stage split.
            assert_eq!(report.gradient_bytes, stages.write_bytes);
            assert_eq!(report.storage_bytes_total(), stages.update_bytes);
        }
    }

    #[test]
    fn invalid_configuration_is_an_error_not_a_panic() {
        let initial = FlatTensor::zeros(16);
        let optimizer = Optimizer::adam_default();
        let is_config = |e: TrainError| assert!(matches!(e, TrainError::Config { .. }), "{e}");
        is_config(SmartInfinityTrainer::new(&initial, optimizer, 0, 8).unwrap_err());
        is_config(SmartInfinityTrainer::new(&initial, optimizer, 2, 0).unwrap_err());
        let e = SmartInfinityTrainer::new(&initial, optimizer, 2, 8)
            .unwrap()
            .with_compression(0.0)
            .unwrap_err();
        is_config(e);
        let e = SmartInfinityTrainer::new(&initial, optimizer, 2, 8)
            .unwrap()
            .with_compression(1.5)
            .unwrap_err();
        assert!(e.to_string().contains("keep ratio"), "{e}");
        // A gradient of the wrong length, through `step` and `step_from`, on
        // both schedules and on the host baseline.
        let short = FlatTensor::zeros(5);
        let mut trainers: Vec<Box<dyn Trainer>> =
            vec![Box::new(StorageOffloadTrainer::new(&initial, optimizer, 1, 10).unwrap())];
        for pipelined in SCHEDULES {
            let t = SmartInfinityTrainer::new(&initial, optimizer, 1, 10).unwrap();
            trainers.push(Box::new(scheduled(t, pipelined)));
        }
        for t in &mut trainers {
            let e = t.step(&short).unwrap_err();
            assert!(e.to_string().contains("gradient length mismatch"), "{e}");
            is_config(t.step_from(&mut SyntheticGradients::new(5, 0.01, 1)).unwrap_err());
            assert_eq!(t.steps_completed(), 0, "a rejected step must not count");
        }
    }

    #[test]
    fn more_lanes_than_parameters_still_works() {
        // Degenerate split: 7 devices, 3 parameters — four lanes are empty
        // and must neither panic nor contribute telemetry.
        let initial = FlatTensor::randn(3, 0.05, 3);
        let grads = FlatTensor::randn(3, 0.01, 4);
        let optimizer = Optimizer::adam_default();
        let mut wide = SmartInfinityTrainer::new(&initial, optimizer, 7, 4)
            .unwrap()
            .with_pipelining()
            .with_threads(4);
        let mut narrow = SmartInfinityTrainer::new(&initial, optimizer, 1, 4).unwrap();
        let report = wide.train_step_with_grads(&grads).unwrap();
        narrow.train_step_with_grads(&grads).unwrap();
        assert_eq!(
            wide.master_params().unwrap().as_slice(),
            narrow.master_params().unwrap().as_slice()
        );
        assert_eq!(report.stages.unwrap().lanes, 3, "only non-empty shards count as lanes");
    }

    #[test]
    fn faults_are_recovered_without_changing_results_for_any_thread_count() {
        let n = 3000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 31);
        let plan = || {
            faultkit::FaultPlan::new({
                let mut s = faultkit::FaultSpec::empty(13);
                s.transient_per_mille = Some(120);
                s.ssd_wearout_step = Some(2);
                s.csd_dropout_step = Some(3);
                s
            })
        };
        let run = |pipelined: bool, threads: usize, faults: bool, keep: Option<f64>| {
            let mut t = SmartInfinityTrainer::new(&initial, optimizer, 3, 500).unwrap();
            if let Some(k) = keep {
                t = t.with_compression(k).unwrap();
            }
            t = scheduled(t, pipelined).with_threads(threads);
            if faults {
                t = t.with_fault_plan(plan());
            }
            let mut degraded_steps = 0;
            let mut deg = DegradedReport::default();
            for step in 0..4u64 {
                let grads = FlatTensor::randn(n, 0.01, 300 + step);
                let report = t.train_step_with_grads(&grads).unwrap();
                if let Some(d) = &report.degraded {
                    degraded_steps += 1;
                    deg.absorb(d);
                }
            }
            (t.master_params().unwrap(), t.params_fp16().clone(), degraded_steps, deg)
        };
        for keep in [None, Some(0.05)] {
            let (clean_master, clean_fp16, clean_degraded, _) = run(false, 1, false, keep);
            assert_eq!(clean_degraded, 0);
            let (faulty_master, faulty_fp16, faulty_degraded, faulty_deg) =
                run(false, 1, true, keep);
            assert!(faulty_degraded > 0, "scheduled wear-out and dropout must fire");
            assert!(faulty_deg.transient_faults > 0, "120‰ must fire at least once");
            assert_eq!(faulty_deg.devices_rebuilt, 2, "one wear-out plus one dropout");
            assert!(faulty_deg.rebuild_bytes > 0);
            assert_eq!(faulty_master.as_slice(), clean_master.as_slice(), "{keep:?}");
            assert_eq!(faulty_fp16.as_slice(), clean_fp16.as_slice(), "{keep:?}");
            // Fault recovery is deterministic across schedules and thread
            // counts too.
            for pipelined in SCHEDULES {
                for threads in [1usize, 2, 4] {
                    let (master, fp16, degraded, deg) = run(pipelined, threads, true, keep);
                    let at = format!("{keep:?} pipelined={pipelined} t={threads}");
                    assert_eq!(master.as_slice(), clean_master.as_slice(), "{at}");
                    assert_eq!(fp16.as_slice(), clean_fp16.as_slice(), "{at}");
                    assert_eq!(degraded, faulty_degraded, "{at}");
                    assert_eq!(deg, faulty_deg, "{at}");
                }
            }
        }
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically_with_residuals() {
        let n = 2400;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 41);
        let grads: Vec<FlatTensor> = (0..6).map(|s| FlatTensor::randn(n, 0.01, 400 + s)).collect();
        let make_plain = |csds: usize, pipelined: bool| {
            let t = SmartInfinityTrainer::new(&initial, optimizer, csds, 500).unwrap();
            scheduled(t, pipelined).with_threads(2)
        };
        let make = |csds: usize, pipelined: bool| {
            make_plain(csds, pipelined).with_compression(0.05).unwrap()
        };
        for pipelined in SCHEDULES {
            let mut straight = make(3, pipelined);
            for g in &grads {
                straight.train_step_with_grads(g).unwrap();
            }

            let mut first = make(3, pipelined);
            for g in &grads[..3] {
                first.train_step_with_grads(g).unwrap();
            }
            let ckpt = Trainer::checkpoint(&mut first).unwrap();
            assert_eq!(ckpt.step, 3);
            assert!(!ckpt.residual_bits.is_empty(), "compression must checkpoint its residuals");
            let json = ckpt.to_json().unwrap();
            let parsed = TrainerCheckpoint::from_json(&json).unwrap();

            // Resume on the same fleet shape, under the other schedule. Top-K
            // selection happens per shard, so under compression the shard
            // boundaries participate in the numbers; only an uncompressed
            // checkpoint is portable across device counts (exercised below).
            let mut resumed = make(3, !pipelined);
            Trainer::restore(&mut resumed, &parsed).unwrap();
            assert_eq!(resumed.steps_completed(), 3);
            for g in &grads[3..] {
                resumed.train_step_with_grads(g).unwrap();
            }
            assert_eq!(
                resumed.master_params().unwrap().as_slice(),
                straight.master_params().unwrap().as_slice(),
                "pipelined={pipelined}"
            );
            assert_eq!(resumed.params_fp16().as_slice(), straight.params_fp16().as_slice());

            // Without compression the checkpoint is a global tensor snapshot
            // and the elementwise optimizer is shard-agnostic, so a resume may
            // change the device count: 3 CSDs checkpointed, 4 CSDs resumed.
            let mut plain_straight = make_plain(3, pipelined);
            let mut plain_first = make_plain(3, pipelined);
            for g in &grads {
                plain_straight.train_step_with_grads(g).unwrap();
            }
            for g in &grads[..3] {
                plain_first.train_step_with_grads(g).unwrap();
            }
            let plain_ckpt = Trainer::checkpoint(&mut plain_first).unwrap();
            assert!(plain_ckpt.residual_bits.is_empty());
            let mut plain_resumed = make_plain(4, pipelined);
            Trainer::restore(&mut plain_resumed, &plain_ckpt).unwrap();
            for g in &grads[3..] {
                plain_resumed.train_step_with_grads(g).unwrap();
            }
            assert_eq!(
                plain_resumed.master_params().unwrap().as_slice(),
                plain_straight.master_params().unwrap().as_slice()
            );

            // Residual/compression mismatches are rejected.
            let err = Trainer::restore(&mut make_plain(2, pipelined), &parsed).unwrap_err();
            assert!(err.to_string().contains("residuals"), "{err}");
            let mut no_residuals = parsed.clone();
            no_residuals.residual_bits = Vec::new();
            let err = Trainer::restore(&mut make(2, pipelined), &no_residuals).unwrap_err();
            assert!(err.to_string().contains("residuals"), "{err}");
        }
    }

    #[test]
    fn checkpointing_under_an_active_fault_plan_does_not_shift_the_schedule() {
        // Two identical fault-laden runs; one checkpoints mid-run. Because
        // maintenance traffic suspends injection, both must see the same
        // fault schedule and produce identical results.
        let n = 1200;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 51);
        let plan = || {
            faultkit::FaultPlan::new({
                let mut s = faultkit::FaultSpec::empty(17);
                s.transient_per_mille = Some(200);
                s
            })
        };
        let run = |pipelined: bool, checkpoint_after: Option<u64>| {
            let t = SmartInfinityTrainer::new(&initial, optimizer, 2, 300).unwrap();
            let mut t = scheduled(t, pipelined).with_fault_plan(plan());
            let mut reports = Vec::new();
            for step in 0..4u64 {
                let grads = FlatTensor::randn(n, 0.01, 500 + step);
                reports.push(t.train_step_with_grads(&grads).unwrap());
                if checkpoint_after == Some(step + 1) {
                    Trainer::checkpoint(&mut t).unwrap();
                }
            }
            (t.master_params().unwrap(), reports)
        };
        for pipelined in SCHEDULES {
            let (plain_master, plain_reports) = run(pipelined, None);
            let (ckpt_master, ckpt_reports) = run(pipelined, Some(2));
            assert_eq!(plain_master.as_slice(), ckpt_master.as_slice());
            assert_eq!(plain_reports, ckpt_reports, "fault telemetry must match step for step");
        }
    }
}
