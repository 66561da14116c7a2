//! The functional-training workloads: a [`Trainer`] from
//! [`Session::trainer`], stepped over a ring of pre-generated gradients and
//! checked bit for bit against an in-memory reference.

use crate::probes::{self, Geometry};
use crate::report::{Metrics, Outcome};
use crate::stats::{block_rate, median, percentile_label, quantile, tail_quantile};
use crate::trace::Tracer;
use crate::{derive_seed, peak_rss_mib, Limits, THREADS};
use gradcomp::ErrorFeedback;
use optim::Optimizer;
use parcore::ParExecutor;
use smart_infinity::{MachineSpec, MethodSpec, ModelSpec, RunSpec, Session};
use std::time::Instant;
use tensorlib::{Chunker, FlatTensor, Partitioner};
use ztrain::{StepReport, Trainer};

/// Gradients in the ring the steps cycle through.
const RING: usize = 4;
/// Untimed steps before the timed loop (first-touch allocation of scratch
/// buffers); they are part of the checked step sequence.
const WARMUP_STEPS: usize = 2;
/// Trainer constructions timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 9;

/// One functional-training workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainWorkload {
    /// The method's capability axes; they select the trainer.
    pub method: MethodSpec,
    /// Storage devices (CSDs, or RAID0 members for the baseline).
    pub devices: usize,
    /// Parameters trained.
    pub params: usize,
    /// CSD pass (subgroup) capacity; `None` is one subgroup per shard.
    pub subgroup: Option<usize>,
}

impl TrainWorkload {
    /// `train-su`: SU+O+P, the pipelined SmartUpdate trainer, one pass per shard.
    pub fn su() -> Self {
        TrainWorkload {
            method: MethodSpec::pipelined(None),
            devices: 4,
            params: 1 << 22,
            subgroup: None,
        }
    }

    /// `train-comp`: SU+O+C(2%), the serial SmartComp trainer, 64 passes of
    /// 65 536 parameters (a 1 MiB working set each).
    pub fn comp() -> Self {
        TrainWorkload { method: MethodSpec::smart_comp(0.01), subgroup: Some(65_536), ..Self::su() }
    }

    /// `train-offload`: BASE, host updates over a RAID0 array.
    pub fn offload() -> Self {
        TrainWorkload { method: MethodSpec::baseline(), ..Self::su() }
    }

    /// The run spec this workload resolves through [`RunSpec::session`]. The
    /// model only matters to the timed view; the functional size is
    /// [`TrainWorkload::params`].
    pub fn run_spec(&self) -> RunSpec {
        let mut spec = RunSpec::new(
            ModelSpec::preset("GPT2-0.34B"),
            MachineSpec::devices(self.devices),
            self.method,
        )
        .with_threads(THREADS);
        if let Some(elems) = self.subgroup {
            spec = spec.with_subgroup_elems(elems);
        }
        spec
    }

    fn shard_len(&self) -> usize {
        self.params.div_ceil(self.devices)
    }

    /// The sizes the per-layer probes run at.
    fn geometry(&self) -> Geometry {
        let shard = self.shard_len();
        Geometry {
            subgroup: self.subgroup.unwrap_or(shard).min(shard),
            shard,
            devices: self.devices,
            keep_ratio: self.method.keep_ratio().unwrap_or(0.01),
            compressed_pass: self.method.compression.is_some(),
        }
    }

    /// CSD passes per step: one per subgroup of every shard, as the trainers
    /// chunk them; zero for the host-update baseline.
    fn passes_per_step(&self) -> usize {
        if !self.method.uses_csds() {
            return 0;
        }
        let capacity = self.subgroup.unwrap_or(self.shard_len());
        let partitioner = Partitioner::contiguous(self.params, self.devices);
        partitioner.shards().iter().map(|s| Chunker::new(s.len, capacity).num_subgroups()).sum()
    }
}

/// Seeded inputs, generated before anything is timed.
struct Inputs {
    initial: FlatTensor,
    ring: Vec<FlatTensor>,
}

impl Inputs {
    /// Initial parameters and the gradient ring for `workload`, from `seed`.
    fn generate(workload: &TrainWorkload, seed: u64) -> Self {
        let n = workload.params;
        Inputs {
            initial: FlatTensor::randn(n, 0.02, derive_seed(seed, 1)),
            ring: (0..RING as u64)
                .map(|i| FlatTensor::randn(n, 0.01, derive_seed(seed, 2 + i)))
                .collect(),
        }
    }

    fn grads(&self, step: u64) -> &FlatTensor {
        &self.ring[(step as usize - 1) % self.ring.len()]
    }
}

/// What the step loop observed.
#[derive(Debug, Default)]
struct StepLog {
    /// Wall seconds of the untraced timed steps.
    untraced: Vec<f64>,
    /// Wall seconds of the traced timed steps.
    traced: Vec<f64>,
    /// Reports of the timed steps.
    reports: Vec<StepReport>,
    /// Steps run, warm-up included (the length of the checked sequence).
    steps: u64,
    /// Steps that returned an error.
    failures: Vec<String>,
}

/// Runs `WARMUP_STEPS` untimed steps, then timed steps until `limits` are
/// met. With a tracer, every other timed step is traced (a `ztrain.step`
/// span whose id is the step number), so both halves see the same
/// conditions and their medians give the tracing overhead.
fn step_loop(
    trainer: &mut dyn Trainer,
    inputs: &Inputs,
    limits: &Limits,
    mut tracer: Option<&mut Tracer>,
) -> StepLog {
    let mut log = StepLog::default();
    let mut step = |log: &mut StepLog| {
        log.steps += 1;
        let result = trainer.step(inputs.grads(log.steps));
        if let Err(e) = &result {
            log.failures.push(format!("step {}: {e}", log.steps));
        }
        result.ok()
    };
    for _ in 0..WARMUP_STEPS {
        step(&mut log);
    }
    let begin = Instant::now();
    let mut timed = 0usize;
    while log.failures.is_empty()
        && (timed < limits.min_ops || begin.elapsed().as_secs_f64() < limits.seconds)
    {
        let start = Instant::now();
        let report = step(&mut log);
        let end = Instant::now();
        let seconds = (end - start).as_secs_f64();
        match tracer.as_deref_mut().filter(|_| timed % 2 == 1) {
            Some(tracer) => {
                tracer.record("ztrain.step", log.steps, None, start, end);
                log.traced.push(seconds);
            }
            None => log.untraced.push(seconds),
        }
        log.reports.extend(report);
        timed += 1;
    }
    log
}

/// The in-memory reference for `steps` steps: the same gradient sequence
/// through error feedback + Top-K + decompress per shard when the method
/// compresses, then the optimizer on plain memory.
fn reference(
    workload: &TrainWorkload,
    optimizer: Optimizer,
    inputs: &Inputs,
    steps: u64,
) -> FlatTensor {
    let n = workload.params;
    let pool = ParExecutor::new(THREADS);
    let mut master = inputs.initial.clone();
    let mut aux = optimizer.init_aux(n);
    let partitioner = Partitioner::contiguous(n, workload.devices);
    let compressor = workload.method.compression.map(|c| c.compressor());
    let mut feedback: Vec<ErrorFeedback> =
        partitioner.shards().iter().map(|s| ErrorFeedback::new(s.len)).collect();
    let mut effective = FlatTensor::zeros(n);
    let mut scratch = FlatTensor::default();
    for t in 1..=steps {
        let grads = inputs.grads(t);
        let grads = match &compressor {
            None => grads,
            Some(compressor) => {
                for shard in partitioner.shards().iter().filter(|s| s.len > 0) {
                    grads.slice_into(shard.offset, shard.len, &mut scratch);
                    let fb = &mut feedback[shard.device];
                    fb.apply_in_place(&mut scratch);
                    let sent = compressor.compress_par(&scratch, &pool);
                    fb.update(&scratch, &sent);
                    let range = shard.offset..shard.offset + shard.len;
                    sent.decompress_into(&mut effective.as_mut_slice()[range]);
                }
                &effective
            }
        };
        optimizer.par_step(&pool, master.as_mut_slice(), grads, &mut aux, t);
    }
    master
}

/// Compares two parameter vectors bit for bit.
fn check_bits(actual: &FlatTensor, expected: &FlatTensor) -> Result<(), String> {
    if actual.len() != expected.len() {
        return Err(format!("{} parameters, expected {}", actual.len(), expected.len()));
    }
    let pairs = actual.as_slice().iter().zip(expected.as_slice());
    let mismatched: Vec<usize> = pairs
        .enumerate()
        .filter(|(_, (a, e))| a.to_bits() != e.to_bits())
        .map(|(i, _)| i)
        .collect();
    match mismatched.first() {
        None => Ok(()),
        Some(&i) => Err(format!(
            "{} of {} master parameters differ from the reference (first at {i}: {} vs {})",
            mismatched.len(),
            actual.len(),
            actual.as_slice()[i],
            expected.as_slice()[i]
        )),
    }
}

/// Runs a training workload: seeded inputs, timed set-up, the step loop,
/// then the bit-exact check against [`reference`]. With a tracer it also
/// probes every layer at the workload's geometry and runs the workload's
/// spec through the `lab` layer.
pub fn run(
    workload: &TrainWorkload,
    seed: u64,
    limits: &Limits,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let inputs = Inputs::generate(workload, seed);
    let spec = workload.run_spec();
    let mut outcome = Outcome::default();

    // Set-up: spec resolution plus trainer construction, several times. The
    // previous trainer is dropped untimed, so at most one is alive.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut built: Option<(Session, Box<dyn Trainer>)> = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        let result = spec.session().and_then(|s| s.trainer(&inputs.initial).map(|t| (s, t)));
        setup.push(start.elapsed().as_secs_f64());
        match result {
            Ok(pair) => built = Some(pair),
            Err(e) => {
                outcome.problems.push(format!("set-up failed: {e}"));
                return outcome;
            }
        }
    }
    let (session, mut trainer) = built.expect("SETUP_REPS > 0");

    let log = step_loop(trainer.as_mut(), &inputs, limits, tracer.as_deref_mut());
    let peak_rss = peak_rss_mib();
    outcome.attempted = log.steps;
    outcome.failed = log.failures.len() as u64;
    outcome.problems.extend(log.failures.iter().cloned());

    if log.failures.is_empty() {
        let expected = reference(workload, session.optimizer(), &inputs, log.steps);
        match trainer.master_params() {
            Ok(actual) => outcome.problems.extend(check_bits(&actual, &expected).err()),
            Err(e) => outcome.problems.push(format!("reading master parameters: {e}")),
        }
    }
    drop(trainer);

    let step_p50 = median(&log.untraced);
    let throughput = block_rate(&log.untraced, workload.params as f64);
    let setup_s = median(&setup);
    outcome.end_to_end.push("throughput", throughput, "1/s");
    outcome.end_to_end.push("op_p50_s", step_p50, "s");
    outcome.end_to_end.push("setup_s", setup_s, "s");
    outcome.end_to_end.push("peak_rss_mb", peak_rss, "MiB");

    let d = &mut outcome.detail;
    d.push("params_per_s", throughput, "1/s");
    d.push("step_p50_s", step_p50, "s");
    if let Some(q) = tail_quantile(log.untraced.len()) {
        d.push(format!("step_{}_s", percentile_label(q)), quantile(&log.untraced, q), "s");
    }
    d.push("step_samples", log.untraced.len() as f64, "count");
    d.push("failed_frac", outcome.failed as f64 / log.steps.max(1) as f64, "1");
    d.push("setup_reps", SETUP_REPS as f64, "count");

    if let Some(tracer) = tracer {
        let probes = probes::run(&workload.geometry(), seed, tracer, 0);
        outcome.per_layer.extend(step_layer_metrics(workload, &log, &probes));
        outcome.per_layer.extend(probes);
        match crate::sweep::lab_probe(&spec, seed, tracer) {
            Ok(metrics) => outcome.per_layer.extend(metrics),
            Err(e) => outcome.problems.push(format!("lab probe: {e}")),
        }
        let overhead = median(&log.traced) / step_p50 - 1.0;
        outcome.per_layer.push("trace.overhead_frac", overhead, "1");
    }
    outcome
}

/// The `ztrain` step metrics and the per-step `csd` counts of a step log;
/// efficiencies are relative to the probed layer below (one CSD pass, or
/// the Adam kernel for the host-update baseline).
fn step_layer_metrics(workload: &TrainWorkload, log: &StepLog, probes: &Metrics) -> Metrics {
    let all: Vec<f64> = log.untraced.iter().chain(&log.traced).copied().collect();
    let step_rate = workload.params as f64 / median(&all);
    let below = if workload.method.uses_csds() {
        probes.get("csd.pass_el_per_s")
    } else {
        probes.get("optim.adam_el_per_s")
    };
    let per_step = |f: fn(&StepReport) -> u64| {
        median(&log.reports.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let csd_bytes = |f: fn(&StepReport) -> u64| {
        if workload.method.uses_csds() {
            per_step(f)
        } else {
            0.0
        }
    };
    let mut m = Metrics::default();
    m.push("ztrain.step_el_per_s", step_rate, "el/s");
    m.push("ztrain.step_eff", step_rate / below.unwrap_or(f64::NAN), "1");
    m.push("ztrain.grad_bytes_per_step", per_step(|r| r.gradient_bytes), "B");
    m.push("ztrain.storage_bytes_per_step", per_step(StepReport::storage_bytes_total), "B");
    m.push("ztrain.lanes", per_step(|r| r.stages.map_or(1, |s| s.lanes) as u64), "count");
    m.push("csd.passes_per_step", workload.passes_per_step() as f64, "count");
    m.push("csd.p2p_read_bytes_per_step", csd_bytes(|r| r.storage_bytes_read), "B");
    m.push("csd.p2p_write_bytes_per_step", csd_bytes(|r| r.storage_bytes_written), "B");
    m
}

/// The `ztrain` and per-step `csd` metrics of a short traced run of
/// `workload` (for workloads that do not train): `steps` timed steps, probes
/// at the workload's geometry for the efficiency bases.
pub fn probe_trainer(
    workload: &TrainWorkload,
    seed: u64,
    steps: usize,
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    let inputs = Inputs::generate(workload, seed);
    let session = workload.run_spec().session().map_err(|e| e.to_string())?;
    let mut trainer = session.trainer(&inputs.initial).map_err(|e| e.to_string())?;
    let limits = Limits { seconds: 0.0, min_ops: steps };
    let log = step_loop(trainer.as_mut(), &inputs, &limits, Some(tracer));
    if let Some(failure) = log.failures.first() {
        return Err(failure.clone());
    }
    let probes = probes::run(&workload.geometry(), seed, tracer, 1);
    let mut m = step_layer_metrics(workload, &log, &probes);
    m.extend(probes);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mut workload: TrainWorkload) -> TrainWorkload {
        workload.params = 4_096 + 3; // uneven shards
        if workload.subgroup.is_some() {
            workload.subgroup = Some(256);
        }
        workload
    }

    const SMOKE: Limits = Limits { seconds: 0.0, min_ops: 3 };

    #[test]
    fn every_training_workload_passes_its_check_at_tiny_size() {
        for workload in [TrainWorkload::su(), TrainWorkload::comp(), TrainWorkload::offload()] {
            let workload = tiny(workload);
            let outcome = run(&workload, 7, &SMOKE, None);
            assert!(outcome.correct(), "{}: {:?}", workload.method, outcome.problems);
            assert_eq!(outcome.attempted, (WARMUP_STEPS + 3) as u64);
            assert_eq!(outcome.failed, 0);
            let names: Vec<&str> = outcome.end_to_end.0.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, ["throughput", "op_p50_s", "setup_s", "peak_rss_mb"]);
            assert!(outcome.end_to_end.0.iter().all(|m| m.value > 0.0));
        }
    }

    #[test]
    fn the_check_fails_on_a_perturbed_reference() {
        for workload in [TrainWorkload::su(), TrainWorkload::comp(), TrainWorkload::offload()] {
            let workload = tiny(workload);
            let inputs = Inputs::generate(&workload, 3);
            let session = workload.run_spec().session().expect("valid spec");
            let mut trainer = session.trainer(&inputs.initial).expect("trainer");
            for t in 1..=4 {
                trainer.step(inputs.grads(t)).expect("step");
            }
            let actual = trainer.master_params().expect("params");
            let optimizer = session.optimizer();
            let exact = reference(&workload, optimizer, &inputs, 4);
            assert_eq!(check_bits(&actual, &exact), Ok(()), "{}", workload.method);
            // One flipped bit in one parameter.
            let mut perturbed = exact.clone();
            let x = &mut perturbed.as_mut_slice()[2_000];
            *x = f32::from_bits(x.to_bits() ^ 1);
            let err = check_bits(&actual, &perturbed).expect_err("perturbed reference must fail");
            assert!(err.starts_with("1 of 4099"), "{err}");
            // A reference one step short.
            assert!(check_bits(&actual, &reference(&workload, optimizer, &inputs, 3)).is_err());
        }
    }

    #[test]
    fn the_compressed_reference_differs_from_the_dense_one() {
        let comp = tiny(TrainWorkload::comp());
        let dense = TrainWorkload { method: MethodSpec::smart_update_optimized(), ..comp.clone() };
        let inputs = Inputs::generate(&comp, 5);
        let optimizer = Optimizer::adam_default();
        let a = reference(&comp, optimizer, &inputs, 2);
        let b = reference(&dense, optimizer, &inputs, 2);
        assert!(check_bits(&a, &b).is_err());
    }

    #[test]
    fn pass_counts_follow_the_chunking() {
        assert_eq!(TrainWorkload::su().passes_per_step(), 4);
        assert_eq!(TrainWorkload::comp().passes_per_step(), 64);
        assert_eq!(TrainWorkload::offload().passes_per_step(), 0);
    }
}
