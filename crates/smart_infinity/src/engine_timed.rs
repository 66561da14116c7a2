//! The timed Smart-Infinity engine: SmartUpdate, the internal data-transfer
//! handler, SmartComp and the pipelined execution backend on the
//! discrete-event platform.

use crate::spec::MethodSpec;
use llm::Workload;
use optim::OptimizerKind;
use serde::{Deserialize, Serialize};
use simkit::SimError;
use ztrain::schedule::{build_iteration_graph, GraphKnobs, IterPhases, PlatformLowering, SiteMap};
use ztrain::{IterationReport, MachineConfig, TimedPlatform};

/// How the CSD-internal data transfer handler schedules tasklets
/// (paper Section IV-B, Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HandlerMode {
    /// Naive: each subgroup's load → update → write-back → upstream runs
    /// strictly sequentially, because a fresh device buffer is allocated per
    /// tasklet and must be released before the next one starts.
    Naive,
    /// Optimized: buffers are pre-allocated once and reused. The next
    /// subgroup's load starts as soon as the previous update finishes, the
    /// parameter write-back (urgent) proceeds immediately, and the remaining
    /// optimizer-state write-back is deferred and overlapped.
    Optimized,
}

/// Stage-level timing of one simulated iteration: the per-phase breakdown
/// plus how the pipelined stages occupied the shared host interconnect.
///
/// Produced by [`SmartInfinityEngine::simulate_iteration_stages`]. The
/// occupancy figures come from [`simkit::Timeline::link_busy_time_in_phase`]
/// over the fabric's host-uplink links, so they measure what the flows
/// actually did under contention — not an analytic estimate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineTiming {
    /// The forward / backward / update phase breakdown.
    pub report: IterationReport,
    /// Seconds the *downstream* direction of the shared host interconnect
    /// carried gradient-offload flows (the pipeline's write stage).
    pub uplink_write_busy_s: f64,
    /// Seconds the *upstream* direction of the shared host interconnect
    /// carried parameter read-back flows (the pipeline's read-back stage).
    pub uplink_readback_busy_s: f64,
    /// Seconds of update-stage work that ran before the backward phase
    /// finished — the overlap the pipelined backend wins over the serial
    /// schedule (always 0 without pipelining).
    pub update_overlap_s: f64,
}

/// The timed model of a Smart-Infinity training iteration.
///
/// Construct with [`SmartInfinityEngine::new`], optionally select the naive
/// handler, enable SmartComp or enable the pipelined backend, then call
/// [`simulate_iteration`](SmartInfinityEngine::simulate_iteration).
#[derive(Debug, Clone)]
pub struct SmartInfinityEngine {
    machine: MachineConfig,
    workload: Workload,
    optimizer: OptimizerKind,
    handler: HandlerMode,
    /// Top-K keep ratio when SmartComp is enabled.
    keep_ratio: Option<f64>,
    /// Maximum number of parameters per FPGA subgroup (tasklet).
    subgroup_elems: usize,
    /// Whether the pipelined execution backend is modelled: each device's
    /// update chain starts as soon as *its own* shard gradients have landed,
    /// instead of waiting for the global end-of-backward barrier.
    pipelined: bool,
    /// Active fault-plan effects: a straggler FPGA and/or a derated uplink.
    fault_effects: Option<faultkit::TimedFaultEffects>,
}

impl SmartInfinityEngine {
    /// Default subgroup capacity: the largest parameter count whose working
    /// set (gradient + master + momentum + variance, 20 B/param with the FP16
    /// copy) fits comfortably in the SmartSSD's 4 GB FPGA DRAM.
    pub const DEFAULT_SUBGROUP_ELEMS: usize = 100_000_000;

    /// Per-tasklet overhead of the naive handler: OpenCL buffer allocation,
    /// registration for P2P and kernel launch before any byte can move
    /// (eliminated by the pre-allocating optimized handler).
    pub const NAIVE_TASKLET_OVERHEAD_S: f64 = 0.02;

    /// Creates an engine with the optimized handler and no compression.
    ///
    /// # Panics
    ///
    /// Panics if the machine's storage devices are not CSDs.
    pub fn new(machine: MachineConfig, workload: Workload, optimizer: OptimizerKind) -> Self {
        assert!(machine.is_csd(), "Smart-Infinity requires CSD storage devices");
        Self {
            machine,
            workload,
            optimizer,
            handler: HandlerMode::Optimized,
            keep_ratio: None,
            subgroup_elems: Self::DEFAULT_SUBGROUP_ELEMS,
            pipelined: false,
            fault_effects: None,
        }
    }

    /// Applies a fault plan's timed effects: the straggler device's FPGA
    /// kernels run slower and/or the shared host uplink is derated. Empty
    /// effects are a no-op, so the fault-free timing is untouched.
    #[must_use]
    pub fn with_fault_effects(mut self, effects: faultkit::TimedFaultEffects) -> Self {
        if !effects.is_empty() {
            self.fault_effects = Some(effects);
        }
        self
    }

    /// Selects the handler mode (naive corresponds to the paper's plain "SU").
    pub fn with_handler(mut self, handler: HandlerMode) -> Self {
        self.handler = handler;
        self
    }

    /// Configures the engine straight from a method's capability axes:
    /// `overlap` selects the handler, `compression` the keep ratio,
    /// `pipelined` the stage-overlapping schedule. This is the one place the
    /// timed view maps [`MethodSpec`] onto engine knobs; later builder calls
    /// (e.g. a [`HandlerMode`] ablation override) still win.
    ///
    /// # Panics
    ///
    /// Panics on an invalid keep ratio; validate the spec first
    /// ([`MethodSpec::validate`] — [`crate::Session`] always does).
    pub fn with_method_spec(mut self, spec: &MethodSpec) -> Self {
        self = self.with_handler(spec.implied_handler());
        if let Some(keep_ratio) = spec.keep_ratio() {
            self = self.with_compression(keep_ratio);
        }
        if spec.pipelined {
            self = self.with_pipelining();
        }
        self
    }

    /// Enables SmartComp with the given Top-K keep ratio.
    ///
    /// # Panics
    ///
    /// Panics if `keep_ratio` is not in `(0, 1]`.
    pub fn with_compression(mut self, keep_ratio: f64) -> Self {
        assert!(gradcomp::valid_keep_ratio(keep_ratio), "keep ratio must be in (0, 1]");
        self.keep_ratio = Some(keep_ratio);
        self
    }

    /// Overrides the subgroup (tasklet) capacity in parameters.
    ///
    /// # Panics
    ///
    /// Panics if `elems` is zero.
    pub fn with_subgroup_elems(mut self, elems: usize) -> Self {
        assert!(elems > 0, "subgroup capacity must be positive");
        self.subgroup_elems = elems;
        self
    }

    /// The machine description.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The workload description.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The handler mode in use.
    pub fn handler(&self) -> HandlerMode {
        self.handler
    }

    /// The SmartComp keep ratio, if compression is enabled.
    pub fn keep_ratio(&self) -> Option<f64> {
        self.keep_ratio
    }

    /// Enables the pipelined execution backend: gradient offload targets the
    /// devices that actually own each block's flattened parameters, and every
    /// device's near-storage update chain starts as soon as its own shard
    /// gradients have landed — so the update stage overlaps the remaining
    /// backward offload and the shared uplink is contended *per stage*
    /// instead of per step.
    pub fn with_pipelining(mut self) -> Self {
        self.pipelined = true;
        self
    }

    /// Whether the pipelined backend is modelled.
    pub fn is_pipelined(&self) -> bool {
        self.pipelined
    }

    /// Simulates one training iteration and returns the phase breakdown.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the simulation kernel.
    pub fn simulate_iteration(&self) -> Result<IterationReport, SimError> {
        Ok(self.simulate_iteration_stages()?.report)
    }

    /// Simulates one training iteration and additionally reports the
    /// stage-level occupancy of the shared host interconnect (see
    /// [`PipelineTiming`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the simulation kernel.
    pub fn simulate_iteration_stages(&self) -> Result<PipelineTiming, SimError> {
        let mut plat = TimedPlatform::new_with_faults(&self.machine, self.fault_effects.as_ref());
        let phases = IterPhases {
            forward: plat.add_phase("forward"),
            backward: plat.add_phase("backward+grad_offload"),
            update: plat.add_phase("update+opt_transfer"),
        };
        let bw_phase = phases.backward;
        let up_phase = phases.update;
        let sites = SiteMap::new(plat.num_gpus(), plat.num_devices());
        let knobs = GraphKnobs::in_storage(self.keep_ratio, self.subgroup_elems);
        let graph = build_iteration_graph(&self.workload, sites, self.optimizer, &knobs, phases);
        let resources = plat.resource_catalog();
        // The method schedule: striped vs owner-routed gradient scatters,
        // sequential vs overlapped tasklet chains — see `crate::sched`.
        let mut scheduler =
            crate::sched::method_scheduler(self.handler, self.pipelined, &graph.layout);
        let outcome = {
            let mut lowering = PlatformLowering::new(&mut plat);
            simkit::execute(&graph.dag, &resources, scheduler.as_mut(), &mut lowering)?
        };
        let (uplink_down, uplink_up) = plat.host_uplink_links();

        let timeline = plat.run()?;
        let finish = |id| {
            let task = outcome.task(id).expect("executor schedules every DAG task");
            timeline.finish_time(task)
        };
        let t_fw = finish(graph.layout.fw_end);
        let t_bw = finish(graph.layout.bw_end);
        let t_end =
            finish(graph.layout.phase_end.expect("in-storage graphs carry an iteration end"));
        Ok(PipelineTiming {
            report: IterationReport::new(t_fw, t_bw - t_fw, t_end - t_bw),
            uplink_write_busy_s: timeline.link_busy_time_in_phase(uplink_down, bw_phase),
            uplink_readback_busy_s: timeline.link_busy_time_in_phase(uplink_up, up_phase),
            // Actual update-stage work (union of its task intervals) that ran
            // before the backward phase finished — not the idle-inclusive
            // window since the first update task started.
            update_overlap_s: timeline.phase_busy_time_before(up_phase, t_bw),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm::ModelConfig;
    use ztrain::BaselineEngine;

    fn workload() -> Workload {
        Workload::paper_default(ModelConfig::gpt2_4b())
    }

    fn engine(n_csds: usize) -> SmartInfinityEngine {
        SmartInfinityEngine::new(
            MachineConfig::smart_infinity(n_csds),
            workload(),
            OptimizerKind::Adam,
        )
    }

    #[test]
    #[should_panic(expected = "requires CSD storage")]
    fn plain_ssd_machine_is_rejected() {
        SmartInfinityEngine::new(MachineConfig::baseline_raid0(4), workload(), OptimizerKind::Adam);
    }

    #[test]
    fn builders_record_configuration() {
        let e = engine(4).with_handler(HandlerMode::Naive).with_compression(0.05);
        assert_eq!(e.handler(), HandlerMode::Naive);
        assert_eq!(e.keep_ratio(), Some(0.05));
        assert_eq!(e.machine().num_devices, 4);
        assert_eq!(e.workload().batch_size(), 4);
    }

    #[test]
    fn optimized_handler_is_at_least_as_fast_as_naive() {
        let naive = engine(6).with_handler(HandlerMode::Naive).simulate_iteration().unwrap();
        let optimized =
            engine(6).with_handler(HandlerMode::Optimized).simulate_iteration().unwrap();
        assert!(optimized.update_s <= naive.update_s * 1.001);
        assert!(optimized.update_s < naive.update_s, "overlap must buy something");
    }

    #[test]
    fn compression_shrinks_the_backward_offload() {
        let plain = engine(10).simulate_iteration().unwrap();
        let compressed = engine(10).with_compression(0.01).simulate_iteration().unwrap();
        assert!(compressed.backward_s < plain.backward_s);
        assert!(compressed.total_s() < plain.total_s());
    }

    #[test]
    fn smart_infinity_scales_with_csds_while_baseline_does_not() {
        let total = |n: usize| engine(n).simulate_iteration().unwrap().total_s();
        let t2 = total(2);
        let t4 = total(4);
        let t8 = total(8);
        assert!(t2 / t4 > 1.25, "2 -> 4 CSDs: {t2:.2} vs {t4:.2}");
        assert!(t4 / t8 > 1.15, "4 -> 8 CSDs: {t4:.2} vs {t8:.2}");
    }

    #[test]
    fn single_csd_is_not_faster_than_the_single_ssd_baseline() {
        // Paper Section VII-E: with one CSD there is no aggregate-bandwidth
        // benefit and a slight slowdown is expected.
        let base =
            BaselineEngine::new(MachineConfig::baseline_raid0(1), workload(), OptimizerKind::Adam)
                .simulate_iteration()
                .unwrap();
        let smart = engine(1).simulate_iteration().unwrap();
        let speedup = smart.speedup_over(&base);
        assert!(speedup <= 1.02, "single-CSD speedup should not exceed ~1x, got {speedup:.2}");
        assert!(speedup > 0.6, "the slowdown should be bounded, got {speedup:.2}");
    }

    #[test]
    fn pipelining_overlaps_update_with_backward() {
        let serial = engine(6).simulate_iteration_stages().unwrap();
        let pipe = engine(6).with_pipelining().simulate_iteration_stages().unwrap();
        assert!(!engine(6).is_pipelined());
        assert!(engine(6).with_pipelining().is_pipelined());
        // The serial schedule starts every update at the end-of-backward
        // barrier; the pipelined schedule starts each device as soon as its
        // own shard gradients landed.
        assert_eq!(serial.update_overlap_s, 0.0);
        assert!(pipe.update_overlap_s > 0.0, "no overlap: {pipe:?}");
        assert!(
            pipe.report.total_s() < serial.report.total_s(),
            "overlap must buy something: {} vs {}",
            pipe.report.total_s(),
            serial.report.total_s()
        );
        // Stage bytes are charged over the fabric's shared uplink: the write
        // stage occupies the downstream direction, the read-back stage the
        // upstream direction, in both schedules.
        for timing in [&serial, &pipe] {
            assert!(timing.uplink_write_busy_s > 0.0);
            assert!(timing.uplink_readback_busy_s > 0.0);
        }
        // simulate_iteration is the stages run's phase report.
        let report = engine(6).with_pipelining().simulate_iteration().unwrap();
        assert_eq!(report, pipe.report);
    }

    #[test]
    fn pipelining_composes_with_compression_and_the_naive_handler() {
        let pipe = engine(8).with_pipelining().simulate_iteration().unwrap();
        let pipe_comp = engine(8).with_pipelining().with_compression(0.01);
        assert!(pipe_comp.is_pipelined());
        assert_eq!(pipe_comp.keep_ratio(), Some(0.01));
        let pipe_comp = pipe_comp.simulate_iteration().unwrap();
        assert!(pipe_comp.total_s() < pipe.total_s(), "compression still helps when pipelined");
        // The naive handler's per-tasklet overhead hurts the pipelined
        // schedule exactly like the serial one.
        let naive =
            engine(8).with_pipelining().with_handler(HandlerMode::Naive).simulate_iteration();
        assert!(naive.unwrap().total_s() > pipe.total_s());
    }

    #[test]
    fn update_phase_no_longer_dominates_with_many_csds() {
        let report = engine(10).with_compression(0.01).simulate_iteration().unwrap();
        assert!(
            report.update_fraction() < 0.7,
            "update should no longer take >70% of the iteration, got {:.2}",
            report.update_fraction()
        );
    }
}
