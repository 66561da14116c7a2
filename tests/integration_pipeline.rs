//! Integration suite of the overlapped schedule of the near-storage trainer
//! (`SmartInfinityTrainer::with_pipelining`): it is bit-identical to the
//! in-order schedule for every device and thread count (property-tested), its
//! `StepReport` carries per-stage overlap telemetry, the timed view charges stage bytes over the fabric links, and
//! the hardening sweep's error paths (compression representation errors,
//! session knob validation, exact sampled Top-K) hold end to end.

use gradcomp::{CompressError, CompressedGradient, Compressor};
use optim::{HyperParams, Optimizer, OptimizerKind};
use proptest::prelude::*;
use smart_infinity::{
    FlatTensor, MachineConfig, MethodSpec, ModelConfig, Session, SmartInfinityEngine,
    SmartInfinityTrainer, TrainError, Trainer,
};
use std::error::Error;
use ztrain::SyntheticGradients;

fn pipelined_session(devices: usize, threads: usize, keep_ratio: Option<f64>) -> Session {
    Session::builder(
        ModelConfig::gpt2_0_34b(),
        MachineConfig::smart_infinity(devices),
        MethodSpec::pipelined(keep_ratio),
    )
    .with_threads(threads)
    .build()
}

/// The acceptance criterion: a `Session` with `MethodSpec::pipelined`
/// produces parameters bit-identical to the trainer running its shards in
/// order, while the step reports carry per-stage overlap telemetry.
#[test]
fn pipelined_session_is_bit_identical_to_the_serial_trainer() {
    let n = 10_000;
    let steps = 4u64;
    let initial = FlatTensor::randn(n, 0.05, 42);
    for keep_ratio in [None, Some(0.02)] {
        let mut serial =
            SmartInfinityTrainer::new(&initial, Optimizer::adam_default(), 3, 1200).unwrap();
        if let Some(k) = keep_ratio {
            serial = serial.with_compression(k).unwrap();
        }
        let mut pipelined = pipelined_session(3, 4, keep_ratio).trainer(&initial).expect("trainer");
        let mut src_a = SyntheticGradients::new(n, 0.01, 300);
        let mut src_b = SyntheticGradients::new(n, 0.01, 300);
        let mut last = ztrain::StepReport::default();
        for _ in 0..steps {
            serial.step_from(&mut src_a).unwrap();
            last = pipelined.step_from(&mut src_b).unwrap();
        }
        assert_eq!(
            serial.master_params().unwrap().as_slice(),
            pipelined.master_params().unwrap().as_slice(),
            "keep_ratio={keep_ratio:?}"
        );
        assert_eq!(serial.params_fp16().as_slice(), pipelined.params_fp16().as_slice());
        assert_eq!(pipelined.steps_completed(), steps);

        // Per-stage overlap telemetry: write/update/read-back bytes are split
        // out and consistent with the flat counters.
        let stages = last.stages.expect("pipelined backend reports stages");
        assert!(last.is_pipelined());
        assert!(stages.is_overlapped(), "4 threads over 3 lanes must overlap");
        assert_eq!(stages.lanes, 3);
        assert_eq!(stages.write_bytes, last.gradient_bytes);
        assert_eq!(stages.update_bytes, last.storage_bytes_total());
        assert_eq!(stages.read_back_bytes, 2 * n as u64);
        match keep_ratio {
            None => assert_eq!(stages.write_bytes, 4 * n as u64),
            Some(_) => {
                let kept = last.compression_kept.expect("keep count");
                assert_eq!(stages.write_bytes, 8 * kept);
            }
        }
    }
}

/// The timed view of the pipelined method charges each stage's bytes over the
/// installed fabric links: the update stage overlaps the backward offload and
/// the shared uplink shows stage-level occupancy in both directions.
#[test]
fn timed_pipeline_charges_stage_bytes_over_fabric_links() {
    let machine = MachineConfig::smart_infinity(6);
    let workload = smart_infinity::Workload::paper_default(ModelConfig::gpt2_4b());
    let serial = SmartInfinityEngine::new(machine.clone(), workload.clone(), OptimizerKind::Adam)
        .simulate_iteration_stages()
        .unwrap();
    let pipelined = SmartInfinityEngine::new(machine, workload, OptimizerKind::Adam)
        .with_pipelining()
        .simulate_iteration_stages()
        .unwrap();
    assert_eq!(serial.update_overlap_s, 0.0, "serial schedule has no overlap");
    assert!(pipelined.update_overlap_s > 0.0, "pipelined schedule overlaps: {pipelined:?}");
    assert!(pipelined.report.total_s() < serial.report.total_s());
    // Both directions of the shared uplink saw stage traffic.
    assert!(pipelined.uplink_write_busy_s > 0.0);
    assert!(pipelined.uplink_readback_busy_s > 0.0);
    // The session front door reaches the same timed path (different model,
    // so only a sanity bound here).
    let via_session = pipelined_session(6, 1, None).simulate_iteration().unwrap();
    assert!(via_session.total_s() > 0.0);
}

/// Compression representation errors surface as values through the whole
/// `CompressError` → `CsdError` → `TrainError` chain instead of aborting.
#[test]
fn oversized_compression_errors_chain_to_train_error() {
    let compressor = Compressor::top_k(0.01);
    // The guard itself (no 16 GiB allocation needed to test the chain).
    let e = CompressedGradient::try_new(vec![], vec![], u32::MAX as usize + 1).unwrap_err();
    assert_eq!(e, CompressError::IndexSpaceExceeded { original_len: u32::MAX as usize + 1 });
    let train: TrainError = e.into();
    assert!(matches!(train, TrainError::Device(_)), "{train}");
    let device = train.source().expect("device layer");
    let origin = device.source().expect("compression layer");
    assert!(origin.downcast_ref::<CompressError>().is_some());
    // Normal-sized gradients take the fallible path without loss.
    let grads = FlatTensor::randn(4096, 0.01, 5);
    assert_eq!(compressor.try_compress(&grads).unwrap(), compressor.compress(&grads));
}

/// The session rejects the degenerate knobs of the hardening sweep as
/// `TrainError::Config` for the pipelined method too.
#[test]
fn pipelined_session_validates_degenerate_knobs() {
    let s = pipelined_session(3, 2, None);
    let err = s.trainer(&FlatTensor::zeros(2)).expect_err("fewer params than devices");
    assert!(matches!(err, TrainError::Config { .. }), "{err}");
    let s = Session::builder(
        ModelConfig::gpt2_0_34b(),
        MachineConfig::smart_infinity(2),
        MethodSpec::pipelined(None),
    )
    .with_subgroup_elems(0)
    .build();
    let err = s.trainer(&FlatTensor::zeros(64)).expect_err("zero subgroup capacity");
    assert!(matches!(err, TrainError::Config { .. }), "{err}");
    let err = s.simulate_iteration().expect_err("zero subgroup capacity");
    assert!(matches!(err, TrainError::Config { .. }), "{err}");
}

proptest! {
    /// Property: the overlapped schedule is bit-identical to the in-order
    /// schedule across device counts (1/2/7), thread counts, subgroup
    /// capacities and compression settings.
    #[test]
    fn pipeline_equals_serial_bit_for_bit(
        seed in 0u64..1_000,
        devices_idx in 0usize..3,
        threads in 1usize..5,
        subgroup in 64usize..800,
        compress in proptest::bool::ANY,
    ) {
        let devices = [1usize, 2, 7][devices_idx];
        let n = 2_003; // prime: ragged shards and subgroups
        let optimizer = Optimizer::new(OptimizerKind::Adam, HyperParams::default());
        let initial = FlatTensor::randn(n, 0.05, seed);

        let mut serial = SmartInfinityTrainer::new(&initial, optimizer, devices, subgroup).unwrap();
        let mut pipelined = SmartInfinityTrainer::new(&initial, optimizer, devices, subgroup)
            .unwrap()
            .with_pipelining();
        if compress {
            serial = serial.with_compression(0.05).unwrap();
            pipelined = pipelined.with_compression(0.05).unwrap();
        }
        pipelined = pipelined.with_threads(threads);

        let mut src_a = SyntheticGradients::new(n, 0.01, seed.wrapping_add(77));
        let mut src_b = SyntheticGradients::new(n, 0.01, seed.wrapping_add(77));
        for _ in 0..2 {
            let a = serial.step_from(&mut src_a).unwrap();
            let b = pipelined.step_from(&mut src_b).unwrap();
            // Identical interconnect and storage accounting per step.
            prop_assert_eq!(a.gradient_bytes, b.gradient_bytes);
            prop_assert_eq!(a.storage_bytes_read, b.storage_bytes_read);
            prop_assert_eq!(a.storage_bytes_written, b.storage_bytes_written);
            prop_assert_eq!(a.compression_kept, b.compression_kept);
        }
        let serial_master = serial.master_params().unwrap();
        let pipelined_master = pipelined.master_params().unwrap();
        prop_assert_eq!(serial_master.as_slice(), pipelined_master.as_slice());
        prop_assert_eq!(serial.params_fp16().as_slice(), pipelined.params_fp16().as_slice());
    }

    /// Property: the fixed sampled Top-K tail keeps exactly `k` elements and
    /// matches the exact selection even on adversarial (tie-heavy, spiked)
    /// magnitude distributions.
    #[test]
    fn sampled_top_k_tail_is_exact(
        base in proptest::collection::vec(-2.0f32..2.0, 50..400),
        spikes in proptest::collection::vec(0usize..400, 0..8),
        ratio in 0.01f64..0.5,
        sample_size in 1usize..128,
    ) {
        // Quantise for ties, then plant large-magnitude spikes anywhere —
        // including past where the old early-exit stopped scanning.
        let mut values: Vec<f32> = base.iter().map(|v| (v * 8.0).round() / 8.0).collect();
        let n = values.len();
        for (j, s) in spikes.iter().enumerate() {
            values[s % n] = 50.0 + j as f32;
        }
        let grads = FlatTensor::from_vec(values);
        let accelerated = Compressor::threshold_top_k(ratio, sample_size).compress(&grads);
        let exact = Compressor::top_k(ratio).compress(&grads);
        prop_assert_eq!(accelerated.num_selected(), Compressor::top_k(ratio).num_kept(n));
        prop_assert_eq!(accelerated, exact);
    }
}
