//! Tests of the functional near-storage trainer as this crate re-exports it,
//! on its default in-order schedule. `ztrain`'s own tests cover both
//! schedules side by side; these pin the path `Session` takes for every
//! method without `P`.

mod tests {
    use crate::{
        DegradedReport, FaultPlan, FlatTensor, Optimizer, OptimizerKind, SmartInfinityTrainer,
        StepReport, StorageOffloadTrainer, SyntheticGradients, Trainer, TrainerCheckpoint,
    };

    #[test]
    fn smartupdate_is_bit_identical_to_the_baseline_trainer() {
        let n = 5000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 1);

        let mut baseline = StorageOffloadTrainer::new(&initial, optimizer, 2, 1024).unwrap();
        let mut smart = SmartInfinityTrainer::new(&initial, optimizer, 3, 700).unwrap();

        for step in 0..4u64 {
            let grads = FlatTensor::randn(n, 0.01, 100 + step);
            baseline.train_step_with_grads(&grads).unwrap();
            let report = smart.train_step_with_grads(&grads).unwrap();
            assert!(!report.is_pipelined(), "the default schedule runs shards in order");
        }
        assert_eq!(
            smart.master_params().unwrap().as_slice(),
            baseline.master_params().unwrap().as_slice()
        );
        assert_eq!(smart.params_fp16().as_slice(), baseline.params_fp16().as_slice());
        assert_eq!(smart.steps_completed(), 4);
        assert_eq!(smart.num_csds(), 3);
        assert!(!smart.is_compressed());
    }

    #[test]
    fn compression_changes_the_update_but_stays_close() {
        let n = 4000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 2);
        let mut exact = SmartInfinityTrainer::new(&initial, optimizer, 2, 1000).unwrap();
        let mut compressed = SmartInfinityTrainer::new(&initial, optimizer, 2, 1000)
            .unwrap()
            .with_compression(0.1)
            .unwrap();
        assert!(compressed.is_compressed());
        let mut source_a = SyntheticGradients::new(n, 0.01, 7);
        let mut source_b = SyntheticGradients::new(n, 0.01, 7);
        let mut last_exact = StepReport::default();
        let mut last_compressed = StepReport::default();
        for _ in 0..5 {
            last_exact = exact.step_from(&mut source_a).unwrap();
            last_compressed = compressed.step_from(&mut source_b).unwrap();
        }
        let a = exact.master_params().unwrap();
        let b = compressed.master_params().unwrap();
        assert_ne!(a.as_slice(), b.as_slice(), "lossy compression must change something");
        // ... but the parameters stay in the same ballpark (error feedback keeps
        // the sparsified trajectory close to the dense one).
        let rel = (a.mse(&b)).sqrt() / (a.l2_norm() as f64 / (n as f64).sqrt());
        assert!(rel < 0.5, "relative deviation {rel:.3}");
        // And the per-step telemetry reflects the compression: the Top-K
        // stream (8 bytes per kept element) is far smaller than the dense
        // gradient, and only the compressed trainer reports a keep count.
        assert_eq!(last_exact.gradient_bytes, 4 * n as u64);
        assert_eq!(last_exact.compression_kept, None);
        let kept = last_compressed.compression_kept.expect("SmartComp reports its keep count");
        assert_eq!(last_compressed.gradient_bytes, 8 * kept);
        assert!(last_compressed.gradient_bytes < last_exact.gradient_bytes / 4);
    }

    #[test]
    fn p2p_traffic_matches_the_analytic_accounting() {
        let n = 6000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::zeros(n);
        let mut smart = SmartInfinityTrainer::new(&initial, optimizer, 3, 1000).unwrap();
        smart.train_step_with_grads(&FlatTensor::zeros(n)).unwrap();
        let stats = smart.aggregate_stats();
        assert_eq!(stats.elements_updated, n as u64);
        // Adam, dense gradients: 16 B/param read, 12 B/param written, all internal.
        assert_eq!(stats.p2p_read_bytes, 16 * n as u64);
        assert_eq!(stats.p2p_write_bytes, 12 * n as u64);
        assert_eq!(stats.updates_run, 6); // 3 shards x 2 subgroups
    }

    #[test]
    fn different_csd_counts_give_identical_results() {
        let n = 3000;
        let optimizer = Optimizer::new(OptimizerKind::AdaGrad, optim::HyperParams::default());
        let initial = FlatTensor::randn(n, 0.05, 3);
        let grads = FlatTensor::randn(n, 0.01, 4);
        let mut one = SmartInfinityTrainer::new(&initial, optimizer, 1, 512).unwrap();
        let mut many = SmartInfinityTrainer::new(&initial, optimizer, 7, 199).unwrap();
        one.train_step_with_grads(&grads).unwrap();
        many.train_step_with_grads(&grads).unwrap();
        assert_eq!(
            one.master_params().unwrap().as_slice(),
            many.master_params().unwrap().as_slice()
        );
    }

    #[test]
    fn threaded_backend_is_bit_identical_to_serial_with_and_without_compression() {
        let n = 5000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 40);
        let run = |threads: usize, keep: Option<f64>| {
            let mut t = SmartInfinityTrainer::new(&initial, optimizer, 3, 700).unwrap();
            if let Some(k) = keep {
                t = t.with_compression(k).unwrap();
            }
            if threads > 1 {
                t = t.with_threads(threads);
            }
            assert_eq!(t.num_threads(), threads.max(1));
            let mut source = SyntheticGradients::new(n, 0.01, 55);
            for _ in 0..3 {
                t.step_from(&mut source).unwrap();
            }
            (t.master_params().unwrap(), t.params_fp16().clone())
        };
        for keep in [None, Some(0.05)] {
            let (serial_master, serial_fp16) = run(1, keep);
            for threads in [2usize, 4] {
                let (master, fp16) = run(threads, keep);
                assert_eq!(master.as_slice(), serial_master.as_slice(), "{keep:?} t={threads}");
                assert_eq!(fp16.as_slice(), serial_fp16.as_slice(), "{keep:?} t={threads}");
            }
        }
    }

    #[test]
    fn injected_faults_are_recovered_and_do_not_change_the_numbers() {
        let n = 3000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 31);
        let plan = || {
            let mut spec = faultkit::FaultSpec::empty(17);
            spec.transient_per_mille = Some(250);
            spec.ssd_wearout_step = Some(1);
            spec.csd_dropout_step = Some(2);
            FaultPlan::new(spec)
        };
        let mut clean = SmartInfinityTrainer::new(&initial, optimizer, 3, 500).unwrap();
        let mut faulted =
            SmartInfinityTrainer::new(&initial, optimizer, 3, 500).unwrap().with_fault_plan(plan());
        let mut deg = DegradedReport::default();
        for step in 0..4u64 {
            let grads = FlatTensor::randn(n, 0.01, 200 + step);
            clean.train_step_with_grads(&grads).unwrap();
            let report = faulted.train_step_with_grads(&grads).unwrap();
            if let Some(d) = &report.degraded {
                deg.absorb(d);
            }
        }
        assert!(deg.transient_faults > 0, "250‰ must fire at least once");
        assert_eq!(deg.devices_rebuilt, 2, "one wear-out plus one dropout");
        assert!(deg.rebuild_bytes > 0);
        assert_eq!(
            clean.master_params().unwrap().as_slice(),
            faulted.master_params().unwrap().as_slice(),
            "recovery must be numerically invisible"
        );
        assert_eq!(clean.params_fp16().as_slice(), faulted.params_fp16().as_slice());
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let n = 2000;
        let optimizer = Optimizer::adam_default();
        let initial = FlatTensor::randn(n, 0.05, 61);
        let source = |seed| SyntheticGradients::new(n, 0.01, seed);
        let make = || {
            SmartInfinityTrainer::new(&initial, optimizer, 3, 400)
                .unwrap()
                .with_compression(0.1)
                .unwrap()
        };

        // Straight run: 5 steps.
        let mut straight = make();
        let mut src = source(71);
        for _ in 0..5 {
            straight.step_from(&mut src).unwrap();
        }

        // Interrupted run: 2 steps, checkpoint (through JSON, the on-disk
        // form), restore into a fresh trainer, 3 more steps.
        let mut first = make();
        let mut src = source(71);
        for _ in 0..2 {
            first.step_from(&mut src).unwrap();
        }
        let checkpoint = Trainer::checkpoint(&mut first).unwrap();
        assert!(!checkpoint.residual_bits.is_empty(), "compression saves its residuals");
        let json = checkpoint.to_json().unwrap();
        let reloaded = TrainerCheckpoint::from_json(&json).unwrap();
        let mut resumed = make();
        Trainer::restore(&mut resumed, &reloaded).unwrap();
        assert_eq!(resumed.steps_completed(), 2);
        for _ in 0..3 {
            resumed.step_from(&mut src).unwrap();
        }
        assert_eq!(
            resumed.master_params().unwrap().as_slice(),
            straight.master_params().unwrap().as_slice()
        );
        assert_eq!(resumed.params_fp16().as_slice(), straight.params_fp16().as_slice());
    }
}
