//! Benchmarks of the near-storage trainer with its CSD lanes overlapped
//! (`SmartInfinityTrainer::with_pipelining`): one full functional training
//! step across worker-thread counts, with and without SmartComp compression.
//! The results are bit-identical for every thread count (the integration
//! suite asserts it); these measure the wall-clock effect of overlapping the
//! per-device write → compress/update → read-back stages.
//!
//! NOTE: on a single-CPU container the pipelined lanes time-slice one core,
//! so the ratios here are only meaningful on a multi-core machine (the same
//! caveat BENCH_2.json records via `parallel_valid`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use optim::Optimizer;
use std::hint::black_box;
use tensorlib::FlatTensor;
use ztrain::SmartInfinityTrainer;

const STEP_ELEMS: usize = 1 << 18;
const DEVICES: usize = 4;

fn bench_pipelined_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipelined_step");
    g.sample_size(10);
    g.throughput(Throughput::Bytes((STEP_ELEMS * 4) as u64));
    let initial = FlatTensor::randn(STEP_ELEMS, 0.02, 1);
    let grads = FlatTensor::randn(STEP_ELEMS, 0.01, 2);
    for keep in [None, Some(0.01f64)] {
        let label = keep.map_or("dense".to_string(), |k| format!("topk{k}"));
        for threads in [1usize, 2, 4] {
            g.bench_with_input(BenchmarkId::new(&label, threads), &threads, |b, &threads| {
                let mut trainer = SmartInfinityTrainer::new(
                    &initial,
                    Optimizer::adam_default(),
                    DEVICES,
                    STEP_ELEMS / DEVICES,
                )
                .expect("trainer")
                .with_pipelining();
                if let Some(k) = keep {
                    trainer = trainer.with_compression(k).expect("keep ratio");
                }
                trainer = trainer.with_threads(threads);
                b.iter(|| {
                    let report = trainer.train_step_with_grads(&grads).expect("step");
                    black_box(report.stages);
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_pipelined_step);
criterion_main!(benches);
