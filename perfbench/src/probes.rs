//! Per-layer probes: each layer's public entry point, called on seeded
//! inputs at a workload's geometry and timed rep by rep.
//!
//! These give the kernel-level rates the workloads are built from
//! (`tensorlib`, `optim`, `gradcomp`, `ssd`, one `csd` pass), so a step's
//! time can be read as an efficiency against the layer below it.

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{derive_seed, THREADS};
use csd::{CsdDevice, SubgroupUpdate};
use gradcomp::{Compressor, ErrorFeedback};
use optim::Optimizer;
use parcore::ParExecutor;
use ssd::{RaidArray, SsdDevice};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tensorlib::{Dtype, FlatTensor};

/// The sizes a workload runs its layers at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Elements per CSD pass, RAID0 block and conversion call.
    pub subgroup: usize,
    /// Elements per device shard; Top-K and error feedback run per shard.
    pub shard: usize,
    /// Storage devices (members of the RAID0 probe array).
    pub devices: usize,
    /// Top-K keep ratio of the `gradcomp` probes.
    pub keep_ratio: f64,
    /// Whether the CSD pass decompresses a Top-K stream (SmartComp) instead
    /// of reading dense gradients.
    pub compressed_pass: bool,
}

/// Probe repetitions: at least `MIN_REPS`, then more until `PROBE_TIME`
/// has passed or `MAX_REPS` were taken.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 300;
const PROBE_TIME: Duration = Duration::from_millis(100);

/// Runs one timed probe after another, recording one span per rep.
struct Prober<'t> {
    tracer: &'t mut Tracer,
    root: SpanId,
    id: u64,
}

impl Prober<'_> {
    /// Median seconds of `op` on `state`, with `prep` run on it untimed
    /// before each rep.
    fn time_with<S>(
        &mut self,
        name: &'static str,
        state: &mut S,
        mut prep: impl FnMut(&mut S),
        mut op: impl FnMut(&mut S),
    ) -> f64 {
        let begin = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < MIN_REPS || (samples.len() < MAX_REPS && begin.elapsed() < PROBE_TIME)
        {
            prep(state);
            let start = Instant::now();
            op(state);
            let end = Instant::now();
            samples.push((end - start).as_secs_f64());
            self.tracer.record(name, self.id, Some(self.root), start, end);
        }
        median(&samples)
    }

    fn time(&mut self, name: &'static str, mut op: impl FnMut()) -> f64 {
        self.time_with(name, &mut (), |_| {}, |_| op())
    }
}

/// Probes every kernel layer at `geometry` with inputs drawn from `seed`,
/// under one `bench.probes` span with the given id.
pub fn run(geometry: &Geometry, seed: u64, tracer: &mut Tracer, id: u64) -> Metrics {
    let Geometry { subgroup, shard, devices, keep_ratio, compressed_pass } = *geometry;
    let subgroup = subgroup.min(shard);
    let params = FlatTensor::randn(shard, 0.02, derive_seed(seed, 101));
    let grads = FlatTensor::randn(shard, 0.01, derive_seed(seed, 102));
    let sub_params = params.slice(0, subgroup);
    let sub_grads = grads.slice(0, subgroup);
    let optimizer = Optimizer::adam_default();
    let root = tracer.open("bench.probes", id, None);
    let mut p = Prober { tracer, root, id };
    let mut m = Metrics::default();
    let el = subgroup as f64;
    let bytes = 4.0 * el;

    // tensorlib: FP32 byte encode/decode and the FP16 round trip.
    let mut encoded = Vec::new();
    let t = p.time("tensorlib.f32_encode", || {
        sub_params.to_bytes_into(Dtype::F32, &mut encoded);
        black_box(&encoded);
    });
    m.push("tensorlib.f32_encode_el_per_s", el / t, "el/s");
    let mut decoded = FlatTensor::default();
    let t = p.time("tensorlib.f32_decode", || {
        FlatTensor::from_bytes_into(black_box(&encoded), Dtype::F32, &mut decoded);
    });
    m.push("tensorlib.f32_decode_el_per_s", el / t, "el/s");
    let mut rounded = vec![0.0f32; subgroup];
    let t = p.time("tensorlib.f16_roundtrip", || {
        sub_params.roundtrip_f16_into(&mut rounded);
        black_box(&rounded);
    });
    m.push("tensorlib.f16_roundtrip_el_per_s", el / t, "el/s");

    // optim: the Adam kernel on one thread and on the worker pool.
    let pool = ParExecutor::new(THREADS);
    let adam = |name, pool: &ParExecutor, p: &mut Prober| {
        let mut master = sub_params.clone();
        let mut aux = optimizer.init_aux(subgroup);
        let mut step = 0;
        p.time(name, || {
            step += 1;
            optimizer.par_step(pool, master.as_mut_slice(), &sub_grads, &mut aux, step);
        })
    };
    let adam_s = adam("optim.adam", &ParExecutor::serial(), &mut p);
    let adam_rate = el / adam_s;
    m.push("optim.adam_el_per_s", adam_rate, "el/s");
    let t = adam("optim.adam_par", &pool, &mut p);
    m.push("optim.adam_par_el_per_s", el / t, "el/s");

    // gradcomp: Top-K selection, error feedback and decompression, per shard.
    let compressor = Compressor::top_k(keep_ratio);
    let compressed = compressor.compress(&grads);
    let t = p.time("gradcomp.topk", || {
        black_box(compressor.compress(black_box(&grads)));
    });
    m.push("gradcomp.topk_el_per_s", shard as f64 / t, "el/s");
    let mut feedback = ErrorFeedback::new(shard);
    let mut corrected = grads.clone();
    let t = p.time_with(
        "gradcomp.feedback",
        &mut corrected,
        |corrected| corrected.as_mut_slice().copy_from_slice(grads.as_slice()),
        |corrected| {
            feedback.apply_in_place(corrected);
            feedback.update(corrected, &compressed);
        },
    );
    m.push("gradcomp.feedback_el_per_s", shard as f64 / t, "el/s");
    let mut dense = vec![0.0f32; shard];
    let t = p.time("gradcomp.decompress", || {
        compressed.decompress_into(&mut dense);
        black_box(&dense);
    });
    m.push("gradcomp.decompress_el_per_s", shard as f64 / t, "el/s");
    m.push("gradcomp.kept", compressed.num_selected() as f64, "count");

    // ssd: one device's ranged write/read, and whole-block RAID0 striping.
    let mut device = SsdDevice::new("probe-ssd", u64::MAX / 4);
    device.write_region("block", encoded.clone()).expect("probe SSD has room");
    let t = p.time("ssd.write_at", || {
        device.write_at("block", 0, &encoded).expect("probe write is in bounds");
    });
    m.push("ssd.write_bytes_per_s", bytes / t, "B/s");
    let mut read_back = Vec::new();
    let t = p.time("ssd.read_at", || {
        device.read_at_into("block", 0, encoded.len(), &mut read_back).expect("probe read");
        black_box(&read_back);
    });
    m.push("ssd.read_bytes_per_s", bytes / t, "B/s");
    let members =
        (0..devices.max(1)).map(|i| SsdDevice::new(format!("probe-raid{i}"), u64::MAX / 4));
    let mut raid = RaidArray::new(members.collect(), 1 << 20).expect("non-empty array");
    let t = p.time("ssd.raid_write", || {
        raid.write_region("block", &encoded).expect("probe RAID has room");
    });
    m.push("ssd.raid_write_bytes_per_s", bytes / t, "B/s");
    let t = p.time("ssd.raid_read", || {
        black_box(raid.read_region("block").expect("probe RAID read"));
    });
    m.push("ssd.raid_read_bytes_per_s", bytes / t, "B/s");

    // csd: one subgroup pass (P2P load, optional decompress, update, write-back).
    let mut csd = CsdDevice::new("probe-csd", u64::MAX / 4, 1 << 32);
    csd.store_initial_state("shard", &params, &optimizer).expect("probe CSD has room");
    csd.store_gradients("shard", &grads).expect("probe CSD has room");
    let stream = compressed_pass.then_some(&compressed);
    let mut step = 0;
    let pass_s = p.time("csd.pass", || {
        step += 1;
        csd.update_subgroup(SubgroupUpdate {
            shard: "shard",
            offset: 0,
            len: subgroup,
            optimizer,
            step,
            compressed: stream,
        })
        .expect("probe pass succeeds");
    });
    m.push("csd.pass_p50_s", pass_s, "s");
    m.push("csd.pass_el_per_s", el / pass_s, "el/s");
    m.push("csd.pass_eff", (el / pass_s) / adam_rate, "1");

    p.tracer.close(root);
    m
}
