//! The design-space sweep workload: a `lab` experiment run through
//! [`lab::run_experiment`] on a [`ServiceExecutor`], checked against direct
//! [`smart_infinity::Session::simulate_iteration`] calls.

use crate::probes::Geometry;
use crate::report::{Metrics, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use crate::train::{self, TrainWorkload};
use crate::{out_dir, peak_rss_mib, Limits, THREADS};
use lab::runner::{load_tasks, JOURNAL_FILE};
use lab::{
    plan_trials, run_experiment, Executor, ExperimentPaths, PlannedTrial, RunOptions, RunOutcome,
    RunSummary, ServiceExecutor,
};
use smart_infinity::{IterationReport, MachineSpec, MethodSpec, ModelSpec, RunSpec, ServiceReport};
use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Experiment loads + plans timed for `setup_s` before each experiment run.
/// One load + plan takes well under a millisecond, so a single batch would
/// sample one moment of a noisy machine; rounds spread over the whole run
/// and the median over all of them is reported.
const SETUP_ROUND: usize = 20;
/// Timed steps of the trainer probe a sweep's traced run adds.
const TRAINER_PROBE_STEPS: usize = 8;

/// A `lab` experiment: tasks × variants × repeats.
#[derive(Debug, Clone)]
pub struct SweepWorkload {
    /// `(task_id, spec)`; a variant replaces the spec's method.
    pub tasks: Vec<(String, RunSpec)>,
    /// `(name, method)`; `None` runs each task's own method.
    pub variants: Vec<(String, Option<MethodSpec>)>,
    /// Repeats of every (task, variant) pair.
    pub repeats: usize,
}

impl SweepWorkload {
    /// `sweep`: GPT2-4.0B at 6 and 10 devices with fine (300 000-parameter)
    /// subgroups and at 256 devices, under the six ladder methods, twice.
    pub fn paper() -> Self {
        let task = |devices, subgroup: Option<usize>| {
            let spec = RunSpec::new(
                ModelSpec::preset("GPT2-4.0B"),
                MachineSpec::devices(devices),
                MethodSpec::baseline(),
            );
            match subgroup {
                Some(elems) => spec.with_subgroup_elems(elems),
                None => spec,
            }
        };
        SweepWorkload {
            tasks: vec![
                ("gpt2-4b-d6".to_string(), task(6, Some(300_000))),
                ("gpt2-4b-d10".to_string(), task(10, Some(300_000))),
                ("gpt2-4b-d256".to_string(), task(256, None)),
            ],
            variants: [
                ("base", MethodSpec::baseline()),
                ("su", MethodSpec::smart_update()),
                ("su-o", MethodSpec::smart_update_optimized()),
                ("su-o-c", MethodSpec::smart_comp(0.01)),
                ("su-o-p", MethodSpec::pipelined(None)),
                ("su-o-p-c", MethodSpec::pipelined(Some(0.01))),
            ]
            .into_iter()
            .map(|(name, method)| (name.to_string(), Some(method)))
            .collect(),
            repeats: 2,
        }
    }

    /// Trials in the plan.
    fn planned(&self) -> usize {
        self.tasks.len() * self.variants.len() * self.repeats
    }

    /// Distinct specs among the trials: the executions the service must run.
    fn unique(&self) -> usize {
        self.tasks.len() * self.variants.len()
    }

    /// The kernel-layer sizes of the first task: one 300 000-parameter
    /// subgroup per CSD.
    fn geometry(&self) -> Geometry {
        let subgroup = self.tasks[0].1.subgroup_elems.unwrap_or(300_000);
        Geometry {
            subgroup,
            shard: subgroup,
            devices: self.tasks[0].1.machine.devices,
            keep_ratio: 0.01,
            compressed_pass: false,
        }
    }

    /// The trainer the traced run steps for the `ztrain` metrics: SU+O+P at
    /// the first task's device count, one subgroup per CSD.
    fn trainer_probe(&self) -> TrainWorkload {
        let geometry = self.geometry();
        TrainWorkload {
            method: MethodSpec::pipelined(None),
            devices: geometry.devices,
            params: geometry.devices * geometry.subgroup,
            subgroup: Some(geometry.subgroup),
        }
    }

    /// Writes `experiment.json` and `tasks.jsonl` into `dir`; `seed` is the
    /// experiment seed folded into every trial id.
    fn write(&self, dir: &Path, seed: u64) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let variants: Vec<String> = self
            .variants
            .iter()
            .map(|(name, method)| match method {
                None => format!("{{\"name\":\"{name}\"}}"),
                Some(m) => {
                    let method = serde_json::to_string(m).expect("method serializes");
                    format!("{{\"name\":\"{name}\",\"delta\":{{\"method\":{method}}}}}")
                }
            })
            .collect();
        let experiment = format!(
            "{{\"name\":\"perfbench-sweep\",\"dataset\":\"tasks.jsonl\",\"repeats\":{},\
             \"seed\":{seed},\"variants\":[{}]}}\n",
            self.repeats,
            variants.join(",")
        );
        fs::write(dir.join("experiment.json"), experiment)?;
        let tasks: String = self
            .tasks
            .iter()
            .map(|(id, spec)| format!("{{\"task_id\":\"{id}\",{}\n", &spec.canonical_json()[1..]))
            .collect();
        fs::write(dir.join("tasks.jsonl"), tasks)
    }
}

/// A scratch directory under the benchmark's output directory, removed
/// when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    /// A fresh, empty directory named after `label`, this process and a
    /// per-process counter.
    fn new(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("{label}-{}-{n}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One trial as the executor saw it: the resolved spec and its result.
type Trial = (RunSpec, Result<RunOutcome, String>);

/// A `lab::Executor` that wraps [`ServiceExecutor`] and records when each
/// batch ran and what it returned.
struct TimingExecutor {
    inner: ServiceExecutor,
    batches: Vec<(Instant, Instant)>,
    trials: Vec<Trial>,
}

impl Executor for TimingExecutor {
    fn execute(&mut self, batch: &[(PlannedTrial, RunSpec)]) -> Vec<Result<RunOutcome, String>> {
        let start = Instant::now();
        let results = self.inner.execute(batch);
        self.batches.push((start, Instant::now()));
        self.trials.extend(batch.iter().map(|(_, spec)| spec.clone()).zip(results.iter().cloned()));
        results
    }
}

/// One `run_experiment` call.
struct LabRun {
    /// Wall seconds of `run_experiment`.
    wall_s: f64,
    /// Wall seconds inside the executor.
    batch_s: f64,
    summary: RunSummary,
    service: ServiceReport,
    journal_bytes: u64,
    trials: Vec<Trial>,
}

/// Runs the experiment in `exp_dir` into the fresh `out_dir` on a new
/// service (so nothing is cached or journaled yet). With a tracer, records a
/// `lab.run_experiment` span and a `service.execute` child per batch.
fn run_once(
    exp_dir: &Path,
    out_dir: &Path,
    tracer: Option<&mut Tracer>,
    id: u64,
) -> Result<LabRun, String> {
    let mut executor = TimingExecutor {
        inner: ServiceExecutor::new(THREADS),
        batches: Vec::new(),
        trials: Vec::new(),
    };
    let start = Instant::now();
    let summary = run_experiment(exp_dir, out_dir, &RunOptions::default(), &mut executor);
    let end = Instant::now();
    let summary = summary.map_err(|e| e.to_string())?;
    if let Some(tracer) = tracer {
        let root = tracer.record("lab.run_experiment", id, None, start, end);
        for &(s, e) in &executor.batches {
            tracer.record("service.execute", id, Some(root), s, e);
        }
    }
    let journal = out_dir.join(JOURNAL_FILE);
    let journal_bytes =
        fs::metadata(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    Ok(LabRun {
        wall_s: (end - start).as_secs_f64(),
        batch_s: executor.batches.iter().map(|(s, e)| (*e - *s).as_secs_f64()).sum(),
        summary,
        service: executor.inner.report(),
        journal_bytes: journal_bytes.len(),
        trials: executor.trials,
    })
}

/// Direct simulations of every distinct spec among some trials.
struct Direct {
    /// Canonical spec JSON → its simulated iteration.
    reports: BTreeMap<String, IterationReport>,
    /// Seconds of each `RunSpec::session`.
    resolve_s: Vec<f64>,
    /// Seconds of each `Session::simulate_iteration`.
    simulate_s: Vec<f64>,
}

/// Resolves and simulates each distinct spec of `trials` once, on
/// `threads` threads. With a tracer (use one thread, so spans do not
/// overlap), records `session.resolve` and `session.simulate` spans under a
/// `bench.crosscheck` span.
fn simulate_direct(
    trials: &[Trial],
    threads: usize,
    mut tracer: Option<&mut Tracer>,
    id: u64,
) -> Result<Direct, String> {
    let begin = Instant::now();
    let mut unique: BTreeMap<String, &RunSpec> = BTreeMap::new();
    for (spec, _) in trials {
        unique.entry(spec.canonical_json()).or_insert(spec);
    }
    let unique: Vec<(String, &RunSpec)> = unique.into_iter().collect();
    let work = |first: usize| {
        let mut done = Vec::new();
        for (key, spec) in unique.iter().skip(first).step_by(threads.max(1)) {
            let t0 = Instant::now();
            let session = spec.session();
            let t1 = Instant::now();
            let report = session.and_then(|s| s.simulate_iteration());
            let t2 = Instant::now();
            done.push((
                key.clone(),
                report.map_err(|e| format!("{}: {e}", spec.label())),
                [t0, t1, t2],
            ));
        }
        done
    };
    let done = if threads <= 1 {
        work(0)
    } else {
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|k| scope.spawn(move || work(k))).collect();
            let joined = handles.into_iter().map(|h| h.join().expect("simulation thread panicked"));
            joined.flatten().collect::<Vec<_>>()
        })
    };
    let end = Instant::now();
    let root = tracer.as_deref_mut().map(|t| t.record("bench.crosscheck", id, None, begin, end));
    let mut direct =
        Direct { reports: BTreeMap::new(), resolve_s: Vec::new(), simulate_s: Vec::new() };
    for (key, report, [t0, t1, t2]) in done {
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("session.resolve", id, root, t0, t1);
            tracer.record("session.simulate", id, root, t1, t2);
        }
        direct.resolve_s.push((t1 - t0).as_secs_f64());
        direct.simulate_s.push((t2 - t1).as_secs_f64());
        direct.reports.insert(key, report?);
    }
    Ok(direct)
}

/// Problems with one run's bookkeeping: every trial executed and succeeded,
/// and the service ran each distinct spec exactly once.
fn check_run(run: &LabRun, workload: &SweepWorkload) -> Vec<String> {
    let (summary, service) = (&run.summary, &run.service);
    let mut problems = Vec::new();
    let planned = workload.planned();
    if summary.planned != planned || summary.executed != planned || run.trials.len() != planned {
        problems.push(format!(
            "planned {} and executed {} trial(s) ({} reached the executor), expected {planned}",
            summary.planned,
            summary.executed,
            run.trials.len()
        ));
    }
    if summary.errors != 0 {
        problems.push(format!("{} trial(s) recorded an error", summary.errors));
    }
    if service.executed != workload.unique() as u64 {
        problems.push(format!(
            "the service executed {} spec(s), expected {} distinct",
            service.executed,
            workload.unique()
        ));
    }
    problems
}

/// Problems with trial results: each must equal (bit for bit, every phase)
/// the direct simulation of its resolved spec.
fn check_trials(trials: &[Trial], direct: &BTreeMap<String, IterationReport>) -> Vec<String> {
    let mut problems = Vec::new();
    for (spec, result) in trials {
        let label = spec.label();
        match (result, direct.get(&spec.canonical_json())) {
            (Err(e), _) => problems.push(format!("{label}: {e}")),
            (Ok(_), None) => problems.push(format!("{label}: no direct simulation")),
            (Ok(outcome), Some(expected)) => {
                let got = outcome.report;
                let same = [
                    (got.forward_s, expected.forward_s),
                    (got.backward_s, expected.backward_s),
                    (got.update_s, expected.update_s),
                    (got.total_s(), expected.total_s()),
                ]
                .iter()
                .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    problems.push(format!(
                        "{label}: iteration_s {} but a direct simulation gives {}",
                        got.total_s(),
                        expected.total_s()
                    ));
                }
            }
        }
    }
    problems
}

/// The `session`, `simkit`, `service` and `lab` metrics of one run and the
/// direct simulations of its specs. Worker-time figures are in
/// worker-seconds: the service's `THREADS` workers for the run's wall time.
fn lab_metrics(run: &LabRun, direct: &Direct) -> Metrics {
    let simulate_sum: f64 = direct.simulate_s.iter().sum();
    let workers = THREADS as f64;
    let service = &run.service;
    let reused = service.coalesced + service.cache_hits;
    let mut m = Metrics::default();
    m.push("session.resolve_s", median(&direct.resolve_s), "s");
    m.push("session.simulate_p50_s", median(&direct.simulate_s), "s");
    m.push("session.simulate_max_s", direct.simulate_s.iter().copied().fold(0.0, f64::max), "s");
    m.push("session.simulate_share", simulate_sum / (workers * run.wall_s), "1");
    m.push("simkit.modeled_iter_s_sum", direct.reports.values().map(|r| r.total_s()).sum(), "s");
    m.push("service.executed", service.executed as f64, "count");
    m.push("service.coalesced", service.coalesced as f64, "count");
    m.push("service.cache_hits", service.cache_hits as f64, "count");
    m.push("service.reuse_frac", reused as f64 / service.submitted.max(1) as f64, "1");
    m.push("service.self_s", workers * run.batch_s - simulate_sum, "s");
    m.push("lab.trials", run.summary.executed as f64, "count");
    m.push("lab.self_s", run.wall_s - run.batch_s, "s");
    m.push("lab.journal_bytes", run.journal_bytes as f64, "B");
    m
}

/// Loads and plans the experiment in `exp_dir`; returns the trial count.
fn load_and_plan(exp_dir: &Path) -> Result<usize, String> {
    let (paths, config) = ExperimentPaths::resolve(exp_dir).map_err(|e| e.to_string())?;
    let tasks = load_tasks(&paths.tasks).map_err(|e| e.to_string())?;
    Ok(black_box(plan_trials(&tasks, &config)).len())
}

/// Times `SETUP_ROUND` loads + plans of the experiment in `exp_dir` into
/// `samples`, checking that each plans `planned` trials.
fn time_setup(exp_dir: &Path, planned: usize, samples: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_ROUND {
        let start = Instant::now();
        let n = load_and_plan(exp_dir)?;
        samples.push(start.elapsed().as_secs_f64());
        if n != planned {
            return Err(format!("planned {n} trials, expected {planned}"));
        }
    }
    Ok(())
}

/// The `lab`-layer metrics of a workload that is not a sweep: `spec` as a
/// one-task experiment (its own method, two repeats), run once, traced and
/// checked.
pub fn lab_probe(spec: &RunSpec, seed: u64, tracer: &mut Tracer) -> Result<Metrics, String> {
    let workload = SweepWorkload {
        tasks: vec![("workload".to_string(), spec.clone())],
        variants: vec![("as-is".to_string(), None)],
        repeats: 2,
    };
    let work = WorkDir::new("lab-probe").map_err(|e| e.to_string())?;
    let exp_dir = work.path().join("experiment");
    workload.write(&exp_dir, seed).map_err(|e| e.to_string())?;
    let run = run_once(&exp_dir, &work.path().join("run"), Some(tracer), 0)?;
    let direct = simulate_direct(&run.trials, 1, Some(tracer), 0)?;
    let mut problems = check_run(&run, &workload);
    problems.extend(check_trials(&run.trials, &direct.reports));
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    Ok(lab_metrics(&run, &direct))
}

/// Runs the sweep: seeded experiment files, timed load + plan, then
/// experiment runs (each into a fresh output directory on a fresh service)
/// until `limits` are met, then the checks. With a tracer, every other run
/// is traced and the traced run adds per-layer probes.
pub fn run(
    workload: &SweepWorkload,
    seed: u64,
    limits: &Limits,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let mut outcome = Outcome::default();
    let work = match WorkDir::new("sweep") {
        Ok(work) => work,
        Err(e) => {
            outcome.problems.push(format!("creating the output directory: {e}"));
            return outcome;
        }
    };
    let exp_dir = work.path().join("experiment");
    if let Err(e) = workload.write(&exp_dir, seed) {
        outcome.problems.push(format!("writing the experiment: {e}"));
        return outcome;
    }

    let mut setup = Vec::new();
    let mut runs: Vec<(bool, LabRun)> = Vec::new();
    let begin = Instant::now();
    while runs.len() < limits.min_ops || begin.elapsed().as_secs_f64() < limits.seconds {
        if let Err(problem) = time_setup(&exp_dir, workload.planned(), &mut setup) {
            outcome.problems.push(problem);
            return outcome;
        }
        let k = runs.len();
        let out = work.path().join(format!("run-{k}"));
        let traced = tracer.as_deref_mut().filter(|_| k % 2 == 1);
        let is_traced = traced.is_some();
        let result = run_once(&exp_dir, &out, traced, k as u64);
        let _ = fs::remove_dir_all(&out);
        match result {
            Ok(run) => runs.push((is_traced, run)),
            Err(e) => {
                outcome.problems.push(format!("run {k}: {e}"));
                break;
            }
        }
    }
    let peak_rss = peak_rss_mib();
    for (_, run) in &runs {
        outcome.attempted += run.trials.len() as u64;
        outcome.failed += run.summary.errors as u64;
    }
    let Some((_, first)) = runs.first() else {
        return outcome;
    };

    let direct_threads = if tracer.is_some() { 1 } else { THREADS };
    let direct = match simulate_direct(&first.trials, direct_threads, tracer.as_deref_mut(), 0) {
        Ok(direct) => direct,
        Err(e) => {
            outcome.problems.push(format!("direct simulation: {e}"));
            return outcome;
        }
    };
    for (_, run) in &runs {
        outcome.problems.extend(check_run(run, workload));
        outcome.problems.extend(check_trials(&run.trials, &direct.reports));
    }

    let untraced: Vec<&LabRun> = runs.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let trials: usize = untraced.iter().map(|r| r.trials.len()).sum();
    let throughput = trials as f64 / walls.iter().sum::<f64>();
    let sweep_p50 = median(&walls);
    outcome.end_to_end.push("throughput", throughput, "1/s");
    outcome.end_to_end.push("op_p50_s", sweep_p50, "s");
    outcome.end_to_end.push("setup_s", median(&setup), "s");
    outcome.end_to_end.push("peak_rss_mb", peak_rss, "MiB");

    let d = &mut outcome.detail;
    d.push("trials_per_s", throughput, "1/s");
    d.push("sweep_p50_s", sweep_p50, "s");
    d.push("sweep_min_s", walls.iter().copied().fold(f64::INFINITY, f64::min), "s");
    d.push("sweep_max_s", walls.iter().copied().fold(0.0, f64::max), "s");
    d.push("sweep_samples", walls.len() as f64, "count");
    d.push("failed_frac", outcome.failed as f64 / outcome.attempted.max(1) as f64, "1");
    d.push("executions_per_sweep", first.service.executed as f64, "count");
    d.push("setup_reps", setup.len() as f64, "count");

    if let Some(tracer) = tracer {
        let Some((_, traced)) = runs.iter().find(|(t, _)| *t) else {
            outcome.problems.push("no traced run".to_string());
            return outcome;
        };
        outcome.per_layer.extend(lab_metrics(traced, &direct));
        match train::probe_trainer(&workload.trainer_probe(), seed, TRAINER_PROBE_STEPS, tracer) {
            Ok(metrics) => outcome.per_layer.extend(metrics),
            Err(e) => outcome.problems.push(format!("trainer probe: {e}")),
        }
        let traced_walls: Vec<f64> =
            runs.iter().filter(|(t, _)| *t).map(|(_, r)| r.wall_s).collect();
        outcome.per_layer.push("trace.overhead_frac", median(&traced_walls) / sweep_p50 - 1.0, "1");
    }
    outcome
}

/// A two-task, two-method, two-repeat sweep on a small model.
#[cfg(test)]
pub fn tiny() -> SweepWorkload {
    let spec = |devices| {
        RunSpec::new(
            ModelSpec::preset("GPT2-0.34B"),
            MachineSpec::devices(devices),
            MethodSpec::baseline(),
        )
        .with_subgroup_elems(100_000)
    };
    SweepWorkload {
        tasks: vec![("d2".to_string(), spec(2)), ("d3".to_string(), spec(3))],
        variants: vec![
            ("base".to_string(), Some(MethodSpec::baseline())),
            ("su-o-c".to_string(), Some(MethodSpec::smart_comp(0.01))),
        ],
        repeats: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_passes_its_checks_at_tiny_size() {
        let workload = tiny();
        let outcome = run(&workload, 11, &Limits { seconds: 0.0, min_ops: 2 }, None);
        assert!(outcome.correct(), "{:?}", outcome.problems);
        assert_eq!(outcome.attempted, 2 * workload.planned() as u64);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.detail.get("executions_per_sweep"), Some(4.0));
        assert!(outcome.end_to_end.0.iter().all(|m| m.value > 0.0));
    }

    #[test]
    fn the_checks_fail_on_a_perturbed_reference() {
        let workload = tiny();
        let work = WorkDir::new("perturb-test").expect("scratch dir");
        let exp_dir = work.path().join("experiment");
        workload.write(&exp_dir, 5).expect("experiment written");
        let run = run_once(&exp_dir, &work.path().join("run"), None, 0).expect("run");
        let direct = simulate_direct(&run.trials, 2, None, 0).expect("direct");
        assert_eq!(check_run(&run, &workload), Vec::<String>::new());
        assert_eq!(check_trials(&run.trials, &direct.reports), Vec::<String>::new());

        // One reference iteration off by one ulp in one phase.
        let mut perturbed = direct.reports.clone();
        let report = perturbed.values_mut().next().expect("a spec");
        report.update_s = f64::from_bits(report.update_s.to_bits() + 1);
        let problems = check_trials(&run.trials, &perturbed);
        assert_eq!(problems.len(), workload.repeats, "{problems:?}");

        // A reference expecting a different number of distinct executions.
        let mut more = workload.clone();
        more.variants.push(("su".to_string(), Some(MethodSpec::smart_update())));
        assert!(!check_run(&run, &more).is_empty());
    }

    #[test]
    fn rerunning_into_the_same_directory_executes_nothing() {
        // Why every run gets a fresh output directory: lab resumes from the
        // journal it finds.
        let workload = tiny();
        let work = WorkDir::new("resume-test").expect("scratch dir");
        let exp_dir = work.path().join("experiment");
        workload.write(&exp_dir, 5).expect("experiment written");
        let out = work.path().join("run");
        run_once(&exp_dir, &out, None, 0).expect("first run");
        let again = run_once(&exp_dir, &out, None, 1).expect("second run");
        assert_eq!(again.summary.executed, 0);
        assert!(!check_run(&again, &workload).is_empty());
    }

    #[test]
    fn the_paper_sweep_has_36_trials_and_18_distinct_specs() {
        let sweep = SweepWorkload::paper();
        assert_eq!((sweep.planned(), sweep.unique()), (36, 18));
        let work = WorkDir::new("plan-test").expect("scratch dir");
        sweep.write(work.path(), 1).expect("experiment written");
        assert_eq!(load_and_plan(work.path()), Ok(36));
    }
}
