//! `perfbench`: the repository's layered benchmark.
//!
//! ```text
//! perfbench --workload <train-su|train-offload|train-comp|sweep> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the traced
//! run, which reports the per-layer metrics, prints a per-layer table and
//! writes the spans as Chrome trace-event JSON under `perfbench/out/`. The
//! last line of standard output is the JSON result; the exit code is
//! non-zero when a correctness check fails. See README.md.

mod probes;
mod report;
mod stats;
mod sweep;
mod trace;
mod train;

use report::{result_line, table, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use tensorlib::simd::KERNEL_PATH_ENV;
use tensorlib::KernelPath;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <train-su|train-offload|train-comp|sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The workloads. `BENCHMARK.json` gates the first two; `train-comp` and
/// `sweep` are run by hand (see README.md for why they are not gated).
pub const WORKLOADS: [&str; 4] = ["train-su", "train-offload", "train-comp", "sweep"];

/// Worker threads of every workload (trainer lanes, the campaign service,
/// the parallel probes): the two CPUs the benchmark is sized for.
pub const THREADS: usize = 2;

/// Timed steps a training run takes at least: enough for ten samples
/// beyond p90.
const MIN_TRAIN_STEPS: usize = 100;
/// Experiment runs a sweep takes at least (one untraced and one traced in a
/// traced run).
const MIN_SWEEPS: usize = 2;

/// When a timed loop may stop: after `seconds`, and not before `min_ops`
/// timed operations.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Seconds to keep measuring.
    pub seconds: f64,
    /// Timed operations to take at least.
    pub min_ops: usize,
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("one of the workload names")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = Some(s),
                _ => return Err(bad("a non-negative number")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// An independent seed for input stream `stream` of run seed `seed`
/// (SplitMix64 finalizer over both).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(seed ^ mix(stream))
}

/// The process's peak resident set (`VmHWM`) in MiB; `NaN` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Where traces and scratch experiment directories go: `perfbench/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run metadata, so results from different SIMD paths or core counts are
/// not read as a regression.
fn metadata(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("threads", THREADS.to_string()),
        ("nproc", nproc.to_string()),
        ("kernel_path", KernelPath::active().as_str().to_string()),
        (
            "kernel_path_override",
            std::env::var(KERNEL_PATH_ENV).unwrap_or_else(|_| "none".to_string()),
        ),
    ]
}

fn run(args: &Args, tracer: Option<&mut Tracer>) -> Outcome {
    let train_limits = Limits { seconds: args.seconds, min_ops: MIN_TRAIN_STEPS };
    let workload = match args.workload.as_str() {
        "train-su" => train::TrainWorkload::su(),
        "train-comp" => train::TrainWorkload::comp(),
        "train-offload" => train::TrainWorkload::offload(),
        _ => {
            let limits = Limits { seconds: args.seconds, min_ops: MIN_SWEEPS };
            return sweep::run(&sweep::SweepWorkload::paper(), args.seed, &limits, tracer);
        }
    };
    train::run(&workload, args.seed, &train_limits, tracer)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let meta = metadata(&args);
    let line: Vec<String> = meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# perfbench {}", line.join(" "));

    let mut tracer = args.trace.then(Tracer::new);
    let outcome = run(&args, tracer.as_mut());

    let mut end_to_end = outcome.end_to_end.clone();
    end_to_end.extend(outcome.detail.clone());
    let title = if args.trace { "end to end (every other op traced)" } else { "end to end" };
    print!("{}", table(title, &end_to_end));
    println!("  attempted {}  failed {}", outcome.attempted, outcome.failed);
    if let Some(tracer) = &tracer {
        print!("{}", table("per layer", &outcome.per_layer));
        println!("== spans by layer (seconds)");
        println!("  {:10} {:>8} {:>12} {:>12}", "layer", "spans", "total", "self");
        for (layer, t) in tracer.layer_totals() {
            println!("  {layer:10} {:>8} {:>12.6} {:>12.6}", t.spans, t.total_s, t.self_s);
        }
        let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(&meta)));
        match written {
            Ok(()) => println!("# trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }
    let metrics = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    println!("{}", result_line(&outcome, metrics));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn args(text: &str) -> Result<Args, String> {
        parse_args(text.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parsed = args("--workload sweep --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            parsed,
            Args { workload: "sweep".to_string(), seed: 3, seconds: 10.0, trace: true }
        );
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(args("--workload sweep --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 10").is_err());
        assert!(args("--workload sweep --seed 1 --seconds").is_err());
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_seed() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(9, 4), derive_seed(9, 4));
    }

    fn names(doc: &Value, key: &str) -> Vec<String> {
        let Some(Value::Array(items)) = doc.get(key) else { panic!("{key} missing") };
        items
            .iter()
            .map(|item| match item.get("name") {
                Some(Value::String(name)) => name.clone(),
                _ => panic!("{key} entry without a name"),
            })
            .collect()
    }

    /// `BENCHMARK.json` names the gated workloads and exactly the metrics
    /// this program emits (the sweep's traced run too), and every name obeys
    /// the grammar.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
        let doc = serde_json::parse(&text).expect("valid JSON");
        assert_eq!(names(&doc, "workloads"), WORKLOADS[..2]);
        let end_to_end = names(&doc, "end_to_end");
        assert_eq!(end_to_end, ["throughput", "op_p50_s", "setup_s", "peak_rss_mb"]);
        let mut per_layer = names(&doc, "per_layer");
        for name in end_to_end.iter().chain(&per_layer) {
            assert!(stats::valid_metric_name(name), "{name}");
        }

        // A tiny traced run of each kind emits exactly the per_layer names.
        per_layer.sort();
        let mut workload = train::TrainWorkload::comp();
        workload.params = 4_096;
        workload.subgroup = Some(512);
        let limits = Limits { seconds: 0.0, min_ops: 4 };
        let (mut train_trace, mut sweep_trace) = (Tracer::new(), Tracer::new());
        let trained = train::run(&workload, 1, &limits, Some(&mut train_trace));
        let swept = sweep::run(&sweep::tiny(), 1, &limits, Some(&mut sweep_trace));
        for (traced, tracer) in [(trained, train_trace), (swept, sweep_trace)] {
            assert!(traced.correct(), "{:?}", traced.problems);
            assert_eq!(tracer.misnested(), Vec::<&str>::new());
            let mut emitted: Vec<String> =
                traced.per_layer.0.iter().map(|m| m.name.clone()).collect();
            emitted.sort();
            assert_eq!(emitted, per_layer);
        }
    }
}
