//! The LAACAD benchmark: one command per workload.
//!
//! ```text
//! perfbench --workload <converge|serve|async> --seed <n> --seconds <s> --trace <0|1>
//!           [--results <file.jsonl>]
//! perfbench --compare <a.jsonl> <b.jsonl> [--spec BENCHMARK.json]
//! ```
//!
//! A run generates its inputs from the seed, measures for about
//! `--seconds`, checks its outputs, appends one line (with a machine
//! descriptor) to the results file, and prints a JSON result line last
//! on stdout: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of the traced run with `--trace 1`. It exits non-zero when
//! any output check failed. `--compare` reads two results files and
//! judges every workload × metric against the bounds in
//! `BENCHMARK.json`.

mod alloc;
mod asyncrun;
mod compare;
mod converge;
mod cpus;
mod gen;
mod layers;
mod report;
mod serve;
mod stats;

use cpus::Rotation;
use report::{Machine, Metric, RunReport, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["converge", "serve", "async"];

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Results file the run is appended to.
    pub results: PathBuf,
    /// Directory for the run's temporary files.
    pub scratch: PathBuf,
}

/// The timings of one timed pass.
#[derive(Debug, Default)]
pub struct PassTiming {
    /// Pass wall time, seconds.
    pub wall: f64,
    /// Seconds per operation.
    pub latencies: Vec<f64>,
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds per set-up repetition.
    pub setup: Vec<f64>,
    /// Every timed pass.
    pub passes: Vec<PassTiming>,
    /// LAACAD rounds of one pass.
    pub rounds: f64,
    /// Mean final `R*` of one pass.
    pub max_radius: f64,
    /// Messages per node of one pass.
    pub messages_per_node: f64,
}

impl EndToEnd {
    /// Records the deployment quality of one pass: its total rounds,
    /// the final `R*` of each cell, session or run, and the messages
    /// spent over `nodes` nodes.
    pub fn set_quality(&mut self, rounds: f64, radii: &[f64], messages: f64, nodes: usize) {
        self.rounds = rounds;
        self.max_radius = radii.iter().sum::<f64>() / radii.len().max(1) as f64;
        self.messages_per_node = messages / nodes.max(1) as f64;
    }

    /// Median over passes of each pass's latency percentile `p`, in ms.
    fn latency_ms(&self, p: u32) -> f64 {
        self.per_pass(|pass| stats::percentile(&stats::sorted(&pass.latencies), p) * 1e3)
    }

    /// Median over passes of a per-pass statistic, so that a pass slowed
    /// by outside load moves the figure no more than any other pass.
    fn per_pass(&self, f: impl Fn(&PassTiming) -> f64) -> f64 {
        stats::median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }

    fn metrics(&self, tally: &Tally) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", stats::median(&self.setup), "s"),
            Metric::new("wall_s", self.per_pass(|p| p.wall), "s"),
            Metric::new("peak_rss_mb", report::peak_rss_mb(), "MB"),
            Metric::new("success_rate", 1.0 - tally.error_rate(), "ratio"),
            Metric::new("response_p50_ms", self.latency_ms(50), "ms"),
            Metric::new("rounds", self.rounds, "count"),
            Metric::new("max_radius", self.max_radius, "len"),
            Metric::new("messages_per_node", self.messages_per_node, "count"),
        ]
    }

    /// Sample counts, pass-time quartiles and the latency tail. The tail
    /// is recorded here rather than gated as a metric: on a shared
    /// virtual machine, hypervisor steal moves it by up to 2× between
    /// runs of the same inputs.
    fn details(&self) -> Vec<(&'static str, f64)> {
        let walls: Vec<f64> = self.passes.iter().map(|p| p.wall).collect();
        let (q1, _, q3) = stats::quartiles(&walls);
        let samples: usize = self.passes.iter().map(|p| p.latencies.len()).sum();
        let tail = stats::tail_percentile(samples);
        vec![
            ("setup_samples", self.setup.len() as f64),
            ("passes", walls.len() as f64),
            ("wall_q1_s", q1),
            ("wall_q3_s", q3),
            ("response_samples", samples as f64),
            ("response_tail_percentile", tail as f64),
            ("response_tail_ms", self.latency_ms(tail)),
        ]
    }
}

/// Runs `pass` back to back until `seconds` have elapsed, at least
/// once. Each pass hands its results to its own bookkeeping before the
/// next starts, so memory held does not grow with the pass count.
/// Passes run from one thread go through `rotation` and stop only after
/// a full round, so that every core runs as many passes as any other.
pub fn repeat_for(seconds: f64, rotation: &Rotation, mut pass: impl FnMut()) {
    let start = Instant::now();
    for i in 0.. {
        rotation.enter(i);
        pass();
        if start.elapsed().as_secs_f64() >= seconds && (i + 1) % rotation.round() == 0 {
            return;
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--results <file>]\n       perfbench --compare <a.jsonl> <b.jsonl> [--spec <BENCHMARK.json>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        results: PathBuf::from("perfbench/results/runs.jsonl"),
        scratch: PathBuf::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--results" => args.results = PathBuf::from(value),
            _ => return None,
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return None;
    }
    let dir = args.results.parent().map(PathBuf::from).unwrap_or_default();
    args.scratch = dir.join(format!("scratch-{}", std::process::id()));
    Some(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return compare::main(&argv[1..]);
    }
    let Some(args) = parse(&argv) else {
        return usage();
    };
    let mut tally = Tally::default();
    let (metrics, details) = if args.trace {
        let layers = match args.workload.as_str() {
            "converge" => converge::trace(&args, &mut tally),
            "serve" => serve::trace(&args, &mut tally),
            _ => asyncrun::trace(&args, &mut tally),
        };
        (layers.metrics(), layers.details())
    } else {
        let e2e = match args.workload.as_str() {
            "converge" => converge::run(&args, &mut tally),
            "serve" => serve::run(&args, &mut tally),
            _ => asyncrun::run(&args, &mut tally),
        };
        (e2e.metrics(&tally), e2e.details())
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    let report = RunReport {
        tally,
        metrics,
        details,
    };
    if let Err(e) = report.append_to(&args.results, &args, &Machine::detect()) {
        eprintln!(
            "perfbench: cannot append to {}: {e}",
            args.results.display()
        );
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_scenario::{json, Value};

    fn names(spec: &Value, key: &str) -> Vec<String> {
        spec.get(key)
            .and_then(Value::as_array)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let e2e: Vec<String> = EndToEnd::default()
            .metrics(&Tally::default())
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(names(&spec, "end_to_end"), e2e);
        let per_layer: Vec<String> = layers::Layers::default()
            .metrics()
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(names(&spec, "per_layer"), per_layer);
        assert_eq!(names(&spec, "workloads"), WORKLOADS);
    }

    #[test]
    fn repeat_for_runs_at_least_once() {
        let mut n = 0;
        repeat_for(1e-9, &Rotation::new(false), || n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn latency_metrics_are_medians_over_passes() {
        let pass = |wall: f64, ms: &[f64]| PassTiming {
            wall,
            latencies: ms.iter().map(|x| x / 1e3).collect(),
        };
        let e2e = EndToEnd {
            setup: vec![0.5],
            passes: vec![
                pass(1.0, &[1.0, 2.0, 3.0]),
                pass(1.0, &[2.0, 3.0, 4.0]),
                pass(9.0, &[50.0, 60.0, 70.0]),
            ],
            ..EndToEnd::default()
        };
        let m = e2e.metrics(&Tally::default());
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("wall_s"), 1.0);
        assert!((get("response_p50_ms") - 3.0).abs() < 1e-9);
    }
}
