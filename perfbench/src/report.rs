//! Run bookkeeping: failure tallies, the metric record, the machine
//! descriptor, the result line and the results file.

use crate::Args;
use laacad_scenario::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Why one attempted operation or output check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// A campaign cell or scenario returned an error instead of a run.
    RunError,
    /// A synchronous run hit its round limit before ε-termination.
    NotConverged,
    /// The final deployment leaves some sampled point below degree `k`.
    NotKCovered,
    /// The result files do not hold one row per campaign cell.
    RowCount,
    /// A hosted session answered `Response::Failed`.
    Response,
    /// The host refused a submission.
    Submit,
    /// A snapshot failed to restore.
    Restore,
    /// A restored session re-snapshots to different bytes.
    SnapshotMismatch,
    /// An asynchronous run ended other than `converged`.
    AsyncTermination,
    /// Two passes over the same inputs (or the traced and untraced
    /// paths) produced different outputs.
    OutputMismatch,
}

impl Failure {
    /// Stable snake_case name used in the results file.
    pub fn name(self) -> &'static str {
        match self {
            Failure::RunError => "run_error",
            Failure::NotConverged => "not_converged",
            Failure::NotKCovered => "not_k_covered",
            Failure::RowCount => "row_count",
            Failure::Response => "response_failed",
            Failure::Submit => "submit_error",
            Failure::Restore => "restore_error",
            Failure::SnapshotMismatch => "snapshot_mismatch",
            Failure::AsyncTermination => "async_termination",
            Failure::OutputMismatch => "output_mismatch",
        }
    }
}

/// Attempted operations and checks, and the failures among them.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    by_kind: BTreeMap<Failure, u64>,
}

impl Tally {
    /// Counts one attempted operation or check; an `Err` counts as one
    /// failure of its kind and is explained on stderr.
    pub fn record(&mut self, outcome: Result<(), (Failure, String)>) {
        self.attempted += 1;
        if let Err((kind, detail)) = outcome {
            let seen = self.by_kind.entry(kind).or_insert(0);
            if *seen < 5 {
                eprintln!("perfbench: check failed ({}): {detail}", kind.name());
            }
            *seen += 1;
        }
    }

    /// Operations and checks attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failures over every kind.
    pub fn failed(&self) -> u64 {
        self.by_kind.values().sum()
    }

    /// Failures per kind, by kind name.
    pub fn by_kind(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.by_kind.iter().map(|(k, &n)| (k.name(), n))
    }

    /// `failed ÷ attempted` (0 before anything was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The host the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Logical cores available to this process.
    pub nproc: usize,
    /// CPU brand string.
    pub cpu: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// Revision of the measured source tree.
    pub git_revision: String,
}

impl Machine {
    /// Describes the current host.
    pub fn detect() -> Self {
        Machine {
            nproc: nproc(),
            cpu: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_revision: git_revision(),
        }
    }

    fn to_value(&self) -> Value {
        let mut t = Value::table();
        t.insert("nproc", Value::Int(self.nproc as i64));
        t.insert("cpu", Value::Str(self.cpu.clone()));
        t.insert("rustc", Value::Str(self.rustc.clone()));
        t.insert("git_revision", Value::Str(self.git_revision.clone()));
        t
    }
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown x86_64".to_string();
    }
    let brand = [0x8000_0002u32, 0x8000_0003, 0x8000_0004].map(__cpuid);
    let bytes: Vec<u8> = brand
        .iter()
        .flat_map(|r| [r.eax, r.ebx, r.ecx, r.edx])
        .flat_map(u32::to_le_bytes)
        .collect();
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}

/// `git rev-parse HEAD` when the working directory is a git checkout,
/// else `"unknown"` (exported source trees carry no history).
fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's resident-set high-water mark in MB.
///
/// Reads `VmHWM`, the peak of this program's own address space. The
/// `getrusage` figure is only the fallback: Linux carries `ru_maxrss`
/// across `execve`, so a process started by `cargo run` would report
/// cargo's footprint whenever that was larger.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or_else(rusage_peak_mb)
}

/// `ru_maxrss` of this process in MB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage_peak_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs
    /// starting with `ru_maxrss` (in KiB).
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the
    // C `struct rusage` on this target, and `getrusage` writes only
    // within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn rusage_peak_mb() -> f64 {
    0.0
}

/// One finished run: counts, metrics, and free-form details for the
/// results file.
#[derive(Debug)]
pub struct RunReport {
    /// Failure tally.
    pub tally: Tally,
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Sample counts and percentiles behind the metrics.
    pub details: Vec<(&'static str, f64)>,
}

impl RunReport {
    /// All checks passed.
    pub fn correct(&self) -> bool {
        self.tally.failed() == 0 && self.tally.attempted() > 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Value::table();
        for m in &self.metrics {
            metrics.insert(m.name, metric_value(m));
        }
        let mut t = Value::table();
        t.insert("correct", Value::Bool(self.correct()));
        t.insert("attempted", Value::Int(self.tally.attempted() as i64));
        t.insert("failed", Value::Int(self.tally.failed() as i64));
        t.insert("metrics", metrics);
        laacad_scenario::json::to_string(&t)
    }

    /// Appends this run, with the machine descriptor, as one JSON line
    /// to the results file at `path`.
    pub fn append_to(&self, path: &Path, args: &Args, machine: &Machine) -> std::io::Result<()> {
        let mut t = Value::table();
        t.insert("machine", machine.to_value());
        t.insert("workload", Value::Str(args.workload.clone()));
        t.insert("seed", Value::Int(args.seed as i64));
        t.insert("seconds", Value::Float(args.seconds));
        t.insert("trace", Value::Bool(args.trace));
        t.insert("correct", Value::Bool(self.correct()));
        t.insert("attempted", Value::Int(self.tally.attempted() as i64));
        t.insert("failed", Value::Int(self.tally.failed() as i64));
        t.insert("error_rate", Value::Float(self.tally.error_rate()));
        let mut kinds = Value::table();
        for (name, n) in self.tally.by_kind() {
            kinds.insert(name, Value::Int(n as i64));
        }
        t.insert("failures", kinds);
        let mut metrics = Value::table();
        for m in &self.metrics {
            metrics.insert(m.name, metric_value(m));
        }
        t.insert("metrics", metrics);
        let mut details = Value::table();
        for &(name, v) in &self.details {
            details.insert(name, Value::Float(v));
        }
        t.insert("details", details);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut line = laacad_scenario::json::to_string(&t);
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

fn metric_value(m: &Metric) -> Value {
    let mut v = Value::table();
    v.insert("value", Value::Float(m.value));
    v.insert("unit", Value::Str(m.unit.to_string()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [Failure; 10] = [
        Failure::RunError,
        Failure::NotConverged,
        Failure::NotKCovered,
        Failure::RowCount,
        Failure::Response,
        Failure::Submit,
        Failure::Restore,
        Failure::SnapshotMismatch,
        Failure::AsyncTermination,
        Failure::OutputMismatch,
    ];

    #[test]
    fn error_rate_counts_each_failure_kind() {
        let mut tally = Tally::default();
        for _ in 0..30 {
            tally.record(Ok(()));
        }
        for kind in KINDS {
            tally.record(Err((kind, "test".into())));
        }
        assert_eq!(tally.attempted(), 40);
        assert_eq!(tally.failed(), KINDS.len() as u64);
        assert_eq!(tally.error_rate(), 0.25);
        let names: Vec<_> = tally.by_kind().collect();
        assert_eq!(names.len(), KINDS.len());
        assert!(names.iter().all(|&(_, n)| n == 1));
        let report = RunReport {
            tally,
            metrics: Vec::new(),
            details: Vec::new(),
        };
        assert!(!report.correct());
    }

    #[test]
    fn clean_run_is_correct() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        assert_eq!(tally.error_rate(), 0.0);
        let report = RunReport {
            tally,
            metrics: vec![Metric::new("wall_s", 1.25, "s")],
            details: Vec::new(),
        };
        assert!(report.correct());
        assert_eq!(
            report.result_line(),
            r#"{"attempted":1,"correct":true,"failed":0,"metrics":{"wall_s":{"unit":"s","value":1.25}}}"#
        );
    }

    #[test]
    fn machine_descriptor_is_filled() {
        let m = Machine::detect();
        assert!(m.nproc >= 1);
        assert!(!m.cpu.is_empty());
        assert!(m.rustc.starts_with("rustc"));
        assert!(peak_rss_mb() > 0.0);
        assert!(rusage_peak_mb() > 0.0);
    }
}
