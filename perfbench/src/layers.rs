//! Per-layer accounting for the traced run.
//!
//! The traced run times calls into each layer's public functions from
//! this crate and reads the round engine's stage split through the
//! existing telemetry [`Recorder`] interface. Every workload reports the
//! full per-layer list; a layer a workload does not exercise reads 0.

use crate::report::Metric;
use crate::stats;
use laacad::{Recorder, Stage, TelemetryRegistry};
use std::time::Instant;

/// A fresh aggregating recorder, boxed for `set_recorder`.
pub fn recorder() -> Box<dyn Recorder> {
    Box::new(TelemetryRegistry::new())
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Everything the traced run measures, summed over its passes.
#[derive(Debug, Default)]
pub struct Layers {
    pub parse_s: f64,
    pub build_s: f64,
    pub results_write_s: f64,
    pub results_bytes: f64,
    /// Engine stage timings and work counters.
    pub core: TelemetryRegistry,
    /// Wall time of each directly timed engine round, seconds.
    pub steps: Vec<f64>,
    /// Allocations made by the directly timed rounds.
    pub step_allocs: u64,
    pub displace_s: f64,
    pub encode_s: f64,
    pub encodes: u64,
    pub encoded_bytes: f64,
    pub decode_s: f64,
    pub decoded_bytes: f64,
    /// Wall time of each coverage evaluation, seconds.
    pub coverage: Vec<f64>,
    /// Wall time of each host tick, seconds.
    pub ticks: Vec<f64>,
    pub admit_s: f64,
    pub fanout_efficiency: f64,
    pub rejected: f64,
    pub shed: f64,
    pub dist_run_s: f64,
    pub dist_baseline_s: f64,
    pub dist_events: f64,
    pub dist_sent: f64,
    pub dist_delivered: f64,
    pub dist_retransmissions: f64,
    pub dist_quarantined: f64,
    pub dist_timeouts: f64,
    pub dist_probe_s: f64,
    pub exec_speedup: f64,
    pub overhead_frac: f64,
}

impl Layers {
    /// Folds a recorder taken back from a session into the engine totals.
    pub fn absorb(&mut self, recorder: Option<Box<dyn Recorder>>) {
        if let Some(r) = recorder
            .as_ref()
            .and_then(|r| r.as_any().downcast_ref::<TelemetryRegistry>())
        {
            self.core.merge(r);
        }
    }

    /// Times one engine call made on this thread as a round.
    pub fn time_step<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let allocs = crate::alloc::thread_allocations();
        let start = Instant::now();
        let out = f();
        self.steps.push(secs(start));
        self.step_allocs += crate::alloc::thread_allocations() - allocs;
        out
    }

    /// Times one snapshot encode producing `bytes`.
    pub fn time_encode(&mut self, f: impl FnOnce() -> Vec<u8>) -> Vec<u8> {
        let start = Instant::now();
        let bytes = f();
        self.encode_s += secs(start);
        self.encodes += 1;
        self.encoded_bytes += bytes.len() as f64;
        bytes
    }

    /// Times one snapshot decode of `bytes`.
    pub fn time_decode<R>(&mut self, bytes: &[u8], f: impl FnOnce(&[u8]) -> R) -> R {
        let start = Instant::now();
        let out = f(bytes);
        self.decode_s += secs(start);
        self.decoded_bytes += bytes.len() as f64;
        out
    }

    /// Times one coverage evaluation.
    pub fn time_coverage<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.coverage.push(secs(start));
        out
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let stage = |s: Stage| self.core.stage(s).total_seconds();
        let counter = |name: &str| self.core.counter_total(name) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let steps = stats::sorted(&self.steps);
        let coverage = stats::sorted(&self.coverage);
        let ticks = stats::sorted(&self.ticks);
        let tail = |s: &[f64]| stats::percentile(s, stats::tail_percentile(s.len())) * 1e3;
        let searches = counter("ring_searches");
        vec![
            Metric::new("scenario.parse_s", self.parse_s, "s"),
            Metric::new("scenario.build_s", self.build_s, "s"),
            Metric::new("scenario.results_write_s", self.results_write_s, "s"),
            Metric::new("scenario.results_bytes", self.results_bytes, "B"),
            Metric::new("core.step_s", steps.iter().sum(), "s"),
            Metric::new("core.steps", steps.len() as f64, "count"),
            Metric::new(
                "core.step_p50_ms",
                stats::percentile(&steps, 50) * 1e3,
                "ms",
            ),
            Metric::new("core.step_tail_ms", tail(&steps), "ms"),
            Metric::new("core.ring_search_s", stage(Stage::RingSearch), "s"),
            Metric::new("core.geometry_s", stage(Stage::Geometry), "s"),
            Metric::new("core.adjacency_s", stage(Stage::Adjacency), "s"),
            Metric::new("core.classify_s", stage(Stage::Classify), "s"),
            Metric::new("core.move_apply_s", stage(Stage::MoveApply), "s"),
            Metric::new("core.finalize_s", stage(Stage::Finalize), "s"),
            Metric::new("core.displace_s", self.displace_s, "s"),
            Metric::new(
                "core.allocs_per_step",
                ratio(self.step_allocs as f64, steps.len() as f64),
                "count",
            ),
            Metric::new("core.ring_searches", searches, "count"),
            Metric::new("core.cache_hits", counter("cache_hits"), "count"),
            Metric::new(
                "core.search_useful_ratio",
                ratio(counter("cache_misses"), searches),
                "ratio",
            ),
            Metric::new(
                "core.skipped_quiescent",
                counter("skipped_quiescent"),
                "count",
            ),
            Metric::new("core.warm_started", counter("warm_started"), "count"),
            Metric::new(
                "core.adjacency_rebuilds",
                counter("adjacency_rebuilds"),
                "count",
            ),
            Metric::new(
                "core.adjacency_incremental_updates",
                counter("adjacency_incremental_updates"),
                "count",
            ),
            Metric::new("snapshot.encode_s", self.encode_s, "s"),
            Metric::new("snapshot.decode_s", self.decode_s, "s"),
            Metric::new(
                "snapshot.bytes",
                ratio(self.encoded_bytes, self.encodes as f64),
                "B",
            ),
            Metric::new(
                "snapshot.encode_mb_per_s",
                ratio(self.encoded_bytes / 1e6, self.encode_s),
                "MB/s",
            ),
            Metric::new(
                "snapshot.decode_mb_per_s",
                ratio(self.decoded_bytes / 1e6, self.decode_s),
                "MB/s",
            ),
            Metric::new("coverage.eval_s", coverage.iter().sum(), "s"),
            Metric::new("coverage.evals", coverage.len() as f64, "count"),
            Metric::new(
                "coverage.eval_p50_ms",
                stats::percentile(&coverage, 50) * 1e3,
                "ms",
            ),
            Metric::new("serve.tick_s", ticks.iter().sum(), "s"),
            Metric::new("serve.ticks", ticks.len() as f64, "count"),
            Metric::new(
                "serve.tick_p50_ms",
                stats::percentile(&ticks, 50) * 1e3,
                "ms",
            ),
            Metric::new("serve.tick_tail_ms", tail(&ticks), "ms"),
            Metric::new("serve.admit_s", self.admit_s, "s"),
            Metric::new("serve.fanout_efficiency", self.fanout_efficiency, "ratio"),
            Metric::new("serve.rejected", self.rejected, "count"),
            Metric::new("serve.shed", self.shed, "count"),
            Metric::new("dist.run_s", self.dist_run_s, "s"),
            Metric::new("dist.baseline_s", self.dist_baseline_s, "s"),
            Metric::new("dist.events", self.dist_events, "count"),
            Metric::new(
                "dist.events_per_s",
                ratio(self.dist_events, self.dist_run_s),
                "1/s",
            ),
            Metric::new("dist.sent", self.dist_sent, "count"),
            Metric::new(
                "dist.delivery_ratio",
                ratio(self.dist_delivered, self.dist_sent),
                "ratio",
            ),
            Metric::new(
                "dist.retransmit_ratio",
                ratio(self.dist_retransmissions, self.dist_sent),
                "ratio",
            ),
            Metric::new("dist.quarantined", self.dist_quarantined, "count"),
            Metric::new("dist.timeouts", self.dist_timeouts, "count"),
            Metric::new("dist.probe_s", self.dist_probe_s, "s"),
            Metric::new("exec.speedup", self.exec_speedup, "ratio"),
            Metric::new("trace.overhead_frac", self.overhead_frac, "ratio"),
        ]
    }

    /// Sample counts and the tail percentiles the traced metrics used.
    pub fn details(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("core.step_samples", self.steps.len() as f64),
            (
                "core.step_tail_percentile",
                stats::tail_percentile(self.steps.len()) as f64,
            ),
            ("serve.tick_samples", self.ticks.len() as f64),
            (
                "serve.tick_tail_percentile",
                stats::tail_percentile(self.ticks.len()) as f64,
            ),
        ]
    }
}
