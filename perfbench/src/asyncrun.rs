//! `async`: a generated `[faults]` scenario through `run_scenario`,
//! which runs the fault-free synchronous baseline, the asynchronous
//! executor and the coverage verdict.
//!
//! The traced run recomposes the same path from public calls on one
//! engine thread — `Session::run` for the baseline, then
//! `AsyncExecutor::new` / `set_probe` / `run` — and checks that its
//! final positions are bit-identical to the all-cores run's.

use crate::cpus::Rotation;
use crate::gen;
use crate::layers::{self, Layers};
use crate::report::{Failure, Tally};
use crate::{repeat_for, Args, EndToEnd, PassTiming};
use laacad::Session;
use laacad_coverage::evaluate_coverage;
use laacad_dist::{AsyncExecutor, Termination};
use laacad_scenario::{run_scenario, ScenarioOutcome, ScenarioSpec, SpecError};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 10;

fn spec(threads: usize) -> Result<ScenarioSpec, SpecError> {
    ScenarioSpec::from_toml(&gen::async_toml(threads))
}

/// The cold start: parses the spec, then builds every run's executor
/// and its fault-free baseline session and runs the baseline's first
/// (cold) round, on [`gen::ASYNC_THREADS`] workers like the timed runs.
fn set_up(seed: u64) -> Result<(), SpecError> {
    let spec = spec(gen::ASYNC_THREADS)?;
    let faults = spec
        .laacad
        .faults
        .as_ref()
        .expect("the generated spec has faults");
    let build = |e: laacad::LaacadError| SpecError::Build(e.to_string());
    let started = laacad_exec::parallel_map_with(gen::ASYNC_THREADS, gen::async_seeds(seed), |s| {
        let region = spec.region.build()?;
        let initial = spec.placement.build(&region, s)?;
        let config = spec.laacad.build(&region, initial.len(), s)?;
        let mut baseline = Session::builder(config.clone())
            .region(region.clone())
            .positions(initial.clone())
            .build()
            .map_err(build)?;
        let (plan, proto) = faults.to_plan();
        let exec = AsyncExecutor::new(config, region, initial, plan, proto).map_err(build)?;
        std::hint::black_box(exec);
        Ok(baseline.step().ring_searches)
    });
    std::hint::black_box(started.into_iter().collect::<Result<Vec<_>, SpecError>>()?);
    Ok(())
}

/// One pass: every placement through `run_scenario`.
struct Pass {
    wall: f64,
    latencies: Vec<f64>,
    outcomes: Vec<Result<ScenarioOutcome, SpecError>>,
}

fn pass(spec: &ScenarioSpec, seeds: &[u64]) -> Pass {
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(seeds.len());
    let outcomes = seeds
        .iter()
        .map(|&s| {
            let t = Instant::now();
            let out = run_scenario(spec, s);
            latencies.push(layers::secs(t));
            out
        })
        .collect();
    Pass {
        wall: layers::secs(start),
        latencies,
        outcomes,
    }
}

fn check(pass: &Pass, tally: &mut Tally) {
    for out in &pass.outcomes {
        tally.record(match out {
            Err(e) => Err((Failure::RunError, e.to_string())),
            Ok(o) => match &o.faults {
                Some(f) if f.termination == Termination::Converged.as_str() => Ok(()),
                Some(f) => Err((
                    Failure::AsyncTermination,
                    format!("async run ended `{}` at round {}", f.termination, f.rounds),
                )),
                None => Err((Failure::RunError, "no fault outcome".into())),
            },
        });
    }
}

/// Final positions, bit for bit, of every successful run.
fn positions(outcomes: &[Result<ScenarioOutcome, SpecError>]) -> Vec<Vec<(u64, u64)>> {
    outcomes
        .iter()
        .filter_map(|o| o.as_ref().ok())
        .map(|o| {
            o.final_positions
                .iter()
                .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                .collect()
        })
        .collect()
}

fn same(a: &[Vec<(u64, u64)>], b: &[Vec<(u64, u64)>], what: &str) -> Result<(), (Failure, String)> {
    if a == b {
        Ok(())
    } else {
        Err((
            Failure::OutputMismatch,
            format!("{what}: final positions differ from the all-cores run"),
        ))
    }
}

/// The untraced run, on [`gen::ASYNC_THREADS`] engine workers.
pub fn run(args: &Args, tally: &mut Tally) -> EndToEnd {
    let mut e2e = EndToEnd::default();
    let rotation = Rotation::new(gen::ASYNC_THREADS == 1);
    for i in 0..SETUP_REPS {
        rotation.enter(i);
        let start = Instant::now();
        if let Err(e) = set_up(args.seed) {
            tally.record(Err((Failure::RunError, e.to_string())));
        }
        e2e.setup.push(layers::secs(start));
    }
    let spec = match spec(gen::ASYNC_THREADS) {
        Ok(s) => s,
        Err(e) => {
            tally.record(Err((Failure::RunError, e.to_string())));
            return e2e;
        }
    };
    let seeds = gen::async_seeds(args.seed);
    let mut first: Option<Vec<Vec<(u64, u64)>>> = None;
    repeat_for(args.seconds, &rotation, || {
        let p = pass(&spec, &seeds);
        check(&p, tally);
        let finals = positions(&p.outcomes);
        match &first {
            None => {
                let outcomes: Vec<&ScenarioOutcome> =
                    p.outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
                let faults: Vec<_> = outcomes.iter().filter_map(|o| o.faults.as_ref()).collect();
                let radii: Vec<f64> = outcomes
                    .iter()
                    .map(|o| o.summary.max_sensing_radius)
                    .collect();
                e2e.set_quality(
                    faults.iter().map(|f| f.rounds as f64).sum(),
                    &radii,
                    faults.iter().map(|f| f.protocol.sent as f64).sum(),
                    outcomes.iter().map(|o| o.final_n).sum(),
                );
                first = Some(finals);
            }
            Some(f) => tally.record(same(f, &finals, "repeat pass")),
        }
        e2e.passes.push(PassTiming {
            wall: p.wall,
            latencies: p.latencies,
        });
    });
    e2e
}

/// The traced run: all cores untraced (the reference), one thread
/// untraced (speed-up), and the recomposed path on one thread.
pub fn trace(args: &Args, tally: &mut Tally) -> Layers {
    let mut layers = Layers::default();
    let seeds = gen::async_seeds(args.seed);
    let (all_cores, one) = match (spec(0), spec(1)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            tally.record(Err((Failure::RunError, e.to_string())));
            return layers;
        }
    };
    let reference = pass(&all_cores, &seeds);
    check(&reference, tally);
    let expected = positions(&reference.outcomes);
    let single = pass(&one, &seeds);
    tally.record(same(
        &expected,
        &positions(&single.outcomes),
        "one-thread run",
    ));

    let start = Instant::now();
    let mut traced = Vec::new();
    for &s in &seeds {
        match recompose(&one, s, &mut layers) {
            Ok(p) => traced.push(p),
            Err(e) => tally.record(Err((Failure::RunError, e.to_string()))),
        }
    }
    let traced_s = layers::secs(start);
    tally.record(same(&expected, &traced, "traced one-thread run"));
    layers.exec_speedup = single.wall / reference.wall;
    layers.overhead_frac = traced_s / single.wall - 1.0;
    layers
}

/// One faulted run recomposed from public calls, as `run_scenario`
/// runs it; returns the final positions.
fn recompose(
    spec: &ScenarioSpec,
    seed: u64,
    layers: &mut Layers,
) -> Result<Vec<(u64, u64)>, SpecError> {
    let build = |e: laacad::LaacadError| SpecError::Build(e.to_string());
    let faults = spec
        .laacad
        .faults
        .as_ref()
        .expect("the generated spec has faults");
    let start = Instant::now();
    let region = spec.region.build()?;
    let initial = spec.placement.build(&region, seed)?;
    let config = spec.laacad.build(&region, initial.len(), seed)?;
    layers.build_s += layers::secs(start);
    let k = config.k;
    let samples = spec.evaluation.coverage_samples;

    let start = Instant::now();
    let mut baseline = Session::builder(config.clone())
        .region(region.clone())
        .positions(initial.clone())
        .build()
        .map_err(build)?;
    baseline.set_recorder(layers::recorder());
    baseline.run();
    layers.dist_baseline_s += layers::secs(start);
    layers.time_coverage(|| evaluate_coverage(baseline.network(), &region, k, samples));
    layers.absorb(baseline.take_recorder());

    let (plan, proto) = faults.to_plan();
    let mut exec =
        AsyncExecutor::new(config, region.clone(), initial, plan, proto).map_err(build)?;
    let probe_s = Rc::new(Cell::new(0.0));
    if !faults.partition.is_empty() && faults.probe_every > 0 {
        let spent = Rc::clone(&probe_s);
        let probe_region = region.clone();
        exec.set_probe(
            faults.probe_every,
            Box::new(move |_, net| {
                let t = Instant::now();
                std::hint::black_box(evaluate_coverage(net, &probe_region, k, samples));
                spent.set(spent.get() + layers::secs(t));
            }),
        );
    }
    let start = Instant::now();
    let report = exec.run();
    layers.dist_run_s += layers::secs(start);
    layers.dist_probe_s += probe_s.get();
    layers.time_coverage(|| evaluate_coverage(exec.network(), &region, k, samples));
    let p = &report.protocol;
    layers.dist_events += report.events_processed as f64;
    layers.dist_sent += p.sent as f64;
    layers.dist_delivered += p.delivered as f64;
    layers.dist_retransmissions += p.retransmissions as f64;
    layers.dist_quarantined += p.quarantined as f64;
    layers.dist_timeouts += p.timeouts as f64;
    Ok(exec
        .network()
        .positions()
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect())
}
