//! `converge`: a generated campaign from TOML text to result files.
//!
//! The timed path is [`run_campaign_observed`] (the streamed campaign
//! runner, with a progress callback stamping each cell's arrival on
//! disk). The traced run recomposes the same path from
//! public calls — parse, expand, build, per-round `step_observed`,
//! finalize, coverage verdict, result writers — on one thread, and
//! checks that its files are byte-identical to the campaign's.

use crate::cpus::Rotation;
use crate::gen;
use crate::layers::{self, Layers};
use crate::report::{Failure, Tally};
use crate::{repeat_for, Args, EndToEnd, PassTiming};
use laacad::Session;
use laacad_coverage::evaluate_coverage;
use laacad_scenario::{
    build_scenario, run_campaign_observed, run_scenario, CampaignCell, CampaignProgress,
    CampaignRunOptions, CampaignSpec, CellInfo, CellResult, ResultStore, RoundMetric,
    ScenarioOutcome, ScenarioSpec, SpecError,
};
use laacad_wsn::energy::EnergyModel;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Campaign name, and so the result file stem.
const NAME: &str = "bench-converge";
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// One campaign pass: its timings, results and file contents.
struct Pass {
    wall: f64,
    /// Seconds from the TOML text to each cell's row on disk.
    arrivals: Vec<f64>,
    results: Vec<CellResult>,
    jsonl: Vec<u8>,
    csv: Vec<u8>,
}

fn campaign_pass(text: &str, dir: &Path) -> Result<Pass, SpecError> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let campaign = CampaignSpec::from_toml(text)?;
    let store = ResultStore::new(dir);
    let mut arrivals = Vec::new();
    let mut progress = |_: &CampaignProgress| arrivals.push(layers::secs(start));
    let options = CampaignRunOptions {
        telemetry: false,
        progress: Some(&mut progress),
    };
    let (jsonl, csv, results) = run_campaign_observed(&campaign, &store, options)?;
    let wall = layers::secs(start);
    Ok(Pass {
        wall,
        arrivals,
        results,
        jsonl: read(&jsonl),
        csv: read(&csv),
    })
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_default()
}

/// Checks one pass: every cell ran, converged and is k-covered, and the
/// files hold one row per cell.
fn check(pass: &Pass, cells: usize, tally: &mut Tally) {
    for r in &pass.results {
        let idx = r.cell.index;
        tally.record(match &r.outcome {
            Err(e) => Err((Failure::RunError, format!("cell {idx}: {e}"))),
            Ok(o) if !o.summary.converged => Err((
                Failure::NotConverged,
                format!("cell {idx} stopped at round {}", o.summary.rounds),
            )),
            Ok(o) if o.coverage.min_degree < r.cell.k => Err((
                Failure::NotKCovered,
                format!(
                    "cell {idx}: min degree {} < k = {}",
                    o.coverage.min_degree, r.cell.k
                ),
            )),
            Ok(_) => Ok(()),
        });
    }
    let jsonl_rows = pass.jsonl.iter().filter(|&&b| b == b'\n').count();
    let csv_rows = pass.csv.iter().filter(|&&b| b == b'\n').count();
    tally.record(
        if pass.results.len() == cells && jsonl_rows == cells && csv_rows == cells + 1 {
            Ok(())
        } else {
            Err((
                Failure::RowCount,
                format!(
                    "{cells} cells, {} results, {jsonl_rows} JSONL rows, {csv_rows} CSV lines",
                    pass.results.len()
                ),
            ))
        },
    );
}

fn same_files(a: &Pass, b_jsonl: &[u8], b_csv: &[u8], what: &str) -> Result<(), (Failure, String)> {
    if a.jsonl == b_jsonl && a.csv == b_csv {
        Ok(())
    } else {
        Err((
            Failure::OutputMismatch,
            format!("{what}: result files differ from the campaign's"),
        ))
    }
}

/// The cold start: parses and expands the campaign, then builds every
/// cell's session and runs its first (cold) round, `nproc` cells at a
/// time. Returns the cell count.
fn set_up(text: &str) -> Result<usize, SpecError> {
    let cells = CampaignSpec::from_toml(text)?.expand()?;
    let count = cells.len();
    let started = laacad_exec::parallel_map(cells, |cell| {
        let (mut session, _) = build_scenario(&cell.scenario, cell.seed)?;
        Ok(session.step().ring_searches)
    });
    std::hint::black_box(started.into_iter().collect::<Result<Vec<_>, SpecError>>()?);
    Ok(count)
}

fn work_dir(args: &Args, tag: &str) -> PathBuf {
    args.scratch.join(format!("converge-{tag}"))
}

/// The untraced run: set-up repetitions, then campaign passes for the
/// time budget.
pub fn run(args: &Args, tally: &mut Tally) -> EndToEnd {
    let text = gen::converge_toml(args.seed);
    let mut e2e = EndToEnd::default();
    let mut cells = 0;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        match set_up(&text) {
            Ok(n) => cells = n,
            Err(e) => tally.record(Err((Failure::RunError, e.to_string()))),
        }
        e2e.setup.push(layers::secs(start));
    }
    let dir = work_dir(args, "untraced");
    let mut first: Option<(Vec<u8>, Vec<u8>)> = None;
    repeat_for(args.seconds, &Rotation::new(false), || {
        let pass = match campaign_pass(&text, &dir) {
            Ok(p) => p,
            Err(e) => return tally.record(Err((Failure::RunError, e.to_string()))),
        };
        check(&pass, cells, tally);
        match &first {
            None => {
                first = Some((pass.jsonl.clone(), pass.csv.clone()));
                let outcomes: Vec<&ScenarioOutcome> = pass
                    .results
                    .iter()
                    .filter_map(|r| r.outcome.as_ref().ok())
                    .collect();
                let radii: Vec<f64> = outcomes
                    .iter()
                    .map(|o| o.summary.max_sensing_radius)
                    .collect();
                e2e.set_quality(
                    outcomes.iter().map(|o| o.summary.rounds as f64).sum(),
                    &radii,
                    outcomes
                        .iter()
                        .map(|o| o.summary.messages.unicast as f64)
                        .sum(),
                    outcomes.iter().map(|o| o.final_n).sum(),
                );
            }
            Some((jsonl, csv)) => tally.record(same_files(&pass, jsonl, csv, "repeat pass")),
        }
        e2e.passes.push(PassTiming {
            wall: pass.wall,
            latencies: pass.arrivals,
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
    e2e
}

/// The traced run: the campaign (all cores), the same cells through
/// `run_scenario` on one thread, and the recomposed path on one thread
/// with the engine's stage split recorded.
pub fn trace(args: &Args, tally: &mut Tally) -> Layers {
    let text = gen::converge_toml(args.seed);
    let mut layers = Layers::default();
    let dir = work_dir(args, "traced");
    let reference = match campaign_pass(&text, &dir) {
        Ok(p) => p,
        Err(e) => {
            tally.record(Err((Failure::RunError, e.to_string())));
            return layers;
        }
    };
    let cells = reference.results.len();
    check(&reference, cells, tally);

    // One thread, untraced: the serial baseline for speed-up and
    // tracing overhead.
    let start = Instant::now();
    let serial: Result<Vec<CellResult>, SpecError> = CampaignSpec::from_toml(&text)
        .and_then(|c| c.expand())
        .map(|cells| {
            cells
                .into_iter()
                .map(|cell| CellResult {
                    cell: cell_info(&cell),
                    outcome: run_scenario(&cell.scenario, cell.seed),
                })
                .collect()
        });
    let serial_written = serial.and_then(|results| {
        ResultStore::new(dir.join("serial"))
            .write(NAME, &results)
            .map_err(|e| SpecError::Io(e.to_string()))
    });
    let serial_s = layers::secs(start);
    match serial_written {
        Ok((jsonl, csv)) => {
            tally.record(same_files(&reference, &read(&jsonl), &read(&csv), "serial"))
        }
        Err(e) => tally.record(Err((Failure::RunError, e.to_string()))),
    }

    let start = Instant::now();
    let recomposed = recompose(&text, &dir.join("recomposed"), &mut layers);
    let traced_s = layers::secs(start);
    match recomposed {
        Ok((jsonl, csv)) => tally.record(same_files(
            &reference,
            &read(&jsonl),
            &read(&csv),
            "recomposed",
        )),
        Err(e) => tally.record(Err((Failure::RunError, e.to_string()))),
    }
    layers.exec_speedup = serial_s / reference.wall;
    layers.overhead_frac = traced_s / serial_s - 1.0;
    let _ = std::fs::remove_dir_all(&dir);
    layers
}

fn cell_info(cell: &CampaignCell) -> CellInfo {
    CellInfo {
        index: cell.index,
        scenario: cell.scenario.name.clone(),
        seed: cell.seed,
        n: cell.n,
        k: cell.k,
        alpha: cell.alpha,
        gamma: cell.gamma,
        loss: cell.loss,
        delay: cell.delay,
        corruption: cell.corruption,
    }
}

/// The campaign recomposed from public calls, streaming rows into
/// `dir`; returns the two file paths.
fn recompose(text: &str, dir: &Path, layers: &mut Layers) -> Result<(PathBuf, PathBuf), SpecError> {
    let start = Instant::now();
    let campaign = CampaignSpec::from_toml(text)?;
    let cells = campaign.expand()?;
    layers.parse_s += layers::secs(start);
    let io = |e: std::io::Error| SpecError::Io(e.to_string());
    let mut files = ResultStore::new(dir)
        .open_stream(&campaign.name)
        .map_err(io)?;
    for cell in &cells {
        let outcome = run_cell_traced(&cell.scenario, cell.seed, layers)?;
        let result = CellResult {
            cell: cell_info(cell),
            outcome: Ok(outcome),
        };
        let start = Instant::now();
        files.append(&result).map_err(io)?;
        layers.results_write_s += layers::secs(start);
    }
    let (jsonl, csv) = files.into_paths();
    layers.results_bytes = (read(&jsonl).len() + read(&csv).len()) as f64;
    Ok((jsonl, csv))
}

/// One synchronous cell exactly as `run_scenario` runs it, with every
/// layer call timed and a recorder on the session.
fn run_cell_traced(
    spec: &ScenarioSpec,
    seed: u64,
    layers: &mut Layers,
) -> Result<ScenarioOutcome, SpecError> {
    let start = Instant::now();
    let (mut sim, mut hook) = build_scenario(spec, seed)?;
    layers.build_s += layers::secs(start);
    sim.set_recorder(layers::recorder());
    hook.fire_due(&mut sim, 0);
    while sim.rounds_executed() < sim.config().max_rounds {
        let verdict = layers.time_step(|| sim.step_observed(&mut [&mut hook]));
        if verdict.stop || (sim.is_converged() && !verdict.keep_running) {
            break;
        }
    }
    sim.finalize();
    let summary = sim.summarize();
    let mut warnings = hook.mark_unfired(summary.rounds);
    if !summary.converged {
        warnings.push(format!(
            "run stopped at round {} without converging: the max_rounds \
             budget ({}) was exhausted before ε-termination",
            summary.rounds, spec.laacad.max_rounds
        ));
    }
    let region = sim.region().clone();
    let k = sim.config().k;
    let coverage = layers.time_coverage(|| {
        evaluate_coverage(sim.network(), &region, k, spec.evaluation.coverage_samples)
    });
    layers.absorb(sim.take_recorder());
    Ok(outcome_of(
        sim,
        hook.into_log(),
        spec,
        seed,
        summary,
        coverage,
        warnings,
    ))
}

fn outcome_of(
    sim: Session,
    events: Vec<laacad_scenario::AppliedEvent>,
    spec: &ScenarioSpec,
    seed: u64,
    summary: laacad::RunSummary,
    coverage: laacad_coverage::CoverageReport,
    warnings: Vec<String>,
) -> ScenarioOutcome {
    let net = sim.network();
    let model = EnergyModel::new(std::f64::consts::PI, spec.evaluation.energy_exponent);
    let rounds = sim
        .history()
        .rounds()
        .iter()
        .map(|r| RoundMetric {
            round: r.round,
            max_circumradius: r.max_circumradius,
            min_circumradius: r.min_circumradius,
            nodes_moved: r.nodes_moved,
            covered_fraction: None,
        })
        .collect();
    ScenarioOutcome {
        scenario: spec.name.clone(),
        seed,
        final_n: net.len(),
        max_load: model.max_load(net),
        total_load: model.total_load(net),
        balance_ratio: model.balance_ratio(net),
        final_positions: net.positions().iter().map(|p| (p.x, p.y)).collect(),
        final_radii: net.sensing_radii().to_vec(),
        gamma: sim.config().gamma,
        summary,
        coverage,
        events,
        recovery: Vec::new(),
        rounds,
        warnings,
        faults: None,
    }
}
