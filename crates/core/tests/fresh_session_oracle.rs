//! The engine against a from-scratch reference, round by round.
//!
//! A long-lived session carries state across rounds: stored views the
//! dirty-node index replays, a per-node view cache, an adjacency
//! snapshot patched from each round's movement delta, ρ warm starts
//! and pooled classifier buffers. A freshly built session has none of
//! it — its first round computes every node cold, from a full adjacency
//! build and empty caches. So before every `step()` of the long-lived
//! session, a fresh session is built from the same configuration and
//! the same positions and stepped once; the two rounds must agree bit
//! for bit (positions, sensing radii, the round report and the movement
//! set).
//!
//! The run converges a dense k = 3 deployment, then drives it through
//! ten localized disturbances (15 rounds each) plus a failure batch,
//! an insertion and a `k` change — so partially-active rounds, cache
//! hits, incremental adjacency patches and warm starts all really
//! happen. The synchronous cases assert that their counters are
//! non-zero, so the comparison can never again run over code paths the
//! fixture does not reach.

use laacad::{ExecutionMode, LaacadConfig, NetworkEvent, RoundDelta, Session};
use laacad_geom::Point;
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_wsn::NodeId;

const N: usize = 200;
const K: usize = 3;
const SEED: u64 = 9;

fn config(execution: ExecutionMode, threads: usize) -> LaacadConfig {
    LaacadConfig::builder(K)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, N, K))
        .alpha(0.6)
        .epsilon(1.73e-3)
        .max_rounds(10_000)
        .execution(execution)
        .threads(threads)
        .seed(SEED)
        .build()
        .unwrap()
}

fn bits(sim: &Session) -> (Vec<(u64, u64)>, Vec<u64>) {
    let net = sim.network();
    let positions = net
        .positions()
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    let radii = net.sensing_radii().iter().map(|r| r.to_bits()).collect();
    (positions, radii)
}

/// Steps `sim` once and checks the round against a fresh session built
/// from the pre-step state.
fn checked_step(sim: &mut Session, label: &str) -> RoundDelta {
    let mut fresh = Session::builder(sim.config().clone())
        .region(sim.region().clone())
        .positions(sim.network().positions().iter().copied())
        .build()
        .unwrap();
    let delta = sim.step();
    let mut reference = fresh.step();
    let round = delta.report.round;
    assert_eq!(bits(sim), bits(&fresh), "{label}: round {round} diverged");
    reference.report.round = round;
    assert_eq!(delta.report, reference.report, "{label}: round {round}");
    assert_eq!(delta.moved, reference.moved, "{label}: round {round}");
    delta
}

/// Converges, then applies the disturbance/event schedule, checking
/// every round. Returns the session for counter inspection.
fn run(execution: ExecutionMode, threads: usize) -> Session {
    let label = format!("{execution:?} threads={threads}");
    let region = Region::square(1.0).unwrap();
    let mut sim = Session::builder(config(execution, threads))
        .region(region.clone())
        .positions(sample_uniform(&region, N, SEED))
        .build()
        .unwrap();
    while !checked_step(&mut sim, &label).report.converged {
        assert!(
            sim.rounds_executed() < 1_000,
            "{label}: fixture never converged"
        );
    }
    let r = (K as f64 / (N as f64 * std::f64::consts::PI)).sqrt();
    for j in 0..10 {
        let center = Point::new(0.1 + 0.08 * j as f64, 0.5);
        let moves: Vec<(NodeId, Point)> = sim
            .network()
            .positions()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(center) <= 2.0 * r)
            .map(|(i, p)| (NodeId(i), Point::new(0.99 * p.x + 0.005, p.y)))
            .collect();
        assert!(!moves.is_empty(), "{label}: disturbance {j} hit nobody");
        sim.displace_nodes(&moves).unwrap();
        for _ in 0..15 {
            checked_step(&mut sim, &label);
        }
        let event = match j {
            4 => NetworkEvent::FailNodes((0..5).map(|i| NodeId(7 + 40 * i)).collect()),
            7 => NetworkEvent::InsertNodes(vec![
                Point::new(0.3, 0.3),
                Point::new(0.7, 0.7),
                Point::new(0.2, 0.8),
                Point::new(0.85, 0.15),
            ]),
            8 => NetworkEvent::SetK(2),
            _ => continue,
        };
        sim.apply_event(event).unwrap();
    }
    sim
}

fn assert_every_mechanism_ran(sim: &Session, label: &str) {
    let c = sim.counters();
    assert!(
        c.skipped_quiescent > 0,
        "{label}: no node was skipped: {c:?}"
    );
    assert!(c.cache_hits > 0, "{label}: no cache hit: {c:?}");
    assert!(
        c.adjacency_incremental_updates > 0,
        "{label}: adjacency never patched: {c:?}"
    );
    assert!(c.warm_started > 0, "{label}: no warm start: {c:?}");
}

#[test]
fn serial_engine_matches_a_fresh_session_every_round() {
    let sim = run(ExecutionMode::Synchronous, 1);
    assert_every_mechanism_ran(&sim, "threads=1");
}

#[test]
fn parallel_engine_matches_a_fresh_session_every_round() {
    let sim = run(ExecutionMode::Synchronous, 4);
    assert_every_mechanism_ran(&sim, "threads=4");
}

#[test]
fn sequential_engine_matches_a_fresh_session_every_round() {
    // Gauss–Seidel rounds skip nothing by design; the per-node cache
    // and the spatial index still carry state across rounds.
    let sim = run(ExecutionMode::Sequential, 1);
    assert!(sim.counters().cache_hits > 0, "{:?}", sim.counters());
}
