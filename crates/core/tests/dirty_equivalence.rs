//! The dirty-node index must skip work, not change it: quiescent rounds
//! perform **zero** ring searches at any worker count, and a localized
//! disturbance re-activates only the nodes it can reach. That the
//! skipped work would have reproduced the stored views bit for bit is
//! pinned separately, against a fresh session per round
//! (`fresh_session_oracle.rs`).
//!
//! The hop rule itself is pinned here against a brute-force
//! re-derivation: node `i`, whose stored search ran to ring `ρ_i` over
//! `H_i = hop_budget(ρ_i)` hops, is re-activated exactly when an
//! adjacency row that changed lies fewer than `H_i` hops from it, or a
//! mover started or ended within `ρ_i` of it. Each checked round is
//! also compared with a freshly built session stepped once from the
//! same positions.

use laacad::{
    expanding_ring_search_status, DominationScratch, LaacadConfig, NetworkEvent, RingStatus,
    RoundDelta, Session, SessionBuilder,
};
use laacad_geom::Point;
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_wsn::multihop::{hop_budget, RingScratch, DEFAULT_HOP_SLACK};
use laacad_wsn::{Adjacency, Network, NodeId};
use std::collections::VecDeque;

fn build(n: usize, k: usize, threads: usize) -> Session {
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(k)
        .transmission_range(LaacadConfig::recommended_gamma(1.0, n, k))
        .alpha(0.5)
        .epsilon(1e-5)
        .max_rounds(500)
        .snapshot_every(40)
        .threads(threads)
        .build()
        .unwrap();
    let initial = sample_uniform(&region, n, 31337);
    Session::builder(config)
        .region(region)
        .positions(initial)
        .build()
        .unwrap()
}

/// A dense 200-node k = 1 deployment whose small explicit γ keeps every
/// node's flood well below the region diameter, converged and stepped
/// once more so the stored views describe its final positions.
fn converged_200() -> Session {
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(1)
        .transmission_range(0.12)
        .alpha(0.6)
        .epsilon(1e-3)
        .max_rounds(600)
        .build()
        .unwrap();
    let mut sim = Session::builder(config)
        .region(region.clone())
        .positions(sample_uniform(&region, 200, 77))
        .build()
        .unwrap();
    for _ in 0..600 {
        if sim.step().report.converged {
            break;
        }
    }
    assert!(sim.is_converged(), "dense 200-node run converges");
    sim.step();
    sim
}

#[test]
fn single_mover_reactivates_a_strict_subset() {
    // One displaced node after convergence: the classifier re-activates
    // only the nodes whose flood or ring the move touched — never the
    // whole deployment.
    let mut sim = converged_200();
    let mover = NodeId(42);
    let p = sim.network().position(mover);
    let target = Point::new(p.x * 0.98 + 0.01, p.y * 0.98 + 0.01);
    assert_eq!(sim.displace_nodes(&[(mover, target)]).unwrap(), 1);
    let delta = sim.step();
    assert!(
        delta.ring_searches < sim.network().len(),
        "a single mover must not re-activate the whole deployment"
    );
}

#[test]
fn quiescent_rounds_perform_zero_ring_searches_at_any_thread_count() {
    for threads in [1usize, 4] {
        let mut sim = build(30, 2, threads);
        // Converge, then take one extra round so the stored views
        // describe the final positions.
        while !sim.step().report.converged {}
        sim.step();
        let before = sim.counters();
        for _ in 0..10 {
            let delta = sim.step();
            assert_eq!(
                delta.ring_searches, 0,
                "threads={threads}: quiescent round ran a ring search"
            );
            assert_eq!(delta.skipped_quiescent, sim.network().len());
            assert!(delta.moved.is_empty());
        }
        let after = sim.counters();
        assert_eq!(
            after.ring_searches, before.ring_searches,
            "threads={threads}: cumulative searches grew during quiescence"
        );
        assert_eq!(
            after.skipped_quiescent - before.skipped_quiescent,
            10 * sim.network().len() as u64,
            "threads={threads}"
        );
    }
}

#[test]
fn partial_quiescence_skips_far_nodes_only() {
    // After a localized corner failure, the first round recomputes everyone
    // (events invalidate the index wholesale); once the response
    // localizes, nodes far from every mover must be skipped while the
    // corner keeps searching.
    let mut sim = converged_200();
    // Kill everything in the bottom-left corner disk.
    let corner = Point::new(0.1, 0.1);
    let doomed: Vec<NodeId> = sim
        .network()
        .positions()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.distance(corner) <= 0.15)
        .map(|(i, _)| NodeId(i))
        .collect();
    assert!(!doomed.is_empty(), "the corner holds victims");
    sim.apply_event(NetworkEvent::FailNodes(doomed)).unwrap();
    let post_event = sim.step();
    assert_eq!(
        post_event.ring_searches,
        sim.network().len(),
        "the round after an event recomputes everyone"
    );
    let mut partial = false;
    for _ in 0..200 {
        let delta = sim.step();
        assert_eq!(
            delta.skipped_quiescent + delta.ring_searches,
            sim.network().len()
        );
        if delta.skipped_quiescent > 0 && delta.ring_searches > 0 {
            partial = true;
            break;
        }
        if delta.report.converged && delta.ring_searches == 0 {
            break;
        }
    }
    assert!(
        partial,
        "recovery never reached a partially-quiescent round (skips alongside searches)"
    );
}

/// Every node's ring search at `positions` — what its stored view holds.
fn searches(sim: &Session, positions: &[Point]) -> Vec<RingStatus> {
    let net = Network::from_positions(sim.config().gamma, positions.iter().copied());
    let region = sim.region();
    let max_rho = sim
        .config()
        .max_rho
        .unwrap_or(2.0 * region.diameter_bound());
    let (mut scratch, mut competitors) = (RingScratch::new(), Vec::new());
    let mut domination = DominationScratch::new();
    (0..net.len())
        .map(|i| {
            expanding_ring_search_status(
                &net,
                None,
                NodeId(i),
                region,
                sim.config().k,
                max_rho,
                &mut scratch,
                &mut competitors,
                &mut domination,
            )
        })
        .collect()
}

/// BFS hop distances over `adj` from every node of `sources` at once
/// (`usize::MAX` when unreachable).
fn hops_from(adj: &Adjacency, sources: &[usize]) -> Vec<usize> {
    let mut hops = vec![usize::MAX; adj.len()];
    let mut queue = VecDeque::new();
    for &s in sources {
        hops[s] = 0;
        queue.push_back(s);
    }
    while let Some(u) = queue.pop_front() {
        for &v in adj.neighbors(u) {
            if hops[v as usize] == usize::MAX {
                hops[v as usize] = hops[u] + 1;
                queue.push_back(v as usize);
            }
        }
    }
    hops
}

/// The classifier's margin on the ring test.
const RING_SLACK: f64 = 1e-9;

/// Brute-force work of the round after a stored-view round at `before`,
/// with the session now at its current positions and `movers` the
/// `(from, to)` movement set in between: `(re-activated, warm-started)`
/// per node.
fn expected_work(sim: &Session, before: &[Point], movers: &[(Point, Point)]) -> Vec<(bool, bool)> {
    let gamma = sim.config().gamma;
    let after = sim.network().positions();
    let stored = searches(sim, before);
    let old = Adjacency::build(&Network::from_positions(gamma, before.iter().copied()));
    let new = Adjacency::build(&Network::from_positions(gamma, after.iter().copied()));
    let changed: Vec<usize> = (0..after.len())
        .filter(|&i| old.neighbors(i) != new.neighbors(i))
        .collect();
    let hops = hops_from(&new, &changed);
    (0..after.len())
        .map(|i| {
            let clearance_sq = movers
                .iter()
                .flat_map(|&(from, to)| [from, to])
                .map(|e| after[i].distance_sq(e))
                .fold(f64::INFINITY, f64::min);
            let in_ring = |rho: f64| clearance_sq <= (rho + RING_SLACK) * (rho + RING_SLACK);
            let view = &stored[i];
            let dirty =
                hops[i] < hop_budget(view.rho, gamma, DEFAULT_HOP_SLACK) || in_ring(view.rho);
            // Warm-started: the first stage's check is known to fail — its
            // flood and ring both predate every change — and it is not
            // the terminating stage.
            let warm = dirty
                && view.stages > 1
                && hops[i] >= hop_budget(gamma, gamma, DEFAULT_HOP_SLACK)
                && !in_ring(gamma);
            (dirty, warm)
        })
        .collect()
}

/// Steps `sim` once and checks the round against a fresh session built
/// from the pre-step positions and stepped once.
fn step_like_fresh(sim: &mut Session, label: &str) -> RoundDelta {
    let mut fresh = Session::builder(sim.config().clone())
        .region(sim.region().clone())
        .positions(sim.network().positions().iter().copied())
        .build()
        .unwrap();
    let delta = sim.step();
    let reference = fresh.step();
    assert_eq!(
        sim.network().positions(),
        fresh.network().positions(),
        "{label}: positions diverged from a fresh session"
    );
    assert_eq!(
        sim.network().sensing_radii(),
        fresh.network().sensing_radii(),
        "{label}"
    );
    assert_eq!(delta.report.messages, reference.report.messages, "{label}");
    assert_eq!(delta.moved, reference.moved, "{label}");
    delta
}

/// Steps `sim` once, checking the round against a fresh session
/// ([`step_like_fresh`]) and its work against [`expected_work`];
/// returns which nodes the brute force re-activates.
fn checked_step(
    sim: &mut Session,
    before: &[Point],
    movers: &[(Point, Point)],
    label: &str,
) -> Vec<bool> {
    let n = sim.network().len();
    let expected = expected_work(sim, before, movers);
    let warm_before = sim.counters().warm_started;
    let delta = step_like_fresh(sim, label);
    if movers.len() * 4 < n {
        let dirty = expected.iter().filter(|w| w.0).count();
        let warm = expected.iter().filter(|w| w.1).count() as u64;
        assert_eq!(delta.ring_searches, dirty, "{label}: re-activated nodes");
        assert_eq!(
            sim.counters().warm_started - warm_before,
            warm,
            "{label}: warm-started nodes"
        );
    }
    expected.into_iter().map(|w| w.0).collect()
}

#[test]
fn hop_rule_matches_a_brute_force_classification() {
    // Four localized disturbances of a converged deployment, each
    // followed by every round of the reaction: the engine's work in each
    // round must be exactly the brute-force set.
    let mut sim = converged_200();
    let gamma = sim.config().gamma;
    let mut checked = 0;
    for (j, center) in [(0.2, 0.3), (0.7, 0.25), (0.45, 0.6), (0.8, 0.8)]
        .into_iter()
        .enumerate()
    {
        let center = Point::new(center.0, center.1);
        let before = sim.network().positions().to_vec();
        let moves: Vec<(NodeId, Point)> = (0..before.len())
            .filter(|&i| before[i].distance(center) < 1.5 * gamma)
            .map(|i| (NodeId(i), before[i].lerp(center, 0.3)))
            .collect();
        assert!(moves.len() >= 2, "disturbance {j} moves {}", moves.len());
        sim.displace_nodes(&moves).unwrap();
        let mut movers: Vec<(Point, Point)> = moves
            .iter()
            .map(|&(id, to)| (before[id.index()], to))
            .collect();
        let mut stored_at = before;
        for round in 0..40 {
            let start = sim.network().positions().to_vec();
            checked_step(
                &mut sim,
                &stored_at,
                &movers,
                &format!("disturbance {j} round {round}"),
            );
            checked += 1;
            let end = sim.network().positions();
            movers = (0..end.len())
                .filter(|&i| start[i] != end[i])
                .map(|i| (start[i], end[i]))
                .collect();
            stored_at = start;
            if movers.is_empty() {
                break;
            }
        }
    }
    assert!(checked >= 8, "only {checked} rounds checked");
}

/// Hop levels of `i`'s flood at `positions` (`usize::MAX` beyond reach).
fn levels(sim: &Session, positions: &[Point], i: usize) -> Vec<usize> {
    let net = Network::from_positions(sim.config().gamma, positions.iter().copied());
    hops_from(&Adjacency::build(&net), &[i])
}

/// Displaces `m` to `target` and checks the reacting round; returns the
/// brute-force re-activation verdict of every node.
fn displace_and_check(sim: &mut Session, m: usize, target: Point, label: &str) -> Vec<bool> {
    let before = sim.network().positions().to_vec();
    sim.displace_nodes(&[(NodeId(m), target)]).unwrap();
    checked_step(sim, &before, &[(before[m], target)], label)
}

/// A node `i`, a mover `m` and a target `q` such that `m` stays outside
/// `i`'s ring at both ends but lands next to a relay of `i`'s flood, so
/// `m` joins the flood and `i`'s broadcast count changes. Only the hop
/// test (a) can see this: the relay's row changed.
fn relay_edge_case(sim: &Session) -> (usize, usize, Point) {
    let gamma = sim.config().gamma;
    let before = sim.network().positions().to_vec();
    let stored = searches(sim, &before);
    let margin = 0.01;
    let mut case = None;
    'search: for i in 0..before.len() {
        let budget = hop_budget(stored[i].rho, gamma, DEFAULT_HOP_SLACK);
        let level = levels(sim, &before, i);
        let outside = |p: Point| p.distance(before[i]) > stored[i].rho + margin;
        for r in (0..before.len()).filter(|&r| r != i && level[r] + 2 <= budget) {
            for m in (0..before.len()).filter(|&m| level[m] >= budget && outside(before[m])) {
                for step in 0..16 {
                    let angle = step as f64 * std::f64::consts::TAU / 16.0;
                    let q = Point::new(
                        before[r].x + 0.5 * gamma * angle.cos(),
                        before[r].y + 0.5 * gamma * angle.sin(),
                    );
                    if !sim.region().contains(q) || !outside(q) {
                        continue;
                    }
                    let mut after = before.clone();
                    after[m] = q;
                    let moved = searches(sim, &after);
                    if moved[i].messages.broadcast != stored[i].messages.broadcast {
                        case = Some((i, m, q));
                        break 'search;
                    }
                }
            }
        }
    }
    case.expect("the fixture has a relay a far mover can join")
}

#[test]
fn mover_gaining_a_relay_edge_outside_the_ring_reactivates_the_node() {
    // A replayed view would report i's old broadcast count.
    let mut sim = converged_200();
    let (i, m, q) = relay_edge_case(&sim);
    let reactivated = displace_and_check(&mut sim, m, q, "relay edge");
    assert!(reactivated[i], "node {i} must re-activate");
}

#[test]
fn displacing_after_a_finalize_with_pending_movers_matches_a_fresh_session() {
    // `finalize` brings the adjacency up to date with movers the stored
    // views predate (as when `run` stops at `max_rounds`). A displacement
    // after it must not make the next round patch the snapshot with those
    // movers again: the rows they changed would drop out of the changed
    // set, and node i — reached only through the relay edge mover m
    // gained — would replay its old broadcast count.
    let mut sim = converged_200();
    let (i, m, q) = relay_edge_case(&sim);
    sim.displace_nodes(&[(NodeId(m), q)]).unwrap();
    sim.finalize();
    // A row-preserving nudge of the node farthest from i.
    let positions = sim.network().positions();
    let far = (0..positions.len())
        .max_by(|&a, &b| {
            let da = positions[a].distance_sq(positions[i]);
            da.total_cmp(&positions[b].distance_sq(positions[i]))
        })
        .unwrap();
    let nudged = positions[far].lerp(Point::new(0.5, 0.5), 1e-6);
    sim.displace_nodes(&[(NodeId(far), nudged)]).unwrap();
    // The session's own snapshot restores and continues identically.
    let mut restored = SessionBuilder::restore(&sim.snapshot()).unwrap();
    let delta = step_like_fresh(&mut sim, "finalize then displace");
    assert_eq!(restored.step(), delta, "restored session");
    assert_eq!(restored.network().positions(), sim.network().positions());
    // The reaction continues like a fresh session too.
    for round in 0..3 {
        step_like_fresh(&mut sim, &format!("reaction round {round}"));
    }
}

#[test]
fn row_unchanged_mover_inside_the_flood_outside_the_ring_is_replayed() {
    // Mover m broadcasts in node i's flood but lies outside i's ring, and
    // its nudge changes no adjacency row: i's search reads nothing that
    // changed, so i replays — and the round still matches a fresh
    // session.
    let mut sim = converged_200();
    let gamma = sim.config().gamma;
    let before = sim.network().positions().to_vec();
    let stored = searches(&sim, &before);
    let nudge = 1e-6;
    let mut case = None;
    'search: for i in 0..before.len() {
        let budget = hop_budget(stored[i].rho, gamma, DEFAULT_HOP_SLACK);
        let level = levels(&sim, &before, i);
        for m in (0..before.len()).filter(|&m| m != i && level[m] < budget) {
            let q = Point::new(before[m].x + nudge, before[m].y);
            if before[m].distance(before[i]) <= stored[i].rho + 10.0 * nudge
                || !sim.region().contains(q)
            {
                continue;
            }
            let mut after = before.clone();
            after[m] = q;
            let old = Adjacency::build(&Network::from_positions(gamma, before.iter().copied()));
            let new = Adjacency::build(&Network::from_positions(gamma, after.iter().copied()));
            if old.csr() == new.csr() {
                case = Some((i, m, q));
                break 'search;
            }
        }
    }
    let (i, m, q) = case.expect("the fixture has a relay outside some ring");
    let reactivated = displace_and_check(&mut sim, m, q, "row-unchanged relay");
    assert!(!reactivated[i], "node {i} must replay its stored view");
    assert!(reactivated[m], "the mover itself always re-activates");
}
