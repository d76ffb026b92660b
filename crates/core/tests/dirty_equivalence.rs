//! The dirty-node index must skip work, not change it: quiescent rounds
//! perform **zero** ring searches at any worker count, and a localized
//! disturbance re-activates only the nodes it can reach. That the
//! skipped work would have reproduced the stored views bit for bit is
//! pinned separately, against a fresh session per round
//! (`fresh_session_oracle.rs`).

use laacad::{LaacadConfig, NetworkEvent, Session};
use laacad_geom::Point;
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_wsn::NodeId;

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

#[test]
fn single_mover_reactivates_a_strict_subset_under_exact_reach() {
    // One displaced node after convergence: the exact-reach classifier
    // re-activates only the nodes whose recorded search could have heard
    // of the mover — never the whole deployment.
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(1)
        .transmission_range(0.12)
        .alpha(0.6)
        .epsilon(1e-3)
        .max_rounds(600)
        .build()
        .unwrap();
    let initial = sample_uniform(&region, 200, 77);
    let mut sim = Session::builder(config)
        .region(region)
        .positions(initial)
        .build()
        .unwrap();
    for _ in 0..600 {
        if sim.step().report.converged {
            break;
        }
    }
    assert!(sim.is_converged(), "dense 200-node run converges");
    sim.step(); // stored views now describe the final positions
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
    // A dense deployment with a small explicit γ keeps the dirty safety
    // radius (ρ + slack·γ) well below the region diameter. After a
    // localized corner failure, the first round recomputes everyone
    // (events invalidate the index wholesale); once the response
    // localizes, nodes far from every mover must be skipped while the
    // corner keeps searching.
    let region = Region::square(1.0).unwrap();
    let config = LaacadConfig::builder(1)
        .transmission_range(0.12)
        .alpha(0.6)
        .epsilon(1e-3)
        .max_rounds(600)
        .build()
        .unwrap();
    let initial = sample_uniform(&region, 200, 77);
    let mut sim = Session::builder(config)
        .region(region)
        .positions(initial)
        .build()
        .unwrap();
    for _ in 0..600 {
        if sim.step().report.converged {
            break;
        }
    }
    assert!(sim.is_converged(), "dense 200-node run converges");
    sim.step();
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
