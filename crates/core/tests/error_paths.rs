//! Error paths of session construction and of the mid-run mutation
//! API: `SessionBuilder::build` must reject what it cannot run, and
//! `Session::displace_nodes` and `Session::apply_event` must validate
//! up front, fail with the documented error, and leave the session
//! completely untouched —
//! a rejected mutation followed by a run must behave exactly like no
//! mutation attempt at all.

use laacad::{LaacadConfig, LaacadError, NetworkEvent, Session};
use laacad_geom::Point;
use laacad_region::sampling::sample_uniform;
use laacad_region::Region;
use laacad_wsn::NodeId;

fn session(n: usize, k: usize, seed: u64) -> Session {
    let region = Region::square(1.0).unwrap();
    let positions = sample_uniform(&region, n, seed);
    let config = LaacadConfig::builder(k)
        .alpha(0.6)
        .epsilon(1e-3)
        .transmission_range(0.45)
        .max_rounds(400)
        .seed(seed)
        .build()
        .unwrap();
    Session::builder(config)
        .region(region)
        .positions(positions)
        .build()
        .unwrap()
}

fn state_bits(sim: &Session) -> Vec<(u64, u64, u64)> {
    sim.network()
        .nodes()
        .enumerate()
        .map(|(i, node)| {
            let p = sim.network().position(NodeId(i));
            (
                p.x.to_bits(),
                p.y.to_bits(),
                node.sensing_radius().to_bits(),
            )
        })
        .collect()
}

#[test]
fn displace_rejects_unknown_ids_including_the_boundary() {
    let mut sim = session(12, 1, 7);
    let before = state_bits(&sim);
    // `NodeId(n)` is the first out-of-range id — the classic off-by-one.
    let err = sim
        .displace_nodes(&[(NodeId(12), Point::new(0.5, 0.5))])
        .unwrap_err();
    assert!(matches!(err, LaacadError::UnknownNode { id: 12, n: 12 }));
    let err = sim
        .displace_nodes(&[(NodeId(usize::MAX), Point::new(0.5, 0.5))])
        .unwrap_err();
    assert!(matches!(err, LaacadError::UnknownNode { .. }));
    assert_eq!(
        state_bits(&sim),
        before,
        "failed displace must not touch state"
    );
}

#[test]
fn displace_rejects_out_of_region_targets_atomically() {
    let mut sim = session(12, 1, 8);
    let before = state_bits(&sim);
    // First move is valid; the second is outside — nothing may apply.
    let err = sim
        .displace_nodes(&[
            (NodeId(0), Point::new(0.5, 0.5)),
            (NodeId(1), Point::new(1.5, 0.5)),
        ])
        .unwrap_err();
    assert!(
        matches!(err, LaacadError::NodeOutsideRegion { index: 1 }),
        "error names the offending entry: {err:?}"
    );
    assert_eq!(
        state_bits(&sim),
        before,
        "validation is atomic: the valid first entry must not have applied"
    );
    // And the run after a rejected displace matches an untouched run.
    let summary = sim.run();
    let clean = session(12, 1, 8).run();
    assert_eq!(summary, clean);
}

#[test]
fn fail_all_nodes_is_rejected_as_empty_deployment() {
    let mut sim = session(6, 1, 9);
    let ids: Vec<NodeId> = (0..6).map(NodeId).collect();
    let err = sim.apply_event(NetworkEvent::FailNodes(ids)).unwrap_err();
    assert!(matches!(err, LaacadError::EmptyDeployment));
    assert_eq!(sim.network().len(), 6, "nothing removed");
}

#[test]
fn failing_below_k_survivors_is_rejected() {
    let mut sim = session(8, 3, 10);
    // 6 of 8 fail -> 2 survivors < k = 3.
    let ids: Vec<NodeId> = (0..6).map(NodeId).collect();
    let err = sim.apply_event(NetworkEvent::FailNodes(ids)).unwrap_err();
    assert!(matches!(err, LaacadError::InvalidK { k: 3, n: 2 }));
    assert_eq!(sim.network().len(), 8);
}

#[test]
fn out_of_range_and_duplicate_failure_ids_are_ignored() {
    let mut sim = session(10, 1, 11);
    // Ids beyond the population and repeats of the same id must count
    // once each toward the survivor check and the removal.
    let outcome = sim
        .apply_event(NetworkEvent::FailNodes(vec![
            NodeId(3),
            NodeId(3),
            NodeId(99),
            NodeId(usize::MAX),
        ]))
        .unwrap();
    assert_eq!(outcome.removed, 1, "only the one real node goes");
    assert_eq!(sim.network().len(), 9);
}

#[test]
fn insert_outside_region_rejects_the_whole_batch() {
    let mut sim = session(10, 1, 12);
    let before = state_bits(&sim);
    let err = sim
        .apply_event(NetworkEvent::InsertNodes(vec![
            Point::new(0.4, 0.4),
            Point::new(-0.1, 0.5),
        ]))
        .unwrap_err();
    assert!(
        matches!(err, LaacadError::NodeOutsideRegion { index: 1 }),
        "{err:?}"
    );
    assert_eq!(sim.network().len(), 10, "no partial insertion");
    assert_eq!(state_bits(&sim), before);
}

#[test]
fn set_k_validates_against_the_population() {
    let mut sim = session(10, 1, 13);
    assert!(matches!(
        sim.apply_event(NetworkEvent::SetK(0)).unwrap_err(),
        LaacadError::InvalidK { k: 0, .. }
    ));
    assert!(matches!(
        sim.apply_event(NetworkEvent::SetK(11)).unwrap_err(),
        LaacadError::InvalidK { k: 11, n: 10 }
    ));
    // The boundary value k = n is legal.
    sim.apply_event(NetworkEvent::SetK(10)).unwrap();
}

#[test]
fn set_alpha_rejects_the_documented_range() {
    let mut sim = session(10, 1, 14);
    for bad in [0.0, -0.5, 1.5, f64::NAN] {
        let err = sim.apply_event(NetworkEvent::SetAlpha(bad)).unwrap_err();
        assert!(matches!(err, LaacadError::InvalidAlpha(_)), "alpha={bad}");
    }
    sim.apply_event(NetworkEvent::SetAlpha(1.0)).unwrap();
}

#[test]
fn rejected_events_leave_the_session_bit_identical() {
    // Two sessions, same seed; one suffers a barrage of rejected
    // mutations mid-run. Every subsequent step must match bit for bit.
    let mut control = session(12, 1, 15);
    let mut sim = session(12, 1, 15);
    let _ = sim.apply_event(NetworkEvent::SetK(0)).unwrap_err();
    let _ = sim.apply_event(NetworkEvent::SetAlpha(2.0)).unwrap_err();
    let _ = sim
        .apply_event(NetworkEvent::InsertNodes(vec![Point::new(9.0, 9.0)]))
        .unwrap_err();
    let _ = sim
        .displace_nodes(&[(NodeId(99), Point::new(0.5, 0.5))])
        .unwrap_err();
    let a = control.run();
    let b = sim.run();
    assert_eq!(a, b, "rejected mutations must not perturb the run");
    assert_eq!(state_bits(&control), state_bits(&sim));
}

#[test]
fn events_on_an_already_shrunk_population_use_live_ids() {
    let mut sim = session(10, 1, 16);
    sim.apply_event(NetworkEvent::FailNodes(vec![NodeId(9), NodeId(8)]))
        .unwrap();
    assert_eq!(sim.network().len(), 8);
    // Ids 8 and 9 are gone; failing them again removes nothing but ids
    // 0..8 were re-indexed densely and remain valid.
    let outcome = sim
        .apply_event(NetworkEvent::FailNodes(vec![NodeId(8), NodeId(9)]))
        .unwrap();
    assert_eq!(outcome.removed, 0);
    let outcome = sim
        .apply_event(NetworkEvent::FailNodes(vec![NodeId(7)]))
        .unwrap();
    assert_eq!(outcome.removed, 1);
    assert_eq!(sim.network().len(), 7);
    // Displacing a removed id now fails cleanly too.
    let err = sim
        .displace_nodes(&[(NodeId(7), Point::new(0.5, 0.5))])
        .unwrap_err();
    assert!(matches!(err, LaacadError::UnknownNode { id: 7, n: 7 }));
}

#[test]
fn build_rejects_what_it_cannot_run() {
    let region = Region::square(1.0).unwrap();
    let good = LaacadConfig::builder(1).build().unwrap();
    let inside = Point::new(0.5, 0.5);
    for (gamma, cap_vertices, max_rho, y) in [
        (0.1, 0, None, 0.5),
        (0.1, 64, Some(f64::INFINITY), 0.5),
        (0.1, 64, Some(-1.0), 0.5),
        (f64::INFINITY, 64, None, 0.5),
        (0.1, 64, None, f64::NAN),
        (0.1, 64, None, 4.39e307),
    ] {
        let config = LaacadConfig {
            gamma,
            cap_vertices,
            max_rho,
            ..good.clone()
        };
        let err = Session::builder(config)
            .region(region.clone())
            .positions([inside, Point::new(0.5, y)])
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                LaacadError::InvalidGamma(_)
                    | LaacadError::InvalidCapVertices(0)
                    | LaacadError::InvalidMaxRho(_)
                    | LaacadError::NodeOutsideRegion { index: 1 }
            ),
            "{gamma}, {cap_vertices}, {max_rho:?}, {y}: {err:?}"
        );
    }
}
