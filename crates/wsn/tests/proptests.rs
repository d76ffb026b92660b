//! Property tests for the WSN substrate.

use laacad_geom::transform::procrustes;
use laacad_geom::Point;
use laacad_wsn::mds::classical_mds;
use laacad_wsn::multihop::ring_neighborhood;
use laacad_wsn::{FlatGrid, Network, NodeId};
use proptest::prelude::*;

fn points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y)),
        min..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_grid_matches_brute_force_under_moves(
        pts in points(1, 80),
        outlier in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..2),
        moves in prop::collection::vec(
            (0usize..82, 0.0f64..1.0, 0.0f64..1.0),
            0..12,
        ),
        queries in prop::collection::vec(
            (-0.2f64..1.2, -0.2f64..1.2, 0.0f64..0.8),
            1..8,
        ),
        cell in 0.05f64..0.5,
    ) {
        // Under any interleaving of batched moves and queries, `within`
        // returns exactly the brute-force index list — also when an
        // outlier makes the build coarsen its cell.
        let mut pts = pts;
        pts.extend(outlier.iter().map(|&(x, y)| Point::new(x, y)));
        let mut grid = FlatGrid::build(&pts, cell);
        let mut got = Vec::new();
        for (chunk, &(qx, qy, r)) in queries.iter().enumerate() {
            // Interleave: apply a slice of the move batch before each query.
            let lo = chunk * moves.len() / queries.len();
            let hi = (chunk + 1) * moves.len() / queries.len();
            // Dedup per batch: `from` positions are captured eagerly, so a
            // node may move at most once per `apply_moves` call (as in the
            // round engine, where each node displaces once per round).
            let mut seen = std::collections::HashSet::new();
            let batch: Vec<(usize, Point, Point)> = moves[lo..hi]
                .iter()
                .filter(|(i, _, _)| *i < pts.len() && seen.insert(*i))
                .map(|&(i, x, y)| (i, pts[i], Point::new(x, y)))
                .collect();
            let ok = grid.apply_moves(batch.iter().copied().inspect(|&(i, _, new)| {
                pts[i] = new;
            }));
            if !ok {
                // A move out of the bounding box or a full cell: the
                // owner rebuilds, exactly as `Network` does.
                grid = FlatGrid::build(&pts, cell);
            }
            let q = Point::new(qx, qy);
            let expect: Vec<usize> = (0..pts.len())
                .filter(|&i| pts[i].distance(q) <= r + 1e-9)
                .collect();
            grid.within_into(&pts, q, r, &mut got);
            prop_assert_eq!(&got, &expect);
        }
    }

    #[test]
    fn mds_reconstructs_geometry(pts in points(3, 20)) {
        let d: Vec<Vec<f64>> = pts
            .iter()
            .map(|a| pts.iter().map(|b| a.distance(*b)).collect())
            .collect();
        // Degenerate clouds (all nearly coincident) are rejected upstream.
        let spread = pts
            .iter()
            .flat_map(|a| pts.iter().map(move |b| a.distance(*b)))
            .fold(0.0, f64::max);
        prop_assume!(spread > 1e-3);
        let e = classical_mds(&d).unwrap();
        let t = procrustes(&e.coords, &pts);
        prop_assume!(t.is_ok());
        let t = t.unwrap();
        for (c, p) in e.coords.iter().zip(&pts) {
            prop_assert!(t.apply(*c).distance(*p) < 1e-5, "mds drift at {p}");
        }
    }

    #[test]
    fn ring_members_are_euclidean_subset(pts in points(2, 50), rho in 0.05f64..1.0) {
        let net = Network::from_positions(0.2, pts.iter().copied());
        let ring = ring_neighborhood(&net, NodeId(0), rho);
        for m in &ring.members {
            prop_assert!(net.position(*m).distance(pts[0]) <= rho + 1e-9);
            prop_assert_ne!(*m, NodeId(0));
        }
        // Members are sorted and unique (BFS + index order).
        let mut sorted = ring.members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted, ring.members.clone());
    }

    #[test]
    fn ring_grows_monotonically_with_rho(pts in points(2, 40)) {
        let net = Network::from_positions(0.25, pts.iter().copied());
        let small = ring_neighborhood(&net, NodeId(0), 0.2);
        let large = ring_neighborhood(&net, NodeId(0), 0.6);
        for m in &small.members {
            prop_assert!(large.members.contains(m), "member {m} lost on expansion");
        }
    }

    #[test]
    fn movement_odometer_is_additive(
        pts in points(1, 10),
        moves in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..8),
    ) {
        let mut net = Network::from_positions(0.2, pts.iter().copied());
        let mut expect = 0.0;
        let mut prev = pts[0];
        for (x, y) in moves {
            let next = Point::new(x, y);
            expect += prev.distance(next);
            net.move_node(NodeId(0), next);
            prev = next;
        }
        prop_assert!((net.node(NodeId(0)).distance_moved() - expect).abs() < 1e-9);
        prop_assert!((net.total_distance_moved() - expect).abs() < 1e-9);
    }
}
