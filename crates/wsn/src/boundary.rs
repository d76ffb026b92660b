//! Boundary-node detection.
//!
//! Algorithm 2 treats nodes on the network boundary specially (Fig. 3).
//! The paper delegates detection to an external service (UNFOLD, ref
//! \[29\]); we substitute two standard geometric detectors behind one trait
//! (the ring-saturation fallback in the core crate keeps LAACAD correct
//! even when a detector misclassifies).

use crate::network::Network;
use crate::node::NodeId;
use laacad_geom::{convex_hull, Point};

/// A boundary-detection service.
pub trait BoundaryDetector {
    /// Returns `true` when `id` should be treated as a network-boundary
    /// node.
    fn is_boundary(&self, net: &Network, id: NodeId) -> bool;
}

/// Angle-gap detector: a node is a boundary node when the directions to
/// its neighbors (within `radius`) leave an angular gap larger than
/// `gap_threshold`.
///
/// Interior nodes of a reasonably dense deployment are surrounded
/// (max gap < ~π/2); hull nodes always have a gap ≥ π.
#[derive(Debug, Clone, Copy)]
pub struct AngleGapDetector {
    /// Neighborhood radius used to collect witnesses.
    pub radius: f64,
    /// Gap (radians) above which the node counts as boundary.
    pub gap_threshold: f64,
}

impl AngleGapDetector {
    /// Detector with the conventional 2π/3 gap threshold.
    pub fn new(radius: f64) -> Self {
        AngleGapDetector {
            radius,
            gap_threshold: 2.0 * std::f64::consts::FRAC_PI_3,
        }
    }
}

impl BoundaryDetector for AngleGapDetector {
    fn is_boundary(&self, net: &Network, id: NodeId) -> bool {
        let origin = net.position(id);
        let neighbors: Vec<Point> = net
            .nodes_within(origin, self.radius)
            .into_iter()
            .filter(|&n| n != id)
            .map(|n| net.position(n))
            .filter(|p| p.distance(origin) > 1e-12)
            .collect();
        if neighbors.len() < 3 {
            return true;
        }
        let mut angles: Vec<f64> = neighbors
            .iter()
            .map(|&p| laacad_geom::normalize_angle((p - origin).angle()))
            .collect();
        angles.sort_by(f64::total_cmp);
        let mut max_gap: f64 = 0.0;
        for i in 0..angles.len() {
            let next = if i + 1 < angles.len() {
                angles[i + 1]
            } else {
                angles[0] + std::f64::consts::TAU
            };
            max_gap = max_gap.max(next - angles[i]);
        }
        max_gap > self.gap_threshold
    }
}

/// Hull detector: a node is a boundary node when it is a vertex of the
/// convex hull of its `radius`-neighborhood (itself included).
///
/// Cruder than the angle-gap detector on concave boundaries but immune to
/// angular-noise false positives.
#[derive(Debug, Clone, Copy)]
pub struct HullDetector {
    /// Neighborhood radius used to collect witnesses.
    pub radius: f64,
}

impl BoundaryDetector for HullDetector {
    fn is_boundary(&self, net: &Network, id: NodeId) -> bool {
        let origin = net.position(id);
        let mut pts: Vec<Point> = net
            .nodes_within(origin, self.radius)
            .into_iter()
            .map(|n| net.position(n))
            .collect();
        if pts.len() <= 3 {
            return true;
        }
        pts.push(origin);
        let hull = convex_hull(&pts);
        hull.iter().any(|&h| h.approx_eq(origin, 1e-12))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 5×5 grid with spacing 0.1.
    fn grid_network() -> Network {
        Network::from_positions(
            0.15,
            (0..5).flat_map(|i| (0..5).map(move |j| Point::new(i as f64 * 0.1, j as f64 * 0.1))),
        )
    }

    #[test]
    fn angle_gap_flags_corners_and_edges_not_center() {
        let net = grid_network();
        let det = AngleGapDetector::new(0.15);
        // Corner (0,0) = index 0, edge (0, 0.2) = index 2, center (0.2,0.2) = 12.
        assert!(det.is_boundary(&net, NodeId(0)), "corner");
        assert!(det.is_boundary(&net, NodeId(2)), "edge");
        assert!(!det.is_boundary(&net, NodeId(12)), "center");
    }

    #[test]
    fn hull_detector_flags_hull_nodes() {
        let net = grid_network();
        let det = HullDetector { radius: 0.15 };
        assert!(det.is_boundary(&net, NodeId(0)), "corner");
        assert!(!det.is_boundary(&net, NodeId(12)), "center");
    }

    #[test]
    fn isolated_node_is_boundary() {
        let net = Network::from_positions(0.1, [Point::new(0.0, 0.0)]);
        assert!(AngleGapDetector::new(0.1).is_boundary(&net, NodeId(0)));
        assert!(HullDetector { radius: 0.1 }.is_boundary(&net, NodeId(0)));
    }

    #[test]
    fn colocated_neighbors_do_not_confuse_angle_gap() {
        // Node with three co-located neighbors: directions undefined for
        // them; the node must count as boundary (no angular coverage).
        let p = Point::new(0.5, 0.5);
        let net = Network::from_positions(0.2, [p, p, p, p]);
        let det = AngleGapDetector::new(0.2);
        assert!(det.is_boundary(&net, NodeId(0)));
    }
}
