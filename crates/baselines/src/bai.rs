//! Bai et al. \[3\] — optimal 2-coverage deployment (Table I baseline).
//!
//! INFOCOM 2011 proves the optimal *congruent* deployment density for
//! 2-coverage (ignoring boundary effects) is `4π/(3√3)`, where density is
//! the ratio of total sensing-disk area to covered area. Table I of the
//! LAACAD paper converts that into the minimum node count
//! `N*₂ = 4|A| / (3√3 R²)` and compares it with LAACAD's node usage.

use laacad_geom::Point;
use laacad_region::Region;

/// The optimal 2-coverage deployment density `4π/(3√3)` (ratio of disk
/// area to covered area).
pub const BAI_DENSITY: f64 = 4.0 * std::f64::consts::PI / (3.0 * 1.732_050_807_568_877_2);

/// Minimum node count for 2-coverage of `area` with common sensing range
/// `r`, by Bai et al.'s density bound: `N*₂ = 4·area / (3√3·r²)`.
///
/// Boundary effects are ignored (exactly as in Table I, which notes the
/// resulting under-estimate of roughly 15%).
///
/// # Panics
///
/// Panics for non-positive inputs.
pub fn bai_min_nodes(area: f64, r: f64) -> f64 {
    assert!(area > 0.0 && r > 0.0, "area and range must be positive");
    4.0 * area / (3.0 * 3.0f64.sqrt() * r * r)
}

/// A concrete deployment realizing the optimal density: a triangular
/// lattice of side `√3·r` (the optimal 1-coverage layout) with **two**
/// co-located nodes per vertex.
///
/// Each lattice layer 1-covers the region, so the doubled lattice
/// 2-covers it; its density is `2 · 2π/(3√3) = 4π/(3√3)`, matching
/// [`BAI_DENSITY`] — i.e., this pattern is density-optimal.
pub fn bai_pattern(region: &Region, r: f64) -> Vec<Point> {
    let single = crate::lattice::triangular_lattice(region, 3.0f64.sqrt() * r);
    let mut out = Vec::with_capacity(2 * single.len());
    for p in single {
        out.push(p);
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_constant_value() {
        assert!((BAI_DENSITY - 2.4183991523).abs() < 1e-9);
    }

    #[test]
    fn table1_numbers_reproduce() {
        // Table I: |A| = 10⁴ m² (the paper's "1 km²" does not fit its own
        // R*/N* pairs; 10⁴ m² does), R* from the paper's runs → N*.
        // Spot-check the published rows.
        for (r_star, n_star) in [
            (3.035f64, 836.0f64),
            (2.712, 1047.0),
            (2.523, 1210.0),
            (2.357, 1386.0),
        ] {
            let n = bai_min_nodes(1.0e4, r_star);
            let err = (n - n_star).abs() / n_star;
            assert!(err < 0.005, "R*={r_star}: {n} vs paper {n_star}");
        }
    }

    #[test]
    fn pattern_density_matches_bound() {
        let region = Region::square(10.0).unwrap();
        let r = 0.5;
        let pts = bai_pattern(&region, r);
        // Disk-area-to-region ratio ≈ BAI_DENSITY (boundary effects small
        // for a 20r-wide region).
        let density = pts.len() as f64 * std::f64::consts::PI * r * r / region.area();
        assert!(
            (density - BAI_DENSITY).abs() / BAI_DENSITY < 0.15,
            "density {density} vs {BAI_DENSITY}"
        );
    }

    #[test]
    fn pattern_2_covers() {
        use laacad_coverage::evaluate_coverage;
        use laacad_wsn::Network;
        let region = Region::square(3.0).unwrap();
        let r = 0.4;
        let pts = bai_pattern(&region, r);
        let mut net = Network::from_positions(1.0, pts.iter().copied());
        for id in net.ids().collect::<Vec<_>>() {
            net.set_sensing_radius(id, r);
        }
        let report = evaluate_coverage(&net, &region, 2, 4000);
        assert!(report.covered_fraction > 0.97, "{report}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_inputs_panic() {
        let _ = bai_min_nodes(0.0, 1.0);
    }
}
