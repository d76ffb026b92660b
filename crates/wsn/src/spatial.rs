//! Uniform-grid spatial index for range queries.
//!
//! Every LAACAD round issues `N` radius queries (one expanding-ring search
//! per node); a uniform grid keeps them near-linear. Cell size is chosen
//! by the caller — the transmission range `γ` is the natural pick.

use laacad_geom::Point;
use std::collections::HashMap;

/// A hash-grid over points with a fixed cell size.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    buckets: HashMap<(i64, i64), Vec<usize>>,
}

impl SpatialGrid {
    /// Builds a grid with the given cell size over `points` (indexed by
    /// position in the slice).
    ///
    /// # Panics
    ///
    /// Panics when `cell` is not strictly positive.
    pub fn build(points: &[Point], cell: f64) -> Self {
        assert!(cell.is_finite() && cell > 0.0, "cell size must be positive");
        let mut buckets: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (i, &p) in points.iter().enumerate() {
            buckets.entry(Self::key(p, cell)).or_default().push(i);
        }
        SpatialGrid { cell, buckets }
    }

    fn key(p: Point, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// Indices of all points within Euclidean distance `radius` of `q`
    /// (inclusive), in ascending index order.
    ///
    /// **Test-only convenience**: allocates a fresh `Vec` per call, so
    /// no hot path uses it — per-round queries go through
    /// [`SpatialGrid::within_into`] with a reused buffer.
    pub fn within(&self, points: &[Point], q: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.within_into(points, q, radius, &mut out);
        out
    }

    /// Like [`SpatialGrid::within`], but appends into a caller-owned
    /// buffer (cleared first) instead of allocating — the form every
    /// per-round hot query uses.
    pub fn within_into(&self, points: &[Point], q: Point, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        let r = radius.max(0.0);
        let lo = Self::key(q - laacad_geom::Vector::new(r, r), self.cell);
        let hi = Self::key(q + laacad_geom::Vector::new(r, r), self.cell);
        let r_sq = r * r + 1e-12;
        for gx in lo.0..=hi.0 {
            for gy in lo.1..=hi.1 {
                if let Some(bucket) = self.buckets.get(&(gx, gy)) {
                    for &i in bucket {
                        if points[i].distance_sq(q) <= r_sq {
                            out.push(i);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
    }

    /// Adds point `i` located at `p` to the index.
    pub fn insert(&mut self, i: usize, p: Point) {
        self.buckets
            .entry(Self::key(p, self.cell))
            .or_default()
            .push(i);
    }

    /// Applies a batch of moves `(index, old, new)` to the index — the
    /// move-delta update path of partially-active rounds: only the
    /// movers' grid cells are touched, everything else stays in place.
    /// Equivalent to calling [`SpatialGrid::relocate`] per move.
    pub fn apply_moves(&mut self, moves: impl IntoIterator<Item = (usize, Point, Point)>) {
        for (i, old, new) in moves {
            self.relocate(i, old, new);
        }
    }

    /// Moves point `i` from `old` to `new` within the index.
    pub fn relocate(&mut self, i: usize, old: Point, new: Point) {
        let ko = Self::key(old, self.cell);
        let kn = Self::key(new, self.cell);
        if ko == kn {
            return;
        }
        if let Some(bucket) = self.buckets.get_mut(&ko) {
            bucket.retain(|&x| x != i);
            if bucket.is_empty() {
                self.buckets.remove(&ko);
            }
        }
        self.buckets.entry(kn).or_default().push(i);
    }

    /// The configured cell size.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(Point::new(i as f64 * 0.1, j as f64 * 0.1));
            }
        }
        pts
    }

    #[test]
    fn within_matches_brute_force() {
        let pts = cloud();
        let grid = SpatialGrid::build(&pts, 0.25);
        for &(qx, qy, r) in &[
            (0.5, 0.5, 0.2),
            (0.0, 0.0, 0.15),
            (0.95, 0.5, 0.3),
            (0.5, 0.5, 5.0),
        ] {
            let q = Point::new(qx, qy);
            let got = grid.within(&pts, q, r);
            let expect: Vec<usize> = (0..pts.len())
                .filter(|&i| pts[i].distance(q) <= r + 1e-9)
                .collect();
            assert_eq!(got, expect, "query ({qx},{qy}) r={r}");
        }
    }

    #[test]
    fn zero_radius_returns_coincident_points() {
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(1.0, 1.0),
        ];
        let grid = SpatialGrid::build(&pts, 0.5);
        assert_eq!(grid.within(&pts, Point::new(1.0, 1.0), 0.0), vec![0, 2]);
    }

    #[test]
    fn relocate_keeps_queries_correct() {
        let mut pts = cloud();
        let mut grid = SpatialGrid::build(&pts, 0.25);
        // Move point 0 far away.
        let old = pts[0];
        pts[0] = Point::new(5.0, 5.0);
        grid.relocate(0, old, pts[0]);
        assert!(!grid.within(&pts, Point::new(0.0, 0.0), 0.2).contains(&0));
        assert_eq!(grid.within(&pts, Point::new(5.0, 5.0), 0.1), vec![0]);
        // Move within the same cell: no structural change needed.
        let old = pts[50];
        let new = Point::new(old.x + 1e-6, old.y);
        pts[50] = new;
        grid.relocate(50, old, new);
        assert!(grid.within(&pts, new, 0.01).contains(&50));
    }

    #[test]
    fn insert_extends_queries() {
        let mut pts = cloud();
        let mut grid = SpatialGrid::build(&pts, 0.25);
        pts.push(Point::new(0.55, 0.55));
        grid.insert(pts.len() - 1, pts[pts.len() - 1]);
        assert!(grid
            .within(&pts, Point::new(0.55, 0.55), 0.01)
            .contains(&(pts.len() - 1)));
    }

    #[test]
    fn within_into_reuses_buffer() {
        let pts = cloud();
        let grid = SpatialGrid::build(&pts, 0.25);
        let mut buf = vec![999usize; 4]; // stale content must be cleared
        grid.within_into(&pts, Point::new(0.5, 0.5), 0.15, &mut buf);
        assert_eq!(buf, grid.within(&pts, Point::new(0.5, 0.5), 0.15));
    }

    #[test]
    fn apply_moves_matches_individual_relocates() {
        let mut pts = cloud();
        let mut batch = SpatialGrid::build(&pts, 0.25);
        let mut single = SpatialGrid::build(&pts, 0.25);
        let moves = [
            (3usize, pts[3], Point::new(0.91, 0.13)),
            (50, pts[50], Point::new(0.05, 0.95)),
            (99, pts[99], Point::new(0.5, 0.5)),
        ];
        for &(i, _, new) in &moves {
            pts[i] = new;
        }
        batch.apply_moves(moves.iter().copied());
        for &(i, old, new) in &moves {
            single.relocate(i, old, new);
        }
        for &(qx, qy, r) in &[(0.5, 0.5, 0.3), (0.9, 0.1, 0.2), (0.0, 1.0, 0.4)] {
            let q = Point::new(qx, qy);
            assert_eq!(
                batch.within(&pts, q, r),
                single.within(&pts, q, r),
                "query ({qx},{qy}) r={r}"
            );
        }
    }

    #[test]
    fn negative_coordinates_work() {
        let pts = vec![Point::new(-1.0, -1.0), Point::new(-0.9, -1.0)];
        let grid = SpatialGrid::build(&pts, 0.3);
        assert_eq!(grid.within(&pts, Point::new(-1.0, -1.0), 0.15), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_size_panics() {
        let _ = SpatialGrid::build(&[], 0.0);
    }
}
