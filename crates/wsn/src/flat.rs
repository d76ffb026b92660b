//! Flat dense spatial grid — the network's spatial index.
//!
//! Every LAACAD round issues `N` radius queries (one expanding-ring
//! search per node). [`FlatGrid`] stores the points as one row-major
//! cell array over the point cloud's bounding box: CSR-style
//! `starts`/`entries` arrays built by a counting sort, a per-cell
//! occupancy prefix so point relocation is an O(1) swap-remove +
//! append, and per-point back pointers (`cell_of`/`slot_of`) so
//! `apply_moves` touches only the movers' source and destination cells.
//! A radius query walks contiguous row runs of the cell array — no
//! hashing, no per-bucket allocation.
//!
//! The array only stays small while the bounding box is dense in
//! points: a handful of far-flung outliers would inflate it without
//! bound. [`FlatGrid::build`] therefore doubles its cell size until the
//! box needs at most a small multiple of N cells. A query tests every
//! candidate's distance, so results are exact at any cell size; a
//! coarser cell only scans more candidates. Mutations that escape the
//! current box or overflow a cell's slack report failure instead of
//! degrading, and the owner (who holds the positions) rebuilds in O(N).

use laacad_geom::Point;

/// Spare slots reserved per cell at build time, so points can migrate
/// into a cell a few times before the grid asks for a rebuild.
const CELL_SLACK: u32 = 4;

/// A build coarsens its cell until the bounding box needs at most
/// `DENSITY_LIMIT · N + DENSITY_SLACK` cells, so a sparse point cloud
/// cannot inflate the dense array.
const DENSITY_LIMIT: u128 = 2;
const DENSITY_SLACK: u128 = 64;

/// A dense row-major grid over points with a fixed cell size.
///
/// Indexes points by their position in an external slice; point `p`
/// lives in cell `floor(p / cell)` per axis.
#[derive(Debug, Clone)]
pub struct FlatGrid {
    cell: f64,
    /// Grid coordinates of the lower-left cell.
    gx0: i64,
    gy0: i64,
    cols: usize,
    rows: usize,
    /// Block boundaries per cell (`ncells + 1` entries): cell `c` owns
    /// `entries[starts[c] .. starts[c + 1]]`, of which the first
    /// `lens[c]` slots are occupied.
    starts: Vec<u32>,
    lens: Vec<u32>,
    entries: Vec<u32>,
    /// Back pointers per point: linear cell index and absolute slot in
    /// `entries` — what makes removal O(1).
    cell_of: Vec<u32>,
    slot_of: Vec<u32>,
}

impl FlatGrid {
    /// Builds a dense grid over `points` (indexed by position in the
    /// slice) with the given cell size — doubled as often as it takes
    /// for the bounding box to need at most `DENSITY_LIMIT · N +
    /// DENSITY_SLACK` cells. A dense cloud keeps the requested size.
    ///
    /// # Panics
    ///
    /// Panics when `cell` is not strictly positive and finite, or when
    /// the index would overflow `u32`.
    pub fn build(points: &[Point], cell: f64) -> Self {
        assert!(cell.is_finite() && cell > 0.0, "cell size must be positive");
        let n = points.len();
        if n == 0 {
            return FlatGrid {
                cell,
                gx0: 0,
                gy0: 0,
                cols: 0,
                rows: 0,
                starts: vec![0],
                lens: Vec::new(),
                entries: Vec::new(),
                cell_of: Vec::new(),
                slot_of: Vec::new(),
            };
        }
        // Entry count is at most `n + CELL_SLACK · ncells ≤ 9n + 256`;
        // keep it comfortably inside `u32`.
        assert!(
            n <= u32::MAX as usize / 16,
            "too many points for a u32 index"
        );
        // Terminates: once the cell overflows to infinity every key is
        // `(0, 0)` (NaN keys included), a single cell.
        let mut cell = cell;
        let ((gx0, gy0), cols, rows) = loop {
            let (origin, cols, rows) = key_box(points, cell);
            if cols
                .checked_mul(rows)
                .is_some_and(|c| c <= DENSITY_LIMIT * n as u128 + DENSITY_SLACK)
            {
                break (origin, cols, rows);
            }
            cell *= 2.0;
        };
        let (cols, rows) = (cols as usize, rows as usize);
        let ncells = cols * rows;
        let mut grid = FlatGrid {
            cell,
            gx0,
            gy0,
            cols,
            rows,
            starts: vec![0u32; ncells + 1],
            lens: vec![0u32; ncells],
            entries: Vec::new(),
            cell_of: vec![0u32; n],
            slot_of: vec![0u32; n],
        };
        // Counting sort: count per cell, prefix-sum block starts (each
        // block gets `CELL_SLACK` spare slots), then place the points.
        for &p in points {
            let c = grid.cell_index(key(p, cell)).expect("point inside bbox");
            grid.starts[c + 1] += 1;
        }
        let mut total = 0u32;
        for c in 0..ncells {
            let count = grid.starts[c + 1];
            grid.starts[c] = total;
            total += count + CELL_SLACK;
        }
        grid.starts[ncells] = total;
        grid.entries = vec![0u32; total as usize];
        for (i, &p) in points.iter().enumerate() {
            let c = grid.cell_index(key(p, cell)).expect("point inside bbox");
            let slot = grid.starts[c] + grid.lens[c];
            grid.entries[slot as usize] = i as u32;
            grid.cell_of[i] = c as u32;
            grid.slot_of[i] = slot;
            grid.lens[c] += 1;
        }
        grid
    }

    /// Linear cell index of a grid key, or `None` when the key falls
    /// outside the built bounding box.
    #[inline]
    fn cell_index(&self, (gx, gy): (i64, i64)) -> Option<usize> {
        if gx < self.gx0 || gy < self.gy0 {
            return None;
        }
        let (cx, cy) = ((gx - self.gx0) as usize, (gy - self.gy0) as usize);
        if cx >= self.cols || cy >= self.rows {
            return None;
        }
        Some(cy * self.cols + cx)
    }

    /// Indices of all points within Euclidean distance `radius` of `q`
    /// (inclusive), ascending, appended into a caller-owned buffer
    /// (cleared first) — the form every per-round hot query uses.
    pub fn within_into(&self, points: &[Point], q: Point, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        let r = radius.max(0.0);
        let r_sq = r * r + 1e-12;
        let (lo, hi) = self.clamped_range(q, r);
        let Some(((cx0, cx1), (cy0, cy1))) = range_cells(lo, hi) else {
            return;
        };
        for cy in cy0..=cy1 {
            let row = cy * self.cols;
            for c in (row + cx0)..=(row + cx1) {
                let start = self.starts[c] as usize;
                for &e in &self.entries[start..start + self.lens[c] as usize] {
                    let i = e as usize;
                    if points[i].distance_sq(q) <= r_sq {
                        out.push(i);
                    }
                }
            }
        }
        out.sort_unstable();
    }

    /// The query's key range intersected with the grid extent, as
    /// zero-based cell coordinates (`x0 > x1` encodes an empty range).
    #[inline]
    fn clamped_range(&self, q: Point, r: f64) -> ((i64, i64), (i64, i64)) {
        let lo = key(q - laacad_geom::Vector::new(r, r), self.cell);
        let hi = key(q + laacad_geom::Vector::new(r, r), self.cell);
        let x0 = (lo.0.max(self.gx0) - self.gx0).max(0);
        let y0 = (lo.1.max(self.gy0) - self.gy0).max(0);
        let x1 = (hi.0 - self.gx0).min(self.cols as i64 - 1);
        let y1 = (hi.1 - self.gy0).min(self.rows as i64 - 1);
        ((x0, x1), (y0, y1))
    }

    /// Adds point `i` located at `p`. Returns `false` — leaving the
    /// index unusable until rebuilt — when `p` falls outside the built
    /// bounding box or its cell's slack is exhausted.
    #[must_use]
    pub fn insert(&mut self, i: usize, p: Point) -> bool {
        let Some(c) = self.cell_index(key(p, self.cell)) else {
            return false;
        };
        if self.cell_of.len() <= i {
            self.cell_of.resize(i + 1, 0);
            self.slot_of.resize(i + 1, 0);
        }
        self.place(i, c)
    }

    /// Appends `i` into cell `c`'s block, failing when the block is full.
    #[inline]
    fn place(&mut self, i: usize, c: usize) -> bool {
        let slot = self.starts[c] + self.lens[c];
        if slot == self.starts[c + 1] {
            return false;
        }
        self.entries[slot as usize] = i as u32;
        self.cell_of[i] = c as u32;
        self.slot_of[i] = slot;
        self.lens[c] += 1;
        true
    }

    /// Moves point `i` from `old` to `new`. Returns `false` — leaving
    /// the index unusable until rebuilt — when the destination escapes
    /// the bounding box or overflows its cell.
    #[must_use]
    pub fn relocate(&mut self, i: usize, old: Point, new: Point) -> bool {
        let ko = key(old, self.cell);
        let kn = key(new, self.cell);
        if ko == kn {
            return true;
        }
        let Some(dest) = self.cell_index(kn) else {
            return false;
        };
        // O(1) swap-remove from the source cell's occupied prefix. The
        // in-cell order this perturbs is never observable: every query
        // either sorts its output or returns a distance.
        let c = self.cell_of[i] as usize;
        let s = self.slot_of[i];
        self.lens[c] -= 1;
        let last = self.starts[c] + self.lens[c];
        let moved = self.entries[last as usize];
        self.entries[s as usize] = moved;
        self.slot_of[moved as usize] = s;
        self.place(i, dest)
    }

    /// Applies a batch of moves `(index, old, new)`. The iterator is
    /// always drained in full (callers thread position updates through
    /// it as side effects); on the first failed relocation the index
    /// stops updating and `false` is returned — the caller must rebuild.
    #[must_use]
    pub fn apply_moves(&mut self, moves: impl IntoIterator<Item = (usize, Point, Point)>) -> bool {
        let mut ok = true;
        for (i, old, new) in moves {
            if ok {
                ok = self.relocate(i, old, new);
            }
        }
        ok
    }

    /// The cell size in force (the requested one, unless the build had
    /// to coarsen it).
    pub fn cell_size(&self) -> f64 {
        self.cell
    }
}

/// Grid key of a point.
#[inline]
fn key(p: Point, cell: f64) -> (i64, i64) {
    ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
}

/// The key bounding box of `points` (non-empty) at the given cell size:
/// its lower-left key and its column and row counts. Spans are computed
/// in wide integers: a small cell next to spread-out points could
/// overflow `i64` spans.
fn key_box(points: &[Point], cell: f64) -> ((i64, i64), u128, u128) {
    let (mut gx0, mut gy0) = (i64::MAX, i64::MAX);
    let (mut gx1, mut gy1) = (i64::MIN, i64::MIN);
    for &p in points {
        let (gx, gy) = key(p, cell);
        gx0 = gx0.min(gx);
        gy0 = gy0.min(gy);
        gx1 = gx1.max(gx);
        gy1 = gy1.max(gy);
    }
    let cols = (gx1 as i128 - gx0 as i128 + 1) as u128;
    let rows = (gy1 as i128 - gy0 as i128 + 1) as u128;
    ((gx0, gy0), cols, rows)
}

/// Converts a clamped key range into inclusive `usize` cell coordinate
/// ranges, or `None` when the query box misses the grid entirely.
#[inline]
#[allow(clippy::type_complexity)]
fn range_cells(
    (x0, x1): (i64, i64),
    (y0, y1): (i64, i64),
) -> Option<((usize, usize), (usize, usize))> {
    if x0 > x1 || y0 > y1 {
        return None;
    }
    Some(((x0 as usize, x1 as usize), (y0 as usize, y1 as usize)))
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

    fn within(grid: &FlatGrid, pts: &[Point], q: Point, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        grid.within_into(pts, q, r, &mut out);
        out
    }

    fn brute(pts: &[Point], q: Point, r: f64) -> Vec<usize> {
        (0..pts.len())
            .filter(|&i| pts[i].distance(q) <= r + 1e-9)
            .collect()
    }

    const QUERIES: &[(f64, f64, f64)] = &[
        (0.5, 0.5, 0.2),
        (0.0, 0.0, 0.15),
        (0.95, 0.5, 0.3),
        (0.5, 0.5, 5.0),
        (-2.0, -2.0, 0.5),
        (2.0, 2.0, 3.0),
    ];

    #[test]
    fn within_matches_brute_force() {
        let pts = cloud();
        let grid = FlatGrid::build(&pts, 0.25);
        assert_eq!(grid.cell_size(), 0.25, "a dense cloud keeps its cell");
        for &(qx, qy, r) in QUERIES {
            let q = Point::new(qx, qy);
            assert_eq!(
                within(&grid, &pts, q, r),
                brute(&pts, q, r),
                "query ({qx},{qy}) r={r}"
            );
        }
        let mut buf = vec![999usize; 4]; // stale content must be cleared
        grid.within_into(&pts, Point::new(0.5, 0.5), 0.15, &mut buf);
        assert_eq!(buf, brute(&pts, Point::new(0.5, 0.5), 0.15));
    }

    #[test]
    fn zero_radius_returns_coincident_points() {
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(1.0, 1.0),
        ];
        let grid = FlatGrid::build(&pts, 0.5);
        assert_eq!(within(&grid, &pts, Point::new(1.0, 1.0), 0.0), vec![0, 2]);
    }

    #[test]
    fn relocate_keeps_queries_correct() {
        let mut pts = cloud();
        let mut grid = FlatGrid::build(&pts, 0.25);
        // In-box move.
        let old = pts[7];
        pts[7] = Point::new(0.51, 0.52);
        assert!(grid.relocate(7, old, pts[7]));
        assert!(within(&grid, &pts, Point::new(0.5, 0.5), 0.05).contains(&7));
        assert!(!within(&grid, &pts, old, 0.05).contains(&7));
        // Same-cell move: no structural change needed.
        let old = pts[50];
        let new = Point::new(old.x + 1e-6, old.y);
        pts[50] = new;
        assert!(grid.relocate(50, old, new));
        assert!(within(&grid, &pts, new, 0.01).contains(&50));
        // Out-of-box move reports a needed rebuild.
        let old = pts[3];
        assert!(!grid.relocate(3, old, Point::new(9.0, 9.0)));
    }

    #[test]
    fn insert_extends_queries_and_reports_overflow() {
        let mut pts = cloud();
        let mut grid = FlatGrid::build(&pts, 0.25);
        pts.push(Point::new(0.55, 0.55));
        assert!(grid.insert(pts.len() - 1, pts[pts.len() - 1]));
        assert!(within(&grid, &pts, Point::new(0.55, 0.55), 0.01).contains(&(pts.len() - 1)));
        // Outside the bounding box: rebuild required.
        assert!(!grid.insert(pts.len(), Point::new(5.0, 5.0)));
        // A cell accepts at most `CELL_SLACK` net arrivals before
        // demanding a rebuild.
        let mut grid = FlatGrid::build(&pts, 0.25);
        let mut accepted = 0;
        for extra in 0..=CELL_SLACK as usize {
            if grid.insert(pts.len() + extra, Point::new(0.3, 0.3)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, CELL_SLACK);
    }

    #[test]
    fn sparse_cloud_coarsens_its_cell_and_stays_exact() {
        let mut pts = cloud();
        pts.push(Point::new(1000.0, 1000.0));
        pts.push(Point::new(-3.0, 250.0));
        let grid = FlatGrid::build(&pts, 0.1);
        let limit = DENSITY_LIMIT as usize * pts.len() + DENSITY_SLACK as usize;
        assert!(grid.cell_size() > 0.1);
        assert!(grid.cols * grid.rows <= limit);
        // One doubling fewer would not have fit.
        let (_, cols, rows) = key_box(&pts, grid.cell_size() / 2.0);
        assert!(cols * rows > limit as u128);
        for &(qx, qy, r) in QUERIES
            .iter()
            .chain(&[(1000.0, 1000.0, 0.5), (0.0, 0.0, 1e4)])
        {
            let q = Point::new(qx, qy);
            assert_eq!(within(&grid, &pts, q, r), brute(&pts, q, r));
        }
    }

    #[test]
    fn extreme_coordinates_still_build() {
        for far in [1e300, f64::MAX, f64::INFINITY, f64::NAN] {
            let pts = vec![Point::new(0.0, 0.0), Point::new(0.1, far)];
            let grid = FlatGrid::build(&pts, 0.1);
            assert!(grid.cols * grid.rows <= 2 * pts.len() + 64, "far = {far}");
            assert!(within(&grid, &pts, Point::ORIGIN, 0.05).contains(&0));
        }
    }

    #[test]
    fn negative_coordinates_work() {
        let pts = vec![Point::new(-1.0, -1.0), Point::new(-0.9, -1.0)];
        let grid = FlatGrid::build(&pts, 0.3);
        assert_eq!(
            within(&grid, &pts, Point::new(-1.0, -1.0), 0.15),
            vec![0, 1]
        );
    }

    #[test]
    fn empty_grid_answers_and_grows_via_rebuild_path() {
        let grid = FlatGrid::build(&[], 0.5);
        let mut out = vec![1usize];
        grid.within_into(&[], Point::ORIGIN, 10.0, &mut out);
        assert!(out.is_empty());
        let mut grid = grid;
        assert!(!grid.insert(0, Point::ORIGIN), "empty box has no cells");
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_size_panics() {
        let _ = FlatGrid::build(&[], 0.0);
    }
}
