//! One-hop adjacency snapshot in CSR form.
//!
//! A synchronous LAACAD round runs `N` multi-hop BFS searches against
//! the *same* position snapshot; each search visits every ring node and
//! asks for its one-hop neighbors. Answering those from the spatial grid
//! costs cell scans, distance checks and a sort per visit — building
//! the whole adjacency once per round (one grid query per node) and
//! reading slices afterwards is strictly cheaper and trivially
//! shareable across worker threads.
//!
//! Rows are exactly [`Network::one_hop_neighbors`] (ascending ids, node
//! itself excluded), so a BFS over the snapshot is bit-identical to one
//! over live grid queries.
//!
//! Partially-active rounds need not rebuild: [`Adjacency::apply_moves`]
//! patches the snapshot from the round's movement delta, re-querying
//! only the rows a mover could have touched and copying every other row
//! verbatim — bit-identical to a full [`Adjacency::rebuild`]. It also
//! reports which rows actually changed, the seed set of the round
//! engine's hop-distance dirty classifier.

use crate::network::Network;
use crate::node::NodeId;
use laacad_geom::Point;

/// Compressed sparse rows of the one-hop communication graph.
#[derive(Debug, Clone, Default)]
pub struct Adjacency {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    /// Per-node query scratch reused across rebuilds.
    row: Vec<usize>,
    /// Double-buffer spares for [`Adjacency::apply_moves`].
    spare_offsets: Vec<u32>,
    spare_neighbors: Vec<u32>,
    /// Epoch-stamped affected-row marks (no `O(N)` clear per update).
    stamp: Vec<u64>,
    epoch: u64,
    /// Rows whose neighbor list the last [`Adjacency::apply_moves`]
    /// changed, ascending.
    changed: Vec<u32>,
}

impl Adjacency {
    /// Builds the adjacency of `net`'s current positions.
    pub fn build(net: &Network) -> Self {
        let mut adj = Adjacency::default();
        adj.rebuild(net);
        adj
    }

    /// Rebuilds in place, reusing the row storage (the round engine
    /// refreshes one instance every round).
    pub fn rebuild(&mut self, net: &Network) {
        self.changed.clear();
        self.offsets.clear();
        self.neighbors.clear();
        self.offsets.push(0);
        let mut row = std::mem::take(&mut self.row);
        for i in 0..net.len() {
            net.one_hop_neighbors_into(NodeId(i), &mut row);
            self.neighbors.extend(row.iter().map(|&j| j as u32));
            self.offsets.push(self.neighbors.len() as u32);
        }
        self.row = row;
    }

    /// Patches the snapshot for a batch of moves `(index, old, new)` —
    /// the move-delta update path of partially-active rounds. `net` must
    /// hold the post-move positions and the same population the snapshot
    /// was built for.
    ///
    /// A row can only change when its node moved or when a mover's old
    /// or new position lies within one hop of it, so exactly those rows
    /// are re-queried; every other row is copied verbatim from the
    /// previous snapshot. The result is bit-identical to a full
    /// [`Adjacency::rebuild`] at the same positions. Returns the number
    /// of rows re-queried. The rows whose neighbor list actually changed
    /// are recorded for [`Adjacency::changed_rows`] — a mover whose links
    /// all survived its move leaves its own row (and every other)
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics (debug) when the snapshot's population differs from
    /// `net`'s — incremental updates cannot span insertions or removals.
    pub fn apply_moves(
        &mut self,
        net: &Network,
        moves: impl IntoIterator<Item = (usize, Point, Point)>,
    ) -> usize {
        let n = net.len();
        debug_assert_eq!(
            self.len(),
            n,
            "incremental adjacency update across a population change"
        );
        let gamma = net.gamma();
        self.epoch += 1;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        let mut row = std::mem::take(&mut self.row);
        for (i, from, to) in moves {
            self.stamp[i] = self.epoch;
            // The affected-row queries use the same spatial predicate as
            // the one-hop rows themselves, so they find exactly the
            // nodes whose row could have listed the mover (old position)
            // or must list it now (new position).
            for q in [from, to] {
                net.nodes_within_into(q, gamma, &mut row);
                for &j in &row {
                    self.stamp[j] = self.epoch;
                }
            }
        }
        let mut offsets = std::mem::take(&mut self.spare_offsets);
        let mut neighbors = std::mem::take(&mut self.spare_neighbors);
        offsets.clear();
        neighbors.clear();
        offsets.push(0);
        self.changed.clear();
        let mut requeried = 0;
        for i in 0..n {
            if self.stamp[i] == self.epoch {
                requeried += 1;
                net.one_hop_neighbors_into(NodeId(i), &mut row);
                let start = neighbors.len();
                neighbors.extend(row.iter().map(|&j| j as u32));
                if neighbors[start..] != *self.neighbors(i) {
                    self.changed.push(i as u32);
                }
            } else {
                neighbors.extend_from_slice(
                    &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize],
                );
            }
            offsets.push(neighbors.len() as u32);
        }
        self.spare_offsets = std::mem::replace(&mut self.offsets, offsets);
        self.spare_neighbors = std::mem::replace(&mut self.neighbors, neighbors);
        self.row = row;
        requeried
    }

    /// The rows the last [`Adjacency::apply_moves`] changed, ascending
    /// (empty after a [`Adjacency::rebuild`]).
    pub fn changed_rows(&self) -> &[u32] {
        &self.changed
    }

    /// Number of nodes the snapshot covers.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the snapshot covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-hop neighbors of node `i`, ascending, `i` excluded.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The raw CSR arrays `(offsets, neighbors)` — snapshot serialization.
    /// Empty offsets means an empty (never-built) snapshot.
    pub fn csr(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.neighbors)
    }

    /// Reconstructs a snapshot from serialized CSR arrays. The rebuild
    /// scratch, double-buffer spares, and epoch stamps are transient
    /// (resized on demand, never read before being written), so only the
    /// CSR itself round-trips.
    ///
    /// # Panics
    ///
    /// Panics when the CSR is malformed (offsets not starting at 0, not
    /// monotone, or not ending at `neighbors.len()`), unless both vectors
    /// are empty (the never-built state).
    pub fn from_csr(offsets: Vec<u32>, neighbors: Vec<u32>) -> Self {
        if !offsets.is_empty() {
            assert_eq!(offsets[0], 0, "CSR offsets must start at 0");
            assert!(
                offsets.windows(2).all(|w| w[0] <= w[1]),
                "CSR offsets must be monotone"
            );
            assert_eq!(
                *offsets.last().unwrap() as usize,
                neighbors.len(),
                "CSR offsets must end at neighbors.len()"
            );
        } else {
            assert!(neighbors.is_empty(), "neighbors without offsets");
        }
        Adjacency {
            offsets,
            neighbors,
            ..Adjacency::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_geom::Point;

    #[test]
    fn rows_match_live_queries() {
        let net = Network::from_positions(
            0.25,
            (0..25).map(|i| Point::new((i % 5) as f64 * 0.2, (i / 5) as f64 * 0.2)),
        );
        let adj = Adjacency::build(&net);
        assert_eq!(adj.len(), 25);
        for i in 0..net.len() {
            let live: Vec<u32> = net
                .one_hop_neighbors(NodeId(i))
                .into_iter()
                .map(|n| n.index() as u32)
                .collect();
            assert_eq!(adj.neighbors(i), live.as_slice(), "node {i}");
        }
    }

    #[test]
    fn rebuild_reflects_movement() {
        let mut net = Network::from_positions(0.15, [Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
        let mut adj = Adjacency::build(&net);
        assert!(adj.neighbors(0).is_empty());
        net.move_node(NodeId(1), Point::new(0.1, 0.0));
        adj.rebuild(&net);
        assert_eq!(adj.neighbors(0), &[1]);
        assert_eq!(adj.neighbors(1), &[0]);
    }

    #[test]
    fn empty_network() {
        let adj = Adjacency::build(&Network::new(0.1));
        assert!(adj.is_empty());
    }

    #[test]
    fn apply_moves_matches_full_rebuild() {
        // A 7×7 grid; move a few nodes (short nudges and a long jump),
        // patch incrementally, and compare every row with a from-scratch
        // rebuild at the same positions.
        let mut net = Network::from_positions(
            0.22,
            (0..49).map(|i| Point::new((i % 7) as f64 * 0.15, (i / 7) as f64 * 0.15)),
        );
        let mut adj = Adjacency::build(&net);
        let moves = [
            (8usize, Point::new(0.31, 0.02)), // short nudge
            (24, Point::new(0.9, 0.9)),       // long jump across the grid
            (40, Point::new(0.001, 0.001)),   // into the corner
        ];
        let mut deltas = Vec::new();
        for &(i, target) in &moves {
            let from = net.position(NodeId(i));
            net.move_node(NodeId(i), target);
            deltas.push((i, from, target));
        }
        let before = adj.clone();
        let requeried = adj.apply_moves(&net, deltas.iter().copied());
        assert!(requeried >= moves.len(), "movers themselves re-query");
        assert!(
            requeried < net.len(),
            "far rows must be copied, not re-queried"
        );
        let changed = adj.changed_rows().to_vec();
        let fresh = Adjacency::build(&net);
        for i in 0..net.len() {
            assert_eq!(adj.neighbors(i), fresh.neighbors(i), "row {i}");
        }
        // Exactly the rows that differ from the previous snapshot are
        // reported — far rows stay unchanged, the movers' rows do not.
        let differ: Vec<u32> = (0..net.len())
            .filter(|&i| before.neighbors(i) != adj.neighbors(i))
            .map(|i| i as u32)
            .collect();
        assert_eq!(changed, differ);
        assert!(changed.contains(&24) && changed.contains(&40));
        assert!(changed.len() < net.len(), "far rows must not change");
        // A second batch over the patched snapshot stays exact.
        let from = net.position(NodeId(24));
        net.move_node(NodeId(24), Point::new(0.45, 0.47));
        adj.apply_moves(&net, [(24, from, Point::new(0.45, 0.47))]);
        assert!(adj.changed_rows().contains(&24));
        let fresh = Adjacency::build(&net);
        for i in 0..net.len() {
            assert_eq!(
                adj.neighbors(i),
                fresh.neighbors(i),
                "row {i} after second batch"
            );
        }
        // A nudge that keeps every link reports no changed row, not even
        // the mover's own.
        let from = net.position(NodeId(24));
        let nudged = Point::new(from.x + 1e-9, from.y);
        net.move_node(NodeId(24), nudged);
        adj.apply_moves(&net, [(24, from, nudged)]);
        assert!(adj.changed_rows().is_empty());
        adj.rebuild(&net);
        assert!(adj.changed_rows().is_empty());
    }
}
