//! Multi-hop ring neighborhoods `N(n_i, ρ)` (Algorithm 2).
//!
//! The paper gathers the nodes within Euclidean radius `ρ` of `n_i` via
//! multi-hop communication; since hop counts are integral, `ρ` grows in
//! transmission-range (`γ`) increments. A node inside the Euclidean ring
//! but unreachable in `⌈ρ/γ⌉` hops cannot report its position, so the
//! neighborhood is the *intersection* of the Euclidean disk with the
//! h-hop BFS ball — which this module computes, with message accounting.
//!
//! Two forms are provided:
//!
//! * [`ring_neighborhood`] / [`ring_neighborhood_with_slack`] — one-shot
//!   queries that run a fresh BFS (the reference semantics);
//! * [`RingQuery`] over a reusable [`RingScratch`] — an **incremental**
//!   query for the expanding-ring search: each `ρ += γ` expansion resumes
//!   the BFS frontier where the previous one stopped instead of
//!   restarting from the center, while reporting byte-identical members
//!   and [`MessageStats`] to a fresh query at the same `(ρ, hops)`.

use crate::adjacency::Adjacency;
use crate::network::Network;
use crate::node::NodeId;
use crate::radio::MessageStats;
use laacad_geom::Point;
use std::collections::VecDeque;

/// The result of a ring query: members (center excluded), the hop budget
/// used, and messages spent collecting it.
#[derive(Debug, Clone)]
pub struct RingNeighborhood {
    /// Nodes within Euclidean `ρ` and `⌈ρ/γ⌉` hops, excluding the center.
    pub members: Vec<NodeId>,
    /// Hop budget `⌈ρ/γ⌉` used by the query.
    pub hops: usize,
    /// Messages expended (one broadcast per contacted node, one unicast
    /// reply per member relayed back over its hop distance).
    pub messages: MessageStats,
}

/// Collects `N(n_i, ρ)`: nodes within Euclidean distance `rho` of the
/// center **and** reachable within `⌈ρ/γ⌉` hops.
///
/// # Example
///
/// ```
/// use laacad_geom::Point;
/// use laacad_wsn::{multihop::ring_neighborhood, Network, NodeId};
/// let net = Network::from_positions(
///     0.12,
///     (0..5).map(|i| Point::new(i as f64 * 0.1, 0.0)),
/// );
/// let ring = ring_neighborhood(&net, NodeId(0), 0.25);
/// // Nodes at 0.1 and 0.2 are inside the ring and within 3 hops.
/// assert_eq!(ring.members, vec![NodeId(1), NodeId(2)]);
/// ```
pub fn ring_neighborhood(net: &Network, center: NodeId, rho: f64) -> RingNeighborhood {
    ring_neighborhood_with_slack(net, center, rho, DEFAULT_HOP_SLACK)
}

/// The default hop-slack budget of [`ring_neighborhood`] (see
/// [`ring_neighborhood_with_slack`] for why it exists).
pub const DEFAULT_HOP_SLACK: usize = 2;

/// Converts a Euclidean ring radius into the hop budget of the query —
/// `⌈ρ/γ⌉ + slack` (at least `1 + slack`).
pub fn hop_budget(rho: f64, gamma: f64, hop_slack: usize) -> usize {
    (rho / gamma).ceil().max(1.0) as usize + hop_slack
}

/// [`ring_neighborhood`] with an explicit hop-slack budget.
///
/// The paper's `N(n_i, ρ)` is defined purely by Euclidean distance; a
/// multi-hop query needs `⌈ρ/γ⌉` hops along a straight path, but sparse
/// graphs route around gaps, so real queries grant extra hops. Two hops
/// of slack (the default above) make the collected set match the
/// Euclidean definition in all but pathologically stretched topologies —
/// Lemma 1's exactness depends on this set being complete.
pub fn ring_neighborhood_with_slack(
    net: &Network,
    center: NodeId,
    rho: f64,
    hop_slack: usize,
) -> RingNeighborhood {
    let gamma = net.gamma();
    let hops = hop_budget(rho, gamma, hop_slack);
    let origin = net.position(center);
    let n = net.len();
    let mut dist = vec![usize::MAX; n];
    dist[center.index()] = 0;
    let mut queue = VecDeque::from([center]);
    let mut contacted = 0u64;
    let mut members = Vec::new();
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        if du >= hops {
            continue;
        }
        contacted += 1; // u broadcasts the query onward
        for v in net.one_hop_neighbors(u) {
            if dist[v.index()] == usize::MAX {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    let mut replies = 0u64;
    // Squared-distance ring filter; `RingQuery::collect` applies the
    // byte-identical expression so incremental and fresh queries agree.
    let limit = rho + 1e-12;
    let limit_sq = limit * limit;
    for (i, &di) in dist.iter().enumerate() {
        if i != center.index()
            && di != usize::MAX
            && di <= hops
            && net.position(NodeId(i)).distance_sq(origin) <= limit_sq
        {
            members.push(NodeId(i));
            replies += di as u64; // reply relayed over its hop path
        }
    }
    RingNeighborhood {
        members,
        hops,
        messages: MessageStats {
            unicast: replies,
            broadcast: contacted,
        },
    }
}

/// Reusable buffers for [`RingQuery`]: an epoch-stamped BFS
/// visited/distance array (no `O(N)` clear between searches), the
/// frontier queue, a neighbor scratch and the member bookkeeping.
///
/// One scratch serves any number of consecutive searches over networks
/// of any size; the worker threads of the synchronous round engine each
/// own one.
#[derive(Debug, Clone, Default)]
pub struct RingScratch {
    epoch: u64,
    stamp: Vec<u64>,
    dist: Vec<u32>,
    frontier: VecDeque<usize>,
    neighbors: Vec<usize>,
    level_counts: Vec<u64>,
    members: Vec<usize>,
    pending: Vec<usize>,
}

impl RingScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Members of the most recent search (ascending ids, center
    /// excluded). Valid until the next [`RingQuery::begin`] on this
    /// scratch — lets callers consume the member set without
    /// materializing an owned vector.
    pub fn last_members(&self) -> &[usize] {
        &self.members
    }

    /// Pre-sizes the BFS arrays for searches over `n` nodes, so the
    /// first search of a round does not grow them mid-flight (the round
    /// engine's arena pre-sizing calls this once per worker from `N`).
    pub fn reserve(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
    }

    /// Starts a new search: bumps the epoch and sizes the arrays to `n`.
    fn reset(&mut self, n: usize) {
        self.epoch += 1;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
        self.frontier.clear();
        self.level_counts.clear();
        self.members.clear();
        self.pending.clear();
    }

    #[inline]
    fn visited(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    #[inline]
    fn visit(&mut self, i: usize, d: u32) {
        self.stamp[i] = self.epoch;
        self.dist[i] = d;
        if self.level_counts.len() <= d as usize {
            self.level_counts.resize(d as usize + 1, 0);
        }
        self.level_counts[d as usize] += 1;
    }
}

/// One step of an incremental ring query (see [`RingQuery::collect`]).
#[derive(Debug, Clone, Copy)]
pub struct RingStep {
    /// Members gained by this expansion (the set is monotone, so zero new
    /// members means the neighborhood is unchanged).
    pub new_members: usize,
    /// Messages a fresh [`ring_neighborhood_with_slack`] query at the
    /// same `(ρ, hops)` would have spent — the paper's accounting, where
    /// every expansion re-floods the ring.
    pub messages: MessageStats,
}

/// An in-progress incremental ring search around one node.
///
/// Created by [`RingQuery::begin`]; each [`RingQuery::collect`] call
/// expands to a larger `(ρ, hops)` and returns the step accounting. The
/// member set, farthest-member distance and message totals it reports
/// are **identical** to running a fresh BFS per expansion — only the
/// work is incremental: the BFS frontier resumes where it stopped, and
/// the visited array is epoch-stamped instead of reallocated.
#[derive(Debug)]
pub struct RingQuery<'net, 'scr> {
    net: &'net Network,
    /// One-hop rows from a shared per-round snapshot, when the caller has
    /// one (synchronous rounds); `None` falls back to live grid queries.
    adjacency: Option<&'net Adjacency>,
    scratch: &'scr mut RingScratch,
    center: usize,
    origin: Point,
    member_reply_sum: u64,
    farthest: f64,
}

impl<'net, 'scr> RingQuery<'net, 'scr> {
    /// Starts a search around `center` using `scratch`'s buffers, with
    /// one-hop neighborhoods answered by live grid queries.
    pub fn begin(net: &'net Network, center: NodeId, scratch: &'scr mut RingScratch) -> Self {
        Self::begin_inner(net, None, center, scratch)
    }

    /// [`RingQuery::begin`] over a prebuilt [`Adjacency`] snapshot (must
    /// describe `net`'s current positions).
    pub fn begin_indexed(
        net: &'net Network,
        adjacency: &'net Adjacency,
        center: NodeId,
        scratch: &'scr mut RingScratch,
    ) -> Self {
        debug_assert_eq!(adjacency.len(), net.len(), "stale adjacency snapshot");
        Self::begin_inner(net, Some(adjacency), center, scratch)
    }

    fn begin_inner(
        net: &'net Network,
        adjacency: Option<&'net Adjacency>,
        center: NodeId,
        scratch: &'scr mut RingScratch,
    ) -> Self {
        scratch.reset(net.len());
        scratch.visit(center.index(), 0);
        scratch.frontier.push_back(center.index());
        RingQuery {
            origin: net.position(center),
            net,
            adjacency,
            scratch,
            center: center.index(),
            member_reply_sum: 0,
            farthest: 0.0,
        }
    }

    /// Expands the search to Euclidean radius `rho` and hop budget
    /// `hops`, both of which must be non-decreasing across calls.
    ///
    /// Returns the accounting a fresh query at `(rho, hops)` would
    /// produce; the member set is monotone across calls.
    pub fn collect(&mut self, rho: f64, hops: usize) -> RingStep {
        // Resume the BFS: explore every node with dist < hops.
        while let Some(&u) = self.scratch.frontier.front() {
            let du = self.scratch.dist[u];
            if du as usize >= hops {
                break; // frontier is sorted by distance; revisit later
            }
            self.scratch.frontier.pop_front();
            match self.adjacency {
                Some(adj) => {
                    for &v in adj.neighbors(u) {
                        let v = v as usize;
                        if !self.scratch.visited(v) {
                            self.scratch.visit(v, du + 1);
                            self.scratch.frontier.push_back(v);
                            if v != self.center {
                                self.scratch.pending.push(v);
                            }
                        }
                    }
                }
                None => {
                    let mut neighbors = std::mem::take(&mut self.scratch.neighbors);
                    self.net.one_hop_neighbors_into(NodeId(u), &mut neighbors);
                    for &v in &neighbors {
                        if !self.scratch.visited(v) {
                            self.scratch.visit(v, du + 1);
                            self.scratch.frontier.push_back(v);
                            if v != self.center {
                                self.scratch.pending.push(v);
                            }
                        }
                    }
                    self.scratch.neighbors = neighbors;
                }
            }
        }
        // Promote pending nodes that now satisfy both filters. Membership
        // thresholds (rho, hops) only grow, so nodes join exactly once.
        // The squared ring filter is the same expression the fresh query
        // uses, so both report identical member sets.
        let limit = rho + 1e-12;
        let limit_sq = limit * limit;
        let mut new_members = 0;
        let mut i = 0;
        while i < self.scratch.pending.len() {
            let v = self.scratch.pending[i];
            let dv = self.scratch.dist[v];
            let in_ring = self.net.position(NodeId(v)).distance_sq(self.origin) <= limit_sq;
            if dv as usize <= hops && in_ring {
                self.scratch.pending.swap_remove(i);
                self.scratch.members.push(v);
                self.member_reply_sum += dv as u64;
                self.farthest = self
                    .farthest
                    .max(self.net.position(NodeId(v)).distance(self.origin));
                new_members += 1;
            } else {
                i += 1;
            }
        }
        if new_members > 0 {
            // Keep members in ascending index order — the order a fresh
            // query reports and the one downstream geometry consumes.
            self.scratch.members.sort_unstable();
        }
        // A fresh query would have every node with dist < hops broadcast
        // and every member reply over its hop path.
        let contacted: u64 = self.scratch.level_counts.iter().take(hops).sum();
        RingStep {
            new_members,
            messages: MessageStats {
                unicast: self.member_reply_sum,
                broadcast: contacted,
            },
        }
    }

    /// Current members (ascending ids, center excluded).
    pub fn members(&self) -> &[usize] {
        &self.scratch.members
    }

    /// Current members as owned [`NodeId`]s.
    pub fn members_to_vec(&self) -> Vec<NodeId> {
        self.scratch.members.iter().map(|&i| NodeId(i)).collect()
    }

    /// Euclidean distance from the center to the farthest member (0 when
    /// the neighborhood is empty).
    pub fn farthest_member_distance(&self) -> f64 {
        self.farthest
    }
}

/// Whether node `other` is inside the ring of `center` — convenience for
/// tests.
pub fn in_ring(net: &Network, center: NodeId, other: NodeId, rho: f64) -> bool {
    net.position(center).distance(net.position(other)) <= rho + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_geom::Point;

    #[test]
    fn euclidean_and_hop_constraints_combine() {
        // A "C" shape: node 3 is Euclidean-close to node 0 but many hops
        // away around the C.
        let net = Network::from_positions(
            0.12,
            [
                Point::new(0.0, 0.0),  // 0
                Point::new(0.1, 0.0),  // 1
                Point::new(0.2, 0.0),  // 2
                Point::new(0.0, 0.05), // 3: close to 0, direct link
            ],
        );
        let ring = ring_neighborhood_with_slack(&net, NodeId(0), 0.12, 0);
        assert_eq!(ring.members, vec![NodeId(1), NodeId(3)]);
        assert_eq!(ring.hops, 1);
    }

    #[test]
    fn disconnected_nodes_never_join() {
        let net = Network::from_positions(
            0.1,
            [
                Point::new(0.0, 0.0),
                Point::new(0.5, 0.0), // inside a ρ=1 ring but > γ away: unreachable
            ],
        );
        let ring = ring_neighborhood(&net, NodeId(0), 1.0);
        assert!(ring.members.is_empty());
    }

    #[test]
    fn hop_limit_truncates_long_chains() {
        // Chain with spacing 0.1, γ = 0.12. ρ = 0.25 ⇒ 3 hops allowed,
        // Euclidean cut at 0.25 keeps nodes 1 and 2 only.
        let net = Network::from_positions(0.12, (0..6).map(|i| Point::new(i as f64 * 0.1, 0.0)));
        let ring = ring_neighborhood_with_slack(&net, NodeId(0), 0.25, 0);
        assert_eq!(ring.members, vec![NodeId(1), NodeId(2)]);
        // Wider ring reaches further down the chain.
        let ring2 = ring_neighborhood_with_slack(&net, NodeId(0), 0.45, 0);
        assert_eq!(
            ring2.members,
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn slack_recovers_euclidean_members_over_detours() {
        // Node 3 is Euclidean-close to node 0 but the only path detours
        // through 1 and 2: strict hop budgets miss it, slack finds it.
        let net = Network::from_positions(
            0.12,
            [
                Point::new(0.0, 0.0),   // 0
                Point::new(0.06, 0.09), // 1 (detour, 1 hop from 0)
                Point::new(0.14, 0.09), // 2 (detour, 2 hops from 0)
                Point::new(0.15, 0.0),  // 3: 0.15 from node 0, 3 hops away
            ],
        );
        let strict = ring_neighborhood_with_slack(&net, NodeId(0), 0.16, 0);
        let slack = ring_neighborhood_with_slack(&net, NodeId(0), 0.16, 2);
        assert!(!strict.members.contains(&NodeId(3)), "{:?}", strict.members);
        assert!(slack.members.contains(&NodeId(3)), "{:?}", slack.members);
    }

    #[test]
    fn message_cost_grows_with_ring() {
        let net = Network::from_positions(0.12, (0..8).map(|i| Point::new(i as f64 * 0.1, 0.0)));
        let small = ring_neighborhood(&net, NodeId(0), 0.12);
        let large = ring_neighborhood(&net, NodeId(0), 0.6);
        assert!(large.messages.total() > small.messages.total());
    }

    #[test]
    fn incremental_query_matches_fresh_queries_step_by_step() {
        // A 9×9 grid: expand a query γ by γ and compare every step with a
        // from-scratch BFS at the same (ρ, hops).
        let gamma = 0.15;
        let net = Network::from_positions(
            gamma,
            (0..9).flat_map(|i| (0..9).map(move |j| Point::new(i as f64 * 0.1, j as f64 * 0.1))),
        );
        for center in [0usize, 40, 80] {
            let mut scratch = RingScratch::new();
            let mut query = RingQuery::begin(&net, NodeId(center), &mut scratch);
            let mut rho = 0.0;
            for _ in 0..10 {
                rho += gamma;
                let hops = hop_budget(rho, gamma, DEFAULT_HOP_SLACK);
                let step = query.collect(rho, hops);
                let fresh =
                    ring_neighborhood_with_slack(&net, NodeId(center), rho, DEFAULT_HOP_SLACK);
                assert_eq!(
                    query.members_to_vec(),
                    fresh.members,
                    "center {center} ρ {rho}"
                );
                assert_eq!(step.messages, fresh.messages, "center {center} ρ {rho}");
                let expect_far = fresh
                    .members
                    .iter()
                    .map(|&m| net.position(m).distance(net.position(NodeId(center))))
                    .fold(0.0, f64::max);
                assert!(
                    (query.farthest_member_distance() - expect_far).abs() < 1e-12,
                    "center {center} ρ {rho}"
                );
            }
        }
    }

    #[test]
    fn indexed_query_matches_grid_query() {
        let gamma = 0.15;
        let net = Network::from_positions(
            gamma,
            (0..7).flat_map(|i| (0..7).map(move |j| Point::new(i as f64 * 0.1, j as f64 * 0.1))),
        );
        let adj = Adjacency::build(&net);
        for center in [0usize, 24, 48] {
            let mut s1 = RingScratch::new();
            let mut s2 = RingScratch::new();
            let mut grid = RingQuery::begin(&net, NodeId(center), &mut s1);
            let mut csr = RingQuery::begin_indexed(&net, &adj, NodeId(center), &mut s2);
            let mut rho = 0.0;
            for _ in 0..6 {
                rho += gamma;
                let hops = hop_budget(rho, gamma, DEFAULT_HOP_SLACK);
                let a = grid.collect(rho, hops);
                let b = csr.collect(rho, hops);
                assert_eq!(a.new_members, b.new_members, "center {center} ρ {rho}");
                assert_eq!(a.messages, b.messages, "center {center} ρ {rho}");
                assert_eq!(grid.members(), csr.members(), "center {center} ρ {rho}");
            }
        }
    }

    #[test]
    fn scratch_reuse_across_searches_is_clean() {
        let net = Network::from_positions(0.12, (0..6).map(|i| Point::new(i as f64 * 0.1, 0.0)));
        let mut scratch = RingScratch::new();
        for center in 0..net.len() {
            let mut query = RingQuery::begin(&net, NodeId(center), &mut scratch);
            let hops = hop_budget(0.25, 0.12, DEFAULT_HOP_SLACK);
            let step = query.collect(0.25, hops);
            let fresh = ring_neighborhood(&net, NodeId(center), 0.25);
            assert_eq!(query.members_to_vec(), fresh.members, "center {center}");
            assert_eq!(step.messages, fresh.messages, "center {center}");
        }
    }
}
