//! Versioned binary serialization of the full engine state.
//!
//! [`Session::snapshot`] captures *everything* the round engine's future
//! behavior depends on — configuration, target area, the network's
//! struct-of-arrays vectors, the adjacency snapshot and its staleness
//! state, the dirty-node index inputs (stored views, validity flag, the
//! pending movement set), cumulative counters, the run history, and the
//! per-node cross-round view cache — so that
//! [`SessionBuilder::restore`] reconstructs a session whose subsequent
//! rounds are **bit-identical** to the uninterrupted run, at any thread
//! count and either execution schedule (pinned by
//! `tests/snapshot_roundtrip.rs`).
//!
//! # Format (`laacad-snapshot/1`)
//!
//! Hand-rolled little-endian binary, in the spirit of the byte-stable
//! telemetry JSONL schema: a magic/version line followed by fixed-order
//! sections. Integers are `u64` LE (`u32` LE inside CSR arrays), floats
//! are `f64::to_bits` LE — so round-trips are exact down to NaN
//! payloads and signed zeros — booleans one byte, `Option<T>` a one-byte
//! tag followed by `T` when present. Sections, in order: config, region
//! (outer + hole vertex loops), network SoA, round/flags, stored views,
//! pending movers, adjacency (state tag + CSR), counters, history
//! (round reports + position snapshots), and the view cache as a list
//! of per-node tables. This version writes exactly one table, so a
//! snapshot's bytes are the same at every thread count; earlier writers
//! wrote one table per worker, and the reader folds those into one.
//!
//! What is deliberately *not* serialized: spatial-grid internals (the
//! index is rebuilt deterministically from positions; query results are
//! layout-independent), every per-round scratch buffer (epoch-stamped
//! or fully reset before use), the pending observer event log (drained
//! at each `step`), and the telemetry recorder (an installed recorder
//! never feeds back into results; callers re-install one after restore).
//!
//! # Compatibility policy
//!
//! The version lives in the magic line. Readers accept exactly the
//! versions they know; any layout change bumps the version. There is no
//! in-place migration — a checkpoint is only as durable as the binary
//! that wrote it plus any binary that still carries its reader.

use crate::config::{CoordinateMode, ExecutionMode, LaacadConfig, RingCapPolicy};
use crate::history::{History, RoundReport};
use crate::localview::NodeView;
use crate::scratch::CacheEntry;
use crate::session::{
    first_misplaced, AdjacencyState, MovedNode, Session, SessionBuilder, SessionCounters,
};
use laacad_geom::{Circle, Point, Polygon};
use laacad_region::Region;
use laacad_wsn::radio::MessageStats;
use laacad_wsn::ranging::RangingNoise;
use laacad_wsn::{Adjacency, Network, NodeId};

/// Magic/version line opening every snapshot.
pub const SNAPSHOT_MAGIC: &[u8] = b"laacad-snapshot/1\n";

/// The config section's last byte once held seven on/off engine
/// switches, one bit each. The switches are gone (every mechanism is
/// always on), but the byte stays so the layout does not change: it is
/// written as all seven bits set — what a default session wrote — and
/// read back only to reject values no writer could have produced.
const RETIRED_KNOBS: u8 = 0x7F;

/// Each stored view once carried the farthest distance its ring search
/// contacted, which an earlier dirty classifier bounded re-activation
/// by. The hop-distance classifier needs no such radius; the slot stays
/// so the layout does not change, is written as this constant, and any
/// value is accepted and ignored on read.
const RETIRED_CONTACT_RADIUS: f64 = 0.0;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with a known magic/version line.
    BadMagic,
    /// The buffer ended before the encoded state did.
    Truncated,
    /// Trailing bytes after the encoded state.
    TrailingBytes,
    /// The bytes parsed but describe an impossible state.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a laacad-snapshot/1 buffer"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        Writer { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }

    fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.usize(x);
            }
            None => self.u8(0),
        }
    }

    fn point(&mut self, p: Point) {
        self.f64(p.x);
        self.f64(p.y);
    }

    fn points(&mut self, ps: &[Point]) {
        self.usize(ps.len());
        for &p in ps {
            self.point(p);
        }
    }

    fn opt_circle(&mut self, c: Option<Circle>) {
        match c {
            Some(c) => {
                self.u8(1);
                self.point(c.center);
                self.f64(c.radius);
            }
            None => self.u8(0),
        }
    }

    fn messages(&mut self, m: MessageStats) {
        self.u64(m.unicast);
        self.u64(m.broadcast);
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Result<Self, SnapshotError> {
        if !buf.starts_with(SNAPSHOT_MAGIC) {
            return Err(SnapshotError::BadMagic);
        }
        Ok(Reader {
            buf,
            pos: SNAPSHOT_MAGIC.len(),
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt("count overflows usize"))
    }

    /// A `usize` used as an element count: additionally bounded by the
    /// bytes remaining, so corrupt lengths fail cleanly instead of
    /// attempting a huge allocation.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n.saturating_mul(elem_bytes.max(1)) > self.buf.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("bad bool byte {b}"))),
        }
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            b => Err(corrupt(format!("bad option tag {b}"))),
        }
    }

    fn opt_usize(&mut self) -> Result<Option<usize>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.usize()?)),
            b => Err(corrupt(format!("bad option tag {b}"))),
        }
    }

    fn point(&mut self) -> Result<Point, SnapshotError> {
        Ok(Point::new(self.f64()?, self.f64()?))
    }

    fn points(&mut self) -> Result<Vec<Point>, SnapshotError> {
        let n = self.count(16)?;
        (0..n).map(|_| self.point()).collect()
    }

    fn opt_circle(&mut self) -> Result<Option<Circle>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let center = self.point()?;
                let radius = self.f64()?;
                Ok(Some(Circle { center, radius }))
            }
            b => Err(corrupt(format!("bad option tag {b}"))),
        }
    }

    fn messages(&mut self) -> Result<MessageStats, SnapshotError> {
        Ok(MessageStats {
            unicast: self.u64()?,
            broadcast: self.u64()?,
        })
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::TrailingBytes);
        }
        Ok(())
    }
}

fn corrupt(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(why.into())
}

// ---------------------------------------------------------------------
// Section encoders/decoders
// ---------------------------------------------------------------------

fn write_config(w: &mut Writer, c: &LaacadConfig) {
    w.usize(c.k);
    w.f64(c.alpha);
    w.f64(c.epsilon);
    w.f64(c.gamma);
    w.usize(c.max_rounds);
    w.opt_f64(c.max_rho);
    w.u8(match c.ring_cap {
        RingCapPolicy::Exact => 0,
        RingCapPolicy::AlwaysCap => 1,
    });
    w.usize(c.cap_vertices);
    match c.coordinates {
        CoordinateMode::Oracle => w.u8(0),
        CoordinateMode::Ranging(noise) => {
            w.u8(1);
            w.f64(noise.rel_sigma);
            w.f64(noise.abs_sigma);
        }
    }
    w.u8(match c.execution {
        ExecutionMode::Synchronous => 0,
        ExecutionMode::Sequential => 1,
    });
    w.opt_usize(c.snapshot_every);
    w.u64(c.seed);
    w.usize(c.threads);
    w.u8(RETIRED_KNOBS);
}

fn read_config(r: &mut Reader) -> Result<LaacadConfig, SnapshotError> {
    let k = r.usize()?;
    let alpha = r.f64()?;
    let epsilon = r.f64()?;
    let gamma = r.f64()?;
    let max_rounds = r.usize()?;
    let max_rho = r.opt_f64()?;
    let ring_cap = match r.u8()? {
        0 => RingCapPolicy::Exact,
        1 => RingCapPolicy::AlwaysCap,
        b => return Err(corrupt(format!("bad ring_cap tag {b}"))),
    };
    let cap_vertices = r.usize()?;
    let coordinates = match r.u8()? {
        0 => CoordinateMode::Oracle,
        1 => CoordinateMode::Ranging(RangingNoise {
            rel_sigma: r.f64()?,
            abs_sigma: r.f64()?,
        }),
        b => return Err(corrupt(format!("bad coordinates tag {b}"))),
    };
    let execution = match r.u8()? {
        0 => ExecutionMode::Synchronous,
        1 => ExecutionMode::Sequential,
        b => return Err(corrupt(format!("bad execution tag {b}"))),
    };
    let snapshot_every = r.opt_usize()?;
    let seed = r.u64()?;
    let threads = r.usize()?;
    // Retired switch bits: any value a writer of this format could
    // have produced is accepted and ignored.
    let knobs = r.u8()?;
    if knobs >= 0x80 {
        return Err(corrupt(format!("bad knob bitmask {knobs:#x}")));
    }
    Ok(LaacadConfig {
        k,
        alpha,
        epsilon,
        gamma,
        max_rounds,
        max_rho,
        ring_cap,
        cap_vertices,
        coordinates,
        execution,
        snapshot_every,
        seed,
        threads,
    })
}

fn write_region(w: &mut Writer, region: &Region) {
    w.points(region.outer().vertices());
    w.usize(region.holes().len());
    for hole in region.holes() {
        w.points(hole.vertices());
    }
}

fn read_region(r: &mut Reader) -> Result<Region, SnapshotError> {
    let read_loop = |r: &mut Reader| -> Result<Polygon, SnapshotError> {
        let vs = r.points()?;
        if vs.len() < 3 {
            return Err(corrupt("polygon loop with fewer than 3 vertices"));
        }
        Ok(Polygon::from_normalized(vs))
    };
    let outer = read_loop(r)?;
    let holes = (0..r.count(3 * 16)?)
        .map(|_| read_loop(r))
        .collect::<Result<Vec<_>, _>>()?;
    // The triangulation and convex decomposition are recomputed here,
    // deterministically, from the exact same vertex loops the original
    // region was built from — so every downstream sampling/clipping
    // decision matches the uninterrupted session.
    Region::with_holes(outer, holes).map_err(|e| corrupt(format!("region rebuild failed: {e}")))
}

fn write_network(w: &mut Writer, net: &Network) {
    w.f64(net.gamma());
    // Retired grid-layout preference byte (the layout now follows the
    // point cloud alone).
    w.bool(true);
    w.f64(net.retired_distance());
    w.points(net.positions());
    for &s in net.sensing_radii() {
        w.f64(s);
    }
    for &d in net.distances_moved() {
        w.f64(d);
    }
}

fn read_network(r: &mut Reader) -> Result<Network, SnapshotError> {
    let gamma = r.f64()?;
    if !(gamma.is_finite() && gamma > 0.0) {
        return Err(corrupt(format!("invalid gamma {gamma}")));
    }
    let _retired_prefer_flat = r.bool()?;
    let retired = r.f64()?;
    let positions = r.points()?;
    let n = positions.len();
    let sensing: Vec<f64> = (0..n).map(|_| r.f64()).collect::<Result<_, _>>()?;
    let moved: Vec<f64> = (0..n).map(|_| r.f64()).collect::<Result<_, _>>()?;
    Ok(Network::from_parts(
        gamma, positions, sensing, moved, retired,
    ))
}

fn write_view(w: &mut Writer, v: &NodeView) {
    w.f64(v.rho);
    w.usize(v.rho_stages);
    w.bool(v.dominated);
    w.bool(v.saturated);
    w.messages(v.messages);
    w.opt_circle(v.chebyshev);
    w.f64(v.reach);
    w.f64(RETIRED_CONTACT_RADIUS);
    w.bool(v.cache_hit);
}

fn read_view(r: &mut Reader) -> Result<NodeView, SnapshotError> {
    let view = NodeView {
        rho: r.f64()?,
        rho_stages: r.usize()?,
        dominated: r.bool()?,
        saturated: r.bool()?,
        messages: r.messages()?,
        chebyshev: r.opt_circle()?,
        reach: r.f64()?,
        cache_hit: false,
    };
    let _retired_contact_radius = r.f64()?;
    Ok(NodeView {
        cache_hit: r.bool()?,
        ..view
    })
}

fn write_report(w: &mut Writer, rep: &RoundReport) {
    w.usize(rep.round);
    w.f64(rep.max_circumradius);
    w.f64(rep.min_circumradius);
    w.f64(rep.max_reach);
    w.f64(rep.max_displacement_to_target);
    w.usize(rep.nodes_moved);
    w.messages(rep.messages);
    w.bool(rep.converged);
}

fn read_report(r: &mut Reader) -> Result<RoundReport, SnapshotError> {
    Ok(RoundReport {
        round: r.usize()?,
        max_circumradius: r.f64()?,
        min_circumradius: r.f64()?,
        max_reach: r.f64()?,
        max_displacement_to_target: r.f64()?,
        nodes_moved: r.usize()?,
        messages: r.messages()?,
        converged: r.bool()?,
    })
}

fn write_cache_entry(w: &mut Writer, e: &CacheEntry) {
    w.bool(e.valid);
    w.usize(e.k);
    w.point(e.self_pos);
    w.f64(e.rho);
    w.bool(e.dominated);
    w.usize(e.member_ids.len());
    for &id in &e.member_ids {
        w.usize(id);
    }
    w.points(&e.member_pos);
    w.opt_circle(e.chebyshev);
    w.f64(e.reach);
}

fn read_cache_entry(r: &mut Reader) -> Result<CacheEntry, SnapshotError> {
    let valid = r.bool()?;
    let k = r.usize()?;
    let self_pos = r.point()?;
    let rho = r.f64()?;
    let dominated = r.bool()?;
    let member_ids: Vec<usize> = (0..r.count(8)?)
        .map(|_| r.usize())
        .collect::<Result<_, _>>()?;
    let member_pos = r.points()?;
    let chebyshev = r.opt_circle()?;
    let reach = r.f64()?;
    Ok(CacheEntry {
        valid,
        k,
        self_pos,
        rho,
        dominated,
        member_ids,
        member_pos,
        chebyshev,
        reach,
    })
}

// ---------------------------------------------------------------------
// Session entry points
// ---------------------------------------------------------------------

impl Session {
    /// Serializes the full engine state into a `laacad-snapshot/1`
    /// buffer (see the [module docs](self)).
    ///
    /// The installed telemetry [`Recorder`](laacad_telemetry::Recorder)
    /// and any event notifications pending for observers are *not* part
    /// of the snapshot; everything that determines future results is.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        write_config(&mut w, &self.config);
        write_region(&mut w, &self.region);
        write_network(&mut w, &self.net);
        w.usize(self.round);
        w.bool(self.converged);
        w.bool(self.views_valid);
        w.usize(self.views.len());
        for v in &self.views {
            write_view(&mut w, v);
        }
        w.usize(self.last_movers.len());
        for m in &self.last_movers {
            w.usize(m.id.index());
            w.point(m.from);
            w.point(m.to);
        }
        w.u8(match self.adjacency_state {
            AdjacencyState::Fresh => 0,
            AdjacencyState::StaleMoves => 1,
            AdjacencyState::StaleFull => 2,
        });
        let (offsets, neighbors) = self.adjacency.csr();
        w.usize(offsets.len());
        for &o in offsets {
            w.u32(o);
        }
        w.usize(neighbors.len());
        for &x in neighbors {
            w.u32(x);
        }
        let c = self.counters;
        for v in [
            c.ring_searches,
            c.skipped_quiescent,
            c.cache_hits,
            c.cache_misses,
            c.adjacency_rebuilds,
            c.adjacency_incremental_updates,
            c.warm_started,
        ] {
            w.u64(v);
        }
        w.usize(self.history.rounds().len());
        for rep in self.history.rounds() {
            write_report(&mut w, rep);
        }
        w.usize(self.history.snapshots().len());
        for (round, positions) in self.history.snapshots() {
            w.usize(*round);
            w.points(positions);
        }
        // The view cache, as a list holding one table. Trailing entries
        // that were never filled carry nothing and are left out (a
        // ranging-mode session never fills any).
        let live = self
            .cache
            .iter()
            .rposition(|e| e.valid)
            .map_or(0, |i| i + 1);
        w.usize(1);
        w.usize(live);
        for e in &self.cache[..live] {
            write_cache_entry(&mut w, e);
        }
        w.buf
    }
}

impl SessionBuilder {
    /// Reconstructs a session from a [`Session::snapshot`] buffer.
    ///
    /// The restored session's subsequent rounds are bit-identical to
    /// the uninterrupted original's. No recorder is installed — callers
    /// re-attach telemetry with
    /// [`Session::set_recorder`] if they want it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on unknown versions, truncation, trailing
    /// bytes, or any decoded state that fails validation.
    pub fn restore(bytes: &[u8]) -> Result<Session, SnapshotError> {
        let mut r = Reader::new(bytes)?;
        let config = read_config(&mut r)?;
        let region = read_region(&mut r)?;
        let net = read_network(&mut r)?;
        let n = net.len();
        if let Some(i) = first_misplaced(&region, net.positions()) {
            return Err(corrupt(format!("node {i} lies outside the target area")));
        }
        let round = r.usize()?;
        let converged = r.bool()?;
        let views_valid = r.bool()?;
        let views: Vec<NodeView> = (0..r.count(16)?)
            .map(|_| read_view(&mut r))
            .collect::<Result<_, _>>()?;
        if !views.is_empty() && views.len() != n {
            return Err(corrupt(format!(
                "{} stored views for {n} nodes",
                views.len()
            )));
        }
        let last_movers: Vec<MovedNode> = (0..r.count(40)?)
            .map(|_| -> Result<MovedNode, SnapshotError> {
                let id = r.usize()?;
                if id >= n {
                    return Err(corrupt(format!("mover id {id} out of range {n}")));
                }
                Ok(MovedNode {
                    id: NodeId(id),
                    from: r.point()?,
                    to: r.point()?,
                })
            })
            .collect::<Result<_, _>>()?;
        let mut adjacency_state = match r.u8()? {
            0 => AdjacencyState::Fresh,
            1 => AdjacencyState::StaleMoves,
            2 => AdjacencyState::StaleFull,
            b => return Err(corrupt(format!("bad adjacency state tag {b}"))),
        };
        let offsets: Vec<u32> = (0..r.count(4)?)
            .map(|_| r.u32())
            .collect::<Result<_, _>>()?;
        let neighbors: Vec<u32> = (0..r.count(4)?)
            .map(|_| r.u32())
            .collect::<Result<_, _>>()?;
        if !offsets.is_empty() {
            let ok = offsets[0] == 0
                && offsets.windows(2).all(|w| w[0] <= w[1])
                && *offsets.last().unwrap() as usize == neighbors.len()
                && neighbors.iter().all(|&x| (x as usize) < offsets.len() - 1);
            if !ok {
                return Err(corrupt("malformed adjacency CSR"));
            }
        } else if !neighbors.is_empty() {
            return Err(corrupt("adjacency neighbors without offsets"));
        }
        // The states that reuse the CSR without a rebuild must hold the
        // exact adjacency the engine would: the next round searches it,
        // and the dirty classifier replays every view whose flood the
        // patch leaves unchanged. `Fresh` describes the current
        // positions; `StaleMoves` the positions before `last_movers`,
        // recovered by undoing them in reverse. A `StaleFull` CSR is
        // rebuilt before use and may still describe the population
        // before a `FailNodes`/`InsertNodes` event.
        let stored = (offsets.as_slice(), neighbors.as_slice());
        let decoded = adjacency_state;
        let mismatch = move || {
            corrupt(format!(
                "adjacency CSR does not match the {decoded:?} positions"
            ))
        };
        match adjacency_state {
            AdjacencyState::Fresh => {
                if Adjacency::build(&net).csr() != stored {
                    return Err(mismatch());
                }
            }
            AdjacencyState::StaleMoves => {
                let mut positions = net.positions().to_vec();
                for m in last_movers.iter().rev() {
                    positions[m.id.index()] = m.from;
                }
                let mut replay = Network::from_positions(net.gamma(), positions);
                let mut described = Adjacency::build(&replay);
                // Earlier versions also marked `StaleMoves` a CSR that
                // `finalize` had refreshed past pending movers, so it may
                // describe the positions after a prefix of `last_movers`.
                // Such a session restores as `StaleFull`: patching would
                // miss the rows that prefix changed.
                let mut movers = last_movers.iter();
                while described.csr() != stored {
                    let m = movers.next().ok_or_else(mismatch)?;
                    replay.move_node(m.id, m.to);
                    described.apply_moves(&replay, [(m.id.index(), m.from, m.to)]);
                    adjacency_state = AdjacencyState::StaleFull;
                }
            }
            AdjacencyState::StaleFull => {}
        }
        let adjacency = Adjacency::from_csr(offsets, neighbors);
        let counters = SessionCounters {
            ring_searches: r.u64()?,
            skipped_quiescent: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            adjacency_rebuilds: r.u64()?,
            adjacency_incremental_updates: r.u64()?,
            warm_started: r.u64()?,
        };
        let mut history = History::default();
        for _ in 0..r.count(8)? {
            history.push_round(read_report(&mut r)?);
        }
        for _ in 0..r.count(8)? {
            let round = r.usize()?;
            let positions = r.points()?;
            history.push_snapshot(round, positions);
        }
        // Earlier writers emitted one table per worker. Every valid entry
        // is exact, so each node keeps the first valid one in table order.
        let mut cache: Vec<CacheEntry> = Vec::new();
        for _ in 0..r.count(8)? {
            for i in 0..r.count(8)? {
                let entry = read_cache_entry(&mut r)?;
                match cache.get_mut(i) {
                    None => cache.push(entry),
                    Some(kept) if !kept.valid => *kept = entry,
                    Some(_) => {}
                }
            }
        }
        r.finish()?;
        config
            .validate(n)
            .map_err(|e| corrupt(format!("config rejected: {e}")))?;
        if n == 0 {
            return Err(corrupt("snapshot holds an empty deployment"));
        }
        Ok(Session {
            config,
            region,
            net,
            history,
            round,
            converged,
            scratches: Vec::new(),
            cache,
            adjacency,
            adjacency_state,
            views,
            views_valid,
            last_movers,
            counters,
            event_log: Vec::new(),
            recorder: None,
            pool: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkEvent;
    use laacad_region::sampling::sample_uniform;

    fn session(n: usize, k: usize, seed: u64) -> Session {
        let region = Region::square(1.0).unwrap();
        let config = LaacadConfig::builder(k)
            .transmission_range(0.25)
            .alpha(0.6)
            .epsilon(1e-3)
            .max_rounds(120)
            .snapshot_every(10)
            .build()
            .unwrap();
        Session::builder(config)
            .positions(sample_uniform(&region, n, seed))
            .region(region)
            .build()
            .unwrap()
    }

    #[test]
    fn snapshot_is_stable_and_restores() {
        let mut s = session(25, 2, 7);
        for _ in 0..5 {
            s.step();
        }
        let snap = s.snapshot();
        assert!(snap.starts_with(SNAPSHOT_MAGIC));
        // Snapshotting is read-only and deterministic.
        assert_eq!(snap, s.snapshot());
        let restored = SessionBuilder::restore(&snap).unwrap();
        assert_eq!(restored.rounds_executed(), s.rounds_executed());
        assert_eq!(restored.network().positions(), s.network().positions());
        assert_eq!(restored.counters(), s.counters());
        assert_eq!(restored.history().rounds(), s.history().rounds());
        // And a restored session re-snapshots to the same bytes.
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn restored_steps_match_uninterrupted() {
        let mut a = session(30, 2, 11);
        for _ in 0..4 {
            a.step();
        }
        let snap = a.snapshot();
        let mut b = SessionBuilder::restore(&snap).unwrap();
        for _ in 0..6 {
            assert_eq!(a.step(), b.step());
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn rejects_bad_magic_truncation_and_trailing() {
        let mut s = session(10, 1, 3);
        s.step();
        let snap = s.snapshot();
        assert_eq!(
            SessionBuilder::restore(b"not a snapshot").unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SessionBuilder::restore(&snap[..snap.len() - 3]).unwrap_err(),
            SnapshotError::Truncated
        );
        let mut long = snap.clone();
        long.push(0);
        assert_eq!(
            SessionBuilder::restore(&long).unwrap_err(),
            SnapshotError::TrailingBytes
        );
    }

    #[test]
    fn rejects_adjacency_csr_that_does_not_fit_the_deployment() {
        for (state, rows) in [
            // One row for 40 nodes, trusted as fresh: restoring it used
            // to succeed and the next step panicked in the ring search.
            (AdjacencyState::Fresh, Some(1)),
            (AdjacencyState::StaleMoves, Some(41)),
            // Fresh and move-patchable states need a CSR at all.
            (AdjacencyState::Fresh, None),
            (AdjacencyState::StaleMoves, None),
        ] {
            let mut s = session(40, 1, 5);
            s.adjacency = match rows {
                Some(rows) => Adjacency::from_csr(vec![0; rows + 1], Vec::new()),
                None => Adjacency::from_csr(Vec::new(), Vec::new()),
            };
            s.adjacency_state = state;
            assert!(
                matches!(
                    SessionBuilder::restore(&s.snapshot()).unwrap_err(),
                    SnapshotError::Corrupt(_)
                ),
                "{state:?} with {rows:?} rows"
            );
        }
        // A CSR that is rebuilt before use may lag the population: a
        // never-stepped session has none, and after a failure event it
        // still has the old row count. Both restore and step as before.
        let mut failed = session(40, 1, 5);
        failed.step();
        assert_eq!(failed.adjacency.len(), 40);
        failed
            .apply_event(NetworkEvent::FailNodes(vec![NodeId(3), NodeId(7)]))
            .unwrap();
        for mut original in [session(40, 1, 5), failed] {
            let mut restored = SessionBuilder::restore(&original.snapshot()).unwrap();
            assert_eq!(restored.step(), original.step());
        }
    }

    /// Byte offsets of the retired knob byte and the retired grid-layout
    /// byte in `s`'s snapshot.
    fn retired_byte_offsets(s: &Session) -> (usize, usize) {
        let mut w = Writer::new();
        write_config(&mut w, &s.config);
        let knobs_at = w.buf.len() - 1;
        write_region(&mut w, &s.region);
        // The network section opens with γ, then the layout byte.
        (knobs_at, w.buf.len() + 8)
    }

    #[test]
    fn snapshots_with_switches_off_restore_to_the_same_engine() {
        let mut s = session(30, 2, 13);
        for _ in 0..6 {
            s.step();
        }
        let snap = s.snapshot();
        let (knobs_at, flat_at) = retired_byte_offsets(&s);
        assert_eq!(snap[knobs_at], RETIRED_KNOBS);
        assert_eq!(snap[flat_at], 1);
        // What a session with every switch off wrote: knob byte 0x00,
        // hash-grid preference.
        let mut off = snap.clone();
        off[knobs_at] = 0x00;
        off[flat_at] = 0;
        let mut a = SessionBuilder::restore(&snap).unwrap();
        let mut b = SessionBuilder::restore(&off).unwrap();
        assert_eq!(a.snapshot(), snap);
        assert_eq!(
            b.snapshot(),
            snap,
            "re-encoding writes the retired bytes as today"
        );
        for _ in 0..6 {
            let (da, db) = (a.step(), b.step());
            assert_eq!(da, db);
        }
        let bits = |s: &Session| {
            let net = s.network();
            let pos: Vec<(u64, u64)> = net
                .positions()
                .iter()
                .map(|p| (p.x.to_bits(), p.y.to_bits()))
                .collect();
            let radii: Vec<u64> = net.sensing_radii().iter().map(|r| r.to_bits()).collect();
            (pos, radii)
        };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.snapshot(), b.snapshot());
        // A knob byte no writer could have produced is still corrupt.
        for bad in [0x80u8, 0xFF] {
            let mut corrupt = snap.clone();
            corrupt[knobs_at] = bad;
            assert!(matches!(
                SessionBuilder::restore(&corrupt).unwrap_err(),
                SnapshotError::Corrupt(_)
            ));
        }
    }

    #[test]
    fn rejects_adjacency_csr_with_a_flipped_edge() {
        // A well-formed CSR with one edge dropped. The dirty classifier
        // seeds from the rows the next patch changes, so a restored CSR
        // that is wrong in a single row would silently replay views the
        // edge affects; restore must refuse it in both reused states.
        let mut fresh = session(40, 1, 5);
        for _ in 0..3 {
            fresh.step();
        }
        fresh.finalize();
        assert_eq!(fresh.adjacency_state, AdjacencyState::Fresh);
        let mut stale = session(40, 1, 5);
        for _ in 0..3 {
            stale.step();
        }
        let p = stale.network().position(NodeId(9));
        let target = Point::new(p.x * 0.9 + 0.05, p.y * 0.9 + 0.05);
        stale.displace_nodes(&[(NodeId(9), target)]).unwrap();
        assert_eq!(stale.adjacency_state, AdjacencyState::StaleMoves);
        assert!(
            stale.last_movers.len() > 1,
            "round movers plus the displacement"
        );
        for mut original in [fresh, stale] {
            let state = original.adjacency_state;
            let bytes = original.snapshot();
            let mut s = SessionBuilder::restore(&bytes).unwrap();
            assert_eq!(s.adjacency_state, state);
            let (offsets, neighbors) = s.adjacency.csr();
            let row = (0..s.adjacency.len())
                .find(|&i| !s.adjacency.neighbors(i).is_empty())
                .unwrap();
            let mut neighbors = neighbors.to_vec();
            neighbors.remove(offsets[row] as usize);
            let offsets: Vec<u32> = offsets
                .iter()
                .enumerate()
                .map(|(i, &o)| if i > row { o - 1 } else { o })
                .collect();
            s.adjacency = Adjacency::from_csr(offsets, neighbors);
            assert!(
                matches!(
                    SessionBuilder::restore(&s.snapshot()).unwrap_err(),
                    SnapshotError::Corrupt(_)
                ),
                "{state:?} with row {row} missing an edge"
            );
            // The intact snapshot restores and steps like the original.
            let mut restored = SessionBuilder::restore(&bytes).unwrap();
            assert_eq!(restored.step(), original.step(), "{state:?}");
        }
    }

    #[test]
    fn stale_moves_csr_past_a_prefix_of_the_movers_restores_as_stale_full() {
        // Earlier versions marked `StaleMoves` a CSR that `finalize` had
        // refreshed past pending movers, on the next displacement. Such a
        // snapshot holds the adjacency after a prefix of `last_movers`: it
        // restores as `StaleFull` and steps like this version's session.
        let mut sim = session(40, 1, 5);
        for _ in 0..3 {
            sim.step();
        }
        assert!(!sim.last_movers.is_empty(), "movers pending");
        sim.finalize();
        let p = sim.network().position(NodeId(9));
        let target = Point::new(p.x * 0.9 + 0.05, p.y * 0.9 + 0.05);
        sim.displace_nodes(&[(NodeId(9), target)]).unwrap();
        assert_eq!(sim.adjacency_state, AdjacencyState::StaleFull);
        sim.adjacency_state = AdjacencyState::StaleMoves;
        let earlier = sim.snapshot();
        sim.adjacency_state = AdjacencyState::StaleFull;
        let mut restored = SessionBuilder::restore(&earlier).unwrap();
        assert_eq!(restored.adjacency_state, AdjacencyState::StaleFull);
        assert_eq!(restored.step(), sim.step());
        assert_eq!(restored.network().positions(), sim.network().positions());
    }

    /// Snapshots written while each stored view still carried its search's
    /// contact radius: a converged 80-node k = 1 session (γ = 0.18,
    /// seed 21) right after one node was displaced, and the same session
    /// 12 rounds later, both written by that engine.
    const CONTACT_RADIUS_BEFORE: &[u8] = include_bytes!("../tests/data/contact_radius_before.bin");
    const CONTACT_RADIUS_AFTER: &[u8] = include_bytes!("../tests/data/contact_radius_after.bin");

    #[test]
    fn snapshots_with_contact_radii_restore_and_step_identically() {
        let mut s = SessionBuilder::restore(CONTACT_RADIUS_BEFORE).unwrap();
        // The retired slots held non-zero radii; they re-encode as 0.0 in
        // the same layout.
        let reencoded = s.snapshot();
        assert_eq!(reencoded.len(), CONTACT_RADIUS_BEFORE.len());
        assert_ne!(reencoded, CONTACT_RADIUS_BEFORE);
        let first = s.step();
        assert!(
            first.skipped_quiescent > 0 && first.ring_searches > 0,
            "the displacement round is partially active"
        );
        for _ in 1..12 {
            s.step();
        }
        let writer = SessionBuilder::restore(CONTACT_RADIUS_AFTER).unwrap();
        let bits = |s: &Session| {
            let net = s.network();
            let pos: Vec<(u64, u64)> = net
                .positions()
                .iter()
                .map(|p| (p.x.to_bits(), p.y.to_bits()))
                .collect();
            let radii: Vec<u64> = net.sensing_radii().iter().map(|r| r.to_bits()).collect();
            (pos, radii)
        };
        assert_eq!(bits(&s), bits(&writer));
        assert_eq!(s.round, writer.round);
        assert_eq!(s.converged, writer.converged);
        assert_eq!(s.history.rounds(), writer.history.rounds());
        assert_eq!(s.counters.cache_misses, writer.counters.cache_misses);
        assert_eq!(s.adjacency.csr(), writer.adjacency.csr());
        assert_eq!(s.last_movers, writer.last_movers);
        // Stored views agree in everything but the cache-hit flag, which
        // records how a view was last produced: a view replayed here was
        // re-searched (and hit) by the writer.
        assert_eq!(s.views.len(), writer.views.len());
        for (a, b) in s.views.iter().zip(&writer.views) {
            assert_eq!(a.rho.to_bits(), b.rho.to_bits());
            assert_eq!(a.rho_stages, b.rho_stages);
            assert_eq!((a.dominated, a.saturated), (b.dominated, b.saturated));
            assert_eq!(a.messages, b.messages);
            assert_eq!(a.chebyshev, b.chebyshev);
            assert_eq!(a.reach.to_bits(), b.reach.to_bits());
        }
    }

    /// A snapshot written at `threads = 4` by the engine that kept one
    /// view cache per worker: a 24-node k = 1 session (γ from
    /// `recommended_gamma`, seed 17) converged, three nodes displaced,
    /// two rounds stepped. Its cache section holds four tables.
    const FOUR_WORKER_TABLES: &[u8] = include_bytes!("../tests/data/four_worker_tables.bin");

    #[test]
    fn per_worker_cache_tables_fold_into_one() {
        let mut s = SessionBuilder::restore(FOUR_WORKER_TABLES).unwrap();
        assert_eq!(s.config.threads, 4);
        assert!(s.cache.iter().all(|e| e.valid), "every node was computed");
        // The re-encoding differs from the writer's only in its cache
        // section, which now lists one table.
        let reencoded = s.snapshot();
        let mut tail = Writer { buf: Vec::new() };
        tail.usize(1);
        tail.usize(s.cache.len());
        for e in &s.cache {
            write_cache_entry(&mut tail, e);
        }
        let at = reencoded.len() - tail.buf.len();
        assert_eq!(reencoded[at..], tail.buf[..]);
        assert_eq!(reencoded[..at], FOUR_WORKER_TABLES[..at]);
        assert_eq!(FOUR_WORKER_TABLES[at..at + 8], 4u64.to_le_bytes());
        // The folded session steps like a fresh one from its positions.
        for _ in 0..8 {
            let mut fresh = Session::builder(s.config.clone())
                .region(s.region.clone())
                .positions(s.network().positions().iter().copied())
                .build()
                .unwrap();
            let (mut expected, got) = (fresh.step(), s.step());
            expected.report.round = got.report.round;
            assert_eq!(got.report, expected.report);
            assert_eq!(got.moved, expected.moved);
            assert_eq!(s.network().sensing_radii(), fresh.network().sensing_radii());
        }
        assert!(s.counters.cache_hits > 0, "{:?}", s.counters);
        assert_eq!(
            SessionBuilder::restore(&s.snapshot()).unwrap().snapshot(),
            s.snapshot()
        );
    }

    #[test]
    fn restore_rejects_what_build_rejects() {
        let mut s = session(30, 2, 3);
        s.step();
        let intact = s.snapshot();
        for (cap_vertices, max_rho, y) in [
            (0, None, 0.5),
            (7, None, 0.5),
            (64, Some(f64::NAN), 0.5),
            (64, Some(0.0), 0.5),
            (64, None, 4.39e307),
            (64, None, f64::NAN),
            (64, None, f64::INFINITY),
            (64, None, 1.5),
        ] {
            let mut bad = SessionBuilder::restore(&intact).unwrap();
            bad.config.cap_vertices = cap_vertices;
            bad.config.max_rho = max_rho;
            bad.net.move_node(NodeId(4), Point::new(0.5, y));
            assert!(
                matches!(
                    SessionBuilder::restore(&bad.snapshot()).unwrap_err(),
                    SnapshotError::Corrupt(_)
                ),
                "{cap_vertices}, {max_rho:?}, {y}"
            );
        }
    }

    #[test]
    fn rejects_corrupt_state() {
        let mut s = session(10, 1, 3);
        s.step();
        let mut snap = s.snapshot();
        // Flip the k field (first u64 after the magic) to zero — an
        // invalid coverage degree.
        let at = SNAPSHOT_MAGIC.len();
        snap[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            SessionBuilder::restore(&snap).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }
}
