//! The PRSim hub index (paper Algorithm 1) on a flat postings arena.
//!
//! The index stores, for each of the `j₀` nodes with the largest reverse
//! PageRank ("hubs"), the level-wise backward-search reserves
//! `L_ℓ(w) = {(v, ψ_ℓ(v,w)) : ψ_ℓ(v,w) > r_max}`. At query time,
//! Algorithm 4 reads `π_ℓ(v, ·)` for hub terminals straight from these
//! lists instead of running backward walks, which is what caps the query
//! cost contribution of high-π nodes.
//!
//! ## Postings format
//!
//! Reserve lists live in one contiguous arena rather than per-hub nested
//! `Vec`s, so a query terminal `(w, ℓ)` resolves to a single sequential
//! scan and consecutive levels of the same hub are adjacent in memory:
//!
//! ```text
//! hub_pos: node ─────────▶ rank            (dense, NOT_A_HUB elsewhere)
//! slots:   rank ─────────▶ {bounds_start, levels}
//! bounds:  CSR offsets; hub r's run is bounds[start .. start+levels+1],
//!          monotone; level ℓ's postings are [bounds[start+ℓ], bounds[start+ℓ+1])
//! nodes:   ┌─────────────────────────────────────────────────────┐
//!          │ v v v … (hub 0, ℓ=0) │ v v … (hub 0, ℓ=1) │ hub 1 … │
//!          └─────────────────────────────────────────────────────┘
//! reserves: parallel array of ψ values, f64 (default) or f32
//!           (structure-of-arrays: 12 or 8 bytes per entry, no padding)
//! ```
//!
//! Hub membership is one `hub_pos` probe; a postings lookup is two array
//! reads off the offset table — no binary search, no pointer chasing.
//!
//! **Repair** ([`PrsimIndex::repair_hubs`]) never shifts other hubs'
//! postings: a repaired hub's old run is *tombstoned* (its entries counted
//! in `dead_entries`) and the fresh run is appended at the arena tail,
//! with the hub's slot repointed. Once dead entries (or dead offset
//! slots) outnumber live ones the arena is compacted in rank order — the
//! same amortized-threshold pattern as [`prsim_graph::delta::DeltaGraph`]
//! — so space stays `O(live)` and per-repair cost stays amortized `O(run)`.
//!
//! **Reserve precision**: [`ReservePrecision::F32`] stores ψ quantized to
//! `f32`, shrinking the arena by a third and keeping it cache-resident
//! longer. Each stored reserve carries relative rounding error ≤ 2⁻²⁴, so
//! a query's index part `ŝ_I = Σ η̂π/α²·ψ` is perturbed by at most
//! `2⁻²⁴·ŝ_I ≤ 2⁻²⁴/α²` — charged against the `eps` budget (and rejected
//! by [`crate::PrsimConfig::validate`] when `eps` is small enough for
//! that to matter; `tests/statistical_accuracy.rs` validates the bound).
//!
//! **Serialization** ([`PrsimIndex::to_bytes`]) writes the live arena
//! directly: hubs, per-hub level counts, the global monotone offset
//! table, then the `nodes` and `reserves` arrays. `from_bytes` validates
//! every table (monotone offsets, in-range node ids, finite reserves)
//! with allocations bounded by the payload, so corrupt input yields
//! `Err`, never a panic or an attacker-sized allocation.
//!
//! Hub construction is embarrassingly parallel (one backward search per
//! hub); [`PrsimIndex::build`] fans the searches out over
//! `build_threads` workers.

use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use prsim_graph::{DiGraph, NodeId};
use prsim_storage::Storage;

use crate::backward::backward_search;
use crate::paging::pagefile;
use crate::paging::pool::BufferPool;
use crate::paging::{PagedOptions, PagingStats, PostingsScratch};
use crate::PrsimError;

/// Magic bytes identifying the serialized index format, version 3
/// (v3 switched to the flat postings arena with an explicit offset table
/// and optional f32 reserves; v2 serialized per-hub nested lists).
const MAGIC: &[u8; 8] = b"PRSIMIX3";

/// Serialized flag bit: reserves are f32.
const FLAG_F32: u32 = 1;

/// Sentinel marking non-hub nodes in the position table.
const NOT_A_HUB: u32 = u32::MAX;

/// Tombstoned entries/offset-slots below this never trigger compaction
/// (avoids rewrite thrash on tiny indexes).
const COMPACT_MIN_DEAD: usize = 256;

/// Per-hub backward-search result: `lists[level]` = `(v, ψ_ℓ(v, hub))`.
type HubLists = Vec<Vec<(NodeId, f64)>>;

/// One hub's touched record: sorted `(node, max residue over levels)`.
type TouchRecord = Vec<(NodeId, f64)>;

/// Storage width of the arena's reserve values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReservePrecision {
    /// Full-precision `f64` reserves (12 bytes per posting). Default.
    F64,
    /// Quantized `f32` reserves (8 bytes per posting); relative rounding
    /// error ≤ 2⁻²⁴ per entry, charged against the `eps` budget.
    F32,
}

/// The reserve value array backing the arena, in either precision.
#[derive(Clone, Debug)]
enum ReserveArena {
    F64(Vec<f64>),
    F32(Vec<f32>),
}

impl ReserveArena {
    fn with_capacity(precision: ReservePrecision, cap: usize) -> Self {
        match precision {
            ReservePrecision::F64 => ReserveArena::F64(Vec::with_capacity(cap)),
            ReservePrecision::F32 => ReserveArena::F32(Vec::with_capacity(cap)),
        }
    }

    fn precision(&self) -> ReservePrecision {
        match self {
            ReserveArena::F64(_) => ReservePrecision::F64,
            ReserveArena::F32(_) => ReservePrecision::F32,
        }
    }

    /// Appends a reserve, quantizing when the arena is f32.
    #[inline]
    fn push(&mut self, psi: f64) {
        match self {
            ReserveArena::F64(v) => v.push(psi),
            ReserveArena::F32(v) => v.push(psi as f32),
        }
    }

    /// Copies `[start, end)` of `src` onto the end of `self` (compaction
    /// helper; both sides always share a precision).
    fn extend_from_range(&mut self, src: &ReserveArena, start: usize, end: usize) {
        match (self, src) {
            (ReserveArena::F64(dst), ReserveArena::F64(s)) => dst.extend_from_slice(&s[start..end]),
            (ReserveArena::F32(dst), ReserveArena::F32(s)) => dst.extend_from_slice(&s[start..end]),
            _ => unreachable!("compaction never changes precision"),
        }
    }

    fn payload_bytes(&self) -> usize {
        match self {
            ReserveArena::F64(v) => v.len() * 8,
            ReserveArena::F32(v) => v.len() * 4,
        }
    }
}

/// One postings slice `L_ℓ(w)`: parallel node/reserve arrays, borrowed
/// straight from the arena. Match once per slice so the hot loop runs a
/// monomorphic sequential scan.
#[derive(Clone, Copy, Debug)]
pub enum Postings<'a> {
    /// Full-precision reserves.
    F64 {
        /// Source nodes `v`, in ascending id order.
        nodes: &'a [NodeId],
        /// Parallel reserves `ψ_ℓ(v, w)`.
        reserves: &'a [f64],
    },
    /// Quantized reserves.
    F32 {
        /// Source nodes `v`, in ascending id order.
        nodes: &'a [NodeId],
        /// Parallel reserves `ψ_ℓ(v, w)`.
        reserves: &'a [f32],
    },
}

impl Postings<'_> {
    /// Number of postings in the slice.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Postings::F64 { nodes, .. } | Postings::F32 { nodes, .. } => nodes.len(),
        }
    }

    /// True when the slice holds no postings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds the run into a dense accumulator as `acc[v] += scale·ψ`,
    /// through the branchless 8-lane scatter
    /// ([`crate::workspace::DenseScratch::scatter_scaled`]) — the query
    /// pipeline's `ŝ_I` consumption path: one `bounds` probe resolved
    /// this slice, and this call is the entire per-run aggregation (no
    /// intermediate scaled stream, no radix sort). Nodes within a run
    /// ascend, so the dense writes sweep forward prefetch-friendly.
    #[inline]
    pub fn scatter_into(&self, acc: &mut crate::workspace::DenseScratch, scale: f64) {
        match *self {
            Postings::F64 { nodes, reserves } => acc.scatter_scaled(nodes, reserves, scale),
            Postings::F32 { nodes, reserves } => acc.scatter_scaled_f32(nodes, reserves, scale),
        }
    }

    /// Iterates `(v, ψ)` pairs, widening reserves to f64 (convenience for
    /// tests and cold callers; the query loop matches the variants).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let (nodes, f64s, f32s) = match *self {
            Postings::F64 { nodes, reserves } => (nodes, Some(reserves), None),
            Postings::F32 { nodes, reserves } => (nodes, None, Some(reserves)),
        };
        nodes.iter().enumerate().map(move |(i, &v)| {
            let psi = match (f64s, f32s) {
                (Some(r), _) => r[i],
                (_, Some(r)) => f64::from(r[i]),
                _ => unreachable!(),
            };
            (v, psi)
        })
    }
}

/// Memory/observability counters of the arena (benchmark output).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IndexStats {
    /// Number of hubs `j₀`.
    pub hubs: usize,
    /// Live postings entries.
    pub entries: usize,
    /// Tombstoned postings entries awaiting compaction.
    pub dead_entries: usize,
    /// Live `(hub, level)` slots in the offset table.
    pub level_slots: usize,
    /// Resident bytes of the index payload (including tombstones).
    pub size_bytes: usize,
    /// Arena compactions performed so far.
    pub compactions: usize,
}

/// Where one hub's offsets live: its run is
/// `bounds[bounds_start .. bounds_start + levels + 1]`.
#[derive(Clone, Copy, Debug)]
struct HubSlot {
    bounds_start: u32,
    levels: u32,
}

/// Per-hub *touched records*: for each hub rank, a sorted
/// `(node, residue bound)` list where the bound dominates the node's max
/// residue over all levels of that hub's backward search (exact right
/// after a search — see
/// [`crate::backward::BackwardSearchResult::touched`] — and maintained as
/// a sound upper bound across clean updates).
///
/// The records drive the dirty filter of [`HubTouchSets::plan_update`].
/// An edge update `(a, b)` perturbs **only `b`'s residues**: the divisor
/// `d_in(b)` changes from `k` to `k'` (scaling every inflow by `k/k'`)
/// and the flow `√c·r_a/k'` from `a` appears or disappears. Nothing else
/// in the search can move unless `b`'s push status or pushed values
/// change, i.e. unless `b`'s residue exceeds the threshold `r_max`
/// before or after the perturbation. So a hub is dirty iff
/// `max(r_b, r_b·k/k' + √c·r_a/k') > r_max` (with the flow term only on
/// insertion; deletion only lowers `b` below its rescaled bound); clean
/// hubs keep byte-identical reserve lists and have `b`'s record replaced
/// by the new bound, which keeps the records sound across arbitrarily
/// long update streams without re-searching.
#[derive(Clone, Debug, Default)]
pub struct HubTouchSets {
    /// `per_hub[rank]` = sorted `(node, residue bound)` of that hub's search.
    per_hub: Vec<Vec<(NodeId, f64)>>,
}

impl HubTouchSets {
    /// Number of hubs tracked.
    #[inline]
    pub fn hub_count(&self) -> usize {
        self.per_hub.len()
    }

    /// Total stored touched entries (memory observability).
    pub fn entry_count(&self) -> usize {
        self.per_hub.iter().map(Vec::len).sum()
    }

    /// The residue bound hub `rank`'s records hold for node `v` (0.0 when
    /// untouched).
    #[inline]
    pub fn max_residue(&self, rank: usize, v: NodeId) -> f64 {
        self.per_hub[rank]
            .binary_search_by_key(&v, |&(x, _)| x)
            .ok()
            .map(|i| self.per_hub[rank][i].1)
            .unwrap_or(0.0)
    }

    /// Whether hub `rank`'s search touched node `v` at all.
    #[inline]
    pub fn touches(&self, rank: usize, v: NodeId) -> bool {
        self.max_residue(rank, v) > 0.0
    }

    /// Classifies edge update `(a, b)` against every hub and returns the
    /// ranks that must be re-searched; clean hubs have `b`'s record
    /// replaced by the new residue bound (rescaled inflows plus, on
    /// insertion, the bound of the flow newly arriving from `a`).
    ///
    /// `old_in_degree_b` is `d_in(b)` in the graph the stored searches
    /// were run on (0 when `b` is a brand-new node); `sqrt_c`/`r_max` are
    /// the searches' decay and residue threshold.
    pub fn plan_update(
        &mut self,
        a: NodeId,
        b: NodeId,
        old_in_degree_b: usize,
        is_insert: bool,
        sqrt_c: f64,
        r_max: f64,
    ) -> Vec<usize> {
        let k = old_in_degree_b as f64;
        let mut dirty = Vec::new();
        for (rank, recs) in self.per_hub.iter_mut().enumerate() {
            let rb_slot = recs.binary_search_by_key(&b, |&(x, _)| x);
            let rb = rb_slot.map(|i| recs[i].1).unwrap_or(0.0);
            // All of b's inflows share the divisor d_in(b): k -> k±1; on
            // insertion a's pushes additionally send at most √c·r_a/(k+1).
            let new_bound = if is_insert {
                let ra = recs
                    .binary_search_by_key(&a, |&(x, _)| x)
                    .ok()
                    .map(|i| recs[i].1)
                    .unwrap_or(0.0);
                (rb * k + sqrt_c * ra) / (k + 1.0)
            } else if old_in_degree_b <= 1 {
                0.0 // b loses its last in-edge: every inflow dies
            } else {
                rb * k / (k - 1.0)
            };
            if rb > r_max || new_bound > r_max {
                dirty.push(rank);
            } else {
                match rb_slot {
                    Ok(i) => recs[i].1 = new_bound,
                    Err(i) if new_bound > 0.0 => recs.insert(i, (b, new_bound)),
                    Err(_) => {}
                }
            }
        }
        dirty
    }
}

/// Out-of-core state of a paged arena: entries `[0, base_entries)` live
/// in a v4 page file behind a budgeted buffer pool; the index's `nodes`
/// / `reserves` vectors hold only the *overlay* — runs appended by
/// repairs after the demotion. `bounds` keeps a single global offset
/// space across both regions, and a run never straddes them (repairs
/// tombstone the old run wholesale and append fresh at the tail).
#[derive(Clone, Debug)]
struct PagedArena {
    /// Shared page cache (clones of the index — e.g. epoch snapshots —
    /// share one pool and therefore one memory budget).
    pool: Arc<BufferPool>,
    /// Number of postings entries served from the page file.
    base_entries: u32,
}

/// The hub index: a flat postings arena behind a CSR offset table (see
/// the module docs for the layout).
#[derive(Clone, Debug)]
pub struct PrsimIndex {
    /// Hub node ids in descending reverse-PageRank order.
    hubs: Vec<NodeId>,
    /// `hub_pos[v] = rank of v among hubs`, or [`NOT_A_HUB`].
    hub_pos: Vec<u32>,
    /// Per-rank location of the hub's offset run.
    slots: Vec<HubSlot>,
    /// CSR offsets into the postings arrays; each hub owns a monotone run
    /// of `levels + 1` entries.
    bounds: Vec<u32>,
    /// Postings: source node ids, grouped by (hub, level). For a paged
    /// arena this is only the overlay (see [`PagedArena`]).
    nodes: Vec<NodeId>,
    /// Postings: parallel reserve values.
    reserves: ReserveArena,
    /// Tombstoned postings entries (superseded by repairs).
    dead_entries: usize,
    /// Tombstoned offset-table slots.
    dead_bounds: usize,
    /// Arena compactions performed.
    compactions: usize,
    /// Present when the base arena lives out of core.
    paged: Option<PagedArena>,
}

/// Equality is *logical*: same hubs, same node universe, same precision
/// and the same per-(hub, level) postings — independent of tombstones,
/// physical arena order, and of whether either side is paged (a paged
/// index compares equal to the resident index it was demoted from; a
/// page fault while comparing yields `false`).
impl PartialEq for PrsimIndex {
    fn eq(&self, other: &Self) -> bool {
        if self.hubs != other.hubs
            || self.hub_pos != other.hub_pos
            || self.reserves.precision() != other.reserves.precision()
        {
            return false;
        }
        let mut sa = PostingsScratch::new();
        let mut sb = PostingsScratch::new();
        (0..self.hubs.len()).all(|rank| {
            if self.level_count(rank) != other.level_count(rank) {
                return false;
            }
            (0..self.level_count(rank)).all(|level| {
                let (a0, a1) = self.range(rank, level);
                let (b0, b1) = other.range(rank, level);
                if a1 - a0 != b1 - b0 {
                    return false;
                }
                if a1 == a0 {
                    return true;
                }
                let (Ok(pa), Ok(pb)) =
                    (self.run_at(a0, a1, &mut sa), other.run_at(b0, b1, &mut sb))
                else {
                    return false;
                };
                let same = pa
                    .iter()
                    .zip(pb.iter())
                    .all(|((va, ra), (vb, rb))| va == vb && ra.to_bits() == rb.to_bits());
                same
            })
        })
    }
}

impl PrsimIndex {
    /// Builds the index for the given hubs (descending-π node ids), with
    /// full-precision reserves.
    ///
    /// `r_max` is the backward-search residue threshold (Algorithm 1 line
    /// 8: `(1−√c)²ε/12`); only reserves above `r_max` are stored (line 15).
    pub fn build(
        g: &DiGraph,
        hubs: Vec<NodeId>,
        sqrt_c: f64,
        r_max: f64,
        max_level: usize,
        build_threads: usize,
    ) -> Self {
        Self::build_tracked_with(
            g,
            hubs,
            sqrt_c,
            r_max,
            max_level,
            build_threads,
            ReservePrecision::F64,
        )
        .0
    }

    /// [`PrsimIndex::build`], additionally returning the per-hub touched
    /// sets the dynamic engine uses to repair only the searches an edge
    /// update can actually have changed.
    pub fn build_tracked(
        g: &DiGraph,
        hubs: Vec<NodeId>,
        sqrt_c: f64,
        r_max: f64,
        max_level: usize,
        build_threads: usize,
    ) -> (Self, HubTouchSets) {
        Self::build_tracked_with(
            g,
            hubs,
            sqrt_c,
            r_max,
            max_level,
            build_threads,
            ReservePrecision::F64,
        )
    }

    /// [`PrsimIndex::build_tracked`] with an explicit reserve precision.
    /// The arena is assembled in one counting pass over the per-hub
    /// search output: entry totals are counted first, the arrays reserved
    /// exactly, then filled in rank order.
    #[allow(clippy::too_many_arguments)] // the build knobs are the config
    pub fn build_tracked_with(
        g: &DiGraph,
        hubs: Vec<NodeId>,
        sqrt_c: f64,
        r_max: f64,
        max_level: usize,
        build_threads: usize,
        precision: ReservePrecision,
    ) -> (Self, HubTouchSets) {
        let n = g.node_count();
        let mut hub_pos = vec![NOT_A_HUB; n];
        for (rank, &w) in hubs.iter().enumerate() {
            hub_pos[w as usize] = rank as u32;
        }

        let searched = Self::search_many(g, &hubs, sqrt_c, r_max, max_level, build_threads);
        let total_entries: usize = searched
            .iter()
            .map(|(lists, _)| lists.iter().map(Vec::len).sum::<usize>())
            .sum();
        let total_bounds: usize = searched.iter().map(|(lists, _)| lists.len() + 1).sum();

        let mut index = PrsimIndex {
            hubs,
            hub_pos,
            slots: Vec::with_capacity(searched.len()),
            bounds: Vec::with_capacity(total_bounds),
            nodes: Vec::with_capacity(total_entries),
            reserves: ReserveArena::with_capacity(precision, total_entries),
            dead_entries: 0,
            dead_bounds: 0,
            compactions: 0,
            paged: None,
        };
        let mut touched = Vec::with_capacity(searched.len());
        for (lists, t) in searched {
            let slot = index.append_run(&lists);
            index.slots.push(slot);
            touched.push(t);
        }

        (index, HubTouchSets { per_hub: touched })
    }

    /// Appends one hub's level lists at the arena tail and returns the
    /// slot describing the new run.
    fn append_run(&mut self, lists: &HubLists) -> HubSlot {
        let bounds_start =
            u32::try_from(self.bounds.len()).expect("offset table exceeds u32 range");
        // Offsets are global: overlay entries of a paged arena start after
        // the page file's base region.
        let base = self.arena_base();
        let post = |len: usize| u32::try_from(len).expect("postings arena exceeds u32 range");
        self.bounds.push(post(base + self.nodes.len()));
        for level in lists {
            for &(v, psi) in level {
                self.nodes.push(v);
                self.reserves.push(psi);
            }
            self.bounds.push(post(base + self.nodes.len()));
        }
        HubSlot {
            bounds_start,
            levels: lists.len() as u32,
        }
    }

    /// Global arena offset where the resident (overlay) region starts:
    /// 0 for a fully resident arena, the page file's entry count when
    /// paged.
    #[inline]
    fn arena_base(&self) -> usize {
        self.paged.as_ref().map_or(0, |p| p.base_entries as usize)
    }

    /// Runs the backward searches for `hubs` (any node list) over
    /// `threads` workers, returning per-hub filtered reserve lists and
    /// touched sets in input order.
    fn search_many(
        g: &DiGraph,
        hubs: &[NodeId],
        sqrt_c: f64,
        r_max: f64,
        max_level: usize,
        threads: usize,
    ) -> Vec<(HubLists, TouchRecord)> {
        let threads = threads.max(1).min(hubs.len().max(1));
        if threads <= 1 || hubs.len() < 4 {
            return hubs
                .iter()
                .map(|&w| Self::search_one(g, w, sqrt_c, r_max, max_level))
                .collect();
        }
        let mut slots: Vec<Option<(HubLists, TouchRecord)>> = vec![None; hubs.len()];
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots_mutex = std::sync::Mutex::new(&mut slots);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= hubs.len() {
                        break;
                    }
                    let result = Self::search_one(g, hubs[i], sqrt_c, r_max, max_level);
                    slots_mutex.lock().expect("no panics hold this lock")[i] = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("all hubs processed"))
            .collect()
    }

    fn search_one(
        g: &DiGraph,
        w: NodeId,
        sqrt_c: f64,
        r_max: f64,
        max_level: usize,
    ) -> (HubLists, TouchRecord) {
        let res = backward_search(g, sqrt_c, w, r_max, max_level);
        let lists = res
            .levels
            .into_iter()
            .map(|level| level.into_iter().filter(|&(_, psi)| psi > r_max).collect())
            .collect();
        (lists, res.touched)
    }

    /// Extends the node universe to `n` (new nodes are non-hubs). Called
    /// by the dynamic engine when edge inserts grow the graph.
    pub fn ensure_nodes(&mut self, n: usize) {
        if n > self.hub_pos.len() {
            self.hub_pos.resize(n, NOT_A_HUB);
        }
    }

    /// Re-runs the backward searches of the hubs at `ranks` against the
    /// (mutated) graph `g`, replacing their postings runs in place and
    /// updating their entries in `touch`. Repairs fan out over `threads`
    /// workers like the build. Only the dirty hubs' runs are rewritten:
    /// the old runs are tombstoned and fresh ones appended at the arena
    /// tail, with amortized compaction once tombstones outnumber live
    /// postings.
    #[allow(clippy::too_many_arguments)] // mirrors build_tracked's signature
    pub fn repair_hubs(
        &mut self,
        g: &DiGraph,
        ranks: &[usize],
        touch: &mut HubTouchSets,
        sqrt_c: f64,
        r_max: f64,
        max_level: usize,
        threads: usize,
    ) {
        let nodes: Vec<NodeId> = ranks.iter().map(|&r| self.hubs[r]).collect();
        let repaired = Self::search_many(g, &nodes, sqrt_c, r_max, max_level, threads);
        for (&rank, (lists, touched)) in ranks.iter().zip(repaired) {
            let old = self.slots[rank];
            let (start, end) = (
                self.bounds[old.bounds_start as usize] as usize,
                self.bounds[(old.bounds_start + old.levels) as usize] as usize,
            );
            self.dead_entries += end - start;
            self.dead_bounds += old.levels as usize + 1;
            self.slots[rank] = self.append_run(&lists);
            touch.per_hub[rank] = touched;
        }
        if self.needs_compaction() {
            self.compact();
        }
    }

    /// Whether tombstones outnumber live data (the DeltaGraph-style
    /// amortized threshold).
    fn needs_compaction(&self) -> bool {
        if self.paged.is_some() {
            // Tombstoned base runs live on disk, not in `nodes`; compaction
            // of a paged arena is a re-demote (`page_out`), decided by the
            // owner, not an in-place rewrite.
            return false;
        }
        let live_entries = self.nodes.len() - self.dead_entries;
        let live_bounds = self.bounds.len() - self.dead_bounds;
        self.dead_entries >= COMPACT_MIN_DEAD.max(live_entries)
            || self.dead_bounds >= COMPACT_MIN_DEAD.max(live_bounds)
    }

    /// Rewrites the arena densely in rank order, dropping all tombstones.
    fn compact(&mut self) {
        let live_entries = self.nodes.len() - self.dead_entries;
        let live_bounds = self.bounds.len() - self.dead_bounds;
        let mut nodes = Vec::with_capacity(live_entries);
        let mut reserves = ReserveArena::with_capacity(self.reserves.precision(), live_entries);
        let mut bounds = Vec::with_capacity(live_bounds);
        let mut slots = Vec::with_capacity(self.slots.len());
        for &slot in &self.slots {
            let bounds_start = bounds.len() as u32;
            bounds.push(nodes.len() as u32);
            for level in 0..slot.levels as usize {
                let b = slot.bounds_start as usize + level;
                let (s, e) = (self.bounds[b] as usize, self.bounds[b + 1] as usize);
                nodes.extend_from_slice(&self.nodes[s..e]);
                reserves.extend_from_range(&self.reserves, s, e);
                bounds.push(nodes.len() as u32);
            }
            slots.push(HubSlot {
                bounds_start,
                levels: slot.levels,
            });
        }
        self.nodes = nodes;
        self.reserves = reserves;
        self.bounds = bounds;
        self.slots = slots;
        self.dead_entries = 0;
        self.dead_bounds = 0;
        self.compactions += 1;
    }

    /// Creates an empty (index-free) instance for a graph with `n` nodes.
    pub fn empty(n: usize) -> Self {
        PrsimIndex {
            hubs: Vec::new(),
            hub_pos: vec![NOT_A_HUB; n],
            slots: Vec::new(),
            bounds: Vec::new(),
            nodes: Vec::new(),
            reserves: ReserveArena::F64(Vec::new()),
            dead_entries: 0,
            dead_bounds: 0,
            compactions: 0,
            paged: None,
        }
    }

    /// Number of hubs `j₀`.
    #[inline]
    pub fn hub_count(&self) -> usize {
        self.hubs.len()
    }

    /// The hub node ids in descending reverse-PageRank order.
    #[inline]
    pub fn hubs(&self) -> &[NodeId] {
        &self.hubs
    }

    /// The arena's reserve precision.
    #[inline]
    pub fn precision(&self) -> ReservePrecision {
        self.reserves.precision()
    }

    /// Whether the postings arena is fully memory-resident. False for a
    /// paged arena ([`Self::open_paged`]).
    #[inline]
    pub fn is_resident(&self) -> bool {
        self.paged.is_none()
    }

    /// Hints the CPU to pull `w`'s hub-membership line toward L1 —
    /// issued one terminal ahead of the [`Self::contains`] /
    /// [`Self::postings`] probe on the fused fold loop. Draw-free and
    /// result-free, like every prefetch in the suite.
    #[inline]
    pub fn prefetch_lookup(&self, w: NodeId) {
        prsim_graph::mem::prefetch_read(&self.hub_pos, w as usize);
    }

    /// Whether `w` is an indexed hub (one offset-table probe).
    #[inline]
    pub fn contains(&self, w: NodeId) -> bool {
        self.hub_pos
            .get(w as usize)
            .is_some_and(|&p| p != NOT_A_HUB)
    }

    /// Number of stored levels for the hub at `rank`.
    #[inline]
    fn level_count(&self, rank: usize) -> usize {
        self.slots[rank].levels as usize
    }

    /// Postings range of `(rank, level)` in the arena arrays. `level`
    /// must be below the hub's level count.
    #[inline]
    fn range(&self, rank: usize, level: usize) -> (usize, usize) {
        let b = self.slots[rank].bounds_start as usize + level;
        (self.bounds[b] as usize, self.bounds[b + 1] as usize)
    }

    /// The postings slice `L_ℓ(w)`, or `None` when `w` is not a hub or
    /// has no entries at that level. One offset-table probe plus two
    /// offset reads; the returned slice scans sequentially.
    ///
    /// **Resident view only**: on a paged arena this resolves overlay
    /// (repaired) runs but returns `None` for runs still in the page
    /// file — callers that must see those use [`Self::postings_in`],
    /// which can fault pages in (and can therefore fail).
    #[inline]
    pub fn postings(&self, w: NodeId, level: usize) -> Option<Postings<'_>> {
        let (s, e) = self.lookup_range(w, level)?;
        self.resident_slice(s, e)
    }

    /// Resolves `(w, level)` to its live global arena range, or `None`
    /// when `w` is not a hub / the level is absent / the run is empty.
    #[inline]
    fn lookup_range(&self, w: NodeId, level: usize) -> Option<(usize, usize)> {
        let pos = *self.hub_pos.get(w as usize)?;
        if pos == NOT_A_HUB {
            return None;
        }
        let rank = pos as usize;
        if level >= self.level_count(rank) {
            return None;
        }
        let (s, e) = self.range(rank, level);
        if s == e {
            return None;
        }
        Some((s, e))
    }

    /// Borrows global range `[s, e)` from the resident vectors, or `None`
    /// when it lives in the page file.
    #[inline]
    fn resident_slice(&self, s: usize, e: usize) -> Option<Postings<'_>> {
        let base = self.arena_base();
        if s < base {
            return None;
        }
        let (s, e) = (s - base, e - base);
        Some(match &self.reserves {
            ReserveArena::F64(r) => Postings::F64 {
                nodes: &self.nodes[s..e],
                reserves: &r[s..e],
            },
            ReserveArena::F32(r) => Postings::F32 {
                nodes: &self.nodes[s..e],
                reserves: &r[s..e],
            },
        })
    }

    /// Reads global range `[s, e)` out of the page file into `scratch`,
    /// verifying checksums page by page and validating the decoded run
    /// exactly as [`Self::from_bytes`] would.
    fn read_base_run<'a>(
        &self,
        s: usize,
        e: usize,
        scratch: &'a mut PostingsScratch,
    ) -> Result<Postings<'a>, PrsimError> {
        let paged = self
            .paged
            .as_ref()
            .expect("read_base_run is only reached below arena_base");
        let len = e - s;
        let width = match self.reserves.precision() {
            ReservePrecision::F64 => 8usize,
            ReservePrecision::F32 => 4,
        };
        let n = self.hub_pos.len();
        let base = paged.base_entries as usize;

        paged
            .pool
            .read_span(s as u64 * 4, len * 4, &mut scratch.raw)?;
        scratch.nodes.clear();
        scratch.nodes.reserve(len);
        for chunk in scratch.raw.chunks_exact(4) {
            let v = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            if v as usize >= n {
                return Err(PrsimError::PageFault(
                    "paged posting node id out of range".to_string(),
                ));
            }
            scratch.nodes.push(v);
        }

        let reserve_start = base as u64 * 4 + s as u64 * width as u64;
        paged
            .pool
            .read_span(reserve_start, len * width, &mut scratch.raw)?;
        let bad_reserve =
            || PrsimError::PageFault("paged reserve not a finite nonnegative value".to_string());
        match self.reserves.precision() {
            ReservePrecision::F64 => {
                scratch.r64.clear();
                scratch.r64.reserve(len);
                for chunk in scratch.raw.chunks_exact(8) {
                    let mut le = [0u8; 8];
                    le.copy_from_slice(chunk);
                    let psi = f64::from_le_bytes(le);
                    if !psi.is_finite() || psi < 0.0 {
                        return Err(bad_reserve());
                    }
                    scratch.r64.push(psi);
                }
                Ok(Postings::F64 {
                    nodes: &scratch.nodes,
                    reserves: &scratch.r64,
                })
            }
            ReservePrecision::F32 => {
                scratch.r32.clear();
                scratch.r32.reserve(len);
                for chunk in scratch.raw.chunks_exact(4) {
                    let psi = f32::from_bits(u32::from_le_bytes([
                        chunk[0], chunk[1], chunk[2], chunk[3],
                    ]));
                    if !psi.is_finite() || psi < 0.0 {
                        return Err(bad_reserve());
                    }
                    scratch.r32.push(psi);
                }
                Ok(Postings::F32 {
                    nodes: &scratch.nodes,
                    reserves: &scratch.r32,
                })
            }
        }
    }

    /// Resolves global range `[s, e)` wherever it lives: a zero-copy
    /// borrow of the resident vectors, or a checksum-verified page-file
    /// read into `scratch`.
    fn run_at<'a>(
        &'a self,
        s: usize,
        e: usize,
        scratch: &'a mut PostingsScratch,
    ) -> Result<Postings<'a>, PrsimError> {
        if s >= self.arena_base() {
            Ok(self
                .resident_slice(s, e)
                .expect("ranges at or above arena_base are resident"))
        } else {
            self.read_base_run(s, e, scratch)
        }
    }

    /// Fallible postings lookup that sees the *whole* arena, paged or
    /// not: `Ok(None)` when `w` has no postings at `level`, `Ok(Some)`
    /// with the run (borrowed from the arena, or staged in `scratch`
    /// after a verified page read), or `Err(PageFault)` when the page
    /// file could not produce the run within the retry budget. Resident
    /// arenas never return `Err`.
    pub fn postings_in<'a>(
        &'a self,
        w: NodeId,
        level: usize,
        scratch: &'a mut PostingsScratch,
    ) -> Result<Option<Postings<'a>>, PrsimError> {
        match self.lookup_range(w, level) {
            None => Ok(None),
            Some((s, e)) => self.run_at(s, e, scratch).map(Some),
        }
    }

    /// Total number of live `(v, ψ)` postings (base region plus overlay,
    /// minus tombstones).
    pub fn entry_count(&self) -> usize {
        self.arena_base() + self.nodes.len() - self.dead_entries
    }

    /// Memory/observability counters (benchmark output).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            hubs: self.hubs.len(),
            entries: self.entry_count(),
            dead_entries: self.dead_entries,
            level_slots: self.bounds.len() - self.dead_bounds - self.slots.len(),
            size_bytes: self.size_bytes(),
            compactions: self.compactions,
        }
    }

    /// Resident size of the index payload in bytes: the postings arrays
    /// (including tombstones awaiting compaction), the offset table, and
    /// the hub tables. For a paged arena this counts only what is
    /// actually in memory — the overlay vectors, the page-index table and
    /// the buffer pool's current frames — not the page file.
    pub fn size_bytes(&self) -> usize {
        let paged = self.paged.as_ref().map_or(0, |p| {
            let s = p.pool.stats();
            s.resident_bytes as usize + s.pages as usize * pagefile::PAGE_ENTRY_BYTES
        });
        self.nodes.len() * 4
            + self.reserves.payload_bytes()
            + self.bounds.len() * 4
            + self.slots.len() * std::mem::size_of::<HubSlot>()
            + self.hubs.len() * 4
            + self.hub_pos.len() * 4
            + paged
    }

    /// Serializes the live arena into a compact binary buffer (format v3;
    /// see the module docs). Deserialize with [`PrsimIndex::from_bytes`],
    /// passing the graph's node count.
    ///
    /// Infallible only for resident arenas; a paged arena must read its
    /// base runs back through the buffer pool, which can fault — paged
    /// callers (e.g. checkpoint writers) use [`Self::try_to_bytes`].
    pub fn to_bytes(&self) -> Bytes {
        self.try_to_bytes()
            .expect("resident index serialization cannot fail; use try_to_bytes for paged arenas")
    }

    /// Fallible [`Self::to_bytes`]: fails with [`PrsimError::PageFault`]
    /// when a paged arena's base runs cannot be read and verified.
    pub fn try_to_bytes(&self) -> Result<Bytes, PrsimError> {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        let flags = match self.reserves.precision() {
            ReservePrecision::F64 => 0,
            ReservePrecision::F32 => FLAG_F32,
        };
        buf.put_u32_le(flags);
        buf.put_u64_le(self.hubs.len() as u64);
        for &h in &self.hubs {
            buf.put_u32_le(h);
        }
        for rank in 0..self.hubs.len() {
            buf.put_u32_le(self.level_count(rank) as u32);
        }
        // Global offset table over the live view: one running total.
        let mut running = 0u32;
        buf.put_u32_le(running);
        for rank in 0..self.hubs.len() {
            for level in 0..self.level_count(rank) {
                let (s, e) = self.range(rank, level);
                running += (e - s) as u32;
                buf.put_u32_le(running);
            }
        }
        let mut scratch = PostingsScratch::new();
        self.for_each_live_run(
            &mut scratch,
            |buf, run| match run {
                Postings::F64 { nodes, .. } | Postings::F32 { nodes, .. } => {
                    for &v in nodes {
                        buf.put_u32_le(v);
                    }
                }
            },
            &mut buf,
        )?;
        self.for_each_live_run(
            &mut scratch,
            |buf, run| match run {
                Postings::F64 { reserves, .. } => {
                    for &psi in reserves {
                        buf.put_f64_le(psi);
                    }
                }
                Postings::F32 { reserves, .. } => {
                    for &psi in reserves {
                        buf.put_u32_le(psi.to_bits());
                    }
                }
            },
            &mut buf,
        )?;
        Ok(buf.freeze())
    }

    /// Visits every non-empty live run in rank/level order (the
    /// serialization order), resolving paged runs through `scratch`.
    fn for_each_live_run<T>(
        &self,
        scratch: &mut PostingsScratch,
        mut visit: impl FnMut(&mut T, Postings<'_>),
        ctx: &mut T,
    ) -> Result<(), PrsimError> {
        for rank in 0..self.hubs.len() {
            for level in 0..self.level_count(rank) {
                let (s, e) = self.range(rank, level);
                if s == e {
                    continue;
                }
                let run = self.run_at(s, e, scratch)?;
                visit(ctx, run);
            }
        }
        Ok(())
    }

    /// Deserializes an index produced by [`PrsimIndex::to_bytes`]; `n` is
    /// the node count of the graph the index belongs to. Every table is
    /// validated (monotone offsets, in-range ids, finite reserves) and
    /// every allocation is bounded by the payload size or by `n`, so
    /// corrupt input yields `Err`, never a panic or an attacker-sized
    /// allocation.
    pub fn from_bytes(mut data: &[u8], n: usize) -> Result<Self, PrsimError> {
        let corrupt = |msg: &str| PrsimError::CorruptIndex(msg.to_string());
        if data.len() < 20 {
            return Err(corrupt("header truncated"));
        }
        let mut magic = [0u8; 8];
        data.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let flags = data.get_u32_le();
        if flags & !FLAG_F32 != 0 {
            return Err(corrupt("unknown format flags"));
        }
        let precision = if flags & FLAG_F32 != 0 {
            ReservePrecision::F32
        } else {
            ReservePrecision::F64
        };
        let reserve_width = match precision {
            ReservePrecision::F64 => 8usize,
            ReservePrecision::F32 => 4,
        };

        let j0 = data.get_u64_le() as usize;
        if j0 > n || data.remaining() < j0.saturating_mul(8) {
            return Err(corrupt("hub table truncated or hub count exceeds n"));
        }
        let mut hubs = Vec::with_capacity(j0);
        let mut hub_pos = vec![NOT_A_HUB; n];
        for rank in 0..j0 {
            let h = data.get_u32_le();
            if h as usize >= n || hub_pos[h as usize] != NOT_A_HUB {
                return Err(corrupt("hub id out of range or duplicated"));
            }
            hubs.push(h);
            hub_pos[h as usize] = rank as u32;
        }

        // Per-hub level counts; their sum sizes the offset table.
        let mut level_counts = Vec::with_capacity(j0);
        let mut total_levels = 0usize;
        for _ in 0..j0 {
            let lc = data.get_u32_le() as usize;
            total_levels = total_levels
                .checked_add(lc)
                .ok_or_else(|| corrupt("level counts overflow"))?;
            level_counts.push(lc);
        }
        if total_levels
            .checked_add(1)
            .and_then(|slots| slots.checked_mul(4))
            .is_none_or(|need| data.remaining() < need)
        {
            return Err(corrupt("offset table exceeds payload"));
        }

        // Global offset table: strictly bounded, non-decreasing, 0-based.
        let mut offsets = Vec::with_capacity(total_levels + 1);
        let mut prev = data.get_u32_le();
        if prev != 0 {
            return Err(corrupt("offset table does not start at 0"));
        }
        offsets.push(prev);
        for _ in 0..total_levels {
            let next = data.get_u32_le();
            if next < prev {
                return Err(corrupt("offset table not monotone"));
            }
            offsets.push(next);
            prev = next;
        }
        let total_postings = prev as usize;
        if total_postings
            .checked_mul(4 + reserve_width)
            .is_none_or(|need| data.remaining() < need)
        {
            return Err(corrupt("postings truncated"));
        }

        let mut nodes = Vec::with_capacity(total_postings);
        for _ in 0..total_postings {
            let v = data.get_u32_le();
            if v as usize >= n {
                return Err(corrupt("posting node id out of range"));
            }
            nodes.push(v);
        }
        let mut reserves = ReserveArena::with_capacity(precision, total_postings);
        for _ in 0..total_postings {
            let psi = match precision {
                ReservePrecision::F64 => data.get_f64_le(),
                ReservePrecision::F32 => f64::from(f32::from_bits(data.get_u32_le())),
            };
            if !psi.is_finite() || psi < 0.0 {
                return Err(corrupt("posting reserve not a finite nonnegative value"));
            }
            reserves.push(psi);
        }
        if data.remaining() > 0 {
            return Err(corrupt("trailing bytes after postings"));
        }

        // Rebuild per-hub offset runs from the shared global table.
        let mut bounds = Vec::with_capacity(total_levels + j0);
        let mut slots = Vec::with_capacity(j0);
        let mut cursor = 0usize;
        for &lc in &level_counts {
            let bounds_start = bounds.len() as u32;
            bounds.extend_from_slice(&offsets[cursor..cursor + lc + 1]);
            cursor += lc;
            slots.push(HubSlot {
                bounds_start,
                levels: lc as u32,
            });
        }

        Ok(PrsimIndex {
            hubs,
            hub_pos,
            slots,
            bounds,
            nodes,
            reserves,
            dead_entries: 0,
            dead_bounds: 0,
            compactions: 0,
            paged: None,
        })
    }

    /// Writes the live arena as a v4 page file at `path` (atomic temp +
    /// fsync + rename + directory sync). Works for resident and paged
    /// arenas alike — the live view is streamed in rank order, so
    /// tombstones are dropped and a paged arena's overlay is folded back
    /// into the base region (this is the paged arena's compaction story).
    pub fn write_paged(
        &self,
        storage: &dyn Storage,
        path: &Path,
        page_bytes: u32,
    ) -> Result<(), PrsimError> {
        let mut level_counts = Vec::with_capacity(self.hubs.len());
        let mut offsets = Vec::with_capacity(self.bounds.len().max(1));
        offsets.push(0u32);
        let mut running = 0u32;
        for rank in 0..self.hubs.len() {
            level_counts.push(self.level_count(rank) as u32);
            for level in 0..self.level_count(rank) {
                let (s, e) = self.range(rank, level);
                running += (e - s) as u32;
                offsets.push(running);
            }
        }
        let entries = running as usize;
        let width = match self.reserves.precision() {
            ReservePrecision::F64 => 8usize,
            ReservePrecision::F32 => 4,
        };
        let mut blob = Vec::with_capacity(entries * (4 + width));
        let mut scratch = PostingsScratch::new();
        self.for_each_live_run(
            &mut scratch,
            |blob: &mut Vec<u8>, run| match run {
                Postings::F64 { nodes, .. } | Postings::F32 { nodes, .. } => {
                    for &v in nodes {
                        blob.extend_from_slice(&v.to_le_bytes());
                    }
                }
            },
            &mut blob,
        )?;
        self.for_each_live_run(
            &mut scratch,
            |blob: &mut Vec<u8>, run| match run {
                Postings::F64 { reserves, .. } => {
                    for &psi in reserves {
                        blob.extend_from_slice(&psi.to_le_bytes());
                    }
                }
                Postings::F32 { reserves, .. } => {
                    for &psi in reserves {
                        blob.extend_from_slice(&psi.to_bits().to_le_bytes());
                    }
                }
            },
            &mut blob,
        )?;
        pagefile::write(
            storage,
            path,
            page_bytes,
            self.reserves.precision(),
            &self.hubs,
            &level_counts,
            &offsets,
            &blob,
        )
    }

    /// Opens a v4 page file as a paged index under a hard memory budget.
    ///
    /// Admission control: the resident tables (hub tables, CSR offsets,
    /// page index) plus the permanently pinned hot set plus one working
    /// frame must fit inside `opts.memory_budget`, else
    /// [`PrsimError::InvalidConfig`] — the budget is refused up front
    /// rather than silently overrun. The spare budget sizes the buffer
    /// pool's hard frame ceiling.
    ///
    /// The hot set is the postings (node *and* reserve pages) of the
    /// `opts.hot_ranks` top-reverse-PageRank hubs — hubs are stored in
    /// rank order, so this is a prefix of the blob's two regions.
    pub fn open_paged(
        storage: Arc<dyn Storage>,
        path: &Path,
        n: usize,
        opts: &PagedOptions,
    ) -> Result<Self, PrsimError> {
        let mut meta = pagefile::open(storage.as_ref(), path, n)?;
        let hubs = std::mem::take(&mut meta.hubs);
        let level_counts = std::mem::take(&mut meta.level_counts);
        let offsets = std::mem::take(&mut meta.offsets);
        let entries = meta.entries;
        let precision = meta.precision;
        let page_bytes = u64::from(meta.page_bytes);
        let width = meta.reserve_width() as u64;

        let mut hub_pos = vec![NOT_A_HUB; n];
        for (rank, &h) in hubs.iter().enumerate() {
            hub_pos[h as usize] = rank as u32;
        }
        let j0 = hubs.len();
        let mut bounds = Vec::with_capacity(offsets.len() + j0);
        let mut slots = Vec::with_capacity(j0);
        let mut cursor = 0usize;
        for &lc in &level_counts {
            let lc = lc as usize;
            let bounds_start = bounds.len() as u32;
            bounds.extend_from_slice(&offsets[cursor..cursor + lc + 1]);
            cursor += lc;
            slots.push(HubSlot {
                bounds_start,
                levels: lc as u32,
            });
        }

        // Hot set: every page touched by the top hubs' node span
        // [0, 4·hot_entries) or reserve span [4E, 4E + w·hot_entries).
        let hot_ranks = opts.hot_ranks.min(j0);
        let hot_levels: usize = level_counts[..hot_ranks].iter().map(|&c| c as usize).sum();
        let hot_entries = u64::from(offsets[hot_levels]);
        let mut hot: Vec<usize> = Vec::new();
        let add_span = |hot: &mut Vec<usize>, start: u64, len: u64| {
            if len > 0 {
                let first = (start / page_bytes) as usize;
                let last = ((start + len - 1) / page_bytes) as usize;
                hot.extend(first..=last);
            }
        };
        add_span(&mut hot, 0, hot_entries * 4);
        add_span(&mut hot, u64::from(entries) * 4, hot_entries * width);
        hot.sort_unstable();
        hot.dedup();

        let meta_resident = meta.pages.len() * pagefile::PAGE_ENTRY_BYTES
            + bounds.len() * 4
            + slots.len() * std::mem::size_of::<HubSlot>()
            + hubs.len() * 4
            + hub_pos.len() * 4;
        let hot_bytes: u64 = hot.iter().map(|&p| u64::from(meta.pages[p].len)).sum();
        let working = if hot.len() < meta.pages.len() {
            page_bytes
        } else {
            0
        };
        let need = meta_resident as u64 + hot_bytes + working;
        if need > opts.memory_budget {
            return Err(PrsimError::InvalidConfig(format!(
                "memory budget {} B refused at admission: resident tables ({meta_resident} B) \
                 + pinned hot set ({hot_bytes} B over {} pages) + one working frame ({working} B) \
                 need {need} B — lower --page-hot or raise the budget",
                opts.memory_budget,
                hot.len(),
            )));
        }
        let spare = opts.memory_budget - meta_resident as u64 - hot_bytes;
        let frame_budget = hot.len() + (spare / page_bytes) as usize;
        let pool = BufferPool::new(storage, path.to_path_buf(), meta, frame_budget, hot)?;

        Ok(PrsimIndex {
            hubs,
            hub_pos,
            slots,
            bounds,
            nodes: Vec::new(),
            reserves: ReserveArena::with_capacity(precision, 0),
            dead_entries: 0,
            dead_bounds: 0,
            compactions: 0,
            paged: Some(PagedArena {
                pool,
                base_entries: entries,
            }),
        })
    }

    /// Demotes the live arena to a v4 page file at `path` and reopens it
    /// paged under `opts`' budget, replacing `self`. On `Err` the index
    /// is left unchanged and still serves from memory (the page-file
    /// write is atomic, so a half-written file is never visible).
    pub fn page_out(
        &mut self,
        storage: Arc<dyn Storage>,
        path: &Path,
        opts: &PagedOptions,
    ) -> Result<(), PrsimError> {
        self.write_paged(storage.as_ref(), path, opts.page_bytes)?;
        *self = Self::open_paged(storage, path, self.hub_pos.len(), opts)?;
        Ok(())
    }

    /// Buffer-pool counters, when the arena is paged.
    pub fn paging_stats(&self) -> Option<PagingStats> {
        self.paged.as_ref().map(|p| p.pool.stats())
    }

    /// Whether the paged arena's pool is carrying an unhealed per-page
    /// fault streak (the serving host folds this into its degraded-mode
    /// health). Always false for resident arenas.
    pub fn paging_unhealthy(&self) -> bool {
        self.paged.as_ref().is_some_and(|p| p.pool.unhealthy())
    }

    /// The paged arena's buffer pool, when the arena is paged — the
    /// integrity scrubber walks its pages ([`BufferPool::page_count`] /
    /// [`BufferPool::scrub_page`]) to re-verify the at-rest file.
    /// Clones of the index (epoch snapshots) share the same pool.
    pub fn paged_pool(&self) -> Option<Arc<BufferPool>> {
        self.paged.as_ref().map(|p| Arc::clone(&p.pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{rank_by_pagerank, reverse_pagerank};
    use prsim_graph::ordering::sort_out_by_in_degree;

    const SQRT_C: f64 = 0.774_596_669_241_483_4;

    fn graph() -> DiGraph {
        let mut g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(200, 6.0, 2.0, 5));
        sort_out_by_in_degree(&mut g);
        g
    }

    fn top_hubs(g: &DiGraph, j0: usize) -> Vec<NodeId> {
        let pi = reverse_pagerank(g, SQRT_C, 1e-10, 64);
        rank_by_pagerank(&pi).into_iter().take(j0).collect()
    }

    fn build(g: &DiGraph, j0: usize, threads: usize) -> PrsimIndex {
        PrsimIndex::build(g, top_hubs(g, j0), SQRT_C, 1e-4, 64, threads)
    }

    fn build_f32(g: &DiGraph, j0: usize) -> PrsimIndex {
        PrsimIndex::build_tracked_with(
            g,
            top_hubs(g, j0),
            SQRT_C,
            1e-4,
            64,
            1,
            ReservePrecision::F32,
        )
        .0
    }

    fn level_entries(idx: &PrsimIndex, w: NodeId, level: usize) -> Vec<(NodeId, f64)> {
        idx.postings(w, level)
            .map(|p| p.iter().collect())
            .unwrap_or_default()
    }

    #[test]
    fn contains_exactly_the_hubs() {
        let g = graph();
        let idx = build(&g, 20, 1);
        assert_eq!(idx.hub_count(), 20);
        let hubs: std::collections::HashSet<_> = idx.hubs().iter().copied().collect();
        for v in g.nodes() {
            assert_eq!(idx.contains(v), hubs.contains(&v));
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        let g = graph();
        let a = build(&g, 24, 1);
        let b = build(&g, 24, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn postings_match_direct_backward_search() {
        let g = graph();
        let idx = build(&g, 8, 2);
        let r_max = 1e-4;
        for &w in idx.hubs() {
            let direct = crate::backward::backward_search(&g, SQRT_C, w, r_max, 64);
            for (l, level) in direct.levels.iter().enumerate() {
                let expect: Vec<(NodeId, f64)> = level
                    .iter()
                    .copied()
                    .filter(|&(_, psi)| psi > r_max)
                    .collect();
                assert_eq!(level_entries(&idx, w, l), expect, "hub {w} level {l}");
            }
        }
    }

    #[test]
    fn f32_postings_are_quantized_f64_postings() {
        let g = graph();
        let wide = build(&g, 16, 1);
        let narrow = build_f32(&g, 16);
        assert_eq!(narrow.precision(), ReservePrecision::F32);
        assert_eq!(wide.entry_count(), narrow.entry_count());
        // Same nodes, reserves quantized through f32 exactly once.
        for &w in wide.hubs() {
            for level in 0..64 {
                let a = level_entries(&wide, w, level);
                let b = level_entries(&narrow, w, level);
                assert_eq!(a.len(), b.len());
                for (&(va, psi_a), &(vb, psi_b)) in a.iter().zip(&b) {
                    assert_eq!(va, vb);
                    assert_eq!(psi_b, f64::from(psi_a as f32), "hub {w} level {level}");
                }
            }
        }
        // The arena payload shrinks by the reserve width difference.
        assert!(
            (narrow.size_bytes() as f64) < 0.72 * wide.size_bytes() as f64,
            "f32 arena {} bytes vs f64 {} bytes",
            narrow.size_bytes(),
            wide.size_bytes()
        );
    }

    #[test]
    fn empty_index_contains_nothing() {
        let idx = PrsimIndex::empty(10);
        assert_eq!(idx.hub_count(), 0);
        assert_eq!(idx.entry_count(), 0);
        assert!(!idx.contains(3));
        assert!(idx.postings(3, 0).is_none());
    }

    #[test]
    fn dirty_tracking_repairs_to_fresh_build() {
        // Apply a random-ish edit stream; after each edit, repairing only
        // the dirty hubs must reproduce a from-scratch tracked build's
        // reserve lists exactly (same hub set, same graph).
        use prsim_graph::delta::DeltaGraph;
        let g = graph();
        let r_max = 1e-3;
        let hubs = top_hubs(&g, 16);
        let (mut idx, mut touch) =
            PrsimIndex::build_tracked(&g, hubs.clone(), SQRT_C, r_max, 64, 2);
        assert_eq!(touch.hub_count(), 16);
        assert!(touch.entry_count() > 0);

        let mut prev = g.clone();
        let mut d = DeltaGraph::new(g);
        let edits = [(5u32, 150u32, true), (0, 199, true), (1, 0, false)];
        for (a, b, insert) in edits {
            let changed = if insert {
                d.insert_edge(a, b)
            } else {
                d.delete_edge(a, b)
            };
            if !changed {
                continue;
            }
            let old_din_b = if (b as usize) < prev.node_count() {
                prev.in_degree(b)
            } else {
                0
            };
            let dirty = touch.plan_update(a, b, old_din_b, insert, SQRT_C, r_max);
            let snap = d.snapshot();
            idx.repair_hubs(&snap, &dirty, &mut touch, SQRT_C, r_max, 64, 2);
            // The repaired index must equal a from-scratch build exactly:
            // dirty hubs are re-searched and clean hubs are unchanged by
            // construction of the dirty rule.
            let (fresh, fresh_touch) =
                PrsimIndex::build_tracked(&snap, hubs.clone(), SQRT_C, r_max, 64, 1);
            assert_eq!(idx, fresh, "after edit ({a}, {b}, insert={insert})");
            // Stored records must dominate the fresh search's residues
            // (they are maintained as sound upper bounds on clean hubs
            // and recomputed exactly on repaired ones).
            for rank in 0..touch.hub_count() {
                for &(v, rf) in &fresh_touch.per_hub[rank] {
                    let stored = touch.max_residue(rank, v);
                    assert!(
                        stored >= rf - 1e-12 * rf.abs(),
                        "hub rank {rank}, node {v}: stored bound {stored} < fresh residue {rf}"
                    );
                }
            }
            prev = snap;
        }
    }

    #[test]
    fn repeated_repairs_tombstone_then_compact() {
        // Repairing the same hubs over and over must keep the logical
        // index identical to a fresh build while the arena tombstones
        // grow and eventually compaction reclaims them.
        let g = graph();
        let hubs = top_hubs(&g, 12);
        let (mut idx, mut touch) = PrsimIndex::build_tracked(&g, hubs.clone(), SQRT_C, 1e-4, 64, 1);
        let fresh = idx.clone();
        let mut saw_dead = false;
        let mut compacted = false;
        // Repairing one hub per round tombstones its run; dead entries
        // accumulate until they outnumber live postings, then one
        // compaction reclaims everything.
        for round in 0..64 {
            idx.repair_hubs(&g, &[round % 12], &mut touch, SQRT_C, 1e-4, 64, 1);
            assert_eq!(idx, fresh, "round {round}");
            saw_dead |= idx.stats().dead_entries > 0;
            compacted |= idx.stats().compactions > 0;
        }
        assert!(saw_dead, "repairs must tombstone superseded runs");
        assert!(compacted, "accumulated tombstones must trip compaction");
        // Tombstones never exceed live entries after the repair loop.
        let s = idx.stats();
        assert!(
            s.dead_entries <= s.entries.max(COMPACT_MIN_DEAD),
            "dead {} vs live {}",
            s.dead_entries,
            s.entries
        );
        // Serialization sees only the live view.
        let back = PrsimIndex::from_bytes(&idx.to_bytes(), g.node_count()).unwrap();
        assert_eq!(back, fresh);
        assert_eq!(back.stats().dead_entries, 0);
    }

    #[test]
    fn ensure_nodes_extends_non_hub_universe() {
        let g = graph();
        let mut idx = build(&g, 8, 1);
        let n = g.node_count();
        idx.ensure_nodes(n + 5);
        assert!(!idx.contains((n + 4) as NodeId));
        assert!(idx.postings((n + 4) as NodeId, 0).is_none());
        // Shrinking is a no-op.
        idx.ensure_nodes(1);
        assert!(idx.contains(idx.hubs()[0]));
    }

    #[test]
    fn serialization_round_trip() {
        let g = graph();
        for idx in [build(&g, 16, 2), build_f32(&g, 16), build(&g, 0, 1)] {
            let bytes = idx.to_bytes();
            let back = PrsimIndex::from_bytes(&bytes, g.node_count()).unwrap();
            assert_eq!(idx, back);
            assert_eq!(idx.precision(), back.precision());
        }
    }

    #[test]
    fn serialization_rejects_corruption() {
        let g = graph();
        let idx = build(&g, 4, 1);
        let bytes = idx.to_bytes().to_vec();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(PrsimIndex::from_bytes(&bad, g.node_count()).is_err());
        // Unknown flags.
        let mut bad = bytes.clone();
        bad[8] |= 0x80;
        assert!(PrsimIndex::from_bytes(&bad, g.node_count()).is_err());
        // Truncations at every prefix boundary we care about.
        for cut in [5usize, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                PrsimIndex::from_bytes(&bytes[..cut], g.node_count()).is_err(),
                "cut {cut} accepted"
            );
        }
    }

    #[test]
    fn serialization_rejects_non_monotone_offsets() {
        let g = graph();
        let idx = build(&g, 4, 1);
        let bytes = idx.to_bytes().to_vec();
        // The offset table sits after magic(8) + flags(4) + j0(8) +
        // hubs(4·j0) + level_counts(4·j0).
        let j0 = idx.hub_count();
        let offsets_at = 8 + 4 + 8 + 4 * j0 + 4 * j0;
        assert!(idx.entry_count() > 0, "test graph must yield postings");
        // Overwrite the second offset with a value above the final total
        // -> a later offset must decrease -> non-monotone.
        let mut bad = bytes.clone();
        bad[offsets_at + 4..offsets_at + 8]
            .copy_from_slice(&(idx.entry_count() as u32 + 7).to_le_bytes());
        let err = PrsimIndex::from_bytes(&bad, g.node_count());
        assert!(err.is_err(), "non-monotone offsets accepted");
        // Offsets must start at zero.
        let mut bad = bytes;
        bad[offsets_at..offsets_at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(PrsimIndex::from_bytes(&bad, g.node_count()).is_err());
    }

    #[test]
    fn size_grows_with_hub_count() {
        let g = graph();
        let small = build(&g, 4, 1);
        let large = build(&g, 64, 1);
        assert!(large.entry_count() > small.entry_count());
        assert!(large.size_bytes() > small.size_bytes());
        let s = large.stats();
        assert_eq!(s.hubs, 64);
        assert_eq!(s.entries, large.entry_count());
        assert_eq!(s.dead_entries, 0);
        assert_eq!(s.size_bytes, large.size_bytes());
    }

    #[test]
    fn smaller_r_max_stores_more() {
        let g = graph();
        let hubs = top_hubs(&g, 10);
        let coarse = PrsimIndex::build(&g, hubs.clone(), SQRT_C, 1e-2, 64, 1);
        let fine = PrsimIndex::build(&g, hubs, SQRT_C, 1e-5, 64, 1);
        assert!(fine.entry_count() > coarse.entry_count());
    }
}
