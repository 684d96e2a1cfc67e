//! Reverse √c-discounted random walks (√c-walks).
//!
//! A √c-walk from `u` (paper §2) starts at `u` and at every step either
//! *terminates at the current node* with probability `1 − √c` or moves to
//! a uniformly random **in**-neighbor with probability `√c`. A walk that
//! survives its flip at a node with no in-neighbors **dies**: it
//! terminates nowhere (see the crate docs for why this convention keeps
//! `π_ℓ = (1−√c)·h_ℓ` exact).
//!
//! Two walks **meet at step i ≥ 1** when both are alive at step `i` and
//! occupy the same node; `s(u,v)` equals the probability that walks from
//! `u ≠ v` meet at some step.
//!
//! ## Geometric length sampling
//!
//! Instead of flipping a `1 − √c` termination coin at every step, the
//! samplers draw the walk length once: the step count of a √c-walk is
//! geometric with `P(len ≥ k) = (√c)^k`, so `len = ⌊ln(u)/ln(√c)⌋` for
//! `u ~ U(0,1)` has exactly the right law (`u < (√c)^k ⟺ len ≥ k`).
//! One uniform draw plus a logarithm replaces `len + 1` coin flips, and
//! the per-step work drops to just the in-neighbor pick. Death semantics
//! are unchanged: a walk whose drawn length would carry it *past* a node
//! with no in-neighbors (or past `max_len`) dies, because the per-step
//! sampler would have survived its flip there and found nowhere to go.
//! [`sample_terminal_per_step`] keeps the literal per-step transcription
//! as a reference implementation; the equivalence of the two level
//! distributions is asserted statistically in this module's tests and in
//! `tests/determinism.rs`.

use prsim_graph::{DiGraph, NodeId};
use rand::Rng;

/// Draws the step count of one √c-walk: geometric with
/// `P(len ≥ k) = (√c)^k`. Returns `None` when the walk would outlive
/// `max_len` (the caller records [`Terminal::Died`], matching the
/// per-step sampler's cap behavior). `ln_sqrt_c` is `sqrt_c.ln()`,
/// hoisted by callers that sample many walks.
#[inline]
fn sample_geometric_len<R: Rng + ?Sized>(
    ln_sqrt_c: f64,
    max_len: usize,
    rng: &mut R,
) -> Option<usize> {
    let u: f64 = rng.gen();
    if u <= 0.0 {
        return None; // ln(0) = -inf: survives past any cap
    }
    let len = u.ln() / ln_sqrt_c;
    if len >= (max_len + 1) as f64 {
        None
    } else {
        Some(len as usize)
    }
}

/// Precomputed survival table for geometric walk-length draws:
/// `pow[k] = (√c)^k` for `k = 0..=cap+1`.
///
/// `sample_len` inverts the survival function by scanning the table —
/// expected `√c/(1−√c) + 1 ≈ 4.4` L1-resident comparisons for `c = 0.6`,
/// cheaper than the `ln` the table-free path pays, and exactly the same
/// sequence of survival events the per-step sampler realizes one flip at
/// a time. Build once per engine (one table per `(√c, max_level)`), reuse
/// for every walk.
#[derive(Clone, Debug)]
pub struct GeomLenTable {
    pow: Vec<f64>,
    cap: usize,
}

impl GeomLenTable {
    /// Builds the table for decay `sqrt_c` and length cap `cap`.
    pub fn new(sqrt_c: f64, cap: usize) -> Self {
        let mut pow = Vec::with_capacity(cap + 2);
        let mut p = 1.0f64;
        for _ in 0..=cap + 1 {
            pow.push(p);
            p *= sqrt_c;
        }
        GeomLenTable { pow, cap }
    }

    /// The length cap (`max_level`) this table was built for.
    #[inline]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Draws one walk length; `None` means the walk outlives the cap
    /// (dies there). `u < pow[k] ⟺ len ≥ k`.
    #[inline]
    pub fn sample_len<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        let u: f64 = rng.gen();
        let mut k = 0usize;
        while k <= self.cap {
            if u >= self.pow[k + 1] {
                return Some(k);
            }
            k += 1;
        }
        None
    }

    /// [`Self::sample_len`] truncated to the cap: a draw that outlives
    /// the cap is reported as exactly `cap` steps.
    ///
    /// This is the **meeting-window** convention every lockstep pair
    /// kernel uses: a capped walk is still alive through step `cap` —
    /// it dies *at* the cap — so for any event decided within the first
    /// `cap` steps (two walks meeting at some step `i ≤ cap`) the
    /// truncation is exact, matching the per-step sampler flip for flip
    /// (`len_or_cap_matches_per_step_at_the_cap` pins this). It must
    /// **not** be used where the distinction between "terminated at level
    /// `cap`" and "died at the cap" matters, i.e. terminal sampling —
    /// those callers take [`Self::sample_len`]'s `Option` directly.
    #[inline]
    pub fn len_or_cap<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sample_len(rng).unwrap_or(self.cap)
    }
}

/// [`sample_terminal`] with a prebuilt [`GeomLenTable`] — the engine's
/// hot path (no per-call `ln`, no per-step coin flips).
pub fn sample_terminal_with_table<R: Rng + ?Sized>(
    g: &DiGraph,
    table: &GeomLenTable,
    source: NodeId,
    rng: &mut R,
) -> Terminal {
    let Some(len) = table.sample_len(rng) else {
        return Terminal::Died;
    };
    let mut cur = source;
    for _ in 0..len {
        let ins = g.in_neighbors(cur);
        if ins.is_empty() {
            return Terminal::Died;
        }
        cur = ins[rng.gen_range(0..ins.len())];
    }
    Terminal::At {
        node: cur,
        level: len as u32,
    }
}

/// Pre-drawn terminal supplier consulted by
/// [`sample_walk_phase_interleaved`] every time a walk **arrives** at a
/// node (including the source at step 0, *before* the termination flip
/// there).
///
/// By memorylessness of the geometric length, a walk alive on arrival at
/// `x` has a future — remaining step count and terminal — distributed
/// exactly like a fresh √c-walk from `x`, so substituting an independent
/// pre-drawn sample for the remainder leaves the terminal law unchanged
/// (see [`crate::walkcache`] for the full argument and the cache that
/// implements this trait).
pub trait TerminalDraws {
    /// Attempts to consume one pre-drawn sample for a walk arriving at
    /// `node`. `None`: miss, the walk keeps stepping live.
    /// `Some(None)`: the cached walk died. `Some(Some((w, extra)))`: the
    /// remainder terminates at `w` after `extra` further steps.
    fn try_draw<R: Rng + ?Sized>(
        &mut self,
        node: NodeId,
        rng: &mut R,
    ) -> Option<Option<(NodeId, u32)>>;

    /// Attempts to consume one pre-drawn η verdict for terminal `w` —
    /// whether a pair of √c-walks from `w` met at some step `i ≥ 1`.
    /// `None`: miss, the caller runs a live pair.
    fn try_eta<R: Rng + ?Sized>(&mut self, _w: NodeId, _rng: &mut R) -> Option<bool> {
        None
    }
}

/// The cache-free supplier: every lookup misses, so the kernel runs pure
/// live sampling.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoDraws;

impl TerminalDraws for NoDraws {
    #[inline]
    fn try_draw<R: Rng + ?Sized>(
        &mut self,
        _node: NodeId,
        _rng: &mut R,
    ) -> Option<Option<(NodeId, u32)>> {
        None
    }
}

/// Instrumentation of one [`sample_walk_phase_interleaved`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WaveStats {
    /// Walks that died (dangling node, length cap, or a died cached
    /// sample).
    pub died: usize,
    /// Walks resolved by a cached terminal draw ([`TerminalDraws`] hits).
    pub cache_hits: usize,
    /// η tests resolved by a cached verdict bit
    /// ([`TerminalDraws::try_eta`] hits).
    pub eta_hits: usize,
    /// Level-0 samples dropped as diagonal-only.
    pub diagonal: usize,
}

/// The engine's fused walk phase: samples `count` √c-walk terminals from
/// `source` and, for each surviving terminal `(w, ℓ)`, immediately runs
/// its `η(w)` rejection test (one pair of √c-walks from `w`, meeting at
/// some step `i ≥ 1`), all in one `LANES`-way interleaved scheduler with
/// [`TerminalDraws`] hooks on every walk arrival (terminal pools) and
/// every terminal (η verdict pools). Running the η test while the
/// terminal walk's last in-list is still cache-resident removes the
/// coldest access a separate pair pass would pay. Statistically each
/// sample is a [`sample_terminal_with_table`] draw followed by an
/// independent [`sample_walks_meet_with_table`] draw from `(w, w)`.
///
/// **Level-0 samples are dropped** (counted in
/// [`WaveStats::diagonal`]): a walk that terminates before moving sits
/// at the source, and a `(u, 0)` sample's entire downstream
/// contribution — η test, backward walk or index postings — lands
/// exclusively on the diagonal estimate `ŝ(u, u)`, which the engine
/// pins to 1 by definition. Skipping them changes no off-diagonal
/// estimate and saves ~`1 − √c` of the η phase outright, so this kernel
/// is for callers that also pin the diagonal; the general-purpose
/// samplers ([`sample_terminal`], [`sample_terminal_with_table`]) emit
/// level-0 terminals faithfully.
///
/// A cached terminal draw retires the walk on the spot — the pre-drawn
/// sample replaces the entire remaining pointer chase — and a cached η
/// bit skips the pair walk entirely, so on power-law graphs the hottest
/// (top-π) part of the walk mass never touches the adjacency arrays at
/// all. Interleaving keeps up to eight live walks' dependent random
/// loads overlapping in the memory pipeline, which is what wins over
/// one-walk-at-a-time execution (and, on the benchmark box, over
/// level-synchronous sorted wavefronts at every `d_r` tried from 4k to
/// 65k). Completed
/// samples are appended to `out` as `(w, ℓ, met)` in completion order
/// (deterministic for a fixed seed); the kernel draws every walk length
/// in the refill batch, keeping the RNG state hot in registers through
/// the memory-bound stepping loop.
pub fn sample_walk_phase_interleaved<R: Rng + ?Sized, C: TerminalDraws>(
    g: &DiGraph,
    table: &GeomLenTable,
    source: NodeId,
    count: usize,
    cache: &mut C,
    out: &mut Vec<(NodeId, u32, bool)>,
    rng: &mut R,
) -> WaveStats {
    sample_walk_phase_interleaved_impl::<R, C, false>(g, table, source, count, cache, out, rng)
}

/// [`sample_walk_phase_interleaved`] with software prefetch on every
/// lane advance: when a walk steps to `nxt`, the in-offset and in-list
/// lines `nxt` will need on the lane's *next* turn are requested now,
/// so the seven other lanes' work hides the miss instead of the lane
/// stalling on it. Draw-free — the output and the RNG stream are
/// bit-identical to the plain kernel — so the engine's query pipeline
/// uses it while the reference oracle keeps the unhinted baseline.
pub fn sample_walk_phase_interleaved_prefetch<R: Rng + ?Sized, C: TerminalDraws>(
    g: &DiGraph,
    table: &GeomLenTable,
    source: NodeId,
    count: usize,
    cache: &mut C,
    out: &mut Vec<(NodeId, u32, bool)>,
    rng: &mut R,
) -> WaveStats {
    sample_walk_phase_interleaved_impl::<R, C, true>(g, table, source, count, cache, out, rng)
}

fn sample_walk_phase_interleaved_impl<R: Rng + ?Sized, C: TerminalDraws, const PF: bool>(
    g: &DiGraph,
    table: &GeomLenTable,
    source: NodeId,
    count: usize,
    cache: &mut C,
    out: &mut Vec<(NodeId, u32, bool)>,
    rng: &mut R,
) -> WaveStats {
    const LANES: usize = 8;
    let cap = table.cap() as u32;
    #[derive(Clone, Copy)]
    struct Lane {
        /// Walk cursor (walk mode) or pair walk a (pair mode).
        a: NodeId,
        /// Pair walk b (pair mode; unused in walk mode).
        b: NodeId,
        /// The terminal node `w` under η test (pair mode only).
        w: NodeId,
        /// Remaining steps of the current mode.
        rem: u32,
        /// The terminal's (drawn or composed) level ℓ.
        level: u32,
        /// False: sampling the terminal walk; true: running its η pair.
        pair: bool,
    }
    const IDLE: Lane = Lane {
        a: 0,
        b: 0,
        w: 0,
        rem: 0,
        level: 0,
        pair: false,
    };
    let mut lanes = [IDLE; LANES];
    let mut live = 0usize;
    let mut started = 0usize;
    let mut stats = WaveStats::default();

    // Resolves terminal (w, level): a cached η bit retires it inline;
    // otherwise the η pair test starts in lane slot `slot` (zero-step
    // pairs resolve inline to "no meeting"). Returns whether the slot
    // was taken.
    macro_rules! resolve_terminal {
        ($slot:expr, $w:expr, $level:expr) => {{
            match cache.try_eta($w, rng) {
                Some(met) => {
                    stats.eta_hits += 1;
                    out.push(($w, $level, met));
                    false
                }
                None => {
                    let steps = table.len_or_cap(rng).min(table.len_or_cap(rng));
                    if steps == 0 {
                        out.push(($w, $level, false));
                        false
                    } else {
                        if PF {
                            g.prefetch_in_offsets($w);
                            g.prefetch_in_lists($w);
                        }
                        lanes[$slot] = Lane {
                            a: $w,
                            b: $w,
                            w: $w,
                            rem: steps as u32,
                            level: $level,
                            pair: true,
                        };
                        true
                    }
                }
            }
        }};
    }

    // Activates pending walks until the lanes are full. Every walk first
    // offers its source arrival to the cache (the pre-drawn sample covers
    // the termination flip at the source itself); misses draw a length
    // and enter a lane. Level-0 outcomes — drawn or cached — are
    // diagonal-only and dropped on the spot (see the kernel docs).
    macro_rules! refill {
        () => {
            while live < LANES && started < count {
                started += 1;
                match cache.try_draw(source, rng) {
                    Some(sample) => {
                        stats.cache_hits += 1;
                        match sample {
                            Some((_, 0)) => stats.diagonal += 1,
                            Some((w, extra)) => {
                                if resolve_terminal!(live, w, extra) {
                                    live += 1;
                                }
                            }
                            None => stats.died += 1,
                        }
                    }
                    None => match table.sample_len(rng) {
                        None => stats.died += 1,
                        Some(0) => stats.diagonal += 1,
                        Some(len) => {
                            lanes[live] = Lane {
                                a: source,
                                rem: len as u32,
                                level: len as u32,
                                ..IDLE
                            };
                            live += 1;
                        }
                    },
                }
            }
        };
    }

    macro_rules! retire_lane {
        ($lane:expr) => {{
            live -= 1;
            lanes[$lane] = lanes[live];
            refill!();
        }};
    }

    refill!();
    while live > 0 {
        let mut lane = 0usize;
        while lane < live {
            let Lane {
                a,
                b,
                w,
                rem,
                level,
                pair,
            } = lanes[lane];
            if !pair {
                // Terminal-walk mode: one in-neighbor step.
                let ins = g.in_neighbors(a);
                if ins.is_empty() {
                    stats.died += 1;
                    retire_lane!(lane);
                    continue; // the swapped-in walk runs this lane next
                }
                let nxt = ins[rng.gen_range(0..ins.len())];
                // Steps taken after this move; the walk arrives alive,
                // so a cached draw may replace its remainder.
                let taken = level - rem + 1;
                match cache.try_draw(nxt, rng) {
                    Some(sample) => {
                        stats.cache_hits += 1;
                        match sample {
                            Some((tw, extra)) if taken + extra <= cap => {
                                if resolve_terminal!(lane, tw, taken + extra) {
                                    lane += 1;
                                } else {
                                    retire_lane!(lane);
                                }
                            }
                            // Died sample, or the composed walk outlives
                            // the cap: dies either way.
                            _ => {
                                stats.died += 1;
                                retire_lane!(lane);
                            }
                        }
                    }
                    None => {
                        if rem == 1 {
                            // Terminal reached: resolve η while nxt's
                            // in-list is still cache-hot.
                            if resolve_terminal!(lane, nxt, level) {
                                lane += 1;
                            } else {
                                retire_lane!(lane);
                            }
                        } else {
                            if PF {
                                g.prefetch_in_offsets(nxt);
                                g.prefetch_in_lists(nxt);
                            }
                            lanes[lane].a = nxt;
                            lanes[lane].rem = rem - 1;
                            lane += 1;
                        }
                    }
                }
                continue;
            }
            // Pair mode: advance both walks one step in lockstep.
            let ins_a = g.in_neighbors(a);
            if ins_a.is_empty() {
                out.push((w, level, false));
                retire_lane!(lane);
                continue;
            }
            let na = ins_a[rng.gen_range(0..ins_a.len())];
            // η pairs start at (w, w): reuse the slice on the shared step.
            let ins_b = if b == a { ins_a } else { g.in_neighbors(b) };
            if ins_b.is_empty() {
                out.push((w, level, false));
                retire_lane!(lane);
                continue;
            }
            let nb = ins_b[rng.gen_range(0..ins_b.len())];
            if na == nb || rem == 1 {
                out.push((w, level, na == nb));
                retire_lane!(lane);
            } else {
                if PF {
                    g.prefetch_in_offsets(na);
                    g.prefetch_in_lists(na);
                    g.prefetch_in_offsets(nb);
                    g.prefetch_in_lists(nb);
                }
                lanes[lane].a = na;
                lanes[lane].b = nb;
                lanes[lane].rem = rem - 1;
                lane += 1;
            }
        }
    }
    stats
}

/// [`sample_walks_meet`] with a prebuilt [`GeomLenTable`].
pub fn sample_walks_meet_with_table<R: Rng + ?Sized>(
    g: &DiGraph,
    table: &GeomLenTable,
    u: NodeId,
    v: NodeId,
    rng: &mut R,
) -> bool {
    let la = table.len_or_cap(rng);
    let lb = table.len_or_cap(rng);
    let steps = la.min(lb);
    let mut a = u;
    let mut b = v;
    for _ in 0..steps {
        let ins_a = g.in_neighbors(a);
        if ins_a.is_empty() {
            return false;
        }
        a = ins_a[rng.gen_range(0..ins_a.len())];
        let ins_b = g.in_neighbors(b);
        if ins_b.is_empty() {
            return false;
        }
        b = ins_b[rng.gen_range(0..ins_b.len())];
        if a == b {
            return true;
        }
    }
    false
}

/// Where (and whether) a √c-walk terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminal {
    /// The walk terminated at `node` after exactly `level` steps.
    At {
        /// Terminal node `w`.
        node: NodeId,
        /// Number of steps `ℓ` taken before terminating.
        level: u32,
    },
    /// The walk died at a dangling node (survived its flip but had no
    /// in-neighbor to move to) or hit the length cap.
    Died,
}

/// A sampled √c-walk: the sequence of visited nodes plus its terminal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Walk {
    /// Visited nodes `v_0 = source, v_1, …, v_L`; the walk was alive at
    /// step `i` when it occupied `path[i]`.
    pub path: Vec<NodeId>,
    /// How the walk ended.
    pub terminal: Terminal,
}

impl Walk {
    /// The node occupied at step `i`, if the walk lived that long.
    #[inline]
    pub fn at_step(&self, i: usize) -> Option<NodeId> {
        self.path.get(i).copied()
    }

    /// Number of steps the walk stayed alive (`path.len() − 1`).
    #[inline]
    pub fn len(&self) -> usize {
        self.path.len() - 1
    }

    /// True iff the walk never left its source.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.path.len() == 1
    }
}

/// Samples a full √c-walk from `source`, recording the visited path.
///
/// `max_len` caps the number of steps as a safety valve; survival past
/// level `L` has probability `(√c)^L`, so a cap of 64 is lossless for all
/// practical purposes (the cap records [`Terminal::Died`]).
pub fn sample_walk<R: Rng + ?Sized>(
    g: &DiGraph,
    sqrt_c: f64,
    source: NodeId,
    max_len: usize,
    rng: &mut R,
) -> Walk {
    let drawn = sample_geometric_len(sqrt_c.ln(), max_len, rng);
    // A capped walk is still alive (and recordable) for max_len steps —
    // it dies at the cap, exactly like the per-step sampler.
    let steps = drawn.unwrap_or(max_len);
    let mut path = Vec::with_capacity(steps.min(8) + 1);
    path.push(source);
    let mut cur = source;
    for _ in 0..steps {
        let ins = g.in_neighbors(cur);
        if ins.is_empty() {
            return Walk {
                path,
                terminal: Terminal::Died,
            };
        }
        cur = ins[rng.gen_range(0..ins.len())];
        path.push(cur);
    }
    match drawn {
        Some(level) => Walk {
            path,
            terminal: Terminal::At {
                node: cur,
                level: level as u32,
            },
        },
        None => Walk {
            path,
            terminal: Terminal::Died,
        },
    }
}

/// Samples only the terminal of a √c-walk (no path allocation) — the
/// fast path used by Algorithm 4 to draw from `π_ℓ(u, ·)`.
pub fn sample_terminal<R: Rng + ?Sized>(
    g: &DiGraph,
    sqrt_c: f64,
    source: NodeId,
    max_len: usize,
    rng: &mut R,
) -> Terminal {
    let Some(len) = sample_geometric_len(sqrt_c.ln(), max_len, rng) else {
        return Terminal::Died;
    };
    let mut cur = source;
    for _ in 0..len {
        let ins = g.in_neighbors(cur);
        if ins.is_empty() {
            return Terminal::Died;
        }
        cur = ins[rng.gen_range(0..ins.len())];
    }
    Terminal::At {
        node: cur,
        level: len as u32,
    }
}

/// The literal per-step transcription of the √c-walk terminal sampler:
/// one termination flip per level. Kept as the reference implementation
/// that [`sample_terminal`]'s geometric-length optimization is validated
/// against (identical terminal distribution, fewer RNG draws); prefer
/// [`sample_terminal`] everywhere else.
pub fn sample_terminal_per_step<R: Rng + ?Sized>(
    g: &DiGraph,
    sqrt_c: f64,
    source: NodeId,
    max_len: usize,
    rng: &mut R,
) -> Terminal {
    let mut cur = source;
    for level in 0..=max_len {
        if rng.gen::<f64>() >= sqrt_c {
            return Terminal::At {
                node: cur,
                level: level as u32,
            };
        }
        let ins = g.in_neighbors(cur);
        if ins.is_empty() || level == max_len {
            return Terminal::Died;
        }
        cur = ins[rng.gen_range(0..ins.len())];
    }
    unreachable!("loop always returns")
}

/// True iff two walks meet at some step `i ≥ min_step` (both alive at the
/// same node at the same step).
pub fn walks_meet(w1: &Walk, w2: &Walk, min_step: usize) -> bool {
    let upto = w1.path.len().min(w2.path.len());
    (min_step..upto).any(|i| w1.path[i] == w2.path[i])
}

/// Samples two √c-walks from `w` and reports whether they meet at some
/// step `i ≥ 1` — the complement of this event has probability `η(w)`,
/// the paper's last-meeting probability (Definition 2.1).
pub fn sample_pair_meets<R: Rng + ?Sized>(
    g: &DiGraph,
    sqrt_c: f64,
    w: NodeId,
    max_len: usize,
    rng: &mut R,
) -> bool {
    sample_walks_meet(g, sqrt_c, w, w, max_len, rng)
}

/// Samples one √c-walk from `u` and one from `v` in lockstep (no paths
/// materialized) and reports whether they meet at some step `i ≥ 1`.
/// With `u == v` this is the `η(w)` complement event of
/// [`sample_pair_meets`]; with `u ≠ v` the meeting probability is
/// `s(u,v)` itself, which makes this the allocation-free single-pair
/// estimator kernel.
pub fn sample_walks_meet<R: Rng + ?Sized>(
    g: &DiGraph,
    sqrt_c: f64,
    u: NodeId,
    v: NodeId,
    max_len: usize,
    rng: &mut R,
) -> bool {
    let ln_sqrt_c = sqrt_c.ln();
    // A capped (None) walk stays alive through step max_len before dying,
    // so within the meeting window it behaves like a max_len-step walk.
    let la = sample_geometric_len(ln_sqrt_c, max_len, rng).unwrap_or(max_len);
    let lb = sample_geometric_len(ln_sqrt_c, max_len, rng).unwrap_or(max_len);
    // Meetings require both walks alive at the same step.
    let steps = la.min(lb);
    let mut a = u;
    let mut b = v;
    for _ in 0..steps {
        let ins_a = g.in_neighbors(a);
        if ins_a.is_empty() {
            return false; // walk a dies mid-flight
        }
        a = ins_a[rng.gen_range(0..ins_a.len())];
        let ins_b = g.in_neighbors(b);
        if ins_b.is_empty() {
            return false;
        }
        b = ins_b[rng.gen_range(0..ins_b.len())];
        if a == b {
            return true;
        }
    }
    false
}

/// Monte-Carlo estimate of the last-meeting probability `η(w)` from `nr`
/// walk pairs. Exposed for tests and for the SLING baseline's
/// preprocessing (which is exactly this, per node).
pub fn estimate_eta<R: Rng + ?Sized>(
    g: &DiGraph,
    sqrt_c: f64,
    w: NodeId,
    nr: usize,
    max_len: usize,
    rng: &mut R,
) -> f64 {
    let mut no_meet = 0usize;
    for _ in 0..nr {
        if !sample_pair_meets(g, sqrt_c, w, max_len, rng) {
            no_meet += 1;
        }
    }
    no_meet as f64 / nr as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SQRT_C: f64 = 0.774_596_669_241_483_4; // sqrt(0.6)

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn walk_on_isolated_node_terminates_or_dies_at_source() {
        let g = prsim_graph::DiGraph::from_edges(1, &[]);
        let mut r = rng();
        for _ in 0..100 {
            let w = sample_walk(&g, SQRT_C, 0, 64, &mut r);
            assert_eq!(w.path, vec![0]);
            match w.terminal {
                Terminal::At { node, level } => {
                    assert_eq!((node, level), (0, 0));
                }
                Terminal::Died => {}
            }
        }
    }

    #[test]
    fn terminal_distribution_on_cycle() {
        // On a directed cycle every node has exactly one in-neighbor, so a
        // walk from 0 terminates at level l at node (0 - l) mod n with
        // probability (√c)^l (1-√c).
        let n = 5usize;
        let g = prsim_gen::toys::cycle(n);
        let mut r = rng();
        let trials = 200_000;
        let mut died = 0usize;
        let mut level_counts = [0usize; 10];
        for _ in 0..trials {
            match sample_terminal(&g, SQRT_C, 0, 64, &mut r) {
                Terminal::At { node, level } => {
                    if (level as usize) < level_counts.len() {
                        level_counts[level as usize] += 1;
                        // Deterministic position on the cycle.
                        let want =
                            ((n as i64 - level as i64 % n as i64) % n as i64) as u32 % n as u32;
                        assert_eq!(node, want, "level {level}");
                    }
                }
                Terminal::Died => died += 1,
            }
        }
        assert_eq!(died, 0, "no dangling nodes on a cycle");
        for (l, &count) in level_counts.iter().enumerate().take(6) {
            let want = SQRT_C.powi(l as i32) * (1.0 - SQRT_C);
            let got = count as f64 / trials as f64;
            assert!(
                (got - want).abs() < 0.01,
                "level {l}: got {got:.4}, want {want:.4}"
            );
        }
    }

    #[test]
    fn geometric_sampler_matches_per_step_reference() {
        // Satellite determinism test (ii): on a cycle the terminal node is
        // a deterministic function of the level, so matching the per-level
        // distribution of the per-step sampler is matching the full
        // terminal distribution. Two independent seeded streams, same
        // trial count; per-level frequencies must agree within Monte-Carlo
        // noise (~5σ at 120k trials is < 0.006 for p ≤ 0.25).
        let n = 5usize;
        let g = prsim_gen::toys::cycle(n);
        let trials = 120_000;
        let mut geo_counts = [0usize; 8];
        let mut ref_counts = [0usize; 8];
        let mut geo_rng = StdRng::seed_from_u64(0xA11CE);
        let mut ref_rng = StdRng::seed_from_u64(0xB0B);
        for _ in 0..trials {
            if let Terminal::At { node, level } = sample_terminal(&g, SQRT_C, 0, 64, &mut geo_rng) {
                if (level as usize) < geo_counts.len() {
                    geo_counts[level as usize] += 1;
                    let want = ((n as i64 - level as i64 % n as i64) % n as i64) as u32;
                    assert_eq!(node, want, "geometric sampler landed off-cycle");
                }
            }
            if let Terminal::At { level, .. } =
                sample_terminal_per_step(&g, SQRT_C, 0, 64, &mut ref_rng)
            {
                if (level as usize) < ref_counts.len() {
                    ref_counts[level as usize] += 1;
                }
            }
        }
        for l in 0..geo_counts.len() {
            let geo = geo_counts[l] as f64 / trials as f64;
            let per_step = ref_counts[l] as f64 / trials as f64;
            let exact = SQRT_C.powi(l as i32) * (1.0 - SQRT_C);
            assert!(
                (geo - per_step).abs() < 0.008,
                "level {l}: geometric {geo:.4} vs per-step {per_step:.4}"
            );
            assert!(
                (geo - exact).abs() < 0.008,
                "level {l}: geometric {geo:.4} vs exact {exact:.4}"
            );
        }
    }

    #[test]
    fn geometric_sampler_matches_per_step_death_rate() {
        // Dangling-death semantics must survive the geometric rewrite:
        // walk from 1 on the single edge (0, 1) dies iff its drawn length
        // is >= 2 (it would survive its flip at dangling node 0), which is
        // the same c = √c·√c the per-step sampler produces.
        let g = prsim_graph::DiGraph::from_edges(2, &[(0, 1)]);
        let trials = 100_000;
        let mut geo_died = 0usize;
        let mut ref_died = 0usize;
        let mut geo_rng = StdRng::seed_from_u64(1);
        let mut ref_rng = StdRng::seed_from_u64(2);
        for _ in 0..trials {
            if sample_terminal(&g, SQRT_C, 1, 64, &mut geo_rng) == Terminal::Died {
                geo_died += 1;
            }
            if sample_terminal_per_step(&g, SQRT_C, 1, 64, &mut ref_rng) == Terminal::Died {
                ref_died += 1;
            }
        }
        let geo = geo_died as f64 / trials as f64;
        let per_step = ref_died as f64 / trials as f64;
        assert!(
            (geo - per_step).abs() < 0.01,
            "death rates diverge: geometric {geo:.4} vs per-step {per_step:.4}"
        );
    }

    #[test]
    fn table_sampler_matches_geometric_law() {
        let table = GeomLenTable::new(SQRT_C, 64);
        assert_eq!(table.cap(), 64);
        let trials = 120_000;
        let mut counts = [0usize; 8];
        let mut r = rng();
        for _ in 0..trials {
            if let Some(len) = table.sample_len(&mut r) {
                if len < counts.len() {
                    counts[len] += 1;
                }
            }
        }
        for (l, &count) in counts.iter().enumerate() {
            let want = SQRT_C.powi(l as i32) * (1.0 - SQRT_C);
            let got = count as f64 / trials as f64;
            assert!(
                (got - want).abs() < 0.008,
                "len {l}: table {got:.4} vs geometric {want:.4}"
            );
        }
        // Terminal sampling through the table agrees with the ln path on
        // a deterministic topology.
        let g = prsim_gen::toys::cycle(5);
        let mut meets = 0usize;
        for _ in 0..trials {
            if let Terminal::At { node, level } = sample_terminal_with_table(&g, &table, 0, &mut r)
            {
                let want = ((5i64 - level as i64 % 5) % 5) as u32;
                assert_eq!(node, want);
                meets += 1;
            }
        }
        assert_eq!(meets, trials, "no deaths on a cycle");
    }

    #[test]
    fn table_pair_meets_matches_plain_pair_meets() {
        let g = prsim_gen::toys::star_in(4);
        let table = GeomLenTable::new(SQRT_C, 64);
        let mut r = rng();
        let trials = 100_000;
        let (mut plain, mut tabled) = (0usize, 0usize);
        for _ in 0..trials {
            if sample_pair_meets(&g, SQRT_C, 0, 64, &mut r) {
                plain += 1;
            }
            if sample_walks_meet_with_table(&g, &table, 0, 0, &mut r) {
                tabled += 1;
            }
        }
        let (p, t) = (plain as f64 / trials as f64, tabled as f64 / trials as f64);
        assert!((p - t).abs() < 0.01, "plain {p:.4} vs table {t:.4}");
        assert!((t - 0.2).abs() < 0.01, "hub meet rate must be c/3 = 0.2");
    }

    #[test]
    fn two_source_meeting_rate_is_simrank() {
        // star_out leaves share the hub as their only in-neighbor:
        // s(1,2) = c. The path-free two-source kernel must reproduce it.
        let g = prsim_gen::toys::star_out(6);
        let mut r = rng();
        let trials = 100_000;
        let mut meets = 0usize;
        for _ in 0..trials {
            if sample_walks_meet(&g, SQRT_C, 1, 2, 64, &mut r) {
                meets += 1;
            }
        }
        let got = meets as f64 / trials as f64;
        assert!((got - 0.6).abs() < 0.01, "meet rate {got:.4}, want 0.6");
    }

    #[test]
    fn dangling_death_probability() {
        // Path 0 <- nothing; walk from 1 on edge (0, 1): from 1 moves to 0
        // w.p. √c, then 0 has no in-neighbor: dies w.p. √c there.
        let g = prsim_graph::DiGraph::from_edges(2, &[(0, 1)]);
        let mut r = rng();
        let trials = 100_000;
        let mut died = 0usize;
        for _ in 0..trials {
            if sample_terminal(&g, SQRT_C, 1, 64, &mut r) == Terminal::Died {
                died += 1;
            }
        }
        let want = SQRT_C * SQRT_C; // survive at 1, then survive at 0
        let got = died as f64 / trials as f64;
        assert!((got - want).abs() < 0.01, "died {got:.4}, want {want:.4}");
    }

    #[test]
    fn walk_path_never_exceeds_cap() {
        let g = prsim_gen::toys::cycle(3);
        let mut r = rng();
        for _ in 0..1000 {
            let w = sample_walk(&g, 0.99, 0, 16, &mut r);
            assert!(w.len() <= 16);
            if w.len() == 16 {
                // Hitting the cap exactly can be either a flip termination
                // at step 16 or a Died cap record; both are acceptable.
            }
        }
    }

    #[test]
    fn meeting_requires_same_step() {
        let w1 = Walk {
            path: vec![0, 1, 2],
            terminal: Terminal::Died,
        };
        let w2 = Walk {
            path: vec![3, 2, 1],
            terminal: Terminal::Died,
        };
        // They cross but never occupy the same node at the same step.
        assert!(!walks_meet(&w1, &w2, 1));
        let w3 = Walk {
            path: vec![3, 1],
            terminal: Terminal::Died,
        };
        assert!(walks_meet(&w1, &w3, 1));
        // Step 0 ignored when min_step = 1.
        let w4 = Walk {
            path: vec![0, 5],
            terminal: Terminal::Died,
        };
        assert!(!walks_meet(&w1, &w4, 1));
        assert!(walks_meet(&w1, &w4, 0));
    }

    #[test]
    fn eta_is_one_on_a_path_graph() {
        // On 0 -> 1 -> 2 (edges (0,1),(1,2)), in-neighbors are unique, so
        // two walks from any node move in lockstep deterministically...
        // they'd always meet. Instead check the star: leaves have a single
        // in-path of length 0 (no in-neighbors) so walks from the hub can
        // only meet at a leaf.
        let g = prsim_gen::toys::star_in(4); // leaves 1..3 point at hub 0
        let mut r = rng();
        // From a leaf: no in-neighbors, walks never move, never meet: η=1.
        let eta_leaf = estimate_eta(&g, SQRT_C, 1, 20_000, 64, &mut r);
        assert!((eta_leaf - 1.0).abs() < 1e-9);
        // From the hub: both walks survive their flips w.p. c and then
        // pick among 3 leaves; meeting prob = c/3.
        let eta_hub = estimate_eta(&g, SQRT_C, 0, 100_000, 64, &mut r);
        let want = 1.0 - 0.6 / 3.0;
        assert!(
            (eta_hub - want).abs() < 0.01,
            "eta {eta_hub:.4}, want {want:.4}"
        );
    }

    #[test]
    fn fused_walk_phase_drops_diagonal_and_keeps_the_law() {
        // On a cycle the terminal node is a deterministic function of the
        // level and both η walks move in lockstep, meeting iff both
        // survive step 1 (P = c). The engine kernel drops level-0
        // (diagonal-only) samples; everything else must keep the
        // geometric law conditional on level ≥ 1.
        let n = 5usize;
        let g = prsim_gen::toys::cycle(n);
        let table = GeomLenTable::new(SQRT_C, 64);
        let mut r = rng();
        let trials = 120_000usize;
        let mut out = Vec::new();
        let stats =
            sample_walk_phase_interleaved(&g, &table, 0, trials, &mut NoDraws, &mut out, &mut r);
        assert_eq!(
            stats.died + stats.diagonal + out.len(),
            trials,
            "every walk must be accounted for"
        );
        assert_eq!(stats.died, 0, "no dangling nodes on a cycle");
        assert_eq!(stats.cache_hits, 0);
        let diag_rate = stats.diagonal as f64 / trials as f64;
        assert!(
            (diag_rate - (1.0 - SQRT_C)).abs() < 0.008,
            "diagonal (level-0) rate {diag_rate:.4}, want 1-sqrt(c)"
        );
        let mut level_counts = [0usize; 8];
        let mut met = 0usize;
        for &(node, level, m) in &out {
            assert!(level >= 1, "level-0 samples must be dropped");
            let want = ((n as i64 - level as i64 % n as i64) % n as i64) as u32;
            assert_eq!(node, want, "fused kernel must not corrupt walk state");
            if (level as usize) < level_counts.len() {
                level_counts[level as usize] += 1;
            }
            met += m as usize;
        }
        for (l, &count) in level_counts.iter().enumerate().skip(1) {
            let want = SQRT_C.powi(l as i32) * (1.0 - SQRT_C);
            let got = count as f64 / trials as f64;
            assert!(
                (got - want).abs() < 0.008,
                "level {l}: fused {got:.4} vs geometric {want:.4}"
            );
        }
        let met_rate = met as f64 / out.len() as f64;
        assert!(
            (met_rate - 0.6).abs() < 0.008,
            "lockstep meet rate {met_rate:.4}, want c = 0.6"
        );
        // Dangling source: level-0 dropped, the rest die.
        let lonely = prsim_graph::DiGraph::from_edges(1, &[]);
        out.clear();
        let stats = sample_walk_phase_interleaved(
            &lonely,
            &table,
            0,
            10_000,
            &mut NoDraws,
            &mut out,
            &mut r,
        );
        assert!(out.is_empty());
        assert_eq!(stats.died + stats.diagonal, 10_000);
    }

    #[test]
    fn len_or_cap_matches_per_step_at_the_cap() {
        // Satellite pin: with a tiny cap the truncation path fires
        // constantly; P(len_or_cap = k) must match what the per-step
        // sampler realizes one flip at a time, where "reaching the cap"
        // aggregates terminate-at-cap and die-at-cap — exactly the
        // len-or-cap convention. Exact law: P(k) = (√c)^k(1−√c) for
        // k < cap, P(cap) = (√c)^cap.
        const CAP: usize = 3;
        let table = GeomLenTable::new(SQRT_C, CAP);
        let trials = 200_000usize;
        let mut table_counts = [0usize; CAP + 1];
        let mut step_counts = [0usize; CAP + 1];
        let mut tr = StdRng::seed_from_u64(0x11);
        let mut sr = StdRng::seed_from_u64(0x22);
        for _ in 0..trials {
            let k = table.len_or_cap(&mut tr);
            assert!(k <= CAP, "len_or_cap must never exceed the cap");
            table_counts[k] += 1;
            // Per-step reference: flip survival coins until a flip fails
            // or the cap is reached.
            let mut steps = 0usize;
            while steps < CAP && sr.gen::<f64>() < SQRT_C {
                steps += 1;
            }
            step_counts[steps] += 1;
        }
        for k in 0..=CAP {
            let exact = if k < CAP {
                SQRT_C.powi(k as i32) * (1.0 - SQRT_C)
            } else {
                SQRT_C.powi(CAP as i32)
            };
            let t = table_counts[k] as f64 / trials as f64;
            let s = step_counts[k] as f64 / trials as f64;
            assert!(
                (t - exact).abs() < 0.006,
                "k = {k}: len_or_cap {t:.4} vs exact {exact:.4}"
            );
            assert!(
                (t - s).abs() < 0.008,
                "k = {k}: len_or_cap {t:.4} vs per-step {s:.4}"
            );
        }
    }

    #[test]
    fn pair_meeting_on_two_triangles_never_crosses_components() {
        let g = prsim_gen::toys::two_triangles();
        let mut r = rng();
        // Walks from 0 stay in {0,1,2}: meeting of walks from 0 and from 3
        // is impossible; here we just verify sample_pair_meets from one
        // component is deterministic-safe (single in-neighbor: always meet
        // when both survive).
        let mut meets = 0;
        let trials = 50_000;
        for _ in 0..trials {
            if sample_pair_meets(&g, SQRT_C, 0, 64, &mut r) {
                meets += 1;
            }
        }
        // Both survive the first flip w.p. c and then deterministically
        // land on the same unique in-neighbor: meet prob = c + c²(...)
        // — at every step both-alive implies same node, so meet prob is
        // just P(both survive step 1) = c.
        let got = meets as f64 / trials as f64;
        assert!((got - 0.6).abs() < 0.01, "meet rate {got:.4}, want 0.6");
    }
}
