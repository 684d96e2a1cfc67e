//! Backward walks: randomized, unbiased ℓ-hop RPPR estimators.
//!
//! Paper §3.4. Both algorithms estimate `π_ℓ(v, w)` for **all** `v`
//! simultaneously in `O(n·π(w))` expected time, exploiting the out-lists
//! sorted by in-degree (they only scan the prefix of each list that can
//! receive mass):
//!
//! * [`simple_backward_walk`] — Algorithm 2. Unbiased, optimal expected
//!   cost, but the estimator can reach `(1−√c)·n` on the two-level gadget
//!   (`prsim_gen::toys::two_level_gadget`) and its variance is
//!   unbounded, so no concentration bound applies.
//! * [`variance_bounded_backward_walk`] — Algorithm 3. Same unbiasedness
//!   and cost, plus `Var[π̂_ℓ(v,w)] ≤ π_ℓ(v,w)` (Lemma 3.5), which lets
//!   Algorithm 4 apply Chebyshev + the median trick.
//!
//! Both algorithms run on [`BackwardWorkspace`] reusable frontiers
//! (coalesced sorted vectors — see [`crate::workspace`]) instead of
//! per-level hash maps. The frontier is always iterated in ascending
//! node-id order, which fixes RNG-consumption order: for a fixed seed
//! the `*_with_workspace` variants and the allocating wrappers produce
//! bit-identical estimates. The degree-threshold scans read the targets'
//! in-degrees *inline with the out-adjacency*
//! ([`DiGraph::out_neighbors_with_in_degrees`]) — one sequential stream
//! instead of a random per-neighbor probe. The query engine calls
//! [`variance_bounded_backward_walk_fold_with_workspace`] once per
//! non-hub terminal, folding the estimates straight into its
//! accumulator.

use prsim_graph::{DiGraph, NodeId};
use rand::Rng;

use crate::workspace::BackwardWorkspace;

/// Sparse estimates produced by one backward walk.
#[derive(Clone, Debug, Default)]
pub struct BackwardWalkOutput {
    /// Non-zero estimates `(v, π̂_ℓ(v,w))`, sorted by node id.
    pub estimates: Vec<(NodeId, f64)>,
    /// Number of neighbor visits performed (cost instrumentation).
    pub cost: usize,
}

impl BackwardWalkOutput {
    /// Estimate for `v` (0.0 when absent). Binary search over the
    /// id-sorted estimate list.
    pub fn get(&self, v: NodeId) -> f64 {
        self.estimates
            .binary_search_by_key(&v, |&(node, _)| node)
            .map(|i| self.estimates[i].1)
            .unwrap_or(0.0)
    }
}

/// Borrowed view of one backward walk's estimates, live inside a
/// [`BackwardWorkspace`] until its next use. Entries are sorted by node
/// id.
pub struct BackwardEstimates<'a> {
    entries: &'a [(NodeId, f64)],
    cost: usize,
}

impl BackwardEstimates<'_> {
    /// Number of neighbor visits performed (cost instrumentation).
    #[inline]
    pub fn cost(&self) -> usize {
        self.cost
    }

    /// Number of non-zero estimates.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when every estimate is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimate for `v` (0.0 when absent). Binary search.
    #[inline]
    pub fn get(&self, v: NodeId) -> f64 {
        self.entries
            .binary_search_by_key(&v, |&(node, _)| node)
            .map(|i| self.entries[i].1)
            .unwrap_or(0.0)
    }

    /// Iterates `(v, π̂_ℓ(v,w))` pairs in ascending node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Copies the estimates out into an owned [`BackwardWalkOutput`].
    pub fn to_output(&self) -> BackwardWalkOutput {
        BackwardWalkOutput {
            estimates: self.entries.to_vec(),
            cost: self.cost,
        }
    }
}

fn assert_sorted(g: &DiGraph) {
    assert!(
        g.is_out_sorted_by_in_degree(),
        "backward walks require out-adjacency sorted by in-degree \
         (call prsim_graph::ordering::sort_out_by_in_degree first)"
    );
}

/// Algorithm 2: the simple backward walk (unbounded variance).
///
/// From each node `x` holding estimate mass at level `i`, draw
/// `r ~ U(0,1)` and add the full mass to every out-neighbor `y` with
/// `d_in(y) ≤ √c / r` — an inclusion event of probability
/// `min(1, √c/d_in(y))` giving expectation `√c·mass/d_in(y)`, matching
/// the RPPR recurrence.
///
/// Allocating wrapper over [`simple_backward_walk_with_workspace`].
pub fn simple_backward_walk<R: Rng + ?Sized>(
    g: &DiGraph,
    sqrt_c: f64,
    w: NodeId,
    level: usize,
    rng: &mut R,
) -> BackwardWalkOutput {
    let mut ws = BackwardWorkspace::new();
    simple_backward_walk_with_workspace(g, sqrt_c, w, level, &mut ws, rng).to_output()
}

/// Workspace-reusing form of [`simple_backward_walk`]: no per-call
/// allocation once `ws` has grown to the graph size.
pub fn simple_backward_walk_with_workspace<'ws, R: Rng + ?Sized>(
    g: &DiGraph,
    sqrt_c: f64,
    w: NodeId,
    level: usize,
    ws: &'ws mut BackwardWorkspace,
    rng: &mut R,
) -> BackwardEstimates<'ws> {
    assert_sorted(g);
    let alpha = 1.0 - sqrt_c;
    ws.cur.clear();
    ws.cur.push((w, alpha));
    ws.next.clear();
    let mut cost = 1usize;

    for _ in 0..level {
        // `cur` is sorted and unique: RNG consumption (and therefore the
        // whole estimate) is reproducible for a fixed seed.
        for i in 0..ws.cur.len() {
            let (x, mass) = ws.cur[i];
            cost += 1;
            let r: f64 = rng.gen_range(f64::EPSILON..1.0);
            let bound = sqrt_c / r;
            let (neigh, degs) = g.out_neighbors_with_in_degrees(x);
            for (&y, &d) in neigh.iter().zip(degs) {
                if d as f64 > bound {
                    break; // sorted: nothing further qualifies
                }
                cost += 1;
                ws.next.push((y, mass));
            }
        }
        ws.coalesce_next_into_cur();
        if ws.cur.is_empty() {
            break;
        }
    }

    BackwardEstimates {
        entries: &ws.cur,
        cost,
    }
}

/// Algorithm 3: the Variance Bounded Backward Walk.
///
/// With probability `√c` the mass at `x` is propagated in two phases over
/// the in-degree-sorted out-list:
///
/// 1. **deterministic**: every `y` with `d_in(y) ≤ mass/(1−√c)` receives
///    `mass/d_in(y)` (each such increment is at least `1−√c`);
/// 2. **sampled tail**: draw `r ~ U(0,1)`; every `y` with
///    `mass/(1−√c) < d_in(y) ≤ mass/(r(1−√c))` receives exactly `1−√c`.
///
/// Both phases give expectation `√c·mass/d_in(y)` per neighbor, keeping
/// the estimator unbiased (Lemma 3.3) while capping increments, which is
/// what bounds the variance by the true value (Lemma 3.5).
///
/// Allocating wrapper over
/// [`variance_bounded_backward_walk_with_workspace`].
pub fn variance_bounded_backward_walk<R: Rng + ?Sized>(
    g: &DiGraph,
    sqrt_c: f64,
    w: NodeId,
    level: usize,
    rng: &mut R,
) -> BackwardWalkOutput {
    let mut ws = BackwardWorkspace::new();
    variance_bounded_backward_walk_with_workspace(g, sqrt_c, w, level, &mut ws, rng).to_output()
}

/// Workspace-reusing form of [`variance_bounded_backward_walk`]: no
/// per-call allocation once `ws` has grown to the graph size. This is the
/// form the query engine drives, one call per non-hub terminal.
pub fn variance_bounded_backward_walk_with_workspace<'ws, R: Rng + ?Sized>(
    g: &DiGraph,
    sqrt_c: f64,
    w: NodeId,
    level: usize,
    ws: &'ws mut BackwardWorkspace,
    rng: &mut R,
) -> BackwardEstimates<'ws> {
    assert_sorted(g);
    let alpha = 1.0 - sqrt_c;
    ws.cur.clear();
    ws.cur.push((w, alpha));
    ws.next.clear();
    let mut cost = 1usize;

    for _ in 0..level {
        // Deterministic frontier order (see simple_backward_walk).
        for i in 0..ws.cur.len() {
            let (x, mass) = ws.cur[i];
            cost += 1;
            if rng.gen::<f64>() >= sqrt_c {
                continue; // the walk mass at x stops here
            }
            // Parallel (target, in-degree) streams: the degree threshold
            // scan reads sequentially instead of probing in_degrees[y].
            let (neigh, degs) = g.out_neighbors_with_in_degrees(x);
            let det_bound = mass / alpha;
            let mut idx = 0usize;
            while idx < neigh.len() {
                let d = degs[idx] as f64;
                if d > det_bound {
                    break;
                }
                cost += 1;
                ws.next.push((neigh[idx], mass / d));
                idx += 1;
            }
            if idx == neigh.len() {
                continue; // whole out-list took the deterministic phase
            }
            let r: f64 = rng.gen_range(f64::EPSILON..1.0);
            let tail_bound = mass / (r * alpha);
            while idx < neigh.len() {
                if degs[idx] as f64 > tail_bound {
                    break;
                }
                cost += 1;
                ws.next.push((neigh[idx], alpha));
                idx += 1;
            }
        }
        ws.coalesce_next_into_cur();
        if ws.cur.is_empty() {
            break;
        }
    }

    BackwardEstimates {
        entries: &ws.cur,
        cost,
    }
}

/// Fold-variant of [`variance_bounded_backward_walk_with_workspace`]:
/// the walk's estimates are handed to `fold(v, π̂_ℓ(v,w))` instead of
/// being materialized as a sorted output, and the next level's CSR lines
/// are prefetched while the current level is still being processed.
/// Returns the neighbor-visit cost. This is the query pipeline's
/// backward kernel; the reference oracle
/// ([`crate::Prsim::reference_single_source_with_workspace`])
/// materializes instead.
///
/// Two deliberate contracts versus the materializing walk:
///
/// * **Identical RNG stream.** The frontier sequence through the final
///   level is the same (levels before the last still coalesce into
///   `cur`), so every coin and tail draw is consumed in the same order —
///   a fused query draws bit-for-bit the same walks as a reference
///   query. Prefetches are pure scheduling hints and draw nothing.
/// * **Final level folds raw.** The last level's propagations are
///   emitted in push order without the final coalesce, so a node
///   receiving two increments `d₁, d₂` reaches the accumulator as
///   `s·d₁ + s·d₂` instead of `s·(d₁+d₂)` — the one reassociation the
///   fused pipeline admits against the oracle (pinned at `1e-9` by the
///   differential suite).
pub fn variance_bounded_backward_walk_fold_with_workspace<R, F>(
    g: &DiGraph,
    sqrt_c: f64,
    w: NodeId,
    level: usize,
    ws: &mut BackwardWorkspace,
    rng: &mut R,
    mut fold: F,
) -> usize
where
    R: Rng + ?Sized,
    F: FnMut(NodeId, f64),
{
    assert_sorted(g);
    let alpha = 1.0 - sqrt_c;
    let mut cost = 1usize;
    if level == 0 {
        // π̂_0 = {w: 1−√c} exactly; no draws, matching the reference walk.
        fold(w, alpha);
        return cost;
    }
    ws.cur.clear();
    ws.cur.push((w, alpha));
    ws.next.clear();

    for depth in (1..=level).rev() {
        let last = depth == 1;
        // Deterministic frontier order (see simple_backward_walk).
        for i in 0..ws.cur.len() {
            let (x, mass) = ws.cur[i];
            cost += 1;
            if rng.gen::<f64>() >= sqrt_c {
                continue; // the walk mass at x stops here
            }
            let (neigh, degs) = g.out_neighbors_with_in_degrees(x);
            let det_bound = mass / alpha;
            let mut idx = 0usize;
            while idx < neigh.len() {
                let d = degs[idx] as f64;
                if d > det_bound {
                    break;
                }
                cost += 1;
                let y = neigh[idx];
                if last {
                    fold(y, mass / d);
                } else {
                    // y is (probably) next level's frontier: start its
                    // offset line toward the cache now.
                    g.prefetch_out_offsets(y);
                    ws.next.push((y, mass / d));
                }
                idx += 1;
            }
            if idx < neigh.len() {
                let r: f64 = rng.gen_range(f64::EPSILON..1.0);
                let tail_bound = mass / (r * alpha);
                while idx < neigh.len() {
                    if degs[idx] as f64 > tail_bound {
                        break;
                    }
                    cost += 1;
                    let y = neigh[idx];
                    if last {
                        fold(y, alpha);
                    } else {
                        g.prefetch_out_offsets(y);
                        ws.next.push((y, alpha));
                    }
                    idx += 1;
                }
            }
        }
        if !last {
            // The offsets prefetched above have had a level's worth of
            // work to arrive: chase them into adjacency-data prefetches,
            // then coalesce — by the time the next level's scan issues
            // its demand loads the lines are in flight.
            for &(y, _) in ws.next.iter() {
                g.prefetch_out_lists(y);
            }
            ws.coalesce_next_into_cur();
            if ws.cur.is_empty() {
                return cost;
            }
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::exact_lhop_rppr_to;
    use prsim_graph::ordering::sort_out_by_in_degree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    const SQRT_C: f64 = 0.774_596_669_241_483_4;

    fn sorted(mut g: prsim_graph::DiGraph) -> prsim_graph::DiGraph {
        sort_out_by_in_degree(&mut g);
        g
    }

    /// Mean of `trials` estimates of π̂_ℓ(v,w) for every v with truth > 0.
    fn empirical_mean(
        g: &prsim_graph::DiGraph,
        w: NodeId,
        level: usize,
        trials: usize,
        vbbw: bool,
        seed: u64,
    ) -> HashMap<NodeId, f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc: HashMap<NodeId, f64> = HashMap::new();
        for _ in 0..trials {
            let out = if vbbw {
                variance_bounded_backward_walk(g, SQRT_C, w, level, &mut rng)
            } else {
                simple_backward_walk(g, SQRT_C, w, level, &mut rng)
            };
            for (v, x) in out.estimates {
                *acc.entry(v).or_insert(0.0) += x;
            }
        }
        acc.values_mut().for_each(|x| *x /= trials as f64);
        acc
    }

    #[test]
    fn level_zero_is_exact() {
        let g = sorted(prsim_gen::toys::cycle(4));
        let mut rng = StdRng::seed_from_u64(0);
        for f in [
            simple_backward_walk::<StdRng>,
            variance_bounded_backward_walk::<StdRng>,
        ] {
            let out = f(&g, SQRT_C, 2, 0, &mut rng);
            assert_eq!(out.estimates.len(), 1);
            assert_eq!(out.estimates[0].0, 2);
            assert!((out.estimates[0].1 - (1.0 - SQRT_C)).abs() < 1e-12);
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh() {
        // The same seed must yield the same estimates whether the
        // workspace is fresh per call or reused across calls — and the
        // borrowed view must agree with the allocating wrapper.
        let g = sorted(prsim_gen::chung_lu_undirected(
            prsim_gen::ChungLuConfig::new(120, 5.0, 2.0, 9),
        ));
        let mut reused = BackwardWorkspace::new();
        for (trial, w) in [3u32, 17, 3, 80, 0].into_iter().enumerate() {
            let seed = 100 + trial as u64;
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let fresh = variance_bounded_backward_walk(&g, SQRT_C, w, 4, &mut rng_a);
            let via_ws = variance_bounded_backward_walk_with_workspace(
                &g,
                SQRT_C,
                w,
                4,
                &mut reused,
                &mut rng_b,
            );
            assert_eq!(via_ws.cost(), fresh.cost);
            assert_eq!(via_ws.len(), fresh.estimates.len());
            let collected: Vec<(NodeId, f64)> = via_ws.iter().collect();
            assert_eq!(collected, fresh.estimates, "trial {trial} diverged");
        }
    }

    #[test]
    fn fold_kernel_matches_materialized_walk_and_rng_stream() {
        // The query pipeline consumes the fold kernel; the reference
        // oracle materializes. Same seed ⇒ same RNG consumption (checked by
        // drawing one more value afterwards), same cost, and per-node
        // sums equal up to the documented final-level reassociation.
        use rand::RngCore;
        let g = sorted(prsim_gen::chung_lu_undirected(
            prsim_gen::ChungLuConfig::new(150, 5.0, 2.0, 21),
        ));
        let mut ws_a = BackwardWorkspace::new();
        let mut ws_b = BackwardWorkspace::new();
        for (trial, (w, level)) in [(3u32, 4usize), (17, 1), (3, 6), (90, 3), (0, 0)]
            .into_iter()
            .enumerate()
        {
            let seed = 400 + trial as u64;
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let mut folded: std::collections::BTreeMap<NodeId, f64> = Default::default();
            let cost_a = variance_bounded_backward_walk_fold_with_workspace(
                &g,
                SQRT_C,
                w,
                level,
                &mut ws_a,
                &mut rng_a,
                |v, x| *folded.entry(v).or_insert(0.0) += x,
            );
            let out = variance_bounded_backward_walk_with_workspace(
                &g, SQRT_C, w, level, &mut ws_b, &mut rng_b,
            );
            assert_eq!(cost_a, out.cost(), "trial {trial} cost diverged");
            assert_eq!(
                rng_a.next_u64(),
                rng_b.next_u64(),
                "trial {trial}: fold must consume the exact RNG stream"
            );
            let materialized: std::collections::BTreeMap<NodeId, f64> = out.iter().collect();
            assert_eq!(
                folded.len(),
                materialized.len(),
                "trial {trial} support diverged"
            );
            for (v, x) in &folded {
                let y = materialized[v];
                assert!(
                    (x - y).abs() <= 1e-12 * x.abs().max(1.0),
                    "trial {trial} node {v}: fold {x} vs materialized {y}"
                );
            }
        }
    }

    #[test]
    fn output_get_uses_sorted_order() {
        let out = BackwardWalkOutput {
            estimates: vec![(2, 0.5), (7, 0.25), (9, 0.125)],
            cost: 0,
        };
        assert_eq!(out.get(2), 0.5);
        assert_eq!(out.get(7), 0.25);
        assert_eq!(out.get(9), 0.125);
        assert_eq!(out.get(0), 0.0);
        assert_eq!(out.get(8), 0.0);
        assert_eq!(out.get(100), 0.0);
    }

    #[test]
    fn both_walks_unbiased_on_random_graph() {
        let g = sorted(prsim_gen::chung_lu_undirected(
            prsim_gen::ChungLuConfig::new(60, 4.0, 2.0, 6),
        ));
        let w = 0u32;
        for level in [1usize, 2, 3] {
            let exact = exact_lhop_rppr_to(&g, SQRT_C, w, level);
            for (vbbw, seed) in [(true, 1u64), (false, 2u64)] {
                let mean = empirical_mean(&g, w, level, 60_000, vbbw, seed);
                for v in 0..g.node_count() as u32 {
                    let truth = exact[level][v as usize];
                    let est = mean.get(&v).copied().unwrap_or(0.0);
                    // ~5σ of the empirical mean (Var ≤ truth for VBBW;
                    // similar magnitude here for the simple walk).
                    let tol = 5.0 * (truth.max(1e-4) / 60_000.0).sqrt() + 0.05 * truth;
                    assert!(
                        (est - truth).abs() < tol,
                        "vbbw={vbbw} level={level} v={v}: est {est:.5} vs {truth:.5}"
                    );
                }
            }
        }
    }

    #[test]
    fn vbbw_variance_bounded_by_truth() {
        // Lemma 3.5: Var[π̂] ≤ E[π̂²] ≤ π.
        let g = sorted(prsim_gen::chung_lu_undirected(
            prsim_gen::ChungLuConfig::new(60, 4.0, 2.0, 12),
        ));
        let w = 1u32;
        let level = 2usize;
        let trials = 60_000;
        let exact = exact_lhop_rppr_to(&g, SQRT_C, w, level);
        let mut rng = StdRng::seed_from_u64(3);
        let mut sq: HashMap<NodeId, f64> = HashMap::new();
        for _ in 0..trials {
            let out = variance_bounded_backward_walk(&g, SQRT_C, w, level, &mut rng);
            for (v, x) in out.estimates {
                *sq.entry(v).or_insert(0.0) += x * x;
            }
        }
        for (v, total) in sq {
            let second_moment = total / trials as f64;
            let truth = exact[level][v as usize];
            // Statistical slack: 15% + small absolute.
            assert!(
                second_moment <= truth * 1.15 + 1e-3,
                "v={v}: E[π̂²] = {second_moment:.6} exceeds π = {truth:.6}"
            );
        }
    }

    #[test]
    fn gadget_shows_unbounded_values_and_vbbw_variance_bound() {
        // Paper §3.4: on the two-level gadget all k middle nodes receive
        // π̂₁ = 1−√c simultaneously (one shared r at the source), so the
        // sink estimate π̂₂(v,w) is a sum of up to k copies of (1−√c) —
        // values far above the true π₂ occur regularly, which is why no
        // sub-gaussian tail bound applies to Algorithm 2. The VBBW second
        // moment, in contrast, must respect Lemma 3.5's E[π̂²] ≤ π.
        let k = 64usize;
        let g = sorted(prsim_gen::toys::two_level_gadget(k));
        let w = 0u32; // gadget source
        let v = 1u32; // gadget sink
        let alpha = 1.0 - SQRT_C;
        let trials = 20_000;

        let mut rng = StdRng::seed_from_u64(7);
        let truth = exact_lhop_rppr_to(&g, SQRT_C, w, 2)[2][v as usize];
        let mut max_simple: f64 = 0.0;
        let mut sq_vbbw = 0.0;
        for _ in 0..trials {
            let s = simple_backward_walk(&g, SQRT_C, w, 2, &mut rng).get(v);
            max_simple = max_simple.max(s);
            let b = variance_bounded_backward_walk(&g, SQRT_C, w, 2, &mut rng).get(v);
            sq_vbbw += b * b;
        }
        let second_moment_vbbw = sq_vbbw / trials as f64;

        // π₂(v,w) = (1−√c)·c ≈ 0.135, yet Algorithm 2 regularly outputs
        // multiples of (1−√c): accumulations of 3α or more.
        assert!(
            max_simple >= 3.0 * alpha,
            "expected multi-α accumulation from Algorithm 2, max was {max_simple} (α = {alpha})"
        );
        assert!(
            max_simple > 2.0 * truth,
            "Algorithm 2 max {max_simple} should exceed the true value {truth} by far"
        );
        // Lemma 3.5 for VBBW, with statistical slack.
        assert!(
            second_moment_vbbw <= truth * 1.2 + 1e-3,
            "VBBW E[π̂²] = {second_moment_vbbw} exceeds Lemma 3.5 bound π = {truth}"
        );
    }

    #[test]
    fn cost_scales_with_pagerank_not_n() {
        // Backward-walk cost on w is O(n·π(w)): a low-π leaf must be far
        // cheaper than the global hub.
        let g = sorted(prsim_gen::chung_lu_undirected(
            prsim_gen::ChungLuConfig::new(3_000, 10.0, 1.6, 21),
        ));
        let pi = crate::pagerank::reverse_pagerank(&g, SQRT_C, 1e-10, 64);
        let order = crate::pagerank::rank_by_pagerank(&pi);
        let hub = order[0];
        let leaf = *order.last().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let avg_cost = |w: NodeId, rng: &mut StdRng| {
            let mut total = 0usize;
            for _ in 0..200 {
                total += variance_bounded_backward_walk(&g, SQRT_C, w, 8, rng).cost;
            }
            total as f64 / 200.0
        };
        let hub_cost = avg_cost(hub, &mut rng);
        let leaf_cost = avg_cost(leaf, &mut rng);
        assert!(
            hub_cost > 3.0 * leaf_cost,
            "hub cost {hub_cost} should dwarf leaf cost {leaf_cost}"
        );
    }

    #[test]
    #[should_panic(expected = "sorted by in-degree")]
    fn unsorted_graph_rejected() {
        let g = prsim_gen::toys::cycle(3); // not sorted
        let mut rng = StdRng::seed_from_u64(0);
        let _ = variance_bounded_backward_walk(&g, SQRT_C, 0, 2, &mut rng);
    }

    #[test]
    fn estimates_nonnegative_and_sorted() {
        let g = sorted(prsim_gen::chung_lu_undirected(
            prsim_gen::ChungLuConfig::new(100, 5.0, 2.0, 2),
        ));
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let out = variance_bounded_backward_walk(&g, SQRT_C, 4, 3, &mut rng);
            assert!(out.estimates.iter().all(|&(_, x)| x >= 0.0));
            assert!(out.estimates.windows(2).all(|p| p[0].0 < p[1].0));
        }
    }
}
