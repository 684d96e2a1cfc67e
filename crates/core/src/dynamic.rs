//! Dynamic-graph support (paper §3.5): incremental index maintenance.
//!
//! The paper observes that PRSim's index — `j₀` backward-search results
//! plus the reverse-PageRank vector — can be maintained under edge
//! insertions/deletions at amortized cost `O(j₀ + m/(ε·k))`, and names
//! the backward-push repair of Zhang, Lofgren & Goel (KDD 2016) as the
//! natural fully-incremental extension. This module implements that
//! extension as [`UpdateMode::Incremental`], with the paper's literal
//! rebuild-on-batch contract retained as [`UpdateMode::RebuildOnBatch`]
//! (it is the differential baseline the test harness and the
//! `dynamic_hot` benchmark compare against).
//!
//! ## The incremental pipeline
//!
//! One applied edge update `(a, b)` runs four repairs — the expensive,
//! super-linear parts of a full `Prsim::build` (the `j₀` backward
//! searches and the cold PageRank solve) shrink to the touched subset,
//! while the graph snapshot and the warm refinement remain cheap linear
//! passes:
//!
//! 1. **Graph**: the [`DeltaGraph`] overlay absorbs the mutation in
//!    `O(d_out + log k)`; a query-ready CSR snapshot is a linear merge, and the
//!    overlay is folded into the base once it exceeds
//!    `compact_threshold`.
//! 2. **Reverse PageRank**: warm-start Richardson refinement from the
//!    previous vector ([`refine_reverse_pagerank`]); after one edge the
//!    initial residual is tiny, so a handful of iterations reach `pr_tol`.
//! 3. **Hub index**: only hubs whose backward search the edge can
//!    actually have changed are re-searched ([`HubTouchSets::plan_update`]
//!    — a sound filter built on per-node residue bounds, see
//!    [`crate::backward::BackwardSearchResult::touched`]). Clean hubs
//!    keep byte-identical reserve lists and just have the target
//!    endpoint's bound rescaled in place.
//! 4. **Drift accounting**: π refinement keeps the *values* exact, but
//!    the hub *selection* (top-`j₀` by π) slowly drifts away from
//!    optimal. The accumulated L1 π-change is charged against
//!    `drift_budget`; exceeding it triggers one full rebuild that
//!    re-selects hubs. Drift never affects correctness — any hub set
//!    answers within ε — only query efficiency.
//!
//! Every query therefore sees a fully fresh engine: there is no
//! staleness window at all in incremental mode. Per-update cost is a
//! small number of linear passes plus repair work proportional to the
//! touched hub searches — `O(n + m)` with a small constant, far below a
//! rebuild (see `BENCH_dynamic.json`), though not sub-linear; a
//! CSR-patching/sparse-push variant is the natural next step if linear
//! passes ever dominate.

use prsim_graph::delta::DeltaGraph;
use prsim_graph::{DiGraph, EdgeUpdate, NodeId};
use rand::Rng;

use crate::config::{DynamicParams, PrsimConfig};
use crate::index::{HubTouchSets, PrsimIndex};
use crate::pagerank::{rank_by_pagerank, refine_reverse_pagerank};
use crate::query::{Prsim, QueryStats};
use crate::scores::SimRankScores;
use crate::PrsimError;

/// Maintenance strategy of a [`DynamicPrsim`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UpdateMode {
    /// Repair incrementally on every applied update (no staleness).
    Incremental(DynamicParams),
    /// Buffer updates and rebuild the whole engine from scratch once
    /// `batch` of them have accumulated (the paper's amortized contract;
    /// queries between rebuilds may see a stale graph).
    RebuildOnBatch {
        /// Updates buffered before a rebuild (`k` in the paper's bound).
        batch: usize,
    },
}

/// Per-update report of what one [`DynamicPrsim::apply`] call did.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateStats {
    /// Whether the update changed the graph (duplicate inserts and
    /// absent deletes are no-ops and skip all maintenance).
    pub applied: bool,
    /// Hubs whose touched sets contained an endpoint (repair candidates).
    pub touched_hubs: usize,
    /// Hub count at the time of the update.
    pub hub_count: usize,
    /// `touched_hubs / hub_count` (0 when index-free).
    pub repair_fraction: f64,
    /// Warm-start PageRank iterations spent.
    pub pr_iterations: usize,
    /// Whether this update tripped the drift budget (or batch) and
    /// caused a full rebuild.
    pub rebuilt: bool,
    /// Whether the delta overlay was compacted into its CSR base.
    pub compacted: bool,
    /// Whether the repair tripped a postings-arena compaction (tombstoned
    /// runs outnumbered live postings).
    pub index_compacted: bool,
    /// Walk-cache pools this update invalidated and refilled (pools whose
    /// walks can traverse the changed adjacency; 0 when the cache is
    /// disabled or the update was absorbed by a full rebuild).
    pub cache_invalidated_pools: usize,
}

/// Lifetime totals of a [`DynamicPrsim`] (observability / benchmarks).
#[derive(Clone, Copy, Debug, Default)]
pub struct DynamicTotals {
    /// Updates that changed the graph.
    pub applied_updates: usize,
    /// Updates that were no-ops.
    pub noop_updates: usize,
    /// Hub searches repaired incrementally.
    pub repaired_hubs: usize,
    /// Full engine rebuilds.
    pub rebuilds: usize,
    /// Delta-overlay compactions.
    pub compactions: usize,
    /// Postings-arena compactions inside the hub index.
    pub index_compactions: usize,
    /// Walk-cache pool invalidations (pools refilled across all updates).
    pub cache_invalidations: usize,
}

/// A PRSim engine over an evolving edge set.
pub struct DynamicPrsim {
    delta: DeltaGraph,
    config: PrsimConfig,
    mode: UpdateMode,
    /// `None` only in rebuild mode between a buffered update and the next
    /// query; incremental mode keeps the engine perpetually fresh.
    engine: Option<Prsim>,
    /// Per-hub touched sets (incremental mode only).
    touch: HubTouchSets,
    /// Accumulated L1 π-drift since the last full (re)build.
    drift: f64,
    /// Buffered updates since the last rebuild (rebuild mode).
    pending: usize,
    totals: DynamicTotals,
}

impl DynamicPrsim {
    /// Creates a dynamic engine over an initial graph with the given
    /// maintenance strategy. The initial build happens eagerly in
    /// incremental mode and lazily (first query) in rebuild mode.
    pub fn new(graph: &DiGraph, config: PrsimConfig, mode: UpdateMode) -> Result<Self, PrsimError> {
        config.validate()?;
        let delta = match mode {
            UpdateMode::Incremental(params) => {
                params.validate()?;
                DeltaGraph::with_threshold(graph.clone(), params.compact_threshold)
            }
            UpdateMode::RebuildOnBatch { batch } => {
                if batch == 0 {
                    return Err(PrsimError::InvalidConfig("batch must be at least 1".into()));
                }
                DeltaGraph::new(graph.clone())
            }
        };
        let mut engine = DynamicPrsim {
            delta,
            config,
            mode,
            engine: None,
            touch: HubTouchSets::default(),
            drift: 0.0,
            pending: 1, // forces the lazy initial build in rebuild mode
            totals: DynamicTotals::default(),
        };
        if matches!(mode, UpdateMode::Incremental(_)) {
            engine.rebuild()?;
        }
        Ok(engine)
    }

    /// Convenience: incremental mode with [`DynamicParams::default`].
    pub fn new_incremental(graph: &DiGraph, config: PrsimConfig) -> Result<Self, PrsimError> {
        Self::new(
            graph,
            config,
            UpdateMode::Incremental(DynamicParams::default()),
        )
    }

    /// Number of nodes (grows automatically with inserted edges).
    pub fn node_count(&self) -> usize {
        self.delta.node_count()
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.delta.edge_count()
    }

    /// The maintenance strategy.
    pub fn mode(&self) -> UpdateMode {
        self.mode
    }

    /// Lifetime maintenance totals.
    pub fn totals(&self) -> DynamicTotals {
        DynamicTotals {
            compactions: self.delta.compactions(),
            ..self.totals
        }
    }

    /// Full engine rebuilds performed so far.
    pub fn rebuilds(&self) -> usize {
        self.totals.rebuilds
    }

    /// Accumulated L1 reverse-PageRank drift since the last rebuild
    /// (always 0 in rebuild mode).
    pub fn drift(&self) -> f64 {
        self.drift
    }

    /// Buffered updates since the last rebuild (rebuild mode; always 0 in
    /// incremental mode, which never buffers).
    pub fn pending_updates(&self) -> usize {
        if self.engine.is_none() {
            self.pending.max(1)
        } else {
            self.pending
        }
    }

    /// True when a query would first trigger a rebuild (rebuild mode's
    /// staleness window; incremental engines are never stale).
    pub fn is_stale(&self) -> bool {
        match self.mode {
            UpdateMode::Incremental(_) => self.engine.is_none(),
            UpdateMode::RebuildOnBatch { batch } => self.engine.is_none() || self.pending >= batch,
        }
    }

    /// Inserts edge `u → v`; returns stats whose `applied` is false if it
    /// already existed (or is a self loop).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateStats, PrsimError> {
        self.apply(EdgeUpdate::Insert(u, v))
    }

    /// Deletes edge `u → v`; returns stats whose `applied` is false if it
    /// was absent.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateStats, PrsimError> {
        self.apply(EdgeUpdate::Delete(u, v))
    }

    /// Applies one edge update under the configured maintenance mode.
    pub fn apply(&mut self, update: EdgeUpdate) -> Result<UpdateStats, PrsimError> {
        let (a, b) = update.endpoints();
        // Dirty hubs are judged against the *pre-update* touched sets; the
        // rule is symmetric in old/new graph, so either side works, but
        // the sets describe the searches currently stored.
        let params = match self.mode {
            UpdateMode::Incremental(p) => Some(p),
            UpdateMode::RebuildOnBatch { .. } => None,
        };
        if !self.delta.apply(update) {
            self.totals.noop_updates += 1;
            return Ok(UpdateStats {
                hub_count: self.touch.hub_count(),
                ..UpdateStats::default()
            });
        }
        self.totals.applied_updates += 1;

        let Some(params) = params else {
            // Rebuild mode: just buffer.
            self.pending = self.pending.saturating_add(1);
            return Ok(UpdateStats {
                applied: true,
                ..UpdateStats::default()
            });
        };

        let mut stats = UpdateStats {
            applied: true,
            hub_count: self.touch.hub_count(),
            ..UpdateStats::default()
        };

        // Classify against the stored searches: `d_in(b)` is read from the
        // engine's graph, which is exactly the graph those searches ran on.
        let old_din_b = {
            let g = self
                .engine
                .as_ref()
                .expect("incremental engine is always built")
                .graph();
            if (b as usize) < g.node_count() {
                g.in_degree(b)
            } else {
                0
            }
        };
        let dirty = self.touch.plan_update(
            a,
            b,
            old_din_b,
            update.is_insert(),
            self.config.sqrt_c(),
            self.config.r_max(),
        );
        stats.touched_hubs = dirty.len();
        if stats.hub_count > 0 {
            stats.repair_fraction = dirty.len() as f64 / stats.hub_count as f64;
        }

        let compactions_before = self.delta.compactions();
        let snapshot = self.delta.snapshot();
        stats.compacted = self.delta.compactions() > compactions_before;

        let (_, mut pi, mut index, config, mut cache) = self
            .engine
            .take()
            .expect("incremental engine is always built")
            .into_parts();
        let n = snapshot.node_count();
        index.ensure_nodes(n);

        let outcome = refine_reverse_pagerank(
            &snapshot,
            config.sqrt_c(),
            params.pr_tol,
            params.pr_max_iter,
            &mut pi,
        );
        stats.pr_iterations = outcome.iterations;
        self.drift += outcome.l1_change;

        if self.drift > params.drift_budget {
            // Too much π movement since the hubs were selected: re-pick
            // hubs and rebuild every search (the amortized escape hatch).
            // The walk cache follows the same escape hatch: drop it and
            // let the reassembly redraw pools for the re-ranked top-π.
            stats.rebuilt = true;
            index = self.rebuild_index_for(&snapshot, &pi);
            cache = None;
        } else {
            if !dirty.is_empty() {
                let compactions_before = index.stats().compactions;
                index.repair_hubs(
                    &snapshot,
                    &dirty,
                    &mut self.touch,
                    config.sqrt_c(),
                    config.r_max(),
                    config.max_level,
                    config.build_threads,
                );
                let compacted = index.stats().compactions - compactions_before;
                stats.index_compacted = compacted > 0;
                self.totals.index_compactions += compacted;
                self.totals.repaired_hubs += dirty.len();
            }
            if let Some(cache) = cache.as_mut() {
                // Invalidate against the *pre-update* reachability masks
                // (the exact dirty criterion for inserts and deletes
                // alike — see walkcache's module docs), then fold an
                // inserted edge into the masks and refill the dirty
                // pools against the updated snapshot.
                cache.ensure_nodes(n);
                let dirty_pools = cache.dirty_pools(b);
                stats.cache_invalidated_pools = dirty_pools.len();
                self.totals.cache_invalidations += dirty_pools.len();
                if update.is_insert() {
                    cache.note_insert(&snapshot, a, b);
                }
                if !dirty_pools.is_empty() {
                    let geom = crate::walk::GeomLenTable::new(config.sqrt_c(), config.max_level);
                    cache.refill(&snapshot, &geom, &dirty_pools);
                }
            }
        }

        let mut engine = Prsim::from_parts_full(snapshot, pi, index, config, cache, None)?;
        engine.ensure_cache_masks();
        self.engine = Some(engine);
        Ok(stats)
    }

    /// Rebuilds the engine from scratch now: re-solves π, re-selects
    /// hubs, re-runs every backward search, clears drift and buffers.
    pub fn refresh(&mut self) -> Result<(), PrsimError> {
        self.rebuild()
    }

    /// Re-selects the top-`j₀` hubs from an already-refined `pi`, rebuilds
    /// every backward search with tracking, and resets the drift clock.
    /// Shared by the drift-budget fallback and the incremental
    /// (re)build; the returned index pairs with the updated `self.touch`.
    fn rebuild_index_for(&mut self, snapshot: &DiGraph, pi: &[f64]) -> PrsimIndex {
        let j0 = self.config.hubs.resolve(
            snapshot.node_count(),
            snapshot.avg_degree(),
            self.config.eps,
        );
        let hubs: Vec<NodeId> = rank_by_pagerank(pi).into_iter().take(j0).collect();
        let (index, touch) = PrsimIndex::build_tracked_with(
            snapshot,
            hubs,
            self.config.sqrt_c(),
            self.config.r_max(),
            self.config.max_level,
            self.config.build_threads,
            self.config.reserve_precision,
        );
        self.touch = touch;
        self.drift = 0.0;
        self.totals.rebuilds += 1;
        index
    }

    fn rebuild(&mut self) -> Result<(), PrsimError> {
        let snapshot = self.delta.snapshot();
        match self.mode {
            UpdateMode::Incremental(params) => {
                let mut pi = Vec::new();
                refine_reverse_pagerank(
                    &snapshot,
                    self.config.sqrt_c(),
                    params.pr_tol,
                    params.pr_max_iter.max(256),
                    &mut pi,
                );
                let index = self.rebuild_index_for(&snapshot, &pi);
                let mut engine =
                    Prsim::from_parts_full(snapshot, pi, index, self.config.clone(), None, None)?;
                engine.ensure_cache_masks();
                self.engine = Some(engine);
            }
            UpdateMode::RebuildOnBatch { .. } => {
                self.engine = Some(Prsim::build(snapshot, self.config.clone())?);
                self.touch = HubTouchSets::default();
                self.drift = 0.0;
                self.totals.rebuilds += 1;
            }
        }
        self.pending = 0;
        Ok(())
    }

    /// Answers a single-source query. In incremental mode the engine is
    /// always fresh; in rebuild mode a stale engine is rebuilt first.
    pub fn single_source<R: Rng + ?Sized>(
        &mut self,
        u: NodeId,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        if self.is_stale() {
            self.rebuild()?;
        }
        self.engine
            .as_ref()
            .expect("engine built by rebuild")
            .try_single_source(u, rng)
    }

    /// The current engine, if built (None before the first query/refresh
    /// in rebuild mode).
    pub fn engine(&self) -> Option<&Prsim> {
        self.engine.as_ref()
    }

    /// Demotes the engine's postings arena to a paged on-disk file under
    /// a hard memory budget ([`Prsim::page_out_index`]). No-op when no
    /// engine is built yet (rebuild mode before the first refresh); the
    /// next rebuild produces a resident index the caller can demote
    /// again.
    pub fn page_out_index(
        &mut self,
        storage: std::sync::Arc<dyn prsim_storage::Storage>,
        path: &std::path::Path,
        opts: &crate::paging::PagedOptions,
    ) -> Result<(), PrsimError> {
        match self.engine.as_mut() {
            Some(engine) => engine.page_out_index(storage, path, opts),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QueryParams;
    use prsim_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> PrsimConfig {
        PrsimConfig {
            eps: 0.1,
            query: QueryParams::Explicit { dr: 2_000, fr: 1 },
            ..Default::default()
        }
    }

    fn incremental(graph: &DiGraph, params: DynamicParams) -> DynamicPrsim {
        DynamicPrsim::new(graph, config(), UpdateMode::Incremental(params)).unwrap()
    }

    /// Fresh engine over the dynamic engine's current edge set.
    fn fresh_engine(engine: &DynamicPrsim) -> Prsim {
        let mut b = GraphBuilder::new();
        b.ensure_nodes(engine.node_count());
        for (u, v) in engine.engine().expect("built").graph().edges() {
            b.add_edge(u, v);
        }
        Prsim::build(b.build(), config()).unwrap()
    }

    #[test]
    fn incremental_matches_fresh_build_after_updates() {
        let g0 = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(80, 5.0, 2.0, 3));
        let mut dyn_engine = DynamicPrsim::new_incremental(&g0, config()).unwrap();
        dyn_engine.insert_edge(0, 79).unwrap();
        dyn_engine.insert_edge(79, 0).unwrap();
        let (du, dv) = g0.edges().next().expect("graph has edges");
        assert!(dyn_engine.delete_edge(du, dv).unwrap().applied);

        // Without a drift rebuild the hub set matches a fresh build
        // exactly, and answers agree within the Monte-Carlo budget (the
        // CSR merge orders in-neighbors differently than a from-scratch
        // build, so the two engines consume their RNGs differently —
        // same estimator distribution, different realization).
        assert_eq!(dyn_engine.rebuilds(), 1, "initial build only");
        let fresh = fresh_engine(&dyn_engine);
        assert_eq!(
            fresh.index().hubs(),
            dyn_engine.engine().unwrap().index().hubs(),
            "hub sets agree without drift rebuild"
        );
        let (scores_dyn, _) = dyn_engine
            .single_source(5, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let scores_fresh = fresh.single_source(5, &mut StdRng::seed_from_u64(9));
        let diff = scores_dyn.max_abs_diff(&scores_fresh);
        assert!(diff < 0.1, "incremental vs fresh diff {diff}");
    }

    #[test]
    fn update_stats_report_repairs() {
        let g0 = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(100, 5.0, 2.0, 17));
        let mut engine = DynamicPrsim::new_incremental(&g0, config()).unwrap();
        let stats = engine.insert_edge(3, 97).unwrap();
        assert!(stats.applied);
        assert_eq!(stats.hub_count, 10); // ceil(sqrt(100))
        assert!(stats.repair_fraction <= 1.0);
        assert_eq!(
            stats.touched_hubs as f64 / stats.hub_count as f64,
            stats.repair_fraction
        );
        assert!(!stats.rebuilt);
        // No-ops skip maintenance entirely.
        let noop = engine.insert_edge(3, 97).unwrap();
        assert!(!noop.applied);
        assert_eq!(noop.pr_iterations, 0);
        assert_eq!(engine.totals().noop_updates, 1);
        assert_eq!(engine.totals().applied_updates, 1);
    }

    #[test]
    fn drift_budget_triggers_full_rebuild() {
        let g0 = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(60, 4.0, 2.0, 5));
        let params = DynamicParams {
            drift_budget: 1e-12, // any movement trips it
            ..Default::default()
        };
        let mut engine = incremental(&g0, params);
        let before = engine.rebuilds();
        let stats = engine.insert_edge(0, 59).unwrap();
        assert!(stats.rebuilt);
        assert_eq!(engine.rebuilds(), before + 1);
        assert_eq!(engine.drift(), 0.0, "rebuild resets drift");

        // A generous budget never rebuilds across a long stream. (On a
        // 60-node graph each edge moves a visible fraction of the total π
        // mass, so this must be far above the large-graph default.)
        let mut lazy = incremental(
            &g0,
            DynamicParams {
                drift_budget: 100.0,
                ..Default::default()
            },
        );
        for i in 0..20u32 {
            lazy.insert_edge(i % 60, (i * 7 + 1) % 60).unwrap();
        }
        assert_eq!(lazy.rebuilds(), 1, "only the initial build");
        assert!(lazy.drift() > 0.0);
    }

    #[test]
    fn rebuild_mode_batching_amortizes() {
        let g0 = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(60, 4.0, 2.0, 5));
        let mut engine =
            DynamicPrsim::new(&g0, config(), UpdateMode::RebuildOnBatch { batch: 10 }).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = engine.single_source(0, &mut rng).unwrap(); // initial build
        assert_eq!(engine.rebuilds(), 1);
        for i in 0..9u32 {
            engine.insert_edge(i, 59 - i).unwrap();
            let _ = engine.single_source(0, &mut rng).unwrap();
        }
        // 9 updates < batch of 10: no rebuild yet.
        assert_eq!(engine.rebuilds(), 1);
        engine.insert_edge(40, 41).unwrap();
        let _ = engine.single_source(0, &mut rng).unwrap();
        assert_eq!(engine.rebuilds(), 2);
        assert_eq!(engine.pending_updates(), 0);
    }

    #[test]
    fn duplicate_and_missing_edges_are_noops() {
        let g0 = prsim_gen::toys::cycle(5);
        let mut engine = DynamicPrsim::new_incremental(&g0, config()).unwrap();
        assert!(!engine.insert_edge(0, 1).unwrap().applied); // already present
        assert!(!engine.delete_edge(2, 4).unwrap().applied); // absent
        assert!(engine.insert_edge(0, 2).unwrap().applied);
        assert!(engine.delete_edge(0, 2).unwrap().applied);
        assert_eq!(engine.edge_count(), 5);
    }

    #[test]
    fn node_universe_grows() {
        let g0 = prsim_gen::toys::cycle(4);
        let mut engine = DynamicPrsim::new_incremental(&g0, config()).unwrap();
        engine.insert_edge(3, 10).unwrap();
        assert_eq!(engine.node_count(), 11);
        let (scores, _) = engine
            .single_source(10, &mut StdRng::seed_from_u64(3))
            .unwrap();
        assert_eq!(scores.get(10), 1.0);
        // Querying the new node range works in rebuild mode too.
        let g0 = prsim_gen::toys::cycle(4);
        let mut engine =
            DynamicPrsim::new(&g0, config(), UpdateMode::RebuildOnBatch { batch: 1 }).unwrap();
        engine.insert_edge(3, 10).unwrap();
        let (scores, _) = engine
            .single_source(10, &mut StdRng::seed_from_u64(3))
            .unwrap();
        assert_eq!(scores.get(10), 1.0);
    }

    #[test]
    fn similarity_responds_to_edits() {
        // star_out: leaves share the hub as only in-neighbor, s = c.
        // After deleting a leaf's in-edge its similarity must drop to 0.
        // dr is raised beyond the other tests' budget because cached
        // queries share their source pool's realization: the pool draw
        // adds a correlated noise term on top of the per-query window,
        // and the 0.06 tolerance needs both comfortably inside 4σ.
        let g0 = prsim_gen::toys::star_out(5);
        let cfg = PrsimConfig {
            query: QueryParams::Explicit { dr: 8_000, fr: 1 },
            ..config()
        };
        let mut engine = DynamicPrsim::new_incremental(&g0, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let (before, _) = engine.single_source(1, &mut rng).unwrap();
        assert!((before.get(2) - 0.6).abs() < 0.06);
        engine.delete_edge(0, 2).unwrap();
        let (after, _) = engine.single_source(1, &mut rng).unwrap();
        assert_eq!(after.get(2), 0.0, "node 2 lost its only in-neighbor");
    }

    #[test]
    fn compaction_threshold_is_respected() {
        let g0 = prsim_gen::toys::cycle(8);
        let params = DynamicParams {
            compact_threshold: 3,
            ..Default::default()
        };
        let mut engine = incremental(&g0, params);
        let mut compactions = 0;
        for i in 0..9u32 {
            let stats = engine.insert_edge(i % 8, (i + 3) % 8).unwrap();
            if stats.applied && stats.compacted {
                compactions += 1;
            }
        }
        assert!(compactions >= 1, "threshold 3 must compact within 9 edits");
        assert_eq!(engine.totals().compactions, compactions);
    }

    #[test]
    fn cache_invalidation_counters_report_dirty_pools() {
        // star_out(5): hub 0 feeds leaves 1..4; walks from a leaf visit
        // only {leaf, 0}. With every node cached, an edge into leaf 2
        // dirties exactly the pools whose walks can visit 2 — pool 2
        // itself (plus any node that out-reaches 2; here none but 2).
        let g0 = prsim_gen::toys::star_out(5);
        let cfg = PrsimConfig {
            walk_cache_budget: 8,
            ..config()
        };
        // Permissive drift budget: a drift rebuild redraws the whole
        // cache (and legitimately reports 0 invalidations), which is not
        // the path under test here.
        let params = DynamicParams {
            drift_budget: 1e9,
            ..Default::default()
        };
        let mut engine = DynamicPrsim::new(&g0, cfg, UpdateMode::Incremental(params)).unwrap();
        let eng = engine.engine().unwrap();
        let cache = eng.walk_cache().expect("cache enabled");
        assert!(cache.has_masks(), "dynamic engine must build masks");
        assert_eq!(cache.pool_count(), 5);

        let stats = engine.insert_edge(1, 2).unwrap();
        assert!(stats.applied);
        assert_eq!(
            stats.cache_invalidated_pools, 1,
            "only node 2's own pool can walk through node 2"
        );
        // An edge into the hub 0 dirties every pool: all leaves' walks
        // traverse 0.
        let stats = engine.insert_edge(3, 0).unwrap();
        assert!(stats.applied);
        assert_eq!(stats.cache_invalidated_pools, 5);
        assert_eq!(engine.totals().cache_invalidations, 6);
        // No-op updates skip cache maintenance entirely.
        let noop = engine.insert_edge(1, 2).unwrap();
        assert!(!noop.applied);
        assert_eq!(noop.cache_invalidated_pools, 0);
        assert_eq!(engine.totals().cache_invalidations, 6);
        // Cache disabled: counters stay zero across applied updates.
        let mut plain = DynamicPrsim::new(
            &prsim_gen::toys::star_out(5),
            PrsimConfig {
                walk_cache_budget: 0,
                ..config()
            },
            UpdateMode::Incremental(params),
        )
        .unwrap();
        let stats = plain.insert_edge(1, 2).unwrap();
        assert!(stats.applied);
        assert_eq!(stats.cache_invalidated_pools, 0);
        assert_eq!(plain.totals().cache_invalidations, 0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let g0 = prsim_gen::toys::cycle(3);
        assert!(DynamicPrsim::new(&g0, config(), UpdateMode::RebuildOnBatch { batch: 0 }).is_err());
        let bad = DynamicParams {
            drift_budget: -1.0,
            ..Default::default()
        };
        assert!(DynamicPrsim::new(&g0, config(), UpdateMode::Incremental(bad)).is_err());
    }
}
