//! Differential correctness harness for the incremental dynamic engine.
//!
//! The contract under test: after *any* stream of edge updates, an
//! incremental [`DynamicPrsim`] must answer single-source queries like a
//! PRSim engine **freshly built** over the same final edge set. The two
//! engines run the same estimator with the same sample budget but consume
//! their RNGs differently (the incremental CSR merge orders adjacency
//! lists differently than a from-scratch build), so "like" means within
//! the Monte-Carlo tolerance `DIFF_TOL` — a bound both sides meet w.h.p.
//! at the explicit sample count used here; everything is seeded, so the
//! suite is deterministic.
//!
//! On failure, the assertion message prints the full offending update
//! stream in `prsim update --stream` format, ready to replay. (The
//! vendored proptest stand-in does not shrink, so the stream is reported
//! as generated.)

use proptest::prelude::*;
use prsim::core::{DynamicParams, DynamicPrsim, Prsim, PrsimConfig, QueryParams, UpdateMode};
use prsim::graph::{DiGraph, EdgeUpdate, GraphBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Max |ŝ_inc − ŝ_fresh| allowed on any probe. With `DR` walk samples the
/// per-entry MC noise of each engine is ≈ √(1/(4·DR)) ≈ 0.006, so 0.1
/// (the configured ε) leaves a ~8σ margin for the worst entry.
const DIFF_TOL: f64 = 0.1;
/// Per-round walk samples of both engines.
const DR: usize = 4_000;

fn config() -> PrsimConfig {
    PrsimConfig {
        eps: DIFF_TOL,
        query: QueryParams::Explicit { dr: DR, fr: 1 },
        // The cache-invalidation regime opts in explicitly; the other
        // regimes isolate the index/graph maintenance under test.
        walk_cache_budget: 0,
        ..Default::default()
    }
}

/// The cache-invalidation regime's config: every node of the (≤ 44-node)
/// universe gets a pre-sampled pool, so each update must invalidate and
/// refill exactly the pools whose walks can traverse the changed
/// adjacency — any missed invalidation leaves a pool answering for the
/// old graph and blows the differential bound.
fn cached_config() -> PrsimConfig {
    PrsimConfig {
        walk_cache_budget: 64,
        ..config()
    }
}

/// Renders a stream in the `prsim update --stream` text format.
fn render_stream(stream: &[EdgeUpdate]) -> String {
    stream
        .iter()
        .map(|u| u.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Builds a fresh engine over the dynamic engine's current edge set.
fn fresh_over(engine: &DynamicPrsim, cfg: &PrsimConfig) -> Prsim {
    let mut b = GraphBuilder::new();
    b.ensure_nodes(engine.node_count());
    for (u, v) in engine
        .engine()
        .expect("incremental engine is built")
        .graph()
        .edges()
    {
        b.add_edge(u, v);
    }
    Prsim::build(b.build(), cfg.clone()).unwrap()
}

/// Core differential check: replay `stream` on an incremental engine,
/// probing after every `probe_every`-th update and at the end; each probe
/// compares a set of sources against a fresh build (both engines under
/// the same `cfg`, so the cache regime compares cached vs cached).
fn check_stream_with(
    cfg: PrsimConfig,
    base: &DiGraph,
    stream: &[EdgeUpdate],
    params: DynamicParams,
    probe_every: usize,
    seed: u64,
) -> Result<(), String> {
    let mut engine = DynamicPrsim::new(base, cfg.clone(), UpdateMode::Incremental(params))
        .map_err(|e| e.to_string())?;
    let context = |at: usize| {
        format!(
            "seed {seed}, base n={} m={}, probe after update {at}/{} of stream:\n{}",
            base.node_count(),
            base.edge_count(),
            stream.len(),
            render_stream(stream),
        )
    };
    let probe = |engine: &mut DynamicPrsim, at: usize| -> Result<(), String> {
        let fresh = fresh_over(engine, &cfg);
        let n = engine.node_count() as u32;
        let sources = [0u32, n / 2, n.saturating_sub(1)];
        for &u in &sources {
            let (inc, _) = engine
                .single_source(u, &mut StdRng::seed_from_u64(seed ^ u as u64))
                .map_err(|e| e.to_string())?;
            let fr = fresh.single_source(u, &mut StdRng::seed_from_u64(seed ^ u as u64));
            let diff = inc.max_abs_diff(&fr);
            if diff > DIFF_TOL {
                return Err(format!(
                    "source {u}: incremental vs fresh diff {diff} > {DIFF_TOL}\n{}",
                    context(at)
                ));
            }
        }
        Ok(())
    };
    for (i, &up) in stream.iter().enumerate() {
        engine.apply(up).map_err(|e| e.to_string())?;
        if (i + 1) % probe_every == 0 {
            probe(&mut engine, i + 1)?;
        }
    }
    probe(&mut engine, stream.len())
}

/// Random base graphs over up to 40 nodes.
fn arb_base() -> impl Strategy<Value = DiGraph> {
    (6usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 5..120).prop_map(move |es| {
            let mut b = GraphBuilder::new();
            b.ensure_nodes(n);
            for (u, v) in es {
                b.add_edge(u, v);
            }
            b.build()
        })
    })
}

/// Random update streams over a slightly larger node range than the base
/// (so inserts can grow the universe). op 0 = insert, 1 = delete.
fn arb_stream() -> impl Strategy<Value = Vec<EdgeUpdate>> {
    proptest::collection::vec((0u8..2, 0u32..44, 0u32..44), 1..14).prop_map(|ops| {
        ops.into_iter()
            .map(|(op, u, v)| {
                if op == 0 {
                    EdgeUpdate::Insert(u, v)
                } else {
                    EdgeUpdate::Delete(u, v)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mixed random streams, permissive drift budget: the repair path
    /// carries the whole maintenance load.
    #[test]
    fn incremental_matches_fresh_on_random_streams(base in arb_base(), stream in arb_stream()) {
        let params = DynamicParams { drift_budget: 1e9, ..Default::default() };
        check_stream_with(config(), &base, &stream, params, 5, 0xD1FF)?;
    }

    /// Tiny drift budget: every update goes through the full-rebuild
    /// fallback, which re-selects hubs — the divergent-hub-set half of
    /// the contract.
    #[test]
    fn incremental_matches_fresh_under_constant_rebuilds(base in arb_base(), stream in arb_stream()) {
        let params = DynamicParams { drift_budget: 1e-12, ..Default::default() };
        check_stream_with(config(), &base, &stream, params, 7, 0xBEEF)?;
    }

    /// Aggressive compaction: overlay folds into the CSR base every
    /// couple of updates, exercising the post-compaction delete/insert
    /// paths.
    #[test]
    fn incremental_matches_fresh_with_tiny_compaction_threshold(base in arb_base(), stream in arb_stream()) {
        let params = DynamicParams {
            drift_budget: 1e9,
            compact_threshold: 2,
            ..Default::default()
        };
        check_stream_with(config(), &base, &stream, params, 6, 0xC0DE)?;
    }

    /// Cache-invalidation regime: walk cache enabled on both engines,
    /// permissive drift budget so updates repair (never drop) the cache.
    /// Incremental answers after any stream must match a fresh cached
    /// build within eps — a missed pool invalidation would leave stale
    /// pre-drawn walks answering for a graph that no longer exists.
    #[test]
    fn incremental_matches_fresh_with_cache_enabled(base in arb_base(), stream in arb_stream()) {
        let params = DynamicParams { drift_budget: 1e9, ..Default::default() };
        check_stream_with(cached_config(), &base, &stream, params, 5, 0xCAC4E)?;
    }
}

/// Deterministic cache-invalidation check with counter assertions: the
/// stream touches reachable adjacency, so pools must actually be
/// invalidated (and the totals must say so), while answers track a fresh
/// cached build.
#[test]
fn cache_invalidation_counters_flow_and_stay_correct() {
    let base = prsim::gen::chung_lu_undirected(prsim::gen::ChungLuConfig::new(30, 4.0, 2.0, 11));
    let params = DynamicParams {
        drift_budget: 1e9,
        ..Default::default()
    };
    let mut engine =
        DynamicPrsim::new(&base, cached_config(), UpdateMode::Incremental(params)).unwrap();
    assert!(engine.engine().unwrap().walk_cache().is_some());
    let mut invalidated = 0usize;
    for i in 0..8u32 {
        let stats = engine.insert_edge(i % 30, (i * 7 + 3) % 30).unwrap();
        if stats.applied {
            invalidated += stats.cache_invalidated_pools;
        }
    }
    assert!(
        invalidated > 0,
        "edge inserts into a connected region must dirty some pools"
    );
    assert_eq!(engine.totals().cache_invalidations, invalidated);
    // Differential: the maintained cache answers like a fresh one.
    let fresh = fresh_over(&engine, &cached_config());
    for u in [0u32, 15, 29] {
        let (inc, _) = engine
            .single_source(u, &mut StdRng::seed_from_u64(77 ^ u as u64))
            .unwrap();
        let fr = fresh.single_source(u, &mut StdRng::seed_from_u64(77 ^ u as u64));
        let diff = inc.max_abs_diff(&fr);
        assert!(diff <= DIFF_TOL, "source {u}: diff {diff}");
    }
}

/// Insert-only and delete-only streams on a fixed graph, probed after
/// every update — the deterministic smoke tier of the harness.
#[test]
fn directed_insert_then_delete_everything() {
    let base =
        prsim::gen::chung_lu_directed(prsim::gen::ChungLuConfig::new(30, 4.0, 2.0, 7), 2.2, 8);
    let mut stream: Vec<EdgeUpdate> = (0..10u32)
        .map(|i| EdgeUpdate::Insert(i % 30, (i * 11 + 1) % 30))
        .collect();
    // Then delete every edge the base started with.
    stream.extend(base.edges().take(20).map(|(u, v)| EdgeUpdate::Delete(u, v)));
    let params = DynamicParams {
        drift_budget: 1e9,
        compact_threshold: 4,
        ..Default::default()
    };
    check_stream_with(config(), &base, &stream, params, 1, 42).unwrap();
}

#[test]
fn stream_that_empties_the_graph_entirely() {
    let base = prsim::gen::toys::cycle(6);
    let stream: Vec<EdgeUpdate> = base
        .edges()
        .map(|(u, v)| EdgeUpdate::Delete(u, v))
        .collect();
    let params = DynamicParams {
        drift_budget: 1e9,
        ..Default::default()
    };
    check_stream_with(config(), &base, &stream, params, 1, 3).unwrap();
}

/// Max |ŝ_fused − ŝ_reference| on the *same* engine and RNG stream. The
/// engine's fused pipeline and the reference oracle consume identical
/// samples; the only permitted difference is the fused fold's
/// final-level reassociation, which is ~1 ulp per entry — 1e-9 leaves
/// seven orders of magnitude of headroom while still catching any real
/// divergence (a skipped terminal, a double-counted posting, a stale
/// accumulator slot).
const PLAN_TOL: f64 = 1e-9;

/// Replays `stream` on one incremental engine and, at every probe,
/// answers each source through the engine and through the reference
/// oracle from identically seeded RNGs. Unlike the incremental-vs-fresh
/// regimes above, this bound is numerical, not statistical.
fn check_plan_differential(cfg: PrsimConfig, stream: &[EdgeUpdate], seed: u64) {
    let base = prsim::gen::chung_lu_undirected(prsim::gen::ChungLuConfig::new(36, 4.0, 2.0, 13));
    let params = DynamicParams {
        drift_budget: 1e9,
        ..Default::default()
    };
    let mut engine = DynamicPrsim::new(&base, cfg, UpdateMode::Incremental(params)).unwrap();
    let mut ws = prsim::core::QueryWorkspace::new();
    let mut probe = |engine: &mut DynamicPrsim, at: usize| {
        let n = engine.node_count() as u32;
        for &u in &[0u32, n / 2, n - 1] {
            let (fused, fstats) = engine
                .single_source(u, &mut StdRng::seed_from_u64(seed ^ u as u64))
                .unwrap();
            let (reference, rstats) = engine
                .engine()
                .expect("incremental engines are always built")
                .reference_single_source_with_workspace(
                    u,
                    &mut ws,
                    &mut StdRng::seed_from_u64(seed ^ u as u64),
                )
                .unwrap();
            let diff = fused.max_abs_diff(&reference);
            assert!(
                diff <= PLAN_TOL,
                "source {u} after update {at}: fused vs reference diff {diff} > {PLAN_TOL}\n\
                 stream:\n{}",
                render_stream(stream)
            );
            assert_eq!(fstats, rstats, "stats diverged at source {u}, update {at}");
        }
    };
    for (i, &up) in stream.iter().enumerate() {
        engine.apply(up).unwrap();
        if (i + 1) % 4 == 0 {
            probe(&mut engine, i + 1);
        }
    }
    probe(&mut engine, stream.len());
}

/// Deterministic mixed stream shared by the engine-vs-oracle regimes.
fn plan_stream() -> Vec<EdgeUpdate> {
    (0..12u32)
        .map(|i| {
            if i % 3 == 2 {
                EdgeUpdate::Delete(i % 36, (i * 5 + 2) % 36)
            } else {
                EdgeUpdate::Insert((i * 7) % 36, (i * 11 + 1) % 36)
            }
        })
        .collect()
}

/// Fused vs reference across an update stream, f64 reserves, walk cache
/// enabled (the engine and the oracle consume cached draws identically).
#[test]
fn fused_matches_reference_across_updates_f64() {
    let cfg = PrsimConfig {
        reserve_precision: prsim::core::ReservePrecision::F64,
        walk_cache_budget: 64,
        ..config()
    };
    check_plan_differential(cfg, &plan_stream(), 0xF05ED);
}

/// Same regime over f32 reserves: quantization moves both pipelines by
/// the same amount, so the engine-to-oracle bound stays numerical.
#[test]
fn fused_matches_reference_across_updates_f32() {
    let cfg = PrsimConfig {
        reserve_precision: prsim::core::ReservePrecision::F32,
        walk_cache_budget: 0,
        ..config()
    };
    check_plan_differential(cfg, &plan_stream(), 0xF32);
}

#[test]
fn rebuild_mode_is_differentially_correct_at_batch_boundaries() {
    // The paper's rebuild-on-batch contract: at a batch boundary the
    // engine is a fresh build over the same edges, so it must pass the
    // same differential bound the incremental engine is held to.
    let base = prsim::gen::chung_lu_undirected(prsim::gen::ChungLuConfig::new(40, 4.0, 2.0, 9));
    let mut engine =
        DynamicPrsim::new(&base, config(), UpdateMode::RebuildOnBatch { batch: 1 }).unwrap();
    for i in 0..5u32 {
        engine.insert_edge(i, 39 - i).unwrap();
        let (inc, _) = engine
            .single_source(2, &mut StdRng::seed_from_u64(11))
            .unwrap();
        let fresh = fresh_over(&engine, &config());
        let fr = fresh.single_source(2, &mut StdRng::seed_from_u64(11));
        let diff = inc.max_abs_diff(&fr);
        assert!(diff <= DIFF_TOL, "update {i}: diff {diff}");
    }
}
