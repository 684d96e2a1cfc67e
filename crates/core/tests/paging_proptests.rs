//! Property and chaos tests for the v4 paged postings arena: write/open
//! round trips, byte-level corruption (flipped bytes, truncations,
//! trailing bytes, page-index attacks) handled with structured errors
//! only, hard memory budgets honored under real eviction pressure, and
//! exact-or-degraded query behavior under injected read faults and
//! bit-rot.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use prsim_core::pagerank::{rank_by_pagerank, reverse_pagerank};
use prsim_core::{
    HubCount, PagedOptions, Postings, PostingsScratch, Prsim, PrsimConfig, PrsimIndex, QueryParams,
    ReservePrecision,
};
use prsim_graph::ordering::sort_out_by_in_degree;
use prsim_graph::{DiGraph, GraphBuilder, NodeId};
use prsim_storage::fault::{FaultPlan, FaultyStorage};
use prsim_storage::FsStorage;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SQRT_C: f64 = 0.774_596_669_241_483_4;

/// A budget no admission check can reject (round-trip tests only
/// exercise correctness, not eviction).
const HUGE_BUDGET: u64 = 1 << 30;

fn tmpdir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "prsim_paging_prop_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Random simple graphs over up to 30 nodes (the builder dedups).
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (2usize..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..120).prop_map(move |es| {
            let mut b = GraphBuilder::new();
            b.ensure_nodes(n);
            for (u, v) in es {
                b.add_edge(u, v);
            }
            let mut g = b.build();
            sort_out_by_in_degree(&mut g);
            g
        })
    })
}

fn arb_precision() -> impl Strategy<Value = ReservePrecision> {
    (0u8..2).prop_map(|wide| {
        if wide == 0 {
            ReservePrecision::F64
        } else {
            ReservePrecision::F32
        }
    })
}

fn build_index(g: &DiGraph, j0: usize, precision: ReservePrecision) -> PrsimIndex {
    let pi = reverse_pagerank(g, SQRT_C, 1e-10, 64);
    let hubs: Vec<NodeId> = rank_by_pagerank(&pi)
        .into_iter()
        .take(j0.min(g.node_count()))
        .collect();
    PrsimIndex::build_tracked_with(g, hubs, SQRT_C, 1e-3, 64, 1, precision).0
}

fn opts(budget: u64) -> PagedOptions {
    PagedOptions {
        page_bytes: 64,
        memory_budget: budget,
        hot_ranks: 0,
    }
}

/// Writes `idx` as a v4 page file and reopens it out of core.
fn round_trip(
    idx: &PrsimIndex,
    n: usize,
    budget: u64,
) -> Result<PrsimIndex, prsim_core::PrsimError> {
    let dir = tmpdir();
    let path = dir.join("arena.pages");
    idx.write_paged(&FsStorage, &path, 64)?;
    PrsimIndex::open_paged(Arc::new(FsStorage), &path, n, &opts(budget))
}

fn collect(p: &Postings<'_>) -> Vec<(NodeId, f64)> {
    p.iter().collect()
}

/// Every (hub, level) run of `paged` must either read back exactly
/// `resident`'s run or fail with a structured error — never panic,
/// never return different postings.
fn assert_exact_or_fault(resident: &PrsimIndex, paged: &PrsimIndex) -> Result<(), String> {
    let mut scratch = PostingsScratch::new();
    for &w in resident.hubs() {
        for level in 0..128usize {
            let truth = resident.postings(w, level).map(|p| collect(&p));
            match paged.postings_in(w, level, &mut scratch) {
                Ok(run) => {
                    prop_assert_eq!(run.as_ref().map(collect), truth.clone());
                }
                Err(prsim_core::PrsimError::PageFault(_)) => {}
                Err(other) => {
                    return Err(format!("non-fault error: {other}"));
                }
            }
            if truth.is_none() {
                break;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// write_paged/open_paged is the identity for arenas over arbitrary
    /// graphs, hub counts and both precisions, and the paged arena
    /// serves every run bit-identically through the buffer pool.
    #[test]
    fn paged_round_trips(g in arb_graph(), j0 in 0usize..30, p in arb_precision()) {
        let idx = build_index(&g, j0, p);
        let paged = round_trip(&idx, g.node_count(), HUGE_BUDGET)
            .map_err(|e| format!("round trip rejected: {e}"))?;
        prop_assert_eq!(idx.precision(), paged.precision());
        prop_assert_eq!(idx.entry_count(), paged.entry_count());
        prop_assert!(!paged.is_resident());
        let mut scratch = PostingsScratch::new();
        for &w in idx.hubs() {
            for level in 0..128usize {
                let truth = idx.postings(w, level).map(|p| collect(&p));
                let run = paged
                    .postings_in(w, level, &mut scratch)
                    .map_err(|e| format!("fault-free read failed: {e}"))?;
                prop_assert_eq!(run.as_ref().map(collect), truth.clone());
                if truth.is_none() {
                    break;
                }
            }
        }
        prop_assert_eq!(&idx, &paged);
    }

    /// Any single-byte corruption of a v4 file is either rejected at
    /// open (metadata is checksummed; page-index entries are validated
    /// against the computed layout) or surfaces as a per-page
    /// [`prsim_core::PrsimError::PageFault`] at read time (page bytes
    /// are checksummed). Reads that succeed return exactly the original
    /// postings; nothing panics.
    #[test]
    fn paged_corruption_is_exact_or_fault(g in arb_graph(), j0 in 1usize..20,
                                          p in arb_precision(),
                                          pos in 0usize..1 << 20, mask in 1u8..255) {
        let idx = build_index(&g, j0, p);
        let dir = tmpdir();
        let path = dir.join("arena.pages");
        idx.write_paged(&FsStorage, &path, 64).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let at = pos % bytes.len();
        bytes[at] ^= mask;
        fs::write(&path, &bytes).unwrap();
        if let Ok(paged) =
            PrsimIndex::open_paged(Arc::new(FsStorage), &path, g.node_count(), &opts(HUGE_BUDGET))
        {
            assert_exact_or_fault(&idx, &paged)?;
        }
    }

    /// Every truncation of a valid page file is rejected at open: the
    /// validated layout must account for the file length exactly.
    #[test]
    fn paged_truncation_always_rejected(g in arb_graph(), j0 in 1usize..20,
                                        p in arb_precision(), cut_frac in 0.0f64..1.0) {
        let idx = build_index(&g, j0, p);
        let dir = tmpdir();
        let path = dir.join("arena.pages");
        idx.write_paged(&FsStorage, &path, 64).unwrap();
        let bytes = fs::read(&path).unwrap();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(
            PrsimIndex::open_paged(Arc::new(FsStorage), &path, g.node_count(),
                                   &opts(HUGE_BUDGET)).is_err(),
            "truncation at {} of {} accepted", cut, bytes.len()
        );
    }

    /// Trailing garbage after the blob is rejected at open for the same
    /// reason.
    #[test]
    fn paged_trailing_bytes_rejected(g in arb_graph(), j0 in 1usize..20,
                                     extra in 1usize..64) {
        let idx = build_index(&g, j0, ReservePrecision::F64);
        let dir = tmpdir();
        let path = dir.join("arena.pages");
        idx.write_paged(&FsStorage, &path, 64).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend(std::iter::repeat_n(0xABu8, extra));
        fs::write(&path, &bytes).unwrap();
        prop_assert!(PrsimIndex::open_paged(
            Arc::new(FsStorage), &path, g.node_count(), &opts(HUGE_BUDGET)).is_err());
    }

    /// Overwriting a page-index entry's offset field with anything but
    /// the computed layout value is rejected at open (out-of-range
    /// page-index entries must never reach the pool).
    #[test]
    fn paged_page_index_attack_rejected(g in arb_graph(), j0 in 1usize..20,
                                        entry_raw in 0usize..4096, value in 0u64..u64::MAX) {
        let idx = build_index(&g, j0, ReservePrecision::F64);
        prop_assume!(idx.entry_count() > 0);
        let dir = tmpdir();
        let path = dir.join("arena.pages");
        idx.write_paged(&FsStorage, &path, 64).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Layout: header(40) + hubs/level_counts(8·j0) + offsets +
        // meta_checksum(8) + page_count(8) + entries of 20 bytes each.
        let j0n = idx.hub_count();
        let slots = idx.stats().level_slots + 1;
        let table_at = 40 + 8 * j0n + 4 * slots + 16;
        let page_count =
            u64::from_le_bytes(bytes[table_at - 8..table_at].try_into().unwrap()) as usize;
        prop_assume!(page_count > 0);
        let at = table_at + (entry_raw % page_count) * 20;
        let original = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        prop_assume!(value != original);
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        prop_assert!(PrsimIndex::open_paged(
            Arc::new(FsStorage), &path, g.node_count(), &opts(HUGE_BUDGET)).is_err());
    }
}

// ---------------------------------------------------------------------
// Engine-level: budgets and exact-or-degraded serving.
// ---------------------------------------------------------------------

fn engine_config() -> PrsimConfig {
    PrsimConfig {
        eps: 0.2,
        hubs: HubCount::SqrtN,
        query: QueryParams::Explicit { dr: 400, fr: 1 },
        ..Default::default()
    }
}

fn pressure_graph() -> DiGraph {
    prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(1_000, 8.0, 2.0, 7))
}

/// Builds the resident truth engine plus a paged twin served from
/// `storage`, both at the default engine options: a paged arena runs
/// the same query pipeline as a resident one, so fault-free answers
/// must match bit-for-bit.
fn paged_twin(
    g: &DiGraph,
    storage: Arc<dyn prsim_storage::Storage>,
    path: &std::path::Path,
    paged_opts: &PagedOptions,
) -> (Prsim, Prsim) {
    let config = engine_config();
    let resident = Prsim::build(g.clone(), config.clone()).unwrap();
    resident
        .index()
        .write_paged(&FsStorage, path, paged_opts.page_bytes)
        .unwrap();
    let index = PrsimIndex::open_paged(storage, path, g.node_count(), paged_opts).unwrap();
    // from_parts re-derives π over the engine's (already sorted) graph.
    let sorted = resident.graph().clone();
    let pi = reverse_pagerank(&sorted, config.sqrt_c(), 1e-12, config.max_level);
    let paged = Prsim::from_parts(sorted, pi, index, config).unwrap();
    (resident, paged)
}

/// The ISSUE acceptance bar: an arena at least 4× the memory budget
/// loads, serves bit-identically to fully-resident when fault-free, and
/// the pool's peak resident bytes never exceed the budget.
#[test]
fn paged_serves_bit_identical_under_4x_budget_pressure() {
    let g = pressure_graph();
    let config = engine_config();
    let resident_probe = Prsim::build(g.clone(), config).unwrap();
    let width = match resident_probe.index().precision() {
        ReservePrecision::F64 => 8,
        ReservePrecision::F32 => 4,
    };
    let blob_bytes = resident_probe.index().entry_count() as u64 * (4 + width);
    let budget = blob_bytes / 4;
    assert!(
        blob_bytes >= 4 * budget && budget > 0,
        "arena too small to exercise pressure: {blob_bytes} blob bytes"
    );
    drop(resident_probe);

    let dir = tmpdir();
    let path = dir.join("arena.pages");
    // hot_ranks stays 0: the top hubs own most of the arena, so any
    // pinned hot set busts a blob/4 budget by itself (hot pinning is
    // exercised by the fault-injection test below, where the budget is
    // generous).
    let paged_opts = PagedOptions {
        page_bytes: 256,
        memory_budget: budget,
        hot_ranks: 0,
    };
    let (resident, paged) = paged_twin(&g, Arc::new(FsStorage), &path, &paged_opts);

    for source in [0u32, 17, 311, 640, 999] {
        let truth = resident
            .try_single_source(source, &mut StdRng::seed_from_u64(u64::from(source)))
            .unwrap();
        let (scores, stats) = paged
            .try_single_source(source, &mut StdRng::seed_from_u64(u64::from(source)))
            .unwrap();
        assert!(!stats.degraded, "fault-free serving must be exact");
        assert_eq!(stats.page_fallbacks, 0);
        assert_eq!(scores.top_k(50), truth.0.top_k(50), "source {source}");
    }

    let p = paged.index().paging_stats().expect("paged engine");
    assert!(
        p.peak_resident_bytes <= budget,
        "peak resident {} exceeds budget {}",
        p.peak_resident_bytes,
        budget
    );
    assert!(p.evictions > 0, "a 4x-budget arena must evict");
    assert!(!paged.index().paging_unhealthy());
    let _ = fs::remove_dir_all(&dir);
}

/// A budget smaller than the resident metadata + hot set + one working
/// frame is rejected up front with `InvalidConfig` — admission control,
/// not a later OOM.
#[test]
fn paged_budget_admission_rejects_infeasible_budgets() {
    let g = pressure_graph();
    let engine = Prsim::build(g.clone(), engine_config()).unwrap();
    let dir = tmpdir();
    let path = dir.join("arena.pages");
    engine.index().write_paged(&FsStorage, &path, 256).unwrap();
    let starved = PagedOptions {
        page_bytes: 256,
        memory_budget: 64,
        hot_ranks: 0,
    };
    match PrsimIndex::open_paged(Arc::new(FsStorage), &path, g.node_count(), &starved) {
        Err(prsim_core::PrsimError::InvalidConfig(_)) => {}
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chaos: under injected page-read faults and bit-rot, every query,
    /// untimed or timed, either matches the resident (untimed) truth
    /// bit-for-bit or reports `degraded = true` — never a wrong answer,
    /// never a crash. The timed query's deadline never expires and
    /// `d_r` = 400 is one chunk, so it draws the untimed stream.
    #[test]
    fn paged_queries_exact_or_degraded_under_read_faults(
        seed in 0u64..u64::MAX,
        read_per_mille in 0u16..400,
        bitrot_per_mille in 0u16..200,
    ) {
        let g = pressure_graph();
        let dir = tmpdir();
        let path = dir.join("arena.pages");
        // Disarmed while the file is opened (open-time metadata reads
        // must succeed to get an engine at all); armed for the queries.
        let faulty = Arc::new(FaultyStorage::new_disarmed(
            Arc::new(FsStorage),
            FaultPlan {
                read_per_mille,
                bitrot_per_mille,
                ..FaultPlan::none(seed)
            },
        ));
        let paged_opts = PagedOptions {
            page_bytes: 256,
            memory_budget: 1 << 22,
            hot_ranks: 8,
        };
        let (resident, paged) = paged_twin(&g, Arc::clone(&faulty) as _, &path, &paged_opts);
        faulty.set_armed(true);

        for source in [3u32, 512, 901] {
            let q_seed = seed ^ u64::from(source);
            let (truth, _) = resident
                .try_single_source(source, &mut StdRng::seed_from_u64(q_seed))
                .unwrap();
            for timeout in [None, Some(Duration::from_secs(3600))] {
                let (scores, stats) = paged
                    .try_single_source_with_deadline(
                        source,
                        timeout,
                        &mut StdRng::seed_from_u64(q_seed),
                    )
                    .map_err(|e| format!("query died under faults: {e}"))?;
                if !stats.degraded {
                    prop_assert_eq!(scores.top_k(50), truth.top_k(50),
                                    "non-degraded answer differs at source {} (timeout {:?})",
                                    source, timeout);
                } else {
                    prop_assert!(stats.page_fallbacks > 0);
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
