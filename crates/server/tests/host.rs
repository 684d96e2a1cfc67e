//! Integration tests for [`EngineHost`]: recovery equivalence (a
//! restarted host serves bit-identical scores to the host it replaced),
//! epoch snapshot semantics, and checkpoint determinism.

use prsim_core::{HubCount, PrsimConfig, QueryParams};
use prsim_gen::{chung_lu_undirected, ChungLuConfig};
use prsim_graph::{DiGraph, EdgeUpdate};
use prsim_server::{EngineHost, FaultPlan, FaultyStorage, FsStorage, HostOptions, ServerError};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prsim_host_test_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_graph() -> DiGraph {
    chung_lu_undirected(ChungLuConfig::new(300, 6.0, 2.0, 42))
}

fn options() -> HostOptions {
    let mut options = HostOptions::new(PrsimConfig {
        eps: 0.2,
        hubs: HubCount::Fixed(12),
        query: QueryParams::Practical { c_mult: 1.0 },
        walk_cache_budget: 32,
        build_threads: 2,
        ..Default::default()
    });
    options.segment_bytes = 512; // tiny: every test exercises rotation
    options
}

/// Deterministic update stream: alternating deletes of live edges and
/// inserts of fresh ones, batched in threes.
fn batches(g: &DiGraph, count: usize) -> Vec<Vec<EdgeUpdate>> {
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let n = g.node_count() as u32;
    (0..count)
        .map(|i| {
            (0..3)
                .map(|j| {
                    let k = i * 3 + j;
                    if k % 2 == 0 {
                        let (u, v) = edges[(k * 7) % edges.len()];
                        EdgeUpdate::Delete(u, v)
                    } else {
                        EdgeUpdate::Insert((k as u32 * 13) % n, (k as u32 * 31 + 1) % n)
                    }
                })
                .collect()
        })
        .collect()
}

/// Fingerprints the served state: exact top-k response text for a spread
/// of sources (the same rendering the protocol uses, so equality here is
/// the protocol-level bit-identical guarantee).
fn fingerprint(host: &EngineHost) -> Vec<String> {
    let snap = host.snapshot();
    (0..10u32)
        .map(|i| {
            let u = i * 17 % snap.engine().graph().node_count() as u32;
            let (scores, _) = snap.query(u, 0xF00D ^ u64::from(u)).unwrap();
            let mut line = format!("{u}:");
            for (v, s) in scores.top_k(8) {
                line.push_str(&format!(" {v}:{s}"));
            }
            line
        })
        .collect()
}

#[test]
fn restart_replays_to_bit_identical_state() {
    let dir = tmpdir("restart");
    let g = test_graph();
    let stream = batches(&g, 8);

    let before = {
        let host = EngineHost::open(&g, &dir, options()).unwrap();
        for batch in &stream {
            host.update(batch.clone()).unwrap();
        }
        let (applied, _) = host.sync().unwrap();
        assert_eq!(applied, stream.len() as u64);
        let f = fingerprint(&host);
        host.shutdown().unwrap();
        f
    };

    // Restart over the same WAL directory: replay must rebuild the exact
    // pre-shutdown state.
    let host = EngineHost::open(&g, &dir, options()).unwrap();
    let recovery = host.recovery();
    assert_eq!(recovery.checkpoint_lsn, None);
    assert_eq!(recovery.replayed_records, stream.len());
    assert_eq!(recovery.replayed_updates, stream.len() * 3);
    assert_eq!(host.snapshot().last_lsn(), stream.len() as u64);
    assert_eq!(
        fingerprint(&host),
        before,
        "recovered state must be bit-identical"
    );
    host.shutdown().unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_matches_uninterrupted_application() {
    // Reference: a host that applies the stream live, never restarting.
    let g = test_graph();
    let stream = batches(&g, 6);
    let dir_live = tmpdir("live");
    let live = EngineHost::open(&g, &dir_live, options()).unwrap();
    for batch in &stream {
        live.update(batch.clone()).unwrap();
    }
    live.sync().unwrap();
    let expected = fingerprint(&live);
    live.shutdown().unwrap();

    // Candidate: same stream, but restarted after every single batch —
    // recovery composes with itself at arbitrary cut points.
    let dir_chopped = tmpdir("chopped");
    for batch in &stream {
        let host = EngineHost::open(&g, &dir_chopped, options()).unwrap();
        host.update(batch.clone()).unwrap();
        host.sync().unwrap();
        host.shutdown().unwrap();
    }
    let host = EngineHost::open(&g, &dir_chopped, options()).unwrap();
    assert_eq!(
        fingerprint(&host),
        expected,
        "N restarts must serve the same bytes as zero restarts"
    );
    host.shutdown().unwrap();
    fs::remove_dir_all(&dir_live).ok();
    fs::remove_dir_all(&dir_chopped).ok();
}

#[test]
fn epochs_advance_and_old_snapshots_stay_queryable() {
    let dir = tmpdir("epochs");
    let g = test_graph();
    let host = EngineHost::open(&g, &dir, options()).unwrap();
    let boot = host.snapshot();
    assert_eq!(boot.epoch(), 1);
    assert_eq!(boot.last_lsn(), 0);

    let stream = batches(&g, 4);
    for batch in &stream {
        host.update(batch.clone()).unwrap();
    }
    let (applied, epoch) = host.sync().unwrap();
    assert_eq!(applied, 4);
    assert!(epoch >= 2, "applying batches must publish new epochs");

    let current = host.snapshot();
    assert!(current.epoch() > boot.epoch());
    assert_eq!(current.last_lsn(), 4);
    // The pre-update snapshot is immutable and still answers queries
    // even though newer epochs have been published over it.
    let (scores, _) = boot.query(5, 99).unwrap();
    assert_eq!(scores.get(5), 1.0);

    let stats = host.stats();
    assert_eq!(stats.applied_lsn, 4);
    assert_eq!(stats.durable_lsn, 4);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.totals.applied_updates + stats.totals.noop_updates == 12);
    host.shutdown().unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_recovery_is_deterministic_and_gcs_the_log() {
    let dir = tmpdir("checkpoint");
    let g = test_graph();
    let stream = batches(&g, 6);
    {
        let host = EngineHost::open(&g, &dir, options()).unwrap();
        for batch in &stream[..4] {
            host.update(batch.clone()).unwrap();
        }
        let info = host.checkpoint().unwrap();
        assert_eq!(info.lsn, 4, "checkpoint covers every queued batch");
        assert!(info.bytes > 0);
        for batch in &stream[4..] {
            host.update(batch.clone()).unwrap();
        }
        host.sync().unwrap();
        host.shutdown().unwrap();
    }

    // Two independent recoveries from the same (checkpoint, WAL suffix)
    // must agree bit-for-bit — the checkpoint is a deterministic rebuild
    // point even though it re-selects hubs.
    let fp1 = {
        let host = EngineHost::open(&g, &dir, options()).unwrap();
        let recovery = host.recovery();
        assert_eq!(recovery.checkpoint_lsn, Some(4));
        assert_eq!(recovery.replayed_records, 2, "only the suffix replays");
        let f = fingerprint(&host);
        host.shutdown().unwrap();
        f
    };
    let host = EngineHost::open(&g, &dir, options()).unwrap();
    assert_eq!(fingerprint(&host), fp1, "recovery must be deterministic");
    assert_eq!(host.stats().applied_lsn, 6);
    host.shutdown().unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_batches_and_noop_updates_are_durable_noops() {
    let dir = tmpdir("noop");
    let g = test_graph();
    let host = EngineHost::open(&g, &dir, options()).unwrap();
    let lsn = host.update(vec![]).unwrap();
    assert_eq!(lsn, 1);
    // A duplicate insert is a no-op for the graph but still consumes an
    // LSN — recovery must count it identically.
    let (u, v) = g.edges().next().unwrap();
    host.update(vec![EdgeUpdate::Insert(u, v)]).unwrap();
    let (applied, _) = host.sync().unwrap();
    assert_eq!(applied, 2);
    let edges_before = host.snapshot().engine().graph().edge_count();
    host.shutdown().unwrap();

    let host = EngineHost::open(&g, &dir, options()).unwrap();
    assert_eq!(host.snapshot().last_lsn(), 2);
    assert_eq!(host.snapshot().engine().graph().edge_count(), edges_before);
    host.shutdown().unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_returns_retryable_busy_then_recovers() {
    let dir = tmpdir("busy");
    let g = test_graph();
    let mut opts = options();
    // One batch inflight at a time, held there long enough for the
    // second update to exhaust its (short) busy budget.
    opts.queue_depth = 1;
    opts.applier_delay = Duration::from_millis(400);
    opts.busy_timeout = Duration::from_millis(50);
    let host = EngineHost::open(&g, &dir, opts).unwrap();

    let stream = batches(&g, 2);
    host.update(stream[0].clone()).unwrap();
    let err = host.update(stream[1].clone()).unwrap_err();
    match &err {
        ServerError::Busy { waited_ms } => assert!(*waited_ms >= 50, "waited {waited_ms} ms"),
        other => panic!("want Busy, got {other}"),
    }
    assert!(err.retryable(), "Busy must be retryable");

    // Overload is not an outage: reads keep working and the same update
    // succeeds once the applier drains.
    let (scores, _) = host.snapshot().query(1, 7).unwrap();
    assert_eq!(scores.get(1), 1.0);
    host.sync().unwrap();
    host.update(stream[1].clone()).unwrap();
    let (applied, _) = host.sync().unwrap();
    assert_eq!(applied, 2, "retry consumes the next LSN, nothing is lost");

    let stats = host.stats();
    assert_eq!(stats.busy_rejects, 1);
    assert!(stats.max_queue_depth >= 1);
    assert!(stats.max_queue_bytes > 0);
    assert!(!stats.health.is_degraded());
    host.shutdown().unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn byte_bound_admits_oversized_batch_only_when_queue_is_empty() {
    let dir = tmpdir("bytebound");
    let g = test_graph();
    let mut opts = options();
    opts.queue_bytes = 1; // every real batch is oversized
    opts.applier_delay = Duration::from_millis(400);
    opts.busy_timeout = Duration::from_millis(50);
    let host = EngineHost::open(&g, &dir, opts).unwrap();

    let stream = batches(&g, 2);
    // Empty-queue exception: an oversized batch is never unacceptable.
    host.update(stream[0].clone()).unwrap();
    // But it fills the byte budget, so the next one must wait its turn.
    let err = host.update(stream[1].clone()).unwrap_err();
    assert!(matches!(err, ServerError::Busy { .. }), "got {err}");
    host.sync().unwrap();
    host.update(stream[1].clone()).unwrap();
    host.sync().unwrap();
    assert_eq!(host.stats().busy_rejects, 1);
    host.shutdown().unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn applier_panic_degrades_to_read_only_service() {
    let dir = tmpdir("panic");
    let g = test_graph();
    let mut opts = options();
    opts.applier_panic_at_lsn = Some(2);
    let host = EngineHost::open(&g, &dir, opts).unwrap();

    let stream = batches(&g, 3);
    host.update(stream[0].clone()).unwrap();
    host.sync().unwrap();
    let before = fingerprint(&host);

    // LSN 2 is durable (acked) but its application panics.
    host.update(stream[1].clone()).unwrap();
    let err = host.sync().unwrap_err();
    assert!(matches!(err, ServerError::ApplierDead(_)), "got {err}");

    // Degraded, not dead: health says so, reads still serve the last
    // published epoch, writes fail fatally.
    assert!(host.health().is_degraded());
    let stats = host.stats();
    assert!(stats.health.is_degraded());
    assert_eq!(stats.applied_lsn, 1, "the panicked batch never published");
    assert_eq!(
        fingerprint(&host),
        before,
        "read path must keep serving the pre-panic epoch"
    );
    let err = host.update(stream[2].clone()).unwrap_err();
    assert!(
        !err.retryable(),
        "writes to a dead applier are fatal: {err}"
    );
    host.shutdown().unwrap();

    // The acked-but-unapplied batch is on the log: a restart (without
    // the chaos hook) applies it — durability survived the panic.
    let host = EngineHost::open(&g, &dir, options()).unwrap();
    assert_eq!(host.snapshot().last_lsn(), 2);
    assert!(!host.health().is_degraded());
    host.shutdown().unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn broken_wal_heals_with_backoff() {
    let dir = tmpdir("heal");
    let g = test_graph();
    let mut opts = options();
    opts.wal_retry_base = Duration::from_millis(1);
    let plan = FaultPlan {
        fsync_per_mille: 1000,    // every append fails...
        truncate_per_mille: 1000, // ...and so does its tail repair
        ..FaultPlan::none(7)
    };
    let faulty = Arc::new(FaultyStorage::new_disarmed(Arc::new(FsStorage), plan));
    let host = EngineHost::open_with_storage(&g, &dir, opts, faulty.clone()).unwrap();

    let stream = batches(&g, 2);
    faulty.set_armed(true);
    let err = host.update(stream[0].clone()).unwrap_err();
    assert!(matches!(err, ServerError::WalWrite(_)), "got {err}");
    assert!(err.retryable(), "a healing WAL is worth retrying");
    assert!(host.health().is_degraded());

    // Storage comes back; the host repairs the log behind its backoff
    // window and accepts the retried update on a fresh LSN.
    faulty.set_armed(false);
    std::thread::sleep(Duration::from_millis(20));
    host.update(stream[0].clone()).unwrap();
    let (applied, _) = host.sync().unwrap();
    assert_eq!(applied, 1);
    assert!(!host.health().is_degraded(), "healed host reports ok");
    assert!(host.stats().wal.failed_appends >= 1);
    host.shutdown().unwrap();

    // The failed attempt left no half-record behind: recovery sees
    // exactly the acked update.
    let host = EngineHost::open(&g, &dir, options()).unwrap();
    assert_eq!(host.snapshot().last_lsn(), 1);
    host.shutdown().unwrap();
    fs::remove_dir_all(&dir).ok();
}

/// Host options for out-of-core serving: the default engine options
/// with the postings arena paged under `budget`. A paged engine runs the
/// same query pipeline as a resident one, so fault-free answers compare
/// bit-for-bit against a host at plain `options()`.
fn paged_options(budget: u64) -> HostOptions {
    let mut opts = options();
    opts.memory_budget = Some(budget);
    opts.page_bytes = 64;
    opts.page_hot_ranks = 2;
    opts
}

const PAGED_BUDGET: u64 = 1 << 20;

#[test]
fn paged_host_serves_bit_identical_to_resident() {
    let g = test_graph();
    let stream = batches(&g, 8);

    let dir_resident = tmpdir("paged_ref_resident");
    let resident = EngineHost::open(&g, &dir_resident, options()).unwrap();

    let dir_paged = tmpdir("paged_ref_paged");
    let paged = EngineHost::open(&g, &dir_paged, paged_options(PAGED_BUDGET)).unwrap();
    let p = paged.stats().paging.expect("paged host reports pool stats");
    assert!(p.pages > 1, "arena must actually be paged");
    assert!(p.resident_bytes <= PAGED_BUDGET);

    assert_eq!(
        fingerprint(&paged),
        fingerprint(&resident),
        "paged boot state must serve bit-identically"
    );

    // Updates repair into the paged arena's overlay; serving stays
    // paged and stays bit-identical to the resident host.
    for batch in &stream {
        resident.update(batch.clone()).unwrap();
        paged.update(batch.clone()).unwrap();
    }
    resident.sync().unwrap();
    paged.sync().unwrap();
    assert_eq!(fingerprint(&paged), fingerprint(&resident));
    assert!(
        paged.stats().paging.is_some(),
        "updates must not un-page the arena"
    );
    assert!(!paged.health().is_degraded());

    let peak = paged.stats().paging.unwrap().peak_resident_bytes;
    assert!(
        peak <= PAGED_BUDGET,
        "peak {peak} exceeds budget {PAGED_BUDGET}"
    );

    resident.shutdown().unwrap();
    paged.shutdown().unwrap();
    fs::remove_dir_all(&dir_resident).ok();
    fs::remove_dir_all(&dir_paged).ok();
}

#[test]
fn paged_host_checkpoints_and_recovers_bit_identically() {
    let g = test_graph();
    let stream = batches(&g, 6);
    let dir = tmpdir("paged_ckpt");

    {
        let host = EngineHost::open(&g, &dir, paged_options(PAGED_BUDGET)).unwrap();
        for batch in &stream[..4] {
            host.update(batch.clone()).unwrap();
        }
        host.sync().unwrap();
        // The checkpoint image streams the arena back through the
        // buffer pool (try_to_bytes) — it must cover the paged base
        // plus the repair overlay.
        let info = host.checkpoint().unwrap();
        assert_eq!(info.lsn, 4);
        for batch in &stream[4..] {
            host.update(batch.clone()).unwrap();
        }
        host.sync().unwrap();
        host.shutdown().unwrap();
    }

    // Recovery rebuilds from the checkpoint graph and replays the WAL
    // suffix; the contract (same as the resident host) is that this is
    // deterministic, and that paging does not change the recovered
    // state: a paged recovery serves bit-identically to a resident
    // recovery of the same (checkpoint, WAL suffix).
    let paged_fp = {
        let host = EngineHost::open(&g, &dir, paged_options(PAGED_BUDGET)).unwrap();
        assert_eq!(host.recovery().checkpoint_lsn, Some(4));
        assert_eq!(host.recovery().replayed_records, 2);
        assert!(host.stats().paging.is_some());
        let peak = host.stats().paging.unwrap().peak_resident_bytes;
        assert!(
            peak <= PAGED_BUDGET,
            "peak {peak} exceeds budget {PAGED_BUDGET}"
        );
        let f = fingerprint(&host);
        host.shutdown().unwrap();
        f
    };
    let resident_fp = {
        let host = EngineHost::open(&g, &dir, options()).unwrap();
        assert!(host.stats().paging.is_none());
        let f = fingerprint(&host);
        host.shutdown().unwrap();
        f
    };
    assert_eq!(paged_fp, resident_fp, "paging must not change recovery");

    // Re-open paged once more: recovery is deterministic, and exactly
    // one arena generation file remains (stale generations from the
    // previous paged incarnations are cleaned at boot).
    let host = EngineHost::open(&g, &dir, paged_options(PAGED_BUDGET)).unwrap();
    assert_eq!(
        fingerprint(&host),
        paged_fp,
        "paged recovery must be deterministic"
    );
    let arenas: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("arena-") && n.ends_with(".pages"))
        .collect();
    assert_eq!(
        arenas.len(),
        1,
        "stale arena generations must be cleaned: {arenas:?}"
    );
    host.shutdown().unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn paged_host_rejects_infeasible_budget() {
    let g = test_graph();
    let dir = tmpdir("paged_tiny");
    let err = EngineHost::open(&g, &dir, paged_options(128)).unwrap_err();
    assert!(
        matches!(
            err,
            ServerError::Engine(prsim_core::PrsimError::InvalidConfig(_))
        ),
        "got {err}"
    );
    fs::remove_dir_all(&dir).ok();
}
