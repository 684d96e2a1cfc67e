//! The in-process pass: replays the wire run's exact request streams
//! through each layer's public entry points. It is the correctness
//! oracle of every run, and with tracing on it also times each layer.
//!
//! A span is one timed call into a layer. Child spans are separate calls
//! on the same input (the layers cannot be instrumented from outside
//! without changing them), so a layer's self time is its span minus the
//! spans of its same-input child calls, taken per request. The call
//! order rotates per request so that warm caches favour no layer.

use crate::affinity::pin_current_thread;
use crate::metrics::Values;
use crate::serve::{remove_dir, WireQuery, WireRun};
use crate::stats::{mean, median, self_times, tail};
use crate::wire::proc_status_kb;
use crate::workload::{
    host_options, query_at, query_line, serve_config, Workload, PAGED_BUDGET, TOP,
};
use prsim_core::{DynamicPrsim, PagedOptions, PagingStats, QueryStats, QueryWorkspace};
use prsim_graph::{DiGraph, EdgeUpdate};
use prsim_server::protocol::handle_line;
use prsim_server::{wal, EngineHost, FsStorage, HostOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Measured queries that get the full set of read-path spans: enough
/// for a p99 with ten samples beyond it.
pub const SPANNED_QUERIES: usize = 1_000;
/// Pre-checkpoint updates replayed through the traced write path.
pub const TRACED_UPDATES: usize = 4;

/// Inputs of the in-process pass.
pub struct TraceInput<'a> {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The served graph file.
    pub graph: &'a Path,
    /// Scratch directory of this run.
    pub work: &'a Path,
    /// The crashed WAL directory copy.
    pub crashed_wal: &'a Path,
    /// The untraced pass.
    pub wire: &'a WireRun,
    /// Pre-checkpoint updates the wire pass sent.
    pub updates: &'a [EdgeUpdate],
    /// The no-op deletes whose acks the wire pass timed.
    pub noops: &'a [EdgeUpdate],
    /// Whether to time the layers.
    pub traced: bool,
    /// CPUs of the run; the untraced byte check uses all of them.
    pub cpus: &'a [usize],
}

/// What the in-process pass found.
#[derive(Default)]
pub struct TraceRun {
    /// Per-layer metrics (only with tracing on).
    pub values: Values,
    /// Checks made: one per replayed reply plus the durability checks.
    pub checks: usize,
    /// Failed checks, as messages.
    pub mismatches: Vec<String>,
}

impl TraceRun {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.mismatches.push(what());
        }
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn p50(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn paging(host: &EngineHost) -> PagingStats {
    host.snapshot()
        .engine()
        .index()
        .paging_stats()
        .unwrap_or_default()
}

/// Read-path spans of the spanned queries, in microseconds; entry `i` of
/// each list belongs to the same request.
#[derive(Default)]
struct ReadSpans {
    wire: Vec<f64>,
    /// The oracle's own `handle_line` call, made before any span.
    bare: Vec<f64>,
    handle_line: Vec<f64>,
    snapshot: Vec<f64>,
    engine: Vec<f64>,
    topk: Vec<f64>,
    entries: Vec<f64>,
    stats: Vec<QueryStats>,
    /// Engine executions of the whole replay (each span runs one).
    executions: usize,
}

/// One replay thread's result: the replay index of each request it
/// checked, with the mismatch if any, and its spans.
type ThreadReplay = (Vec<(usize, Option<String>)>, ReadSpans);

/// Replays every wire query (warm-up first) through
/// `protocol::handle_line` and checks its bytes. Untraced, it runs one
/// thread per CPU of `cpus`, each pinned to its CPU. Traced, it runs on
/// the calling thread, and right after its checked call each of the
/// first [`SPANNED_QUERIES`] measured queries is also spanned in every
/// read-path layer.
fn replay_reads(
    input: &TraceInput,
    host: &EngineHost,
    cpus: &[usize],
    run: &mut TraceRun,
) -> Result<ReadSpans, String> {
    let n = host.snapshot().engine().graph().node_count();
    let warmup = input.wire.warmup.len();
    let all: Vec<&WireQuery> = input
        .wire
        .warmup
        .iter()
        .chain(&input.wire.queries)
        .collect();
    // Thread `k` takes requests k, k + threads, ...: every thread gets
    // the same mix of the stream.
    let threads = if input.traced { 1 } else { cpus.len().max(1) };
    let replay = |k: usize| -> Result<ThreadReplay, String> {
        if threads > 1 {
            pin_current_thread(cpus[k])?;
        }
        let mut checked = Vec::with_capacity(all.len() / threads + 1);
        let mut spans = ReadSpans::default();
        let mut ws = QueryWorkspace::new();
        for (i, q) in all.iter().enumerate().skip(k).step_by(threads) {
            let (u, seed) = query_at(input.seed, n, q.index);
            let line = query_line(u, seed);
            let t = Instant::now();
            let (reply, _) = handle_line(host, &line);
            let bare = us(t);
            spans.executions += 1;
            checked.push((
                i,
                (reply != q.reply)
                    .then(|| format!("{line:?}: wire {:?} != in-process {reply:?}", q.reply)),
            ));
            if !input.traced || i < warmup || spans.wire.len() == SPANNED_QUERIES {
                continue;
            }
            let snap = host.snapshot();
            for step in 0..3 {
                match (step + spans.wire.len()) % 3 {
                    0 => {
                        let t = Instant::now();
                        std::hint::black_box(handle_line(host, &line));
                        spans.handle_line.push(us(t));
                    }
                    1 => {
                        let t = Instant::now();
                        snap.query_with_deadline(u, seed, None)
                            .map_err(|e| format!("snapshot query {u}: {e}"))?;
                        spans.snapshot.push(us(t));
                    }
                    _ => {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let t = Instant::now();
                        let (scores, stats) = snap
                            .engine()
                            .try_single_source_with_workspace(u, &mut ws, &mut rng)
                            .map_err(|e| format!("engine query {u}: {e}"))?;
                        spans.engine.push(us(t));
                        let t = Instant::now();
                        std::hint::black_box(scores.top_k(TOP));
                        spans.topk.push(us(t));
                        spans.entries.push(scores.len() as f64);
                        spans.stats.push(stats);
                    }
                }
            }
            spans.executions += 3;
            spans.bare.push(bare);
            spans.wire.push(q.rtt_ms * 1e3);
        }
        Ok((checked, spans))
    };
    let per_thread = if threads == 1 {
        vec![replay(0)?]
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|k| scope.spawn(move || replay(k)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("replay thread does not panic"))
                .collect::<Result<Vec<_>, String>>()
        })?
    };
    let mut checked = Vec::with_capacity(all.len());
    let mut executions = 0;
    let mut spans = ReadSpans::default();
    for (c, s) in per_thread {
        checked.extend(c);
        executions += s.executions;
        // Only a traced replay spans, and it runs on one thread.
        spans = s;
    }
    spans.executions = executions;
    checked.sort_by_key(|c| c.0);
    for (_, mismatch) in checked {
        run.check(mismatch.is_none(), || mismatch.unwrap_or_default());
    }
    Ok(spans)
}

/// Read-path and paging metrics of a traced replay.
fn read_metrics(
    spans: &ReadSpans,
    wire: &WireRun,
    p0: PagingStats,
    p1: PagingStats,
    values: &mut Values,
) -> Result<(), String> {
    let protocol_self = self_times(&spans.handle_line, &[&spans.snapshot, &spans.topk]);
    let workspace = self_times(&spans.snapshot, &[&spans.engine]);
    let total = |f: fn(&QueryStats) -> usize| spans.stats.iter().map(f).sum::<usize>() as f64;
    let per_query = |f: fn(&QueryStats) -> usize| total(f) / spans.stats.len().max(1) as f64;
    let hits = (p1.hits - p0.hits) as f64;
    let misses = (p1.misses - p0.misses) as f64;
    let executions = spans.executions.max(1) as f64;
    // A closed-loop request waits behind the other connection's request
    // on the one server CPU: its round trip less the server's time per
    // query (window / queries, as the CPU never idles) is that wait.
    let wire_p50 = p50(&spans.wire);
    let service_us = wire.window_s * 1e6 / wire.queries.len().max(1) as f64;
    let conn_queue = wire_p50 - service_us;
    // The connection cost is measured on its own (idle `health` round
    // trips), so the sum below can miss the wire median.
    let conn_self = p50(&wire.conn_rtts_us);
    let reconstruction = conn_queue
        + conn_self
        + p50(&protocol_self)
        + p50(&workspace)
        + p50(&spans.engine)
        + p50(&spans.topk);
    let bare_p50 = p50(&spans.bare);
    values.extend([
        ("protocol.handle_line_us_p50", p50(&spans.handle_line)),
        (
            "protocol.handle_line_us_p99",
            tail(&spans.handle_line, 0.99)?,
        ),
        ("conn.self_us_p50", conn_self),
        ("conn.queue_us_p50", conn_queue),
        ("snapshot.query_us_p50", p50(&spans.snapshot)),
        ("snapshot.query_us_p99", tail(&spans.snapshot, 0.99)?),
        ("query.engine_us_p50", p50(&spans.engine)),
        ("query.engine_us_p99", tail(&spans.engine, 0.99)?),
        ("snapshot.workspace_us_p50", p50(&workspace)),
        ("topk.us_p50", p50(&spans.topk)),
        ("protocol.self_us_p50", p50(&protocol_self)),
        ("scores.entries_mean", mean(&spans.entries)),
        ("query.walks", per_query(|s| s.walks)),
        ("query.pair_met", per_query(|s| s.pair_met)),
        ("query.backward_walks", per_query(|s| s.backward_walks)),
        ("query.backward_cost", per_query(|s| s.backward_cost)),
        ("query.index_entries", per_query(|s| s.index_entries)),
        (
            "walkcache.terminal_hit_ratio",
            total(|s| s.cached_terminals) / total(|s| s.walks).max(1.0),
        ),
        ("walkcache.cached_eta", per_query(|s| s.cached_eta)),
        ("paging.hit_ratio", hits / (hits + misses).max(1.0)),
        ("paging.misses_per_query", misses / executions),
        (
            "paging.evictions_per_query",
            (p1.evictions - p0.evictions) as f64 / executions,
        ),
        ("paging.fallbacks", total(|s| s.page_fallbacks)),
        (
            "paging.peak_resident_mb",
            p1.peak_resident_bytes as f64 / 1e6,
        ),
        (
            "trace.overhead_pct",
            (p50(&spans.handle_line) - bare_p50) / bare_p50 * 100.0,
        ),
        (
            "trace.unexplained_pct",
            (wire_p50 - reconstruction) / wire_p50 * 100.0,
        ),
    ]);
    Ok(())
}

/// Replays the first [`TRACED_UPDATES`] pre-checkpoint updates through
/// the host (`update`, `sync`) and through a private engine (`apply`,
/// then the clone a publish makes), then times `update` on the no-op
/// deletes the wire pass timed its acks on.
fn write_metrics(
    input: &TraceInput,
    host: &EngineHost,
    dynamic: &mut DynamicPrsim,
    values: &mut Values,
) -> Result<(), String> {
    let wire = input.wire;
    let traced = &input.updates[..input.updates.len().min(TRACED_UPDATES)];
    let (mut sync_ms, mut apply_ms, mut clone_ms) = (vec![], vec![], vec![]);
    let (mut visible_ms, mut repaired, mut pr_iterations, mut rebuilds) =
        (vec![], vec![], vec![], 0);
    for &up in traced {
        let t = Instant::now();
        host.update(vec![up])
            .map_err(|e| format!("host update: {e}"))?;
        let s = Instant::now();
        host.sync().map_err(|e| format!("host sync: {e}"))?;
        sync_ms.push(ms(s));
        visible_ms.push(ms(t));
        let t = Instant::now();
        let stats = dynamic.apply(up).map_err(|e| format!("apply: {e}"))?;
        apply_ms.push(ms(t));
        let engine = dynamic.engine().expect("incremental engine is built");
        let t = Instant::now();
        let clone = std::hint::black_box(engine.clone());
        clone_ms.push(ms(t));
        drop(clone);
        repaired.push(stats.touched_hubs as f64);
        pr_iterations.push(stats.pr_iterations as f64);
        rebuilds += usize::from(stats.rebuilt);
    }
    let mut update_us = Vec::with_capacity(input.noops.len());
    for &up in input.noops {
        let t = Instant::now();
        host.update(vec![up])
            .map_err(|e| format!("host update: {e}"))?;
        update_us.push(us(t));
        host.sync().map_err(|e| format!("host sync: {e}"))?;
    }
    let updates = wire.updates.len().max(1) as f64;
    let busy_ms = (mean(&apply_ms) + mean(&clone_ms)) * updates;
    values.extend([
        ("host.update_us_p50", p50(&update_us)),
        ("host.sync_ms_p50", p50(&sync_ms)),
        ("dynamic.apply_ms_p50", p50(&apply_ms)),
        ("host.publish_clone_ms_p50", p50(&clone_ms)),
        ("applier.busy_share", busy_ms / 1e3 / wire.write_window_s),
        ("dynamic.repaired_hubs_per_update", mean(&repaired)),
        ("dynamic.pr_iterations_per_update", mean(&pr_iterations)),
        ("dynamic.rebuilds", rebuilds as f64),
        ("wal.syncs_per_update", wire.wal_syncs as f64 / updates),
        ("wal.bytes_per_update", wire.wal_bytes as f64 / updates),
        ("host.epochs_published", wire.epochs as f64),
        ("host.busy_rejects", wire.busy_rejects as f64),
        ("scrub.bytes_verified_per_s", wire.scrub_bytes_per_s),
    ]);
    Ok(())
}

/// Times of the in-process recovery.
struct Recovery {
    checkpoint_load_ms: f64,
    open_ms: f64,
    replayed_records: usize,
}

/// Opens a host over the copy of the crashed WAL directory, as recovery
/// does, and checks it against the recovered server: `applied_lsn`
/// equals the last acknowledged LSN, and the probe query's reply bytes
/// match.
fn recovery(
    input: &TraceInput,
    g: &DiGraph,
    options: &HostOptions,
    run: &mut TraceRun,
) -> Result<Recovery, String> {
    let wire = input.wire;
    let t = Instant::now();
    let checkpoint =
        wal::latest_checkpoint(input.crashed_wal).map_err(|e| format!("checkpoint: {e}"))?;
    let load_ms = ms(t);
    run.check(checkpoint.is_some(), || {
        "the crashed WAL holds no checkpoint".into()
    });
    drop(checkpoint);
    let t = Instant::now();
    let host = EngineHost::open(g, input.crashed_wal, options.clone())
        .map_err(|e| format!("recovery open: {e}"))?;
    let open_ms = ms(t);
    let applied = host.stats().applied_lsn;
    run.check(applied == wire.last_acked_lsn, || {
        format!(
            "in-process recovery applied_lsn={applied} but acked lsn={}",
            wire.last_acked_lsn
        )
    });
    let (line, served) = &wire.probe;
    let (reply, _) = handle_line(&host, line);
    run.check(&reply == served, || {
        format!("after recovery {line:?}: server {served:?} != in-process {reply:?}")
    });
    let replayed_records = host.recovery().replayed_records;
    host.shutdown()
        .map_err(|e| format!("recovery host shutdown: {e}"))?;
    Ok(Recovery {
        checkpoint_load_ms: load_ms,
        open_ms,
        replayed_records,
    })
}

/// Opens a host as the server does and replays every query through it,
/// then checks recovery in process. With tracing on, also times the
/// layers.
pub fn run(input: &TraceInput) -> Result<TraceRun, String> {
    let mut run = TraceRun::default();
    let options = host_options(input.workload);
    let bytes =
        std::fs::read(input.graph).map_err(|e| format!("{}: {e}", input.graph.display()))?;
    let t = Instant::now();
    let g = prsim_graph::io::from_binary(&bytes).map_err(|e| format!("graph: {e}"))?;
    let load_ms = ms(t);
    drop(bytes);

    let host_dir = input.work.join("trace-wal");
    remove_dir(&host_dir)?;
    let t = Instant::now();
    let host =
        EngineHost::open(&g, &host_dir, options.clone()).map_err(|e| format!("host open: {e}"))?;
    let open_ms = ms(t);
    if !input.traced {
        replay_reads(input, &host, input.cpus, &mut run)?;
        host.shutdown().map_err(|e| format!("host shutdown: {e}"))?;
        remove_dir(&host_dir)?;
        recovery(input, &g, &options, &mut run)?;
        return Ok(run);
    }
    let setup_rss_mb = proc_status_kb("/proc/self/status", "VmRSS")? as f64 * 1024.0 / 1e6;

    // Build the same engine standalone right after the host open, so that
    // both spans see the same machine; it then serves as the private
    // engine of the write-path trace.
    let t = Instant::now();
    let mut dynamic =
        DynamicPrsim::new_incremental(&g, serve_config()).map_err(|e| format!("build: {e}"))?;
    let build_ms = ms(t);
    let mut page_out_ms = 0.0;
    if input.workload.paged() {
        let opts = PagedOptions {
            memory_budget: PAGED_BUDGET,
            ..PagedOptions::default()
        };
        let t = Instant::now();
        dynamic
            .page_out_index(
                Arc::new(FsStorage),
                &input.work.join("trace-arena.pages"),
                &opts,
            )
            .map_err(|e| format!("page out: {e}"))?;
        page_out_ms = ms(t);
    }
    run.values.extend([
        ("graph.load_ms", load_ms),
        ("index.build_ms", build_ms),
        ("host.open_self_ms", open_ms - build_ms - page_out_ms),
        ("paging.page_out_ms", page_out_ms),
        ("setup.rss_mb", setup_rss_mb),
        (
            "index.bytes",
            host.snapshot().engine().index().size_bytes() as f64,
        ),
    ]);

    let p0 = paging(&host);
    let spans = replay_reads(input, &host, input.cpus, &mut run)?;
    read_metrics(&spans, input.wire, p0, paging(&host), &mut run.values)?;
    write_metrics(input, &host, &mut dynamic, &mut run.values)?;
    drop(dynamic);
    host.shutdown().map_err(|e| format!("host shutdown: {e}"))?;
    drop(host);
    remove_dir(&host_dir)?;
    let r = recovery(input, &g, &options, &mut run)?;
    run.values.extend([
        ("recovery.checkpoint_load_ms", r.checkpoint_load_ms),
        (
            "recovery.replay_ms",
            r.open_ms - r.checkpoint_load_ms - build_ms - page_out_ms,
        ),
        ("recovery.replayed_records", r.replayed_records as f64),
    ]);
    Ok(run)
}
