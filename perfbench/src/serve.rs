//! The untraced pass: every end-to-end number, measured from outside
//! `prsim serve` over TCP, plus the accuracy probe.

use crate::wire::{field, ok_fields, parse_query, Conn, Server};
use crate::workload::{
    probe_query, query_at, query_line, update_line, Workload, CONN_PROBES, MIN_QUERIES,
    POST_CHECKPOINT_UPDATES, PROBE_N, PROBE_QUERIES, SETUPS, WARMUP_QUERIES,
};

/// Closed-loop query connections: two keep the one server CPU busy.
const CONNECTIONS: usize = 2;
use prsim_graph::{DiGraph, EdgeUpdate};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Where the run keeps its files and how it reaches the server.
pub struct Setting<'a> {
    /// `prsim` binary.
    pub prsim: &'a Path,
    /// CPU the server is pinned to.
    pub server_cpu: usize,
    /// Scratch directory of this run.
    pub work: &'a Path,
    /// The served graph file (`.bin`).
    pub graph: &'a Path,
    /// Node count of the served graph.
    pub n: usize,
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Least length of the query window.
    pub window: Duration,
}

impl Setting<'_> {
    /// The live server's WAL directory.
    pub fn wal(&self) -> PathBuf {
        self.work.join("wal")
    }

    /// The copy of the WAL directory taken right after the SIGKILL.
    pub fn crashed_wal(&self) -> PathBuf {
        self.work.join("wal-crashed")
    }

    fn spawn(&self, graph: &Path, wal: &Path) -> Result<Server, String> {
        Server::spawn(
            self.prsim,
            self.server_cpu,
            graph,
            wal,
            &self.workload.serve_flags(),
        )
    }
}

/// One wire query: stream index, round-trip time and reply bytes.
pub struct WireQuery {
    /// Index in the seeded query stream.
    pub index: usize,
    /// Round trip in milliseconds.
    pub rtt_ms: f64,
    /// When the reply arrived, in seconds since its loop began.
    pub done_s: f64,
    /// The reply line.
    pub reply: String,
}

/// One acknowledged `update` followed by `sync`.
pub struct WireUpdate {
    /// `update` to `ok lsn=`.
    pub ack_ms: f64,
    /// `update` to the reply of the following `sync`.
    pub visible_ms: f64,
}

/// Everything the untraced pass observed.
pub struct WireRun {
    /// Spawn-to-`listening` of each fresh server, in seconds.
    pub setups_s: Vec<f64>,
    /// Warm-up queries (stream indices `0..WARMUP_QUERIES`).
    pub warmup: Vec<WireQuery>,
    /// Measured queries.
    pub queries: Vec<WireQuery>,
    /// Length of the query window in seconds.
    pub window_s: f64,
    /// Round trips of `health` on the idle server, in microseconds: the
    /// connection layer's own cost per request.
    pub conn_rtts_us: Vec<f64>,
    /// Pre-checkpoint updates, in stream order.
    pub updates: Vec<WireUpdate>,
    /// Acknowledgement times of the no-op deletes, in milliseconds.
    pub noop_acks_ms: Vec<f64>,
    /// From the first write to its last `sync` reply, in seconds.
    pub write_window_s: f64,
    /// Respawn over the crashed WAL to `listening`, in seconds.
    pub recovery_s: f64,
    /// Live server's `VmHWM` at the end of its window, in bytes.
    pub peak_rss_bytes: u64,
    /// Scrubber bytes verified per second over the query window.
    pub scrub_bytes_per_s: f64,
    /// `stats` deltas over the pre-checkpoint updates.
    pub wal_syncs: u64,
    /// WAL bytes appended over the pre-checkpoint updates.
    pub wal_bytes: u64,
    /// Epochs published over the pre-checkpoint updates.
    pub epochs: u64,
    /// `busy_rejects` of the live server at the checkpoint.
    pub busy_rejects: u64,
    /// LSN of the last acknowledged update.
    pub last_acked_lsn: u64,
    /// The durability probe query and the recovered server's reply.
    pub probe: (String, String),
    /// Operations sent (queries, updates, syncs, verbs).
    pub attempted: usize,
    /// Operations answered with `err`, with their replies.
    pub errors: Vec<String>,
}

/// The accuracy probe's verdict.
#[derive(Default)]
pub struct Accuracy {
    /// Scores compared: every `v != u` of every probe query.
    pub scores: usize,
    /// Sum of squared errors over the compared scores.
    squares: f64,
    /// Largest |estimate − power method|.
    pub max_error: f64,
    /// Root mean square of |estimate − power method| over every
    /// compared score (set by [`Accuracy::finish`]).
    pub rms_error: f64,
    /// Scores off by more than ε (reported, not gated; see
    /// [`accuracy_probe`]).
    pub over_eps: usize,
    /// Gate violations, as messages.
    pub violations: Vec<String>,
}

/// Root-mean-square error above which the probe fails the run, taken
/// over every `v != u` of the 16 probe queries (a node the reply leaves
/// out counts as score 0). The shipped query samples `d_r = 3/ε² = 1200`
/// walks; over 1,500 seeded 16-query probes its RMS error measured
/// 0.00141–0.00199 (median 0.00167), with `d_r` halved 0.00198–0.00286
/// (99% above 0.00206), and an empty reply gives 0.00283–0.00398. So
/// this bound catches a cut of sampling by half, or dropped entries.
pub const PROBE_RMS_BOUND: f64 = 0.0021;

impl Accuracy {
    /// Compares the reply `top` to query `u` over `n` nodes with the
    /// true scores `truth(v)`, for every `v != u`: a node the reply leaves
    /// out counts as score 0. Any error above 2ε is a violation.
    pub fn add(
        &mut self,
        query: &str,
        u: u32,
        top: &[(u32, f64)],
        n: usize,
        truth: impl Fn(u32) -> f64,
        eps: f64,
    ) {
        let mut estimate = vec![0.0; n];
        for &(v, score) in top {
            match estimate.get_mut(v as usize) {
                Some(slot) => *slot = score,
                None => self
                    .violations
                    .push(format!("{query:?}: node {v} is not in the graph")),
            }
        }
        for v in (0..n as u32).filter(|&v| v != u) {
            let err = (estimate[v as usize] - truth(v)).abs();
            self.scores += 1;
            self.squares += err * err;
            self.max_error = self.max_error.max(err);
            self.over_eps += usize::from(err > eps);
            if err > 2.0 * eps {
                self.violations.push(format!(
                    "{query:?}: s({u},{v}) = {}, power method {}",
                    estimate[v as usize],
                    truth(v)
                ));
            }
        }
    }

    /// Sets the RMS error over every compared score and applies its gate.
    pub fn finish(mut self) -> Accuracy {
        self.rms_error = (self.squares / self.scores.max(1) as f64).sqrt();
        if self.scores == 0 || self.rms_error > PROBE_RMS_BOUND {
            self.violations.push(format!(
                "probe RMS error {:.6} over {} scores exceeds {PROBE_RMS_BOUND}",
                self.rms_error, self.scores
            ));
        }
        self
    }
}

/// Serves the 2k-node probe graph with the workload's flags and checks
/// every score of a seeded query set against the power method.
///
/// A run fails if any score is off by more than 2ε, or if the RMS error
/// exceeds [`PROBE_RMS_BOUND`]. Scores off by more than ε alone do not
/// fail it: the shipped configuration samples far fewer walks than a
/// proof of the ε bound needs, and on this graph about 1 answer in 150
/// has some score beyond ε (0 of 24,000 beyond 2ε). A gate at ε would
/// fail about 1 run in 10 at random; their count is reported instead.
pub fn accuracy_probe(s: &Setting, g: &DiGraph, eps: f64, c: f64) -> Result<Accuracy, String> {
    let path = s.work.join("probe.bin");
    prsim_graph::io::write_binary_file(g, &path).map_err(|e| format!("write probe graph: {e}"))?;
    // Iterating to a 1e-5 change leaves the power method's own error far
    // below the gates.
    let truth = prsim_baselines::power_method(g, c, 1e-5, 100);
    let server = s.spawn(&path, &s.work.join("probe-wal"))?;
    let mut conn = Conn::open(server.addr)?;
    let mut accuracy = Accuracy::default();
    for i in 0..PROBE_QUERIES {
        let (u, seed) = probe_query(s.seed, PROBE_N, i);
        let line = format!("query {u} top={PROBE_N} seed={seed}");
        let (reply, _) = conn.request(&line)?;
        let parsed = parse_query(&reply).map_err(|e| format!("probe {line:?}: {e}"))?;
        accuracy.add(&line, u, &parsed.top, PROBE_N, |v| truth.get(u, v), eps);
    }
    drop(conn);
    server.shutdown()?;
    remove_dir(&s.work.join("probe-wal"))?;
    Ok(accuracy.finish())
}

/// Removes a directory tree if present.
pub fn remove_dir(path: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", path.display())),
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    remove_dir(to)?;
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", from.display()))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Counts operations and collects `err` replies.
struct Tally {
    attempted: usize,
    errors: Vec<String>,
}

impl Tally {
    /// Sends `request`; an `err` reply is recorded, a broken connection
    /// aborts the run.
    fn send(&mut self, conn: &mut Conn, request: &str) -> Result<(String, Duration), String> {
        self.attempted += 1;
        let (reply, rtt) = conn.request(request)?;
        if !reply.starts_with("ok") {
            self.errors.push(format!("{request:?} -> {reply:?}"));
        }
        Ok((reply, rtt))
    }

    fn stats(&mut self, conn: &mut Conn) -> Result<BTreeMap<String, String>, String> {
        let (reply, _) = self.send(conn, "stats")?;
        ok_fields(&reply)
    }
}

/// Closed-loop query client: sends stream indices drawn from `next`
/// until `stop` says so, one request in flight.
fn query_loop(
    s: &Setting,
    conn: &mut Conn,
    next: &AtomicUsize,
    t0: Instant,
    mut stop: impl FnMut() -> bool,
) -> Result<Vec<WireQuery>, String> {
    let mut out = Vec::new();
    while !stop() {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let (u, seed) = query_at(s.seed, s.n, index);
        let (reply, rtt) = conn.request(&query_line(u, seed))?;
        out.push(WireQuery {
            index,
            rtt_ms: rtt.as_secs_f64() * 1e3,
            done_s: t0.elapsed().as_secs_f64(),
            reply,
        });
    }
    Ok(out)
}

/// Sends each update, waits for its ack, then `sync`s.
fn write_loop(
    tally: &mut Tally,
    conn: &mut Conn,
    updates: &[EdgeUpdate],
) -> Result<(Vec<WireUpdate>, u64), String> {
    let mut out = Vec::with_capacity(updates.len());
    let mut last_lsn = 0;
    for &up in updates {
        let start = Instant::now();
        let (ack, ack_rtt) = tally.send(conn, &update_line(up))?;
        if let Ok(f) = ok_fields(&ack) {
            last_lsn = field(&f, "lsn")?;
        }
        tally.send(conn, "sync")?;
        out.push(WireUpdate {
            ack_ms: ack_rtt.as_secs_f64() * 1e3,
            visible_ms: start.elapsed().as_secs_f64() * 1e3,
        });
    }
    Ok((out, last_lsn))
}

fn delta(
    a: &BTreeMap<String, String>,
    b: &BTreeMap<String, String>,
    key: &str,
) -> Result<u64, String> {
    Ok(field(b, key)?.saturating_sub(field(a, key)?))
}

/// Runs the untraced pass. `updates` holds the pre-checkpoint updates
/// followed by [`POST_CHECKPOINT_UPDATES`] more; `noops` are the no-op
/// deletes whose acknowledgements are timed after the writes.
pub fn run(s: &Setting, updates: &[EdgeUpdate], noops: &[EdgeUpdate]) -> Result<WireRun, String> {
    let (before_ckpt, after_ckpt) = updates.split_at(updates.len() - POST_CHECKPOINT_UPDATES);
    let mut tally = Tally {
        attempted: 0,
        errors: Vec::new(),
    };

    // Set-up: fresh servers one after another; the last one serves.
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        remove_dir(&s.wal())?;
        let server = s.spawn(s.graph, &s.wal())?;
        setups_s.push(server.setup.as_secs_f64());
        if i + 1 < SETUPS {
            server.shutdown()?;
        } else {
            live = Some(server);
        }
    }
    let server = live.expect("SETUPS > 0");

    let mut control = Conn::open(server.addr)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(server.addr))
        .collect::<Result<Vec<_>, _>>()?;

    // Warm-up: the first stream indices, split over the connections.
    let warm_next = AtomicUsize::new(0);
    let mut warmup = Vec::new();
    for conn in &mut conns {
        let mut sent = 0;
        warmup.extend(query_loop(s, conn, &warm_next, Instant::now(), || {
            sent += 1;
            sent > WARMUP_QUERIES / CONNECTIONS
        })?);
    }

    let stats0 = tally.stats(&mut control)?;
    let t0 = Instant::now();
    let first = warm_next.load(Ordering::Relaxed);
    let next = AtomicUsize::new(first);
    let per_conn = std::thread::scope(|scope| {
        let clients: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                // The window ends once it has lasted `--seconds` and enough
                // queries were sent for a p99.
                scope.spawn(move || {
                    query_loop(s, conn, next, t0, || {
                        t0.elapsed() >= s.window
                            && next.load(Ordering::Relaxed) - first >= MIN_QUERIES
                    })
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("query client does not panic"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let window_s = t0.elapsed().as_secs_f64();
    let mut queries: Vec<WireQuery> = per_conn.into_iter().flatten().collect();
    tally.attempted += warmup.len() + queries.len();
    for q in warmup.iter().chain(&queries) {
        if !q.reply.starts_with("ok") {
            tally
                .errors
                .push(format!("query #{} -> {:?}", q.index, q.reply));
        }
    }
    queries.sort_by_key(|q| q.index);
    let stats1 = tally.stats(&mut control)?;
    let peak_rss_bytes = server.peak_rss_bytes()?;
    let scrub_bytes_per_s = delta(&stats0, &stats1, "scrub_bytes_verified")? as f64 / window_s;
    let mut conn_rtts_us = Vec::with_capacity(CONN_PROBES);
    for _ in 0..CONN_PROBES {
        let (_, rtt) = tally.send(&mut control, "health")?;
        conn_rtts_us.push(rtt.as_secs_f64() * 1e6);
    }

    // Writes, with no query running.
    let t = Instant::now();
    let (updates_out, mut last_acked_lsn) = write_loop(&mut tally, &mut control, before_ckpt)?;
    let write_window_s = t.elapsed().as_secs_f64();
    let stats2 = tally.stats(&mut control)?;
    let wal_syncs = delta(&stats1, &stats2, "wal_syncs")?;
    let wal_bytes = delta(&stats1, &stats2, "wal_bytes")?;
    let epochs = delta(&stats1, &stats2, "epoch")?;
    let busy_rejects = field(&stats2, "busy_rejects")?;
    // Acknowledgement samples, each followed by `sync` so that no ack
    // waits behind an apply.
    let noop_acks_ms = write_loop(&mut tally, &mut control, noops)?
        .0
        .iter()
        .map(|w| w.ack_ms)
        .collect();

    // Durability: checkpoint, acked updates, SIGKILL, recover.
    tally.send(&mut control, "checkpoint")?;
    for &up in after_ckpt {
        let (ack, _) = tally.send(&mut control, &update_line(up))?;
        if let Ok(f) = ok_fields(&ack) {
            last_acked_lsn = field(&f, "lsn")?;
        }
    }
    drop(conns);
    drop(control);
    server.kill()?;
    // The in-process pass recovers the same checkpoint and log from this
    // copy and must answer the probe query with the same bytes.
    copy_dir(&s.wal(), &s.crashed_wal())?;
    let (u, seed) = query_at(s.seed, s.n, usize::MAX);
    let probe_line = query_line(u, seed);
    let recovered = s.spawn(s.graph, &s.wal())?;
    let recovery_s = recovered.setup.as_secs_f64();
    let mut conn = Conn::open(recovered.addr)?;
    let recovered_lsn = field(&tally.stats(&mut conn)?, "applied_lsn")?;
    tally.attempted += 1;
    if recovered_lsn != last_acked_lsn {
        tally.errors.push(format!(
            "recovered applied_lsn={recovered_lsn} but the last acked lsn={last_acked_lsn}"
        ));
    }
    let (probe_reply, _) = tally.send(&mut conn, &probe_line)?;
    drop(conn);
    recovered.shutdown()?;
    remove_dir(&s.wal())?;

    Ok(WireRun {
        setups_s,
        warmup,
        queries,
        window_s,
        conn_rtts_us,
        updates: updates_out,
        noop_acks_ms,
        write_window_s,
        recovery_s,
        peak_rss_bytes,
        scrub_bytes_per_s,
        wal_syncs,
        wal_bytes,
        epochs,
        busy_rejects,
        last_acked_lsn,
        probe: (probe_line, probe_reply),
        attempted: tally.attempted,
        errors: tally.errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::probe_graph;

    const EPS: f64 = 0.05;

    #[test]
    fn probe_counts_left_out_nodes_as_zero() {
        // True scores of source 0 over 4 nodes: node 2 matters.
        let truth = |v: u32| [1.0, 0.01, 0.3, 0.0][v as usize];
        let mut exact = Accuracy::default();
        exact.add("q", 0, &[(2, 0.3), (1, 0.01)], 4, truth, EPS);
        let exact = exact.finish();
        assert_eq!(exact.scores, 3, "every v != u is compared");
        assert!(exact.violations.is_empty());
        assert_eq!(exact.max_error, 0.0);

        let mut dropped = Accuracy::default();
        dropped.add("q", 0, &[(1, 0.01)], 4, truth, EPS);
        let dropped = dropped.finish();
        assert_eq!(dropped.scores, 3);
        assert_eq!(dropped.max_error, 0.3, "the left-out node counts as 0");
        assert!(!dropped.violations.is_empty());
    }

    #[test]
    fn probe_rejects_nodes_outside_the_graph_and_empty_probes() {
        let mut a = Accuracy::default();
        a.add("q", 0, &[(9, 0.0)], 2, |_| 0.0, EPS);
        assert!(!a.finish().violations.is_empty());
        assert!(!Accuracy::default().finish().violations.is_empty());
    }

    #[test]
    fn empty_replies_fail_the_real_probe() {
        let g = probe_graph();
        let truth = prsim_baselines::power_method(&g, 0.6, 1e-5, 100);
        let mut empty = Accuracy::default();
        for i in 0..PROBE_QUERIES {
            let (u, _) = probe_query(1, PROBE_N, i);
            empty.add("q", u, &[], PROBE_N, |v| truth.get(u, v), EPS);
        }
        let empty = empty.finish();
        assert_eq!(empty.scores, PROBE_QUERIES * (PROBE_N - 1));
        assert!(empty.rms_error > PROBE_RMS_BOUND, "rms {}", empty.rms_error);
    }
}
