//! The fixed inputs every workload shares and the seeded request
//! streams that differ between runs.

use prsim_core::{HubCount, PrsimConfig, QueryParams, ReservePrecision};
use prsim_gen::{chung_lu_undirected, ChungLuConfig};
use prsim_graph::{DiGraph, EdgeUpdate, NodeId};
use prsim_server::HostOptions;
use std::collections::BTreeSet;
use std::time::Duration;

/// Served graph: Chung–Lu undirected, `n = 100k`, `d̄ = 8`, `γ = 2.0`,
/// generator seed 44 (797,758 edges).
pub const GRAPH_N: usize = 100_000;
/// Average degree of the served graph.
pub const GRAPH_AVG_DEGREE: f64 = 8.0;
/// Degree exponent of the served graph.
pub const GRAPH_GAMMA: f64 = 2.0;
/// Generator seed of the served graph (and of the accuracy probe graph).
pub const GRAPH_SEED: u64 = 44;
/// Node count of the accuracy probe graph (same generator settings).
pub const PROBE_N: usize = 2_000;

/// `--memory-budget` of `read_paged`: about half the 15.4 MB arena.
pub const PAGED_BUDGET: u64 = 8 << 20;
/// Scrubber period: the shipped `prsim serve` default.
pub const SCRUB_INTERVAL: Duration = Duration::from_millis(1000);
/// `top=` of every query.
pub const TOP: usize = 10;

/// Server spawns per run whose spawn-to-`listening` times give `setup_s`.
pub const SETUPS: usize = 3;
/// Queries sent before measuring (excluded from every latency).
pub const WARMUP_QUERIES: usize = 64;
/// Least measured queries: a nearest-rank p99 needs 1000 samples to
/// leave 10 beyond it.
pub const MIN_QUERIES: usize = 1_000;
/// `update` + `sync` pairs sent after the query window: the write path
/// and recovery are measured on every workload, with no query running.
pub const WRITES: usize = 4;
/// Updates acknowledged after the checkpoint and before the SIGKILL:
/// recovery replays exactly these.
pub const POST_CHECKPOINT_UPDATES: usize = 1;
/// `health` round trips on the idle server after the query window:
/// the connection layer's own cost per request.
pub const CONN_PROBES: usize = 200;
/// Queries of the accuracy probe (each asks for every score).
pub const PROBE_QUERIES: usize = 16;
/// `update` + `sync` pairs of no-op deletes (edges that do not exist)
/// whose acknowledgements give `wire.update_ack_p50_ms`: an ack precedes the
/// apply, so its path does not depend on what the update changes.
pub const ACK_PROBES: usize = 40;

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two query connections against a resident arena.
    ReadResident,
    /// The same stream under a memory budget below the arena size.
    ReadPaged,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "read_resident" => Ok(Workload::ReadResident),
            "read_paged" => Ok(Workload::ReadPaged),
            other => Err(format!(
                "unknown workload {other:?} (read_resident | read_paged)"
            )),
        }
    }

    /// Whether the postings arena is served out of core.
    pub fn paged(self) -> bool {
        self == Workload::ReadPaged
    }

    /// Extra `prsim serve` flags beyond the shipped defaults.
    pub fn serve_flags(self) -> Vec<String> {
        if self.paged() {
            vec!["--memory-budget".into(), PAGED_BUDGET.to_string()]
        } else {
            Vec::new()
        }
    }
}

/// The engine configuration `prsim serve` runs with no flags: ε = 0.05,
/// practical `c_mult = 3`, √n hubs, f64 reserves, a 256-node walk cache.
pub fn serve_config() -> PrsimConfig {
    PrsimConfig {
        eps: 0.05,
        hubs: HubCount::SqrtN,
        query: QueryParams::Practical { c_mult: 3.0 },
        reserve_precision: ReservePrecision::F64,
        walk_cache_budget: 256,
        ..PrsimConfig::default()
    }
}

/// The host options `prsim serve` builds for `workload`.
pub fn host_options(workload: Workload) -> HostOptions {
    let mut options = HostOptions::new(serve_config());
    options.scrub_interval = Some(SCRUB_INTERVAL);
    if workload.paged() {
        options.memory_budget = Some(PAGED_BUDGET);
    }
    options
}

/// The served graph.
pub fn served_graph() -> DiGraph {
    chung_lu_undirected(ChungLuConfig::new(
        GRAPH_N,
        GRAPH_AVG_DEGREE,
        GRAPH_GAMMA,
        GRAPH_SEED,
    ))
}

/// The accuracy probe graph.
pub fn probe_graph() -> DiGraph {
    chung_lu_undirected(ChungLuConfig::new(
        PROBE_N,
        GRAPH_AVG_DEGREE,
        GRAPH_GAMMA,
        GRAPH_SEED,
    ))
}

/// SplitMix64 step: a counter-based generator, so request `i` of a
/// stream does not depend on how many threads drew the earlier ones.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream tags, so the query, update and probe streams of one seed are
/// independent.
const QUERY_TAG: u64 = 0x5155_4552;
const UPDATE_TAG: u64 = 0x5550_4454;
const PROBE_TAG: u64 = 0x5052_4F42;
const NOOP_TAG: u64 = 0x4E4F_4F50;

/// Request `i` of the query stream of `seed` over `n` nodes: a uniform
/// source and its own explicit query seed.
pub fn query_at(seed: u64, n: usize, i: usize) -> (NodeId, u64) {
    let h = splitmix(splitmix(seed ^ QUERY_TAG) ^ i as u64);
    ((h % n as u64) as NodeId, splitmix(h))
}

/// The protocol line of a query.
pub fn query_line(u: NodeId, seed: u64) -> String {
    format!("query {u} top={TOP} seed={seed}")
}

/// Query `i` of the accuracy probe over `n` nodes: `top=n` returns
/// every non-zero score.
pub fn probe_query(seed: u64, n: usize, i: usize) -> (NodeId, u64) {
    let h = splitmix(splitmix(seed ^ PROBE_TAG) ^ i as u64);
    ((h % n as u64) as NodeId, splitmix(h))
}

/// The write stream: `count` distinct inserts of node pairs that are not
/// edges of `g`, so every one applies. It is drawn from the graph seed,
/// not the workload seed: every run repairs the same edges, so the same
/// amount of repair work (and the same drift rebuilds) lands in every
/// run, while the workload seed varies the query stream around it.
pub fn update_stream(g: &DiGraph, count: usize) -> Vec<EdgeUpdate> {
    absent_pairs(g, count, GRAPH_SEED ^ UPDATE_TAG)
        .into_iter()
        .map(|(u, v)| EdgeUpdate::Insert(u, v))
        .collect()
}

/// Deletes of `count` node pairs that are neither edges of `g` nor in
/// the write stream: each applies as a no-op.
pub fn noop_stream(g: &DiGraph, count: usize) -> Vec<EdgeUpdate> {
    absent_pairs(g, count, GRAPH_SEED ^ NOOP_TAG)
        .into_iter()
        .map(|(u, v)| EdgeUpdate::Delete(u, v))
        .collect()
}

fn absent_pairs(g: &DiGraph, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = g.node_count() as u64;
    let mut seen = BTreeSet::new();
    let mut state = splitmix(seed);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        state = splitmix(state);
        let (u, v) = ((state % n) as NodeId, ((state >> 32) % n) as NodeId);
        if u != v && !g.out_neighbors(u).contains(&v) && seen.insert((u, v)) {
            out.push((u, v));
        }
    }
    out
}

/// The protocol line of an update.
pub fn update_line(update: EdgeUpdate) -> String {
    match update {
        EdgeUpdate::Insert(u, v) => format!("update + {u} {v}"),
        EdgeUpdate::Delete(u, v) => format!("update - {u} {v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(query_at(7, 1000, 3), query_at(7, 1000, 3));
        assert_ne!(query_at(7, 1000, 3), query_at(8, 1000, 3));
        assert_ne!(query_at(7, 1000, 3), query_at(7, 1000, 4));
        assert_ne!(probe_query(7, 1000, 3), query_at(7, 1000, 3));
    }

    #[test]
    fn writes_are_fresh_distinct_inserts_and_absent_deletes() {
        let g = probe_graph();
        let mut pairs = BTreeSet::new();
        for up in update_stream(&g, 50).into_iter().chain(noop_stream(&g, 50)) {
            let (u, v) = match up {
                EdgeUpdate::Insert(u, v) | EdgeUpdate::Delete(u, v) => (u, v),
            };
            assert_ne!(u, v);
            assert!(!g.out_neighbors(u).contains(&v));
            assert!(pairs.insert((u, v)), "no pair repeats across both streams");
        }
        assert_eq!(update_stream(&g, 5), update_stream(&g, 5)[..]);
    }

    #[test]
    fn lines_follow_the_protocol() {
        assert_eq!(query_line(3, 9), "query 3 top=10 seed=9");
        assert_eq!(update_line(EdgeUpdate::Insert(1, 2)), "update + 1 2");
        assert_eq!(update_line(EdgeUpdate::Delete(1, 2)), "update - 1 2");
    }

    #[test]
    fn workload_names_round_trip() {
        assert_eq!(Workload::parse("read_paged"), Ok(Workload::ReadPaged));
        assert!(Workload::parse("mixed").is_err());
        assert_eq!(Workload::ReadPaged.serve_flags().len(), 2);
        assert!(Workload::ReadResident.serve_flags().is_empty());
    }
}
