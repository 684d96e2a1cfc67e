//! Every metric the benchmark reports, in report order. `BENCHMARK.json`
//! lists the same names, units and directions (a test checks it).

use std::collections::BTreeMap;

/// A metric definition: name, unit, whether higher is better.
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` for "higher is better".
    pub higher: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher: true,
    }
}

/// End-to-end metrics, measured from outside the server with tracing off.
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s"),
    lower("query_p50_ms", "ms"),
    lower("query_p99_ms", "ms"),
    higher("query_qps", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced pass. Paging reports 0 on
/// `read_resident`, which does not page.
pub const PER_LAYER: &[Def] = &[
    // Set-up: setup_s, wire.recovery_s.
    lower("graph.load_ms", "ms"),
    lower("index.build_ms", "ms"),
    lower("host.open_self_ms", "ms"),
    lower("paging.page_out_ms", "ms"),
    lower("setup.rss_mb", "MB"),
    lower("index.bytes", "B"),
    // Read path: query_p50_ms, query_p99_ms, query_qps.
    lower("protocol.handle_line_us_p50", "us"),
    lower("protocol.handle_line_us_p99", "us"),
    lower("conn.self_us_p50", "us"),
    lower("conn.queue_us_p50", "us"),
    lower("snapshot.query_us_p50", "us"),
    lower("snapshot.query_us_p99", "us"),
    lower("query.engine_us_p50", "us"),
    lower("query.engine_us_p99", "us"),
    lower("snapshot.workspace_us_p50", "us"),
    lower("topk.us_p50", "us"),
    lower("protocol.self_us_p50", "us"),
    lower("scores.entries_mean", "count"),
    lower("query.walks", "count"),
    lower("query.pair_met", "count"),
    lower("query.backward_walks", "count"),
    lower("query.backward_cost", "count"),
    lower("query.index_entries", "count"),
    higher("walkcache.terminal_hit_ratio", "ratio"),
    higher("walkcache.cached_eta", "count"),
    // Paging: query_p50_ms, query_p99_ms on read_paged.
    higher("paging.hit_ratio", "ratio"),
    lower("paging.misses_per_query", "count"),
    lower("paging.evictions_per_query", "count"),
    lower("paging.fallbacks", "count"),
    lower("paging.peak_resident_mb", "MB"),
    lower("scrub.bytes_verified_per_s", "B/s"),
    // Write path: wire.update_visible_p50_ms, peak_rss_mb. The wire
    // times of the write path and recovery are listed here, not among the
    // bounded end-to-end metrics: across ten runs their medians spread
    // 0.23-0.40, wider than the largest bound (see README.md).
    lower("wire.update_ack_p50_ms", "ms"),
    lower("wire.update_visible_p50_ms", "ms"),
    lower("host.update_us_p50", "us"),
    lower("host.sync_ms_p50", "ms"),
    lower("dynamic.apply_ms_p50", "ms"),
    lower("host.publish_clone_ms_p50", "ms"),
    lower("applier.busy_share", "ratio"),
    lower("dynamic.repaired_hubs_per_update", "count"),
    lower("dynamic.pr_iterations_per_update", "count"),
    lower("dynamic.rebuilds", "count"),
    lower("wal.syncs_per_update", "count"),
    lower("wal.bytes_per_update", "B"),
    lower("host.epochs_published", "count"),
    lower("host.busy_rejects", "count"),
    // Recovery: wire.recovery_s.
    lower("wire.recovery_s", "s"),
    lower("recovery.checkpoint_load_ms", "ms"),
    lower("recovery.replay_ms", "ms"),
    lower("recovery.replayed_records", "count"),
    // Accuracy probe (gated: max error 2ε, RMS bound).
    lower("probe.max_error", "score"),
    lower("probe.rms_error", "score"),
    lower("probe.scores_over_eps", "count"),
    // The run itself.
    lower("trace.overhead_pct", "%"),
    lower("trace.unexplained_pct", "%"),
    lower("run.nproc", "count"),
    lower("run.steal_ticks", "count"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The `metrics` object of the result line: every metric of `defs`,
/// 0 where `values` lacks it.
pub fn json_object(defs: &[Def], values: &Values) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A finite JSON number with every digit Rust prints (non-finite
/// values, which JSON cannot hold, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let better = if d.higher { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                d.name, d.unit
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"name\": ").count();
        let workloads = json.matches("\"why\": ").count();
        assert_eq!(listed - workloads, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_object_fills_missing_values_with_zero() {
        let defs = [lower("a_ms", "ms"), higher("b", "1/s")];
        let mut values = Values::new();
        values.insert("a_ms", 1.25);
        assert_eq!(
            json_object(&defs, &values),
            "{\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"1/s\"}}"
        );
        values.insert("b", f64::NAN);
        assert!(json_object(&defs, &values).contains("\"value\": 0,"));
    }
}
