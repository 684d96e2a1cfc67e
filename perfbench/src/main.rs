//! Serve benchmark for `prsim serve`.
//!
//! ```text
//! perfbench --workload read_resident|read_paged --seed N --seconds S
//!           --trace 0|1 --prsim PATH --work DIR --cpus C,D
//! ```
//!
//! One run: an accuracy probe on a 2k-node graph, then the untraced pass
//! against `prsim serve` over TCP ([`serve`]), then the in-process pass
//! ([`trace`]) that checks every reply and, with `--trace 1`, times each
//! layer. The last stdout line is the JSON result; with `--trace 0` its
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! The exit code is 1 when any correctness check fails. `run.py` builds
//! both binaries and pins this process to the CPU the server does not
//! use; see README.md.

mod affinity;
mod metrics;
mod serve;
mod stats;
mod trace;
mod wire;
mod workload;

use metrics::{json_object, Values, END_TO_END, PER_LAYER};
use serve::{remove_dir, Setting};
use std::path::PathBuf;
use std::time::Duration;
use workload::{
    noop_stream, probe_graph, serve_config, served_graph, update_stream, Workload, ACK_PROBES,
    POST_CHECKPOINT_UPDATES, PROBE_QUERIES, WRITES,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    prsim: PathBuf,
    work: PathBuf,
    /// CPUs this process may use (`nproc` of the run). The server runs
    /// on the first and this process on the second (both on the first,
    /// on a one-CPU box). Once every server has exited, the untraced
    /// byte check runs one thread on each of them.
    cpus: Vec<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Result<&str, String> {
        let flag = format!("--{key}");
        argv.iter()
            .position(|a| *a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("--{key} needs a whole number"))
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: Workload::parse(get("workload")?)?,
        seed: num("seed")?,
        seconds: seconds as f64,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        prsim: PathBuf::from(get("prsim")?),
        work: PathBuf::from(get("work")?),
        cpus: get("cpus")?
            .split(',')
            .map(|c| c.parse().map_err(|_| format!("bad CPU {c:?} in --cpus")))
            .collect::<Result<Vec<_>, _>>()?,
    })
    .and_then(|a| match a.cpus.is_empty() {
        true => Err("--cpus lists no CPU".into()),
        false => Ok(a),
    })
}

/// Steal ticks summed over all CPUs, from the first line of `/proc/stat`.
fn steal_ticks() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "/proc/stat has no steal column".into())
}

fn print_metrics(title: &str, defs: &[metrics::Def], values: &Values) {
    println!("# {title}:");
    for d in defs {
        let v = values.get(d.name).copied().unwrap_or(0.0);
        let better = if d.higher { "higher" } else { "lower" };
        println!(
            "#   {:<36} {v:>14.4} {:<6} ({better} is better)",
            d.name, d.unit
        );
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let steal0 = steal_ticks()?;
    let work = &args.work;
    remove_dir(work)?;
    std::fs::create_dir_all(work).map_err(|e| format!("mkdir {}: {e}", work.display()))?;

    let g = served_graph();
    let graph = work.join("graph.bin");
    prsim_graph::io::write_binary_file(&g, &graph).map_err(|e| format!("write graph: {e}"))?;
    let updates = update_stream(&g, WRITES + POST_CHECKPOINT_UPDATES);
    let noops = noop_stream(&g, ACK_PROBES);
    let setting = Setting {
        prsim: &args.prsim,
        server_cpu: args.cpus[0],
        work,
        graph: &graph,
        n: g.node_count(),
        workload: args.workload,
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
    };
    println!(
        "# workload={:?} seed={} seconds={} trace={} graph: n={} m={} (Chung-Lu undirected, d=8, gamma=2.0, seed 44)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        g.node_count(),
        g.edge_count()
    );
    drop(g);

    let started = std::time::Instant::now();
    let config = serve_config();
    let accuracy = serve::accuracy_probe(&setting, &probe_graph(), config.eps, config.c)?;
    println!(
        "# accuracy probe: {} scores of {PROBE_QUERIES} queries against the power method: max |error| \
         {:.5} (gate {}), RMS {:.6} (gate {}), {} scores beyond eps = {}",
        accuracy.scores,
        accuracy.max_error,
        2.0 * config.eps,
        accuracy.rms_error,
        serve::PROBE_RMS_BOUND,
        accuracy.over_eps,
        config.eps
    );

    let probe_s = started.elapsed().as_secs_f64();
    let wire = serve::run(&setting, &updates, &noops)?;
    let wire_s = started.elapsed().as_secs_f64() - probe_s;
    let traced = trace::run(&trace::TraceInput {
        workload: args.workload,
        seed: args.seed,
        graph: &graph,
        work,
        crashed_wal: &setting.crashed_wal(),
        wire: &wire,
        updates: &updates[..WRITES],
        noops: &noops,
        traced: args.trace,
        cpus: &args.cpus,
    })?;
    let steal = steal_ticks()?.saturating_sub(steal0);
    println!(
        "# phases: probe {probe_s:.1} s, wire {wire_s:.1} s, in-process {:.1} s",
        started.elapsed().as_secs_f64() - probe_s - wire_s
    );

    let rtts: Vec<f64> = wire.queries.iter().map(|q| q.rtt_ms).collect();
    let done: Vec<f64> = wire.queries.iter().map(|q| q.done_s).collect();
    let per_second = stats::per_second_counts(&done, wire.window_s);
    let visible: Vec<f64> = wire.updates.iter().map(|u| u.visible_ms).collect();
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# samples: setup_s [{}] queries per second [{}] update_visible_ms [{}]",
        list(&wire.setups_s),
        list(&per_second),
        list(&visible)
    );
    let median = |v: &[f64]| stats::median(v).ok_or("no samples");
    let e2e = Values::from([
        ("setup_s", median(&wire.setups_s)?),
        ("query_p50_ms", median(&rtts)?),
        ("query_p99_ms", stats::tail(&rtts, 0.99)?),
        ("query_qps", rtts.len() as f64 / wire.window_s),
        ("peak_rss_mb", wire.peak_rss_bytes as f64 / 1e6),
    ]);
    let mut layers = traced.values;
    layers.insert("wire.update_ack_p50_ms", median(&wire.noop_acks_ms)?);
    layers.insert("wire.update_visible_p50_ms", median(&visible)?);
    layers.insert("wire.recovery_s", wire.recovery_s);
    layers.insert("probe.max_error", accuracy.max_error);
    layers.insert("probe.rms_error", accuracy.rms_error);
    layers.insert("probe.scores_over_eps", accuracy.over_eps as f64);
    layers.insert("run.nproc", args.cpus.len() as f64);
    layers.insert("run.steal_ticks", steal as f64);

    let failures: Vec<&String> = accuracy
        .violations
        .iter()
        .chain(&wire.errors)
        .chain(&traced.mismatches)
        .collect();
    let attempted = accuracy.scores + wire.attempted + traced.checks;
    println!(
        "# {} measured queries ({} warm-up) in {:.3} s; {} updates; \
         {} replies checked byte for byte; nproc={} steal_ticks={steal}",
        wire.queries.len(),
        wire.warmup.len(),
        wire.window_s,
        wire.updates.len() + POST_CHECKPOINT_UPDATES + wire.noop_acks_ms.len(),
        traced.checks,
        args.cpus.len()
    );
    println!(
        "# failed_share = {} ({} of {attempted} operations)",
        failures.len() as f64 / attempted.max(1) as f64,
        failures.len()
    );
    for f in failures.iter().take(10) {
        println!("# FAILED: {f}");
    }
    print_metrics("end-to-end (tracing off)", END_TO_END, &e2e);
    if args.trace {
        print_metrics("per-layer (traced pass)", PER_LAYER, &layers);
    }
    let (defs, values) = if args.trace {
        (PER_LAYER, &layers)
    } else {
        (END_TO_END, &e2e)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        failures.is_empty(),
        failures.len(),
        json_object(defs, values)
    );
    remove_dir(work)?;
    Ok(failures.is_empty())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv).and_then(|args| {
        let result = run(&args);
        if result.is_err() {
            let _ = remove_dir(&args.work);
        }
        result
    }) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
