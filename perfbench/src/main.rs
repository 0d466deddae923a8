//! Host-time benchmark of the whole provenance stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <build_ingest|panfs_disclose|query_mix|cluster_fanin> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets up the workload several times (the median is `setup_s`), runs
//! its closed loop for `--seconds`, checks the program's outputs, and
//! prints a readable summary followed, as the last line, by one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, their timings
//! brought to a nominal host speed (see [`calib`]); with `--trace 1`
//! iterations alternate untraced and traced, and the metrics are the
//! per-layer ones, including each layer's self time and the tracing
//! overhead. A traced run also writes its spans, one JSON object per
//! line, to `perfbench/traces/<workload>-<seed>.jsonl`.

mod calib;
mod gen;
mod harness;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use harness::{peak_rss_mb, Acc};
use spans::Tracer;
use stats::{blocked_tail, median, summarize};
use workloads::{Bench, BuildIngest, ClusterFanin, PanfsDisclose, QueryMixBench};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// How far the summed self times of a traced iteration may fall from
/// its wall time, as a share of the wall time.
const SELF_TIME_SLACK: f64 = 0.01;
/// Iterations a run makes even when its time is up (two untraced and
/// two traced in a traced run).
const MIN_ITERS: usize = 4;

/// End-to-end metrics and their units, reported with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("collect_ops_per_s", "1/s"),
    ("ingest_entries_per_s", "1/s"),
    ("e2e_us_per_record", "us"),
    ("commit_p50_us", "us"),
    ("commit_p99_us", "us"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("restart_s", "s"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Layers self time is booked to: the crates, plus `bench` for the
/// harness's own share of an iteration.
const LAYERS: &[&str] = &[
    "sim_os", "core", "lasagna", "pa_nfs", "sluice", "waldo", "cluster", "pql", "bench",
];

/// Per-layer metrics measured from outside, with their units. Each is
/// the median over the run's iterations unless its name says otherwise.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim_os.run_s", "s"),
    ("sim_os.syscalls", "count"),
    ("sim_os.bytes_written", "bytes"),
    ("core.collect_s", "s"),
    ("core.records_emitted", "count"),
    ("core.records_cached", "count"),
    ("core.materializations", "count"),
    ("core.txn_commits", "count"),
    ("lasagna.rotate_s", "s"),
    ("lasagna.parse_s", "s"),
    ("lasagna.log_bytes", "bytes"),
    ("pa_nfs.rpcs", "count"),
    ("pa_nfs.wire_bytes_per_txn", "bytes"),
    ("pa_nfs.disclosure_txns", "count"),
    ("pa_nfs.drain_s", "s"),
    ("sluice.submit_s", "s"),
    ("sluice.drain_s", "s"),
    ("sluice.ops_per_frame", "ratio"),
    ("sluice.frames", "count"),
    ("sluice.rejected", "count"),
    ("sluice.queue_peak_ops", "count"),
    ("waldo.ingest_s", "s"),
    ("waldo.apply_s", "s"),
    ("waldo.durability_s", "s"),
    ("waldo.group_commits", "count"),
    ("waldo.checkpoints", "count"),
    ("waldo.segment_bytes", "bytes"),
    ("waldo.write_amp", "ratio"),
    ("waldo.checkpoint_s", "s"),
    ("waldo.restart_s", "s"),
    ("waldo.replayed_entries", "count"),
    ("waldo.wal_frames_beyond_checkpoint", "count"),
    ("waldo.cache_hit_ratio", "ratio"),
    ("waldo.cache_lookups", "count"),
    ("waldo.cache_hit_ratio_hot", "ratio"),
    ("waldo.cache_lookups_hot", "count"),
    ("waldo.cache_hit_ratio_tail", "ratio"),
    ("waldo.cache_lookups_tail", "count"),
    ("waldo.cache_invalidated", "count"),
    ("cluster.poll_s", "s"),
    ("cluster.member_wall_max_s", "s"),
    ("cluster.skew", "ratio"),
    ("cluster.lock_wait_p99_ns", "ns"),
    ("pql.parse_us", "us"),
    ("pql.point_p99_us", "us"),
    ("pql.ancestry_p99_us", "us"),
    ("pql.descendants_p99_us", "us"),
    ("pql.scan_p99_us", "us"),
    ("pql.index_hits", "count"),
    ("pql.rows_pruned", "count"),
    ("pql.closure_calls_saved", "count"),
    ("pql.naive_fallbacks", "count"),
    ("pql.rows_returned", "count"),
    ("trace_overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Reference-task times of a run (see [`calib`]), by phase.
#[derive(Default)]
struct Refs {
    /// One before each set-up and one after the last.
    setup: Vec<f64>,
    /// One before each iteration, one after the last and one after
    /// the final phase.
    run: Vec<f64>,
}

/// Sets up `B` [`SETUP_REPS`] times, then iterates until `seconds`
/// have passed. `setup_s` covers building machines, generating the
/// seeded inputs, any preload, and one warm-up iteration. The
/// reference task runs between set-ups and between iterations.
fn run<B: Bench>(args: &Args, tr: &mut Tracer, acc: &mut Acc) -> Refs {
    let mut refs = Refs::default();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        refs.setup.push(calib::measure());
        let t = Instant::now();
        let mut b = B::setup(args.seed, acc);
        let setup_s = t.elapsed().as_secs_f64();
        // One warm-up iteration, so lazy allocation is out of the
        // measured loop; its checks count, its figures do not, and
        // `setup_s` takes its wall time without the checks after it
        // (their cost depends on which queries the seed samples).
        let mut warm = Acc::default();
        b.iterate(tr, &mut warm);
        acc.setup_s
            .push(setup_s + warm.wall_untraced.iter().sum::<f64>());
        acc.ops(warm.attempted, warm.failed);
        acc.mismatches.append(&mut warm.mismatches);
        if let Some((v, n)) = warm.reference {
            acc.rerun(v, n);
        }
        bench = Some(b);
    }
    refs.setup.push(calib::measure());
    let mut bench = bench.expect("set up at least once");
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut i = 0;
    while i < MIN_ITERS || Instant::now() < deadline {
        refs.run.push(calib::measure());
        tr.set_enabled(args.trace && i % 2 == 1);
        bench.iterate(tr, acc);
        i += 1;
    }
    tr.set_enabled(false);
    refs.run.push(calib::measure());
    bench.finish(tr, acc);
    refs.run.push(calib::measure());
    println!(
        "  {i} iterations; iteration wall median {:.4} s untraced, {:.4} s traced",
        median(&acc.wall_untraced),
        median(&acc.wall_traced)
    );
    println!(
        "  reference task median {:.3} ms at set-up, {:.3} ms in the loop (nominal {:.3} ms)",
        median(&refs.setup) * 1e3,
        median(&refs.run) * 1e3,
        calib::NOMINAL_S * 1e3
    );
    refs
}

/// End-to-end metrics as measured; [`calibrate`] brings their timings
/// to the nominal host.
fn end_to_end(acc: &Acc) -> BTreeMap<&'static str, f64> {
    let commit = summarize(&acc.commit_us);
    let query = summarize(&acc.query_us);
    let (commit_tail, commit_p, commit_blocks) = blocked_tail(&acc.commit_us);
    let (query_tail, query_p, query_blocks) = blocked_tail(&acc.query_us);
    println!(
        "  commit latency: {} samples, tail p{commit_p} (median of {commit_blocks} block(s)); \
         query latency: {} samples, tail p{query_p} (median of {query_blocks} block(s))",
        commit.n, query.n
    );
    BTreeMap::from([
        ("setup_s", median(&acc.setup_s)),
        ("collect_ops_per_s", median(&acc.collect_ops_per_s)),
        ("ingest_entries_per_s", median(&acc.ingest_entries_per_s)),
        ("e2e_us_per_record", median(&acc.e2e_us_per_record)),
        ("commit_p50_us", commit.p50),
        ("commit_p99_us", commit_tail),
        ("query_p50_us", query.p50),
        ("query_p99_us", query_tail),
        ("queries_per_s", median(&acc.query_rates)),
        ("restart_s", median(&acc.restart_s)),
        ("space_amp", median(&acc.space_amp)),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

/// Brings measured end-to-end metrics to the nominal host speed:
/// `setup_s` by the set-up phase's reference times, every other time
/// and rate by the loop's. Sizes and ratios stay as measured.
fn calibrate(m: &mut BTreeMap<&'static str, f64>, refs: &Refs) {
    let (setup, run) = (calib::factor(&refs.setup), calib::factor(&refs.run));
    for (name, v) in m.iter_mut() {
        match *name {
            "setup_s" => *v *= setup,
            "collect_ops_per_s" | "ingest_entries_per_s" | "queries_per_s" => *v /= run,
            "space_amp" | "peak_rss_mb" => {}
            _ => *v *= run,
        }
    }
}

fn per_layer(acc: &mut Acc, tr: &Tracer) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for (name, samples) in &acc.layer {
        m.insert(name.to_string(), median(samples));
    }
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let durability =
        get(&m, "waldo.ingest_s") - get(&m, "lasagna.parse_s") - get(&m, "waldo.apply_s");
    m.insert("waldo.durability_s".into(), durability);
    for (class, samples) in &acc.class_us {
        m.insert(
            format!("pql.{}_p99_us", class.name()),
            summarize(samples).tail,
        );
    }
    let untraced = median(&acc.wall_untraced);
    m.insert(
        "trace_overhead_pct".into(),
        (median(&acc.wall_traced) / untraced - 1.0) * 100.0,
    );
    let iters = tr.iteration_self_times();
    let (roots, traced) = (iters.len(), acc.wall_traced.len());
    acc.check(roots == traced, || {
        format!("{roots} traced iteration spans for {traced} traced iterations")
    });
    let mut by_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, (_, layers)) in iters.iter().enumerate() {
        // Against the iteration's wall time read off its own clock.
        let total = layers.values().sum::<u64>() as f64 / 1e9;
        let wall = acc.wall_traced.get(i).copied().unwrap_or(f64::NAN);
        acc.check((total - wall).abs() <= SELF_TIME_SLACK * wall, || {
            format!("self times sum to {total:.6} s, iteration wall is {wall:.6} s")
        });
        for l in LAYERS {
            let ns = layers.get(l).copied().unwrap_or(0);
            by_layer.entry(l).or_default().push(ns as f64 / 1e3);
        }
        for l in layers.keys() {
            acc.check(LAYERS.contains(l), || format!("span in unknown layer {l}"));
        }
    }
    for l in LAYERS {
        let s = summarize(by_layer.get(l).map_or(&[][..], Vec::as_slice));
        m.insert(format!("self.{l}.p50_us"), s.p50);
        m.insert(format!("self.{l}.p99_us"), s.tail);
    }
    println!(
        "  traced iterations: {}, self-time tail at p{}",
        iters.len(),
        stats::tail_percentile(iters.len())
    );
    m
}

/// Per-layer metric names and units, self times included.
fn per_layer_table() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for l in LAYERS {
        v.push((format!("self.{l}.p50_us"), "us"));
        v.push((format!("self.{l}.p99_us"), "us"));
    }
    v
}

fn json_metrics(values: &BTreeMap<String, f64>, table: &[(String, &str)]) -> String {
    let items: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut acc = Acc::default();
    let mut tr = Tracer::new(false);
    let refs = match args.workload.as_str() {
        "build_ingest" => run::<BuildIngest>(&args, &mut tr, &mut acc),
        "panfs_disclose" => run::<PanfsDisclose>(&args, &mut tr, &mut acc),
        "query_mix" => run::<QueryMixBench>(&args, &mut tr, &mut acc),
        "cluster_fanin" => run::<ClusterFanin>(&args, &mut tr, &mut acc),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench {} seed {} ({} s, trace {}):",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (values, table): (BTreeMap<String, f64>, Vec<(String, &str)>) = if args.trace {
        let values = per_layer(&mut acc, &tr);
        let dir = std::path::Path::new("perfbench/traces");
        let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tr.to_json_lines()))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        (values, per_layer_table())
    } else {
        let mut values = end_to_end(&acc);
        for (name, v) in &values {
            println!("  (as measured: {name} {v:.6})");
        }
        calibrate(&mut values, &refs);
        let values = values
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let table = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        (values, table)
    };
    for (name, unit) in &table {
        println!(
            "  {name:<36} {:>16.6} {unit}",
            values.get(name).copied().unwrap_or(0.0)
        );
    }
    for (name, samples) in &acc.layer {
        if !table.iter().any(|(n, _)| n == name) {
            println!("  ({name} {:.6})", median(samples));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        acc.mismatches.is_empty(),
        acc.attempted.max(1),
        acc.failed,
        json_metrics(&values, &table)
    );
}
