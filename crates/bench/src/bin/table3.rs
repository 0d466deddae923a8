//! Regenerates Table 3: space overheads of the provenance database
//! and its indexes, as a percentage of the base data written.
//!
//! ```text
//! cargo run --release -p bench --bin table3 [-- --trace]
//! ```
//!
//! With `--trace`, additionally runs a traced PA-NFS Postmark round
//! and prints the per-layer latency attribution plus the Chrome-trace
//! JSON export path (load it in `chrome://tracing` / Perfetto).

use bench::{measure, standard_workloads, traced_postmark, Config};

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    println!("Table 3: Space overheads (MB), PASSv2 configuration");
    println!(
        "{:<20} {:>10} {:>16} {:>22}",
        "Benchmark", "Ext3", "Provenance", "Provenance+Indexes"
    );
    println!("{}", "-".repeat(74));
    let mut measured = Vec::new();
    for wl in standard_workloads() {
        let m = measure(Config::PassV2, wl.as_ref());
        let base = m.data_bytes;
        let prov = m.db_bytes;
        let total = m.db_bytes + m.index_bytes;
        println!(
            "{:<20} {:>10.2} {:>9.3} ({:>4.1}%) {:>14.3} ({:>4.1}%)",
            wl.name(),
            mb(base),
            mb(prov),
            prov as f64 / base as f64 * 100.0,
            mb(total),
            total as f64 / base as f64 * 100.0,
        );
        measured.push((wl.name().to_string(), m));
    }
    println!();
    println!("Operational counters (PASSv2 daemon: durable WAL + checkpoints,");
    println!("ancestry of the first 64 objects queried twice to exercise the");
    println!("cache; `planner.` rows are one §5.7-style name-equality ancestry");
    println!("query per run, root-bound via the attribute index)");
    let mut reg = provscope::Registry::new();
    for (name, m) in &measured {
        reg.absorb(&format!("{name}."), &m.ops);
    }
    println!("{}", reg.render_table());
    println!("Paper reference (MB):");
    println!("  Linux Compile      1287.9   88.9 (6.9%)   236.8 (18.4%)");
    println!("  Postmark           1289.5    0.8 (0.1%)     1.7 ( 0.1%)");
    println!("  Mercurial Activity  858.7   15.4 (1.8%)    28.9 ( 3.4%)");
    println!("  Blast                 5.6    0.1 (1.1%)     0.2 ( 3.8%)");
    println!("  PA-Kepler             3.5    0.2 (4.7%)     0.5 (14.2%)");

    if std::env::args().any(|a| a == "--trace") {
        let run = traced_postmark(8, Some(provscope::RecorderConfig::default()));
        println!();
        println!("Traced PA-NFS Postmark (8-op disclosure batches):");
        println!("{}", run.trace.render_latency_table());
        let path = "target/provscope-table3.json";
        match std::fs::write(path, provscope::chrome_trace_json(&run.trace)) {
            Ok(()) => println!("Chrome trace written to {path}"),
            Err(e) => println!("Chrome trace not written ({path}: {e})"),
        }
    }
}
