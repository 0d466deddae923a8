//! The provscope acceptance harness: runs a traced, batched Postmark
//! round on the PA-NFS configuration and checks the tentpole
//! contract end to end —
//!
//! * the Chrome-trace export parses and every disclosure batch is
//!   **one connected span tree** crossing at least five layers
//!   (kernel, dpapi, pa-nfs, lasagna, waldo);
//! * two same-seed traced runs export **byte-identical** JSON (spans
//!   live on the virtual clock; there is no ambient entropy to
//!   leak);
//! * a run with tracing disabled produces a **byte-identical store**
//!   ([`waldo::Store::segment_images`]) — tracing observes, never
//!   participates.
//!
//! Prints the per-layer latency attribution for disclosure batch
//! sizes 1, 8 and 32 (the EXPERIMENTS.md table) plus the unified
//! metrics registry, then `provscope: OK`. Exits nonzero on any
//! violation, so CI can run it as a smoke test:
//!
//! ```text
//! cargo run --release -p bench --bin provscope_trace
//! ```

use bench::{traced_postmark, TracedRun, TRACED_DISCLOSURES};
use provscope::{chrome_trace_json, parse_chrome_trace, RecorderConfig};

/// The layers a batched disclosure must cross on the PA-NFS machine.
const REQUIRED_LAYERS: [&str; 5] = ["dpapi", "kernel", "lasagna", "pa-nfs", "waldo"];

fn check_batch_trees(run: &TracedRun, batch_ops: usize) {
    assert_eq!(
        run.batch_traces.len(),
        TRACED_DISCLOSURES,
        "every multi-op disclosure allocates exactly one batch id"
    );
    for t in &run.batch_traces {
        assert!(t.is_batch(), "batch trace ids carry the batch tag bit");
        assert!(
            run.trace.is_connected_tree(*t),
            "batch {t:?} must form one connected span tree"
        );
        let layers = run.trace.layers_of(*t);
        for need in REQUIRED_LAYERS {
            assert!(
                layers.contains(&need),
                "batch {t:?} (batch_ops={batch_ops}) must cross {need}; got {layers:?}"
            );
        }
    }
}

fn main() {
    // Traced, batched: the span-tree contract and run-to-run
    // determinism.
    let run_a = traced_postmark(8, Some(RecorderConfig::default()));
    run_a.trace.validate().expect("well-formed span forest");
    let json_a = chrome_trace_json(&run_a.trace);
    let events = parse_chrome_trace(&json_a).expect("chrome trace parses");
    assert_eq!(
        events.len(),
        run_a.trace.spans.len(),
        "every span exports as one complete event"
    );
    check_batch_trees(&run_a, 8);

    let run_b = traced_postmark(8, Some(RecorderConfig::default()));
    let json_b = chrome_trace_json(&run_b.trace);
    assert_eq!(
        json_a, json_b,
        "same-seed traced runs must export byte-identical Chrome JSON"
    );

    // Tracing disabled: byte-equality of the resulting store.
    let run_off = traced_postmark(8, None);
    assert!(
        run_off.trace.spans.is_empty() && run_off.batch_traces.is_empty(),
        "a disabled scope records nothing"
    );
    assert_eq!(
        run_off.segment_images, run_a.segment_images,
        "tracing must not change a single store byte"
    );

    // The per-layer latency attribution across batch sizes — the
    // measured table EXPERIMENTS.md records.
    println!("provscope: per-layer latency attribution, PA-NFS Postmark");
    println!(
        "({} disclosure transactions per run, virtual clock)\n",
        TRACED_DISCLOSURES
    );
    for batch_ops in [1usize, 8, 32] {
        let run = if batch_ops == 8 {
            run_a.trace.clone()
        } else {
            let r = traced_postmark(batch_ops, Some(RecorderConfig::default()));
            r.trace.validate().expect("well-formed span forest");
            if batch_ops > 1 {
                check_batch_trees(&r, batch_ops);
            }
            r.trace.clone()
        };
        println!("batch_ops = {batch_ops}");
        println!("{}", run.render_latency_table());
    }

    println!("unified metrics registry (traced run, batch_ops = 8)");
    println!("{}", run_a.registry.render_table());
    println!("provscope: OK");
}
