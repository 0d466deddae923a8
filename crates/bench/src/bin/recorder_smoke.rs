//! The flight-recorder acceptance harness: runs the traced PA-NFS
//! Postmark pipeline with the bounded recorder on and checks the
//! always-on contract end to end —
//!
//! * **free on the virtual clock** — a recorder run's virtual elapsed
//!   time is within 5% of the untraced run's (it is exactly equal:
//!   tracing reads the clock, never advances it);
//! * **byte-equality** — the recorder run's store
//!   ([`waldo::Store::segment_images`]) is byte-identical to the
//!   untraced run's;
//! * **bounded memory** — `spans_high_water <= capacity` at every
//!   batch size, with zero spans shed at an ample capacity;
//! * **deterministic sampling** — two same-seed runs with head
//!   sampling and tail pinning retain byte-identical sampled
//!   trace-id sets, Chrome JSON exports and slow-trace rings, and
//!   every retained trace id passes the pure sampling predicate.
//!
//! Prints the traced-ring-vs-untraced overhead table EXPERIMENTS.md
//! records, then `recorder_smoke: OK`. Exits nonzero on any
//! violation, so CI runs it as a smoke test:
//!
//! ```text
//! cargo run --release -p bench --bin recorder_smoke
//! ```

use std::collections::BTreeSet;

use bench::{traced_postmark, TracedRun};
use provscope::{chrome_trace_json, RecorderConfig};

/// Ring capacity for the bounded runs — ample for this pipeline, so
/// the memory gate (`high_water <= capacity`, zero shed) is strict.
const CAPACITY: usize = 4096;

/// A ring bounded at [`CAPACITY`] that samples every tree and pins
/// no slow ones.
fn ring_config() -> RecorderConfig {
    RecorderConfig {
        capacity: CAPACITY,
        slow_capacity: CAPACITY,
        ..RecorderConfig::default()
    }
}

/// The retained trace-id set of a run, in sorted order.
fn trace_ids(run: &TracedRun) -> BTreeSet<u64> {
    run.trace
        .spans
        .iter()
        .filter_map(|s| s.trace.map(|t| t.0))
        .collect()
}

fn main() {
    println!("recorder_smoke: flight recorder vs untraced, PA-NFS Postmark pipeline");
    println!("(virtual clock; recorder capacity {CAPACITY} spans)\n");
    println!(
        "{:>9}  {:>14}  {:>14}  {:>9}  {:>10}",
        "batch_ops", "untraced_ns", "recorder_ns", "overhead%", "high_water"
    );
    for batch_ops in [1usize, 8, 32] {
        let base = traced_postmark(batch_ops, None);
        let rec = traced_postmark(batch_ops, Some(ring_config()));

        // Gate 1: the recorder is free on the virtual clock (<= 5%).
        let overhead = bench::overhead_pct(base.elapsed_ns as f64, rec.elapsed_ns as f64);
        assert!(
            overhead.abs() <= 5.0,
            "recorder overhead {overhead:.2}% exceeds 5% at batch_ops={batch_ops}"
        );
        // Gate 2: not one stored byte changed.
        assert_eq!(
            rec.segment_images, base.segment_images,
            "recorder run diverged from untraced store bytes at batch_ops={batch_ops}"
        );
        // Gate 3: bounded span memory, nothing shed at ample capacity.
        assert!(
            rec.recorder.spans_high_water <= CAPACITY as u64,
            "high water {} exceeds capacity {CAPACITY}",
            rec.recorder.spans_high_water
        );
        assert_eq!(rec.recorder.spans_shed, 0, "ample capacity must not shed");
        rec.trace.validate().expect("well-formed retained forest");

        println!(
            "{:>9}  {:>14}  {:>14}  {:>8.2}%  {:>10}",
            batch_ops, base.elapsed_ns, rec.elapsed_ns, overhead, rec.recorder.spans_high_water
        );
    }

    // Deterministic sampling + tail pinning: pick a slow threshold at
    // a real root duration (so the slow ring is non-trivially
    // populated), then run the same sampled config twice.
    let full = traced_postmark(8, Some(ring_config()));
    let mut root_durations: Vec<u64> = full
        .batch_traces
        .iter()
        .filter_map(|t| {
            full.trace
                .spans
                .iter()
                .filter(|s| s.trace == Some(*t) && s.parent.is_none())
                .map(|s| s.end_ns.unwrap_or(s.start_ns) - s.start_ns)
                .max()
        })
        .collect();
    root_durations.sort_unstable();
    let threshold = root_durations[root_durations.len() / 2];
    let sampled_cfg = RecorderConfig {
        capacity: CAPACITY,
        sample_per_million: 500_000,
        seed: 0xC0FF_EE00,
        slow_threshold_ns: threshold,
        slow_capacity: CAPACITY,
    };

    let twin_a = traced_postmark(8, Some(sampled_cfg));
    let twin_b = traced_postmark(8, Some(sampled_cfg));
    assert_eq!(
        trace_ids(&twin_a),
        trace_ids(&twin_b),
        "same-seed runs must retain identical sampled trace-id sets"
    );
    assert_eq!(
        chrome_trace_json(&twin_a.trace),
        chrome_trace_json(&twin_b.trace),
        "same-seed runs must export byte-identical Chrome JSON"
    );
    assert_eq!(
        twin_a.slow, twin_b.slow,
        "same-seed runs must pin identical slow-trace rings"
    );
    assert!(
        !twin_a.slow.is_empty(),
        "the median-root threshold must pin at least one slow trace"
    );
    // Every retained *batch* trace either passed the pure sampling
    // predicate or was pinned by the tail rule.
    let slow: BTreeSet<u64> = twin_a.slow.iter().map(|s| s.trace.0).collect();
    for t in trace_ids(&twin_a) {
        let id = provscope::TraceId(t);
        if id.is_batch() {
            assert!(
                sampled_cfg.samples(id) || slow.contains(&t),
                "retained batch trace {t:#x} neither sampled nor slow-pinned"
            );
        }
    }
    println!(
        "\nsampling twin check: {} spans retained, {} slow trace(s) pinned \
         at threshold {threshold}ns, seed {:#x}",
        twin_a.trace.spans.len(),
        twin_a.slow.len(),
        sampled_cfg.seed
    );
    println!("recorder_smoke: OK");
}
