//! CI smoke: the full fault × topology matrix at a fixed seed, run
//! **twice**, asserting (a) zero silent divergence and (b) that the
//! second pass reproduces the first report-for-report — the
//! determinism contract the whole harness rests on. The cluster
//! topology's faulted twin ingests on the threaded runtime, whose
//! span-id allocation order depends on thread interleaving, so
//! traces are held to *structural* equality (same (layer, op,
//! parentage) census) and everything else — verdicts, signals, store
//! bytes — to bit equality. Exits nonzero on any violation. Override
//! the seed with `PROVTORTURE_SEED=<u64>`.

use std::collections::BTreeMap;

use provscope::RecorderConfig;
use provtorture::{torture, CaseReport, Verdict, ALL_FAULTS, ALL_TOPOLOGIES};
use workloads::SelfIngest;

/// Interleaving-independent shape of a Chrome trace: span counts per
/// (layer, op, root-or-child).
fn trace_shape(json: &str) -> BTreeMap<(String, String, bool), usize> {
    let mut shape = BTreeMap::new();
    for ev in provscope::parse_chrome_trace(json).expect("harness traces parse") {
        *shape
            .entry((ev.cat, ev.name, ev.parent.is_some()))
            .or_insert(0) += 1;
    }
    shape
}

/// The whole matrix with the faulted twin's scope retaining spans
/// under `recorder`.
fn run_matrix(seed: u64, recorder: RecorderConfig) -> Vec<CaseReport> {
    let wl = SelfIngest {
        sources: 3,
        src_bytes: 512,
        cpu_per_unit: 500,
    };
    let mut reports = Vec::new();
    for topo in ALL_TOPOLOGIES {
        for fault in &ALL_FAULTS {
            reports.push(torture(&wl, topo, fault, seed, recorder));
        }
    }
    reports
}

/// The flight-recorder config for the recorder determinism pass:
/// bounded ring, half head-sampling at a fixed seed, tail pinning
/// off (`u64::MAX`) so retention is decided solely by the pure
/// trace-id predicate — the one part that must reproduce exactly
/// even on the threaded cluster runtime, where virtual timestamps
/// (and so any duration-based pinning) depend on interleaving.
fn recorder_config() -> RecorderConfig {
    RecorderConfig {
        capacity: 4096,
        sample_per_million: 500_000,
        seed: 0x7061_7373,
        slow_threshold_ns: u64::MAX,
        slow_capacity: 4096,
    }
}

fn main() {
    let seed = std::env::var("PROVTORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x7061_7373_7632);
    let mut first = run_matrix(seed, RecorderConfig::default());
    let mut second = run_matrix(seed, RecorderConfig::default());
    for (a, b) in first.iter_mut().zip(second.iter_mut()) {
        assert_eq!(
            trace_shape(&a.trace_json),
            trace_shape(&b.trace_json),
            "determinism violation: trace structure differs for {} under {}",
            a.fault,
            a.topology.name()
        );
        a.trace_json.clear();
        b.trace_json.clear();
    }
    assert_eq!(
        first, second,
        "determinism violation: identical seed produced different reports"
    );

    println!("provtorture tamper matrix (seed {seed:#x}, verified reproducible)");
    println!("{:-<72}", "");
    let mut divergences = 0;
    for report in &first {
        println!("{report}");
        if report.verdict() == Verdict::SilentDivergence {
            divergences += 1;
            eprintln!("  !! {report:?}");
        }
        assert!(
            report.applied.is_some(),
            "fault {} found no target under {} — harness bug",
            report.fault,
            report.topology.name()
        );
    }
    println!("{:-<72}", "");
    println!(
        "{} cases, {} silent divergences, verdicts reproduced across two passes",
        first.len(),
        divergences
    );
    if divergences > 0 {
        std::process::exit(1);
    }

    // Flight-recorder pass: the same matrix with the faulted twin's
    // scope bounded and head-sampling half the trace trees. The
    // recorder only decides retention, so every verdict and signal
    // must match the unbounded pass verbatim; and because sampling is
    // a pure function of the volume-salted trace id, two same-seed
    // recorder runs must retain *identical* batch trace-id sets —
    // exactly the sampled subset of the unbounded run's.
    let cfg = recorder_config();
    let rec_a = run_matrix(seed, cfg);
    let rec_b = run_matrix(seed, cfg);
    for ((a, b), full) in rec_a.iter().zip(&rec_b).zip(&first) {
        let cell = format!("{} under {}", a.fault, a.topology.name());
        assert_eq!(
            a.verdict(),
            full.verdict(),
            "recorder changed the verdict for {cell}"
        );
        assert_eq!(
            a.signals, full.signals,
            "recorder changed detection signals for {cell}"
        );
        assert_eq!(
            a.sampled_traces, b.sampled_traces,
            "same-seed recorder runs retained different trace-id sets for {cell}"
        );
        let expected: Vec<u64> = full
            .sampled_traces
            .iter()
            .copied()
            .filter(|&t| cfg.samples(provscope::TraceId(t)))
            .collect();
        assert_eq!(
            a.sampled_traces, expected,
            "recorder retention is not the pure sampled subset for {cell}"
        );
    }
    let (kept, total): (usize, usize) = (
        rec_a.iter().map(|r| r.sampled_traces.len()).sum(),
        first.iter().map(|r| r.sampled_traces.len()).sum(),
    );
    println!(
        "recorder pass: verdicts and signals match the unbounded run; \
         {kept}/{total} batch traces retained, sets reproduced across two passes"
    );
}
