//! Waldo ingest throughput: log entries per second into the indexed
//! database.
//!
//! The `strategy/*` benchmarks compare the two daemon ingestion
//! strategies end to end over the same 8000-entry stream:
//! `record_at_a_time` commits after every entry (the original
//! engine), `batch_64` group-commits every 64 entries through the
//! sharded store. EXPERIMENTS.md records the measured ratio.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::LogEntry;
use std::hint::black_box;
use waldo::{ProvDb, WaldoConfig};

fn entries(n: u64) -> Vec<LogEntry> {
    let r = |i: u64| ObjectRef::new(Pnode::new(VolumeId(1), i), Version(0));
    (0..n)
        .flat_map(|i| {
            vec![
                LogEntry::Prov {
                    subject: r(i),
                    record: ProvenanceRecord::new(
                        Attribute::Name,
                        Value::str(format!("/files/f{i}")),
                    ),
                },
                LogEntry::Prov {
                    subject: r(i),
                    record: ProvenanceRecord::new(Attribute::Type, Value::str("FILE")),
                },
                LogEntry::Prov {
                    subject: r(i),
                    record: ProvenanceRecord::input(r(i / 2)),
                },
                LogEntry::DataWrite {
                    subject: r(i),
                    offset: 0,
                    len: 4096,
                    digest: [0; 16],
                },
            ]
        })
        .collect()
}

/// End-to-end batch smoke, run before any timing (in quick mode too,
/// so CI enforces it): a multi-op disclosure transaction committed at
/// user level must surface in Waldo as a committed transaction — the
/// batch boundary flowing intact from `pass_commit` through the
/// Lasagna group frame into the store's group commit. Non-zero
/// batch-path op counters at every layer gate the whole pipeline.
fn batch_pipeline_invariants() {
    use dpapi::{Attribute, Bundle, ProvenanceRecord, Value};
    use passv2::System;

    let mut sys = System::single_volume();
    let pid = sys.spawn("app");
    let app = sys.kernel.pass_mkobj(pid, None).unwrap();
    let mut txn = dpapi::Txn::new();
    for i in 0..8 {
        txn.disclose(
            app,
            Bundle::single(
                app,
                ProvenanceRecord::new(Attribute::Other(format!("STEP{i}")), Value::str("batched")),
            ),
        );
    }
    txn.sync(app);
    sys.kernel.pass_commit(pid, txn).unwrap();
    let kstats = sys.kernel.stats();
    assert!(
        kstats.dpapi_txns >= 1 && kstats.dpapi_txn_ops >= 9,
        "kernel batch counters must be non-zero: {kstats:?}"
    );
    let pstats = sys.pass.stats();
    assert!(
        pstats.txn_commits >= 1 && pstats.txn_ops >= 9,
        "module batch counters must be non-zero: {pstats:?}"
    );
    let mut waldo = sys.spawn_waldo();
    let mut total = waldo::IngestStats::default();
    for (_, logs) in sys.rotate_all_logs() {
        for log in logs {
            total += waldo.ingest_log_file(&mut sys.kernel, &log);
        }
    }
    assert!(
        total.txns_committed >= 1,
        "the batch boundary must reach Waldo's group commit as a \
         transaction: {total:?}"
    );
    println!(
        "waldo_ingest/batch_pipeline: kernel txns={} ops={}, waldo applied={} txns_committed={}",
        kstats.dpapi_txns, kstats.dpapi_txn_ops, total.applied, total.txns_committed
    );
}

fn bench_ingest(c: &mut Criterion) {
    batch_pipeline_invariants();

    let batch = entries(2000);
    let mut group = c.benchmark_group("waldo");
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("ingest_8000_entries", |b| {
        b.iter(|| {
            let db = ProvDb::new();
            black_box(db.ingest(black_box(&batch)));
            db.object_count()
        });
    });
    // Transactional ingest (buffered then committed).
    let mut txn_batch = vec![LogEntry::TxnBegin { id: 1 }];
    txn_batch.extend(entries(1000));
    txn_batch.push(LogEntry::TxnEnd { id: 1 });
    group.bench_function("ingest_txn_4000_entries", |b| {
        b.iter(|| {
            let db = ProvDb::new();
            black_box(db.ingest(black_box(&txn_batch)));
            db.object_count()
        });
    });
    group.finish();

    // The daemon's ingestion strategies over the same stream: entries
    // arrive owned (as from `parse_log`), are staged, and commit
    // either after every record or per group. Cloning the stream is
    // setup, excluded from the measurement.
    let mut group = c.benchmark_group("strategy");
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("record_at_a_time", |b| {
        b.iter_batched(
            || batch.clone(),
            |owned| {
                let db = ProvDb::with_config(WaldoConfig::record_at_a_time());
                let mut stats = waldo::IngestStats::default();
                db.begin_stream();
                for e in owned {
                    db.stage(e, None);
                    db.commit_staged(&mut stats);
                }
                black_box(stats.applied)
            },
            criterion::BatchSize::SmallInput,
        );
    });
    for batch_size in [16usize, 64, 256] {
        group.bench_function(format!("batch_{batch_size}"), |b| {
            b.iter_batched(
                || batch.clone(),
                |owned| {
                    let db = ProvDb::with_config(WaldoConfig {
                        shards: 8,
                        ingest_batch: batch_size,
                        ancestry_cache: 0,
                        ..WaldoConfig::default()
                    });
                    let mut stats = waldo::IngestStats::default();
                    db.begin_stream();
                    for e in owned {
                        db.stage(e, None);
                        if db.staged_len() >= batch_size {
                            db.commit_staged(&mut stats);
                        }
                    }
                    db.commit_staged(&mut stats);
                    black_box(stats.applied)
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// The full daemon loop with durability: entries come from a log file
/// on the simulated disk, and every group commit appends its frame to
/// the database WAL and fsyncs through the kernel. This is where
/// group commit earns its keep: record-at-a-time pays one
/// write+fsync per record.
fn bench_daemon(c: &mut Criterion) {
    use passv2::System;

    let stream = entries(500);
    let mut encoded = bytes::BytesMut::new();
    for e in &stream {
        lasagna::encode_entry(&mut encoded, e).unwrap();
    }
    let log_bytes = encoded.to_vec();

    let mut group = c.benchmark_group("daemon");
    group.throughput(Throughput::Elements(stream.len() as u64));
    for (label, cfg) in [
        ("record_at_a_time", WaldoConfig::record_at_a_time()),
        (
            "batch_64",
            WaldoConfig {
                shards: 8,
                ingest_batch: 64,
                ancestry_cache: 0,
                // WAL only: every group commit appends + fsyncs its
                // frame, no checkpoint ever runs.
                checkpoint_commits: 0,
                checkpoint_wal_bytes: 0,
                ..WaldoConfig::default()
            },
        ),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    // A plain machine holding the pre-encoded log.
                    let mut sys = System::baseline();
                    let pid = sys.spawn("logger");
                    sys.kernel
                        .write_file(pid, "/waldo-input.log", &log_bytes)
                        .unwrap();
                    sys
                },
                |mut sys| {
                    let waldo_pid = sys.kernel.spawn_init("waldo");
                    let mut w = waldo::Waldo::with_config(waldo_pid, cfg);
                    w.attach_db_dir(&mut sys.kernel, "/waldo-db").unwrap();
                    let stats = w.ingest_log_file(&mut sys.kernel, "/waldo-input.log");
                    black_box((stats.applied, w.db.object_count()))
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_daemon);
criterion_main!(benches);
