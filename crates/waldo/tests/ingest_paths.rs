//! The daemon's ingest entry points are one staging loop. Over the
//! same log bytes, at every ingest batch size and multi-log schedule,
//!
//! * `ingest_log_file` (read through the kernel, durability per group
//!   commit),
//! * `ingest_log_image` (bytes by value, no replay source), and
//! * `ingest_images_offline` + `flush_durable` (kernel-free,
//!   durability deferred to the flush)
//!
//! build byte-equal stores under `Store::segment_images`, and count
//! the same entries, transactions and log tails. Commit sequences
//! match whenever the logs go in with the same call granularity.

use bytes::BytesMut;
use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
use lasagna::{batch_txn_id, encode_entry, encode_group, LogEntry};
use passv2::System;
use proptest::prelude::*;
use waldo::{IngestStats, LogImage, Waldo, WaldoConfig};

const VOLUME: u32 = 1;

fn prov(subject: ObjectRef, attr: Attribute, value: Value) -> LogEntry {
    LogEntry::Prov {
        subject,
        record: ProvenanceRecord::new(attr, value),
    }
}

/// A plain provenance record or data write on `VOLUME`.
fn arb_entry() -> impl Strategy<Value = LogEntry> {
    let subject = (1u64..32, 0u32..3)
        .prop_map(|(n, v)| ObjectRef::new(Pnode::new(VolumeId(VOLUME), n), Version(v)));
    prop_oneof![
        (subject.clone(), "[a-z]{1,6}").prop_map(|(s, name)| prov(
            s,
            Attribute::Name,
            Value::Str(format!("/{name}"))
        )),
        (subject.clone(), 0usize..3).prop_map(|(s, t)| prov(
            s,
            Attribute::Type,
            Value::str(["FILE", "PROC", "PIPE"][t])
        )),
        (subject.clone(), 1u64..32).prop_map(|(s, n)| prov(
            s,
            Attribute::Input,
            Value::Xref(ObjectRef::new(Pnode::new(VolumeId(VOLUME), n), Version(0))),
        )),
        (subject.clone(), "[a-z]{1,4}").prop_map(|(s, phase)| prov(
            s,
            Attribute::Other("PHASE".into()),
            Value::Str(phase)
        )),
        (subject, 0u64..4096, 1u32..4096).prop_map(|(s, offset, len)| LogEntry::DataWrite {
            subject: s,
            offset,
            len,
            digest: [7u8; 16],
        }),
    ]
}

/// One piece of a log: a plain entry, or a disclosure batch framed as
/// one group.
#[derive(Clone, Debug)]
enum Chunk {
    Plain(LogEntry),
    Group(Vec<LogEntry>),
}

fn arb_chunk() -> impl Strategy<Value = Chunk> {
    prop_oneof![
        arb_entry().prop_map(Chunk::Plain),
        proptest::collection::vec(arb_entry(), 1..6).prop_map(Chunk::Group),
    ]
}

/// Encodes a schedule of logs. Groups take consecutive batch
/// sequences across the whole schedule; a `torn` log ends in half a
/// frame, as a crash mid-append leaves it.
fn encode_logs(logs: &[(Vec<Chunk>, bool)]) -> Vec<Vec<u8>> {
    let mut seq = 0;
    logs.iter()
        .map(|(chunks, torn)| {
            let mut buf = BytesMut::new();
            for chunk in chunks {
                match chunk {
                    Chunk::Plain(e) => encode_entry(&mut buf, e).unwrap(),
                    Chunk::Group(members) => {
                        seq += 1;
                        let id = batch_txn_id(VolumeId(VOLUME), seq);
                        let mut group = vec![LogEntry::TxnBegin { id }];
                        group.extend(members.iter().cloned());
                        group.push(LogEntry::TxnEnd { id });
                        encode_group(&mut buf, &group).unwrap();
                    }
                }
            }
            if *torn {
                let mut frame = BytesMut::new();
                let subject = ObjectRef::new(Pnode::new(VolumeId(VOLUME), 1), Version(0));
                encode_entry(
                    &mut frame,
                    &prov(subject, Attribute::Name, Value::str("/torn")),
                )
                .unwrap();
                buf.extend_from_slice(&frame[..frame.len() / 2]);
            }
            buf.to_vec()
        })
        .collect()
}

/// A memory-only daemon with its own pid.
fn daemon(sys: &mut System, name: &str, ingest_batch: usize) -> Waldo {
    let pid = sys.kernel.spawn_init(name);
    Waldo::with_config(
        pid,
        WaldoConfig {
            shards: 4,
            ingest_batch,
            ancestry_cache: 0,
            ..WaldoConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn entry_points_build_byte_equal_stores(
        logs in proptest::collection::vec(
            (proptest::collection::vec(arb_chunk(), 0..12), any::<bool>()),
            1..4,
        ),
        ingest_batch in prop_oneof![Just(1usize), 2usize..16, Just(64)],
    ) {
        let bytes = encode_logs(&logs);
        let mut sys = System::baseline();
        let writer = sys.spawn("writer");
        let images: Vec<LogImage> = bytes
            .iter()
            .enumerate()
            .map(|(i, b)| LogImage { path: format!("/log.{i}"), bytes: b.clone() })
            .collect();
        for image in &images {
            sys.kernel.write_file(writer, &image.path, &image.bytes).unwrap();
        }

        // Read through the kernel, one call per log. It runs first:
        // retiring a log unlinks it, and a memory-only flush below
        // retires the same paths.
        let mut file = daemon(&mut sys, "file", ingest_batch);
        let file_stats: IngestStats = images
            .iter()
            .map(|i| file.ingest_log_file(&mut sys.kernel, &i.path))
            .sum();
        prop_assert_eq!(file.processed_logs(), images.len() as u64);

        // By value, without a replay source, one call per log.
        let mut by_value = daemon(&mut sys, "image", ingest_batch);
        let by_value_stats: IngestStats = images
            .iter()
            .map(|i| by_value.ingest_log_image(&mut sys.kernel, &i.bytes))
            .sum();

        // Kernel-free, one call per log, then one flush.
        let mut per_log = daemon(&mut sys, "per-log", ingest_batch);
        let mut per_log_stats: IngestStats = images
            .iter()
            .map(|i| per_log.ingest_images_offline(std::slice::from_ref(i)))
            .sum();
        per_log_stats += per_log.flush_durable(&mut sys.kernel);

        // Kernel-free, every log in one call, then one flush.
        let mut offline = daemon(&mut sys, "offline", ingest_batch);
        let mut offline_stats = offline.ingest_images_offline(&images);
        offline_stats += offline.flush_durable(&mut sys.kernel);

        let reference = file.db.segment_images();
        prop_assert!(by_value.db.segment_images() == reference, "ingest_log_image diverged");
        prop_assert!(per_log.db.segment_images() == reference, "per-log offline ingest diverged");
        prop_assert!(offline.db.segment_images() == reference, "one-call offline ingest diverged");

        prop_assert_eq!(by_value_stats, file_stats);
        prop_assert_eq!(per_log_stats, file_stats);
        prop_assert_eq!(by_value.db.commit_seq(), file.db.commit_seq());
        prop_assert_eq!(per_log.db.commit_seq(), file.db.commit_seq());
        // One call over every log differs only in commit grouping.
        prop_assert_eq!(offline_stats.applied, file_stats.applied);
        prop_assert_eq!(offline_stats.txns_committed, file_stats.txns_committed);
        prop_assert_eq!(offline_stats.tails_truncated, file_stats.tails_truncated);
        prop_assert_eq!(offline_stats.tails_corrupt, file_stats.tails_corrupt);
        if images.len() == 1 {
            prop_assert_eq!(offline.db.commit_seq(), file.db.commit_seq());
        }
    }
}
