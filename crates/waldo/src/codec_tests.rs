//! Tests over every binary codec at once: the provenance log, the
//! database WAL, checkpoint segments and manifests, and the dpapi
//! record encoding they all embed.
//!
//! * **Format pin.** A fixed, seeded input set is encoded by every
//!   encoder and each image's length and MD5 are compared with values
//!   recorded from the encoders as they stood before the codecs were
//!   unified. Any change to a byte of any format fails here.
//! * **Robustness.** A fixed-seed stream of hostile inputs — random
//!   bytes, byte-mutated valid images, and valid images whose count
//!   and length prefixes are overwritten with oversized values and
//!   re-sealed with a recomputed CRC so they reach the body decoder —
//!   is fed to every decoder. None may panic (an allocation sized by
//!   an unchecked prefix aborts), and every rejection must be typed:
//!   [`DpapiError::Malformed`] from the `Result` decoders, a
//!   [`LogTail`] from the frame walkers.

use dpapi::{
    wire, Attribute, DpapiError, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId,
};
use lasagna::{crc32, encode_entry, encode_group, md5, parse_log, LogEntry, LogTail};
use proptest::test_runner::TestRng;

use crate::manifest::{decode_manifest, encode_manifest, Manifest, SegmentRef};
use crate::segment::{decode_shard, encode_shard};
use crate::shard::Shard;
use crate::wal::{encode_frame, parse_wal, WalFrame};

/// splitmix64: the fixed input set must not depend on any
/// environment-perturbable generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn text(state: &mut u64, max: u64) -> String {
    let n = next(state) % (max + 1);
    (0..n)
        .map(|_| char::from(b'a' + (next(state) % 26) as u8))
        .collect()
}

fn objref(state: &mut u64) -> ObjectRef {
    ObjectRef::new(
        Pnode::new(VolumeId(1 + (next(state) % 3) as u32), next(state) % 12),
        Version((next(state) % 4) as u32),
    )
}

/// A seeded stream of log entries covering every entry kind and every
/// record value kind.
fn seeded_entries(seed: u64, n: usize) -> Vec<LogEntry> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            let subject = objref(&mut s);
            let (attribute, value) = match i % 10 {
                0 => (
                    Attribute::Name,
                    Value::Str(format!("/{}", text(&mut s, 12))),
                ),
                1 => (Attribute::Type, Value::str(["FILE", "PROC", "PIPE"][i % 3])),
                2 => (
                    Attribute::Other("SEQ".into()),
                    Value::Int(next(&mut s) as i64),
                ),
                3 => (Attribute::Other("FLAG".into()), Value::Bool(i % 3 == 0)),
                4 => {
                    let n = next(&mut s) % 24;
                    let b = (0..n).map(|_| next(&mut s) as u8).collect();
                    (Attribute::DataDigest, Value::Bytes(b))
                }
                5 => {
                    let n = next(&mut s) % 4;
                    let l = (0..n).map(|_| text(&mut s, 6)).collect();
                    (Attribute::Argv, Value::StrList(l))
                }
                6 => (Attribute::Input, Value::Xref(objref(&mut s))),
                7 => {
                    return LogEntry::DataWrite {
                        subject,
                        offset: next(&mut s) % 1_000_000,
                        len: (next(&mut s) % 65_536) as u32,
                        digest: md5(&next(&mut s).to_le_bytes()),
                    }
                }
                8 => return LogEntry::TxnBegin { id: next(&mut s) },
                _ => return LogEntry::TxnEnd { id: next(&mut s) },
            };
            LogEntry::Prov {
                subject,
                record: ProvenanceRecord::new(attribute, value),
            }
        })
        .collect()
}

/// `(length, MD5 hex)` of one encoded image.
fn fingerprint(bytes: &[u8]) -> (usize, String) {
    (bytes.len(), lasagna::md5::to_hex(&md5(bytes)))
}

fn pinned_images() -> Vec<(&'static str, Vec<u8>)> {
    let entries = seeded_entries(0x5eed, 60);

    let mut plain = bytes::BytesMut::new();
    for e in &entries {
        encode_entry(&mut plain, e).unwrap();
    }

    let mut groups = bytes::BytesMut::new();
    for chunk in entries.chunks(7) {
        encode_group(&mut groups, chunk).unwrap();
    }
    encode_group(&mut groups, &[]).unwrap();

    let mut s = 0x3a1u64;
    let mut wal = Vec::new();
    for seq in 1..=6u64 {
        let touched = next(&mut s) & 0xff;
        let frame = WalFrame {
            seq,
            applied: next(&mut s) % 200,
            touched,
            gens: (0..touched.count_ones())
                .map(|_| next(&mut s) % 50)
                .collect(),
            sources: (0..seq % 3)
                .map(|_| (next(&mut s) as u32, next(&mut s) % 9000))
                .collect(),
        };
        encode_frame(&mut wal, &frame);
    }

    // One shard holding every Prov/DataWrite entry, grouped per
    // subject pnode in arrival order, plus the reverse edges they emit.
    let mut shard = Shard::default();
    let mut subjects: Vec<Pnode> = Vec::new();
    for e in &entries {
        if let LogEntry::Prov { subject, .. } | LogEntry::DataWrite { subject, .. } = e {
            if !subjects.contains(&subject.pnode) {
                subjects.push(subject.pnode);
            }
        }
    }
    let mut reverse = Vec::new();
    for p in subjects {
        let run: Vec<&LogEntry> = entries
            .iter()
            .filter(|e| match e {
                LogEntry::Prov { subject, .. } | LogEntry::DataWrite { subject, .. } => {
                    subject.pnode == p
                }
                _ => false,
            })
            .collect();
        shard.apply_run(p, &run, &mut reverse);
    }
    for edge in reverse {
        shard.add_reverse_edge(edge);
    }
    let segment = encode_shard(3, &shard, 7);

    let manifest = encode_manifest(&Manifest {
        seq: 42,
        segments: vec![
            SegmentRef {
                generation: 7,
                len: segment.len() as u64,
                crc: lasagna::crc32(&segment),
            },
            SegmentRef {
                generation: 0,
                len: 0,
                crc: 0,
            },
        ],
        txns: vec![(9, entries[..5].to_vec()), (11, entries[20..23].to_vec())],
        commit_txn: Some(9),
        sources: vec![
            ("/.pass/log.3".to_string(), 17),
            (String::new(), 0),
            ("/.pass/log.4".to_string(), 2),
        ],
        batch_hw: vec![(1, 12), (7, 3)],
        replay_skip: None,
    });

    let record = wire::encode_record(&ProvenanceRecord::new(
        Attribute::Argv,
        Value::StrList(vec!["cc".into(), "-O2".into(), String::new()]),
    ))
    .unwrap();

    vec![
        ("log entries", plain.to_vec()),
        ("group frames", groups.to_vec()),
        ("wal frames", wal),
        ("segment", segment),
        ("manifest", manifest),
        ("record", record),
    ]
}

/// Recorded from the encoders before the codec unification; a
/// mismatch means an on-disk or wire format moved.
const PINNED: &[(&str, usize, &str)] = &[
    ("log entries", 2331, "0a017b2f05b7a2baf3899b9f35c55471"),
    ("group frames", 2461, "dcbe02b4b77405fbd10784fc51e209ec"),
    ("wal frames", 488, "7639dbbddff1d7bc61cd44d7dd5b2d70"),
    ("segment", 2951, "08d19d94434a9838485f89bd8bfffc35"),
    ("manifest", 542, "edf714b883dd34736fd16b442e7d7ce4"),
    ("record", 28, "20ea78c7b84a15b72569af3e09c1a78f"),
];

#[test]
fn every_encoder_reproduces_the_pinned_formats() {
    let got: Vec<(&str, usize, String)> = pinned_images()
        .into_iter()
        .map(|(name, img)| {
            let (len, md5) = fingerprint(&img);
            (name, len, md5)
        })
        .collect();
    assert_eq!(got.len(), PINNED.len(), "pinned set changed size");
    for ((name, len, md5), (pname, plen, pmd5)) in got.iter().zip(PINNED) {
        assert_eq!(
            (*name, *len, md5.as_str()),
            (*pname, *plen, *pmd5),
            "{name} format moved"
        );
    }
}

/// How an image's integrity check is recomputed after a mutation, so
/// the mutation reaches the body decoder instead of failing the CRC.
#[derive(Clone, Copy)]
enum Seal {
    /// No integrity check (a bare dpapi record).
    None,
    /// A CRC trailer over everything before it (segment, manifest).
    Trailer,
    /// One CRC-closed frame with an `H`-byte head (log entry or group:
    /// 1, WAL frame: 0).
    Frame(usize),
}

impl Seal {
    /// The byte range a decoder reads as body: what mutations target.
    fn body(self, img: &[u8]) -> std::ops::Range<usize> {
        match self {
            Seal::None => 0..img.len(),
            // After the magic and version.
            Seal::Trailer => 6..img.len() - 4,
            Seal::Frame(h) => h + 4..img.len() - 4,
        }
    }

    /// Recomputes the CRC of a mutated image. A frame whose length
    /// field no longer matches its size is left torn.
    fn reseal(self, img: &mut [u8]) {
        let n = img.len();
        match self {
            Seal::None => {}
            Seal::Trailer if n >= 4 => {
                let crc = crc32(&img[..n - 4]);
                img[n - 4..].copy_from_slice(&crc.to_le_bytes());
            }
            Seal::Frame(h) if n >= h + 8 => {
                let len = u32::from_le_bytes(img[h..h + 4].try_into().unwrap()) as usize;
                if h + 4 + len + 4 == n {
                    let mut covered = img[..h].to_vec();
                    covered.extend_from_slice(&img[h + 4..n - 4]);
                    img[n - 4..].copy_from_slice(&crc32(&covered).to_le_bytes());
                }
            }
            _ => {}
        }
    }
}

/// One decoder under test: a valid image, its seal, and the decoder
/// itself, which reports whether its outcome on an input was typed.
struct Target {
    name: &'static str,
    valid: Vec<u8>,
    seal: Seal,
    decode: fn(&[u8]) -> bool,
}

fn typed<T>(r: dpapi::Result<T>) -> bool {
    matches!(r, Ok(_) | Err(DpapiError::Malformed(_)))
}

/// A walker's tail is typed by construction; it must also point
/// inside the input.
fn tail_in_bounds(tail: LogTail, len: usize) -> bool {
    match tail {
        LogTail::Clean => true,
        LogTail::Truncated { at } | LogTail::Corrupt { at } => at < len,
    }
}

fn targets() -> Vec<Target> {
    let images = pinned_images();
    let image = |name: &str| images.iter().find(|(n, _)| *n == name).unwrap().1.clone();
    let entries = seeded_entries(0xf00d, 12);
    let one_frame = |e: &LogEntry| {
        let mut b = bytes::BytesMut::new();
        encode_entry(&mut b, e).unwrap();
        b.to_vec()
    };
    let mut group = bytes::BytesMut::new();
    encode_group(&mut group, &entries).unwrap();
    let mut wal = Vec::new();
    encode_frame(
        &mut wal,
        &WalFrame {
            seq: 3,
            applied: 9,
            touched: 0b1011,
            gens: vec![4, 5, 6],
            sources: vec![(1, 2), (3, 4), (5, 6)],
        },
    );
    let log = |d: &[u8]| {
        let (_, tail) = parse_log(d);
        tail_in_bounds(tail, d.len())
    };
    vec![
        Target {
            name: "decode_record",
            valid: image("record"),
            seal: Seal::None,
            decode: |d| typed(wire::decode_record(d)),
        },
        Target {
            // A string-list record: the record's own count prefix.
            name: "parse_log (entry)",
            valid: one_frame(&entries[5]),
            seal: Seal::Frame(1),
            decode: log,
        },
        Target {
            name: "parse_log (data write)",
            valid: one_frame(&entries[7]),
            seal: Seal::Frame(1),
            decode: log,
        },
        Target {
            name: "parse_log (group)",
            valid: group.to_vec(),
            seal: Seal::Frame(1),
            decode: log,
        },
        Target {
            name: "parse_wal",
            valid: wal,
            seal: Seal::Frame(0),
            decode: |d| {
                let (_, tail) = parse_wal(d);
                tail_in_bounds(tail, d.len())
            },
        },
        Target {
            name: "decode_shard",
            valid: image("segment"),
            seal: Seal::Trailer,
            decode: |d| typed(decode_shard(d)),
        },
        Target {
            name: "decode_manifest",
            valid: image("manifest"),
            seal: Seal::Trailer,
            decode: |d| typed(decode_manifest(d)),
        },
    ]
}

fn check(t: &Target, what: &str, input: &[u8]) {
    let outcome = std::panic::catch_unwind(|| (t.decode)(input));
    match outcome {
        Ok(true) => {}
        Ok(false) => panic!("{}: untyped rejection of {what} {input:02x?}", t.name),
        Err(_) => panic!("{}: panicked on {what} {input:02x?}", t.name),
    }
}

/// Oversized values written over a prefix: the largest `u32`, the
/// sign bit, and one past what the rest of the image could hold.
fn oversized(remaining: usize) -> [u32; 3] {
    [u32::MAX, 1 << 31, remaining as u32 + 1]
}

#[test]
fn every_decoder_rejects_hostile_input_with_a_typed_error() {
    let mut rng = TestRng::deterministic("every_decoder_rejects_hostile_input");
    for t in targets() {
        // The valid image decodes.
        check(&t, "the valid image", &t.valid);

        // Every 4-byte window of the body overwritten with an oversized
        // value and re-sealed: this hits every count and length prefix.
        let body = t.seal.body(&t.valid);
        for at in body.start..body.end.saturating_sub(3) {
            for v in oversized(body.end - at) {
                let mut img = t.valid.clone();
                img[at..at + 4].copy_from_slice(&v.to_le_bytes());
                t.seal.reseal(&mut img);
                check(&t, "an oversized prefix", &img);
            }
        }

        for _ in 0..400 {
            // Random bytes, sometimes behind the valid image's header
            // and sealed so they reach the body decoder.
            let len = rng.below(2 * t.valid.len() as u64 + 1) as usize;
            let mut img: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            if rng.below(2) == 0 {
                let head = body.start.min(img.len());
                img[..head].copy_from_slice(&t.valid[..head]);
                t.seal.reseal(&mut img);
            }
            check(&t, "random bytes", &img);

            // A valid image with a few bytes mutated, re-sealed or not.
            let mut img = t.valid.clone();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(img.len() as u64) as usize;
                img[at] ^= 1 + rng.below(255) as u8;
            }
            if rng.below(2) == 0 {
                t.seal.reseal(&mut img);
            }
            check(&t, "a mutated image", &img);

            // A valid image cut short.
            let cut = rng.below(t.valid.len() as u64) as usize;
            check(&t, "a truncated image", &t.valid[..cut]);
        }
    }
}
