//! The checkpoint **manifest**: the atomic commit point of a
//! checkpoint.
//!
//! A manifest binds, for one group-commit sequence number, the
//! checksum of every shard's segment image to the store-level state a
//! cold restart needs beyond shard contents: the open-transaction
//! buffers (entries staged inside `TxnBegin`/`TxnEnd` pairs that had
//! not closed at checkpoint time), the transaction the committed
//! stream prefix was inside, and the per-source-log replay high-water
//! marks — the points restart replays surviving Lasagna logs from.
//!
//! ```text
//! manifest := magic "WMAN", version u16, seq u64, shard_count u32,
//!             shard_count × (generation u64, len u64, crc u32),
//!             commit_txn (u8 flag, u64),
//!             txns u32, n × (id u64, entries u32, bytes u32, log image),
//!             sources u32, n × (str path, mark u64),
//!             batch_hw u32, n × (volume u32, seq u64),
//!             replay_skip (u8 flag, u64),
//!             crc32 u32
//! ```
//!
//! `len == 0` marks an empty shard (generation 0, nothing ever
//! committed): no segment file exists for it and the loader builds a
//! fresh shard. The publisher writes the manifest to a temporary name,
//! fsyncs, then renames — so a manifest either exists completely or
//! not at all, and a torn image fails its CRC and is skipped in favor
//! of the previous complete checkpoint.

use bytes::{BufMut, BytesMut};
use dpapi::wire::{self, Reader};
use dpapi::{DpapiError, Result};
use lasagna::{parse_log, LogEntry, LogTail};

use crate::envelope::Envelope;

/// The manifest format version, the only one the decoder accepts.
pub const MANIFEST_VERSION: u16 = 3;

const MANIFEST: Envelope = Envelope {
    magic: *b"WMAN",
    version: MANIFEST_VERSION,
    what: "manifest",
};

/// One shard's segment as the manifest records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SegmentRef {
    /// Shard generation the segment was written at (0 = empty shard,
    /// no file).
    pub generation: u64,
    /// Byte length of the segment file (0 = empty shard).
    pub len: u64,
    /// CRC-32 of the whole segment file.
    pub crc: u32,
}

impl SegmentRef {
    /// True if this shard had never been touched at checkpoint time.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A decoded manifest.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Manifest {
    /// The group-commit sequence number the checkpoint captures.
    pub seq: u64,
    /// Per-shard segment references (index = shard number).
    pub segments: Vec<SegmentRef>,
    /// Open-transaction buffers at checkpoint time, sorted by id.
    pub txns: Vec<(u64, Vec<LogEntry>)>,
    /// The transaction the committed stream prefix was inside.
    pub commit_txn: Option<u64>,
    /// Source-log replay slots: `(path, committed mark)`; an empty
    /// path is a free slot (kept to preserve handle indices).
    pub sources: Vec<(String, u64)>,
    /// Per-volume batch replay high-water marks, sorted by volume.
    pub batch_hw: Vec<(u32, u64)>,
    /// The replayed batch the committed stream prefix was skipping
    /// through, if a crash interrupted one.
    pub replay_skip: Option<u64>,
}

/// Serializes a manifest.
pub(crate) fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut buf = MANIFEST.start(256);
    buf.put_u64_le(m.seq);
    buf.put_u32_le(m.segments.len() as u32);
    for seg in &m.segments {
        buf.put_u64_le(seg.generation);
        buf.put_u64_le(seg.len);
        buf.put_u32_le(seg.crc);
    }
    put_flagged(&mut buf, m.commit_txn);
    buf.put_u32_le(m.txns.len() as u32);
    for (id, entries) in &m.txns {
        buf.put_u64_le(*id);
        buf.put_u32_le(entries.len() as u32);
        let mut image = BytesMut::new();
        for e in entries {
            // Buffered entries were parsed from a log image (or came
            // through validated disclosure), so they are
            // wire-representable by construction.
            lasagna::encode_entry(&mut image, e).expect("stored log entries always encode");
        }
        buf.put_u32_le(image.len() as u32);
        buf.put_slice(&image);
    }
    buf.put_u32_le(m.sources.len() as u32);
    for (path, mark) in &m.sources {
        wire::put_str(&mut buf, path);
        buf.put_u64_le(*mark);
    }
    buf.put_u32_le(m.batch_hw.len() as u32);
    for (volume, seq) in &m.batch_hw {
        buf.put_u32_le(*volume);
        buf.put_u64_le(*seq);
    }
    put_flagged(&mut buf, m.replay_skip);
    Envelope::seal(buf)
}

/// An optional id as `(u8 flag, u64)`.
fn put_flagged(buf: &mut BytesMut, id: Option<u64>) {
    buf.put_u8(u8::from(id.is_some()));
    buf.put_u64_le(id.unwrap_or(0));
}

fn get_flagged(r: &mut Reader<'_>) -> Result<Option<u64>> {
    let flag = r.u8()?;
    let id = r.u64()?;
    Ok((flag != 0).then_some(id))
}

/// Deserializes a manifest, validating magic, version and CRC.
pub(crate) fn decode_manifest(data: &[u8]) -> Result<Manifest> {
    let mut r = MANIFEST.open(data)?;
    let seq = r.u64()?;
    let segments = r.list(8 + 8 + 4, |r| {
        Ok(SegmentRef {
            generation: r.u64()?,
            len: r.u64()?,
            crc: r.u32()?,
        })
    })?;
    if segments.is_empty() || segments.len() > 64 {
        return Err(DpapiError::Malformed(format!(
            "implausible shard count {}",
            segments.len()
        )));
    }
    let commit_txn = get_flagged(&mut r)?;
    let txns = r.list(8 + 4 + 4, |r| {
        let id = r.u64()?;
        let n_entries = r.u32()? as usize;
        let image_len = r.u32()? as usize;
        let (entries, tail) = parse_log(r.bytes(image_len)?);
        if tail != LogTail::Clean || entries.len() != n_entries {
            return Err(DpapiError::Malformed("damaged txn image".into()));
        }
        Ok((id, entries))
    })?;
    let sources = r.list(4 + 8, |r| Ok((r.str()?.to_owned(), r.u64()?)))?;
    let batch_hw = r.list(4 + 8, |r| Ok((r.u32()?, r.u64()?)))?;
    let replay_skip = get_flagged(&mut r)?;
    r.finish()?;
    Ok(Manifest {
        seq,
        segments,
        txns,
        commit_txn,
        sources,
        batch_hw,
        replay_skip,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpapi::{Attribute, ObjectRef, Pnode, ProvenanceRecord, Value, Version, VolumeId};
    use lasagna::crc32;

    fn sample() -> Manifest {
        let sub = ObjectRef::new(Pnode::new(VolumeId(1), 5), Version(0));
        Manifest {
            seq: 42,
            segments: vec![
                SegmentRef {
                    generation: 3,
                    len: 100,
                    crc: 0xabc,
                },
                SegmentRef {
                    generation: 0,
                    len: 0,
                    crc: 0,
                },
            ],
            txns: vec![(
                9,
                vec![LogEntry::Prov {
                    subject: sub,
                    record: ProvenanceRecord::new(Attribute::Name, Value::str("/x")),
                }],
            )],
            commit_txn: Some(9),
            sources: vec![
                ("/.pass/log.3".to_string(), 17),
                (String::new(), 0),
                ("/.pass/log.4".to_string(), 2),
            ],
            batch_hw: vec![(1, 12), (7, 3)],
            replay_skip: Some(lasagna::batch_txn_id(VolumeId(1), 12)),
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let enc = encode_manifest(&m);
        assert_eq!(decode_manifest(&enc).unwrap(), m);
    }

    #[test]
    fn every_byte_flip_is_rejected() {
        let enc = encode_manifest(&sample());
        for flip in 0..enc.len() {
            let mut bad = enc.clone();
            bad[flip] ^= 0x02;
            assert!(
                decode_manifest(&bad).is_err(),
                "flip at byte {flip} went undetected"
            );
        }
    }

    /// Any version but the current one — the older v1/v2 layouts or
    /// an unknown future one — is rejected with the typed error.
    #[test]
    fn old_and_future_manifest_versions_are_rejected() {
        for version in [0u16, 1, 2, MANIFEST_VERSION + 1] {
            let mut enc = encode_manifest(&sample());
            enc[4..6].copy_from_slice(&version.to_le_bytes());
            let body = enc.len() - 4;
            let crc = crc32(&enc[..body]).to_le_bytes();
            enc[body..].copy_from_slice(&crc);
            assert!(
                matches!(decode_manifest(&enc), Err(DpapiError::Malformed(_))),
                "manifest version {version} must be rejected"
            );
        }
    }

    #[test]
    fn torn_manifest_is_rejected() {
        let enc = encode_manifest(&sample());
        for cut in 0..enc.len() {
            assert!(decode_manifest(&enc[..cut]).is_err());
        }
    }
}
