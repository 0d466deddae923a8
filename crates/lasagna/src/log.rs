//! The on-disk provenance log format.
//!
//! PASSv2 writes all provenance records to a log; Waldo later moves
//! them into the indexed database (paper §5.6). The log uses
//! transactional structures plus MD5 digests of data so that recovery
//! can identify exactly the data being written at the time of a
//! crash.
//!
//! Framing of each entry:
//!
//! ```text
//! entry := kind u8, len u32le, payload[len], crc32 u32le
//! ```
//!
//! The CRC covers the kind byte and the payload. A truncated or
//! corrupt tail terminates parsing and is reported to the recovery
//! machinery instead of being silently ignored.
//!
//! The same CRC-closed framing, with an empty head instead of the kind
//! byte, carries Waldo's database WAL; [`put_frame`] and
//! [`walk_frames`] are the one encoder and the one walker for both.

use bytes::{BufMut, BytesMut};
use dpapi::wire::{self, Reader};
use dpapi::{DpapiError, ObjectRef, ProvenanceRecord, Result};

use crate::md5::Digest;

const KIND_PROV: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_TXN_BEGIN: u8 = 3;
const KIND_TXN_END: u8 = 4;
/// A *group*: one disclosure transaction's entries framed as a single
/// length-prefixed record run. The outer CRC closes over every member,
/// so a torn or corrupt tail drops the whole group — the log-level
/// face of the DPAPI v2 atomicity contract.
const KIND_GROUP: u8 = 5;

/// One entry of the provenance log.
#[derive(Clone, Debug, PartialEq)]
pub enum LogEntry {
    /// A provenance record describing `subject`.
    Prov {
        /// The object (at a specific version) the record describes.
        subject: ObjectRef,
        /// The record itself.
        record: ProvenanceRecord,
    },
    /// A data write, logged *before* the data reaches the file
    /// (write-ahead provenance). The digest lets recovery verify the
    /// on-disk bytes.
    DataWrite {
        /// The file written.
        subject: ObjectRef,
        /// Byte offset of the write.
        offset: u64,
        /// Length of the write.
        len: u32,
        /// MD5 of the written bytes.
        digest: Digest,
    },
    /// Start of a provenance transaction (PA-NFS chunked bundles).
    TxnBegin {
        /// Transaction id issued by the server volume.
        id: u64,
    },
    /// End of a provenance transaction.
    TxnEnd {
        /// Transaction id from the matching [`LogEntry::TxnBegin`].
        id: u64,
    },
}

/// CRC-32 (IEEE 802.3), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// CRC-32 of the concatenation of `parts`, computed incrementally so
/// a frame's head and payload need not be copied into one buffer.
fn crc32_parts(parts: &[&[u8]]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    !crc
}

/// Writes one CRC-closed frame: `head`, `len u32le`, payload,
/// `crc32(head ‖ payload) u32le`. Errors — writing nothing — on a
/// payload the `u32` length prefix cannot represent (the same
/// silent-truncation class as the fixed `u16` attribute-name bug, one
/// level up).
pub fn put_frame(buf: &mut impl BufMut, head: &[u8], payload: &[u8]) -> Result<()> {
    if payload.len() > u32::MAX as usize {
        return Err(DpapiError::Malformed(format!(
            "frame payload of {} bytes exceeds the u32 prefix",
            payload.len()
        )));
    }
    buf.put_slice(head);
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    buf.put_u32_le(crc32_parts(&[head, payload]));
    Ok(())
}

/// Walks the frames [`put_frame`] writes with an `H`-byte head,
/// handing each CRC-valid frame's head and payload to `visit`.
///
/// Walking stops at the first frame that is incomplete
/// ([`LogTail::Truncated`]), fails its CRC, or is rejected by `visit`
/// ([`LogTail::Corrupt`]), reporting that frame's offset; a walk that
/// reaches the end of `data` on a frame boundary is
/// [`LogTail::Clean`].
pub fn walk_frames<const H: usize>(
    data: &[u8],
    mut visit: impl FnMut([u8; H], &[u8]) -> Result<()>,
) -> LogTail {
    let mut r = Reader::new(data);
    while !r.is_empty() {
        let at = r.position();
        let mut frame = || -> Result<_> {
            let head = r.array::<H>()?;
            let len = r.u32()? as usize;
            Ok((head, r.bytes(len)?, r.u32()?))
        };
        let Ok((head, payload, stored)) = frame() else {
            return LogTail::Truncated { at };
        };
        if crc32_parts(&[&head, payload]) != stored || visit(head, payload).is_err() {
            return LogTail::Corrupt { at };
        }
    }
    LogTail::Clean
}

/// Appends `entry` to `buf` in wire framing.
///
/// On error (a record whose attribute name or payload cannot be
/// represented — see [`wire::validate_record`]) `buf` is left
/// untouched, so a failed encode can never emit a partial frame.
pub fn encode_entry(buf: &mut BytesMut, entry: &LogEntry) -> Result<()> {
    let mut payload = BytesMut::new();
    let kind = match entry {
        LogEntry::Prov { subject, record } => {
            wire::put_object_ref(&mut payload, *subject);
            wire::put_record(&mut payload, record)?;
            KIND_PROV
        }
        LogEntry::DataWrite {
            subject,
            offset,
            len,
            digest,
        } => {
            wire::put_object_ref(&mut payload, *subject);
            payload.put_u64_le(*offset);
            payload.put_u32_le(*len);
            payload.put_slice(digest);
            KIND_DATA
        }
        LogEntry::TxnBegin { id } => {
            payload.put_u64_le(*id);
            KIND_TXN_BEGIN
        }
        LogEntry::TxnEnd { id } => {
            payload.put_u64_le(*id);
            KIND_TXN_END
        }
    };
    put_frame(buf, &[kind], &payload)
}

/// Appends `entries` to `buf` as one *group frame*: a single
/// length-prefixed record run whose outer CRC closes over every
/// member. Parsing flattens the group back into its member entries;
/// a torn or corrupt group is dropped wholesale, never partially —
/// this is how Lasagna makes a disclosure transaction's provenance
/// atomic on disk.
///
/// On error (an unrepresentable record) `buf` is left untouched.
pub fn encode_group(buf: &mut BytesMut, entries: &[LogEntry]) -> Result<()> {
    let mut payload = BytesMut::new();
    payload.put_u32_le(entries.len() as u32);
    for e in entries {
        encode_entry(&mut payload, e)?;
    }
    put_frame(buf, &[KIND_GROUP], &payload)
}

/// Serialized size of an entry (header + payload + CRC). Errors on
/// records the wire format cannot represent.
pub fn entry_size(entry: &LogEntry) -> Result<usize> {
    let mut buf = BytesMut::new();
    encode_entry(&mut buf, entry)?;
    Ok(buf.len())
}

/// Number of group frames in a log image before its first torn or
/// corrupt frame (tests and diagnostics; the parser itself flattens
/// groups into their members).
pub fn group_count(data: &[u8]) -> usize {
    let mut n = 0usize;
    walk_frames(data, |[kind], _| {
        n += usize::from(kind == KIND_GROUP);
        Ok(())
    });
    n
}

/// How parsing of a framed image ended — a Lasagna log or a Waldo
/// database WAL ([`walk_frames`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogTail {
    /// The image ended exactly at a frame boundary.
    Clean,
    /// The image ended mid-frame at the given byte offset — the
    /// classic crash-while-appending signature.
    Truncated {
        /// Offset of the first incomplete frame.
        at: usize,
    },
    /// The frame at the given byte offset failed its CRC, or its
    /// payload did not decode.
    Corrupt {
        /// Offset of the corrupt frame.
        at: usize,
    },
}

/// Parses a log image into entries plus a tail condition.
///
/// Group frames ([`encode_group`]) are flattened into their member
/// entries: consumers see the same `LogEntry` stream whether a
/// transaction was logged grouped or entry-at-a-time. A group whose
/// members do not parse exactly (bad inner frame, count mismatch) is
/// reported as corrupt at the group's offset.
pub fn parse_log(data: &[u8]) -> (Vec<LogEntry>, LogTail) {
    parse_frames(data, false)
}

/// The frame walker behind [`parse_log`]. `inside_group` rejects
/// group frames nested inside a group's payload: the encoder never
/// produces them, and accepting them would let a crafted log drive
/// unbounded parser recursion.
fn parse_frames(data: &[u8], inside_group: bool) -> (Vec<LogEntry>, LogTail) {
    let mut entries = Vec::new();
    let tail = walk_frames(data, |[kind], payload| {
        decode_payload(kind, payload, inside_group, &mut entries)
    });
    (entries, tail)
}

/// Decodes one frame's payload, pushing its entry (or, for a group,
/// every member entry) onto `out`. On error nothing is pushed and the
/// walker reports corruption at the frame's offset.
fn decode_payload(
    kind: u8,
    payload: &[u8],
    inside_group: bool,
    out: &mut Vec<LogEntry>,
) -> Result<()> {
    let mut r = Reader::new(payload);
    let entry = match kind {
        KIND_PROV => LogEntry::Prov {
            subject: wire::get_object_ref(&mut r)?,
            record: wire::get_record(&mut r)?,
        },
        KIND_DATA => LogEntry::DataWrite {
            subject: wire::get_object_ref(&mut r)?,
            offset: r.u64()?,
            len: r.u32()?,
            digest: r.array()?,
        },
        KIND_TXN_BEGIN => LogEntry::TxnBegin { id: r.u64()? },
        KIND_TXN_END => LogEntry::TxnEnd { id: r.u64()? },
        KIND_GROUP => {
            if inside_group {
                return Err(DpapiError::Malformed("nested group frame".into()));
            }
            // Each member is a whole frame: at least a head, a length
            // and a CRC.
            let n = r.count(1 + 4 + 4)?;
            let (members, tail) = parse_frames(&payload[r.position()..], true);
            if tail != LogTail::Clean || members.len() != n {
                return Err(DpapiError::Malformed(format!(
                    "group of {n} entries parsed to {} with tail {tail:?}",
                    members.len()
                )));
            }
            out.extend(members);
            return Ok(());
        }
        other => return Err(DpapiError::Malformed(format!("unknown log kind {other}"))),
    };
    r.finish()?;
    out.push(entry);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpapi::{Attribute, Pnode, Value, Version, VolumeId};

    fn subject(n: u64) -> ObjectRef {
        ObjectRef::new(Pnode::new(VolumeId(1), n), Version(2))
    }

    fn sample_entries() -> Vec<LogEntry> {
        vec![
            LogEntry::TxnBegin { id: 7 },
            LogEntry::Prov {
                subject: subject(1),
                record: ProvenanceRecord::new(Attribute::Name, Value::str("out.dat")),
            },
            LogEntry::Prov {
                subject: subject(1),
                record: ProvenanceRecord::input(subject(2)),
            },
            LogEntry::DataWrite {
                subject: subject(1),
                offset: 4096,
                len: 512,
                digest: crate::md5::md5(b"payload"),
            },
            LogEntry::TxnEnd { id: 7 },
        ]
    }

    #[test]
    fn roundtrip_all_entry_kinds() {
        let entries = sample_entries();
        let mut buf = BytesMut::new();
        for e in &entries {
            encode_entry(&mut buf, e).unwrap();
        }
        let (parsed, tail) = parse_log(&buf);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(parsed, entries);
    }

    #[test]
    fn group_frame_flattens_to_member_entries() {
        let entries = sample_entries();
        let mut buf = BytesMut::new();
        encode_group(&mut buf, &entries).unwrap();
        assert_eq!(group_count(&buf), 1);
        let (parsed, tail) = parse_log(&buf);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(parsed, entries, "a group parses to its members");
        // Groups and plain entries interleave freely.
        encode_entry(&mut buf, &LogEntry::TxnBegin { id: 99 }).unwrap();
        encode_group(&mut buf, &entries[..2]).unwrap();
        let (parsed, tail) = parse_log(&buf);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(parsed.len(), entries.len() + 1 + 2);
        assert_eq!(group_count(&buf), 2);
    }

    #[test]
    fn torn_group_is_dropped_wholesale() {
        let entries = sample_entries();
        let mut buf = BytesMut::new();
        encode_entry(&mut buf, &entries[0]).unwrap();
        let group_at = buf.len();
        encode_group(&mut buf, &entries).unwrap();
        // Cut inside the group: the lead entry survives, the whole
        // group is gone — no partial transaction is ever surfaced.
        let cut = group_at + 12;
        let (parsed, tail) = parse_log(&buf[..cut]);
        assert_eq!(parsed, vec![entries[0].clone()]);
        assert_eq!(tail, LogTail::Truncated { at: group_at });
        // Flip a byte inside the group: same wholesale drop, reported
        // as corruption at the group's offset.
        let mut bytes = buf.to_vec();
        bytes[group_at + 9] ^= 0xFF;
        let (parsed, tail) = parse_log(&bytes);
        assert_eq!(parsed, vec![entries[0].clone()]);
        assert_eq!(tail, LogTail::Corrupt { at: group_at });
    }

    #[test]
    fn group_count_mismatch_is_corrupt() {
        let entries = sample_entries();
        let mut payload = BytesMut::new();
        payload.put_u32_le(7); // claims 7 members
        for e in &entries {
            encode_entry(&mut payload, e).unwrap();
        }
        let mut buf = BytesMut::new();
        super::put_frame(&mut buf, &[5], &payload).unwrap();
        let (parsed, tail) = parse_log(&buf);
        assert!(parsed.is_empty());
        assert_eq!(tail, LogTail::Corrupt { at: 0 });
    }

    #[test]
    fn nested_group_is_rejected_not_recursed() {
        // The encoder never nests groups; a crafted log that does must
        // be reported corrupt, not drive unbounded parser recursion.
        let mut inner = BytesMut::new();
        encode_group(&mut inner, &[LogEntry::TxnBegin { id: 1 }]).unwrap();
        let mut payload = BytesMut::new();
        payload.put_u32_le(1);
        payload.put_slice(&inner);
        let mut buf = BytesMut::new();
        super::put_frame(&mut buf, &[5], &payload).unwrap();
        let (parsed, tail) = parse_log(&buf);
        assert!(parsed.is_empty());
        assert_eq!(tail, LogTail::Corrupt { at: 0 });
    }

    #[test]
    fn truncation_reports_offset_of_partial_entry() {
        let entries = sample_entries();
        let mut buf = BytesMut::new();
        let mut boundaries = vec![0usize];
        for e in &entries {
            encode_entry(&mut buf, e).unwrap();
            boundaries.push(buf.len());
        }
        // Cut in the middle of the fourth entry.
        let cut = boundaries[3] + 3;
        let (parsed, tail) = parse_log(&buf[..cut]);
        assert_eq!(parsed.len(), 3);
        assert_eq!(tail, LogTail::Truncated { at: boundaries[3] });
    }

    #[test]
    fn corruption_is_detected_by_crc() {
        let mut buf = BytesMut::new();
        for e in sample_entries() {
            encode_entry(&mut buf, &e).unwrap();
        }
        let mut bytes = buf.to_vec();
        // Flip one payload byte of the first entry (past the header).
        bytes[7] ^= 0xFF;
        let (parsed, tail) = parse_log(&bytes);
        assert!(parsed.is_empty());
        assert_eq!(tail, LogTail::Corrupt { at: 0 });
    }

    #[test]
    fn crc32_known_value() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn empty_log_is_clean() {
        let (entries, tail) = parse_log(&[]);
        assert!(entries.is_empty());
        assert_eq!(tail, LogTail::Clean);
    }

    #[test]
    fn entry_size_matches_encoding() {
        for e in sample_entries() {
            let mut buf = BytesMut::new();
            encode_entry(&mut buf, &e).unwrap();
            assert_eq!(buf.len(), entry_size(&e).unwrap());
        }
    }

    #[test]
    fn unrepresentable_record_leaves_buffer_untouched() {
        let bad = LogEntry::Prov {
            subject: subject(1),
            record: ProvenanceRecord::new(
                Attribute::Other("X".repeat(u16::MAX as usize + 1)),
                Value::Int(0),
            ),
        };
        let mut buf = BytesMut::new();
        encode_entry(&mut buf, &LogEntry::TxnBegin { id: 1 }).unwrap();
        let before = buf.len();
        assert!(encode_entry(&mut buf, &bad).is_err());
        assert_eq!(buf.len(), before, "failed encode must not emit bytes");
        assert!(encode_group(&mut buf, &[bad]).is_err());
        assert_eq!(buf.len(), before);
        let (parsed, tail) = parse_log(&buf);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(parsed.len(), 1);
    }
}
