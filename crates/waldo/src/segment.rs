//! The checkpoint **segment** format: one shard, serialized.
//!
//! A segment is the durable image of one shard — its object table
//! (per-version attributes, ancestry inputs, data-write accounting),
//! the name/type secondary indexes, the reverse ancestry index, and
//! the footprint accounting — in a versioned, CRC-closed binary
//! layout built from the same little-endian codec idioms as
//! [`dpapi::wire`]:
//!
//! ```text
//! segment := magic "WSEG", version u16, shard u32, generation u64,
//!            db_bytes u64, index_bytes u64,
//!            objects, names, types, reverse, attrs,
//!            crc32(everything before) u32
//! objects := u32 n, n × (pnode, current u32,
//!            u32 nv, nv × (v u32, u32 na, na × record,
//!                          u32 ni, ni × (attr, objref),
//!                          writes u64, bytes_written u64))
//! names   := u32 n, n × (str, u32 k, k × pnode)     (types likewise)
//! reverse := u32 n, n × (pnode, u32 k, k × (objref, attr, aversion u32))
//! attrs   := u32 n, n × (str attr-name,
//!                        u32 m, m × (str value, u32 k, k × pnode))
//! pnode   := volume u32, number u64
//! attr    := u16 len, len bytes          record := dpapi::wire record
//! ```
//!
//! The `attrs` section is the generalized attribute index (the PQL
//! pushdown index, `Shard::attr_index`), so indexed queries survive a
//! cold restart without a rebuild scan. The decoder accepts only the
//! current [`SEGMENT_VERSION`]; any other version is `Malformed`.
//!
//! The encoding is **canonical**: objects sort by pnode, index entries
//! by key, and reverse-edge lists by `(descendant, ancestor version,
//! attribute)`. Per-subject state is already deterministic (entries of
//! one subject apply in arrival order regardless of batching), so two
//! stores with equal contents — e.g. a restarted store and the store
//! that never crashed — encode to **identical bytes**, which is what
//! the crash-matrix tests assert.

use std::collections::{BTreeMap, BTreeSet};

use bytes::{BufMut, BytesMut};
use dpapi::wire::{self, Reader, MIN_RECORD_BYTES, OBJECT_REF_BYTES};
use dpapi::{Pnode, Result, Version, VolumeId};

use crate::db::{ObjectEntry, VersionEntry};
use crate::envelope::Envelope;
use crate::shard::Shard;

/// The segment format version, the only one the decoder accepts.
pub const SEGMENT_VERSION: u16 = 2;

const SEGMENT: Envelope = Envelope {
    magic: *b"WSEG",
    version: SEGMENT_VERSION,
    what: "segment",
};

const PNODE_BYTES: usize = 4 + 8;
/// A `u16` attribute-name length with an empty name.
const MIN_ATTR_BYTES: usize = 2;
/// A `u32` string length with an empty string.
const MIN_STR_BYTES: usize = 4;

fn put_pnode(buf: &mut BytesMut, p: Pnode) {
    buf.put_u32_le(p.volume.0);
    buf.put_u64_le(p.number);
}

fn get_pnode(r: &mut Reader<'_>) -> Result<Pnode> {
    Ok(Pnode::new(VolumeId(r.u32()?), r.u64()?))
}

/// A `u32` count of `(str key, pnode set)` pairs — the name and type
/// indexes and each attribute's value map.
fn put_index(buf: &mut BytesMut, index: &BTreeMap<String, BTreeSet<Pnode>>) {
    buf.put_u32_le(index.len() as u32);
    for (key, set) in index {
        wire::put_str(buf, key);
        buf.put_u32_le(set.len() as u32);
        for p in set {
            put_pnode(buf, *p);
        }
    }
}

fn get_index(r: &mut Reader<'_>) -> Result<BTreeMap<String, BTreeSet<Pnode>>> {
    let n = r.count(MIN_STR_BYTES + 4)?;
    (0..n)
        .map(|_| {
            let key = r.str()?.to_owned();
            let k = r.count(PNODE_BYTES)?;
            Ok((key, (0..k).map(|_| get_pnode(r)).collect::<Result<_>>()?))
        })
        .collect()
}

/// Serializes one shard into its canonical segment image.
///
/// `generation` is written into the header rather than taken from the
/// shard so callers choose its meaning: checkpoints record the real
/// generation (the manifest binds to it), while the byte-equivalence
/// oracle (`Store::segment_images`) normalizes it to zero — the
/// counter tracks how commits were *grouped*, not what the shard
/// contains, and replay after a crash may group commits differently.
pub(crate) fn encode_shard(shard_index: u32, shard: &Shard, generation: u64) -> Vec<u8> {
    let mut buf = SEGMENT.start(4096);
    buf.put_u32_le(shard_index);
    buf.put_u64_le(generation);
    buf.put_u64_le(shard.size.db_bytes);
    buf.put_u64_le(shard.size.index_bytes);

    let mut pnodes: Vec<&Pnode> = shard.objects.keys().collect();
    pnodes.sort_unstable();
    buf.put_u32_le(pnodes.len() as u32);
    for p in pnodes {
        let obj = &shard.objects[p];
        put_pnode(&mut buf, *p);
        buf.put_u32_le(obj.current);
        buf.put_u32_le(obj.versions.len() as u32);
        for (v, entry) in &obj.versions {
            buf.put_u32_le(*v);
            buf.put_u32_le(entry.attrs.len() as u32);
            for (attr, value) in &entry.attrs {
                // Stored attributes were parsed from a log image (or
                // came through validated disclosure), so they are
                // wire-representable by construction.
                wire::put_record(
                    &mut buf,
                    &dpapi::ProvenanceRecord::new(attr.clone(), value.clone()),
                )
                .expect("stored records always encode");
            }
            buf.put_u32_le(entry.inputs.len() as u32);
            for (attr, r) in &entry.inputs {
                wire::put_attribute(&mut buf, attr);
                wire::put_object_ref(&mut buf, *r);
            }
            buf.put_u64_le(entry.writes);
            buf.put_u64_le(entry.bytes_written);
        }
    }

    put_index(&mut buf, &shard.name_index);
    put_index(&mut buf, &shard.type_index);

    let mut ancestors: Vec<&Pnode> = shard.reverse_index.keys().collect();
    ancestors.sort_unstable();
    buf.put_u32_le(ancestors.len() as u32);
    for a in ancestors {
        put_pnode(&mut buf, *a);
        // Reverse-edge list order follows commit grouping in memory
        // and is unspecified to queries; sort it so the image is
        // canonical.
        let mut edges = shard.reverse_index[a].clone();
        edges.sort_unstable_by(|x, y| (x.0, x.2, &x.1).cmp(&(y.0, y.2, &y.1)));
        buf.put_u32_le(edges.len() as u32);
        for (descendant, attr, aversion) in &edges {
            wire::put_object_ref(&mut buf, *descendant);
            wire::put_attribute(&mut buf, attr);
            buf.put_u32_le(aversion.0);
        }
    }

    buf.put_u32_le(shard.attr_index.len() as u32);
    for (attr, values) in &shard.attr_index {
        wire::put_str(&mut buf, attr);
        put_index(&mut buf, values);
    }

    Envelope::seal(buf)
}

/// Deserializes a segment image, validating magic, version and CRC.
/// Returns the shard index it was written for and the rehydrated
/// shard.
pub(crate) fn decode_shard(data: &[u8]) -> Result<(u32, Shard)> {
    let mut r = SEGMENT.open(data)?;
    let shard_index = r.u32()?;
    let mut shard = Shard {
        generation: r.u64()?,
        ..Shard::default()
    };
    shard.size.db_bytes = r.u64()?;
    shard.size.index_bytes = r.u64()?;

    let n_objects = r.count(PNODE_BYTES + 4 + 4)?;
    for _ in 0..n_objects {
        let pnode = get_pnode(&mut r)?;
        let mut obj = ObjectEntry {
            current: r.u32()?,
            ..ObjectEntry::default()
        };
        let nv = r.count(4 + 4 + 4 + 8 + 8)?;
        for _ in 0..nv {
            let v = r.u32()?;
            let attrs = r.list(MIN_RECORD_BYTES, |r| {
                let rec = wire::get_record(r)?;
                Ok((rec.attribute, rec.value))
            })?;
            let inputs = r.list(MIN_ATTR_BYTES + OBJECT_REF_BYTES, |r| {
                Ok((wire::get_attribute(r)?, wire::get_object_ref(r)?))
            })?;
            let entry = VersionEntry {
                attrs,
                inputs,
                writes: r.u64()?,
                bytes_written: r.u64()?,
            };
            obj.versions.insert(v, entry);
        }
        shard.objects.insert(pnode, obj);
    }

    shard.name_index = get_index(&mut r)?;
    shard.type_index = get_index(&mut r)?;

    let n_reverse = r.count(PNODE_BYTES + 4)?;
    for _ in 0..n_reverse {
        let ancestor = get_pnode(&mut r)?;
        let edges = r.list(OBJECT_REF_BYTES + MIN_ATTR_BYTES + 4, |r| {
            Ok((
                wire::get_object_ref(r)?,
                wire::get_attribute(r)?,
                Version(r.u32()?),
            ))
        })?;
        shard.reverse_index.insert(ancestor, edges);
    }

    let n_attrs = r.count(MIN_STR_BYTES + 4)?;
    for _ in 0..n_attrs {
        let attr = r.str()?.to_owned();
        shard.attr_index.insert(attr, get_index(&mut r)?);
    }

    r.finish()?;
    Ok((shard_index, shard))
}

/// The CRC a manifest records for a segment image: over the **whole**
/// file, including its trailing self-check.
pub(crate) fn segment_crc(data: &[u8]) -> u32 {
    lasagna::crc32(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpapi::{Attribute, DpapiError, ObjectRef, ProvenanceRecord, Value};
    use lasagna::LogEntry;

    fn sample_shard() -> Shard {
        let mut shard = Shard::default();
        let p1 = Pnode::new(VolumeId(1), 10);
        let p2 = Pnode::new(VolumeId(1), 20);
        let sub = ObjectRef::new(p1, Version(0));
        let entries: Vec<LogEntry> = vec![
            LogEntry::Prov {
                subject: sub,
                record: ProvenanceRecord::new(Attribute::Name, Value::str("/a")),
            },
            LogEntry::Prov {
                subject: sub,
                record: ProvenanceRecord::new(Attribute::Type, Value::str("FILE")),
            },
            LogEntry::Prov {
                subject: sub,
                record: ProvenanceRecord::input(ObjectRef::new(p2, Version(3))),
            },
            // An application attribute, so the attribute index is
            // populated and round-tripped.
            LogEntry::Prov {
                subject: sub,
                record: ProvenanceRecord::new(
                    Attribute::Other("PHASE".into()),
                    Value::str("align"),
                ),
            },
            LogEntry::DataWrite {
                subject: sub,
                offset: 0,
                len: 512,
                digest: [9; 16],
            },
        ];
        let refs: Vec<&LogEntry> = entries.iter().collect();
        let mut reverse = Vec::new();
        shard.apply_run(p1, &refs, &mut reverse);
        for edge in reverse {
            shard.add_reverse_edge(edge);
        }
        shard.generation = 7;
        shard
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let shard = sample_shard();
        let img = encode_shard(3, &shard, shard.generation);
        let (idx, back) = decode_shard(&img).unwrap();
        assert_eq!(idx, 3);
        assert_eq!(back.generation, 7);
        assert_eq!(back.size, shard.size);
        assert_eq!(back.objects.len(), shard.objects.len());
        assert_eq!(back.name_index, shard.name_index);
        assert_eq!(back.type_index, shard.type_index);
        assert_eq!(back.attr_index, shard.attr_index);
        assert!(
            !back.attr_index.is_empty(),
            "the sample must exercise the attribute index"
        );
        // Canonical re-encode is byte-identical.
        assert_eq!(encode_shard(3, &back, back.generation), img);
    }

    /// Any version but the current one — the pre-index v1 layout or
    /// an unknown future one — is rejected with the typed error.
    #[test]
    fn old_and_future_segment_versions_are_rejected() {
        let shard = sample_shard();
        for version in [0u16, 1, SEGMENT_VERSION + 1] {
            let mut img = encode_shard(9, &shard, shard.generation);
            // Patch the version field (offset 4, little-endian u16)
            // and re-close the CRC so only the version check can fail.
            img[4..6].copy_from_slice(&version.to_le_bytes());
            let body_len = img.len() - 4;
            let crc = lasagna::crc32(&img[..body_len]).to_le_bytes();
            img[body_len..].copy_from_slice(&crc);
            assert!(
                matches!(decode_shard(&img), Err(DpapiError::Malformed(_))),
                "segment version {version} must be rejected"
            );
        }
    }

    #[test]
    fn empty_shard_roundtrips() {
        let img = encode_shard(0, &Shard::default(), 0);
        let (idx, back) = decode_shard(&img).unwrap();
        assert_eq!(idx, 0);
        assert!(back.objects.is_empty());
        assert_eq!(encode_shard(0, &back, 0), img);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let img = encode_shard(1, &sample_shard(), 7);
        for flip in 0..img.len() {
            let mut bad = img.clone();
            bad[flip] ^= 0x01;
            assert!(
                decode_shard(&bad).is_err(),
                "flip at byte {flip} went undetected"
            );
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let img = encode_shard(1, &sample_shard(), 7);
        for cut in 0..img.len() {
            assert!(
                decode_shard(&img[..cut]).is_err(),
                "{cut}-byte prefix accepted"
            );
        }
    }
}
