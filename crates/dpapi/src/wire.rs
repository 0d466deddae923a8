//! Binary wire format for provenance records.
//!
//! Both the Lasagna provenance log and the PA-NFS protocol carry
//! records in this encoding, which keeps the client and server
//! analyzer input/output representations identical — the property
//! that lets analyzer instances stack (paper §6.1.1).
//!
//! The format is a simple length-prefixed TLV scheme, little-endian
//! throughout:
//!
//! ```text
//! record   := attr value
//! attr     := u16 len, len bytes of UTF-8
//! value    := tag u8, payload
//! payload  := Int: i64 | Str: u32 len + bytes | Bool: u8
//!           | Bytes: u32 len + bytes | StrList: u32 n + n * (u32 len + bytes)
//!           | Xref: u32 volume, u64 pnode, u32 version
//! ```
//!
//! [`Reader`] is the bounded decoder behind this format and every
//! format that embeds it: the Lasagna log, Waldo's WAL, checkpoint
//! segments and manifests.

use bytes::{BufMut, BytesMut};

use crate::error::{DpapiError, Result};
use crate::id::{ObjectRef, Pnode, Version, VolumeId};
use crate::record::{Attribute, ProvenanceRecord, Value};

const TAG_INT: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_BYTES: u8 = 3;
const TAG_STRLIST: u8 = 4;
const TAG_XREF: u8 = 5;

/// The one bounded decoder every binary format in the workspace reads
/// through: a little-endian cursor over borrowed bytes.
///
/// Every read checks the bytes left and fails with
/// [`DpapiError::Malformed`] instead of panicking, and slices and
/// strings borrow from the input rather than copying it. Element
/// counts go through [`Reader::count`], whose rule — a count whose
/// minimum encoding exceeds the bytes left is malformed — bounds every
/// allocation a decoder makes by the length of its input.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True once every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Offset of the next unread byte from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The next `n` bytes, borrowed from the input.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.truncated(n));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[cold]
    fn truncated(&self, n: usize) -> DpapiError {
        DpapiError::Malformed(format!(
            "truncated: {n} bytes needed at offset {}, {} left",
            self.pos,
            self.remaining()
        ))
    }

    /// The next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.bytes(N)?.try_into().expect("slice of length N"))
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// The next `len` bytes as UTF-8 text, borrowed from the input.
    pub fn utf8(&mut self, len: usize) -> Result<&'a str> {
        std::str::from_utf8(self.bytes(len)?)
            .map_err(|_| DpapiError::Malformed("invalid UTF-8".into()))
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        self.utf8(len)
    }

    /// A `u32` element count whose elements each encode to at least
    /// `min_elem_bytes`. A count whose minimum encoding exceeds the
    /// bytes left is malformed, so a decoder may preallocate for the
    /// count it gets: a length prefix can never claim more than the
    /// input holds.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(DpapiError::Malformed(format!(
                "count {n} at offset {} needs at least {min_elem_bytes} bytes each, {} left",
                self.pos - 4,
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// A [`count`](Reader::count)-prefixed list, each element read by
    /// `elem`.
    pub fn list<T>(
        &mut self,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Reader<'a>) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.count(min_elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// Ends decoding: bytes left over are malformed.
    pub fn finish(self) -> Result<()> {
        if !self.is_empty() {
            return Err(DpapiError::Malformed(format!(
                "{} trailing bytes at offset {}",
                self.remaining(),
                self.pos
            )));
        }
        Ok(())
    }
}

/// Smallest encoding of one record: an empty attribute name and a
/// one-byte `Bool` payload.
pub const MIN_RECORD_BYTES: usize = 2 + 1 + 1;

/// Encoded size of an [`ObjectRef`].
pub const OBJECT_REF_BYTES: usize = 16;

/// Encodes an [`ObjectRef`] into `buf`.
pub fn put_object_ref(buf: &mut BytesMut, r: ObjectRef) {
    buf.put_u32_le(r.pnode.volume.0);
    buf.put_u64_le(r.pnode.number);
    buf.put_u32_le(r.version.0);
}

/// Decodes an [`ObjectRef`] (volume `u32`, pnode number `u64`,
/// version `u32`); fewer than 16 bytes left is
/// [`DpapiError::Malformed`].
pub fn get_object_ref(r: &mut Reader<'_>) -> Result<ObjectRef> {
    let volume = VolumeId(r.u32()?);
    let number = r.u64()?;
    let version = Version(r.u32()?);
    Ok(ObjectRef::new(Pnode::new(volume, number), version))
}

/// Encodes a `u32`-length-prefixed string (read back by
/// [`Reader::str`]).
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Encodes an attribute name behind its `u16` length prefix. Callers
/// pass names [`validate_record`] accepts.
pub fn put_attribute(buf: &mut BytesMut, attr: &Attribute) {
    let name = attr.as_str();
    buf.put_u16_le(name.len() as u16);
    buf.put_slice(name.as_bytes());
}

/// Decodes an attribute written by [`put_attribute`].
pub fn get_attribute(r: &mut Reader<'_>) -> Result<Attribute> {
    let len = r.u16()? as usize;
    Ok(Attribute::from_name(r.utf8(len)?))
}

/// Checks that `rec` is representable in the wire encoding: the
/// attribute name must fit the `u16` length prefix and every variable
/// payload its `u32` prefix. Layers validate disclosed records up
/// front so a malformed record aborts a whole transaction before
/// anything is logged.
pub fn validate_record(rec: &ProvenanceRecord) -> Result<()> {
    let name = rec.attribute.as_str();
    if name.len() > u16::MAX as usize {
        return Err(DpapiError::Malformed(format!(
            "attribute name of {} bytes exceeds the u16 wire limit",
            name.len()
        )));
    }
    let payload_len = match &rec.value {
        Value::Str(s) => s.len(),
        Value::Bytes(b) => b.len(),
        Value::StrList(l) => {
            if l.len() > u32::MAX as usize {
                return Err(DpapiError::Malformed(format!(
                    "string list of {} entries exceeds the u32 wire limit",
                    l.len()
                )));
            }
            l.iter().map(String::len).max().unwrap_or(0)
        }
        Value::Int(_) | Value::Bool(_) | Value::Xref(_) => 0,
    };
    if payload_len > u32::MAX as usize {
        return Err(DpapiError::Malformed(format!(
            "value payload of {payload_len} bytes exceeds the u32 wire limit"
        )));
    }
    Ok(())
}

/// Encodes one provenance record into `buf`.
///
/// Returns [`DpapiError::Malformed`] — writing nothing — for records
/// whose attribute name or payload cannot be represented (the name
/// length is a `u16` on the wire; it used to be silently truncated).
pub fn put_record(buf: &mut BytesMut, rec: &ProvenanceRecord) -> Result<()> {
    validate_record(rec)?;
    put_attribute(buf, &rec.attribute);
    match &rec.value {
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*i);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(u8::from(*b));
        }
        Value::Bytes(b) => {
            buf.put_u8(TAG_BYTES);
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
        Value::StrList(l) => {
            buf.put_u8(TAG_STRLIST);
            buf.put_u32_le(l.len() as u32);
            for s in l {
                put_str(buf, s);
            }
        }
        Value::Xref(r) => {
            buf.put_u8(TAG_XREF);
            put_object_ref(buf, *r);
        }
    }
    Ok(())
}

/// Decodes one provenance record, advancing `r` past it. Any
/// truncation, unknown value tag, invalid UTF-8 or oversized count is
/// [`DpapiError::Malformed`]; nothing is allocated beyond what the
/// input's own bytes can back.
pub fn get_record(r: &mut Reader<'_>) -> Result<ProvenanceRecord> {
    let attribute = get_attribute(r)?;
    let value = match r.u8()? {
        TAG_INT => Value::Int(r.i64()?),
        TAG_STR => Value::Str(r.str()?.to_owned()),
        TAG_BOOL => Value::Bool(r.u8()? != 0),
        TAG_BYTES => {
            let len = r.u32()? as usize;
            Value::Bytes(r.bytes(len)?.to_vec())
        }
        TAG_STRLIST => Value::StrList(r.list(4, |r| Ok(r.str()?.to_owned()))?),
        TAG_XREF => Value::Xref(get_object_ref(r)?),
        tag => {
            return Err(DpapiError::Malformed(format!("unknown value tag {tag}")));
        }
    };
    Ok(ProvenanceRecord { attribute, value })
}

/// Serialized size of one record in this encoding.
pub fn record_wire_size(rec: &ProvenanceRecord) -> usize {
    let name = rec.attribute.as_str().len();
    let value = match &rec.value {
        Value::Int(_) => 8,
        Value::Str(s) => 4 + s.len(),
        Value::Bool(_) => 1,
        Value::Bytes(b) => 4 + b.len(),
        Value::StrList(l) => 4 + l.iter().map(|s| 4 + s.len()).sum::<usize>(),
        Value::Xref(_) => 16,
    };
    2 + name + 1 + value
}

/// Encodes a record to a standalone byte vector.
pub fn encode_record(rec: &ProvenanceRecord) -> Result<Vec<u8>> {
    let mut buf = BytesMut::with_capacity(record_wire_size(rec));
    put_record(&mut buf, rec)?;
    Ok(buf.to_vec())
}

/// Decodes a record from a standalone byte slice, requiring the slice
/// to be fully consumed.
pub fn decode_record(data: &[u8]) -> Result<ProvenanceRecord> {
    let mut r = Reader::new(data);
    let rec = get_record(&mut r)?;
    r.finish()?;
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: ProvenanceRecord) {
        let enc = encode_record(&rec).unwrap();
        assert_eq!(enc.len(), record_wire_size(&rec), "size mismatch: {rec}");
        let dec = decode_record(&enc).unwrap();
        assert_eq!(dec, rec);
    }

    #[test]
    fn roundtrip_every_value_kind() {
        roundtrip(ProvenanceRecord::new(Attribute::Type, Value::str("FILE")));
        roundtrip(ProvenanceRecord::new(Attribute::Input, Value::Int(-42)));
        roundtrip(ProvenanceRecord::new(
            Attribute::Other("FLAG".into()),
            Value::Bool(true),
        ));
        roundtrip(ProvenanceRecord::new(
            Attribute::DataDigest,
            Value::Bytes(vec![0xde, 0xad, 0xbe, 0xef]),
        ));
        roundtrip(ProvenanceRecord::new(
            Attribute::Argv,
            Value::StrList(vec!["ls".into(), "-l".into(), "".into()]),
        ));
        roundtrip(ProvenanceRecord::input(ObjectRef::new(
            Pnode::new(VolumeId(7), 123456789),
            Version(42),
        )));
    }

    #[test]
    fn oversize_attribute_name_is_rejected_not_truncated() {
        // Regression: `name.len() as u16` used to silently truncate
        // names longer than u16::MAX, producing a frame whose length
        // prefix disagreed with its body.
        let long = "A".repeat(u16::MAX as usize + 1);
        let rec = ProvenanceRecord::new(Attribute::Other(long), Value::Int(1));
        let mut buf = BytesMut::new();
        let err = put_record(&mut buf, &rec).unwrap_err();
        assert!(matches!(err, DpapiError::Malformed(_)), "got {err:?}");
        assert!(buf.is_empty(), "a rejected record must write nothing");
        assert!(encode_record(&rec).is_err());
        // The boundary case still encodes and round-trips.
        let edge = ProvenanceRecord::new(
            Attribute::Other("B".repeat(u16::MAX as usize)),
            Value::Int(2),
        );
        roundtrip(edge);
    }

    #[test]
    fn decode_rejects_truncation_at_every_byte() {
        let rec = ProvenanceRecord::new(Attribute::Argv, Value::StrList(vec!["a".into()]));
        let enc = encode_record(&rec).unwrap();
        for cut in 0..enc.len() {
            assert!(
                decode_record(&enc[..cut]).is_err(),
                "decode of {cut}-byte prefix unexpectedly succeeded"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut enc =
            encode_record(&ProvenanceRecord::new(Attribute::Type, Value::Int(1))).unwrap();
        enc.push(0xff);
        assert!(decode_record(&enc).is_err());
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(4);
        buf.put_slice(b"TYPE");
        buf.put_u8(99);
        assert!(decode_record(&buf).is_err());
    }

    #[test]
    fn multiple_records_stream_from_one_buffer() {
        let recs = vec![
            ProvenanceRecord::new(Attribute::Name, Value::str("x")),
            ProvenanceRecord::new(Attribute::Type, Value::str("PROC")),
            ProvenanceRecord::freeze(Version(2)),
        ];
        let mut buf = BytesMut::new();
        for r in &recs {
            put_record(&mut buf, r).unwrap();
        }
        let mut stream = Reader::new(&buf);
        let mut out = Vec::new();
        while !stream.is_empty() {
            out.push(get_record(&mut stream).unwrap());
        }
        assert_eq!(out, recs);
    }

    #[test]
    fn reader_rejects_a_count_the_input_cannot_hold() {
        // A count of 2^32 - 1 four-byte elements on a 16-byte input
        // (the largest a u32 prefix can claim): rejected by the count
        // rule itself, before any element is read or any buffer
        // allocated — so `list` never reaches `Vec::with_capacity`.
        let mut input = u32::MAX.to_le_bytes().to_vec();
        input.extend_from_slice(&[0u8; 12]);
        assert_eq!(input.len(), 16);
        let mut r = Reader::new(&input);
        assert!(matches!(r.count(4), Err(DpapiError::Malformed(_))));
        let mut calls = 0;
        let got = Reader::new(&input).list(4, |r| {
            calls += 1;
            r.u32()
        });
        assert!(matches!(got, Err(DpapiError::Malformed(_))));
        assert_eq!(calls, 0, "no element may be read past a rejected count");
        // Three four-byte elements fit in the twelve bytes left.
        let mut ok = 3u32.to_le_bytes().to_vec();
        ok.extend_from_slice(&[0u8; 12]);
        let mut r = Reader::new(&ok);
        assert_eq!(r.count(4).unwrap(), 3);
        assert_eq!(r.remaining(), 12);
    }

    #[test]
    fn reader_reads_borrow_and_bound() {
        let data = [7u8, 0xef, 0xbe, 2, 0, 0, 0, b'h', b'i', 0xff];
        let mut r = Reader::new(&data);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        let s = r.str().unwrap();
        assert_eq!(s, "hi");
        assert!(std::ptr::eq(s.as_ptr(), &data[7]), "strings borrow");
        assert_eq!(r.position(), 9);
        assert!(matches!(r.u32(), Err(DpapiError::Malformed(_))));
        assert_eq!(r.position(), 9, "a failed read consumes nothing");
        assert!(r.clone().finish().is_err());
        r.u8().unwrap();
        r.finish().unwrap();
        assert!(
            Reader::new(&[1, 0, 0, 0, 0xff]).str().is_err(),
            "UTF-8 checked"
        );
    }
}
