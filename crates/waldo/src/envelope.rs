//! The sealed-image envelope shared by checkpoint segments and
//! manifests:
//!
//! ```text
//! image := magic [4], version u16, body, crc32(everything before) u32
//! ```
//!
//! [`Envelope::start`] writes the header, [`Envelope::seal`] closes the
//! image with its CRC trailer, and [`Envelope::open`] checks length,
//! trailer, magic and version before handing the body to its decoder.

use bytes::{BufMut, BytesMut};
use dpapi::wire::Reader;
use dpapi::{DpapiError, Result};

/// One sealed-image format: its magic, the one version its decoder
/// accepts, and a name for error messages.
pub(crate) struct Envelope {
    pub magic: [u8; 4],
    pub version: u16,
    pub what: &'static str,
}

impl Envelope {
    /// A buffer holding the image header, ready for the body.
    pub fn start(&self, capacity: usize) -> BytesMut {
        let mut buf = BytesMut::with_capacity(capacity);
        buf.put_slice(&self.magic);
        buf.put_u16_le(self.version);
        buf
    }

    /// Closes an image begun by [`Envelope::start`] with its CRC
    /// trailer.
    pub fn seal(mut buf: BytesMut) -> Vec<u8> {
        let crc = lasagna::crc32(&buf);
        buf.put_u32_le(crc);
        buf.to_vec()
    }

    /// Validates a sealed image and returns a reader over its body.
    /// Any other version than [`Envelope::version`] is
    /// [`DpapiError::Malformed`].
    pub fn open<'a>(&self, data: &'a [u8]) -> Result<Reader<'a>> {
        let bad = |why: String| Err(DpapiError::Malformed(format!("{} {why}", self.what)));
        if data.len() < self.magic.len() + 2 + 4 {
            return bad("too short".into());
        }
        let (sealed, trailer) = data.split_at(data.len() - 4);
        if lasagna::crc32(sealed) != Reader::new(trailer).u32()? {
            return bad("CRC mismatch".into());
        }
        let mut r = Reader::new(sealed);
        if r.array::<4>()? != self.magic {
            return bad("magic mismatch".into());
        }
        let version = r.u16()?;
        if version != self.version {
            return bad(format!("version {version} unsupported"));
        }
        Ok(r)
    }
}
