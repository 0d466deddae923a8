//! The database write-ahead log's frame codec.
//!
//! Every group commit appends one **durability frame** to the db WAL
//! (see `Waldo::attach_db_dir`): the commit sequence number, the
//! applied-entry count, the touched-shard mask with the new generation
//! of every touched shard, and the replay high-water mark of every
//! active source log. Frames are length-prefixed and CRC-closed so a
//! cold restart can walk the WAL, validate it, and stop cleanly at a
//! torn tail. They are Lasagna log frames with an empty head
//! ([`lasagna::put_frame`], [`lasagna::walk_frames`]):
//!
//! ```text
//! frame   := len u32le, payload[len], crc32(payload) u32le
//! payload := seq u64, applied u64, touched u64,
//!            popcount(touched) × generation u64,
//!            n_sources u32, n_sources × (path_crc u32, mark u64)
//! ```
//!
//! Frames carry *accounting*, not entries: the entries themselves live
//! in the Lasagna logs, which the daemon retains until a checkpoint
//! covers them. Restart therefore replays **logs** (from the
//! checkpoint's marks), and uses WAL frames only to validate the
//! durable commit history past the checkpoint — advancing marks from
//! frames alone would skip entries whose in-memory effects died with
//! the crash.

use dpapi::wire::Reader;
use dpapi::Result;
use lasagna::LogTail;

/// One decoded durability frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalFrame {
    /// Group-commit sequence number (1-based, monotonic).
    pub seq: u64,
    /// Entries applied by this commit.
    pub applied: u64,
    /// Bitmask of shards the commit touched.
    pub touched: u64,
    /// New generation of each touched shard, in ascending shard order.
    pub gens: Vec<u64>,
    /// `(crc32(path), committed high-water mark)` per active source
    /// log at commit time.
    pub sources: Vec<(u32, u64)>,
}

/// Encodes one frame, appending to `out`.
pub fn encode_frame(out: &mut Vec<u8>, frame: &WalFrame) {
    debug_assert_eq!(frame.gens.len(), frame.touched.count_ones() as usize);
    let mut payload = Vec::with_capacity(32 + 8 * frame.gens.len() + 12 * frame.sources.len());
    payload.extend_from_slice(&frame.seq.to_le_bytes());
    payload.extend_from_slice(&frame.applied.to_le_bytes());
    payload.extend_from_slice(&frame.touched.to_le_bytes());
    for g in &frame.gens {
        payload.extend_from_slice(&g.to_le_bytes());
    }
    payload.extend_from_slice(&(frame.sources.len() as u32).to_le_bytes());
    for (path_crc, mark) in &frame.sources {
        payload.extend_from_slice(&path_crc.to_le_bytes());
        payload.extend_from_slice(&mark.to_le_bytes());
    }
    lasagna::put_frame(out, &[], &payload).expect("a WAL frame payload fits its u32 prefix");
}

fn decode_payload(payload: &[u8]) -> Result<WalFrame> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let applied = r.u64()?;
    let touched = r.u64()?;
    let gens = (0..touched.count_ones())
        .map(|_| r.u64())
        .collect::<Result<_>>()?;
    let sources = r.list(4 + 8, |r| Ok((r.u32()?, r.u64()?)))?;
    r.finish()?;
    Ok(WalFrame {
        seq,
        applied,
        touched,
        gens,
        sources,
    })
}

/// Parses a WAL image into frames plus a tail condition. Like
/// [`lasagna::parse_log`] — and through the same frame walker — a torn
/// tail stops parsing as [`LogTail::Truncated`] and a frame that fails
/// its CRC or does not decode as [`LogTail::Corrupt`], at that frame's
/// offset, instead of being silently ignored.
pub fn parse_wal(data: &[u8]) -> (Vec<WalFrame>, LogTail) {
    let mut frames = Vec::new();
    let tail = lasagna::walk_frames(data, |[], payload| {
        frames.push(decode_payload(payload)?);
        Ok(())
    });
    (frames, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<WalFrame> {
        vec![
            WalFrame {
                seq: 1,
                applied: 4,
                touched: 0b101,
                gens: vec![1, 1],
                sources: vec![(0xdead_beef, 4)],
            },
            WalFrame {
                seq: 2,
                applied: 0,
                touched: 0,
                gens: vec![],
                sources: vec![(0xdead_beef, 6), (7, 2)],
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let frames = sample();
        let mut buf = Vec::new();
        for f in &frames {
            encode_frame(&mut buf, f);
        }
        let (parsed, tail) = parse_wal(&buf);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(parsed, frames);
    }

    #[test]
    fn truncation_stops_at_frame_boundary() {
        let frames = sample();
        let mut buf = Vec::new();
        encode_frame(&mut buf, &frames[0]);
        let boundary = buf.len();
        encode_frame(&mut buf, &frames[1]);
        let (parsed, tail) = parse_wal(&buf[..buf.len() - 3]);
        assert_eq!(parsed.len(), 1);
        assert_eq!(tail, LogTail::Truncated { at: boundary });
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, &sample()[0]);
        for flip in 0..buf.len() {
            let mut bad = buf.clone();
            bad[flip] ^= 0x40;
            let (parsed, tail) = parse_wal(&bad);
            // A flipped length byte may read as truncation instead of
            // corruption; what a parse must never do is return the
            // original frame with a clean tail.
            assert!(
                !(tail == LogTail::Clean && parsed == sample()[..1]),
                "flip at {flip} silently accepted"
            );
        }
    }

    #[test]
    fn empty_wal_is_clean() {
        let (frames, tail) = parse_wal(&[]);
        assert!(frames.is_empty());
        assert_eq!(tail, LogTail::Clean);
    }
}
