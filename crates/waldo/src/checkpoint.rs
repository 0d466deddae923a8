//! The checkpoint subsystem: durable per-shard segments, an atomic
//! manifest, WAL truncation and cold restart.
//!
//! After PR 1 the store was durable in name only: every group commit
//! fsynced an accounting frame to the db WAL, but shard contents lived
//! in memory and fully-committed Lasagna logs were unlinked — a
//! machine crash was unrecoverable and the WAL grew forever. This
//! module adds the missing storage layer:
//!
//! * **segments** (`crate::segment`) — a versioned, checksummed
//!   image of one shard, written only for shards whose generation
//!   advanced since the last checkpoint (incremental);
//! * **manifest** (`crate::manifest`) — the atomic commit point:
//!   written to a temporary name, fsynced, renamed into place
//!   (`manifest.<seq>`), binding segment checksums to the commit
//!   sequence plus the store-level replay state;
//! * **WAL truncation** — frames at or below the published sequence
//!   are dropped (the checkpoint supersedes them), bounding the WAL
//!   by the checkpoint policy in
//!   [`crate::WaldoConfig`];
//! * **cold restart** (`Waldo::restart`) — loads the newest *complete*
//!   checkpoint (a damaged manifest or segment falls back to the
//!   previous one), rehydrates shards, validates surviving WAL
//!   frames, and replays retained Lasagna logs from the per-log
//!   high-water marks.
//!
//! Correctness rests on log retention: the daemon unlinks a
//! fully-committed log only once a **full complement** of
//! `keep_checkpoints` manifests exists *and* the oldest of them
//! covers the log's retirement sequence — so up to
//! `keep_checkpoints - 1` damaged *manifests or per-checkpoint
//! segments* are survivable with every commit past the surviving
//! checkpoint still replayable from logs. One caveat bounds the
//! guarantee: incremental checkpoints **share** the segment file of
//! a shard that did not advance between them, so corruption of a
//! shared segment damages every retained checkpoint that references
//! it at once (the classic LSM shared-file tradeoff; copying
//! segments per checkpoint would restore full independence at the
//! cost of the incremental write savings). WAL frames past the
//! checkpoint are therefore redundant accounting — restart validates
//! and counts them but takes replay state from the manifest, never
//! from frames (frames record marks whose in-memory effects died with
//! the crash).

use sim_os::fs::FsError;
use sim_os::proc::Pid;
use sim_os::syscall::{Kernel, OpenFlags};

use crate::manifest::{decode_manifest, encode_manifest, Manifest, SegmentRef};
use crate::segment::{decode_shard, encode_shard, segment_crc};
use crate::shard::Shard;
use crate::store::{Store, WaldoConfig};
use crate::wal::parse_wal;

/// Operational counters for the checkpoint subsystem, surfaced
/// through `Waldo::checkpoint_stats` and the bench rig.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints published (manifest renamed into place).
    pub checkpoints: u64,
    /// Segment files written (incremental: unchanged shards are
    /// reused from the previous checkpoint).
    pub segments_written: u64,
    /// Bytes of segment data written.
    pub segment_bytes: u64,
    /// WAL frames dropped by truncation.
    pub frames_truncated: u64,
    /// Source logs unlinked because a retained checkpoint covers them.
    pub logs_retired: u64,
    /// Checkpoint attempts that errored (segment, manifest or WAL
    /// I/O). Nonzero means the WAL bound and log retirement are not
    /// currently advancing.
    pub failures: u64,
}

impl provscope::MetricSource for CheckpointStats {
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("checkpoints", self.checkpoints);
        out("segments_written", self.segments_written);
        out("segment_bytes", self.segment_bytes);
        out("frames_truncated", self.frames_truncated);
        out("logs_retired", self.logs_retired);
        out("failures", self.failures);
    }
}

/// Where a simulated crash interrupts `Waldo::checkpoint` — used by
/// the crash-matrix tests to prove every interleaving restarts to the
/// uncrashed store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointCrash {
    /// Segments written; no manifest yet (checkpoint invisible).
    AfterSegments,
    /// Temporary manifest written and fsynced, not yet renamed.
    AfterTempManifest,
    /// Manifest renamed into place; WAL not yet truncated.
    AfterPublish,
    /// Truncated WAL written to its temporary name, not yet renamed.
    MidWalTruncate,
    /// WAL truncated; covered logs not yet unlinked, old checkpoints
    /// not yet collected.
    AfterWalTruncate,
}

/// What a cold restart found, for tests, benches and operators.
#[derive(Clone, Debug, Default)]
pub struct RestartReport {
    /// Sequence of the checkpoint the store was rehydrated from
    /// (`None` = no loadable checkpoint, full-log replay).
    pub loaded_seq: Option<u64>,
    /// Damaged checkpoints skipped before one loaded (corrupt or torn
    /// manifest, checksum-mismatched segment).
    pub checkpoints_skipped: usize,
    /// Valid durability frames found in the surviving WAL.
    pub wal_frames: u64,
    /// Of those, frames past the loaded checkpoint — commits whose
    /// effects restart re-derives by replaying retained logs.
    pub wal_frames_beyond_checkpoint: u64,
    /// Entries applied while replaying surviving logs.
    pub replayed_entries: usize,
    /// True when the surviving WAL's tail did not parse cleanly (torn
    /// or corrupt final frame). Harmless for state — replay comes
    /// from the manifest, never from frames — but it is the detection
    /// signal for WAL truncation/bit-flip tampers.
    pub wal_tail_torn: bool,
}

/// `<db_dir>/checkpoints`, the segment + manifest directory.
pub(crate) fn checkpoint_dir(db_dir: &str) -> String {
    format!("{db_dir}/checkpoints")
}

/// `<db_dir>/wal`, the durability-frame log.
pub(crate) fn wal_path(db_dir: &str) -> String {
    format!("{db_dir}/wal")
}

fn manifest_path(dir: &str, seq: u64) -> String {
    format!("{dir}/manifest.{seq}")
}

fn segment_path(dir: &str, shard: usize, generation: u64) -> String {
    format!("{dir}/shard{shard}.g{generation}.seg")
}

/// Writes `data` then fsyncs before closing — the discipline every
/// checkpoint artifact is written with.
fn write_synced(kernel: &mut Kernel, pid: Pid, path: &str, data: &[u8]) -> Result<(), FsError> {
    let fd = kernel.open(pid, path, OpenFlags::WRONLY_CREATE)?;
    kernel.write(pid, fd, data)?;
    kernel.fsync(pid, fd)?;
    kernel.close(pid, fd)
}

/// Serializes and writes segment files for every shard whose
/// generation advanced past the previous checkpoint, reusing the
/// previous checkpoint's segments for unchanged shards. Returns the
/// new per-shard refs plus (files written, bytes written).
pub(crate) fn write_segments(
    kernel: &mut Kernel,
    pid: Pid,
    store: &Store,
    dir: &str,
    prev: Option<&Manifest>,
) -> Result<(Vec<SegmentRef>, u64, u64), FsError> {
    let mut refs = Vec::with_capacity(store.shard_count());
    let mut written = 0u64;
    let mut bytes = 0u64;
    for i in 0..store.shard_count() {
        let gen = store.shard_generation(i);
        if gen == 0 {
            refs.push(SegmentRef {
                generation: 0,
                len: 0,
                crc: 0,
            });
            continue;
        }
        if let Some(p) = prev.and_then(|m| m.segments.get(i)) {
            if p.generation == gen && !p.is_empty() {
                refs.push(*p);
                continue;
            }
        }
        let img = store.with_shard(i, |shard| encode_shard(i as u32, shard, gen));
        write_synced(kernel, pid, &segment_path(dir, i, gen), &img)?;
        refs.push(SegmentRef {
            generation: gen,
            len: img.len() as u64,
            crc: segment_crc(&img),
        });
        written += 1;
        bytes += img.len() as u64;
    }
    Ok((refs, written, bytes))
}

/// Writes the manifest under its temporary name and fsyncs it.
pub(crate) fn write_temp_manifest(
    kernel: &mut Kernel,
    pid: Pid,
    dir: &str,
    m: &Manifest,
) -> Result<(), FsError> {
    write_synced(
        kernel,
        pid,
        &format!("{dir}/manifest.tmp"),
        &encode_manifest(m),
    )
}

/// Atomically publishes the temporary manifest as `manifest.<seq>`.
pub(crate) fn rename_manifest(
    kernel: &mut Kernel,
    pid: Pid,
    dir: &str,
    seq: u64,
) -> Result<(), FsError> {
    kernel.rename(
        pid,
        &format!("{dir}/manifest.tmp"),
        &manifest_path(dir, seq),
    )
}

/// Rewrites the WAL keeping only frames past `seq`, into the WAL's
/// temporary name (`wal.tmp`), fsynced. Returns the number of frames
/// dropped. The caller renames via [`rename_wal`] — and must have
/// closed its WAL descriptor first, since rename replaces the inode.
pub(crate) fn truncate_wal_temp(
    kernel: &mut Kernel,
    pid: Pid,
    wal: &str,
    seq: u64,
) -> Result<u64, FsError> {
    let data = kernel.read_file(pid, wal).unwrap_or_default();
    let (frames, _tail) = parse_wal(&data);
    let mut retained = Vec::new();
    let mut dropped = 0u64;
    for f in &frames {
        if f.seq > seq {
            crate::wal::encode_frame(&mut retained, f);
        } else {
            dropped += 1;
        }
    }
    write_synced(kernel, pid, &format!("{wal}.tmp"), &retained)?;
    Ok(dropped)
}

/// Writes an **empty** WAL to the temporary name — the restart-time
/// reset (`Waldo::restart`), where every surviving frame is stale.
pub(crate) fn reset_wal_temp(kernel: &mut Kernel, pid: Pid, wal: &str) -> Result<(), FsError> {
    write_synced(kernel, pid, &format!("{wal}.tmp"), &[])
}

/// Atomically replaces the WAL with its truncated rewrite.
pub(crate) fn rename_wal(kernel: &mut Kernel, pid: Pid, wal: &str) -> Result<(), FsError> {
    kernel.rename(pid, &format!("{wal}.tmp"), wal)
}

/// Removes one manifest file (used by restart to discard manifests
/// that failed to load; their segments are collected by the next
/// checkpoint's GC).
pub(crate) fn remove_manifest(kernel: &mut Kernel, pid: Pid, dir: &str, seq: u64) {
    let _ = kernel.unlink(pid, &manifest_path(dir, seq));
}

/// Manifest sequence numbers present in `dir`, ascending.
pub(crate) fn list_manifests(kernel: &mut Kernel, pid: Pid, dir: &str) -> Vec<u64> {
    let Ok(entries) = kernel.readdir(pid, dir) else {
        return Vec::new();
    };
    let mut seqs: Vec<u64> = entries
        .iter()
        .filter_map(|e| {
            e.name
                .strip_prefix("manifest.")
                .and_then(|s| s.parse().ok())
        })
        .collect();
    seqs.sort_unstable();
    seqs
}

/// Garbage-collects the checkpoint directory: keeps the newest `keep`
/// manifests, removes older ones plus every segment file none of the
/// kept manifests references. Returns the retained sequence numbers,
/// ascending — the oldest is the retention floor source logs are
/// gated on.
pub(crate) fn collect_garbage(kernel: &mut Kernel, pid: Pid, dir: &str, keep: usize) -> Vec<u64> {
    let seqs = list_manifests(kernel, pid, dir);
    let keep = keep.max(1);
    let cut = seqs.len().saturating_sub(keep);
    let (drop_seqs, kept) = seqs.split_at(cut);
    let mut referenced: std::collections::HashSet<String> = std::collections::HashSet::new();
    for seq in kept {
        let Ok(data) = kernel.read_file(pid, &manifest_path(dir, *seq)) else {
            continue;
        };
        // A kept-but-damaged manifest contributes no references; its
        // segments become collectable, which is fine — it could not
        // have been restarted from anyway.
        let Ok(m) = decode_manifest(&data) else {
            continue;
        };
        for (i, seg) in m.segments.iter().enumerate() {
            if !seg.is_empty() {
                referenced.insert(format!("shard{i}.g{}.seg", seg.generation));
            }
        }
    }
    for seq in drop_seqs {
        let _ = kernel.unlink(pid, &manifest_path(dir, *seq));
    }
    if let Ok(entries) = kernel.readdir(pid, dir) {
        for e in entries {
            if e.name.ends_with(".seg") && !referenced.contains(&e.name) {
                let _ = kernel.unlink(pid, &format!("{dir}/{}", e.name));
            }
        }
    }
    kept.to_vec()
}

/// A checkpoint successfully loaded from disk.
pub(crate) struct LoadedCheckpoint {
    pub store: Store,
    pub manifest: Manifest,
    /// Damaged newer checkpoints skipped before this one loaded.
    pub skipped: usize,
}

/// Loads the newest complete checkpoint from `dir`: tries manifests
/// newest-first, validating the manifest codec and every referenced
/// segment's length, checksum and identity; a damaged checkpoint is
/// skipped in favor of its predecessor (which means a longer log
/// replay for the caller).
pub(crate) fn load_latest(
    kernel: &mut Kernel,
    pid: Pid,
    dir: &str,
    cfg: WaldoConfig,
) -> Option<LoadedCheckpoint> {
    let mut seqs = list_manifests(kernel, pid, dir);
    seqs.reverse();
    let mut skipped = 0;
    for seq in seqs {
        match try_load(kernel, pid, dir, cfg, seq) {
            Some((store, manifest)) => {
                return Some(LoadedCheckpoint {
                    store,
                    manifest,
                    skipped,
                });
            }
            None => skipped += 1,
        }
    }
    None
}

fn try_load(
    kernel: &mut Kernel,
    pid: Pid,
    dir: &str,
    cfg: WaldoConfig,
    seq: u64,
) -> Option<(Store, Manifest)> {
    let data = kernel.read_file(pid, &manifest_path(dir, seq)).ok()?;
    let m = decode_manifest(&data).ok()?;
    if m.seq != seq || !m.segments.len().is_power_of_two() {
        return None;
    }
    let mut shards = Vec::with_capacity(m.segments.len());
    for (i, seg) in m.segments.iter().enumerate() {
        if seg.is_empty() {
            shards.push(Shard::default());
            continue;
        }
        let img = kernel
            .read_file(pid, &segment_path(dir, i, seg.generation))
            .ok()?;
        if img.len() as u64 != seg.len || segment_crc(&img) != seg.crc {
            return None;
        }
        let (idx, shard) = decode_shard(&img).ok()?;
        if idx as usize != i || shard.generation != seg.generation {
            return None;
        }
        shards.push(shard);
    }
    let store = Store::restore(
        cfg,
        shards,
        m.txns.clone(),
        m.commit_txn,
        m.sources.clone(),
        m.seq,
        m.batch_hw.clone(),
        m.replay_skip,
    );
    Some((store, m))
}
