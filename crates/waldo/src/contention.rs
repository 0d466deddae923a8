//! Lock-contention profiling for the sharded store.
//!
//! PR 8's threaded cluster runtime made [`crate::store::Store`]
//! `Sync` behind a meta-mutex → per-shard-`RwLock` → cache-mutex
//! hierarchy plus an epoch seqlock — and made every wait on those
//! locks invisible. This module gives each level of the hierarchy a
//! lock-free wait histogram ([`provscope::AtomicHistogram`]) and the
//! seqlock its retry/fallback counters, so "readers stalled behind a
//! commit storm" is a number in the registry instead of a guess.
//!
//! Everything here is **wall-clock** (`std::time::Instant`), which is
//! the whole point — virtual time never advances while a thread sits
//! on a mutex. That is safe for the determinism contract because none
//! of it feeds canonical store encodings or determinism-asserted
//! outputs: the counters ride the deterministic
//! [`ContentionStats`] [`MetricSource`], while the wall-clock
//! histograms are exported only through the opt-in
//! [`crate::store::Store::export_contention`] used by observability
//! binaries (`provtop`), never by the default metric emission tests
//! compare.

use std::sync::atomic::{AtomicU64, Ordering};

use provscope::{AtomicHistogram, MetricSource};

/// Per-store contention instrumentation, owned by the store and
/// updated lock-free from every path that waits.
#[derive(Default)]
pub struct Contention {
    /// Multi-shard consistent reads attempted.
    pub epoch_reads: AtomicU64,
    /// Optimistic attempts retried (odd epoch seen, or the epoch
    /// moved during the read).
    pub epoch_retries: AtomicU64,
    /// Reads that exhausted their retries and fell back to blocking
    /// new commits via the meta mutex.
    pub epoch_fallbacks: AtomicU64,
    /// Commit (and merge) windows — times the epoch went odd.
    pub commit_windows: AtomicU64,
    /// Wall-clock wait to acquire the meta mutex (lock level 1).
    pub meta_wait: AtomicHistogram,
    /// Wall-clock wait to acquire per-shard write locks (level 2).
    pub shard_wait: AtomicHistogram,
    /// Wall-clock wait to acquire the query-cache mutexes (level 3).
    pub cache_wait: AtomicHistogram,
    /// Wall-clock duration of the odd-epoch commit window — how long
    /// concurrent snapshot readers were forced to retry.
    pub commit_window: AtomicHistogram,
}

impl Contention {
    /// A deterministic counter snapshot.
    pub fn stats(&self) -> ContentionStats {
        ContentionStats {
            epoch_reads: self.epoch_reads.load(Ordering::Relaxed),
            epoch_retries: self.epoch_retries.load(Ordering::Relaxed),
            epoch_fallbacks: self.epoch_fallbacks.load(Ordering::Relaxed),
            commit_windows: self.commit_windows.load(Ordering::Relaxed),
        }
    }
}

/// Counter snapshot of [`Contention`] — the part that is a pure
/// function of the workload's synchronization schedule (counts, not
/// durations), emitted like every other per-layer stats struct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Multi-shard consistent reads attempted.
    pub epoch_reads: u64,
    /// Optimistic read attempts retried.
    pub epoch_retries: u64,
    /// Reads that fell back to the meta mutex.
    pub epoch_fallbacks: u64,
    /// Commit/merge windows (times the epoch went odd).
    pub commit_windows: u64,
}

impl MetricSource for ContentionStats {
    fn record(&self, out: &mut dyn FnMut(&str, u64)) {
        out("epoch_reads", self.epoch_reads);
        out("epoch_retries", self.epoch_retries);
        out("epoch_fallbacks", self.epoch_fallbacks);
        out("commit_windows", self.commit_windows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_snapshot_and_metric_source_agree() {
        let c = Contention::default();
        c.epoch_reads.fetch_add(3, Ordering::Relaxed);
        c.epoch_retries.fetch_add(2, Ordering::Relaxed);
        let st = c.stats();
        assert_eq!(st.epoch_reads, 3);
        let mut reg = provscope::Registry::new();
        reg.absorb("waldo.contention.", &st);
        assert_eq!(reg.counter("waldo.contention.epoch_reads"), 3);
        assert_eq!(reg.counter("waldo.contention.epoch_retries"), 2);
        assert_eq!(reg.counter("waldo.contention.epoch_fallbacks"), 0);
    }
}
