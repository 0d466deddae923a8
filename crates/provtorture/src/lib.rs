//! provtorture: the deterministic fault-injection and expressiveness
//! harness.
//!
//! A provenance system's value proposition collapses if its record of
//! the past can be silently altered — so this crate proves, run by
//! run, that it cannot. Every fault in the typed algebra
//! ([`fault::Fault`]) is injected into a full-stack run (syscalls →
//! observer → Lasagna log → Waldo → checkpoints → PQL) of a real
//! workload from `workloads`, and the outcome is judged by a
//! **two-sided oracle** ([`harness`]):
//!
//! * **detected** — a typed recovery error ([`waldo::RestartError`],
//!   [`waldo::MergeError`], [`passv2::ClusterRestartError`]) or a
//!   corruption counter (log-tail tears, replayed batch skips,
//!   skipped checkpoints, a torn WAL tail) names the tamper; or
//! * **provably harmless** — the run's final store is byte-equal
//!   (under [`waldo::Store::segment_images`]'s canonical encoding) to
//!   an identically scheduled run without the fault.
//!
//! A fault that is neither — *silent divergence* — is a test failure,
//! full stop. Each case runs under one of three topologies
//! ([`harness::Topology`]): a single durable daemon, a durable daemon
//! crashed and cold-restarted, and a two-member cluster crashed and
//! cold-restarted. Everything is driven by a seed: the same
//! `(workload, topology, fault, seed)` tuple always produces the
//! same verdict, byte for byte — asserted by the CI smoke binary,
//! which runs the matrix twice and diffs the reports.
//!
//! The second half of the oracle is ProvMark-style expressiveness
//! ([`shape`]): the graph each topology records must have the same
//! node and edge multiset (observed through PQL, not store
//! internals) as the single-daemon reference, for every workload —
//! including [`workloads::SelfIngest`], the system building itself,
//! where a wrong answer would mean the system cannot even vouch for
//! its own binary.

pub mod fault;
pub mod harness;
pub mod shape;

pub use fault::{Fault, ALL_FAULTS};
pub use harness::{run_clean, torture, CaseReport, CleanRun, Topology, Verdict, ALL_TOPOLOGIES};
pub use shape::{reaches, GraphShape};

/// The harness's deterministic generator: a splitmix64 chain, seeded
/// from the case coordinates so each `(seed, workload, topology,
/// fault)` cell draws an independent, reproducible stream. Not
/// `rand`: the whole point is that nothing in a verdict depends on
/// ambient entropy.
pub struct TortureRng(u64);

impl TortureRng {
    /// A generator for one matrix cell.
    pub fn for_case(seed: u64, workload: &str, topology: &str, fault: &str) -> TortureRng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for part in [workload, topology, fault] {
            for b in part.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            h = h.rotate_left(17);
        }
        TortureRng(h)
    }

    /// The next raw 64-bit draw (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no value to draw");
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_case_and_distinct_across_cases() {
        let draw = |w: &str, t: &str, f: &str| {
            let mut r = TortureRng::for_case(42, w, t, f);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(draw("a", "b", "c"), draw("a", "b", "c"));
        assert_ne!(draw("a", "b", "c"), draw("a", "b", "d"));
        assert_ne!(draw("a", "b", "c"), draw("x", "b", "c"));
        let mut r = TortureRng::for_case(7, "w", "t", "f");
        for _ in 0..100 {
            assert!(r.below(13) < 13);
        }
    }
}
