//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent over seconds to minutes (other tenants, clock changes), and
//! that drift moves every timing of a run together. Between set-ups
//! and between iterations a run times a fixed reference task that is
//! the benchmark's own code — string formatting, B-tree inserts,
//! allocation churn, a sort and a large copy, the kinds of work the
//! program does. The end-to-end timings are then reported at a
//! nominal host speed: each is scaled by [`NOMINAL_S`] over the median
//! reference time of the phase it was measured in. A change to the
//! program moves the timings and not the reference; a change of host
//! speed moves both.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference task's time on a nominal host, seconds: about its
/// median on the 2-core VM the bounds were set on.
pub const NOMINAL_S: f64 = 0.013;

/// The reference task: fixed work that depends on no input.
fn reference_task() -> u64 {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut names = BTreeMap::new();
    let mut blobs: Vec<Vec<u8>> = Vec::with_capacity(4096);
    for i in 0..15_000u64 {
        let k = next();
        names.insert(format!("/src/dir{}/unit{}.c", k % 97, k % 100_003), i);
        let blob = vec![i as u8; (k % 96) as usize];
        if blobs.len() < 4096 {
            blobs.push(blob);
        } else {
            blobs[(k % 4096) as usize] = blob;
        }
    }
    let mut v: Vec<u64> = (0..50_000).map(|_| next()).collect();
    v.sort_unstable();
    let buf = vec![7u8; 1 << 20];
    let copy = black_box(&buf).clone();
    names.len() as u64 + blobs.len() as u64 + v[v.len() / 2] + u64::from(copy[12_345])
}

/// Host seconds the reference task takes now.
pub fn measure() -> f64 {
    let t = Instant::now();
    black_box(reference_task());
    t.elapsed().as_secs_f64()
}

/// The factor that brings a time measured beside `refs` (reference
/// times, seconds) to the nominal host: multiply times by it, divide
/// rates by it. 1 when there are no reference times.
pub fn factor(refs: &[f64]) -> f64 {
    let m = crate::stats::median(refs);
    if m > 0.0 {
        NOMINAL_S / m
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_task_does_the_same_work_every_time() {
        assert_eq!(reference_task(), reference_task());
    }

    #[test]
    fn factor_scales_by_the_median_reference() {
        // A host running the reference at twice the nominal time is
        // half as fast: its times halve, its rates double.
        let refs = [2.0 * NOMINAL_S, 1.0, 2.0 * NOMINAL_S, 0.0, 2.0 * NOMINAL_S];
        assert_eq!(factor(&refs), 0.5);
        assert_eq!(factor(&[NOMINAL_S]), 1.0);
        assert_eq!(factor(&[]), 1.0);
    }
}
