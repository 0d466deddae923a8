//! Sample arithmetic: medians, nearest-rank percentiles, and the tail
//! percentile rule every timing is reported under.
//!
//! A tail percentile is only as good as the samples beyond it, so a
//! timing's tail is reported at the highest percentile (capped at 99)
//! that leaves at least [`MIN_BEYOND`] samples above it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p * n / 100)`, in exact integer arithmetic.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100)
}

/// Nearest-rank percentile `p` (0..=100) of `samples`; `None` when
/// empty.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(p, v.len()).clamp(1, v.len()) - 1])
}

/// The median of `samples` (mean of the middle two for even counts);
/// 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile, at most 99, whose nearest-rank
/// sample still has at least [`MIN_BEYOND`] samples above it. With
/// fewer than `MIN_BEYOND + 1` samples no percentile qualifies and the
/// median (50) is used.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99u32)
        .rev()
        .find(|&p| n - rank(p, n) >= MIN_BEYOND)
        .unwrap_or(50)
}

/// A timing summary: the nearest-rank median, the tail at
/// [`tail_percentile`], and the sample count behind both.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_p: u32,
    pub tail: f64,
}

/// Summarizes `samples` under the tail rule.
pub fn summarize(samples: &[f64]) -> Summary {
    let tail_p = tail_percentile(samples.len());
    Summary {
        n: samples.len(),
        p50: percentile(samples, 50).unwrap_or(0.0),
        tail_p,
        tail: percentile(samples, tail_p).unwrap_or(0.0),
    }
}

/// Samples per block of [`blocked_tail`]: the fewest that still
/// leave [`MIN_BEYOND`] samples beyond a p99.
pub const TAIL_BLOCK: usize = 1000;

/// The tail of a long, time-ordered sample stream, robust to host
/// stalls: the stream is cut into consecutive blocks of
/// [`TAIL_BLOCK`] samples, each block's tail is taken under the
/// ten-beyond rule (p99 at this block size), and the median of the
/// block tails is reported. A stall of the host inflates the blocks
/// it falls in, not the reported figure. Streams shorter than three
/// blocks fall back to the pooled tail. Returns the tail, the
/// percentile and the number of blocks (1 when pooled).
pub fn blocked_tail(samples: &[f64]) -> (f64, u32, usize) {
    let blocks = samples.len() / TAIL_BLOCK;
    if blocks < 3 {
        let s = summarize(samples);
        return (s.tail, s.tail_p, 1);
    }
    let p = tail_percentile(TAIL_BLOCK);
    let tails: Vec<f64> = samples
        .chunks_exact(TAIL_BLOCK)
        .map(|b| percentile(b, p).unwrap_or(0.0))
        .collect();
    (median(&tails), p, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 99), Some(99.0));
        assert_eq!(percentile(&v, 100), Some(100.0));
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(1000), 99);
        // 999 samples: p99 is rank 990 (ceil of 989.01), 9 beyond —
        // too few, so p98 (rank 980, 19 beyond) is reported.
        assert_eq!(tail_percentile(999), 98);
        // 100 samples: p90 is rank 90, 10 beyond; p91 leaves 9.
        assert_eq!(tail_percentile(100), 90);
        // 20 samples: p50 is rank 10, 10 beyond.
        assert_eq!(tail_percentile(20), 50);
        // Too few for any tail: fall back to the median.
        assert_eq!(tail_percentile(5), 50);
        assert_eq!(tail_percentile(0), 50);
    }

    #[test]
    fn every_tail_really_has_ten_beyond() {
        for n in 20..3000 {
            let p = tail_percentile(n);
            assert!(n - rank(p, n) >= MIN_BEYOND, "n={n} p={p}");
            if p < 99 {
                let next = rank(p + 1, n);
                assert!(n - next < MIN_BEYOND, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn blocked_tail_ignores_a_stall_in_one_block() {
        // Five blocks of 1..=1000; one block stalls (every sample +1e6).
        let mut v: Vec<f64> = Vec::new();
        for b in 0..5 {
            let stall = if b == 2 { 1e6 } else { 0.0 };
            v.extend((1..=1000).map(|x| f64::from(x) + stall));
        }
        assert_eq!(blocked_tail(&v), (990.0, 99, 5));
        // Pooled, the stalled block owns the whole top fifth.
        assert!(summarize(&v).tail > 1e6);
        // Under three blocks: the pooled ten-beyond tail.
        let short: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(blocked_tail(&short), (190.0, 95, 1));
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.tail_p, 95);
        assert_eq!(s.tail, 190.0);
    }
}
