//! Order statistics over step times, the across-round summary, and the
//! FNV-1a digest every round is fingerprinted with.

/// Samples a tail percentile needs beyond it before it is reported
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(((q * n as f64).ceil() as usize).max(1))
}

/// The tail quantile reported under `step_p99_us`: 0.99 whenever at least
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it (every full-size round:
/// they all have ≥ 1200 steps), otherwise the highest quantile that does
/// (`--smoke` rounds), never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    if samples_beyond(n, 0.99) >= MIN_SAMPLES_BEYOND {
        0.99
    } else if n > 2 * MIN_SAMPLES_BEYOND {
        (n - MIN_SAMPLES_BEYOND) as f64 / n as f64
    } else {
        0.5
    }
}

/// Median of unsorted values (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Which direction of a metric is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates.
    Higher,
    /// Times and sizes.
    Lower,
}

/// One metric's per-round values reduced to what is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The best round (max for rates, min for times): on a shared box noise
    /// only ever adds time.
    pub best: f64,
    /// The median round.
    pub median: f64,
    /// `(max − min) / median` across rounds.
    pub spread: f64,
}

/// Reduces per-round values of one metric.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(per_round: &[f64], better: Better) -> Summary {
    let min = per_round.iter().copied().fold(f64::INFINITY, f64::min);
    let max = per_round.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let median = median(per_round);
    Summary {
        best: if better == Better::Higher { max } else { min },
        median,
        spread: if median != 0.0 { (max - min) / median } else { 0.0 },
    }
}

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1200, 0.99), 12);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(1200), 0.99);
        assert_eq!(tail_quantile(1000), 0.99);
        // Too few steps for p99: fall back to the highest quantile that
        // still leaves ten samples beyond it.
        let q = tail_quantile(200);
        assert!(q < 0.99 && samples_beyond(200, q) >= MIN_SAMPLES_BEYOND, "{q}");
        assert_eq!(tail_quantile(15), 0.5);
    }

    #[test]
    fn best_round_is_max_for_rates_min_for_times() {
        let rounds = [10.0, 12.0, 11.0, 9.0, 11.5];
        let rate = summarize(&rounds, Better::Higher);
        assert_eq!((rate.best, rate.median), (12.0, 11.0));
        let time = summarize(&rounds, Better::Lower);
        assert_eq!(time.best, 9.0);
        assert!((time.spread - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
