//! Counters, gauges and fixed-bucket histograms.
//!
//! No external metrics dependency: the registry is a few `BTreeMap`s, the
//! histogram a fixed bucket ladder. Everything is deterministic (iteration
//! order is the key order) and serializes with the workspace `serde`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default bucket upper bounds for microsecond-scale latencies: a 1-2-5
/// ladder from 1 µs to 10 s. Values above the last bound land in an
/// overflow bucket.
pub const LATENCY_US_BOUNDS: [f64; 22] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5,
    5e5, 1e6, 2e6, 5e6, 1e7,
];

/// A fixed-bucket histogram with exact count/sum/min/max side-channels.
///
/// Buckets are defined by ascending *upper bounds*; a recorded value lands
/// in the first bucket whose bound is ≥ the value, or in the overflow
/// bucket past the last bound. [`Histogram::percentile`] reports the upper
/// bound of the bucket containing the requested rank (the overflow bucket
/// reports the exact maximum), so percentiles are **exact whenever the
/// recorded values sit on bucket bounds** and otherwise err upward by at
/// most one bucket width — the usual fixed-bucket contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One count per bound, plus a trailing overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram over the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub(crate) fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The default microsecond-latency ladder ([`LATENCY_US_BOUNDS`]).
    pub fn latency_us() -> Self {
        Histogram::new(&LATENCY_US_BOUNDS)
    }

    /// Records one observation. Non-finite values are ignored (a poisoned
    /// timing must not poison the aggregate).
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of recorded observations (`None` when empty).
    pub(crate) fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest recorded observation (`None` when empty).
    pub(crate) fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded observation (`None` when empty).
    pub(crate) fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`q` in `(0, 1]`), as the upper bound of the bucket
    /// containing rank `⌈q·count⌉`; the overflow bucket reports the exact
    /// maximum. `None` when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1], got {q}");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if idx < self.bounds.len() {
                    // Never report a percentile above the observed maximum:
                    // a bucket's upper bound can exceed every value in it.
                    self.bounds[idx].min(self.max)
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }

    /// A serializable snapshot with the standard percentiles extracted.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            buckets: self
                .bounds
                .iter()
                .copied()
                .zip(self.counts.iter().copied())
                .filter(|&(_, c)| c > 0)
                .collect(),
            overflow: *self.counts.last().expect("counts is never empty"),
        }
    }
}

/// Serialized view of one [`Histogram`]: summary statistics, the standard
/// percentiles, and the non-empty `(upper_bound, count)` buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Mean observation.
    pub mean: Option<f64>,
    /// Exact minimum.
    pub min: Option<f64>,
    /// Exact maximum.
    pub max: Option<f64>,
    /// Median (bucket upper bound).
    pub p50: Option<f64>,
    /// 95th percentile (bucket upper bound).
    pub p95: Option<f64>,
    /// 99th percentile (bucket upper bound).
    pub p99: Option<f64>,
    /// Non-empty buckets as `(upper_bound, count)`.
    pub buckets: Vec<(f64, u64)>,
    /// Observations above the last bound.
    pub overflow: u64,
}

/// The mutable metrics store: named counters, gauges and histograms.
///
/// Names are dot-separated namespaces (`model.a.predict_us`,
/// `scheduler.actions`); the registry itself imposes no schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub(crate) fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Sets the named gauge.
    pub(crate) fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Records one observation into the named histogram, creating it with
    /// the default microsecond-latency buckets if absent.
    pub(crate) fn observe(&mut self, name: &str, value: f64) {
        self.histograms.entry(name.to_owned()).or_insert_with(Histogram::latency_us).record(value);
    }

    /// A serializable snapshot of everything recorded so far.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
        }
    }
}

/// Serialized view of a `MetricsRegistry`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots with percentiles.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a.b", 2);
        r.counter_add("a.b", 3);
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        let snap = r.snapshot();
        assert_eq!(snap.counters["a.b"], 5);
        assert_eq!(snap.gauges["g"], 2.5);
    }

    #[test]
    fn histogram_percentiles_exact_on_bucket_bounds() {
        let mut h = Histogram::new(&[1.0, 2.0, 5.0, 10.0]);
        // 100 observations: 50×1, 40×2, 9×5, 1×10 — all on bounds.
        for _ in 0..50 {
            h.record(1.0);
        }
        for _ in 0..40 {
            h.record(2.0);
        }
        for _ in 0..9 {
            h.record(5.0);
        }
        h.record(10.0);
        assert_eq!(h.percentile(0.50), Some(1.0));
        assert_eq!(h.percentile(0.95), Some(5.0));
        assert_eq!(h.percentile(0.99), Some(5.0));
        assert_eq!(h.percentile(1.0), Some(10.0));
        assert_eq!(h.snapshot().count, 100);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(10.0));
    }

    #[test]
    fn histogram_overflow_reports_exact_max() {
        let mut h = Histogram::new(&[1.0]);
        h.record(1e9);
        h.record(2e9);
        assert_eq!(h.percentile(1.0), Some(2e9));
        assert_eq!(h.snapshot().overflow, 2);
    }

    #[test]
    fn histogram_never_reports_above_observed_max() {
        let mut h = Histogram::new(&[100.0, 1000.0]);
        h.record(3.0);
        h.record(4.0);
        // Bucket bound is 100, but the real maximum is 4.
        assert_eq!(h.percentile(0.5), Some(4.0));
        assert_eq!(h.percentile(1.0), Some(4.0));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::latency_us();
        assert_eq!(h.percentile(0.99), None);
        assert_eq!(h.mean(), None);
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut h = Histogram::new(&[1.0]);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn snapshot_serializes() {
        let mut r = MetricsRegistry::new();
        r.counter_add("c", 1);
        r.gauge_set("g", 0.5);
        r.observe("h", 3.0);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
