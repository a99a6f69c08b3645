//! The shared feature schema: Table 3 of the paper, with fixed normalization.
//!
//! All four models consume the same counter sample; Model-B appends the QoS
//! slowdown budget, Model-B′ a proposed deprivation and Model-C the response
//! latency. Each model's input row has exactly one writer here: the model's
//! own `predict` fills its row through it, and so do the corpus builders of
//! `osml-dataset`. Normalization uses **fixed physical scales** (machine
//! geometry and sane counter ranges) rather than corpus statistics, so a
//! model trained on one corpus can score samples from any run without
//! dragging normalization state around.

use osml_platform::CounterSample;

/// Number of base features (Table 3 rows used by Model-A).
pub const BASE_FEATURES: usize = 11;

/// Fixed normalization scales for the 11 base features, in
/// [`CounterSample::model_a_features`] order. Chosen so normalized values
/// land roughly in [0, 2] on the paper's testbed.
const FEATURE_SCALES: [f64; BASE_FEATURES] = [
    2.0,   // IPC
    2.0e8, // LLC misses per second
    50.0,  // MBL, GB/s
    36.0,  // CPU usage (cores busy)
    16.0,  // memory util, GB
    25.0,  // virtual memory, GB
    16.0,  // resident memory, GB
    45.0,  // LLC occupancy, MB
    36.0,  // allocated cores
    20.0,  // allocated ways
    3.0,   // frequency, GHz
];

/// Scale applied to latencies before entering a feature vector. Latencies
/// span five orders of magnitude (1 ms .. 100 s), so they enter as
/// `log10(1 + ms) / LATENCY_LOG_SCALE`.
const LATENCY_LOG_SCALE: f64 = 5.0;

/// Writes the 11 normalized base features into the front of a row of
/// `width` columns, after checking that width.
///
/// Non-finite counters (a torn PMU read that slipped past upstream
/// validation) are mapped to 0.0 — a single NaN entering a feature vector
/// would otherwise poison every downstream matmul and, with online
/// learning, every weight it touches.
///
/// # Panics
///
/// Panics if `out.len() != width`.
fn write_base(sample: &CounterSample, out: &mut [f32], width: usize) {
    assert_eq!(out.len(), width, "feature row width mismatch");
    for ((o, &v), &s) in out.iter_mut().zip(sample.model_a_features().iter()).zip(&FEATURE_SCALES) {
        let n = (v / s) as f32;
        *o = if n.is_finite() { n } else { 0.0 };
    }
}

/// Writes a Model-A input row: the 11 normalized base features.
///
/// # Panics
///
/// Panics if `out.len() != BASE_FEATURES`.
pub fn write_model_a_input(sample: &CounterSample, out: &mut [f32]) {
    write_base(sample, out, BASE_FEATURES);
}

/// Writes a Model-B input row: the base features plus the acceptable QoS
/// slowdown (e.g. 0.05 for "5 % slower is tolerable").
///
/// # Panics
///
/// Panics if `out.len() != MODEL_B_INPUTS`.
pub fn write_model_b_input(sample: &CounterSample, qos_slowdown: f64, out: &mut [f32]) {
    write_base(sample, out, MODEL_B_INPUTS);
    out[BASE_FEATURES] = qos_slowdown as f32;
}

/// Writes a Model-B′ input row: the base features plus a proposed
/// deprivation in cores and ways.
///
/// # Panics
///
/// Panics if `out.len() != MODEL_B_PRIME_INPUTS`.
pub fn write_model_b_prime_input(
    sample: &CounterSample,
    cores_taken: usize,
    ways_taken: usize,
    out: &mut [f32],
) {
    write_base(sample, out, MODEL_B_PRIME_INPUTS);
    out[BASE_FEATURES] = cores_taken as f32 / 36.0;
    out[BASE_FEATURES + 1] = ways_taken as f32 / 20.0;
}

/// Writes a Model-C state row: the base features plus the log-scaled
/// response latency (Table 3 lists `Resp. Latency` as a Model-C-only
/// feature).
///
/// # Panics
///
/// Panics if `out.len() != MODEL_C_STATE`.
pub(crate) fn write_model_c_state(sample: &CounterSample, out: &mut [f32]) {
    write_base(sample, out, MODEL_C_STATE);
    out[BASE_FEATURES] = normalized_latency(sample.response_latency_ms);
}

/// Log-scaled latency feature. NaN and infinite inputs are defused (0.0 and
/// the scale ceiling respectively) rather than propagated.
fn normalized_latency(latency_ms: f64) -> f32 {
    if latency_ms.is_nan() {
        return 0.0;
    }
    let n = ((1.0 + latency_ms.max(0.0)).log10() / LATENCY_LOG_SCALE) as f32;
    n.min(2.0)
}

/// Width of a Model-B input vector.
pub const MODEL_B_INPUTS: usize = BASE_FEATURES + 1;

/// Width of a Model-B' input vector.
pub const MODEL_B_PRIME_INPUTS: usize = BASE_FEATURES + 2;

/// Width of a Model-C state vector.
pub const MODEL_C_STATE: usize = BASE_FEATURES + 1;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CounterSample {
        CounterSample {
            ipc: 1.0,
            llc_misses_per_sec: 1.0e8,
            mbl_gbps: 25.0,
            cpu_usage: 18.0,
            memory_util_gb: 8.0,
            virt_memory_gb: 12.5,
            res_memory_gb: 8.0,
            llc_occupancy_mb: 22.5,
            allocated_cores: 18,
            allocated_ways: 10,
            frequency_ghz: 2.3,
            response_latency_ms: 9.0,
        }
    }

    /// A row of `width` written by `write`.
    fn row(width: usize, write: impl FnOnce(&mut [f32])) -> Vec<f32> {
        let mut v = vec![f32::NAN; width];
        write(&mut v);
        v
    }

    #[test]
    fn base_features_are_normalized_to_unit_scale() {
        let f = row(BASE_FEATURES, |r| write_model_a_input(&sample(), r));
        for (i, &v) in f.iter().enumerate() {
            assert!((0.0..=2.0).contains(&v), "feature {i} out of range: {v}");
        }
        assert!((f[0] - 0.5).abs() < 1e-6); // ipc 1.0 / 2.0
        assert!((f[9] - 0.5).abs() < 1e-6); // 10 ways / 20
    }

    #[test]
    fn every_layout_shares_the_base_features() {
        let s = sample();
        let base = row(BASE_FEATURES, |r| write_model_a_input(&s, r));
        let b = row(MODEL_B_INPUTS, |r| write_model_b_input(&s, 0.05, r));
        let bp = row(MODEL_B_PRIME_INPUTS, |r| write_model_b_prime_input(&s, 2, 3, r));
        let c = row(MODEL_C_STATE, |r| write_model_c_state(&s, r));
        for layout in [&b, &bp, &c] {
            assert_eq!(layout[..BASE_FEATURES], base[..]);
        }
        assert_eq!(bp[BASE_FEATURES..], [2.0 / 36.0, 3.0 / 20.0]);
        assert_eq!(c[BASE_FEATURES], normalized_latency(9.0));
    }

    #[test]
    #[should_panic(expected = "feature row width mismatch")]
    fn a_row_of_another_width_is_refused() {
        write_model_b_input(&sample(), 0.05, &mut [0.0; BASE_FEATURES]);
    }

    #[test]
    fn latency_normalization_is_log_scaled_and_monotone() {
        assert!(normalized_latency(0.0).abs() < 1e-9);
        let a = normalized_latency(10.0);
        let b = normalized_latency(10_000.0);
        assert!(b > a);
        assert!(b <= 1.1, "100 s should stay near 1.0, got {b}");
        // Negative input is clamped, not NaN.
        assert!(normalized_latency(-5.0).is_finite());
    }

    #[test]
    fn model_b_slowdown_is_passed_through() {
        let v = row(MODEL_B_INPUTS, |r| write_model_b_input(&sample(), 0.15, r));
        assert!((v[BASE_FEATURES] - 0.15).abs() < 1e-6);
    }

    #[test]
    fn non_finite_counters_never_reach_a_feature_vector() {
        let poisoned = CounterSample {
            ipc: f64::NAN,
            mbl_gbps: f64::INFINITY,
            response_latency_ms: f64::NAN,
            ..sample()
        };
        for v in row(MODEL_C_STATE, |r| write_model_c_state(&poisoned, r)) {
            assert!(v.is_finite(), "feature vectors must stay finite, got {v}");
        }
        for v in row(MODEL_B_PRIME_INPUTS, |r| write_model_b_prime_input(&poisoned, 2, 3, r)) {
            assert!(v.is_finite());
        }
        assert!(normalized_latency(f64::INFINITY).is_finite());
        assert!(normalized_latency(f64::NAN) == 0.0);
    }
}
