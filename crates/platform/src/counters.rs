use serde::{Deserialize, Serialize};

/// One performance-counter observation of a running service, matching the
/// features of Table 3 in the paper.
///
/// On the paper's testbed these come from `pqos` (cache occupancy, local
/// memory bandwidth) and the PMU (IPC, LLC misses); in this reproduction the
/// analytic simulator synthesizes them from the same underlying quantities.
/// The field order mirrors Table 3; `response_latency_ms` is the extra
/// feature used by Model-C.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Instructions per clock, averaged over the service's cores.
    pub ipc: f64,
    /// LLC misses per second.
    pub llc_misses_per_sec: f64,
    /// Local memory bandwidth consumed (MBL), GB/s.
    pub mbl_gbps: f64,
    /// Sum of each allocated core's utilization (1.0 = one busy core).
    pub cpu_usage: f64,
    /// Memory footprint of the service, GB.
    pub memory_util_gb: f64,
    /// Virtual memory in use, GB.
    pub virt_memory_gb: f64,
    /// Resident memory in use, GB.
    pub res_memory_gb: f64,
    /// LLC footprint (occupancy) of the service, MB.
    pub llc_occupancy_mb: f64,
    /// Number of allocated logical cores.
    pub allocated_cores: usize,
    /// Number of allocated LLC ways.
    pub allocated_ways: usize,
    /// Core frequency at runtime, GHz.
    pub frequency_ghz: f64,
    /// Average response latency over the sampling window, ms (Model-C's
    /// extra input).
    pub response_latency_ms: f64,
}

impl CounterSample {
    /// Serializes the 11 Model-A features (Table 3, rows used by models A/B)
    /// into a fixed-order vector for ML input.
    pub fn model_a_features(&self) -> [f64; 11] {
        [
            self.ipc,
            self.llc_misses_per_sec,
            self.mbl_gbps,
            self.cpu_usage,
            self.memory_util_gb,
            self.virt_memory_gb,
            self.res_memory_gb,
            self.llc_occupancy_mb,
            self.allocated_cores as f64,
            self.allocated_ways as f64,
            self.frequency_ghz,
        ]
    }

    /// Whether every counter in the sample is finite and non-negative.
    ///
    /// Real `pqos`/PMU reads occasionally return garbage under contention
    /// (torn MSR reads, wrapped counters); the fault-injection layer models
    /// that as NaN/negative fields. Consumers must validate before feeding
    /// a sample to a model — a single NaN poisons every downstream matmul.
    pub fn is_valid(&self) -> bool {
        let finite_nonneg = |v: f64| v.is_finite() && v >= 0.0;
        finite_nonneg(self.ipc)
            && finite_nonneg(self.llc_misses_per_sec)
            && finite_nonneg(self.mbl_gbps)
            && finite_nonneg(self.cpu_usage)
            && finite_nonneg(self.memory_util_gb)
            && finite_nonneg(self.virt_memory_gb)
            && finite_nonneg(self.res_memory_gb)
            && finite_nonneg(self.llc_occupancy_mb)
            && finite_nonneg(self.frequency_ghz)
            && finite_nonneg(self.response_latency_ms)
    }

    /// Names of the features in [`CounterSample::model_a_features`] order.
    pub fn feature_names() -> [&'static str; 11] {
        [
            "IPC",
            "Cache Misses",
            "MBL",
            "CPU Usage",
            "Memory Util",
            "Virt. Memory",
            "Res. Memory",
            "LLC Occupied",
            "Allocated Core",
            "Allocated Cache",
            "Core Frequency",
        ]
    }
}

/// QoS-facing latency statistics for one service over a sampling window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Mean response latency, ms.
    pub mean_ms: f64,
    /// 95th-percentile tail latency, ms — the paper's QoS metric.
    pub p95_ms: f64,
    /// Achieved throughput, requests per second.
    pub achieved_rps: f64,
    /// Offered load, requests per second.
    pub offered_rps: f64,
    /// The service's QoS target on `p95_ms`, ms.
    pub qos_target_ms: f64,
}

impl LatencyStats {
    /// Whether the service currently violates its QoS target.
    pub fn violates_qos(&self) -> bool {
        self.p95_ms > self.qos_target_ms
    }

    /// QoS slack as a fraction of the target: positive when under the
    /// target, negative when violating. A slack of 0.3 means the service runs
    /// at 70 % of its allowed tail latency.
    pub fn qos_slack(&self) -> f64 {
        1.0 - self.p95_ms / self.qos_target_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CounterSample {
        CounterSample {
            ipc: 1.2,
            llc_misses_per_sec: 3.0e6,
            mbl_gbps: 4.5,
            cpu_usage: 5.5,
            memory_util_gb: 2.0,
            virt_memory_gb: 3.0,
            res_memory_gb: 1.8,
            llc_occupancy_mb: 12.0,
            allocated_cores: 6,
            allocated_ways: 10,
            frequency_ghz: 2.3,
            response_latency_ms: 8.0,
        }
    }

    #[test]
    fn feature_vector_is_in_table3_order() {
        let f = sample().model_a_features();
        assert_eq!(f.len(), 11);
        assert!((f[0] - 1.2).abs() < 1e-12); // IPC first
        assert!((f[8] - 6.0).abs() < 1e-12); // allocated cores
        assert!((f[9] - 10.0).abs() < 1e-12); // allocated ways
        assert!((f[10] - 2.3).abs() < 1e-12); // frequency last
        assert_eq!(CounterSample::feature_names().len(), 11);
    }

    #[test]
    fn qos_predicates() {
        let ok = LatencyStats {
            mean_ms: 3.0,
            p95_ms: 7.0,
            achieved_rps: 2200.0,
            offered_rps: 2200.0,
            qos_target_ms: 10.0,
        };
        assert!(!ok.violates_qos());
        assert!((ok.qos_slack() - 0.3).abs() < 1e-12);

        let bad = LatencyStats { p95_ms: 15.0, ..ok };
        assert!(bad.violates_qos());
        assert!(bad.qos_slack() < 0.0);
    }

    #[test]
    fn validity_rejects_nan_and_negative_counters() {
        assert!(sample().is_valid());
        let nan = CounterSample { ipc: f64::NAN, ..sample() };
        assert!(!nan.is_valid());
        let inf = CounterSample { mbl_gbps: f64::INFINITY, ..sample() };
        assert!(!inf.is_valid());
        let neg = CounterSample { response_latency_ms: -1.0, ..sample() };
        assert!(!neg.is_valid());
        let neg_freq = CounterSample { frequency_ghz: -2.3, ..sample() };
        assert!(!neg_freq.is_valid());
    }

    #[test]
    fn counter_sample_round_trips_through_serde() {
        let s = sample();
        let json = serde_json::to_string(&s).unwrap();
        let back: CounterSample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
