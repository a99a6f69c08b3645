//! The metric registry — every name the benchmark prints, with its unit —
//! and the result line the driver reads. `BENCHMARK.json` lists exactly
//! these names and units; a test holds the two together.

use crate::stats::Better;
use std::fmt::Write as _;

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// `[A-Za-z0-9_.-]+`; per-layer names start with their crate/module.
    pub name: &'static str,
    /// Unit string, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The good direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["node-steady", "node-churn", "cluster-faults", "log-replay"];

/// What a user of the system sees; printed by the `--trace 0` run.
pub const END_TO_END: [MetricDef; 5] = [
    m("setup_s", "s", Lower),
    m("ops_per_s", "1/s", Higher),
    m("step_p50_us", "us", Lower),
    m("step_p99_us", "us", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Single-layer metrics; printed by the `--trace 1` run. Counts (`*_per_op`,
/// `*_per_kstep`, `*_per_event`, `*_rows`, `failed_ops_share`) repeat
/// exactly for a seed; shares and times are the report.
pub const PER_LAYER: [MetricDef; 61] = [
    m("failed_ops_share", "share", Lower),
    m("platform.sample_calls_per_op", "count", Lower),
    m("platform.peek_calls_per_op", "count", Lower),
    m("platform.latency_calls_per_op", "count", Lower),
    m("platform.allocation_calls_per_op", "count", Lower),
    m("platform.reallocate_calls_per_op", "count", Lower),
    m("platform.substrate_share", "share", Lower),
    m("platform.envelopes_per_node_step", "count", Lower),
    m("platform.envelopes_dropped_share", "share", Lower),
    m("platform.envelopes_duplicated_share", "share", Lower),
    m("platform.envelopes_partitioned_share", "share", Lower),
    m("platform.lossy_send_deliver_ns", "ns", Lower),
    m("workloads.sim_advance_us", "us", Lower),
    m("workloads.sim_reallocate_us", "us", Lower),
    m("workloads.sim_query_ns", "ns", Lower),
    m("workloads.advance_share", "share", Lower),
    m("ml.forward_ns_per_row_b1", "ns", Lower),
    m("ml.forward_ns_per_row_b32", "ns", Lower),
    m("ml.forward_ns_per_row_b1000", "ns", Lower),
    m("ml.train_batch_us", "us", Lower),
    m("ml.dqn_train_step_us", "us", Lower),
    m("models.a_forwards_per_op", "count", Lower),
    m("models.a_share", "share", Lower),
    m("models.b_forwards_per_op", "count", Lower),
    m("models.b_share", "share", Lower),
    m("models.c_infers_per_op", "count", Lower),
    m("models.c_infer_share", "share", Lower),
    m("models.c_train_steps_per_op", "count", Lower),
    m("models.c_train_share", "share", Lower),
    m("models.decisions_per_op", "count", Lower),
    m("core.tick_self_share", "share", Lower),
    m("core.actions_per_op", "count", Lower),
    m("core.log_events_per_op", "count", Lower),
    m("core.log_bytes_per_event", "B", Lower),
    m("core.allocs_per_op", "count", Lower),
    m("core.alloc_bytes_per_op", "B", Lower),
    m("core.failovers_per_kstep", "count", Lower),
    m("core.migrations_per_kstep", "count", Lower),
    m("core.suspicions_per_kstep", "count", Lower),
    m("core.false_suspicion_share", "share", Lower),
    m("core.fenced_ghosts_per_kstep", "count", Lower),
    m("core.ghosts_after_settle", "count", Lower),
    m("core.command_backoff_ms_per_kstep", "ms", Lower),
    m("core.golden_push_ns_per_event", "ns", Lower),
    m("core.golden_journal_ns_per_event", "ns", Lower),
    m("core.golden_encode_ns_per_event", "ns", Lower),
    m("core.golden_decode_ns_per_event", "ns", Lower),
    m("core.golden_fold_ns_per_event", "ns", Lower),
    m("core.golden_decode_scaling", "ratio", Lower),
    m("core.snapshot_encode_ms_1k", "ms", Lower),
    m("core.snapshot_decode_ms_1k", "ms", Lower),
    m("core.recover_ms_1k", "ms", Lower),
    m("dataset.sweep_s", "s", Lower),
    m("dataset.fit_a_s", "s", Lower),
    m("dataset.fit_b_s", "s", Lower),
    m("dataset.fit_b_prime_s", "s", Lower),
    m("dataset.fit_c_s", "s", Lower),
    m("dataset.corpus_rows", "count", Lower),
    m("telemetry.trace_overhead_ratio", "ratio", Lower),
    m("telemetry.span_enabled_ns", "ns", Lower),
    m("telemetry.span_disabled_ns", "ns", Lower),
];

/// What one invocation measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Steps executed in the measured rounds.
    pub attempted: u64,
    /// Steps of rounds that failed a correctness check.
    pub failed: u64,
    /// `(name, value)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64)>,
    /// Failed correctness checks (empty on a correct program).
    pub errors: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The value of one metric, if it was measured.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The driver's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`, every metric of
    /// `defs` present with its unit.
    ///
    /// # Panics
    ///
    /// Panics if a metric of `defs` was not measured or is not finite.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in defs.iter().enumerate() {
            let v = self.value(def.name).unwrap_or_else(|| panic!("{} not measured", def.name));
            assert!(v.is_finite(), "{} is not finite: {v}", def.name);
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }
}
