//! The observability plane's two load-bearing guarantees:
//!
//! 1. **Observer effect is zero.** Attaching an enabled telemetry pipeline
//!    to a timeline run changes nothing about the run itself — the produced
//!    [`TimelineRecord`]s serialize byte-identically to an untraced run, and
//!    so does the unified log. Telemetry is write-only: no scheduler
//!    decision may read it.
//! 2. **There is one record, and it is complete.** Every action the
//!    scheduler counts is exactly one `Decision::Alloc` marked
//!    `counts_as_action` in the unified log, and the metrics counters bumped
//!    at the emission sites — an independent witness, kept by a different
//!    crate — agree with the log's own counts.
//!
//! Plus the histogram percentile property the snapshot format relies on:
//! when observations sit exactly on bucket bounds, percentile extraction is
//! exact (the rank-⌈q·n⌉ order statistic), not merely bucket-approximate.

use osml_baselines::Parties;
use osml_bench::overload::{overload_script, run_overload_detailed};
use osml_bench::suite::trained_suite;
use osml_bench::timeline::{run_timeline, run_timeline_traced};
use osml_core::{ActionKind, Decision, EventBody, OverloadConfig, TelemetryNote, UnifiedLog};
use osml_platform::{FaultPlan, FaultProfile, Scheduler};
use osml_telemetry::{Histogram, Telemetry, LATENCY_US_BOUNDS};
use osml_workloads::loadgen::{ArrivalEvent, ArrivalScript, LoadSchedule};
use osml_workloads::Service;

fn count_decisions(log: &UnifiedLog, pred: fn(&Decision) -> bool) -> u64 {
    log.count_decisions(pred) as u64
}

fn is_action(d: &Decision) -> bool {
    matches!(d, Decision::Alloc { counts_as_action: true, .. })
}

fn script(variant: u64) -> ArrivalScript {
    // A family of small scripts: a permanent service plus a transient one
    // whose load and stay vary with the variant index.
    let rps = 150.0 + 50.0 * (variant % 4) as f64;
    ArrivalScript::new(
        vec![
            ArrivalEvent {
                service: Service::Login,
                arrive_s: 0.0,
                depart_s: f64::INFINITY,
                threads: 8,
                load: LoadSchedule::Constant { rps: 300.0 },
            },
            ArrivalEvent {
                service: Service::Ads,
                arrive_s: 4.0,
                depart_s: 20.0 + 5.0 * (variant % 3) as f64,
                threads: 8,
                load: LoadSchedule::Constant { rps },
            },
        ],
        45.0,
    )
}

#[test]
fn enabling_telemetry_does_not_change_parties_timelines() {
    for variant in 0..6u64 {
        let s = script(variant);
        let seed = 100 + variant;

        let mut plain = Parties::new();
        let untraced = run_timeline(&mut plain, &s, seed);

        let telemetry = Telemetry::enabled();
        let mut observed = Parties::new().with_telemetry(telemetry.clone());
        let traced = run_timeline_traced(&mut observed, &s, seed, &telemetry);

        assert!(
            telemetry.snapshot().counters["harness.ticks"] > 0,
            "the observer must actually observe"
        );
        assert_eq!(
            serde_json::to_string(&untraced).unwrap(),
            serde_json::to_string(&traced).unwrap(),
            "variant {variant}: telemetry must be write-only (zero observer effect)"
        );
    }
}

#[test]
fn enabling_telemetry_does_not_change_osml_timelines() {
    let template = trained_suite();
    let s = script(1);

    let mut plain = template.clone();
    let untraced = run_timeline(&mut plain, &s, 9);

    let telemetry = Telemetry::enabled();
    let mut observed = template.clone().with_telemetry(telemetry.clone());
    let traced = run_timeline_traced(&mut observed, &s, 9, &telemetry);

    assert!(
        telemetry.snapshot().histograms.contains_key("model.a.predict_us"),
        "span timings must flow while the run stays untouched"
    );
    assert_eq!(
        serde_json::to_string(&untraced).unwrap(),
        serde_json::to_string(&traced).unwrap(),
        "telemetry must be write-only (zero observer effect)"
    );
    // The control paths were identical too, not just the samples.
    assert_eq!(plain.unified_log().to_jsonl(), observed.unified_log().to_jsonl());
}

#[test]
fn every_counted_action_is_one_alloc_decision_in_the_log() {
    let template = trained_suite();
    for variant in 0..3u64 {
        let telemetry = Telemetry::enabled();
        let mut osml = template.clone().with_telemetry(telemetry.clone());
        run_timeline_traced(&mut osml, &script(variant), 40 + variant, &telemetry);

        let log = osml.unified_log();
        assert!(osml.action_count() > 0, "variant {variant}: the run must have acted");
        assert_eq!(
            count_decisions(log, is_action),
            osml.action_count() as u64,
            "variant {variant}: every counted action must be one Alloc decision"
        );
        // The harness's gauge is the same number, read a third way.
        assert_eq!(
            telemetry.snapshot().gauges["harness.actions_total"],
            osml.action_count() as f64,
            "variant {variant}"
        );
        // Actions are per-service.
        for e in
            log.decisions().filter(|e| matches!(&e.body, EventBody::Decision(d) if is_action(d)))
        {
            assert!(e.app.is_some(), "actions are per-service: {e:?}");
        }
    }
}

/// The metrics counters are bumped by `osml-telemetry` at the same sites the
/// unified log is written, so each is an independent count of one kind of
/// event. Over a world that exercises them all — the Fig. 20 chaos-compose
/// arm: overload past capacity under the default fault mix — every witness
/// must agree with the log's own query. (`resilience.faults_observed` is
/// not a witness: a dropped counter window notes a fault without bumping
/// it.)
#[test]
fn metrics_counters_agree_with_the_unified_log_under_overload_and_faults() {
    let telemetry = Telemetry::enabled();
    let template = trained_suite().with_telemetry(telemetry.clone());
    let (outcome, log) = run_overload_detailed(
        &template,
        &overload_script(2.0),
        20,
        OverloadConfig::enabled(),
        FaultPlan::new(0xFA_20, FaultProfile::chaos_default()),
        false,
    );
    let counters = telemetry.snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let retried = log.count(|b| matches!(b, EventBody::Telemetry(TelemetryNote::Retried { .. })));
    let witnesses: [(&str, u64); 6] = [
        ("resilience.retries", retried as u64),
        ("overload.timeouts", count_decisions(&log, |d| matches!(d, Decision::TimedOut { .. }))),
        (
            "overload.restores",
            count_decisions(&log, |d| {
                matches!(
                    d,
                    Decision::Alloc { kind: ActionKind::Restore, counts_as_action: true, .. }
                )
            }),
        ),
        (
            "overload.shed_readmitted",
            count_decisions(&log, |d| matches!(d, Decision::ShedReadmitted { .. })),
        ),
        (
            "overload.queue_admitted",
            count_decisions(&log, |d| matches!(d, Decision::Admitted { .. })),
        ),
        ("overload.rejections", count_decisions(&log, |d| matches!(d, Decision::Rejected { .. }))),
    ];
    for (name, in_log) in witnesses {
        assert!(in_log > 0, "{name}: the world must exercise this site");
        assert_eq!(counter(name), in_log, "{name}: the counter and the log disagree");
    }
    assert_eq!(
        outcome.restores as u64,
        counter("overload.restores") + counter("overload.shed_readmitted")
    );
    assert_eq!(count_decisions(&log, is_action), outcome.actions as u64);
}

/// Deterministic xorshift generator — keeps the property test seedable
/// without pulling in a dependency.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn percentiles_are_exact_on_bucket_bound_distributions() {
    // Property: when every observation sits exactly on a bucket upper
    // bound, percentile(q) is the exact order statistic of rank ⌈q·n⌉ —
    // bucketing loses nothing. Exercised over 200 random multisets drawn
    // from the standard latency ladder, with random sizes and quantiles.
    let mut rng = Rng(0x0531_17AB);
    for case in 0..200 {
        let n = 1 + (rng.next() % 400) as usize;
        let mut values: Vec<f64> = (0..n)
            .map(|_| LATENCY_US_BOUNDS[(rng.next() as usize) % LATENCY_US_BOUNDS.len()])
            .collect();
        let mut hist = Histogram::latency_us();
        for &v in &values {
            hist.record(v);
        }
        values.sort_by(f64::total_cmp);

        for q in [0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.00] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let expected = values[rank - 1];
            let got = hist.percentile(q).unwrap();
            assert_eq!(
                got, expected,
                "case {case}: q={q} over n={n} must be the exact rank-{rank} statistic"
            );
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, n as u64);
        assert_eq!(snap.min, Some(values[0]));
        assert_eq!(snap.max, Some(values[n - 1]));
    }
}

#[test]
fn percentiles_clamp_to_the_observed_maximum_off_bounds() {
    // Off-bound values still never report a percentile above the true max.
    let mut rng = Rng(0xBEEF);
    for _ in 0..50 {
        let n = 1 + (rng.next() % 100) as usize;
        let values: Vec<f64> = (0..n).map(|_| (rng.next() % 10_000_000) as f64 / 13.0).collect();
        let mut hist = Histogram::latency_us();
        for &v in &values {
            hist.record(v);
        }
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        for q in [0.5, 0.95, 0.99, 1.0] {
            assert!(hist.percentile(q).unwrap() <= max);
        }
    }
}
