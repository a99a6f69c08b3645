//! Fig. 18 (this reproduction's extension): the scheduler's own
//! observability plane. Replays the Fig. 14 dynamic-load timeline with the
//! telemetry pipeline and the unified-log journal attached and emits:
//!
//! * `results/fig18_telemetry.json` — the metrics snapshot: per-model
//!   inference timing histograms (p50/p95/p99 µs), actuation timings,
//!   retry/fault counters and harness gauges, next to the action counts
//!   read off the unified log;
//! * `results/fig18_trace.jsonl` — the run's unified log as the journal
//!   wrote it: one JSON line per world fact, decision (every allocation
//!   change with full pre/post allocations and model provenance) and
//!   telemetry note.
//!
//! The run asserts the one-record contract: the log's `Decision::Alloc`
//! events marked `counts_as_action` number exactly the scheduler's reported
//! `action_count()`, and the journal on disk is the log in memory.
//!
//! `--smoke` replays a short two-service script instead (CI).

use osml_baselines::Parties;
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_bench::timeline::{run_timeline_traced, TimelineSummary};
use osml_core::{Decision, EventBody, UnifiedLog};
use osml_platform::Scheduler;
use osml_telemetry::{MetricsSnapshot, Telemetry};
use osml_workloads::loadgen::{ArrivalEvent, ArrivalScript, LoadSchedule};
use osml_workloads::Service;
use serde::Serialize;
use std::collections::BTreeMap;

/// Everything Fig. 18 persists as JSON.
#[derive(Debug, Serialize)]
struct Fig18Output {
    osml: TimelineSummary,
    parties: TimelineSummary,
    osml_trace_actions: u64,
    osml_trace_records: u64,
    parties_trace_actions: u64,
    actions_by_kind: BTreeMap<String, usize>,
    metrics: MetricsSnapshot,
}

fn smoke_script() -> ArrivalScript {
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
                arrive_s: 5.0,
                depart_s: 30.0,
                threads: 8,
                load: LoadSchedule::Constant { rps: 100.0 },
            },
        ],
        40.0,
    )
}

fn kind_histogram(log: &UnifiedLog) -> BTreeMap<String, usize> {
    let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
    for e in log.events() {
        if let EventBody::Decision(Decision::Alloc { kind, counts_as_action: true, .. }) = &e.body {
            *by_kind.entry(format!("{kind:?}")).or_insert(0) += 1;
        }
    }
    by_kind
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let script = if smoke { smoke_script() } else { ArrivalScript::fig14() };

    let trace_path = report::results_dir().join("fig18_trace.jsonl");
    let _ = std::fs::remove_file(&trace_path); // the journal appends; start the run's file fresh
    let telemetry = Telemetry::enabled();

    println!("== Fig. 18: scheduler observability (metrics + the unified log) ==\n");
    let mut osml = trained_suite().with_telemetry(telemetry.clone());
    osml.attach_unified_journal(&trace_path).expect("create trace file");
    let records = run_timeline_traced(&mut osml, &script, 18, &telemetry);
    let osml_summary = TimelineSummary::from_records("osml", &records);

    // The one-record contract: every counted action is one Alloc decision,
    // and the file on disk is the log.
    let log = osml.unified_log();
    let actions_by_kind = kind_histogram(log);
    let osml_trace_actions: usize = actions_by_kind.values().sum();
    assert_eq!(
        osml_trace_actions,
        osml.action_count(),
        "the log must hold every scheduling action"
    );
    assert!(log.journal_error().is_none(), "a journal write failed: {:?}", log.journal_error());
    let on_disk = std::fs::read_to_string(&trace_path).expect("read trace file");
    assert_eq!(on_disk, log.to_jsonl(), "the journal on disk must be the log in memory");
    let (_, decisions, notes) = log.layer_counts();

    // The baseline keeps no log; the harness publishes its action count.
    let parties_telemetry = Telemetry::enabled();
    let mut parties = Parties::new().with_telemetry(parties_telemetry.clone());
    let parties_records = run_timeline_traced(&mut parties, &script, 18, &parties_telemetry);
    let parties_summary = TimelineSummary::from_records("parties", &parties_records);
    let parties_actions = parties_telemetry.snapshot().gauges["harness.actions_total"] as u64;
    assert_eq!(parties_actions as usize, parties.action_count());

    let snapshot = telemetry.snapshot();
    println!("span timings (µs):");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, h) in &snapshot.histograms {
        rows.push(vec![
            name.clone(),
            h.count.to_string(),
            h.p50.map(|v| format!("{v:.1}")).unwrap_or_default(),
            h.p95.map(|v| format!("{v:.1}")).unwrap_or_default(),
            h.p99.map(|v| format!("{v:.1}")).unwrap_or_default(),
            h.max.map(|v| format!("{v:.1}")).unwrap_or_default(),
        ]);
    }
    print!("{}", report::render_table(&["span", "count", "p50", "p95", "p99", "max"], &rows));

    // Model-A runs every tick and actuation fires at placement, so those
    // spans are structural. Model-C only engages on QoS violations or
    // surplus reclaim, which the short smoke script never provokes.
    let required: &[&str] = if smoke {
        &["model.a.predict_us", "actuation.reallocate_us", "harness.tick_us"]
    } else {
        &["model.a.predict_us", "model.c.infer_us", "actuation.reallocate_us", "harness.tick_us"]
    };
    for span in required {
        let h = snapshot.histograms.get(*span);
        assert!(h.is_some_and(|h| h.count > 0), "expected span timings to be populated: {span}");
    }

    println!(
        "\nunified log: {} decisions + {notes} telemetry notes, {osml_trace_actions} actions",
        decisions
    );
    for (kind, n) in &actions_by_kind {
        println!("  {kind:<12} {n}");
    }
    println!(
        "\nosml:    {} actions over {:.0} s (qos fraction {:.3})",
        osml_summary.total_actions, script.duration_s, osml_summary.qos_fraction
    );
    println!(
        "parties: {} actions over {:.0} s (qos fraction {:.3})",
        parties_summary.total_actions, script.duration_s, parties_summary.qos_fraction
    );

    let output = Fig18Output {
        osml_trace_actions: osml_trace_actions as u64,
        osml_trace_records: (decisions + notes) as u64,
        parties_trace_actions: parties_actions,
        osml: osml_summary,
        parties: parties_summary,
        actions_by_kind,
        metrics: snapshot,
    };
    let path = report::save_json("fig18_telemetry", &output);
    println!("\nsaved {}", path.display());
    println!("saved {}", trace_path.display());
}
