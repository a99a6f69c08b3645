//! Fig. 21 (this reproduction's extension): golden-thread replay. One
//! unified event log per run — world facts, controller decisions,
//! operational telemetry — folded back into scheduler state and diffed
//! across controller configurations.
//!
//! Built-in asserts:
//! * replay == live: the recorded log folds to the live scheduler's state
//!   bit-for-bit at every sweep level, including the chaos arm;
//! * stripping the telemetry layer never changes the fold;
//! * the JSONL encoding round-trips losslessly;
//! * A/B on a recorded world: the `placement_via_models` ablation diverges
//!   — and the harness prints exactly where;
//! * the world-fact layer alone reconstructs a script that reproduces the
//!   decision stream under the same config, including piecewise-constant
//!   step schedules for load-varying workloads.
//!
//! `--smoke` runs a two-level sweep (CI).

use osml_bench::overload::{overload_script, varying_load_script};
use osml_bench::replay::{ab_compare, run_recorded, world_script_from_log, RecordedRun};
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_core::{first_divergence, Divergence, OsmlConfig, OverloadConfig, UnifiedLog};
use osml_platform::{FaultPlan, FaultProfile};
use osml_workloads::loadgen::{ArrivalScript, LoadSchedule};
use serde::Serialize;

#[derive(Serialize)]
struct Fig21Level {
    level: f64,
    world_events: usize,
    decision_events: usize,
    telemetry_events: usize,
    jsonl_bytes: usize,
    replay_matches_live: bool,
    faults_injected: usize,
}

#[derive(Serialize)]
struct Fig21Ab {
    label: String,
    decisions_a: usize,
    decisions_b: usize,
    divergence: Option<Divergence>,
}

#[derive(Serialize)]
struct Fig21Report {
    smoke: bool,
    levels: Vec<Fig21Level>,
    chaos: Fig21Level,
    ab: Vec<Fig21Ab>,
    reconstruction_divergence: Option<Divergence>,
}

/// Replay == live plus the two log invariants, with first-mismatch
/// diagnostics on failure. Returns the per-run stats row.
fn check_run(label: &str, level: f64, run: &RecordedRun) -> Fig21Level {
    let replayed = run.log.replay().unwrap_or_else(|e| {
        panic!("{label}: log is not replay-sufficient: {e:?}");
    });
    assert_eq!(
        replayed, run.live,
        "{label}: replayed state diverged from live state\n\
         replayed: {replayed:?}\nlive: {:?}",
        run.live
    );
    let stripped = run.log.stripped().replay().expect("stripped log replays");
    assert_eq!(stripped, replayed, "{label}: telemetry strip changed the fold");
    let text = run.log.to_jsonl();
    let (decoded, loss) = UnifiedLog::from_jsonl_tolerant(&text).expect("own encoding parses back");
    assert_eq!(loss.bytes_dropped, 0, "{label}: clean encoding reported tail loss");
    assert_eq!(&decoded, &run.log, "{label}: JSONL round-trip lost events");
    let (world, decisions, telemetry) = run.log.layer_counts();
    Fig21Level {
        level,
        world_events: world,
        decision_events: decisions,
        telemetry_events: telemetry,
        jsonl_bytes: text.len(),
        replay_matches_live: true,
        faults_injected: run.faults_injected,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let levels: &[f64] = if smoke { &[0.6, 1.6] } else { &[0.4, 0.8, 1.2, 1.6, 2.0] };
    let seed = 21;
    let template = trained_suite();

    println!("== Fig. 21: golden-thread replay — record, fold, diff ==\n");
    println!(
        "{:>6}  {:>7}  {:>9}  {:>9}  {:>9}  {:>8}",
        "level", "world", "decision", "telem", "bytes", "replay"
    );
    // Every recording runs the queue-and-brownout arm without a restart.
    let record = |script: &ArrivalScript, plan: FaultPlan| {
        let queued = OverloadConfig::enabled();
        run_recorded(&template, script, seed, queued, plan, false, OsmlConfig::default())
    };
    let mut rows: Vec<Fig21Level> = Vec::new();
    for &level in levels {
        let run = record(&overload_script(level), FaultPlan::none());
        let row = check_run("sweep", level, &run);
        println!(
            "{:>6.1}  {:>7}  {:>9}  {:>9}  {:>9}  {:>8}",
            level,
            row.world_events,
            row.decision_events,
            row.telemetry_events,
            row.jsonl_bytes,
            "ok"
        );
        rows.push(row);
    }

    // Chaos arm: injected faults land in the world-fact layer and the log
    // still folds to the live state.
    let chaos_level = *levels.last().expect("at least one level");
    let chaos_plan = FaultPlan::new(0xFA_21, FaultProfile::chaos_default());
    let chaos_run = record(&overload_script(chaos_level), chaos_plan);
    assert!(chaos_run.faults_injected > 0, "the chaos plan injected nothing");
    let chaos = check_run("chaos", chaos_level, &chaos_run);
    println!(
        "\nchaos arm: {} faults recorded as world facts, replay still bit-identical",
        chaos.faults_injected
    );

    // A/B: recorded worlds, two controller configs, decision streams
    // diffed at their first divergence.
    let ab_script = overload_script(chaos_level);
    let mut ab_rows: Vec<Fig21Ab> = Vec::new();

    // The placement ablation must diverge — and the harness names the first
    // decision where the two controllers part ways.
    let (a, b, ablation) = ab_compare(
        &template,
        &ab_script,
        seed,
        OverloadConfig::enabled(),
        FaultPlan::none(),
        OsmlConfig::default(),
        OsmlConfig { placement_via_models: false, ..OsmlConfig::default() },
    );
    let d = ablation.clone().expect("the placement ablation must change some decision");
    println!("A/B models vs bootstrap-only placement:\n{d}");
    ab_rows.push(Fig21Ab {
        label: "placement_via_models: on vs off".into(),
        decisions_a: a.log.decisions().count(),
        decisions_b: b.log.decisions().count(),
        divergence: ablation,
    });

    // World reconstruction: the world-fact layer alone rebuilds a script
    // that reproduces the decision stream under the same config — on a
    // world whose offered load actually moves (ramps, steps, a diurnal
    // swing), so the rebuilt script must carry piecewise-constant
    // step schedules, not just launch-time rates.
    let recon_script = varying_load_script();
    let first = record(&recon_script, FaultPlan::none());
    let rebuilt = world_script_from_log(&first.log).expect("varying-load world reconstructs");
    assert!(
        rebuilt.events.iter().any(|e| matches!(e.load, LoadSchedule::Steps { .. })),
        "reconstruction must carry step schedules for the varying workloads"
    );
    let second = record(&rebuilt, FaultPlan::none());
    let reconstruction = first_divergence(&first.log, &second.log);
    if let Some(d) = &reconstruction {
        println!("\nUNEXPECTED reconstruction divergence:\n{d}");
    }
    assert!(reconstruction.is_none(), "reconstructed world changed the decision stream");
    println!(
        "world reconstruction: recorded facts alone reproduce the decision stream \
         (varying-load world, step schedules rebuilt)"
    );

    let report_data =
        Fig21Report { smoke, levels: rows, chaos, ab: ab_rows, reconstruction_divergence: None };
    let path = report::save_json("fig21_replay", &report_data);
    println!("saved {}", path.display());
}
