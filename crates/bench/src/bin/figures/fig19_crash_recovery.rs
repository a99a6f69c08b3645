//! Fig. 19 (this reproduction's extension): QoS impact of controller
//! crashes, and what durable state buys back. The 3-service co-location of
//! Fig. 10 runs with the controller journalling its unified log and
//! checkpointing its full snapshot (plus Model-C's agent state) every 10
//! ticks; at a seeded sweep of kill ticks the controller is killed and
//! restarted, either **warm** (snapshot + unified-journal suffix +
//! Model-C checkpoint via `OsmlScheduler::recover`) or **cold** (durable
//! store lost, every service adopted from the live substrate).
//!
//! The acceptance bar this figure asserts: at **every** kill tick the
//! layout invariants hold across the restart, and warm recovery ends the
//! run with QoS compliance no worse than a cold restart.
//!
//! `--smoke` runs a three-point kill sweep with a shorter timeline (CI).

use osml_bench::chaos::{run_crash_recovery, RecoveryOutcome, RestartPlan};
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_core::RecoveryMode;
use osml_workloads::{LaunchSpec, Service};
use serde::Serialize;

/// One kill tick's warm-vs-cold comparison.
#[derive(Serialize)]
struct KillPoint {
    kill_tick: usize,
    warm: RecoveryOutcome,
    cold: RecoveryOutcome,
}

/// The full figure: the never-killed reference arm plus the kill sweep.
#[derive(Serialize)]
struct Fig19 {
    total_ticks: usize,
    checkpoint_every: usize,
    baseline: RecoveryOutcome,
    points: Vec<KillPoint>,
}

pub(super) fn run(smoke: bool) {
    let (total, kills): (usize, &[usize]) =
        if smoke { (60, &[3, 17, 40]) } else { (120, &[3, 10, 25, 45, 70, 100]) };
    let checkpoint_every = 10;
    let specs = [
        LaunchSpec::at_percent_load(Service::Xapian, 30.0),
        LaunchSpec::at_percent_load(Service::ImgDnn, 30.0),
        LaunchSpec::at_percent_load(Service::Moses, 30.0),
    ];
    let template = trained_suite();

    println!("== Fig. 19: crash recovery — warm restart vs cold restart ==\n");
    let baseline = run_crash_recovery(
        &template,
        &specs,
        total,
        19,
        checkpoint_every,
        RestartPlan::NeverKilled,
    );
    assert!(baseline.all_placed, "reference arm must place every service");
    assert!(baseline.layout_always_valid, "reference arm broke layout invariants");
    println!(
        "never killed: compliance {:.3}, final QoS fraction {:.2}, {} actions\n",
        baseline.qos_compliance_over_time, baseline.qos_fraction, baseline.actions
    );

    println!(
        "{:>5}  {:>6}  {:>10}  {:>8}  {:>11}  {:>9}  {:>8}  {:>8}  {:>6}",
        "kill",
        "arm",
        "compliance",
        "finalQoS",
        "reconverge",
        "restored",
        "adopted",
        "replayed",
        "layout"
    );
    let mut points: Vec<KillPoint> = Vec::new();
    for &kill in kills {
        let warm = run_crash_recovery(
            &template,
            &specs,
            total,
            19,
            checkpoint_every,
            RestartPlan::KillThenWarm(kill),
        );
        let cold = run_crash_recovery(
            &template,
            &specs,
            total,
            19,
            checkpoint_every,
            RestartPlan::KillThenCold(kill),
        );
        for (arm, out) in [("warm", &warm), ("cold", &cold)] {
            let rec = out.recovery.as_ref().expect("killed arm has a recovery report");
            println!(
                "{:>5}  {:>6}  {:>10.3}  {:>8.2}  {:>11}  {:>9}  {:>8}  {:>8}  {:>6}",
                kill,
                arm,
                out.qos_compliance_over_time,
                out.qos_fraction,
                out.reconverge_ticks.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
                rec.restored,
                rec.adopted,
                rec.journal_replayed,
                if out.layout_always_valid { "ok" } else { "BROKEN" },
            );
            assert!(
                out.layout_always_valid,
                "kill {kill} ({arm}): layout invariants broke across the restart"
            );
        }
        assert!(
            warm.qos_fraction >= cold.qos_fraction,
            "kill {kill}: warm recovery ended below cold restart \
             ({} vs {})",
            warm.qos_fraction,
            cold.qos_fraction
        );
        let warm_rec = warm.recovery.as_ref().unwrap();
        if kill >= checkpoint_every {
            assert!(
                matches!(warm_rec.mode, RecoveryMode::Warm),
                "kill {kill}: a checkpoint existed but recovery went cold: {:?}",
                warm_rec.mode
            );
            assert!(warm_rec.restored > 0, "warm restart must restore snapshot records");
        }
        let cold_rec = cold.recovery.as_ref().unwrap();
        assert!(
            matches!(cold_rec.mode, RecoveryMode::Cold { .. }),
            "cold arm must take the cold path"
        );
        points.push(KillPoint { kill_tick: kill, warm, cold });
    }

    println!("\nExpected shape: warm restarts resume the snapshotted state (restored = 3,");
    println!("journal suffix replayed) and match or beat cold adoption at every kill tick;");
    println!("early kills (before the first checkpoint) degrade gracefully to cold adoption.");
    let fig = Fig19 { total_ticks: total, checkpoint_every, baseline, points };
    report::save_json("fig19_crash_recovery", &fig);
}
