//! Fig. 20 (this reproduction's extension): admitted service-seconds vs
//! offered load as demand sweeps past the machine's co-location capacity,
//! comparing OSML with overload management (typed admission queue +
//! brownout) against the same controller with binary rejection.
//!
//! Built-in asserts:
//! * layout invariants hold at every tick of every arm;
//! * the shed policy never touches a non-best-effort service;
//! * with the queue enabled, admitted service-seconds are never below the
//!   binary-rejection baseline at any level;
//! * a controller killed mid-brownout and warm-restarted from its durable
//!   snapshot resumes with its queue, brownout flag and shave ledger;
//! * overload composes with fault injection (chaos arm stays invariant-clean).
//!
//! `--smoke` runs a two-level sweep (CI).

use osml_bench::overload::{overload_script, run_overload, OverloadOutcome};
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_core::OverloadConfig;
use osml_platform::{FaultPlan, FaultProfile};
use serde::Serialize;

#[derive(Serialize)]
struct Fig20Level {
    level: f64,
    queued: OverloadOutcome,
    binary: OverloadOutcome,
}

#[derive(Serialize)]
struct Fig20Report {
    levels: Vec<Fig20Level>,
    restart_mid_brownout: OverloadOutcome,
    chaos_compose: OverloadOutcome,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let levels: &[f64] = if smoke { &[0.6, 1.6] } else { &[0.4, 0.8, 1.2, 1.6, 2.0] };
    let seed = 20;
    let template = trained_suite();

    println!("== Fig. 20: admitted service-seconds vs offered load ==\n");
    println!(
        "{:>6}  {:>9}  {:>10}  {:>10}  {:>7}  {:>7}  {:>8}  {:>6}  {:>6}",
        "level", "offered", "queued", "binary", "defers", "admits", "timeouts", "shed", "brown"
    );
    let mut rows: Vec<Fig20Level> = Vec::new();
    for &level in levels {
        let script = overload_script(level);
        let queued = run_overload(
            &template,
            &script,
            seed,
            OverloadConfig::enabled(),
            FaultPlan::none(),
            false,
        );
        let binary = run_overload(
            &template,
            &script,
            seed,
            OverloadConfig::default(),
            FaultPlan::none(),
            false,
        );
        println!(
            "{:>6.1}  {:>9.0}  {:>10.0}  {:>10.0}  {:>7}  {:>7}  {:>8}  {:>6}  {:>6}",
            level,
            queued.offered_service_seconds,
            queued.admitted_service_seconds,
            binary.admitted_service_seconds,
            queued.deferrals,
            queued.queue_admissions,
            queued.timeouts,
            queued.sheds,
            queued.brownout_entries,
        );
        assert!(queued.layout_always_valid, "level {level}: queued arm broke layout invariants");
        assert!(binary.layout_always_valid, "level {level}: binary arm broke layout invariants");
        assert_eq!(
            queued.non_best_effort_sheds, 0,
            "level {level}: a non-best-effort service was shed"
        );
        assert!(
            queued.admitted_service_seconds >= binary.admitted_service_seconds,
            "level {level}: the queue admitted less than binary rejection \
             ({} < {})",
            queued.admitted_service_seconds,
            binary.admitted_service_seconds,
        );
        rows.push(Fig20Level { level, queued, binary });
    }

    // Crash mid-brownout: the durable overload state must survive.
    let restart_level = *levels.last().expect("at least one level");
    let script = overload_script(restart_level);
    let restart =
        run_overload(&template, &script, seed, OverloadConfig::enabled(), FaultPlan::none(), true);
    assert!(restart.layout_always_valid, "restart arm broke layout invariants");
    assert!(
        restart.brownout_entries > 0,
        "restart arm never entered brownout; raise the sweep level"
    );
    assert!(restart.restarted, "the controller was never killed mid-brownout");
    assert_eq!(
        restart.restart_resumed_state,
        Some(true),
        "warm restart lost queue/brownout/shave state"
    );
    println!(
        "\nrestart arm: killed mid-brownout, resumed with queue depth intact \
         (admitted {:.0} service-seconds)",
        restart.admitted_service_seconds
    );

    // Overload composes with fault injection: same sweep point, chaos mix.
    let chaos = run_overload(
        &template,
        &script,
        seed,
        OverloadConfig::enabled(),
        FaultPlan::new(0xFA_20, FaultProfile::chaos_default()),
        false,
    );
    assert!(chaos.layout_always_valid, "chaos-compose arm broke layout invariants");
    assert_eq!(chaos.non_best_effort_sheds, 0);
    assert!(chaos.faults_injected > 0, "the chaos plan injected nothing");
    println!(
        "chaos-compose arm: {} faults injected, layout clean, admitted {:.0} service-seconds",
        chaos.faults_injected, chaos.admitted_service_seconds
    );

    let report_data =
        Fig20Report { levels: rows, restart_mid_brownout: restart, chaos_compose: chaos };
    let path = report::save_json("fig20_overload", &report_data);
    println!("saved {}", path.display());
}
