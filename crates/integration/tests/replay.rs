//! Golden-thread replay: the unified event log recorded by
//! [`osml_bench::replay::run_recorded`] must fold back — via
//! [`osml_core::replay`] — into exactly the live scheduler's observable
//! state, bit for bit, across every regime the scheduler supports.
//!
//! Coverage:
//!
//! * a property test over random arrival/departure scripts (admission
//!   queue enabled) asserting replay == live, telemetry-strip invariance
//!   and a lossless JSONL round-trip;
//! * the canonical Fig. 20 overload anchor at both admission policies;
//! * a chaos run with injected substrate faults recorded as world facts;
//! * a controller crashed mid-brownout and warm-restarted — the restored
//!   log (snapshot prefix + durable suffix + restart events) still folds
//!   to the recovered state;
//! * bit-identical recordings regardless of the `OSML_JOBS` work-pool
//!   width driving the runs.

use osml_bench::overload::overload_script;
use osml_bench::replay::{run_recorded, RecordedRun};
use osml_core::{Decision, EventBody, OsmlConfig, OverloadConfig, UnifiedLog, WorldFact};
use osml_integration::raw_scheduler;
use osml_ml::par::parallel_map_jobs;
use osml_platform::{FaultPlan, FaultProfile};
use osml_workloads::loadgen::{ArrivalEvent, ArrivalScript, LoadSchedule};
use osml_workloads::{Service, ALL_SERVICES};
use proptest::prelude::*;

/// Decodes one scripted arrival from 64 random bits (the vendored proptest
/// has no tuple/oneof strategies, so a bit-sliced `u64` stands in).
fn decode_arrival(raw: u64) -> ArrivalEvent {
    let service = ALL_SERVICES[(raw % ALL_SERVICES.len() as u64) as usize];
    let pct = 10.0 + ((raw >> 8) % 500) as f64 / 10.0;
    let arrive_s = ((raw >> 18) % 30) as f64;
    let depart_s =
        if (raw >> 23) & 1 == 1 { 40.0 + ((raw >> 24) % 40) as f64 } else { f64::INFINITY };
    ArrivalEvent {
        service,
        arrive_s,
        depart_s,
        threads: service.params().default_threads,
        load: LoadSchedule::Constant { rps: service.params().nominal_max_rps() * pct / 100.0 },
    }
}

/// A short randomized world: three stable anchors plus the decoded surge,
/// 90 simulated seconds.
fn random_script(raws: &[u64]) -> ArrivalScript {
    let anchor = |service: Service, arrive: f64, pct: f64| ArrivalEvent {
        service,
        arrive_s: arrive,
        depart_s: f64::INFINITY,
        threads: service.params().default_threads,
        load: LoadSchedule::Constant { rps: service.params().nominal_max_rps() * pct / 100.0 },
    };
    let mut events = vec![
        anchor(Service::Moses, 0.0, 30.0),
        anchor(Service::ImgDnn, 2.0, 25.0),
        anchor(Service::Xapian, 4.0, 25.0),
    ];
    events.extend(raws.iter().map(|&raw| decode_arrival(raw)));
    ArrivalScript::new(events, 90.0)
}

/// Replay == live, plus the two log invariants every recording must hold:
/// stripping telemetry leaves the fold unchanged, and the JSONL encoding
/// round-trips losslessly.
fn assert_replay_invariants(run: &RecordedRun) {
    let replayed = run.log.replay().expect("log is replay-sufficient");
    assert_eq!(replayed, run.live, "replayed state must equal live state bit-for-bit");

    let stripped = run.log.stripped();
    assert_eq!(
        stripped.replay().expect("stripped log still replays"),
        replayed,
        "telemetry layer must not affect the fold"
    );

    let text = run.log.to_jsonl();
    let (decoded, loss) = UnifiedLog::from_jsonl_tolerant(&text).expect("own encoding parses");
    assert_eq!(loss.bytes_dropped, 0, "no tail loss on a clean encoding");
    assert_eq!(&decoded, &run.log, "JSONL round-trip must be lossless");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn randomized_worlds_replay_to_live_state(
        raws in proptest::collection::vec(0u64..u64::MAX, 1..4),
        seed in 0u64..1000,
    ) {
        let run = run_recorded(
            &raw_scheduler(),
            &random_script(&raws),
            seed,
            OverloadConfig::enabled(),
            FaultPlan::none(),
            false,
            OsmlConfig::default(),
        );
        assert_replay_invariants(&run);
    }
}

/// The canonical Fig. 20 anchor at both admission policies. The fixed,
/// always-run counterpart to the randomized property.
#[test]
fn fig20_anchor_replays() {
    let template = raw_scheduler();
    let script = overload_script(1.0);
    for overload in [OverloadConfig::default(), OverloadConfig::enabled()] {
        let run = run_recorded(
            &template,
            &script,
            7,
            overload,
            FaultPlan::none(),
            false,
            OsmlConfig::default(),
        );
        assert_replay_invariants(&run);
    }
}

/// Injected substrate faults enter the world-fact layer and the log still
/// folds to the live state — chaos does not break replay sufficiency.
#[test]
fn chaos_run_with_faults_replays_to_live_state() {
    let run = run_recorded(
        &raw_scheduler(),
        &overload_script(1.0),
        11,
        OverloadConfig::enabled(),
        FaultPlan::new(0xC0FFEE, FaultProfile::chaos_default()),
        false,
        OsmlConfig::default(),
    );
    assert!(run.faults_injected > 0, "chaos profile injected nothing; raise the rate");
    let recorded_faults = run
        .log
        .world_facts()
        .filter(|ev| matches!(ev.body, EventBody::World(WorldFact::FaultInjected { .. })))
        .count();
    assert_eq!(
        recorded_faults, run.faults_injected,
        "every injected fault must appear in the world-fact layer"
    );
    assert_replay_invariants(&run);
}

/// Crash mid-brownout, warm restart, keep recording: the log that spans the
/// crash (snapshot prefix + durable journal suffix + `ControllerCrashed` +
/// `Restarted` + repair decisions) folds to the recovered scheduler's state,
/// and the warm restart preserved the overload ledger exactly as the
/// fig19/fig20 recovery assertions demand.
#[test]
fn crash_mid_brownout_replay_matches_warm_restart() {
    let run = run_recorded(
        &raw_scheduler(),
        &overload_script(1.6),
        7,
        OverloadConfig::enabled(),
        FaultPlan::none(),
        true,
        OsmlConfig::default(),
    );
    assert!(run.restarted, "the controller was never killed mid-brownout");
    assert_eq!(
        run.restart_resumed_state,
        Some(true),
        "warm restart lost queue/brownout/shave state"
    );
    let crashed = run
        .log
        .events()
        .iter()
        .any(|ev| matches!(ev.body, EventBody::World(WorldFact::ControllerCrashed)));
    let restarted =
        run.log.events().iter().any(|ev| {
            matches!(ev.body, EventBody::Decision(Decision::Restarted { warm: true, .. }))
        });
    assert!(crashed, "the crash must be recorded as a world fact");
    assert!(restarted, "the warm restart must be recorded as a decision");
    assert_replay_invariants(&run);
}

/// The recording (and therefore the replay) is independent of the
/// `OSML_JOBS` work-pool width: driving the same seeds through one worker
/// and through four must produce byte-identical logs. Job counts are
/// injected via `parallel_map_jobs` rather than `set_var`, which would be
/// unsound under the parallel test runner.
#[test]
fn recordings_are_identical_across_job_pool_widths() {
    let seeds: Vec<u64> = vec![3, 17];
    let record = |seed: &u64| {
        let run = run_recorded(
            &raw_scheduler(),
            &random_script(&[0x5EED_u64.wrapping_mul(seed + 1)]),
            *seed,
            OverloadConfig::enabled(),
            FaultPlan::none(),
            false,
            OsmlConfig::default(),
        );
        run.log.to_jsonl()
    };
    let one_job = parallel_map_jobs(1, &seeds, record);
    let four_jobs = parallel_map_jobs(4, &seeds, record);
    assert_eq!(one_job, four_jobs, "job-pool width changed a recorded log");
}
