//! Crash recovery's two load-bearing guarantees, end-to-end through the
//! bench harness:
//!
//! 1. **Recovery never corrupts the machine.** Killing the controller just
//!    before *any* tick and warm-restarting via `OsmlScheduler::recover`
//!    leaves the layout invariants (valid allocations, no core
//!    double-assignment) intact at every subsequent tick — including kills
//!    before the first checkpoint, which degrade to cold adoption.
//! 2. **The durable-state wiring is bit-transparent.** With no kill, a run
//!    under continuous journaling + periodic snapshots takes exactly the
//!    decisions an unwired run takes: snapshots are read-only, the journal
//!    is write-only, so fig10/fig18 outputs cannot shift.
//! 3. **Snapshot + unified journal is all there is.** A warm restart from a
//!    store holding only those two files folds the journal suffix onto the
//!    snapshot's checkpoint and resumes exactly the state the killed
//!    controller had, and a snapshot from the last format that carried the
//!    legacy decision log (v4) is refused, typed, into a cold start. A
//!    snapshot whose config names a key this build no longer has —
//!    `event_driven`, `true` or `false` — is *not* refused: the key is
//!    skipped, the restart is warm, and the controller decides from there on
//!    as after a restart from today's encoding of the same state.

use osml_bench::chaos::{run_crash_recovery, RestartPlan};
use osml_bench::run_colocation;
use osml_bench::scenario::place_all;
use osml_bench::suite::trained_suite;
use osml_core::host::{slo_class_of, Host, Seat, Submission};
use osml_core::recovery::{fnv1a64, SNAPSHOT_VERSION};
use osml_core::{
    LaunchCause, OsmlConfig, OsmlScheduler, RecoveryError, RecoveryMode, RecoveryStore, ScratchDir,
};
use osml_platform::Scheduler;
use osml_workloads::{LaunchSpec, Service, SimConfig, SimServer};

fn specs() -> [LaunchSpec; 2] {
    [
        LaunchSpec::at_percent_load(Service::Moses, 30.0),
        LaunchSpec::at_percent_load(Service::ImgDnn, 30.0),
    ]
}

#[test]
fn warm_recovery_holds_layout_invariants_at_every_kill_tick() {
    const TOTAL: usize = 16;
    const CHECKPOINT_EVERY: usize = 4;
    let template = trained_suite();
    for kill in 0..TOTAL {
        let out = run_crash_recovery(
            &template,
            &specs(),
            TOTAL,
            7,
            CHECKPOINT_EVERY,
            RestartPlan::KillThenWarm(kill),
        );
        assert!(out.all_placed, "kill {kill}: placement failed");
        assert!(
            out.layout_always_valid,
            "kill {kill}: recovery left an invalid layout on the machine"
        );
        let rec = out.recovery.expect("killed run must produce a recovery report");
        if kill >= CHECKPOINT_EVERY {
            // A checkpoint existed: the restart must be warm and restore
            // every service from its snapshot record.
            assert!(
                matches!(rec.mode, RecoveryMode::Warm),
                "kill {kill}: expected warm restart, got {:?}",
                rec.mode
            );
            assert_eq!(rec.restored, 2, "kill {kill}: {rec:?}");
            assert_eq!(rec.adopted + rec.dropped, 0, "kill {kill}: {rec:?}");
        } else {
            // Killed before the first checkpoint: no snapshot exists yet,
            // so recovery degrades gracefully to cold adoption.
            assert!(
                matches!(rec.mode, RecoveryMode::Cold { .. }),
                "kill {kill}: expected cold fallback, got {:?}",
                rec.mode
            );
            assert_eq!(rec.adopted, 2, "kill {kill}: {rec:?}");
        }
    }
}

#[test]
fn warm_recovery_is_no_worse_than_cold_restart() {
    const TOTAL: usize = 40;
    const KILL: usize = 12;
    let template = trained_suite();
    let warm =
        run_crash_recovery(&template, &specs(), TOTAL, 7, 10, RestartPlan::KillThenWarm(KILL));
    let cold =
        run_crash_recovery(&template, &specs(), TOTAL, 7, 10, RestartPlan::KillThenCold(KILL));
    assert!(warm.layout_always_valid && cold.layout_always_valid);
    assert!(
        warm.qos_fraction >= cold.qos_fraction,
        "warm {} vs cold {}",
        warm.qos_fraction,
        cold.qos_fraction
    );
    // The warm arm resumes the snapshotted action count and replays the
    // journal suffix; the cold arm starts counting from zero again.
    assert!(matches!(warm.recovery.as_ref().unwrap().mode, RecoveryMode::Warm));
    assert!(matches!(cold.recovery.as_ref().unwrap().mode, RecoveryMode::Cold { .. }));
    assert!(
        warm.actions > cold.actions,
        "warm restart must carry the pre-crash action count ({} vs {})",
        warm.actions,
        cold.actions
    );
}

#[test]
fn recovery_wiring_without_a_kill_is_bit_transparent() {
    let template = trained_suite();

    let mut plain = template.clone();
    let plain_out = run_colocation(&mut plain, &specs(), 30, 7);

    let wired = run_crash_recovery(&template, &specs(), 30, 7, 10, RestartPlan::NeverKilled);

    assert!(wired.layout_always_valid);
    assert!(wired.recovery.is_none(), "no kill, no recovery report");
    assert_eq!(wired.actions, plain_out.actions, "wiring changed the decision count");
    assert_eq!(wired.apps.len(), plain_out.apps.len());
    for (a, b) in plain_out.apps.iter().zip(&wired.apps) {
        assert_eq!(a.cores, b.cores, "wiring changed an allocation");
        assert_eq!(a.ways, b.ways, "wiring changed an allocation");
        assert_eq!(a.p95_ms, b.p95_ms, "wiring changed the latency trajectory");
    }
}

/// Places `spec` on `server` through `scheduler`.
fn arrive(scheduler: &mut OsmlScheduler, server: &mut SimServer, spec: LaunchSpec) {
    assert!(place_all(scheduler, server, &[spec], |_| {}).1, "{spec:?} was refused");
}

/// A store in a scratch directory that goes when the guard does.
fn fresh_store() -> (ScratchDir, RecoveryStore) {
    let scratch = ScratchDir::new("recovery-test");
    let store = RecoveryStore::open(scratch.path()).expect("open recovery store");
    (scratch, store)
}

/// The envelope `recovery::encode_snapshot` writes, field for field.
#[derive(serde::Serialize, serde::Deserialize)]
struct Envelope {
    version: u32,
    checksum: u64,
    payload: String,
}

/// Rewrites the stored snapshot as a build that still had
/// `OsmlConfig::event_driven` would have written it: with
/// `"event_driven":<value>` closing its config object.
fn rewrite_with_a_retired_key(store: &RecoveryStore, value: bool) {
    let before = store.load_snapshot().unwrap();
    let text = std::fs::read_to_string(store.snapshot_path()).unwrap();
    let mut envelope: Envelope = serde_json::from_str(&text).unwrap();
    let config_tail = "\"strict_layout\":false}";
    assert_eq!(envelope.payload.matches(config_tail).count(), 1);
    let with_option = format!("\"strict_layout\":false,\"event_driven\":{value}}}");
    envelope.payload = envelope.payload.replacen(config_tail, &with_option, 1);
    envelope.checksum = fnv1a64(envelope.payload.as_bytes());
    std::fs::write(store.snapshot_path(), serde_json::to_string(&envelope).unwrap()).unwrap();
    assert_eq!(store.load_snapshot().unwrap(), before, "the deleted key must be skipped");
}

#[test]
fn warm_restart_resumes_counters_from_the_unified_suffix_alone() {
    let template = trained_suite();
    // `None`: the snapshot as this build writes it. `Some(v)`: the same
    // file with a retired `event_driven: v` in its config.
    let restart = |retired_key: Option<bool>| {
        let (_scratch, store) = fresh_store();
        let server =
            SimServer::new(SimConfig { noise_sigma: 0.0, seed: 7, ..SimConfig::default() });
        let mut host = Host::new(server, template.clone());
        host.scheduler.attach_unified_journal(&store.unified_path()).unwrap();

        // Checkpoint after the first arrival; the second arrival — a world
        // fact the suffix folds — its placement actions and three ticks
        // then exist only in the journal.
        let [first, second] = specs();
        arrive(&mut host.scheduler, &mut host.machine, first);
        host.checkpoint(&store);
        let (actions_at_snapshot, events_at_snapshot) =
            (host.scheduler.action_count(), host.scheduler.unified_log().len());
        let sub = Submission { workload: 1, spec: second, class: slo_class_of(second.service) };
        assert!(matches!(host.submit(sub, LaunchCause::Scripted), Seat::Live(_)));
        for _ in 0..3 {
            host.step(|parked| parked);
        }
        let live = host.scheduler.live_replay_state(&host.machine);
        assert!(live.actions > actions_at_snapshot, "the suffix must hold actions");
        assert!(host.scheduler.unified_log().journal_error().is_none());
        let before_kill = host.scheduler.unified_log().clone();

        let mut files: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["snapshot.json", "unified.jsonl"], "nothing else is durable state");
        if let Some(value) = retired_key {
            rewrite_with_a_retired_key(&store, value);
        }

        let report =
            host.kill_and_recover(template.models().clone(), OsmlConfig::default(), &store);
        assert_eq!(report.mode, RecoveryMode::Warm, "{retired_key:?}");
        assert_eq!(report.journal_replayed, before_kill.len() - events_at_snapshot);
        assert_eq!(report.alloc_drift, 0, "{report:?}");
        assert_eq!(host.scheduler.live_replay_state(&host.machine), live);
        // The restored log is the pre-crash log plus the restart's own events.
        let restored = host.scheduler.unified_log();
        assert_eq!(&restored.events()[..before_kill.len()], before_kill.events());
        for _ in 0..10 {
            host.step(|parked| parked);
        }
        (host.scheduler.unified_log().clone(), host.scheduler.live_replay_state(&host.machine))
    };
    // Whatever the retired option said, the one engine carries on from that
    // file exactly as from this build's own.
    let today = restart(None);
    assert_eq!(restart(Some(true)), today);
    assert_eq!(restart(Some(false)), today);
}

#[test]
fn a_v4_snapshot_is_refused_typed_and_recovery_goes_cold() {
    let template = trained_suite();
    let (_scratch, store) = fresh_store();
    let mut server =
        SimServer::new(SimConfig { noise_sigma: 0.0, seed: 7, ..SimConfig::default() });
    let mut scheduler = template.clone();
    arrive(&mut scheduler, &mut server, specs()[0]);
    store.save_snapshot(&scheduler.snapshot(&server)).unwrap();
    drop(scheduler);

    let current = std::fs::read_to_string(store.snapshot_path()).unwrap();
    let v4 = current.replacen(&format!("\"version\":{SNAPSHOT_VERSION}"), "\"version\":4", 1);
    assert_ne!(v4, current, "the envelope must name its version");
    std::fs::write(store.snapshot_path(), v4).unwrap();
    assert!(matches!(
        store.load_snapshot(),
        Err(RecoveryError::VersionMismatch { found: 4, expected: SNAPSHOT_VERSION })
    ));

    let (recovered, report) = OsmlScheduler::recover(
        template.models().clone(),
        OsmlConfig::default(),
        &store,
        &mut server,
    );
    let RecoveryMode::Cold { reason } = &report.mode else {
        panic!("a foreign-version snapshot must cold-start, got {:?}", report.mode);
    };
    assert!(reason.contains("version 4"), "{reason}");
    assert_eq!((report.restored, report.adopted), (0, 1));
    assert_eq!(recovered.action_count(), 0, "a cold start counts from zero");
}
