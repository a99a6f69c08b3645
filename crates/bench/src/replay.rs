//! Golden-thread recording harness: the node every overload world runs on,
//! driven by [`osml_core::host`]'s script runner, whose host records what
//! it does into the scheduler's unified event log — so one JSONL stream
//! captures the whole run: what the world did (layer 1), what the
//! controller decided (layer 2), and what the plumbing observed (layer 3).
//!
//! Three consumers build on the recording:
//!
//! * **Replay-equals-live** — `osml_core::replay` folds the recorded log
//!   back into a [`ReplayState`] that must equal the live scheduler's
//!   [`OsmlScheduler::live_replay_state`] bit-for-bit (integration tests,
//!   the `replay_divergence` binary).
//! * **Crash recovery** — with `restart_mid_brownout`, the controller is
//!   killed mid-brownout and warm-restarted; the restored log (the journal,
//!   its suffix past the checkpoint folded, + restart events) must still
//!   fold to the recovered state.
//! * **A/B divergence** — [`world_script_from_log`] reconstructs the
//!   exogenous arrival script from the world-fact layer alone, so one
//!   recorded world can be re-run under a different controller config and
//!   the two decision streams diffed at their first divergence.

use osml_core::host::{run_script, Host, MidBrownoutKill, Seat};
use osml_core::{
    first_divergence, Divergence, OsmlConfig, OsmlScheduler, OverloadConfig, RecoveryStore,
    ReplayState, ScratchDir, UnifiedLog, WorldFact,
};
use osml_platform::{FaultPlan, FaultySubstrate};
use osml_workloads::loadgen::{ArrivalEvent, ArrivalScript, LoadSchedule};
use osml_workloads::{SimConfig, SimServer};

/// What one recorded run produced: the unified log and the live scheduler
/// state it must replay to.
#[derive(Debug)]
pub struct RecordedRun {
    /// The full unified event log (all three layers).
    pub log: UnifiedLog,
    /// The live scheduler's observable state at the end of the run.
    pub live: ReplayState,
    /// Whether the controller was killed and warm-restarted mid-brownout.
    pub restarted: bool,
    /// For the restart arm: whether the admission queue, shed stack, shave
    /// ledger and brownout clock survived the crash, entry for entry
    /// (mirrors the fig20 assertion).
    pub restart_resumed_state: Option<bool>,
    /// Faults the substrate injected.
    pub faults_injected: usize,
}

/// The node every overload world runs on: a noiseless machine behind its
/// fault plan (bit-inert under [`FaultPlan::none`], so overload and chaos
/// compose).
pub(crate) type Node = Host<FaultySubstrate<SimServer>>;

/// Builds the node of one overload world and drives it through `script`
/// (see [`run_script`]); returns it as the run left it, with what the
/// restart arm found. With `restart_mid_brownout` the durable store lives
/// in a scratch directory for the length of the run, journal attached.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    template: &OsmlScheduler,
    script: &ArrivalScript,
    seed: u64,
    overload: OverloadConfig,
    plan: FaultPlan,
    restart_mid_brownout: bool,
    base: OsmlConfig,
    observe: impl FnMut(&Node, &[Seat], f64),
) -> (Node, Option<bool>) {
    // Strict overlap hygiene in every arm: the layout invariant is asserted
    // every tick, and an A/B comparison should be about admission policy.
    let config = OsmlConfig { overload, strict_layout: true, ..base };
    let sim = SimServer::new(SimConfig { noise_sigma: 0.0, seed, ..SimConfig::default() });
    let mut host =
        Host::new(FaultySubstrate::new(sim, plan), template.clone().with_config(config.clone()));
    let scratch = restart_mid_brownout.then(|| ScratchDir::new("overload-restart"));
    let store =
        scratch.as_ref().map(|dir| RecoveryStore::open(dir.path()).expect("open recovery store"));
    if let Some(store) = &store {
        host.scheduler.attach_unified_journal(&store.unified_path()).expect("attach journal");
    }
    let kill = store.as_ref().map(|store| MidBrownoutKill {
        store,
        models: template.models(),
        config: &config,
    });
    let resumed = run_script(&mut host, script, kill, observe);
    (host, resumed)
}

/// Runs one overload timeline and returns its record: every exogenous
/// occurrence (scripted arrival/departure coming due, load change, injected
/// fault) and every process the host launches or removes sits in the
/// scheduler's unified log alongside the decisions the scheduler emits
/// itself.
pub fn run_recorded(
    template: &OsmlScheduler,
    script: &ArrivalScript,
    seed: u64,
    overload: OverloadConfig,
    plan: FaultPlan,
    restart_mid_brownout: bool,
    base: OsmlConfig,
) -> RecordedRun {
    let (host, resumed) =
        drive(template, script, seed, overload, plan, restart_mid_brownout, base, |_, _, _| {});
    RecordedRun {
        log: host.scheduler.unified_log().clone(),
        live: host.scheduler.live_replay_state(&host.machine),
        restarted: resumed.is_some(),
        restart_resumed_state: resumed,
        faults_injected: host.machine.fault_count(),
    }
}

/// Reconstructs the exogenous arrival script from a recorded log's
/// world-fact layer alone: each [`WorldFact::ArrivalDue`] becomes an
/// arrival at its recorded due time, each [`WorldFact::DepartureDue`] sets
/// that workload's departure; a workload with no departure fact runs
/// forever.
///
/// Load-varying worlds reconstruct too: every recorded load witness — the
/// arrival's offered rate, each (re)launch's rate ([`WorldFact::Launched`]
/// binds the envelope's app id to its workload, and a retry launch
/// witnesses the schedule while the workload was waiting), and each
/// [`WorldFact::LoadChanged`] — becomes a step of a piecewise-constant
/// [`LoadSchedule::Steps`]. The driver only evaluates schedules at recorded
/// event times and only records *changes*, so replaying the step schedule
/// reproduces the original rate at every query time: between witnesses the
/// recorded world's rate was constant by construction. A workload whose
/// only witness is its arrival keeps the plain
/// [`LoadSchedule::Constant`].
///
/// # Errors
///
/// A human-readable reason when the log cannot be turned back into a
/// script (a departure or load change for an unknown workload, no tick
/// heartbeats).
pub fn world_script_from_log(log: &UnifiedLog) -> Result<ArrivalScript, String> {
    let mut arrivals: Vec<(u64, ArrivalEvent)> = Vec::new();
    // Per-workload load witnesses `(time_s, rps)`, in log order.
    let mut loads: std::collections::BTreeMap<u64, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    // Envelope app id -> workload, from Launched facts (a workload can
    // launch more than once across retries; each launch gets a fresh id).
    let mut app_to_workload: std::collections::BTreeMap<u64, u64> =
        std::collections::BTreeMap::new();
    // The driver loop runs `while t <= duration`; to make a re-run execute
    // exactly as many ticks as the recording, the duration must sit between
    // the loop's last entry time and its exit time. The tick heartbeats
    // record the post-advance times, so the second-largest heartbeat IS the
    // last entry time.
    let mut tick_times: Vec<f64> = Vec::new();
    for ev in log.events() {
        let osml_core::EventBody::World(fact) = &ev.body else { continue };
        match fact {
            WorldFact::ArrivalDue { workload, service, threads, offered_rps, .. } => {
                arrivals.push((
                    *workload,
                    ArrivalEvent {
                        service: *service,
                        arrive_s: ev.time_s,
                        depart_s: f64::INFINITY,
                        threads: *threads,
                        load: LoadSchedule::Constant { rps: *offered_rps },
                    },
                ));
                loads.entry(*workload).or_default().push((ev.time_s, *offered_rps));
            }
            WorldFact::DepartureDue { workload } => {
                let slot = arrivals
                    .iter_mut()
                    .find(|(w, _)| w == workload)
                    .ok_or_else(|| format!("departure for unknown workload {workload}"))?;
                slot.1.depart_s = ev.time_s;
            }
            WorldFact::Launched { workload, offered_rps, .. } => {
                if let Some(app) = ev.app {
                    app_to_workload.insert(app, *workload);
                }
                loads.entry(*workload).or_default().push((ev.time_s, *offered_rps));
            }
            WorldFact::LoadChanged { offered_rps } => {
                let app =
                    ev.app.ok_or_else(|| format!("load change without an app (seq {})", ev.seq))?;
                let workload = *app_to_workload
                    .get(&app)
                    .ok_or_else(|| format!("load change for unknown app#{app}"))?;
                loads.entry(workload).or_default().push((ev.time_s, *offered_rps));
            }
            WorldFact::TickElapsed => tick_times.push(ev.time_s),
            _ => {}
        }
    }
    let duration = match tick_times.len() {
        0 => return Err("no tick heartbeats recorded".into()),
        1 => 0.0, // one iteration: it entered at t = 0
        n => tick_times[n - 2],
    };
    arrivals.sort_by_key(|&(w, _)| w);
    for (w, event) in arrivals.iter_mut() {
        let Some(points) = loads.get(w) else { continue };
        // Collapse witnesses to one step per time (last in log order wins;
        // an arrival and its launch at the same instant agree anyway).
        let mut steps: Vec<(f64, f64)> = Vec::with_capacity(points.len());
        for &(at, rps) in points {
            match steps.iter_mut().find(|(t, _)| *t == at) {
                Some(step) => step.1 = rps,
                None => steps.push((at, rps)),
            }
        }
        steps.sort_by(|a, b| a.0.total_cmp(&b.0));
        // A consecutive repeat of the in-effect rate adds nothing.
        steps.dedup_by(|next, prev| next.1 == prev.1);
        if steps.len() > 1 {
            event.load = LoadSchedule::Steps { steps };
        }
    }
    Ok(ArrivalScript::new(arrivals.into_iter().map(|(_, e)| e).collect(), duration))
}

/// Replays one recorded world through two controller configs and diffs the
/// decision streams. Returns the two runs' logs and the first divergence
/// (`None` when the controllers decided identically).
#[allow(clippy::too_many_arguments)]
pub fn ab_compare(
    template: &OsmlScheduler,
    script: &ArrivalScript,
    seed: u64,
    overload: OverloadConfig,
    plan: FaultPlan,
    base_a: OsmlConfig,
    base_b: OsmlConfig,
) -> (RecordedRun, RecordedRun, Option<Divergence>) {
    let a = run_recorded(template, script, seed, overload.clone(), plan.clone(), false, base_a);
    let b = run_recorded(template, script, seed, overload, plan, false, base_b);
    let divergence = first_divergence(&a.log, &b.log);
    (a, b, divergence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload::{overload_script, varying_load_script};
    use crate::suite::trained_suite;

    /// The arm fig20 and `log-replay` record: queue and brownout on, no
    /// faults, no restart.
    fn record(template: &OsmlScheduler, script: &ArrivalScript, seed: u64) -> RecordedRun {
        let (queued, none) = (OverloadConfig::enabled(), FaultPlan::none());
        run_recorded(template, script, seed, queued, none, false, OsmlConfig::default())
    }

    /// Two same-seed restart worlds at once: each must keep its own durable
    /// store. After its first step, store open, each tells the other and
    /// waits to be told (or for the other to have died), so the runs overlap
    /// from there to the end.
    #[test]
    fn same_seed_restart_worlds_on_two_threads_do_not_share_a_store() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        let template = OsmlScheduler::new(osml_core::Models::untrained(1), OsmlConfig::default());
        let script = overload_script(1.6);
        let world = |started: Sender<()>, other_started: Receiver<()>| {
            let mut steps = 0;
            let (host, resumed) = drive(
                &template,
                &script,
                20,
                OverloadConfig::enabled(),
                FaultPlan::none(),
                true,
                OsmlConfig::default(),
                |_, _, _| {
                    steps += 1;
                    if steps == 1 {
                        let _ = started.send(());
                        let _ = other_started.recv();
                    }
                },
            );
            assert_eq!(resumed, Some(true), "the restart lost queue or brownout state");
            assert!(host.scheduler.unified_log().journal_error().is_none());
            host.scheduler.unified_log().clone()
        };
        let ((to_b, from_a), (to_a, from_b)) = (channel(), channel());
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(|| world(to_a, from_a));
            (world(to_b, from_b), other.join().expect("the second world panicked"))
        });
        assert_eq!(first_divergence(&a, &b), None);
        assert_eq!(a, b, "same world, same seed: the logs must be equal");
    }

    #[test]
    fn recorded_run_replays_to_live_state() {
        let template = trained_suite();
        let script = overload_script(0.6);
        let run = record(&template, &script, 11);
        let replayed = run.log.replay().expect("log is replay-sufficient");
        assert_eq!(replayed, run.live, "replayed state must equal live state bit-for-bit");
        let (world, decisions, _telemetry) = run.log.layer_counts();
        assert!(world > 0, "world facts recorded");
        assert!(decisions > 0, "decisions recorded");
    }

    #[test]
    fn reconstructed_script_reproduces_the_decision_stream() {
        let template = trained_suite();
        let script = overload_script(0.6);
        let first = record(&template, &script, 13);
        let rebuilt = world_script_from_log(&first.log).expect("world reconstructs");
        let second = record(&template, &rebuilt, 13);
        assert_eq!(
            first_divergence(&first.log, &second.log),
            None,
            "same world + same config must decide identically"
        );
    }

    /// A load-varying world (ramps, steps, a diurnal swing) round-trips
    /// through the log: the reconstructed piecewise-constant script re-runs
    /// to an identical decision stream, load changes included.
    #[test]
    fn varying_load_world_round_trips_through_the_log() {
        let template = trained_suite();
        let script = varying_load_script();
        assert!(
            script.events.iter().any(|e| !matches!(e.load, LoadSchedule::Constant { .. })),
            "the scenario must actually vary its load"
        );
        let first = record(&template, &script, 17);
        let load_changes = first
            .log
            .events()
            .iter()
            .filter(|ev| {
                matches!(ev.body, osml_core::EventBody::World(WorldFact::LoadChanged { .. }))
            })
            .count();
        assert!(load_changes > 0, "the recording must contain load-change facts");
        let rebuilt = world_script_from_log(&first.log).expect("varying-load world reconstructs");
        assert!(
            rebuilt.events.iter().any(|e| matches!(e.load, LoadSchedule::Steps { .. })),
            "reconstruction must produce step schedules for the varying workloads"
        );
        let second = record(&template, &rebuilt, 17);
        assert_eq!(
            first_divergence(&first.log, &second.log),
            None,
            "a reconstructed varying-load world must decide identically"
        );
    }
}
