//! Golden-thread recording harness: the overload driver instrumented to
//! emit world facts into the scheduler's unified event log, so one JSONL
//! stream captures the whole run — what the world did (layer 1), what the
//! controller decided (layer 2), and what the plumbing observed (layer 3).
//!
//! Three consumers build on the recording:
//!
//! * **Replay-equals-live** — `osml_core::replay` folds the recorded log
//!   back into a [`ReplayState`] that must equal the live scheduler's
//!   [`OsmlScheduler::live_replay_state`] bit-for-bit (integration tests,
//!   the `replay_divergence` binary).
//! * **Crash recovery** — with `restart_mid_brownout`, the controller is
//!   killed mid-brownout and warm-restarted; the restored log (snapshot
//!   prefix + durable journal suffix + restart events) must still fold to
//!   the recovered state.
//! * **A/B divergence** — [`world_script_from_log`] reconstructs the
//!   exogenous arrival script from the world-fact layer alone, so one
//!   recorded world can be re-run under a different controller config and
//!   the two decision streams diffed at their first divergence.

use osml_core::{
    first_divergence, Divergence, LaunchCause, OsmlConfig, OsmlScheduler, OverloadConfig,
    RecoveryStore, RemovalCause, ReplayState, UnifiedLog, WorldFact,
};
use osml_platform::{AppId, FaultPlan, FaultySubstrate, Placement, Scheduler, SloClass, Substrate};
use osml_workloads::loadgen::{ArrivalEvent, ArrivalScript, LoadSchedule};
use osml_workloads::{LaunchSpec, SimConfig, SimServer};

use crate::overload::slo_class_of;

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
    /// For the restart arm: whether queue depth, brownout flag and ledger
    /// sizes survived the crash (mirrors the fig19/fig20 assertion).
    pub restart_resumed_state: Option<bool>,
    /// Faults the substrate injected.
    pub faults_injected: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Pending,
    Live(AppId),
    Waiting(u64),
    Done,
}

/// Runs one overload timeline with world-fact recording. The driver loop is
/// the same shape as `overload::run_overload_detailed`; every exogenous
/// occurrence (scripted arrival/departure coming due, load change, injected
/// fault) and every process the driver launches or removes is recorded into
/// the scheduler's unified log alongside the decisions the scheduler emits
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
    let config = OsmlConfig { overload: overload.clone(), strict_layout: true, ..base };
    let inner = SimServer::new(SimConfig { noise_sigma: 0.0, seed, ..SimConfig::default() });
    let mut server = FaultySubstrate::new(inner, plan);
    let mut scheduler = template.clone().with_config(config.clone());

    let store = restart_mid_brownout.then(|| {
        let dir =
            std::env::temp_dir().join(format!("osml-replay-restart-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RecoveryStore::open(&dir).expect("open recovery store")
    });
    if let Some(store) = store.as_ref() {
        scheduler.attach_unified_journal(&store.unified_path()).expect("attach unified journal");
    }

    let n = script.events.len();
    let mut slots: Vec<Slot> = vec![Slot::Pending; n];
    let mut departure_due = vec![false; n];
    let mut last_rps = vec![f64::NAN; n];
    let mut fault_mark = 0usize;
    let mut first_brownout_tick: Option<u64> = None;
    let mut restarted = false;
    let mut restart_resumed_state: Option<bool> = None;
    let mut harness_tick: u64 = 0;

    let class_of = |idx: usize| slo_class_of(script.events[idx].service);
    let mut t = 0.0f64;
    while t <= script.duration_s {
        // Crash mid-brownout, two ticks after entry (see the overload
        // harness for the timing rationale: the pre-kill state matches the
        // last end-of-tick snapshot exactly).
        if let (Some(store), Some(entered)) = (store.as_ref(), first_brownout_tick) {
            if !restarted && harness_tick == entered + 2 {
                let pre = (
                    scheduler.queue_depth(),
                    scheduler.in_brownout(),
                    scheduler.overload_state().shaved.len(),
                    scheduler.overload_state().shed.len(),
                );
                drop(scheduler);
                let (recovered, _report) = OsmlScheduler::recover(
                    template.models().clone(),
                    config.clone(),
                    store,
                    &mut server,
                );
                scheduler = recovered;
                let post = (
                    scheduler.queue_depth(),
                    scheduler.in_brownout(),
                    scheduler.overload_state().shaved.len(),
                    scheduler.overload_state().shed.len(),
                );
                restart_resumed_state = Some(pre == post);
                restarted = true;
            }
        }
        // Scripted departures coming due.
        for (idx, slot) in slots.iter_mut().enumerate() {
            if t < script.events[idx].depart_s {
                continue;
            }
            if !departure_due[idx] && *slot != Slot::Pending {
                departure_due[idx] = true;
                scheduler.record_world(t, None, WorldFact::DepartureDue { workload: idx as u64 });
            }
            match *slot {
                Slot::Live(id) => {
                    let _ = server.remove(id);
                    scheduler.on_departure(id);
                    scheduler.record_world(
                        t,
                        Some(id),
                        WorldFact::Removed { cause: RemovalCause::ScriptedDeparture },
                    );
                    *slot = Slot::Done;
                }
                Slot::Waiting(ticket) => {
                    scheduler.cancel_ticket(ticket);
                    *slot = Slot::Done;
                }
                _ => {}
            }
        }
        // Scripted arrivals coming due.
        for idx in 0..n {
            let event = &script.events[idx];
            if slots[idx] != Slot::Pending || t < event.arrive_s || t >= event.depart_s {
                continue;
            }
            let rps = event.load.rps_at(t).max(1e-3);
            scheduler.record_world(
                t,
                None,
                WorldFact::ArrivalDue {
                    workload: idx as u64,
                    service: event.service,
                    class: class_of(idx),
                    threads: event.threads,
                    offered_rps: rps,
                },
            );
            last_rps[idx] = rps;
            slots[idx] = launch_and_submit(
                &mut scheduler,
                &mut server,
                idx as u64,
                event.service,
                event.threads,
                rps,
                class_of(idx),
                LaunchCause::Scripted,
            );
        }
        // Load updates for running services (only actual changes are
        // world facts; constant-load scripts record none).
        for idx in 0..n {
            if let Slot::Live(id) = slots[idx] {
                let rps = script.events[idx].load.rps_at(t).max(1e-3);
                if rps != last_rps[idx] {
                    last_rps[idx] = rps;
                    let _ = server.inner_mut().set_load(id, rps);
                    scheduler.record_world(
                        t,
                        Some(id),
                        WorldFact::LoadChanged { offered_rps: rps },
                    );
                }
            }
        }

        server.advance(1.0);
        t = server.now();
        harness_tick += 1;

        scheduler.tick(&mut server);

        // Controller-initiated sheds: withdraw the process, park the ticket.
        for id in scheduler.take_shed() {
            let Some(idx) = slots.iter().position(|s| *s == Slot::Live(id)) else { continue };
            let _ = server.remove(id);
            scheduler.record_world(
                t,
                Some(id),
                WorldFact::Removed { cause: RemovalCause::ShedWithdrawal },
            );
            slots[idx] = Slot::Waiting(id.0);
        }
        // Admission retries.
        while let Some(ticket) = scheduler.poll_admission() {
            let Some(idx) = slots.iter().position(|s| *s == Slot::Waiting(ticket)) else {
                scheduler.cancel_ticket(ticket);
                continue;
            };
            let event = &script.events[idx];
            let rps = event.load.rps_at(t).max(1e-3);
            last_rps[idx] = rps;
            slots[idx] = launch_and_submit(
                &mut scheduler,
                &mut server,
                idx as u64,
                event.service,
                event.threads,
                rps,
                class_of(idx),
                LaunchCause::AdmissionRetry,
            );
        }
        // Timeouts: tickets the scheduler no longer tracks were expired.
        for slot in slots.iter_mut() {
            if let Slot::Waiting(ticket) = *slot {
                if !scheduler.is_waiting(ticket) {
                    *slot = Slot::Done;
                }
            }
        }
        // Injected faults are part of the world: drain the substrate's
        // fault records past the watermark into the world-fact layer.
        let records = server.records();
        for rec in &records[fault_mark..] {
            scheduler.record_world(
                rec.time_s,
                rec.app,
                WorldFact::FaultInjected { call: rec.call, fault: rec.fault },
            );
        }
        fault_mark = records.len();

        if first_brownout_tick.is_none() && scheduler.in_brownout() {
            first_brownout_tick = Some(harness_tick);
        }
        if let Some(store) = store.as_ref() {
            store.save_snapshot(&scheduler.snapshot(&server)).expect("save snapshot");
        }
    }

    if let Some(store) = store.as_ref() {
        let _ = std::fs::remove_dir_all(store.dir());
    }

    RecordedRun {
        log: scheduler.unified_log().clone(),
        live: scheduler.live_replay_state(&server),
        restarted,
        restart_resumed_state,
        faults_injected: server.fault_count(),
    }
}

/// Launches a process with its bootstrap allocation, records the
/// [`WorldFact::Launched`] fact, submits it to the scheduler, and applies
/// the driver's fixed withdrawal policy to the placement outcome
/// (recording the matching [`WorldFact::Removed`] when it withdraws).
#[allow(clippy::too_many_arguments)]
fn launch_and_submit(
    scheduler: &mut OsmlScheduler,
    server: &mut FaultySubstrate<SimServer>,
    workload: u64,
    service: osml_workloads::Service,
    threads: usize,
    offered_rps: f64,
    class: SloClass,
    cause: LaunchCause,
) -> Slot {
    let t = server.now();
    let alloc = osml_core::bootstrap_allocation(server, threads);
    let spec = LaunchSpec { service, threads, offered_rps };
    let id = server.inner_mut().launch(spec, alloc).expect("bootstrap allocation is valid");
    scheduler.record_world(
        t,
        Some(id),
        WorldFact::Launched {
            workload,
            service,
            class,
            threads,
            offered_rps,
            bootstrap: alloc,
            cause,
        },
    );
    match scheduler.on_arrival_classed(server, id, class) {
        Placement::Placed => Slot::Live(id),
        Placement::Deferred { ticket } => {
            let _ = server.remove(id);
            scheduler.on_departure(id);
            scheduler.record_world(
                server.now(),
                Some(id),
                WorldFact::Removed { cause: RemovalCause::DeferredWithdrawal },
            );
            Slot::Waiting(ticket)
        }
        Placement::Rejected(_) => {
            let _ = server.remove(id);
            scheduler.on_departure(id);
            scheduler.record_world(
                server.now(),
                Some(id),
                WorldFact::Removed { cause: RemovalCause::RejectedWithdrawal },
            );
            Slot::Done
        }
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
    use crate::suite::{trained_suite, SuiteConfig};

    #[test]
    fn recorded_run_replays_to_live_state() {
        let template = trained_suite(SuiteConfig::Standard);
        let script = overload_script(0.6);
        let run = run_recorded(
            &template,
            &script,
            11,
            OverloadConfig::enabled(),
            FaultPlan::none(),
            false,
            OsmlConfig::default(),
        );
        let replayed = run.log.replay().expect("log is replay-sufficient");
        assert_eq!(replayed, run.live, "replayed state must equal live state bit-for-bit");
        let (world, decisions, _telemetry) = run.log.layer_counts();
        assert!(world > 0, "world facts recorded");
        assert!(decisions > 0, "decisions recorded");
    }

    #[test]
    fn reconstructed_script_reproduces_the_decision_stream() {
        let template = trained_suite(SuiteConfig::Standard);
        let script = overload_script(0.6);
        let first = run_recorded(
            &template,
            &script,
            13,
            OverloadConfig::enabled(),
            FaultPlan::none(),
            false,
            OsmlConfig::default(),
        );
        let rebuilt = world_script_from_log(&first.log).expect("world reconstructs");
        let second = run_recorded(
            &template,
            &rebuilt,
            13,
            OverloadConfig::enabled(),
            FaultPlan::none(),
            false,
            OsmlConfig::default(),
        );
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
        let template = trained_suite(SuiteConfig::Standard);
        let script = varying_load_script();
        assert!(
            script.events.iter().any(|e| !matches!(e.load, LoadSchedule::Constant { .. })),
            "the scenario must actually vary its load"
        );
        let first = run_recorded(
            &template,
            &script,
            17,
            OverloadConfig::enabled(),
            FaultPlan::none(),
            false,
            OsmlConfig::default(),
        );
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
        let second = run_recorded(
            &template,
            &rebuilt,
            17,
            OverloadConfig::enabled(),
            FaultPlan::none(),
            false,
            OsmlConfig::default(),
        );
        assert_eq!(
            first_divergence(&first.log, &second.log),
            None,
            "a reconstructed varying-load world must decide identically"
        );
    }
}
