//! Overload harness (Fig. 20, this reproduction's extension): drive offered
//! load past the machine's co-location capacity and measure what typed
//! admission, the deterministic arrival queue and brownout buy over binary
//! rejection.
//!
//! Every run goes through a [`FaultySubstrate`] so overload and fault
//! injection compose: with [`FaultPlan::none`] the wrapper is bit-inert
//! (pinned by the chaos tests), and a chaos plan can be layered on top of
//! any overload level.
//!
//! The harness owns process lifecycle, the scheduler owns the queue: a
//! [`Placement::Deferred`] arrival is withdrawn from the substrate and its
//! ticket parked; every tick the harness drains [`OsmlScheduler::take_shed`]
//! and retries [`OsmlScheduler::poll_admission`] tickets by relaunching the
//! service and calling [`Scheduler::on_arrival_classed`].

use osml_core::{
    ActionKind, Decision, OsmlConfig, OsmlScheduler, OverloadConfig, RecoveryStore, UnifiedLog,
};
use osml_platform::{
    Allocation, AppId, FaultPlan, FaultySubstrate, Placement, Scheduler, SloClass, Substrate,
};
use osml_workloads::loadgen::{ArrivalEvent, ArrivalScript, LoadSchedule};
use osml_workloads::{LaunchSpec, Service, SimConfig, SimServer};
use serde::{Deserialize, Serialize};

use crate::chaos::layout_invariants_ok;

/// The SLO class an overload experiment submits each service under.
///
/// Latency-critical: the user-facing services the paper's QoS targets are
/// strictest about. Degradable: stateful backends that tolerate brownout
/// pricing. Best-effort: batch-flavoured work, sheddable under pressure.
pub fn slo_class_of(service: Service) -> SloClass {
    match service {
        Service::ImgDnn
        | Service::Masstree
        | Service::Memcached
        | Service::Moses
        | Service::Nginx
        | Service::Sphinx
        | Service::Xapian => SloClass::LatencyCritical,
        Service::MongoDb | Service::Specjbb | Service::Login => SloClass::Degradable,
        Service::Ads | Service::TxtIndex => SloClass::BestEffort,
    }
}

/// The Fig. 20 arrival script at one offered-load `level`: three
/// latency-critical anchors hold the machine, then a surge of eight more
/// services (mixed classes) arrives with loads scaled by `level` and
/// departs in waves late in the run, so a queued arrival has real capacity
/// to wait for. `level` ≈ 1.0 sits at the co-location frontier; beyond it
/// the aggregate demand exceeds the machine.
pub fn overload_script(level: f64) -> ArrivalScript {
    let pct = |s: Service, p: f64| -> f64 { s.params().nominal_max_rps() * p / 100.0 };
    let ev = |service: Service, arrive: f64, depart: f64, p: f64| ArrivalEvent {
        service,
        arrive_s: arrive,
        depart_s: depart,
        threads: service.params().default_threads,
        load: LoadSchedule::Constant { rps: pct(service, p) },
    };
    ArrivalScript::new(
        vec![
            // Anchors: arrive first, stay forever, fixed load.
            ev(Service::Moses, 0.0, f64::INFINITY, 30.0),
            ev(Service::ImgDnn, 2.0, f64::INFINITY, 25.0),
            ev(Service::Xapian, 4.0, f64::INFINITY, 25.0),
            // Surge: load scales with the sweep level, lifetimes end in
            // waves so departures free capacity for the queue.
            ev(Service::Ads, 20.0, 230.0, 15.0 * level),
            ev(Service::TxtIndex, 25.0, 220.0, 12.0 * level),
            ev(Service::MongoDb, 30.0, 170.0, 20.0 * level),
            ev(Service::Specjbb, 40.0, 200.0, 18.0 * level),
            ev(Service::Sphinx, 60.0, 150.0, 18.0 * level),
            ev(Service::Masstree, 70.0, 160.0, 18.0 * level),
            ev(Service::Memcached, 80.0, 180.0, 15.0 * level),
            ev(Service::Login, 90.0, 210.0, 12.0 * level),
        ],
        240.0,
    )
}

/// A compact load-varying scenario: ramping, stepping and diurnal services
/// over a 90 s window, with enough pressure for admission churn. Shared by
/// the replay round-trip test and the `replay_divergence` harness so both
/// exercise reconstruction of worlds whose offered load actually moves.
pub fn varying_load_script() -> ArrivalScript {
    let pct = |s: Service, p: f64| -> f64 { s.params().nominal_max_rps() * p / 100.0 };
    ArrivalScript::new(
        vec![
            ArrivalEvent {
                service: Service::Moses,
                arrive_s: 0.0,
                depart_s: f64::INFINITY,
                threads: Service::Moses.params().default_threads,
                load: LoadSchedule::Ramp {
                    start_s: 10.0,
                    end_s: 50.0,
                    from_rps: pct(Service::Moses, 15.0),
                    to_rps: pct(Service::Moses, 45.0),
                },
            },
            ArrivalEvent {
                service: Service::ImgDnn,
                arrive_s: 2.0,
                depart_s: f64::INFINITY,
                threads: Service::ImgDnn.params().default_threads,
                load: LoadSchedule::Steps {
                    steps: vec![
                        (0.0, pct(Service::ImgDnn, 20.0)),
                        (30.0, pct(Service::ImgDnn, 40.0)),
                        (60.0, pct(Service::ImgDnn, 10.0)),
                    ],
                },
            },
            ArrivalEvent {
                service: Service::Xapian,
                arrive_s: 5.0,
                depart_s: 80.0,
                threads: Service::Xapian.params().default_threads,
                load: LoadSchedule::Diurnal {
                    base_rps: pct(Service::Xapian, 25.0),
                    amplitude_rps: pct(Service::Xapian, 12.0),
                    period_s: 40.0,
                },
            },
            ArrivalEvent {
                service: Service::Ads,
                arrive_s: 20.0,
                depart_s: 70.0,
                threads: Service::Ads.params().default_threads,
                load: LoadSchedule::Constant { rps: pct(Service::Ads, 25.0) },
            },
        ],
        90.0,
    )
}

/// Where one scripted arrival ended up when the run finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrivalFate {
    /// Still running (or departed on schedule) — it was admitted.
    Served,
    /// Rejected terminally and never admitted.
    Rejected,
    /// Waited in the queue past the max-wait horizon and was dropped.
    TimedOut,
    /// Still waiting (queued or shed) when the experiment ended.
    StillWaiting,
}

/// Per-arrival detail in the outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrivalReport {
    /// The service.
    pub service: Service,
    /// The SLO class it was submitted under.
    pub class: SloClass,
    /// Seconds it actually ran (the admitted service-seconds it earned).
    pub admitted_s: f64,
    /// Seconds of its scripted lifetime (what it asked for).
    pub offered_s: f64,
    /// Times it was deferred into the queue.
    pub deferrals: usize,
    /// How the run ended for it.
    pub fate: ArrivalFate,
}

/// Outcome of one overload run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverloadOutcome {
    /// Whether the admission queue (and brownout) were enabled.
    pub overload_enabled: bool,
    /// Σ over ticks of scripted-active services (demand), service-seconds.
    pub offered_service_seconds: f64,
    /// Σ over ticks of actually-running services, service-seconds.
    pub admitted_service_seconds: f64,
    /// `admitted / offered` (the Fig. 20 y-axis).
    pub goodput_ratio: f64,
    /// Mean per-tick fraction of running services meeting QoS.
    pub qos_compliance_over_time: f64,
    /// Arrivals deferred into the queue (`Deferred` decisions).
    pub deferrals: usize,
    /// Queued arrivals admitted on retry (`Admitted` decisions).
    pub queue_admissions: usize,
    /// Waiters dropped at the max-wait horizon (`TimedOut` decisions).
    pub timeouts: usize,
    /// Terminal rejections (arrivals lost outright).
    pub terminal_rejections: usize,
    /// Brownout entries (`BrownoutEntered` decisions).
    pub brownout_entries: usize,
    /// Brownout exits (`BrownoutExited` decisions).
    pub brownout_exits: usize,
    /// Best-effort services shed (`Shed` decisions).
    pub sheds: usize,
    /// Shed services re-admitted (`ShedReadmitted`) plus shaved services
    /// given their pre-brownout allocation back (`Alloc` of kind `Restore`
    /// that counts as an action — transaction rollbacks do not).
    pub restores: usize,
    /// Best-effort services shed that were **not** best-effort (must be 0;
    /// the shed policy never touches LC or degradable work).
    pub non_best_effort_sheds: usize,
    /// Deepest the queue ever got.
    pub peak_queue_depth: usize,
    /// Whether the layout invariants held at every tick.
    pub layout_always_valid: bool,
    /// Faults the substrate injected (0 under [`FaultPlan::none`]).
    pub faults_injected: usize,
    /// Whether the controller was killed and warm-restarted mid-brownout.
    pub restarted: bool,
    /// For the restart arm: whether the recovered controller resumed with
    /// the pre-kill queue depth, brownout flag and shave ledger.
    pub restart_resumed_state: Option<bool>,
    /// Total scheduling actions.
    pub actions: usize,
    /// Per-arrival detail, in script order.
    pub arrivals: Vec<ArrivalReport>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Pending,
    Live(AppId),
    Waiting(u64),
    Done(ArrivalFate),
}

/// Runs one overload timeline.
///
/// * `overload` configures the scheduler's admission queue and brownout
///   ([`OverloadConfig::default`] = binary rejection, the baseline arm).
/// * `plan` injects platform faults on top ([`FaultPlan::none`] for the
///   pure overload sweep); overload and chaos compose.
/// * `restart_mid_brownout` kills the controller two ticks after the first
///   brownout entry and warm-restarts it from a per-tick durable snapshot,
///   asserting the queue and brownout state survive the crash.
pub fn run_overload(
    template: &OsmlScheduler,
    script: &ArrivalScript,
    seed: u64,
    overload: OverloadConfig,
    plan: FaultPlan,
    restart_mid_brownout: bool,
) -> OverloadOutcome {
    run_overload_detailed(template, script, seed, overload, plan, restart_mid_brownout).0
}

/// [`run_overload`], also returning the controller's unified log and the
/// final live layout `(raw id, allocation)` sorted by id.
#[allow(clippy::type_complexity)]
pub fn run_overload_detailed(
    template: &OsmlScheduler,
    script: &ArrivalScript,
    seed: u64,
    overload: OverloadConfig,
    plan: FaultPlan,
    restart_mid_brownout: bool,
) -> (OverloadOutcome, UnifiedLog, Vec<(u64, Allocation)>) {
    // Both arms get strict overlap hygiene — the layout invariant is
    // asserted every tick, and sharing the fix keeps the comparison about
    // admission policy (queue + brownout vs binary rejection), not hygiene.
    let config =
        OsmlConfig { overload: overload.clone(), strict_layout: true, ..OsmlConfig::default() };
    let inner = SimServer::new(SimConfig { noise_sigma: 0.0, seed, ..SimConfig::default() });
    let mut server = FaultySubstrate::new(inner, plan);
    let mut scheduler = template.clone().with_config(config.clone());

    let store = restart_mid_brownout.then(|| {
        let dir = std::env::temp_dir()
            .join(format!("osml-overload-restart-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RecoveryStore::open(&dir).expect("open recovery store")
    });

    let n = script.events.len();
    let mut slots: Vec<Slot> = vec![Slot::Pending; n];
    let mut admitted_s = vec![0.0f64; n];
    let mut deferral_counts = vec![0usize; n];
    let mut offered_service_seconds = 0.0;
    let mut admitted_service_seconds = 0.0;
    let mut compliance_sum = 0.0;
    let mut compliance_ticks = 0usize;
    let mut peak_queue_depth = 0usize;
    let mut non_best_effort_sheds = 0usize;
    let mut layout_always_valid = true;
    let mut first_brownout_tick: Option<u64> = None;
    let mut restarted = false;
    let mut restart_resumed_state: Option<bool> = None;
    let mut harness_tick: u64 = 0;

    let class_of = |idx: usize| slo_class_of(script.events[idx].service);
    let mut t = 0.0f64;
    let mut prev_t = 0.0f64;
    while t <= script.duration_s {
        // Crash mid-brownout: kill the controller between ticks, two ticks
        // after brownout entry, and warm-restart it from the last end-of-tick
        // snapshot. The pre-kill state is captured here — before this tick's
        // arrivals — so it corresponds exactly to what was last persisted.
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
        // Scripted departures: running services leave; still-waiting
        // tickets are withdrawn (their departure time passed in the queue).
        for (idx, slot) in slots.iter_mut().enumerate() {
            if t < script.events[idx].depart_s {
                continue;
            }
            match *slot {
                Slot::Live(id) => {
                    let _ = server.remove(id);
                    scheduler.on_departure(id);
                    *slot = Slot::Done(ArrivalFate::Served);
                }
                Slot::Waiting(ticket) => {
                    scheduler.cancel_ticket(ticket);
                    *slot = Slot::Done(ArrivalFate::TimedOut);
                }
                _ => {}
            }
        }
        // Scripted arrivals.
        for idx in 0..n {
            let event = &script.events[idx];
            if slots[idx] != Slot::Pending || t < event.arrive_s || t >= event.depart_s {
                continue;
            }
            let spec = LaunchSpec {
                service: event.service,
                threads: event.threads,
                offered_rps: event.load.rps_at(t).max(1e-3),
            };
            let alloc = osml_core::bootstrap_allocation(&mut server, event.threads);
            let id = server.inner_mut().launch(spec, alloc).expect("bootstrap allocation is valid");
            match scheduler.on_arrival_classed(&mut server, id, class_of(idx)) {
                Placement::Placed => slots[idx] = Slot::Live(id),
                Placement::Deferred { ticket } => {
                    // The scheduler holds the seat; the harness withdraws
                    // the process until the ticket is polled back.
                    let _ = server.remove(id);
                    scheduler.on_departure(id);
                    deferral_counts[idx] += 1;
                    slots[idx] = Slot::Waiting(ticket);
                }
                Placement::Rejected(_) => {
                    let _ = server.remove(id);
                    scheduler.on_departure(id);
                    slots[idx] = Slot::Done(ArrivalFate::Rejected);
                }
            }
        }
        // Load updates for running services.
        for (slot, event) in slots.iter().zip(script.events.iter()) {
            if let Slot::Live(id) = *slot {
                let rps = event.load.rps_at(t).max(1e-3);
                let _ = server.inner_mut().set_load(id, rps);
            }
        }

        server.advance(1.0);
        t = server.now();
        harness_tick += 1;

        scheduler.tick(&mut server);

        // Drain controller-initiated sheds: withdraw the process (its
        // record is already gone — no on_departure) and park the ticket.
        for id in scheduler.take_shed() {
            let Some(idx) = slots.iter().position(|s| *s == Slot::Live(id)) else { continue };
            if class_of(idx) != SloClass::BestEffort {
                non_best_effort_sheds += 1;
            }
            let _ = server.remove(id);
            slots[idx] = Slot::Waiting(id.0);
        }
        // Admission retries: spend banked credits relaunching waiters.
        while let Some(ticket) = scheduler.poll_admission() {
            let Some(idx) = slots.iter().position(|s| *s == Slot::Waiting(ticket)) else {
                // The waiter belongs to no scripted event (e.g. its seat
                // outlived the harness's interest); drop it.
                scheduler.cancel_ticket(ticket);
                continue;
            };
            let event = &script.events[idx];
            let spec = LaunchSpec {
                service: event.service,
                threads: event.threads,
                offered_rps: event.load.rps_at(t).max(1e-3),
            };
            let alloc = osml_core::bootstrap_allocation(&mut server, event.threads);
            let id = server.inner_mut().launch(spec, alloc).expect("bootstrap allocation is valid");
            match scheduler.on_arrival_classed(&mut server, id, class_of(idx)) {
                Placement::Placed => slots[idx] = Slot::Live(id),
                Placement::Deferred { ticket: kept } => {
                    // Still no room: the retry keeps its original seat.
                    let _ = server.remove(id);
                    scheduler.on_departure(id);
                    slots[idx] = Slot::Waiting(kept);
                }
                Placement::Rejected(_) => {
                    let _ = server.remove(id);
                    scheduler.on_departure(id);
                    slots[idx] = Slot::Done(ArrivalFate::Rejected);
                }
            }
        }
        // Timeouts: a ticket the scheduler no longer tracks was expired.
        for slot in slots.iter_mut() {
            if let Slot::Waiting(ticket) = *slot {
                if !scheduler.is_waiting(ticket) {
                    *slot = Slot::Done(ArrivalFate::TimedOut);
                }
            }
        }

        if first_brownout_tick.is_none() && scheduler.in_brownout() {
            first_brownout_tick = Some(harness_tick);
        }
        peak_queue_depth = peak_queue_depth.max(scheduler.queue_depth());
        layout_always_valid &= layout_invariants_ok(&server);

        // Accounting: offered = scripted demand, admitted = actually
        // running, both integrated over simulated time. The controller's
        // profiling windows advance the clock unevenly (an arm that retries
        // arrivals profiles more), so service-seconds are weighted by the
        // real step width rather than counted per loop iteration.
        let dt = t - prev_t;
        prev_t = t;
        let active = script.active_at(t).count();
        offered_service_seconds += active as f64 * dt;
        let mut live = 0usize;
        let mut met = 0usize;
        for idx in 0..n {
            if let Slot::Live(id) = slots[idx] {
                live += 1;
                admitted_s[idx] += dt;
                if server.latency(id).map(|l| !l.violates_qos()).unwrap_or(false) {
                    met += 1;
                }
            }
        }
        admitted_service_seconds += live as f64 * dt;
        if live > 0 {
            compliance_sum += met as f64 / live as f64;
            compliance_ticks += 1;
        }

        if let Some(store) = store.as_ref() {
            store.save_snapshot(&scheduler.snapshot(&server)).expect("save snapshot");
        }
    }

    if let Some(store) = store.as_ref() {
        let _ = std::fs::remove_dir_all(store.dir());
    }

    let log = scheduler.unified_log();
    let arrivals: Vec<ArrivalReport> = (0..n)
        .map(|idx| {
            let event = &script.events[idx];
            let fate = match slots[idx] {
                Slot::Done(f) => f,
                Slot::Live(_) => ArrivalFate::Served,
                Slot::Waiting(_) => ArrivalFate::StillWaiting,
                Slot::Pending => ArrivalFate::Rejected, // never became eligible
            };
            ArrivalReport {
                service: event.service,
                class: class_of(idx),
                admitted_s: admitted_s[idx],
                offered_s: (event.depart_s.min(script.duration_s) - event.arrive_s).max(0.0),
                deferrals: deferral_counts[idx],
                fate,
            }
        })
        .collect();
    let terminal_rejections = arrivals.iter().filter(|a| a.fate == ArrivalFate::Rejected).count();
    let mut layout: Vec<(u64, Allocation)> = server
        .apps()
        .into_iter()
        .filter_map(|id| server.allocation(id).map(|a| (id.0, a)))
        .collect();
    layout.sort_by_key(|&(id, _)| id);
    let outcome = OverloadOutcome {
        overload_enabled: overload.is_enabled(),
        offered_service_seconds,
        admitted_service_seconds,
        goodput_ratio: admitted_service_seconds / offered_service_seconds.max(1.0),
        qos_compliance_over_time: compliance_sum / compliance_ticks.max(1) as f64,
        deferrals: log.count_decisions(|d| matches!(d, Decision::Deferred { .. })),
        queue_admissions: log.count_decisions(|d| matches!(d, Decision::Admitted { .. })),
        timeouts: log.count_decisions(|d| matches!(d, Decision::TimedOut { .. })),
        terminal_rejections,
        brownout_entries: log.count_decisions(|d| matches!(d, Decision::BrownoutEntered { .. })),
        brownout_exits: log.count_decisions(|d| matches!(d, Decision::BrownoutExited { .. })),
        sheds: log.count_decisions(|d| matches!(d, Decision::Shed { .. })),
        restores: log.count_decisions(|d| {
            matches!(
                d,
                Decision::ShedReadmitted { .. }
                    | Decision::Alloc { kind: ActionKind::Restore, counts_as_action: true, .. }
            )
        }),
        non_best_effort_sheds,
        peak_queue_depth,
        layout_always_valid,
        faults_injected: server.fault_count(),
        restarted,
        restart_resumed_state,
        actions: scheduler.action_count(),
        arrivals,
    };
    (outcome, log.clone(), layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{trained_suite, SuiteConfig};

    #[test]
    fn class_map_covers_every_service_and_all_classes() {
        use osml_workloads::ALL_SERVICES;
        let mut seen = [false; 3];
        for s in ALL_SERVICES {
            seen[slo_class_of(s).rank() as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "every SLO class must be represented");
    }

    #[test]
    fn overload_script_scales_with_level_and_stays_consistent() {
        let low = overload_script(0.5);
        let high = overload_script(1.5);
        assert_eq!(low.events.len(), high.events.len());
        for (l, h) in low.events.iter().zip(&high.events) {
            assert!(l.depart_s >= l.arrive_s);
            assert!(l.arrive_s <= low.duration_s);
            assert!(h.load.rps_at(100.0) >= l.load.rps_at(100.0));
        }
        // The anchors are level-independent.
        assert_eq!(low.events[0].load.rps_at(0.0), high.events[0].load.rps_at(0.0));
    }

    #[test]
    fn disabled_overload_run_is_binary_and_clean() {
        let template = trained_suite(SuiteConfig::Standard);
        let script = overload_script(0.4);
        let out = run_overload(
            &template,
            &script,
            20,
            OverloadConfig::default(),
            FaultPlan::none(),
            false,
        );
        assert!(!out.overload_enabled);
        assert_eq!(out.deferrals, 0, "disabled overload must never defer");
        assert_eq!(out.brownout_entries, 0);
        assert_eq!(out.sheds, 0);
        assert_eq!(out.peak_queue_depth, 0);
        assert_eq!(out.faults_injected, 0);
        assert!(out.layout_always_valid);
        assert!(out.admitted_service_seconds > 0.0);
    }
}
