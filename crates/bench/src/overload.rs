//! Overload harness (Fig. 20, this reproduction's extension): drive offered
//! load past the machine's co-location capacity and measure what typed
//! admission, the deterministic arrival queue and brownout buy over binary
//! rejection.
//!
//! Every run is [`crate::replay`]'s recorded node under the script runner
//! of [`osml_core::host`] — the host half of the admission protocol lives
//! there — plus the accounting observer below. The machine sits behind a
//! [`FaultPlan`], so overload and fault injection compose: with
//! [`FaultPlan::none`] the wrapper is bit-inert (pinned by the chaos
//! tests), and a chaos plan can be layered on top of any overload level.

pub use osml_core::host::slo_class_of;
use osml_core::host::Seat;
use osml_core::{
    ActionKind, Decision, EventBody, LaunchCause, OsmlConfig, OsmlScheduler, OverloadConfig,
    RemovalCause, UnifiedLog, WorldFact,
};
use osml_platform::{FaultPlan, Scheduler, SloClass, Substrate};
use osml_workloads::loadgen::{ArrivalEvent, ArrivalScript, LoadSchedule};
use osml_workloads::Service;
use serde::{Deserialize, Serialize};

use crate::chaos::layout_invariants_ok;

/// `percent` of `service`'s nominal maximum load, RPS.
fn pct(service: Service, percent: f64) -> f64 {
    service.params().nominal_max_rps() * percent / 100.0
}

/// A scripted lifetime of `service` at its default thread count.
fn event(service: Service, arrive_s: f64, depart_s: f64, load: LoadSchedule) -> ArrivalEvent {
    ArrivalEvent { service, arrive_s, depart_s, threads: service.params().default_threads, load }
}

/// The Fig. 20 arrival script at one offered-load `level`: three
/// latency-critical anchors hold the machine, then a surge of eight more
/// services (mixed classes) arrives with loads scaled by `level` and
/// departs in waves late in the run, so a queued arrival has real capacity
/// to wait for. `level` ≈ 1.0 sits at the co-location frontier; beyond it
/// the aggregate demand exceeds the machine.
pub fn overload_script(level: f64) -> ArrivalScript {
    let ev = |service: Service, arrive: f64, depart: f64, p: f64| {
        event(service, arrive, depart, LoadSchedule::Constant { rps: pct(service, p) })
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
    use Service::{Ads, ImgDnn, Moses, Xapian};
    let ramp = LoadSchedule::Ramp {
        start_s: 10.0,
        end_s: 50.0,
        from_rps: pct(Moses, 15.0),
        to_rps: pct(Moses, 45.0),
    };
    let steps = LoadSchedule::Steps {
        steps: vec![(0.0, pct(ImgDnn, 20.0)), (30.0, pct(ImgDnn, 40.0)), (60.0, pct(ImgDnn, 10.0))],
    };
    let diurnal = LoadSchedule::Diurnal {
        base_rps: pct(Xapian, 25.0),
        amplitude_rps: pct(Xapian, 12.0),
        period_s: 40.0,
    };
    ArrivalScript::new(
        vec![
            event(Moses, 0.0, f64::INFINITY, ramp),
            event(ImgDnn, 2.0, f64::INFINITY, steps),
            event(Xapian, 5.0, 80.0, diurnal),
            event(Ads, 20.0, 70.0, LoadSchedule::Constant { rps: pct(Ads, 25.0) }),
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
    /// the pre-kill admission queue, shed stack, shave ledger and brownout
    /// clock.
    pub restart_resumed_state: Option<bool>,
    /// Total scheduling actions.
    pub actions: usize,
    /// Per-arrival detail, in script order.
    pub arrivals: Vec<ArrivalReport>,
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

/// [`run_overload`], also returning the controller's unified log.
pub fn run_overload_detailed(
    template: &OsmlScheduler,
    script: &ArrivalScript,
    seed: u64,
    overload: OverloadConfig,
    plan: FaultPlan,
    restart_mid_brownout: bool,
) -> (OverloadOutcome, UnifiedLog) {
    let n = script.events.len();
    let mut admitted_s = vec![0.0f64; n];
    let mut last_seats = vec![Seat::Pending; n];
    let mut offered_service_seconds = 0.0;
    let mut admitted_service_seconds = 0.0;
    let mut compliance_sum = 0.0;
    let mut compliance_ticks = 0usize;
    let mut peak_queue_depth = 0usize;
    let mut layout_always_valid = true;
    let mut prev_t = 0.0f64;

    let overload_enabled = overload.is_enabled();
    let (host, resumed) = crate::replay::drive(
        template,
        script,
        seed,
        overload,
        plan,
        restart_mid_brownout,
        OsmlConfig::default(),
        |host, seats, t| {
            peak_queue_depth = peak_queue_depth.max(host.scheduler.queue_depth());
            layout_always_valid &= layout_invariants_ok(&host.machine);
            // Offered = scripted demand, admitted = actually running, both
            // integrated over simulated time. The controller's profiling
            // windows advance the clock unevenly (an arm that retries
            // arrivals profiles more), so service-seconds are weighted by
            // the real step width rather than counted per loop iteration.
            let dt = t - prev_t;
            prev_t = t;
            offered_service_seconds += script.active_at(t).count() as f64 * dt;
            let (mut live, mut met) = (0usize, 0usize);
            for (idx, seat) in seats.iter().enumerate() {
                if let Seat::Live(id) = *seat {
                    live += 1;
                    admitted_s[idx] += dt;
                    met += usize::from(host.machine.latency(id).is_some_and(|l| !l.violates_qos()));
                }
            }
            admitted_service_seconds += live as f64 * dt;
            if live > 0 {
                compliance_sum += met as f64 / live as f64;
                compliance_ticks += 1;
            }
            last_seats.copy_from_slice(seats);
        },
    );

    let log = host.scheduler.unified_log();
    // What the per-step view cannot show — an arrival deferred and admitted
    // within one step, a shed and its class — the log does: `Launched`
    // binds every process to its workload and class.
    let mut launched = std::collections::BTreeMap::new();
    let mut deferrals = vec![0usize; n];
    let mut non_best_effort_sheds = 0usize;
    for ev in log.events() {
        let Some(app) = ev.app else { continue };
        match &ev.body {
            EventBody::World(WorldFact::Launched { workload, class, cause, .. }) => {
                launched.insert(app, (*workload as usize, *class, *cause));
            }
            EventBody::Decision(Decision::Deferred { .. }) => {
                if let Some(&(idx, _, LaunchCause::Scripted)) = launched.get(&app) {
                    deferrals[idx] += 1;
                }
            }
            EventBody::World(WorldFact::Removed { cause: RemovalCause::ShedWithdrawal }) => {
                let class = launched.get(&app).map(|l| l.1);
                non_best_effort_sheds += usize::from(class != Some(SloClass::BestEffort));
            }
            _ => {}
        }
    }
    let arrivals: Vec<ArrivalReport> = (0..n)
        .map(|idx| {
            let event = &script.events[idx];
            ArrivalReport {
                service: event.service,
                class: slo_class_of(event.service),
                admitted_s: admitted_s[idx],
                offered_s: (event.depart_s.min(script.duration_s) - event.arrive_s).max(0.0),
                deferrals: deferrals[idx],
                fate: match last_seats[idx] {
                    Seat::Live(_) | Seat::Departed => ArrivalFate::Served,
                    // Pending: it never became eligible.
                    Seat::Rejected | Seat::Pending => ArrivalFate::Rejected,
                    Seat::TimedOut => ArrivalFate::TimedOut,
                    Seat::Waiting(_) => ArrivalFate::StillWaiting,
                },
            }
        })
        .collect();
    let outcome = OverloadOutcome {
        overload_enabled,
        offered_service_seconds,
        admitted_service_seconds,
        goodput_ratio: admitted_service_seconds / offered_service_seconds.max(1.0),
        qos_compliance_over_time: compliance_sum / compliance_ticks.max(1) as f64,
        deferrals: log.count_decisions(|d| matches!(d, Decision::Deferred { .. })),
        queue_admissions: log.count_decisions(|d| matches!(d, Decision::Admitted { .. })),
        timeouts: log.count_decisions(|d| matches!(d, Decision::TimedOut { .. })),
        terminal_rejections: arrivals.iter().filter(|a| a.fate == ArrivalFate::Rejected).count(),
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
        faults_injected: host.machine.fault_count(),
        restarted: resumed.is_some(),
        restart_resumed_state: resumed,
        actions: host.scheduler.action_count(),
        arrivals,
    };
    (outcome, log.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::trained_suite;

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
        let template = trained_suite();
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
