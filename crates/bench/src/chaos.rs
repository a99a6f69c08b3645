//! Chaos runner: replay a co-location through a [`FaultySubstrate`] and
//! judge how gracefully the controller degrades (Fig. 17).
//!
//! Where [`crate::run_colocation`] asks "does the policy meet QoS on a
//! perfect machine", this module asks the production question: with MSR
//! writes failing and counter windows dropping at a configured rate, does
//! the controller keep every service converging back to QoS — without
//! panicking and without ever leaving a half-applied layout?
//!
//! The second half of the module is the crash/restart harness (Fig. 19):
//! [`run_crash_recovery`] kills the controller outright at a chosen tick —
//! dropping everything it held in memory — and restarts it through
//! [`OsmlScheduler::recover`] from the durable snapshot + unified-log
//! journal + Model-C checkpoint (or cold, with the store lost), measuring
//! what durable state buys back.

use osml_core::host::Host;
use osml_core::{
    Decision, EventBody, Models, OsmlConfig, OsmlScheduler, RecoveryReport, RecoveryStore,
    ScratchDir, TelemetryNote,
};
use osml_ml::store::ModelStore;
use osml_models::ModelC;
use osml_platform::{FaultPlan, FaultySubstrate, Scheduler, Substrate};
use osml_workloads::{LaunchSpec, SimConfig, SimServer};
use serde::{Deserialize, Serialize};

use crate::scenario::{app_reports, met_qos, place_all, AppReport};

/// Outcome of one chaos co-location run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosOutcome {
    /// The fault plan's transient actuation failure probability (the x-axis
    /// of Fig. 17).
    pub actuation_failure_prob: f64,
    /// Whether every service was accepted at placement.
    pub all_placed: bool,
    /// Fraction of services meeting QoS at the end of the run.
    pub qos_fraction: f64,
    /// Whether every placed service converged back to QoS compliance.
    pub converged: bool,
    /// Mean over the settle phase of the per-tick fraction of services
    /// meeting QoS (the graceful-degradation signal: it should fall
    /// smoothly with the fault rate, not cliff).
    pub qos_compliance_over_time: f64,
    /// Whether the layout invariants (valid allocations, no core
    /// double-assignment) held at **every** tick of the run.
    pub layout_always_valid: bool,
    /// Faults the substrate injected.
    pub faults_injected: usize,
    /// Faults the controller observed (`FaultObserved` notes).
    pub faults_observed: usize,
    /// Successful retry bursts (`Retried` notes).
    pub retries: usize,
    /// Transactional rollbacks (`TransactionAborted` decisions).
    pub rollbacks: usize,
    /// Watchdog quarantines (`FallbackEngaged` decisions).
    pub fallbacks_engaged: usize,
    /// Fallback exits (`FallbackRecovered` decisions).
    pub recoveries: usize,
    /// Services still quarantined when the run ended.
    pub still_in_fallback: usize,
    /// Total scheduling actions taken.
    pub actions: usize,
    /// Per-service steady-state detail.
    pub apps: Vec<AppReport>,
}

/// Checks the layout invariants on the current machine state: every
/// allocation validates against the topology (contiguous non-empty way
/// masks, in-range cores) and no logical core is assigned to two services.
/// LLC ways *may* overlap — Algorithm 4 shares them deliberately.
pub fn layout_invariants_ok<S: Substrate>(server: &S) -> bool {
    let apps = server.apps();
    let allocs: Vec<_> =
        apps.iter().filter_map(|&id| server.allocation(id).map(|a| (id, a))).collect();
    for (_, a) in &allocs {
        if a.validate(server.topology()).is_err() {
            return false;
        }
    }
    for (i, (_, a)) in allocs.iter().enumerate() {
        for (_, b) in allocs.iter().skip(i + 1) {
            if a.cores.overlaps(b.cores) {
                return false;
            }
        }
    }
    true
}

/// Runs one co-location under a fault plan: services arrive in order, the
/// scheduler places each, then the machine runs for `settle_ticks` seconds
/// of 1 Hz monitoring with faults injected per `plan`. Layout invariants
/// are asserted every tick.
pub fn run_chaos_colocation(
    scheduler: &mut OsmlScheduler,
    specs: &[LaunchSpec],
    settle_ticks: usize,
    seed: u64,
    plan: FaultPlan,
) -> ChaosOutcome {
    let prob = plan.profile.actuation_failure_prob;
    let inner = SimServer::new(SimConfig { noise_sigma: 0.0, seed, ..SimConfig::default() });
    let mut server = FaultySubstrate::new(inner, plan);
    // Shares the scheduler's pipeline (cheap Arc clone; inert if disabled).
    let telemetry = scheduler.telemetry().clone();

    let mut layout_always_valid = true;
    let (placed, all_placed) = place_all(scheduler, &mut server, specs, |server| {
        layout_always_valid &= layout_invariants_ok(server);
    });

    let mut compliance_sum = 0.0;
    for _ in 0..settle_ticks {
        server.advance(1.0);
        {
            let _span = telemetry.span("harness.chaos_tick_us");
            scheduler.tick(&mut server);
        }
        layout_always_valid &= layout_invariants_ok(&server);
        compliance_sum += met_qos(&server, &placed) as f64 / placed.len().max(1) as f64;
    }
    server.advance(1.0);

    let apps = app_reports(&server, &placed);
    let met = apps.iter().filter(|a| a.qos_met).count();
    if telemetry.is_enabled() {
        telemetry.gauge_set("harness.chaos_faults_injected", server.fault_count() as f64);
        telemetry.gauge_set("harness.chaos_qos_fraction", met as f64 / apps.len().max(1) as f64);
    }
    let log = scheduler.unified_log();
    let noted = |pred: fn(&TelemetryNote) -> bool| {
        log.count(|b| matches!(b, EventBody::Telemetry(n) if pred(n)))
    };
    ChaosOutcome {
        actuation_failure_prob: prob,
        all_placed,
        qos_fraction: met as f64 / apps.len().max(1) as f64,
        converged: !apps.is_empty() && met == apps.len(),
        qos_compliance_over_time: compliance_sum / settle_ticks.max(1) as f64,
        layout_always_valid,
        faults_injected: server.fault_count(),
        faults_observed: noted(|n| matches!(n, TelemetryNote::FaultObserved { .. })),
        retries: noted(|n| matches!(n, TelemetryNote::Retried { .. })),
        rollbacks: log.count_decisions(|d| matches!(d, Decision::TransactionAborted { .. })),
        fallbacks_engaged: log.count_decisions(|d| matches!(d, Decision::FallbackEngaged { .. })),
        recoveries: log.count_decisions(|d| matches!(d, Decision::FallbackRecovered { .. })),
        still_in_fallback: placed.iter().filter(|p| scheduler.in_fallback(p.0)).count(),
        actions: scheduler.action_count(),
        apps,
    }
}

// ---------------------------------------------------------------------
// Crash/restart harness (Fig. 19)
// ---------------------------------------------------------------------

/// The name Model-C's durable agent checkpoint is stored under in the
/// run's [`ModelStore`].
pub(crate) const MODEL_C_AGENT: &str = "model-c";

/// What happens to the controller during a crash-recovery timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPlan {
    /// The controller lives the whole run (the reference arm).
    NeverKilled,
    /// Kill the controller just before the given tick, then warm-restart
    /// it from the durable snapshot + unified journal + Model-C checkpoint via
    /// [`OsmlScheduler::recover`].
    KillThenWarm(usize),
    /// Kill the controller just before the given tick, then restart it
    /// with the durable store lost — `recover` against an empty store
    /// falls back to adopting every running service cold.
    KillThenCold(usize),
}

/// Outcome of one crash-recovery timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryOutcome {
    /// The tick the controller was killed before (`None` for the
    /// never-killed reference arm).
    pub kill_tick: Option<usize>,
    /// Whether the restart was warm (durable store intact) rather than
    /// cold (store lost). Meaningless when `kill_tick` is `None`.
    pub warm_restart: bool,
    /// Whether every service was accepted at placement.
    pub all_placed: bool,
    /// Fraction of services meeting QoS at the end of the run.
    pub qos_fraction: f64,
    /// Mean per-tick fraction of services meeting QoS over the whole run
    /// (a crash that hurts convergence shows up here).
    pub qos_compliance_over_time: f64,
    /// Whether the layout invariants held at **every** tick, including the
    /// first tick after the restart.
    pub layout_always_valid: bool,
    /// Ticks from the restart until every service met QoS again (`None`
    /// when the run never reconverged or was never killed).
    pub reconverge_ticks: Option<usize>,
    /// Total scheduling actions; the snapshot's checkpoint plus the folded
    /// journal suffix carry the count across the crash.
    pub actions: usize,
    /// What [`OsmlScheduler::recover`] reported at the restart.
    pub recovery: Option<RecoveryReport>,
    /// Per-service steady-state detail.
    pub apps: Vec<AppReport>,
}

/// Runs one crash-recovery timeline: services arrive and settle under 1 Hz
/// monitoring exactly as in [`crate::run_colocation`], while the controller
/// continuously journals its unified log and checkpoints
/// a full [`osml_core::SchedulerSnapshot`] (plus Model-C's agent state)
/// every `checkpoint_every` ticks. Per `plan`, the controller is then killed
/// just before one tick — everything it held in memory is dropped — and
/// rebuilt through [`OsmlScheduler::recover`], either warm (durable store
/// intact) or cold (store lost).
///
/// The machine keeps running while the controller is being rebuilt: the
/// services, their allocations and any drift are exactly what `recover`'s
/// reconciliation has to adopt, repair or drop.
///
/// With `RestartPlan::NeverKilled` the recovery wiring is observationally
/// inert — snapshots are read-only and the journal is write-only — so the
/// timeline is bit-identical to an unwired [`crate::run_colocation`] run
/// (asserted by `tests/recovery.rs`).
pub fn run_crash_recovery(
    template: &OsmlScheduler,
    specs: &[LaunchSpec],
    total_ticks: usize,
    seed: u64,
    checkpoint_every: usize,
    plan: RestartPlan,
) -> RecoveryOutcome {
    assert!(checkpoint_every > 0, "checkpoint cadence must be positive");
    let (kill_tick, warm) = match plan {
        RestartPlan::NeverKilled => (None, false),
        RestartPlan::KillThenWarm(t) => (Some(t), true),
        RestartPlan::KillThenCold(t) => (Some(t), false),
    };

    let scratch = ScratchDir::new("crash");
    let store = RecoveryStore::open(scratch.path()).expect("open recovery store");
    let model_store = ModelStore::open(scratch.path().join("models")).expect("open model store");

    let server = SimServer::new(SimConfig { noise_sigma: 0.0, seed, ..SimConfig::default() });
    let mut host = Host::new(server, template.clone());
    host.scheduler.attach_unified_journal(&store.unified_path()).expect("attach unified journal");

    let (placed, all_placed) = place_all(&mut host.scheduler, &mut host.machine, specs, |_| {});
    let mut layout_always_valid = layout_invariants_ok(&host.machine);

    let mut compliance_sum = 0.0;
    let mut recovery: Option<RecoveryReport> = None;
    let mut reconverge_ticks: Option<usize> = None;
    for t in 0..total_ticks {
        if kill_tick == Some(t) {
            // Crash: the controller process dies here. Everything in memory
            // is gone; only the durable store survives — or, for the cold
            // arm, not even that.
            let mut models: Models = template.models().clone();
            if warm && model_store.contains_agent(MODEL_C_AGENT) {
                let ck = model_store.load_agent(MODEL_C_AGENT).expect("agent checkpoint loads");
                models.model_c = ModelC::restore(ck);
            }
            let restart_store = if warm {
                store.clone()
            } else {
                RecoveryStore::open(scratch.path().join("cold-empty")).expect("open empty store")
            };
            recovery = Some(host.kill_and_recover(models, OsmlConfig::default(), &restart_store));
        }
        host.machine.advance(1.0);
        host.scheduler.tick(&mut host.machine);
        layout_always_valid &= layout_invariants_ok(&host.machine);
        let met = met_qos(&host.machine, &placed);
        compliance_sum += met as f64 / placed.len().max(1) as f64;
        if let Some(kill) = kill_tick {
            if t >= kill && reconverge_ticks.is_none() && met == placed.len() {
                reconverge_ticks = Some(t - kill);
            }
        }
        if (t + 1) % checkpoint_every == 0 {
            host.checkpoint(&store);
            model_store
                .save_agent(MODEL_C_AGENT, &host.scheduler.models().model_c.checkpoint())
                .expect("save agent checkpoint");
        }
    }
    host.machine.advance(1.0);

    let apps = app_reports(&host.machine, &placed);
    let met = apps.iter().filter(|a| a.qos_met).count();
    RecoveryOutcome {
        kill_tick,
        warm_restart: warm,
        all_placed,
        qos_fraction: met as f64 / apps.len().max(1) as f64,
        qos_compliance_over_time: compliance_sum / total_ticks.max(1) as f64,
        layout_always_valid,
        reconverge_ticks,
        actions: host.scheduler.action_count(),
        recovery,
        apps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::trained_suite;
    use osml_platform::FaultProfile;
    use osml_workloads::Service;

    #[test]
    fn zero_fault_chaos_run_matches_plain_run() {
        let specs = [
            LaunchSpec::at_percent_load(Service::Moses, 30.0),
            LaunchSpec::at_percent_load(Service::ImgDnn, 30.0),
        ];
        let template = trained_suite();

        let mut plain = template.clone();
        let plain_out = crate::run_colocation(&mut plain, &specs, 30, 3);

        let mut chaotic = template.clone();
        let chaos_out = run_chaos_colocation(&mut chaotic, &specs, 30, 3, FaultPlan::none());

        assert_eq!(chaos_out.faults_injected, 0);
        assert_eq!(chaos_out.faults_observed, 0);
        assert_eq!(chaos_out.retries, 0);
        assert_eq!(chaos_out.rollbacks, 0);
        assert_eq!(chaos_out.fallbacks_engaged, 0);
        assert!(chaos_out.layout_always_valid);
        // Bit-identical control path: same decisions, same final
        // allocations.
        assert_eq!(plain.unified_log(), chaotic.unified_log());
        assert_eq!(chaos_out.actions, plain_out.actions);
        for (a, b) in plain_out.apps.iter().zip(&chaos_out.apps) {
            assert_eq!(a.cores, b.cores);
            assert_eq!(a.ways, b.ways);
            assert_eq!(a.p95_ms, b.p95_ms);
        }
    }

    #[test]
    fn default_chaos_profile_converges_without_invalid_layouts() {
        let specs = [
            LaunchSpec::at_percent_load(Service::Moses, 30.0),
            LaunchSpec::at_percent_load(Service::ImgDnn, 30.0),
        ];
        let mut osml = trained_suite();
        let out = run_chaos_colocation(
            &mut osml,
            &specs,
            60,
            3,
            FaultPlan::new(0xC4A05, FaultProfile::chaos_default()),
        );
        assert!(out.all_placed, "{out:?}");
        assert!(out.layout_always_valid, "a half-applied layout escaped");
        assert!(out.faults_injected > 0, "5%/2% over 60 ticks must inject something");
        assert!(out.converged, "services must converge back to QoS: {:?}", out.apps);
    }
}
