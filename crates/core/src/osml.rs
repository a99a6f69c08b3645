use crate::admission::{
    slowdown_ceiling, OverloadState, QueuedEntry, ShaveRecord, ShedEntry, BROWNOUT_AFTER_TICKS,
    BROWNOUT_EXIT_HOLD_TICKS, SHAVE_STEP_BUDGET,
};
use crate::apptable::{AppTable, Slot};
use crate::config::OverloadConfig;
use crate::event_queue::{TimerEvent, TimerQueue};
use crate::golden::{
    ActionKind, Decision, EventBody, Provenance, ReplayState, TelemetryNote, UnifiedLog, WorldFact,
};
use crate::layout::{free_way_run_after_repack, repack_ways_with_last};
use crate::recovery::{
    AppSnapshot, RecoveryMode, RecoveryReport, RecoveryStore, SchedulerSnapshot,
};
use crate::resilience::Retrying;
use crate::OsmlConfig;
use osml_models::{Action, BPoints, ModelA, ModelB, ModelBPrime, ModelC, OaaPrediction, Scratch};
use osml_platform::{
    Allocation, AppId, CoreSet, CounterSample, LatencyStats, MbaThrottle, Placement, RejectReason,
    Scheduler, SloClass, Substrate, WayMask,
};
use osml_telemetry::Telemetry;
use osml_workloads::oaa::AllocPoint;
use std::collections::BTreeMap;

/// Ticks Algorithm 3 waits after a rollback before reclaiming again.
const RECLAIM_COOLDOWN_TICKS: u64 = 10;

/// Ticks a withdrawn (ineffective) growth action stays blocked for an app,
/// steering Model-C to its next-best action instead of repeating the same
/// fruitless one.
const BLOCKED_ACTION_TICKS: u64 = 15;

/// A growth action is "effective" if it cut latency to at most this factor
/// of the previous sample. Resource effects at the cliff are large, while
/// trace noise is a few percent; demanding 10 % separates the two.
const GROWTH_IMPROVEMENT_FACTOR: f64 = 0.90;

/// The controller acts when p95 exceeds this fraction of the QoS target,
/// keeping headroom so trace noise around the exact boundary does not cause
/// perpetual churn.
const QOS_GUARD: f64 = 0.95;

/// QoS slowdown OSML is willing to impose on a neighbour when depriving
/// resources through Model-B (Algorithm 1, line 11: "can tolerate a certain
/// QoS slowdown").
const DEPRIVE_SLOWDOWN_BUDGET: f64 = 0.15;

/// Neighbour slowdown beyond which Algorithm 4 refuses to share and requests
/// a migration instead.
const SHARING_SLOWDOWN_BUDGET: f64 = 0.35;

/// Surplus margin of Algorithm 3: reclamation starts only when a service
/// holds more than `RCliff + margin` in a dimension (line 2: "> its RCliff's
/// + 2").
const SURPLUS_MARGIN: usize = 2;

/// Consecutive failed (or, while the platform is unhealthy, ineffective) ML
/// actions on one service before the QoS watchdog quarantines the model path
/// and engages the heuristic fallback.
const FALLBACK_THRESHOLD: u32 = 3;
const _: () =
    assert!(FALLBACK_THRESHOLD >= 2, "a single withdrawal must not quarantine the models");

/// Consecutive healthy ticks (QoS met, no fresh faults) a quarantined service
/// must accumulate before the ML path is re-engaged.
const FALLBACK_RECOVERY_TICKS: u32 = 8;

/// Seconds after the last observed platform fault during which the watchdog
/// also counts *ineffective* (withdrawn) ML actions toward
/// [`FALLBACK_THRESHOLD`]. Outside this window a withdrawal is ordinary
/// Model-C exploration, so a fault-free run never engages fallback.
const FAULT_ATTENTION_S: f64 = 30.0;

/// Whether the controller considers a service in violation (with guard
/// headroom; see [`QOS_GUARD`]).
fn guarded_violation(lat: &osml_platform::LatencyStats) -> bool {
    lat.p95_ms > QOS_GUARD * lat.qos_target_ms
}

/// The trained model suite OSML schedules with.
#[derive(Debug, Clone)]
pub struct Models {
    /// Model-A: OAA/RCliff prediction.
    pub model_a: ModelA,
    /// Model-B: B-point (deprivable resources) prediction.
    pub model_b: ModelB,
    /// Model-B′: slowdown pricing for deprivation/sharing.
    pub model_b_prime: ModelBPrime,
    /// Model-C: online DQN adjustments.
    pub model_c: ModelC,
}

impl Models {
    /// Untrained, seed-deterministic models on the paper's 36-core, 20-way
    /// machine: predictions are arbitrary but legal, which is all a world
    /// about control flow rather than model quality needs.
    pub fn untrained(model_a_seed: u64) -> Self {
        Models {
            model_a: ModelA::new(36, 20, model_a_seed),
            model_b: ModelB::new(36, 20, 2),
            model_b_prime: ModelBPrime::new(3),
            model_c: ModelC::new(4),
        }
    }
}

/// Per-service controller state.
#[derive(Debug, Clone)]
struct AppRecord {
    prediction: OaaPrediction,
    /// An action whose effect is awaiting the next sample (for Model-C's
    /// `<Status, Action, Reward, Status'>` tuple and for rollback).
    pending: Option<Pending>,
    /// Absolute tick before which Algorithm 3 must not reclaim again after
    /// a rollback (prevents reclaim/violate/rollback livelock). `0` means no
    /// cooldown was ever armed; the cooldown is active while
    /// `tick < cooldown_until`. The deadline itself is authoritative — the
    /// timer wheel only tidies it up.
    cooldown_until: u64,
    /// Withdrawn growth actions, each with the absolute tick its quarantine
    /// runs until (active while `tick < until`).
    blocked: Vec<(Action, u64)>,
    /// A proven minimal allocation: a reclaim below this broke QoS, so
    /// Algorithm 3 stays quiet while the holding is at or below it and the
    /// workload looks unchanged. `(cores, ways, cpu_usage at proof time)`.
    reclaim_floor: Option<(usize, usize, f64)>,
    /// Whether a migration request is already outstanding (dedupes the
    /// report to the upper scheduler while the situation persists).
    migration_requested: bool,
    /// Consecutive ticks the service has been in (guarded) violation.
    violation_ticks: usize,
    /// Last valid counter window: dropped/corrupt samples degrade to this
    /// so the models never ingest NaN or a missing window.
    last_good: Option<CounterSample>,
    /// Watchdog strikes: consecutive failed (or, while the platform is
    /// unhealthy, ineffective) ML actions on this service.
    failed_ml_actions: u32,
    /// Whether the ML path is quarantined and the heuristic fallback is
    /// driving the service.
    fallback: bool,
    /// Consecutive healthy ticks accumulated toward leaving fallback.
    fallback_ok_ticks: u32,
    /// SLO class the service was admitted with (drives overload policy:
    /// queue priority, brownout shave ceiling, shed eligibility).
    class: SloClass,
    /// Dirty-set probe memo: the exact observation triple the last
    /// *quiescent* probe ran on.
    /// While a service's counters, latency and layout are all unchanged, the
    /// full probe body is a provable no-op — the Model-A refresh would
    /// recompute the identical prediction and Algorithm 3 would take the
    /// identical early return — so the tick loop skips it. Any mismatch (or
    /// any action, violation, fallback or timer activity) drops the memo and
    /// the service is probed in full. Not serialized: a recovered scheduler
    /// re-probes everything.
    probe_memo: Option<ProbeMemo>,
}

/// The observation triple a quiescent probe is keyed on (see
/// [`AppRecord::probe_memo`]).
#[derive(Debug, Clone, PartialEq)]
struct ProbeMemo {
    sample: CounterSample,
    lat: LatencyStats,
    alloc: Allocation,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingKind {
    /// Algorithm 2 growth: withdrawn if it did not improve latency while
    /// the service still violates (resources were wasted).
    Growth,
    /// Algorithm 3 reclamation: withdrawn if QoS broke (paper, Alg. 3
    /// line 8).
    Reclaim,
}

#[derive(Debug, Clone)]
struct Pending {
    before: CounterSample,
    action: Action,
    kind: PendingKind,
    /// Allocation to restore if the action is withdrawn.
    rollback: Allocation,
}

/// The OSML scheduler: profiling module + central controller (Fig. 8/9).
///
/// Drive it through the [`Scheduler`] trait: call
/// [`Scheduler::on_arrival`] after launching a service and
/// [`Scheduler::tick`] once per simulated second.
#[derive(Debug, Clone)]
pub struct OsmlScheduler {
    config: OsmlConfig,
    models: Models,
    records: AppTable<AppRecord>,
    actions: usize,
    /// Timer wheel: cooldown expiries, blocked-action expiries and
    /// admission-queue deadlines pop here instead of being found by
    /// per-record scans.
    timers: TimerQueue,
    /// Reusable buffers for the model calls and the per-tick timer drain
    /// (allocation-free steady state). Never observable: every user clears
    /// or overwrites before reading.
    scratch: TickScratch,
    /// Model forward passes run in service of scheduling decisions
    /// (Model-A/B/B′ predictions, Model-C action selections). Diagnostic
    /// only — not serialized.
    decisions: u64,
    /// Simulated time of the most recent observed platform fault, feeding
    /// the watchdog's "platform unhealthy" attention window.
    last_fault_s: Option<f64>,
    /// Cumulative count of persistent (budget-exhausted) actuation
    /// failures; transactions compare before/after to decide rollback.
    persistent_failures: u32,
    /// Transaction nesting depth: only the outermost [`Self::transact`]
    /// snapshots and rolls back.
    txn_depth: u32,
    /// Ticks executed so far (stamps every unified-log event).
    ticks: u64,
    /// Observability pipeline; disabled (free) unless explicitly attached.
    telemetry: Telemetry,
    /// Overload management: admission queue, shed stack, brownout ledger.
    /// Inert (and cost-free) while `config.overload` is disabled.
    overload: OverloadState,
    /// The golden-thread unified event log: world facts, system decisions
    /// and operational telemetry as one typed, replayable stream. Every
    /// state-mutating site emits here (pinned by the emission-site audit
    /// test); write-only, so decisions are identical with or without it.
    unified: UnifiedLog,
    /// Test builds only: whether this scheduler runs as the scan-loop
    /// reference, and which engine mechanisms it has exercised.
    #[cfg(test)]
    oracle: reference::Oracle,
}

/// Reusable buffers for the tick engine: the fleet's resolved record slots,
/// the buffers every model call runs on, and the queue-deadline buffer.
#[derive(Debug, Clone, Default)]
struct TickScratch {
    /// The arena slot of each service's record this tick, by position in
    /// `server.apps()`: resolved once at the top of the tick, so that what
    /// runs once per service reaches its record without descending the
    /// index. See [`OsmlScheduler::resolve_records`] for why the slots may
    /// be held across the probe loop.
    slot_by_pos: Vec<Slot>,
    /// The input row and activations of a Model-A/B/B′/C call.
    model: Scratch,
    /// Queue-deadline tickets popped at tick start, handled inside
    /// `overload_control`, after the probe loop (the queue is only mutated
    /// between ticks and there, so deferring the events is safe).
    due_queue_deadlines: Vec<u64>,
}

/// The `(kind, provenance)` label the algorithms thread down to
/// [`OsmlScheduler::apply`], so the one actuation path emits a correctly
/// attributed [`Decision::Alloc`] for every caller.
#[derive(Debug, Clone, Copy)]
struct AllocOp {
    kind: ActionKind,
    provenance: Provenance,
}

impl AllocOp {
    const fn new(kind: ActionKind, provenance: Provenance) -> Self {
        AllocOp { kind, provenance }
    }
}

impl OsmlScheduler {
    /// Creates a scheduler from trained models.
    pub fn new(models: Models, config: OsmlConfig) -> Self {
        OsmlScheduler {
            config,
            models,
            records: AppTable::new(),
            actions: 0,
            timers: TimerQueue::default(),
            scratch: TickScratch::default(),
            decisions: 0,
            last_fault_s: None,
            persistent_failures: 0,
            txn_depth: 0,
            ticks: 0,
            telemetry: Telemetry::disabled(),
            overload: OverloadState::default(),
            unified: UnifiedLog::new(),
            #[cfg(test)]
            oracle: reference::Oracle::default(),
        }
    }

    /// Attaches an observability pipeline (builder-style). The default is
    /// [`Telemetry::disabled`], which costs nothing; an enabled pipeline is
    /// write-only, so decisions are identical either way.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches (or replaces) the observability pipeline in place.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached observability pipeline.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Replaces the configuration (builder-style; used by the ablation
    /// studies to vary one knob at a time on an already-trained scheduler).
    /// Rebuilds the timer wheel: queue deadlines depend on
    /// `overload.max_wait_ticks`, which the new config may change.
    pub fn with_config(mut self, config: OsmlConfig) -> Self {
        self.config = config;
        self.rebuild_timers();
        self
    }

    /// The one record of the run: the golden-thread unified event log
    /// (world facts + decisions + telemetry), sufficient for deterministic
    /// full-state replay and the source every report is a query over.
    pub fn unified_log(&self) -> &UnifiedLog {
        &self.unified
    }

    /// Records a layer-1 world fact on behalf of the driving harness
    /// (launches, removals, load changes, scripted arrivals coming due,
    /// injected faults). The scheduler itself only emits `TickElapsed`
    /// and `ControllerCrashed`; everything else about the world is the
    /// harness's to report.
    pub fn record_world(&mut self, time_s: f64, app: Option<AppId>, fact: WorldFact) {
        self.unified.push(self.ticks, time_s, app.map(|a| a.0), EventBody::World(fact));
    }

    /// Attaches a durable journal file to the unified log: every event is
    /// appended and flushed as it is pushed, giving the torn-tail-tolerant
    /// write-ahead stream crash recovery replays from.
    ///
    /// # Errors
    ///
    /// Propagates file-open failures.
    pub fn attach_unified_journal(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        self.unified.attach_journal(path)
    }

    /// Captures this scheduler's live state in [`ReplayState`] form (the
    /// substrate supplies the authoritative layouts), for bit-identity
    /// comparison against `crate::golden::replay` of the unified log.
    pub fn live_replay_state<S: Substrate>(&self, server: &S) -> ReplayState {
        let mut layouts = BTreeMap::new();
        for id in server.apps() {
            if let Some(alloc) = server.allocation(id) {
                layouts.insert(id.0, alloc);
            }
        }
        ReplayState {
            tick: self.ticks,
            actions: self.actions,
            layouts,
            queue: self.overload.queue.clone(),
            shed: self.overload.shed.clone(),
            shaved: self.overload.shaved.clone(),
            brownout_since: self.overload.brownout_since,
        }
    }

    /// Emits one layer-2 decision into the unified log.
    fn decide(&mut self, time_s: f64, app: Option<AppId>, decision: Decision) {
        self.unified.push(self.ticks, time_s, app.map(|a| a.0), EventBody::Decision(decision));
    }

    /// Emits a decision at the last seen timestamp (for sites with no
    /// clock in scope, e.g. ticket cancellation from the driver).
    fn decide_untimed(&mut self, app: Option<AppId>, decision: Decision) {
        self.unified.push_untimed(self.ticks, app.map(|a| a.0), EventBody::Decision(decision));
    }

    /// Emits one layer-3 operational-telemetry note (excluded from replay).
    fn note(&mut self, time_s: f64, app: Option<AppId>, note: TelemetryNote) {
        self.unified.push(self.ticks, time_s, app.map(|a| a.0), EventBody::Telemetry(note));
    }

    /// Logs every neighbour move a repack applied as a layer-2 decision
    /// (repacks bypass [`Self::apply`], so they need their own emission).
    fn note_repack(&mut self, now: f64, moves: &[(AppId, Allocation, Allocation)]) {
        for &(id, pre, post) in moves {
            self.decide(
                now,
                Some(id),
                Decision::Alloc {
                    kind: ActionKind::Repack,
                    provenance: Provenance::Controller,
                    pre: Some(pre),
                    post,
                    counts_as_action: false,
                },
            );
        }
    }

    /// Model-A's stored prediction for a service, if it was profiled.
    pub fn prediction(&self, id: AppId) -> Option<OaaPrediction> {
        self.records.get(&id).map(|r| r.prediction)
    }

    /// The model suite (e.g. to checkpoint Model-C for a warm restart).
    pub fn models(&self) -> &Models {
        &self.models
    }

    /// Whether `id` is currently driven by the heuristic fallback instead
    /// of the ML models (the QoS watchdog quarantined the model path).
    pub fn in_fallback(&self, id: AppId) -> bool {
        self.records.get(&id).map(|r| r.fallback).unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Plumbing
    // ------------------------------------------------------------------

    /// Executes one allocation change, counting it as a scheduling action.
    /// Transient failures were already retried by the [`Retrying`] wrapper;
    /// a transient error here means the whole budget was exhausted, which
    /// counts as a watchdog strike against the target service.
    fn apply<S: Substrate>(
        &mut self,
        server: &mut Retrying<'_, S>,
        id: AppId,
        alloc: Allocation,
        op: AllocOp,
    ) -> bool {
        let pre = server.allocation(id);
        let result = {
            let _span = self.telemetry.span("actuation.reallocate_us");
            server.reallocate(id, alloc)
        };
        self.note_faults(server);
        match result {
            Ok(()) => {
                self.actions += 1;
                self.decide(
                    server.now(),
                    Some(id),
                    Decision::Alloc {
                        kind: op.kind,
                        provenance: op.provenance,
                        pre,
                        post: alloc,
                        counts_as_action: true,
                    },
                );
                true
            }
            Err(e) => {
                self.telemetry.counter_add("scheduler.apply_failures", 1);
                if e.is_transient() {
                    if let Some(rec) = self.records.get_mut(&id) {
                        rec.failed_ml_actions += 1;
                    }
                }
                false
            }
        }
    }

    /// Drains the retry wrapper's observations into the event log and the
    /// watchdog's health state.
    fn note_faults<S: Substrate>(&mut self, server: &mut Retrying<'_, S>) {
        let stats = server.take_stats();
        if stats.is_empty() {
            return;
        }
        let now = server.now();
        if !stats.faults.is_empty() {
            self.last_fault_s = Some(now);
        }
        self.telemetry.counter_add("resilience.faults_observed", stats.faults.len() as u64);
        self.telemetry.counter_add("resilience.retries", stats.retried.len() as u64);
        self.telemetry.counter_add("resilience.persistent_failures", stats.persistent as u64);
        for app in stats.faults {
            self.note(now, Some(app), TelemetryNote::FaultObserved { transient: true });
        }
        for (app, attempts, backoff_ms) in stats.retried {
            self.note(now, Some(app), TelemetryNote::Retried { attempts, backoff_ms });
            self.telemetry.observe("actuation.retry_backoff_us", backoff_ms * 1e3);
        }
        self.persistent_failures += stats.persistent;
    }

    /// Whether a platform fault was observed recently enough that the
    /// watchdog should treat ineffective ML actions as suspect.
    fn platform_unhealthy(&self, now: f64) -> bool {
        self.last_fault_s.is_some_and(|t| now - t <= FAULT_ATTENTION_S)
    }

    /// Runs a compound allocation move transactionally: if `op` fails *and*
    /// some actuation inside it failed persistently (retry budget
    /// exhausted), every service is restored to its layout from before the
    /// move — a half-applied move under a flaky platform is worse than no
    /// move. Capacity failures without platform faults do not roll back
    /// (identical to the pre-resilience controller). Nested calls collapse
    /// into the outermost transaction.
    fn transact<'a, S: Substrate>(
        &mut self,
        server: &mut Retrying<'a, S>,
        op: impl FnOnce(&mut Self, &mut Retrying<'a, S>) -> bool,
    ) -> bool {
        self.txn_depth += 1;
        let snapshot: Vec<(AppId, Allocation)> = if self.txn_depth == 1 {
            server.apps().into_iter().filter_map(|a| server.allocation(a).map(|x| (a, x))).collect()
        } else {
            Vec::new()
        };
        let persistent_before = self.persistent_failures;
        let ok = op(self, server);
        self.txn_depth -= 1;
        if self.txn_depth > 0 {
            return ok;
        }
        // Repack moves inside `op` bypass `apply`; drain them before judging.
        self.note_faults(server);
        if ok || self.persistent_failures == persistent_before {
            return ok;
        }
        let mut restored = 0usize;
        for (id, alloc) in snapshot {
            let pre = server.allocation(id);
            if pre != Some(alloc) && server.reallocate(id, alloc).is_ok() {
                restored += 1;
                self.decide(
                    server.now(),
                    Some(id),
                    Decision::Alloc {
                        kind: ActionKind::Restore,
                        provenance: Provenance::Controller,
                        pre,
                        post: alloc,
                        counts_as_action: false,
                    },
                );
            }
        }
        self.note_faults(server);
        if restored > 0 {
            self.decide(server.now(), None, Decision::TransactionAborted { services: restored });
        }
        false
    }

    /// Samples `id`, validating the window: a dropped or NaN-poisoned
    /// sample is logged as a fault and degrades to the last good
    /// observation, so the models never ingest garbage.
    fn fresh_sample<S: Substrate>(
        &mut self,
        server: &Retrying<'_, S>,
        id: AppId,
    ) -> Option<CounterSample> {
        self.fresh_sample_at(server, self.records.slot_of(&id), id)
    }

    /// [`Self::fresh_sample`] for a caller that already holds `id`'s slot.
    fn fresh_sample_at<S: Substrate>(
        &mut self,
        server: &Retrying<'_, S>,
        slot: Slot,
        id: AppId,
    ) -> Option<CounterSample> {
        match server.sample(id) {
            Some(s) if s.is_valid() => {
                if let Some(rec) = self.records.at_mut(slot, id) {
                    rec.last_good = Some(s);
                }
                Some(s)
            }
            _ => {
                let now = server.now();
                self.note(now, Some(id), TelemetryNote::FaultObserved { transient: true });
                self.last_fault_s = Some(now);
                self.records.at(slot, id).and_then(|r| r.last_good)
            }
        }
    }

    /// One Model-A prediction with its inference span attached, counted as
    /// one decision.
    fn predict_oaa(&mut self, sample: &CounterSample) -> OaaPrediction {
        let _span = self.telemetry.span("model.a.predict_us");
        self.decisions += 1;
        self.models.model_a.predict(sample, &mut self.scratch.model)
    }

    /// One Model-B proposal at the deprivation budget (see
    /// [`OsmlScheduler::predict_oaa`]).
    fn propose_deprivation(&mut self, sample: &CounterSample) -> BPoints {
        let _span = self.telemetry.span("model.b.predict_us");
        self.decisions += 1;
        self.models.model_b.predict(sample, DEPRIVE_SLOWDOWN_BUDGET, &mut self.scratch.model)
    }

    /// One Model-B′ price (see [`OsmlScheduler::predict_oaa`]).
    fn price_slowdown(&mut self, sample: &CounterSample, dcores: usize, dways: usize) -> f64 {
        let _span = self.telemetry.span("model.b_prime.predict_us");
        self.decisions += 1;
        self.models.model_b_prime.predict(sample, dcores, dways, &mut self.scratch.model)
    }

    /// The allocation floor a deprivation may not push `victim` below.
    ///
    /// "OSML moves away from the OAA to somewhere close to RCliff (saving
    /// resources), but will not easily step into it" (§V-A): offers are
    /// clamped so a victim never drops below its predicted RCliff (or
    /// 1 core / 1 way if it was never profiled). If the prediction was
    /// optimistic, the pending-reclaim rollback restores the victim on the
    /// next sample. A victim meeting QoS at its current holding proves its
    /// true cliff lies below it, so with wide measured slack a stale floor
    /// above the holding is relaxed to allow at least one unit per
    /// dimension.
    fn victim_floor(
        &self,
        victim: AppId,
        vcores: usize,
        vways: usize,
        wide_slack: bool,
    ) -> (usize, usize) {
        let floor = self
            .records
            .get(&victim)
            .map(|r| (r.prediction.rcliff.cores, r.prediction.rcliff.ways))
            .unwrap_or((1, 1));
        if wide_slack {
            (floor.0.min(vcores.saturating_sub(1)), floor.1.min(vways.saturating_sub(1)))
        } else {
            floor
        }
    }

    /// Clamps a victim's three B-points into usable offers. Model-B
    /// proposes; Model-B′ verifies ("minimal impact on the current
    /// allocation status", Alg. 1 line 17): each offer shrinks until the
    /// shadow model prices it within the budget. When the victim's
    /// *measured* slack is wide, the measurement dominates the model — a
    /// service at half its latency budget can afford a 15 % slowdown
    /// regardless of what the learned surface says (deprivations are
    /// withdrawn on the next sample if wrong).
    fn usable_offer(
        &mut self,
        points: &BPoints,
        vs: &CounterSample,
        vcores: usize,
        vways: usize,
        floor: (usize, usize),
        wide_slack: bool,
    ) -> Vec<(usize, usize)> {
        points
            .iter()
            .map(|p| {
                let mut dc = p.cores.min(vcores.saturating_sub(floor.0));
                let mut dw = p.ways.min(vways.saturating_sub(floor.1));
                while !wide_slack
                    && (dc > 0 || dw > 0)
                    && self.price_slowdown(vs, dc, dw) > DEPRIVE_SLOWDOWN_BUDGET
                {
                    if dc >= dw && dc > 0 {
                        dc -= 1;
                    } else {
                        dw = dw.saturating_sub(1);
                    }
                }
                (dc, dw)
            })
            .collect()
    }

    /// Rebuilds the timer wheel from authoritative state (record deadlines
    /// and the admission queue). Events are hints, so this is a plain
    /// re-scheduling of every live deadline — called after recovery and
    /// after a config swap.
    fn rebuild_timers(&mut self) {
        self.timers.clear();
        self.scratch.due_queue_deadlines.clear();
        // Probe memos key on observations from the previous regime; a
        // recovery or config swap invalidates all of them.
        for rec in self.records.values_mut() {
            rec.probe_memo = None;
        }
        let now = self.ticks;
        for (&id, rec) in self.records.iter() {
            if rec.cooldown_until > now {
                self.timers.schedule(rec.cooldown_until, TimerEvent::CooldownExpiry(id));
            }
            for &(_, until) in &rec.blocked {
                if until > now {
                    self.timers.schedule(until, TimerEvent::BlockedExpiry(id));
                }
            }
        }
        let max_wait = self.config.overload.max_wait_ticks;
        for e in &self.overload.queue {
            self.timers.schedule_queue_deadline(e.enqueued_tick + max_wait, e.seq, e.ticket);
        }
    }

    /// Record resolution: one walk of the table's index finds every service's
    /// arena slot, and what runs once per service per tick goes through the
    /// slot. Slots stay authoritative for the whole probe loop because
    /// nothing in it admits or evicts a service (arrivals, departures,
    /// shedding and re-admission all happen outside it, and `tick` asserts
    /// as much); actions only rewrite records in place.
    fn resolve_records(&mut self, ids: &[AppId]) {
        #[cfg(test)]
        if self.oracle.scan {
            // The reference looks each record up by id at its service's turn.
            self.scratch.slot_by_pos = vec![Slot::VACANT; ids.len()];
            return;
        }
        self.records.resolve_into(ids, &mut self.scratch.slot_by_pos);
    }

    /// Tick prologue: pops every timer due at the current tick. Record
    /// timers are garbage-collected on the spot (idempotent — the
    /// authoritative deadline lives on the record, so a stale or duplicate
    /// event drops without effect). Queue deadlines are buffered and handled
    /// inside [`Self::overload_control`], after the probe loop.
    fn drain_due_timers(&mut self) {
        #[cfg(test)]
        if self.oracle.scan {
            return self.reference_prologue();
        }
        let now = self.ticks;
        while let Some(event) = self.timers.pop_due(now) {
            match event {
                TimerEvent::CooldownExpiry(id) => {
                    #[cfg(test)]
                    self.oracle.reach(Mechanism::CooldownExpiryPop);
                    if let Some(rec) = self.records.get_mut(&id) {
                        if rec.cooldown_until != 0 && rec.cooldown_until <= now {
                            rec.cooldown_until = 0;
                        }
                        // Timer state moved: re-probe in full (defensive — a
                        // memo can only exist with no cooldown armed).
                        rec.probe_memo = None;
                    }
                }
                TimerEvent::BlockedExpiry(id) => {
                    #[cfg(test)]
                    self.oracle.reach(Mechanism::BlockedExpiryPop);
                    if let Some(rec) = self.records.get_mut(&id) {
                        rec.blocked.retain(|&(_, until)| until > now);
                        rec.probe_memo = None;
                    }
                }
                TimerEvent::QueueDeadline { ticket } => {
                    self.scratch.due_queue_deadlines.push(ticket);
                }
            }
        }
    }

    /// Model-C action selection with its inference span attached, counted as
    /// one decision per consult.
    fn model_c_action_where(
        &mut self,
        sample: &CounterSample,
        eligible: impl FnMut(Action) -> bool,
    ) -> Option<Action> {
        let _span = self.telemetry.span("model.c.infer_us");
        self.decisions += 1;
        self.models.model_c.best_action_where(sample, &mut self.scratch.model, eligible)
    }

    /// Whether placement paths enforce strict overlap hygiene: whenever a
    /// core set is re-derived from a service's current holding, cores that
    /// another service also holds are subtracted first.
    ///
    /// On a packed machine `bootstrap_allocation` can transiently overlap
    /// neighbours until the first real placement; with overload management
    /// off that window is one profiling interval and the committed figure
    /// corpus was generated through it, so the legacy paths are kept
    /// bit-for-bit unless [`OsmlConfig::strict_layout`] opts in. Under
    /// overload management the window is wide open — admission churn,
    /// shed/restore and stale Algorithm-3 rollbacks can launder an overlap
    /// into a dedicated allocation and double-assign a core — so every
    /// re-derivation goes through the strict path (the overload harness
    /// checks the layout invariant every tick).
    fn strict_overlap(&self) -> bool {
        self.config.strict_layout || self.config.overload.is_enabled()
    }

    /// Picks `n` cores for `id` from the idle pool plus its own cores
    /// (minus overlapped cores when [`Self::strict_overlap`] demands it).
    fn pick_cores<S: Substrate>(&self, server: &S, id: AppId, n: usize) -> Option<CoreSet> {
        let topo = server.topology();
        let mut own = server.allocation(id).map(|a| a.cores).unwrap_or_default();
        if self.strict_overlap() {
            for other in server.apps() {
                if other != id {
                    if let Some(a) = server.allocation(other) {
                        own = own.difference(a.cores);
                    }
                }
            }
        }
        let pool = server.idle_cores().union(own);
        pool.pick_spread(topo, n)
    }

    /// Allocates `id` a dedicated `<cores, ways>` target if the machine has
    /// room (repacking masks as needed). Returns false if it does not fit.
    /// Transactional: a persistent actuation failure mid-repack restores
    /// every touched service instead of leaving a half-applied layout.
    fn try_allocate_dedicated<S: Substrate>(
        &mut self,
        server: &mut Retrying<'_, S>,
        id: AppId,
        cores: usize,
        ways: usize,
        op: AllocOp,
    ) -> bool {
        self.transact(server, |this, server| {
            let Some(core_set) = this.pick_cores(server, id, cores) else { return false };
            if free_way_run_after_repack(server, Some(id)) < ways {
                return false;
            }
            // Pack everyone else to the left, then take the free tail.
            let repack = repack_ways_with_last(server, None);
            this.note_repack(server.now(), &repack.moves);
            let Some(mask) = server.find_free_ways(ways, Some(id)) else { return false };
            let mba = server.allocation(id).map(|a| a.mba).unwrap_or_default();
            this.apply(server, id, Allocation::new(core_set, mask, mba), op)
        })
    }

    /// §V-B bandwidth scheduling: partition MBA throttles in proportion to
    /// each service's predicted OAA bandwidth (`BW_j / Σ BW_i`).
    fn repartition_bandwidth<S: Substrate>(&mut self, server: &mut Retrying<'_, S>) {
        if !self.config.manage_bandwidth {
            return;
        }
        let total: f64 = self
            .records
            .iter()
            .filter(|(id, _)| server.allocation(**id).is_some())
            .map(|(_, r)| r.prediction.oaa_bandwidth_gbps())
            .sum();
        if total <= 0.0 {
            return;
        }
        let ids: Vec<AppId> = server.apps();
        for id in ids {
            let Some(record) = self.records.get(&id) else { continue };
            let share = record.prediction.oaa_bandwidth_gbps() / total;
            let throttle = MbaThrottle::covering_fraction(share.max(0.1));
            if let Some(pre) = server.allocation(id) {
                if pre.mba != throttle {
                    let mut alloc = pre;
                    alloc.mba = throttle;
                    // MBA reprogramming is not an allocation action in the
                    // paper's overhead accounting; apply directly (retried
                    // by the wrapper, surfaced by the note_faults drain).
                    if server.reallocate(id, alloc).is_ok() {
                        self.decide(
                            server.now(),
                            Some(id),
                            Decision::Alloc {
                                kind: ActionKind::BandwidthRepartitioned,
                                provenance: Provenance::Controller,
                                pre: Some(pre),
                                post: alloc,
                                counts_as_action: false,
                            },
                        );
                    }
                }
            }
        }
        self.note_faults(server);
    }

    // ------------------------------------------------------------------
    // Overload management: typed admission, arrival queue, brownout
    // ------------------------------------------------------------------

    /// Arrivals currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.overload.queue.len()
    }

    /// Whether the controller is in its declared degraded state.
    pub(crate) fn in_brownout(&self) -> bool {
        self.overload.brownout_since.is_some()
    }

    /// Whether `ticket` still holds a seat (queued or shed). A ticket that
    /// stops waiting without being admitted timed out or was cancelled.
    pub fn is_waiting(&self, ticket: u64) -> bool {
        self.overload.is_waiting(ticket)
    }

    /// Services the controller shed during brownout that the harness has
    /// not yet withdrawn from the substrate. The harness must remove each
    /// from the substrate (their records are already gone — do **not** call
    /// `on_departure`) and treat the id as a waiting ticket.
    pub fn take_shed(&mut self) -> Vec<AppId> {
        self.overload.pending_shed.drain(..).map(AppId).collect()
    }

    /// Hands the harness one ticket to retry, consuming a banked retry
    /// credit: the most protected, oldest queued arrival first; with the
    /// queue empty (and brownout over), the most recently shed service.
    /// The harness relaunches the service and calls
    /// [`Scheduler::on_arrival_classed`]; until then the ticket is
    /// in-flight and cannot expire.
    pub fn poll_admission(&mut self) -> Option<u64> {
        if self.overload.in_flight.is_some() || self.overload.retry_credits == 0 {
            return None;
        }
        let ticket = if let Some(i) = self.overload.head_index() {
            Some(self.overload.queue[i].ticket)
        } else if self.overload.brownout_since.is_none() || self.overload.exit_streak > 0 {
            // Queue pressure is gone (or brownout is already winding down):
            // shed work returns LIFO — before the shave ledger is restored,
            // matching the reverse of the degradation order.
            self.overload.shed.last().map(|e| e.ticket)
        } else {
            None
        }?;
        self.overload.retry_credits -= 1;
        self.overload.in_flight = Some(ticket);
        Some(ticket)
    }

    /// Withdraws a waiting ticket (the scripted departure time of a
    /// still-queued arrival passed, or the harness gave up on it). Returns
    /// whether anything was removed.
    pub fn cancel_ticket(&mut self, ticket: u64) -> bool {
        if self.overload.in_flight == Some(ticket) {
            self.overload.in_flight = None;
        }
        let before = self.overload.queue.len() + self.overload.shed.len();
        self.overload.queue.retain(|e| e.ticket != ticket);
        self.overload.shed.retain(|e| e.ticket != ticket);
        let removed = before != self.overload.queue.len() + self.overload.shed.len();
        if removed {
            self.decide_untimed(Some(AppId(ticket)), Decision::Cancelled { ticket });
        }
        removed
    }

    /// Makes a rejection visible: typed decision + counter.
    /// Never an action — `action_count()` only moves when an allocation
    /// changes.
    fn note_rejection(&mut self, now: f64, app: Option<AppId>, reason: RejectReason) {
        self.decide(now, app, Decision::Rejected { reason });
        self.telemetry.counter_add("overload.rejections", 1);
    }

    /// A retried (previously queued or shed) arrival landed: release its
    /// seat and log the admission.
    fn settle_admitted(&mut self, now: f64, ticket: u64, id: AppId) {
        if let Some(pos) = self.overload.queue.iter().position(|e| e.ticket == ticket) {
            let entry = self.overload.queue.remove(pos);
            let waited = self.ticks.saturating_sub(entry.enqueued_tick);
            self.decide(now, Some(id), Decision::Admitted { ticket, waited_ticks: waited });
            self.telemetry.counter_add("overload.queue_admitted", 1);
        } else if let Some(pos) = self.overload.shed.iter().rposition(|e| e.ticket == ticket) {
            self.overload.shed.remove(pos);
            self.decide(now, Some(id), Decision::ShedReadmitted { ticket });
            self.telemetry.counter_add("overload.shed_readmitted", 1);
        }
    }

    /// Routes Algorithm 1's rejection through the admission controller:
    /// queue the arrival (bounded, priority-ordered) or reject it with a
    /// typed reason. A failed retry keeps its seat and its original wait
    /// clock.
    fn admission_decide(
        &mut self,
        now: f64,
        id: AppId,
        class: SloClass,
        reason: RejectReason,
        retry_of: Option<u64>,
    ) -> Placement {
        self.note_rejection(now, Some(id), reason);
        if let Some(ticket) = retry_of {
            if self.overload.is_waiting(ticket) {
                // The relaunched process is about to be withdrawn again;
                // its departure frees no new capacity.
                self.overload.suppress_credit_for = Some(id.0);
                return Placement::Deferred { ticket };
            }
        }
        let cfg = self.config.overload.clone();
        if !cfg.is_enabled() || reason == RejectReason::ProfilingFailed {
            return Placement::Rejected(reason);
        }
        if self.overload.queue.len() >= cfg.queue_depth {
            match self.overload.eviction_index() {
                Some(i) if self.overload.queue[i].class.rank() > class.rank() => {
                    let evicted = self.overload.queue.remove(i);
                    let app = Some(AppId(evicted.ticket));
                    self.decide(now, app, Decision::Evicted { ticket: evicted.ticket });
                    self.note_rejection(now, app, RejectReason::QueueFull);
                }
                _ => {
                    self.note_rejection(now, Some(id), RejectReason::QueueFull);
                    return Placement::Rejected(RejectReason::QueueFull);
                }
            }
        }
        let seq = self.overload.next_seq;
        self.overload.next_seq += 1;
        // The arrival was profiled before Algorithm 1 gave up, so its
        // RCliff (the smallest holding the controller would accept) is
        // known; brownout uses it to decide whether shedding can help.
        let (need_cores, need_ways) = self
            .records
            .get(&id)
            .map(|r| (r.prediction.rcliff.cores, r.prediction.rcliff.ways))
            .unwrap_or((0, 0));
        let entry = QueuedEntry {
            ticket: id.0,
            class,
            enqueued_tick: self.ticks,
            seq,
            need_cores,
            need_ways,
        };
        self.overload.queue.push(entry);
        self.decide(now, Some(id), Decision::Deferred { entry });
        // Arm the waiter's max-wait horizon; the entry's own seq is the
        // tie-break so same-tick timeouts drain in queue order.
        self.timers.schedule_queue_deadline(self.ticks + cfg.max_wait_ticks, seq, id.0);
        self.overload.suppress_credit_for = Some(id.0);
        self.telemetry.counter_add("overload.deferred", 1);
        Placement::Deferred { ticket: id.0 }
    }

    /// Per-tick overload work: expire stale waiters, watch for reclaim
    /// slack, and drive the brownout state machine. Returns immediately
    /// (zero cost, zero behavior change) while overload is disabled.
    fn overload_control<S: Substrate>(&mut self, server: &mut Retrying<'_, S>) {
        let cfg = self.config.overload.clone();
        if !cfg.is_enabled() {
            return;
        }
        let now = server.now();
        self.expire_due_waiters(now, &cfg);
        // Reclaim-slack retry signal: idle capacity grew since last tick
        // (Algorithm 3 reclaimed, a shave landed, a neighbour shrank).
        let idle = (server.idle_cores().count(), server.idle_way_count());
        if let Some(last) = self.overload.last_idle {
            if (idle.0 > last.0 || idle.1 > last.1) && self.overload.is_active() {
                self.overload.bank_credit();
            }
        }
        self.overload.last_idle = Some(idle);
        if cfg.brownout {
            self.brownout_control(server);
        }
        if self.telemetry.is_enabled() {
            self.telemetry.gauge_set("overload.queue_depth", self.overload.queue.len() as f64);
            self.telemetry.gauge_set("overload.shed_depth", self.overload.shed.len() as f64);
            let degraded = if self.overload.brownout_since.is_some() { 1.0 } else { 0.0 };
            self.telemetry.gauge_set("overload.brownout", degraded);
        }
    }

    /// Expires waiters past the max-wait horizon (the in-flight ticket is
    /// mid-retry and judged by its arrival instead). The deadline events
    /// popped at tick start are hints, each re-checked against the
    /// authoritative queue entry: stale events (admitted, cancelled) drop; an
    /// in-flight or reused ticket re-arms instead of expiring a fresh waiter.
    fn expire_due_waiters(&mut self, now: f64, cfg: &OverloadConfig) {
        #[cfg(test)]
        if self.oracle.scan {
            return self.reference_expire_waiters(now, cfg);
        }
        let in_flight = self.overload.in_flight;
        let ticks = self.ticks;
        let mut due = std::mem::take(&mut self.scratch.due_queue_deadlines);
        for ticket in due.drain(..) {
            let Some(pos) = self.overload.queue.iter().position(|e| e.ticket == ticket) else {
                continue;
            };
            let entry = self.overload.queue[pos];
            if Some(ticket) == in_flight {
                // Mid-retry: keeps its seat; re-check next tick.
                self.timers.schedule_queue_deadline(ticks + 1, entry.seq, ticket);
                continue;
            }
            let waited = ticks.saturating_sub(entry.enqueued_tick);
            if waited < cfg.max_wait_ticks {
                // The ticket number was reused by a newer entry; re-arm at
                // that entry's own horizon.
                self.timers.schedule_queue_deadline(
                    entry.enqueued_tick + cfg.max_wait_ticks,
                    entry.seq,
                    ticket,
                );
                continue;
            }
            #[cfg(test)]
            self.oracle.reach(Mechanism::QueueDeadlineTimeout);
            self.overload.queue.remove(pos);
            let app = Some(AppId(ticket));
            self.decide(now, app, Decision::TimedOut { ticket, waited_ticks: waited });
            self.note_rejection(now, app, RejectReason::WaitTimeout);
            self.telemetry.counter_add("overload.timeouts", 1);
        }
        self.scratch.due_queue_deadlines = due;
    }

    /// The brownout state machine: enter on sustained non-best-effort
    /// queue pressure, shave cheapest-priced slack (then shed best-effort
    /// LIFO) while pressure lasts, restore in reverse order and exit after
    /// a quiet hold.
    fn brownout_control<S: Substrate>(&mut self, server: &mut Retrying<'_, S>) {
        let now = server.now();
        let pressing = self
            .overload
            .queue
            .iter()
            .filter(|e| e.class != SloClass::BestEffort)
            .map(|e| self.ticks.saturating_sub(e.enqueued_tick))
            .max();
        let sustained = pressing.is_some_and(|w| w >= BROWNOUT_AFTER_TICKS);
        if sustained {
            if self.overload.brownout_since.is_none() {
                self.overload.brownout_since = Some(self.ticks);
                let queued = self.overload.queue.len();
                self.decide(now, None, Decision::BrownoutEntered { queued });
                self.telemetry.counter_add("overload.brownout_entries", 1);
            }
            self.overload.exit_streak = 0;
            let mut progressed = false;
            for _ in 0..SHAVE_STEP_BUDGET {
                if self.shave_step(server) {
                    progressed = true;
                } else {
                    break;
                }
            }
            if !progressed {
                // Pricing cannot cover the deficit: shed best-effort work.
                progressed = self.shed_step(server);
            }
            if progressed {
                self.overload.bank_credit();
            }
        } else if self.overload.brownout_since.is_some() {
            if self.overload.queue.is_empty() {
                self.overload.exit_streak += 1;
            } else {
                self.overload.exit_streak = 0;
            }
            // While winding down with shed work still parked, keep one
            // retry funded per tick so re-admission does not have to wait
            // for the next departure.
            if self.overload.exit_streak > 0 && !self.overload.shed.is_empty() {
                self.overload.bank_credit();
            }
            if self.overload.exit_streak >= BROWNOUT_EXIT_HOLD_TICKS {
                self.restore_step(server);
                if self.overload.shaved.is_empty() {
                    let entered = self.overload.brownout_since.take().expect("in brownout");
                    self.overload.exit_streak = 0;
                    // Load has subsided: fund the re-admission of shed work
                    // without waiting for the next departure.
                    self.overload.bank_credit();
                    let degraded = self.ticks.saturating_sub(entered);
                    self.decide(now, None, Decision::BrownoutExited { ticks_degraded: degraded });
                }
            }
        }
    }

    /// One brownout shave: take one core *or* one way from the service
    /// where Model-B′ prices the unit cheapest, respecting each class's
    /// cumulative slowdown ceiling. Only services with real QoS slack are
    /// candidates — brownout trades headroom, it does not manufacture new
    /// violations. Returns whether a shave landed.
    fn shave_step<S: Substrate>(&mut self, server: &mut Retrying<'_, S>) -> bool {
        let mut candidates: Vec<(AppId, Allocation, f64)> = Vec::new();
        for id in server.apps() {
            let Some(rec) = self.records.get(&id) else { continue };
            let ceiling = slowdown_ceiling(rec.class);
            let already: f64 =
                self.overload.shaved.iter().filter(|s| s.app == id.0).map(|s| s.priced).sum();
            if already >= ceiling {
                continue;
            }
            if server.latency(id).map(|l| l.qos_slack() < 0.1).unwrap_or(true) {
                continue;
            }
            let Some(alloc) = server.allocation(id) else { continue };
            if alloc.cores.count() <= 1 && alloc.ways.count() <= 1 {
                continue;
            }
            candidates.push((id, alloc, ceiling - already));
        }
        let mut best: Option<(f64, u64, Allocation, usize, usize)> = None;
        for (id, alloc, headroom) in candidates {
            let Some(sample) = self.fresh_sample(server, id) else { continue };
            for (dc, dw) in [(1usize, 0usize), (0, 1)] {
                if (dc == 1 && alloc.cores.count() <= 1) || (dw == 1 && alloc.ways.count() <= 1) {
                    continue;
                }
                let price = self.price_slowdown(&sample, dc, dw);
                if price > headroom {
                    continue;
                }
                if best.as_ref().is_none_or(|b| (price, id.0) < (b.0, b.1)) {
                    best = Some((price, id.0, alloc, dc, dw));
                }
            }
        }
        let Some((price, raw_id, old, dc, dw)) = best else { return false };
        let victim = AppId(raw_id);
        let keep = old.cores.count() - dc;
        let Some(kept_cores) = old.cores.pick_spread(server.topology(), keep) else {
            return false;
        };
        let mut alloc = old;
        alloc.cores = kept_cores;
        alloc.ways = old.ways.resized(-(dw as i32), server.topology().llc_ways());
        let op = AllocOp::new(ActionKind::Deprive, Provenance::ModelBPrime);
        if !self.apply(server, victim, alloc, op) {
            return false;
        }
        self.decide(server.now(), Some(victim), Decision::Shaved { price, original: old });
        match self.overload.shaved.iter_mut().find(|s| s.app == victim.0) {
            Some(s) => s.priced += price,
            None => self.overload.shaved.push(ShaveRecord {
                app: victim.0,
                original: old,
                priced: price,
            }),
        }
        self.telemetry.counter_add("overload.shaves", 1);
        true
    }

    /// Sheds the most recently admitted best-effort service (LIFO). Its
    /// record moves to the shed stack for re-admission after brownout; the
    /// harness withdraws the process via [`Self::take_shed`]. Never touches
    /// latency-critical or degradable services, and never sheds at all when
    /// even the whole best-effort tier cannot cover the head waiter's
    /// recorded demand — an infeasible shed is a pure goodput loss.
    fn shed_step<S: Substrate>(&mut self, server: &mut Retrying<'_, S>) -> bool {
        let best_effort: Vec<AppId> = server
            .apps()
            .into_iter()
            .filter(|id| self.records.get(id).is_some_and(|r| r.class == SloClass::BestEffort))
            .collect();
        let victim = best_effort.iter().copied().max_by_key(|id| id.0);
        let Some(victim) = victim else { return false };
        if let Some(head) = self.overload.head_index().map(|i| self.overload.queue[i]) {
            let be_cores: usize = best_effort
                .iter()
                .filter_map(|&id| server.allocation(id))
                .map(|a| a.cores.count())
                .sum();
            let be_ways: usize = best_effort
                .iter()
                .filter_map(|&id| server.allocation(id))
                .map(|a| a.ways.count())
                .sum();
            let cores_reachable = server.idle_cores().count() + be_cores >= head.need_cores;
            let ways_reachable = server.idle_way_count() + be_ways >= head.need_ways;
            if !(cores_reachable && ways_reachable) {
                return false;
            }
        }
        let now = server.now();
        self.records.remove(&victim);
        self.overload.shaved.retain(|s| s.app != victim.0);
        self.overload.shed.push(ShedEntry {
            ticket: victim.0,
            class: SloClass::BestEffort,
            shed_tick: self.ticks,
        });
        self.overload.pending_shed.push(victim.0);
        let entry = *self.overload.shed.last().expect("just pushed");
        self.decide(now, Some(victim), Decision::Shed { entry });
        self.telemetry.counter_add("overload.shed", 1);
        true
    }

    /// Restores shaved services to their pre-brownout allocations in
    /// reverse shave order, stopping at the first one the machine cannot
    /// fit yet (brownout stays open until the ledger drains).
    fn restore_step<S: Substrate>(&mut self, server: &mut Retrying<'_, S>) {
        while let Some(shave) = self.overload.shaved.last().copied() {
            let id = AppId(shave.app);
            let now = server.now();
            let Some(cur) = server.allocation(id) else {
                self.overload.shaved.pop();
                self.decide(now, Some(id), Decision::ShaveSettled);
                continue;
            };
            if !self.records.contains_key(&id) {
                self.overload.shaved.pop();
                self.decide(now, Some(id), Decision::ShaveSettled);
                continue;
            }
            let want_cores = shave.original.cores.count().max(cur.cores.count());
            let want_ways = shave.original.ways.count().max(cur.ways.count());
            if want_cores == cur.cores.count() && want_ways == cur.ways.count() {
                self.overload.shaved.pop(); // regrew on its own
                self.decide(now, Some(id), Decision::ShaveSettled);
                continue;
            }
            let op = AllocOp::new(ActionKind::Restore, Provenance::Controller);
            if self.try_allocate_dedicated(server, id, want_cores, want_ways, op) {
                self.telemetry.counter_add("overload.restores", 1);
                self.overload.shaved.pop();
                self.decide(server.now(), Some(id), Decision::ShaveSettled);
            } else {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 1: placement via Model-A, deprivation via Model-B
    // ------------------------------------------------------------------

    fn algorithm_1<S: Substrate>(&mut self, server: &mut Retrying<'_, S>, id: AppId) -> Placement {
        // Lines 1-3: profile for the sampling window, consult Model-A.
        server.advance(self.config.sampling_window_s);
        // A dropped or corrupt profiling window would poison the Model-A
        // prediction this service keeps until its first clean tick; extend
        // the profiling phase and re-sample instead (a clean first window
        // passes through untouched).
        let mut sample = server.sample(id).filter(CounterSample::is_valid);
        for _ in 0..3 {
            if sample.is_some() {
                break;
            }
            let now = server.now();
            self.note(now, Some(id), TelemetryNote::FaultObserved { transient: true });
            self.last_fault_s = Some(now);
            server.advance(0.5);
            sample = server.sample(id).filter(CounterSample::is_valid);
        }
        let Some(sample) = sample else {
            return Placement::Rejected(RejectReason::ProfilingFailed);
        };
        let prediction = self.predict_oaa(&sample);
        self.records.insert(
            id,
            AppRecord {
                prediction,
                pending: None,
                cooldown_until: 0,
                blocked: Vec::new(),
                reclaim_floor: None,
                migration_requested: false,
                violation_ticks: 0,
                last_good: Some(sample),
                failed_ml_actions: 0,
                fallback: false,
                fallback_ok_ticks: 0,
                class: SloClass::default(),
                probe_memo: None,
            },
        );
        self.decide(
            server.now(),
            Some(id),
            Decision::Profiled {
                oaa_cores: prediction.oaa.cores,
                oaa_ways: prediction.oaa.ways,
                rcliff_cores: prediction.rcliff.cores,
                rcliff_ways: prediction.rcliff.ways,
            },
        );

        // Ablation (§IV-D): with Model-A/B disabled, stay on the bootstrap
        // allocation and let Model-C explore from scratch.
        if !self.config.placement_via_models {
            return Placement::Placed;
        }

        // Lines 4-6: idle resources suffice for the OAA.
        let place = AllocOp::new(ActionKind::Place, Provenance::ModelA);
        if self.try_allocate_dedicated(server, id, prediction.oaa.cores, prediction.oaa.ways, place)
        {
            self.repartition_bandwidth(server);
            return Placement::Placed;
        }

        // Lines 7-22: deprive neighbours via Model-B, trying the OAA first
        // and the RCliff as the fallback target (line 19).
        for target in [prediction.oaa, prediction.rcliff] {
            if self.deprive_and_allocate(server, id, target.cores, target.ways, place) {
                self.repartition_bandwidth(server);
                return Placement::Placed;
            }
        }

        // Line 21 + Algorithm 4: share resources if the neighbours can
        // absorb it...
        let own_cores = server.allocation(id).map(|a| a.cores.count()).unwrap_or(0);
        let idle_cores = server.idle_cores().count() + own_cores;
        let free_ways = free_way_run_after_repack(server, Some(id));
        let need_cores = prediction.oaa.cores.saturating_sub(idle_cores);
        let need_ways = prediction.oaa.ways.saturating_sub(free_ways);
        if self.algorithm_4(server, id, need_cores, need_ways) == Placement::Placed {
            return Placement::Placed;
        }
        // ...otherwise place best-effort on whatever is idle and let the
        // dynamic loop (Algorithms 2/3, Fig. 9's QoS monitor) keep working
        // the allocation toward the OAA as neighbours release resources.
        // The migration request has already been logged for the upper
        // scheduler; meanwhile the service runs as well as the machine
        // allows.
        let idle = server.idle_cores().count()
            + server.allocation(id).map(|a| a.cores.count()).unwrap_or(0);
        let free = free_way_run_after_repack(server, Some(id)).max(1);
        let cores = prediction.oaa.cores.min(idle.max(1));
        let ways = prediction.oaa.ways.min(free);
        if self.try_allocate_dedicated(server, id, cores, ways, place) {
            self.repartition_bandwidth(server);
            Placement::Placed
        } else {
            Placement::Rejected(RejectReason::InsufficientResources)
        }
    }

    /// Model-B matching (Algorithm 1, lines 8-19): find at most
    /// `max_deprived_apps` neighbours whose B-points cover the deficit,
    /// preferring fewer victims, then less total deprivation. Transactional:
    /// victims are not left deprived if the newcomer's allocation then
    /// fails persistently.
    fn deprive_and_allocate<S: Substrate>(
        &mut self,
        server: &mut Retrying<'_, S>,
        id: AppId,
        target_cores: usize,
        target_ways: usize,
        op: AllocOp,
    ) -> bool {
        self.transact(server, |this, server| {
            this.deprive_and_allocate_inner(server, id, target_cores, target_ways, op)
        })
    }

    fn deprive_and_allocate_inner<S: Substrate>(
        &mut self,
        server: &mut Retrying<'_, S>,
        id: AppId,
        target_cores: usize,
        target_ways: usize,
        op: AllocOp,
    ) -> bool {
        let own = server.allocation(id).map(|a| a.cores).unwrap_or_default();
        let idle_cores = server.idle_cores().union(own).count();
        let free_ways = free_way_run_after_repack(server, Some(id));
        let need_cores = target_cores.saturating_sub(idle_cores);
        let need_ways = target_ways.saturating_sub(free_ways);
        if need_cores == 0 && need_ways == 0 {
            return self.try_allocate_dedicated(server, id, target_cores, target_ways, op);
        }

        // Line 10-15: collect every neighbour's B-points.
        let mut offers: Vec<(AppId, Vec<(usize, usize)>)> = Vec::new();
        for victim in server.apps() {
            if victim == id {
                continue;
            }
            // Line 11: only victims that "can tolerate a certain QoS
            // slowdown" — a service already violating (or with no slack)
            // has nothing to give.
            if server.latency(victim).map(|l| l.qos_slack() < 0.05).unwrap_or(true) {
                continue;
            }
            let Some(vs) = self.fresh_sample(server, victim) else { continue };
            let Some(valloc) = server.allocation(victim) else { continue };
            let points = self.propose_deprivation(&vs);
            // When the victim's *measured* slack is wide, the measurement
            // dominates the model — a service at half its latency budget
            // can afford a 15 % slowdown regardless of what the learned
            // surface says (deprivations are withdrawn if wrong).
            let wide_slack = server.latency(victim).map(|l| l.qos_slack() > 0.4).unwrap_or(false);
            let (cores, ways) = (valloc.cores.count(), valloc.ways.count());
            let floor = self.victim_floor(victim, cores, ways, wide_slack);
            let usable = self.usable_offer(&points, &vs, cores, ways, floor, wide_slack);
            offers.push((victim, usable));
        }

        // Lines 16-17: best-fit search over subsets of ≤ 3 victims, each
        // contributing one of its three B-points.
        let best = best_fit_combo(&offers, need_cores, need_ways, self.config.max_deprived_apps);
        let Some(combo) = best else { return false };

        // Execute the deprivations. Each is registered as a pending
        // reclamation on the victim: if the victim's QoS breaks at the next
        // sample, the deprivation is withdrawn (§V-A.2: "the corresponding
        // actions will be withdrawn").
        for &(victim, (dc, dw)) in &combo {
            let Some(old) = server.allocation(victim) else { continue };
            let Some(vsample) = self.fresh_sample(server, victim) else { continue };
            let mut alloc = old;
            let keep = old.cores.count() - dc;
            alloc.cores =
                old.cores.pick_spread(server.topology(), keep).expect("keep <= current count");
            alloc.ways = old.ways.resized(-(dw as i32), server.topology().llc_ways());
            if self.apply(
                server,
                victim,
                alloc,
                AllocOp::new(ActionKind::Deprive, Provenance::ModelB),
            ) {
                if let Some(rec) = self.records.get_mut(&victim) {
                    if rec.pending.is_none() {
                        rec.pending = Some(Pending {
                            before: vsample,
                            action: Action {
                                dcores: -(dc as i32).min(3),
                                dways: -(dw as i32).min(3),
                            },
                            kind: PendingKind::Reclaim,
                            rollback: old,
                        });
                    }
                }
            }
        }
        self.try_allocate_dedicated(server, id, target_cores, target_ways, op)
    }

    // ------------------------------------------------------------------
    // Algorithm 2: QoS violation -> Model-C growth
    // ------------------------------------------------------------------

    fn algorithm_2<S: Substrate>(
        &mut self,
        server: &mut Retrying<'_, S>,
        id: AppId,
        sample: CounterSample,
    ) {
        let Some(alloc) = server.allocation(id) else { return };
        let idle_cores = server.idle_cores().count() + alloc.cores.count();
        let free_ways = free_way_run_after_repack(server, Some(id)).max(alloc.ways.count());

        // Line 4: Model-C selects an action; under a violation only growth
        // actions are eligible, and only ones the machine can actually
        // satisfy from idle resources (line 6's check, folded into the
        // action choice so Model-C never stalls on an unachievable axis).
        let blocked: Vec<Action> = self
            .records
            .get(&id)
            .map(|r| {
                r.blocked
                    .iter()
                    .filter(|&&(_, until)| until > self.ticks)
                    .map(|&(a, _)| a)
                    .collect()
            })
            .unwrap_or_default();
        let achievable = |a: Action| -> bool {
            if a.dcores < 0 || a.dways < 0 || a == Action::noop() || blocked.contains(&a) {
                return false;
            }
            let cores_ok = a.dcores == 0 || alloc.cores.count() + a.dcores as usize <= idle_cores;
            let ways_ok = a.dways == 0
                || (alloc.ways.count() + a.dways as usize).min(server.topology().llc_ways())
                    <= free_ways;
            cores_ok && ways_ok
        };
        let chosen = self.model_c_action_where(&sample, achievable);
        let grow = AllocOp::new(ActionKind::Grant, Provenance::ModelC);
        if let Some(action) = chosen {
            let want_cores = alloc.cores.count() + action.dcores as usize;
            let want_ways =
                (alloc.ways.count() + action.dways as usize).min(server.topology().llc_ways());
            if self.try_allocate_dedicated(server, id, want_cores, want_ways, grow) {
                if let Some(rec) = self.records.get_mut(&id) {
                    rec.pending = Some(Pending {
                        before: sample,
                        action,
                        kind: PendingKind::Growth,
                        rollback: alloc,
                    });
                }
                return;
            }
        }

        // Line 8-9: idle resources cannot satisfy any growth. Ask Model-C
        // what it wants, then try to free it from neighbours through
        // Model-B (the controller "enables the ML models" on violation,
        // §VI-D-3), and finally consider sharing (Algorithm 4).
        let wanted = self
            .model_c_action_where(&sample, |a| a.dcores >= 0 && a.dways >= 0 && a != Action::noop())
            .unwrap_or(Action { dcores: 1, dways: 1 });
        // If neighbours cannot fund Model-C's preferred step, fall back to
        // smaller ones — a single core or way still beats stalling.
        let ladder = [
            wanted,
            Action { dcores: 1, dways: 1 },
            Action { dcores: 1, dways: 0 },
            Action { dcores: 0, dways: 1 },
        ];
        let mut tried: Vec<Action> = Vec::new();
        let mut target_cores = alloc.cores.count() + wanted.dcores as usize;
        let mut target_ways =
            (alloc.ways.count() + wanted.dways as usize).min(server.topology().llc_ways());
        for step in ladder {
            if tried.contains(&step) || blocked.contains(&step) {
                continue;
            }
            tried.push(step);
            target_cores = alloc.cores.count() + step.dcores as usize;
            target_ways =
                (alloc.ways.count() + step.dways as usize).min(server.topology().llc_ways());
            if self.deprive_and_allocate(server, id, target_cores, target_ways, grow) {
                if let Some(rec) = self.records.get_mut(&id) {
                    rec.pending = Some(Pending {
                        before: sample,
                        action: step,
                        kind: PendingKind::Growth,
                        rollback: alloc,
                    });
                }
                return;
            }
        }
        // Sharing is the exceptional last resort (§V-A: "only enabling
        // resource sharing in exceptional cases"): require the violation to
        // have persisted before crossing the RCliff into a neighbour's
        // allocation.
        let persistent = self.records.get(&id).map(|r| r.violation_ticks >= 2).unwrap_or(false);
        if !persistent {
            return;
        }
        let need_cores = target_cores.saturating_sub(idle_cores);
        let need_ways = target_ways.saturating_sub(free_ways);
        if matches!(self.algorithm_4(server, id, need_cores, need_ways), Placement::Rejected(_)) {
            let already = self.records.get(&id).map(|r| r.migration_requested).unwrap_or(false);
            if !already {
                self.decide(server.now(), Some(id), Decision::MigrationRequested);
                if let Some(rec) = self.records.get_mut(&id) {
                    rec.migration_requested = true;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 3: surplus -> Model-C reclamation (with rollback)
    // ------------------------------------------------------------------

    /// Returns `Some(held allocation)` when the probe was *quiescent*:
    /// every early return whose outcome is a pure function of the
    /// `(sample, latency, allocation)` observation — the proven-floor hold
    /// and the no-surplus check — with no cooldown pending and no state
    /// mutated. A quiescent return is what the dirty-set memo caches: repeating the probe on the identical observation
    /// provably repeats the return, and handing back the allocation this
    /// probe already fetched lets the memo key on it without a second
    /// substrate query. Cooldown waits, floor clears, and every action
    /// path return `None`.
    fn algorithm_3<S: Substrate>(
        &mut self,
        server: &mut Retrying<'_, S>,
        slot: Slot,
        id: AppId,
        sample: CounterSample,
    ) -> Option<Allocation> {
        let record = self.records.at_mut(slot, id)?;
        if record.cooldown_until > self.ticks {
            return None; // waiting, not settled: the cooldown will expire
        }
        // A proven floor silences probing while the workload is unchanged.
        if let Some((fc, fw, cpu)) = record.reclaim_floor {
            let same_load = (sample.cpu_usage - cpu).abs() <= 0.15 * cpu.max(0.5);
            let held = server.allocation(id);
            let at_floor =
                held.map(|a| a.cores.count() <= fc && a.ways.count() <= fw).unwrap_or(false);
            if same_load && at_floor {
                return held; // at_floor implies the allocation exists
            }
            if !same_load {
                record.reclaim_floor = None;
            }
        }
        let cliff = record.prediction.rcliff;
        let alloc = server.allocation(id)?;
        // Line 2: only for dimensions exceeding RCliff + margin (a service
        // can be core-surplus while way-tight, and vice versa).
        let cores_surplus = alloc.cores.count() > cliff.cores + SURPLUS_MARGIN;
        let ways_surplus = alloc.ways.count() > cliff.ways + SURPLUS_MARGIN;
        if !cores_surplus && !ways_surplus {
            // Quiescent even if a stale floor was cleared above: the clear
            // already landed, so re-running this probe on the identical
            // observation is a pure no-op ending right here.
            return Some(alloc);
        }
        let action = self
            .model_c_action_where(&sample, |a| {
                a.dcores <= 0
                    && a.dways <= 0
                    && a != Action::noop()
                    && (cores_surplus || a.dcores == 0)
                    && (ways_surplus || a.dways == 0)
            })
            .unwrap_or(Action {
                dcores: if cores_surplus { -1 } else { 0 },
                dways: if ways_surplus { -1 } else { 0 },
            });
        // Never reclaim below the cliff itself — and never "reclaim" upward
        // (a refreshed cliff prediction can sit above the current holding).
        let new_cores = ((alloc.cores.count() as i32 + action.dcores).max(cliff.cores as i32)
            as usize)
            .min(alloc.cores.count());
        let new_ways = ((alloc.ways.count() as i32 + action.dways).max(cliff.ways as i32) as usize)
            .min(alloc.ways.count());
        if new_cores == alloc.cores.count() && new_ways == alloc.ways.count() {
            // Not quiescent: the clamp outcome depends on Model-C's online
            // weights, which move between ticks — the next identical
            // observation may clamp differently.
            return None;
        }
        let rollback = alloc;
        let mut shrunk = alloc;
        shrunk.cores =
            alloc.cores.pick_spread(server.topology(), new_cores).expect("shrinking own cores");
        shrunk.ways = alloc
            .ways
            .resized(new_ways as i32 - alloc.ways.count() as i32, server.topology().llc_ways());
        if self.apply(server, id, shrunk, AllocOp::new(ActionKind::Reclaim, Provenance::ModelC)) {
            if let Some(rec) = self.records.at_mut(slot, id) {
                rec.pending =
                    Some(Pending { before: sample, action, kind: PendingKind::Reclaim, rollback });
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Algorithm 4: sharing across the RCliff, or migration
    // ------------------------------------------------------------------

    fn algorithm_4<S: Substrate>(
        &mut self,
        server: &mut Retrying<'_, S>,
        id: AppId,
        need_cores: usize,
        need_ways: usize,
    ) -> Placement {
        if !self.records.contains_key(&id) {
            return Placement::Rejected(RejectReason::InsufficientResources);
        }
        let Some(alloc) = server.allocation(id) else {
            return Placement::Rejected(RejectReason::InsufficientResources);
        };
        // Line 1's deficit is computed by the caller (from Model-A at
        // placement, from Model-C's request in the dynamic loop). Nothing
        // to share means sharing cannot help.
        if need_cores == 0 && need_ways == 0 {
            return Placement::Rejected(RejectReason::InsufficientResources);
        }
        let target = self.records.get(&id).expect("checked above").prediction.oaa;

        // Core time-sharing between latency-critical services collapses both
        // (split cycles plus context switches), so sharing is LLC-way only —
        // the flexibility the paper emphasizes ("OSML allows flexible
        // sharing [of] some of the LLC ways among microservices", §VI-B). A
        // core deficit that idle resources cannot cover means migration.
        if need_cores > 0 {
            return Placement::Rejected(RejectReason::InsufficientResources);
        }
        // Sharing is a last-resort nudge, not a rescue for a deeply
        // overloaded service (those need migration), and never a landgrab.
        let deep_overload =
            server.latency(id).map(|l| l.p95_ms > 10.0 * l.qos_target_ms).unwrap_or(false);
        if need_ways > 6 || deep_overload {
            return Placement::Rejected(RejectReason::InsufficientResources);
        }

        // Lines 2-5: price sharing with each potential neighbour via
        // Model-B′; strict `<`, so the first neighbour wins ties.
        let mut best: Option<(AppId, f64)> = None;
        for neighbor in server.apps() {
            if neighbor == id {
                continue;
            }
            // Only neighbours with QoS slack can absorb a slowdown.
            if server.latency(neighbor).map(|l| l.qos_slack() < 0.05).unwrap_or(true) {
                continue;
            }
            let Some(ns) = self.fresh_sample(server, neighbor) else { continue };
            let Some(nalloc) = server.allocation(neighbor) else { continue };
            if nalloc.ways.count() <= need_ways {
                continue;
            }
            let slowdown = self.price_slowdown(&ns, 0, need_ways);
            if best.is_none_or(|(_, s)| slowdown < s) {
                best = Some((neighbor, slowdown));
            }
        }

        // Lines 6-10: share if acceptable, else migrate.
        match best {
            Some((neighbor, slowdown)) if slowdown <= SHARING_SLOWDOWN_BUDGET => {
                let mut shared = alloc;
                // Cores come only from the service's own holding plus idle.
                // The holding can still be the bootstrap allocation, which
                // may overlap neighbours — under `strict_overlap` cores
                // another service holds are excluded (same rule as
                // `pick_cores`).
                let mut own = alloc.cores;
                if self.strict_overlap() {
                    for other in server.apps() {
                        if other != id {
                            if let Some(a) = server.allocation(other) {
                                own = own.difference(a.cores);
                            }
                        }
                    }
                }
                shared.cores = own.union(server.idle_cores());
                // Share ways: overlap the neighbour's mask by `need_ways`
                // (grow toward it after placing our mask adjacent).
                let repack = repack_ways_with_last(server, Some(neighbor));
                self.note_repack(server.now(), &repack.moves);
                let nalloc = server.allocation(neighbor).expect("neighbor is placed");
                let overlap_first = nalloc.ways.first();
                let own_ways =
                    alloc.ways.count().max(target.ways.saturating_sub(need_ways)).min(target.ways);
                let start = overlap_first.saturating_sub(own_ways);
                let len = (own_ways + need_ways)
                    .min(target.ways + need_ways)
                    .min(server.topology().llc_ways() - start);
                if let Ok(mask) = WayMask::contiguous(start, len.max(1)) {
                    shared.ways = mask;
                }
                // Re-proposing the current allocation would be a no-op spin,
                // not a scheduling action.
                if shared == server.allocation(id).expect("id is placed") {
                    return Placement::Rejected(RejectReason::InsufficientResources);
                }
                if self.apply(
                    server,
                    id,
                    shared,
                    AllocOp::new(ActionKind::Share, Provenance::ModelBPrime),
                ) {
                    self.repartition_bandwidth(server);
                    return Placement::Placed;
                }
                Placement::Rejected(RejectReason::InsufficientResources)
            }
            _ => {
                self.decide(server.now(), Some(id), Decision::MigrationRequested);
                Placement::Rejected(RejectReason::InsufficientResources)
            }
        }
    }

    // ------------------------------------------------------------------
    // Heuristic fallback (QoS watchdog quarantine)
    // ------------------------------------------------------------------

    /// The conservative policy driving a quarantined service: one-step
    /// grant toward the stored OAA from idle resources only. No model is
    /// consulted, no neighbour is deprived, nothing is reclaimed — under a
    /// misbehaving platform the safe direction is toward the allocation
    /// Model-A considered sufficient, one unit at a time.
    fn heuristic_grow<S: Substrate>(&mut self, server: &mut Retrying<'_, S>, id: AppId) {
        let Some(alloc) = server.allocation(id) else { return };
        let Some(record) = self.records.get(&id) else { return };
        let oaa = record.prediction.oaa;
        let idle_cores = server.idle_cores().count() + alloc.cores.count();
        let free_ways = free_way_run_after_repack(server, Some(id)).max(alloc.ways.count());
        let cur_cores = alloc.cores.count();
        let cur_ways = alloc.ways.count();
        let want_cores = (cur_cores + 1).min(oaa.cores.max(cur_cores)).min(idle_cores);
        let want_ways = (cur_ways + 1).min(oaa.ways.max(cur_ways)).min(free_ways);
        if want_cores <= cur_cores && want_ways <= cur_ways {
            return;
        }
        let (want_cores, want_ways) = (want_cores.max(cur_cores), want_ways.max(cur_ways));
        let op = AllocOp::new(ActionKind::Grant, Provenance::Heuristic);
        self.try_allocate_dedicated(server, id, want_cores, want_ways, op);
    }

    /// One tick of a quarantined service: count healthy ticks toward leaving
    /// fallback, or grow heuristically while it violates.
    fn fallback_probe<S: Substrate>(
        &mut self,
        server: &mut Retrying<'_, S>,
        slot: Slot,
        id: AppId,
        lat: &LatencyStats,
    ) {
        let now = server.now();
        let unhealthy = self.platform_unhealthy(now);
        let Some(record) = self.records.at_mut(slot, id) else { return };
        let violating = guarded_violation(lat);
        if !violating && !unhealthy {
            record.fallback_ok_ticks += 1;
            if record.fallback_ok_ticks >= FALLBACK_RECOVERY_TICKS {
                let healthy_ticks = record.fallback_ok_ticks;
                record.fallback = false;
                record.failed_ml_actions = 0;
                record.fallback_ok_ticks = 0;
                record.violation_ticks = 0;
                self.decide(now, Some(id), Decision::FallbackRecovered { healthy_ticks });
            }
        } else {
            record.fallback_ok_ticks = 0;
            if violating {
                record.violation_ticks += 1;
                self.heuristic_grow(server, id);
            }
        }
    }

    /// Completes a pending Model-C observation: builds the
    /// `<Status, Action, Reward, Status'>` tuple, trains online, and
    /// withdraws actions that did not pay off — reclamations that broke QoS
    /// (Algorithm 3, lines 7-9) and growths that burned resources without
    /// improving a still-violating service.
    /// A pending action's rollback image can be stale by the time it is
    /// applied: cores the service gave up may since have been granted to a
    /// neighbour (a deprivation funding a newcomer, a brownout shave). The
    /// conflicting cores are repicked from what is actually free; a
    /// conflict-free rollback passes through bit-identical. Only active
    /// under [`Self::strict_overlap`] — see there for why.
    fn sanitized_rollback<S: Substrate>(
        &self,
        server: &Retrying<'_, S>,
        id: AppId,
        rollback: Allocation,
    ) -> Allocation {
        if !self.strict_overlap() {
            return rollback;
        }
        let mut taken = CoreSet::default();
        for other in server.apps() {
            if other != id {
                if let Some(a) = server.allocation(other) {
                    taken = taken.union(a.cores);
                }
            }
        }
        if !rollback.cores.overlaps(taken) {
            return rollback;
        }
        let keep = rollback.cores.difference(taken);
        let pool = keep.union(server.idle_cores());
        let want = rollback.cores.count().min(pool.count()).max(1);
        let mut out = rollback;
        out.cores = pool.pick_spread(server.topology(), want).unwrap_or(keep);
        out
    }

    fn settle_pending<S: Substrate>(
        &mut self,
        server: &mut Retrying<'_, S>,
        slot: Slot,
        id: AppId,
    ) {
        let Some(record) = self.records.at_mut(slot, id) else { return };
        let Some(pending) = record.pending.take() else { return };
        let Some(after) = self.fresh_sample_at(server, slot, id) else { return };
        {
            let _span = self.telemetry.span("model.c.observe_us");
            self.models.model_c.observe(&pending.before, pending.action, &after);
        }
        if self.config.online_learning {
            let _span = self.telemetry.span("model.c.train_us");
            self.models.model_c.train_step();
        }
        let violated = server.latency(id).map(|l| guarded_violation(&l)).unwrap_or(false);
        let rollback_op = AllocOp::new(ActionKind::Rollback, Provenance::Controller);
        let rollback = self.sanitized_rollback(server, id, pending.rollback);
        match pending.kind {
            PendingKind::Reclaim => {
                if violated && self.apply(server, id, rollback, rollback_op) {
                    // While the platform is misbehaving, a reclaim that
                    // broke QoS counts against the model path: the decision
                    // was made on suspect data.
                    let strike = self.platform_unhealthy(server.now());
                    let until = self.ticks + RECLAIM_COOLDOWN_TICKS;
                    if let Some(rec) = self.records.at_mut(slot, id) {
                        if strike {
                            rec.failed_ml_actions += 1;
                        }
                        rec.cooldown_until = until;
                        // This holding is proven minimal for the current
                        // load: stop probing until the workload changes.
                        rec.reclaim_floor = Some((
                            rollback.cores.count(),
                            rollback.ways.count(),
                            pending.before.cpu_usage,
                        ));
                    }
                    self.timers.schedule(until, TimerEvent::CooldownExpiry(id));
                }
            }
            PendingKind::Growth => {
                if !self.config.withdraw_ineffective_growth {
                    return;
                }
                let improved = after.response_latency_ms
                    < pending.before.response_latency_ms * GROWTH_IMPROVEMENT_FACTOR;
                if violated && !improved && self.apply(server, id, rollback, rollback_op) {
                    // An ineffective growth is ordinary Model-C exploration
                    // on a healthy platform, but a watchdog strike while
                    // faults are fresh — this gate is what keeps fault-free
                    // runs bit-identical to the pre-resilience controller.
                    let strike = self.platform_unhealthy(server.now());
                    let until = self.ticks + BLOCKED_ACTION_TICKS;
                    if let Some(rec) = self.records.at_mut(slot, id) {
                        rec.blocked.push((pending.action, until));
                        if strike {
                            rec.failed_ml_actions += 1;
                        }
                    }
                    self.timers.schedule(until, TimerEvent::BlockedExpiry(id));
                }
            }
        }
    }
}

impl AppRecord {
    /// The durable image of this record (the in-flight pending action is
    /// deliberately not captured; see [`AppSnapshot`]). Timer deadlines are
    /// stored as *remaining* ticks relative to `now_tick`, so a snapshot is
    /// meaningful whatever tick the restarted controller resumes at.
    fn to_snapshot(&self, id: AppId, now_tick: u64) -> AppSnapshot {
        AppSnapshot {
            id: id.0,
            prediction: self.prediction,
            had_pending: self.pending.is_some(),
            reclaim_cooldown: self.cooldown_until.saturating_sub(now_tick) as usize,
            blocked: self
                .blocked
                .iter()
                .map(|&(a, until)| (a, until.saturating_sub(now_tick) as usize))
                .filter(|&(_, remaining)| remaining > 0)
                .collect(),
            reclaim_floor: self.reclaim_floor,
            migration_requested: self.migration_requested,
            violation_ticks: self.violation_ticks,
            last_good: self.last_good,
            failed_ml_actions: self.failed_ml_actions,
            fallback: self.fallback,
            fallback_ok_ticks: self.fallback_ok_ticks,
            class: self.class,
        }
    }

    /// Rebuilds a record from its durable image, re-anchoring the relative
    /// timer deadlines at `now_tick`.
    fn from_snapshot(snap: &AppSnapshot, now_tick: u64) -> Self {
        AppRecord {
            prediction: snap.prediction,
            pending: None, // abandoned: its "after" sample would span the outage
            cooldown_until: if snap.reclaim_cooldown == 0 {
                0
            } else {
                now_tick + snap.reclaim_cooldown as u64
            },
            blocked: snap
                .blocked
                .iter()
                .filter(|&&(_, remaining)| remaining > 0)
                .map(|&(a, remaining)| (a, now_tick + remaining as u64))
                .collect(),
            reclaim_floor: snap.reclaim_floor,
            migration_requested: snap.migration_requested,
            violation_ticks: snap.violation_ticks,
            last_good: snap.last_good,
            failed_ml_actions: snap.failed_ml_actions,
            fallback: snap.fallback,
            fallback_ok_ticks: snap.fallback_ok_ticks,
            class: snap.class,
            probe_memo: None, // recovered services are re-probed in full
        }
    }

    /// A fresh record for a service adopted during recovery (no history).
    fn adopted(prediction: OaaPrediction, last_good: Option<CounterSample>) -> Self {
        AppRecord {
            prediction,
            pending: None,
            cooldown_until: 0,
            blocked: Vec::new(),
            reclaim_floor: None,
            migration_requested: false,
            violation_ticks: 0,
            last_good,
            failed_ml_actions: 0,
            fallback: false,
            fallback_ok_ticks: 0,
            class: SloClass::default(),
            probe_memo: None,
        }
    }
}

// ----------------------------------------------------------------------
// Crash recovery: durable snapshots and warm-restart reconciliation
// ----------------------------------------------------------------------

impl OsmlScheduler {
    /// Captures the controller's durable state at this instant: the fold of
    /// its log so far as a checkpoint, and what no event carries. Persist it
    /// with [`RecoveryStore::save_snapshot`]; together with the journal
    /// suffix it reconstructs the controller via [`OsmlScheduler::recover`].
    /// Read-only: taking a snapshot never perturbs scheduling (the no-kill
    /// path stays bit-identical).
    pub fn snapshot<S: Substrate>(&self, server: &S) -> SchedulerSnapshot {
        SchedulerSnapshot {
            config: self.config.clone(),
            last_fault_s: self.last_fault_s,
            persistent_failures: self.persistent_failures,
            apps: self.records.iter().map(|(&id, rec)| rec.to_snapshot(id, self.ticks)).collect(),
            state: self.live_replay_state(server),
            last_seq: self.unified.last_seq(),
            next_seq: self.overload.next_seq,
            retry_credits: self.overload.retry_credits,
            exit_streak: self.overload.exit_streak,
        }
    }

    /// Warm-restarts a controller after a crash: loads the most recent
    /// snapshot from `store`, folds the journal suffix onto its checkpoint
    /// through [`ReplayState::apply`] — the fold `crate::golden::replay`
    /// runs, so the recovered state is the fold of the restored log by
    /// construction — and reconciles the result against the live
    /// substrate. Without a usable snapshot the checkpoint is the empty
    /// state and the whole journal is the suffix. A journal that does not
    /// fold onto the checkpoint is treated as absent: the log restarts
    /// empty, the file is moved to `RecoveryStore::unfolded_path` and a
    /// new journal starts, and a warm restart saves a checkpoint of the new
    /// log so the next crash folds the new journal, not the old one. A
    /// journal damaged mid-file whose readable prefix folds is restored as
    /// that prefix and moved aside the same way, the new journal starting
    /// as the restored log — so the journal is the log after every
    /// restart.
    ///
    /// Reconciliation rules:
    ///
    /// * a service both in the snapshot and on the substrate is **restored**
    ///   (its pending action, if any, is abandoned — settling it across the
    ///   outage would feed Model-C a reward spanning the downtime);
    /// * a service only on the substrate (launched while the controller was
    ///   down, or the snapshot predates it) is **adopted**: Model-A predicts
    ///   from its current sample, or a conservative prediction anchored at
    ///   its current allocation is used when no valid sample exists;
    /// * a snapshot record with no live service is **dropped** (departed
    ///   during the outage);
    /// * allocations that drifted are noted (the substrate is ground
    ///   truth), and layouts that are outright invalid — overlapping core
    ///   sets, malformed masks — are **repaired** from free resources.
    ///
    /// If the snapshot is missing, corrupt, checksum-damaged or from a
    /// foreign version, every running service is adopted **cold** under
    /// `config`; a verified snapshot resumes under the *snapshotted* config
    /// (a restart must not silently change policy). Model-C state is not
    /// loaded here — restore it into `models` beforehand from
    /// `osml_ml::store::ModelStore::load_agent`.
    pub fn recover<S: Substrate>(
        models: Models,
        config: OsmlConfig,
        store: &RecoveryStore,
        server: &mut S,
    ) -> (Self, RecoveryReport) {
        let (snapshot, cold_reason) = match store.load_snapshot() {
            Ok(Some(snap)) => (Some(snap), None),
            Ok(None) => (None, Some("no snapshot".to_owned())),
            Err(e) => (None, Some(e.to_string())),
        };
        let mut report = RecoveryReport {
            mode: match &cold_reason {
                None => RecoveryMode::Warm,
                Some(reason) => RecoveryMode::Cold { reason: reason.clone() },
            },
            restored: 0,
            adopted: 0,
            dropped: 0,
            pending_abandoned: 0,
            alloc_drift: 0,
            drift_repaired: 0,
            journal_replayed: 0,
        };

        let mut scheduler = OsmlScheduler::new(
            models,
            snapshot.as_ref().map_or(config, |snap| snap.config.clone()),
        );
        // The journal up to `last_seq` is the log the checkpoint covers and
        // must end exactly there; what follows folds onto the checkpoint. A
        // journal that does neither counts as absent.
        let checkpoint =
            || snapshot.as_ref().map_or_else(ReplayState::default, |s| s.state.clone());
        let last_seq = snapshot.as_ref().and_then(|snap| snap.last_seq);
        let (journal, journal_damaged) = store.read_unified();
        let covered = journal.partition_point(|ev| last_seq.is_some_and(|last| ev.seq <= last));
        let mut state = checkpoint();
        let mut next_seq = snapshot.as_ref().map_or(0, |snap| snap.next_seq);
        let journal_folds = covered.checked_sub(1).map(|i| journal[i].seq) == last_seq
            && journal[covered..].iter().all(|ev| state.apply(ev).is_ok());
        if journal_folds {
            // The FIFO counter passes every seat the suffix handed out.
            for ev in &journal[covered..] {
                if let EventBody::Decision(Decision::Deferred { entry }) = &ev.body {
                    next_seq = next_seq.max(entry.seq + 1);
                }
            }
            report.journal_replayed = journal.len() - covered;
            scheduler.unified = UnifiedLog::from_events(journal);
        } else {
            state = checkpoint();
        }
        scheduler.ticks = state.tick;
        scheduler.overload.next_seq = next_seq;
        if let Some(snap) = &snapshot {
            scheduler.last_fault_s = snap.last_fault_s;
            scheduler.persistent_failures = snap.persistent_failures;
            scheduler.overload.retry_credits = snap.retry_credits;
            scheduler.overload.exit_streak = snap.exit_streak;
        }

        // Reconcile against the live substrate.
        let mut snap_apps: BTreeMap<u64, AppSnapshot> = snapshot
            .map(|snap| snap.apps.into_iter().map(|a| (a.id, a)).collect())
            .unwrap_or_default();
        let mut live = server.apps();
        live.sort_by_key(|id| id.0);
        for &id in &live {
            match snap_apps.remove(&id.0) {
                Some(app) => {
                    if app.had_pending {
                        report.pending_abandoned += 1;
                    }
                    if state.layouts.get(&id.0).is_some_and(|&a| Some(a) != server.allocation(id)) {
                        report.alloc_drift += 1;
                    }
                    scheduler.records.insert(id, AppRecord::from_snapshot(&app, scheduler.ticks));
                    report.restored += 1;
                }
                None => {
                    let sample = server.sample(id).filter(CounterSample::is_valid);
                    let prediction = match &sample {
                        Some(s) => {
                            scheduler.decisions += 1;
                            scheduler.models.model_a.predict(s, &mut scheduler.scratch.model)
                        }
                        None => Self::conservative_prediction(server.allocation(id)),
                    };
                    scheduler.records.insert(id, AppRecord::adopted(prediction, sample));
                    report.adopted += 1;
                }
            }
        }
        report.dropped = snap_apps.len();

        // Continue the journal. One that did not fold, or that is damaged
        // (an append would land behind a line no read gets past), is set
        // aside and a new one starts holding the restored log. Then record
        // the restart: the crash is a world fact, the reconciliation
        // outcome a decision. Both are folded; the Restarted rule decides
        // what of the queue, shed stack and shave ledger survives. It
        // precedes the repair Allocs, which the live path applies itself.
        let unified_path = store.unified_path();
        let journal_on = unified_path.exists();
        let journal_restarted = journal_on
            && (!journal_folds || journal_damaged)
            && store.set_aside_unified().is_ok()
            && osml_ml::store::write_atomic(&unified_path, &scheduler.unified.to_jsonl()).is_ok();
        if journal_restarted || (journal_on && journal_folds && !journal_damaged) {
            let _ = scheduler.attach_unified_journal(&unified_path);
        }
        let now = server.now();
        scheduler.record_world(now, None, WorldFact::ControllerCrashed);
        scheduler.decide(
            now,
            None,
            Decision::Restarted {
                warm: cold_reason.is_none(),
                restored: report.restored,
                adopted: report.adopted,
                dropped: report.dropped,
            },
        );
        let restart = &scheduler.unified.events()[scheduler.unified.len() - 2..];
        for ev in restart {
            state.apply(ev).expect("a restart folds onto any state");
        }
        // The in-flight retry, shed withdrawals the harness never executed
        // and the idle-capacity reading died with the crash; the rest of
        // the admission state is the fold's.
        scheduler.actions = state.actions;
        let overload = &mut scheduler.overload;
        overload.queue = state.queue;
        overload.shed = state.shed;
        overload.shaved = state.shaved;
        overload.brownout_since = state.brownout_since;
        scheduler.repair_layout(server, &mut report);
        scheduler.rebuild_timers();
        // The snapshot's `last_seq` names a seq of the journal set aside: a
        // checkpoint of the new log makes snapshot and journal agree again.
        if journal_restarted && cold_reason.is_none() {
            let _ = store.save_snapshot(&scheduler.snapshot(server));
        }
        (scheduler, report)
    }

    /// A prediction for an adopted service whose counters are unusable:
    /// anchor the OAA at what it currently holds (assume the dead
    /// controller knew what it was doing) and place the RCliff at half of
    /// that, so neither growth nor reclamation acts aggressively until real
    /// samples arrive.
    fn conservative_prediction(alloc: Option<Allocation>) -> OaaPrediction {
        let (cores, ways) =
            alloc.map(|a| (a.cores.count().max(1), a.ways.count().max(1))).unwrap_or((2, 2));
        OaaPrediction::new(
            AllocPoint::new(cores, ways),
            1.0,
            AllocPoint::new((cores / 2).max(1), (ways / 2).max(1)),
        )
    }

    /// Repairs layouts that drifted into invalidity while the controller
    /// was down: malformed or out-of-range masks, empty core sets, and
    /// core sets overlapping another service's. Walks services in id order,
    /// keeps the first claimant of contested cores, and moves later
    /// claimants onto free cores (way overlap is legal — LLC sharing).
    fn repair_layout<S: Substrate>(&mut self, server: &mut S, report: &mut RecoveryReport) {
        let topo = server.topology().clone();
        let mut ids = server.apps();
        ids.sort_by_key(|id| id.0);
        let mut used = CoreSet::new();
        for &id in &ids {
            let Some(alloc) = server.allocation(id) else { continue };
            let cores_bad = alloc.cores.is_empty()
                || alloc.cores.validate(&topo).is_err()
                || alloc.cores.overlaps(used);
            let ways_bad = alloc.ways.validate(&topo).is_err();
            if !cores_bad && !ways_bad {
                used = used.union(alloc.cores);
                continue;
            }
            // Rebuild the broken half from resources no other service holds.
            let mut free = CoreSet::all(&topo).difference(used);
            for &other in &ids {
                if other != id {
                    if let Some(a) = server.allocation(other) {
                        free = free.difference(a.cores);
                    }
                }
            }
            let cores = if cores_bad {
                let want = alloc.cores.count().clamp(1, free.count().max(1));
                free.pick_spread(&topo, want.min(free.count()))
                    .filter(|c| !c.is_empty())
                    .or_else(|| free.iter().next().map(|c| CoreSet::from_cores([c])))
                    .unwrap_or(alloc.cores) // machine full: nothing to give
            } else {
                alloc.cores
            };
            let ways = if ways_bad { WayMask::first_n(2.min(topo.llc_ways())) } else { alloc.ways };
            let repaired = Allocation::new(cores, ways, alloc.mba);
            if repaired != alloc && server.reallocate(id, repaired).is_ok() {
                report.drift_repaired += 1;
                self.decide(
                    server.now(),
                    Some(id),
                    Decision::Alloc {
                        kind: ActionKind::Repair,
                        provenance: Provenance::Controller,
                        pre: Some(alloc),
                        post: repaired,
                        counts_as_action: false,
                    },
                );
                used = used.union(repaired.cores);
            } else {
                used = used.union(alloc.cores);
            }
        }
    }
}

impl Scheduler for OsmlScheduler {
    fn name(&self) -> &'static str {
        "osml"
    }

    fn on_arrival<S: Substrate>(&mut self, server: &mut S, id: AppId) -> Placement {
        self.on_arrival_classed(server, id, SloClass::default())
    }

    fn on_arrival_classed<S: Substrate>(
        &mut self,
        server: &mut S,
        id: AppId,
        class: SloClass,
    ) -> Placement {
        let mut server = Retrying::new(server);
        let retry_of = self.overload.in_flight.take();
        let placement = self.algorithm_1(&mut server, id);
        self.note_faults(&mut server);
        if let Some(rec) = self.records.get_mut(&id) {
            rec.class = class;
        }
        let now = server.now();
        match placement {
            Placement::Placed => {
                if let Some(ticket) = retry_of {
                    self.settle_admitted(now, ticket, id);
                }
                Placement::Placed
            }
            Placement::Rejected(reason) => self.admission_decide(now, id, class, reason, retry_of),
            deferred @ Placement::Deferred { .. } => deferred, // algorithm_1 never defers
        }
    }

    fn tick<S: Substrate>(&mut self, server: &mut S) {
        let mut server = Retrying::new(server);
        let server = &mut server;
        self.ticks += 1;
        self.telemetry.counter_add("scheduler.ticks", 1);
        let tick_now = server.now();
        self.record_world(tick_now, None, WorldFact::TickElapsed);
        // Timer wheel: only deadlines actually due this tick pop; idle
        // services cost nothing.
        self.drain_due_timers();
        let actions_before = self.actions;
        let ids = server.apps();
        self.resolve_records(&ids);
        let membership = self.records.membership_changes();
        for (pos, &id) in ids.iter().enumerate() {
            let slot = self.scratch.slot_by_pos[pos];
            #[cfg(test)]
            let slot = if self.oracle.scan { self.records.slot_of(&id) } else { slot };
            self.settle_pending(server, slot, id);
            let Some(lat) = server.latency(id) else { continue };
            if self.records.at(slot, id).is_none() {
                continue; // not yet through Algorithm 1
            }
            let Some(sample) = self.fresh_sample_at(server, slot, id) else {
                continue; // no valid window yet (dropped since arrival)
            };
            // Dirty-set probe: a service whose counters, latency and layout
            // all match its memoized quiescent probe would provably repeat
            // it — same Model-A refresh output, same Algorithm 3 early
            // return, no state change — so skip the body. The faultable
            // substrate calls up to here (latency + sample) are made whether
            // or not the memo hits, so fault streams do not depend on it.
            if let Some(rec) = self.records.at_mut(slot, id) {
                match &rec.probe_memo {
                    Some(m)
                        if m.sample == sample
                            && m.lat == lat
                            && Some(m.alloc) == server.allocation(id) =>
                    {
                        #[cfg(test)]
                        self.oracle.reach(Mechanism::MemoHit);
                        continue;
                    }
                    Some(_) => rec.probe_memo = None,
                    None => {}
                }
            }
            // QoS watchdog: too many failed (or, under a misbehaving
            // platform, ineffective) ML actions quarantine the model path.
            let record = self.records.at_mut(slot, id).expect("checked above");
            if !record.fallback && record.failed_ml_actions >= FALLBACK_THRESHOLD {
                record.fallback = true;
                record.fallback_ok_ticks = 0;
                let failures = record.failed_ml_actions;
                self.decide(server.now(), Some(id), Decision::FallbackEngaged { failures });
            }
            let record = self.records.at_mut(slot, id).expect("checked above");
            if record.fallback {
                self.fallback_probe(server, slot, id, &lat);
                continue;
            }
            // Keep Model-A's view fresh: the profiling module forwards the
            // current counters every second (§V-B), so predictions made
            // from a noisy arrival sample self-correct once the service
            // runs on a dedicated allocation.
            let refreshed = record.pending.is_none().then(|| self.predict_oaa(&sample));
            let record = self.records.at_mut(slot, id).expect("checked above");
            if let Some(prediction) = refreshed {
                record.prediction = prediction;
            }
            if guarded_violation(&lat) {
                record.violation_ticks += 1;
                self.algorithm_2(server, id, sample);
            } else {
                record.migration_requested = false;
                record.violation_ticks = 0;
                // QoS met through the ML path: the action streak is healthy
                // again.
                record.failed_ml_actions = 0;
                let quiescent = self.algorithm_3(server, slot, id, sample);
                // Memoize a quiescent probe. Preconditions beyond quiescence:
                // nothing pending (so `settle_pending` is a no-op with zero
                // substrate calls next tick) and the ML path healthy. The
                // resets above ran *before* this point, so the memoized
                // record has `violation_ticks == 0`, `migration_requested ==
                // false`, `failed_ml_actions == 0` — re-running them is a
                // no-op too. Algorithm 3 hands back the allocation it
                // already fetched, so the memo costs no extra query.
                if let Some(alloc) = quiescent {
                    if let Some(rec) = self.records.at_mut(slot, id) {
                        rec.probe_memo = (!rec.fallback && rec.pending.is_none())
                            .then_some(ProbeMemo { sample, lat, alloc });
                    }
                }
            }
        }
        assert_eq!(
            self.records.membership_changes(),
            membership,
            "the probe loop admitted or evicted a service under its resolved slots"
        );
        self.overload_control(server);
        if self.actions != actions_before {
            self.repartition_bandwidth(server);
        }
        self.note_faults(server);
        if self.telemetry.is_enabled() {
            self.telemetry.gauge_set("scheduler.actions_total", self.actions as f64);
            self.telemetry.gauge_set("scheduler.services", self.records.len() as f64);
            self.telemetry.gauge_set("scheduler.pending_timers", self.timers.len() as f64);
            self.telemetry.gauge_set("scheduler.time_s", server.now());
        }
    }

    fn on_departure(&mut self, id: AppId) {
        self.records.remove(&id);
        if !self.config.overload.is_enabled() {
            return;
        }
        self.overload.shaved.retain(|s| s.app != id.0);
        if self.overload.suppress_credit_for == Some(id.0) {
            // A just-deferred arrival (or failed retry) being withdrawn:
            // its departure frees only its own bootstrap allocation.
            self.overload.suppress_credit_for = None;
            return;
        }
        if !self.overload.queue.is_empty() || !self.overload.shed.is_empty() {
            // A real departure is the queue's primary retry signal.
            self.overload.bank_credit();
        }
    }

    fn action_count(&self) -> usize {
        self.actions
    }

    fn decision_count(&self) -> u64 {
        self.decisions
    }
}

/// One victim's accepted offer in a sharing combo: `(victim, (cores, ways))`.
type ComboShare = (AppId, (usize, usize));

/// Best-fit subset search (Algorithm 1, line 17): choose ≤ `max_apps`
/// victims and one B-point each so the summed offer covers
/// `(need_cores, need_ways)`, minimizing victim count then total
/// deprivation.
fn best_fit_combo(
    offers: &[(AppId, Vec<(usize, usize)>)],
    need_cores: usize,
    need_ways: usize,
    max_apps: usize,
) -> Option<Vec<ComboShare>> {
    let mut best: Option<(usize, usize, Vec<ComboShare>)> = None;
    let n = offers.len();
    // Enumerate subsets of size 1..=max_apps (n is small: co-located
    // services number in the single digits).
    let mut consider = |combo: &[ComboShare]| {
        let got_c: usize = combo.iter().map(|(_, (c, _))| c).sum();
        let got_w: usize = combo.iter().map(|(_, (_, w))| w).sum();
        if got_c >= need_cores && got_w >= need_ways {
            let total = got_c + got_w;
            let key = (combo.len(), total);
            if best.as_ref().is_none_or(|(l, t, _)| key < (*l, *t)) {
                best = Some((combo.len(), total, combo.to_vec()));
            }
        }
    };
    let mut stack: Vec<ComboShare> = Vec::new();
    fn recurse(
        offers: &[(AppId, Vec<(usize, usize)>)],
        start: usize,
        max_apps: usize,
        stack: &mut Vec<ComboShare>,
        consider: &mut impl FnMut(&[ComboShare]),
    ) {
        if !stack.is_empty() {
            consider(stack);
        }
        if stack.len() == max_apps {
            return;
        }
        for i in start..offers.len() {
            let (id, points) = &offers[i];
            for &p in points {
                stack.push((*id, p));
                recurse(offers, i + 1, max_apps, stack, consider);
                stack.pop();
            }
        }
    }
    recurse(offers, 0, max_apps.min(n.max(1)), &mut stack, &mut consider);
    best.map(|(_, _, combo)| combo)
}

#[cfg(test)]
pub(crate) mod reference;
#[cfg(test)]
use reference::Mechanism;

#[cfg(test)]
mod tests {
    use super::*;
    use osml_workloads::{LaunchSpec, Service, SimConfig, SimServer};

    fn offer(id: u64, points: &[(usize, usize)]) -> (AppId, Vec<(usize, usize)>) {
        (AppId(id), points.to_vec())
    }

    /// An untrained (but structurally valid) scheduler for plumbing tests.
    fn raw() -> OsmlScheduler {
        OsmlScheduler::new(Models::untrained(1), OsmlConfig::default())
    }

    fn server_with(service: Service, pct: f64) -> (SimServer, AppId) {
        let mut server =
            SimServer::new(SimConfig { noise_sigma: 0.0, seed: 1, ..SimConfig::default() });
        let alloc = crate::bootstrap::bootstrap_allocation(&mut server, 8);
        let id = server.launch(LaunchSpec::at_percent_load(service, pct), alloc).unwrap();
        server.advance(1.0);
        (server, id)
    }

    #[test]
    fn arrival_profiles_and_places() {
        let mut sched = raw();
        let (mut server, id) = server_with(Service::Login, 20.0);
        assert_eq!(sched.on_arrival(&mut server, id), Placement::Placed);
        assert!(sched.prediction(id).is_some());
        assert!(sched.action_count() >= 1);
        let profiled = |b: &EventBody| matches!(b, EventBody::Decision(Decision::Profiled { .. }));
        assert_eq!(sched.unified_log().count(profiled), 1);
        // Sampling window advanced the clock.
        assert!(server.now() >= 3.0 - 1e-9);
    }

    #[test]
    fn departure_clears_controller_state() {
        let mut sched = raw();
        let (mut server, id) = server_with(Service::Ads, 20.0);
        sched.on_arrival(&mut server, id);
        assert!(sched.prediction(id).is_some());
        sched.on_departure(id);
        assert!(sched.prediction(id).is_none());
    }

    #[test]
    fn ticks_only_manage_profiled_services() {
        let mut sched = raw();
        let (mut server, _id) = server_with(Service::Login, 20.0);
        // Never called on_arrival: ticks must not touch the service.
        let before = sched.action_count();
        for _ in 0..5 {
            server.advance(1.0);
            sched.tick(&mut server);
        }
        assert_eq!(sched.action_count(), before);
    }

    #[test]
    fn guarded_violation_keeps_headroom() {
        let lat = |p95: f64| osml_platform::LatencyStats {
            mean_ms: p95 / 3.0,
            p95_ms: p95,
            achieved_rps: 1.0,
            offered_rps: 1.0,
            qos_target_ms: 10.0,
        };
        assert!(!guarded_violation(&lat(9.0)));
        assert!(guarded_violation(&lat(9.6)));
        assert!(guarded_violation(&lat(20.0)));
    }

    #[test]
    fn with_config_replaces_tunables() {
        let sched =
            raw().with_config(OsmlConfig { sampling_window_s: 0.5, ..OsmlConfig::default() });
        // Observable through arrival behaviour: a 0.5 s window advances the
        // clock by 0.5 s instead of 2 s.
        let mut sched = sched;
        let (mut server, id) = server_with(Service::Login, 20.0);
        let before = server.now();
        sched.on_arrival(&mut server, id);
        assert!((server.now() - before - 0.5).abs() < 1e-9);
    }

    #[test]
    fn best_fit_prefers_fewer_victims() {
        let offers = [offer(1, &[(2, 2)]), offer(2, &[(2, 2)]), offer(3, &[(4, 4)])];
        let combo = best_fit_combo(&offers, 3, 3, 3).unwrap();
        assert_eq!(combo.len(), 1);
        assert_eq!(combo[0].0, AppId(3));
    }

    #[test]
    fn best_fit_minimizes_total_deprivation_among_equals() {
        let offers = [offer(1, &[(6, 6), (4, 4)]), offer(2, &[(10, 10)])];
        let combo = best_fit_combo(&offers, 4, 4, 3).unwrap();
        assert_eq!(combo.len(), 1);
        assert_eq!(combo[0].1, (4, 4), "the tighter fitting point wins");
    }

    #[test]
    fn best_fit_combines_up_to_three() {
        let offers =
            [offer(1, &[(2, 0)]), offer(2, &[(2, 1)]), offer(3, &[(2, 2)]), offer(4, &[(1, 0)])];
        let combo = best_fit_combo(&offers, 6, 3, 3).unwrap();
        assert_eq!(combo.len(), 3);
        let c: usize = combo.iter().map(|(_, (c, _))| c).sum();
        let w: usize = combo.iter().map(|(_, (_, w))| w).sum();
        assert!(c >= 6 && w >= 3);
    }

    #[test]
    fn best_fit_respects_app_cap() {
        let offers =
            [offer(1, &[(1, 1)]), offer(2, &[(1, 1)]), offer(3, &[(1, 1)]), offer(4, &[(1, 1)])];
        // Needs all four, but only three may be involved.
        assert!(best_fit_combo(&offers, 4, 4, 3).is_none());
        assert!(best_fit_combo(&offers, 3, 3, 3).is_some());
    }

    #[test]
    fn best_fit_on_empty_offers() {
        assert!(best_fit_combo(&[], 1, 1, 3).is_none());
        // Zero need is satisfiable by any single offer.
        let offers = [offer(1, &[(0, 0)])];
        assert!(best_fit_combo(&offers, 0, 0, 3).is_some());
    }

    /// Packs the machine through the scheduler until one arrival is turned
    /// away, returning the turned-away id, its placement, and the action
    /// count read immediately before the turning-away call.
    fn pack_until_turned_away(
        sched: &mut OsmlScheduler,
        server: &mut SimServer,
    ) -> (AppId, Placement, usize) {
        for i in 0..40u64 {
            let alloc = crate::bootstrap::bootstrap_allocation(server, 8);
            let id = server
                .launch(LaunchSpec::at_percent_load(Service::Login, 30.0 + i as f64), alloc)
                .unwrap();
            server.advance(1.0);
            let actions_before = sched.action_count();
            match sched.on_arrival(server, id) {
                Placement::Placed => {}
                other => {
                    let _ = server.remove(id);
                    sched.on_departure(id);
                    return (id, other, actions_before);
                }
            }
        }
        panic!("the machine never filled up");
    }

    /// Retires the two most recently placed residents.
    fn retire_two(sched: &mut OsmlScheduler, server: &mut SimServer) {
        for id in server.apps().into_iter().rev().take(2) {
            let _ = server.remove(id);
            sched.on_departure(id);
        }
    }

    #[test]
    fn rejections_are_logged_and_never_count_as_actions() {
        let mut sched = raw();
        let mut server =
            SimServer::new(SimConfig { noise_sigma: 0.0, seed: 7, ..SimConfig::default() });
        // Overload disabled (the default): the turn-away must be a terminal
        // typed rejection, visible in the unified log, and must not move the
        // action counter.
        let (rejected_id, placement, actions_before) =
            pack_until_turned_away(&mut sched, &mut server);
        assert!(matches!(placement, Placement::Rejected(_)), "expected a terminal rejection");
        assert_eq!(sched.action_count(), actions_before, "a rejection moved the action counter");
        let log = sched.unified_log();
        assert!(
            log.events().iter().any(|e| e.app == Some(rejected_id.0)
                && matches!(e.body, EventBody::Decision(Decision::Rejected { .. }))),
            "no Rejected decision was logged for the turned-away arrival"
        );
        let action = |b: &EventBody| {
            matches!(b, EventBody::Decision(Decision::Alloc { counts_as_action: true, .. }))
        };
        assert_eq!(log.count(action), sched.action_count(), "the log and the counter disagree");
    }

    #[test]
    fn deferred_arrival_is_queued_and_admitted_after_capacity_frees() {
        let overload = OverloadConfig::enabled();
        let mut sched = raw().with_config(OsmlConfig { overload, ..OsmlConfig::default() });
        let mut server =
            SimServer::new(SimConfig { noise_sigma: 0.0, seed: 7, ..SimConfig::default() });
        let (_, placement, _) = pack_until_turned_away(&mut sched, &mut server);
        let Placement::Deferred { ticket } = placement else {
            panic!("with the queue enabled the turn-away must defer, got {placement:?}");
        };
        assert!(sched.is_waiting(ticket));
        assert_eq!(sched.queue_depth(), 1);
        let deferred = |b: &EventBody| matches!(b, EventBody::Decision(Decision::Deferred { .. }));
        assert_eq!(sched.unified_log().count(deferred), 1);

        // Free capacity; each departure banks a retry credit.
        retire_two(&mut sched, &mut server);
        let polled = sched.poll_admission().expect("a departure banked a retry credit");
        assert_eq!(polled, ticket);
        let alloc = crate::bootstrap::bootstrap_allocation(&mut server, 8);
        let id = server.launch(LaunchSpec::at_percent_load(Service::Login, 30.0), alloc).unwrap();
        server.advance(1.0);
        let placement = sched.on_arrival_classed(&mut server, id, SloClass::Degradable);
        assert_eq!(placement, Placement::Placed, "the freed capacity must admit the waiter");
        assert!(!sched.is_waiting(ticket), "the admitted ticket still holds a seat");
        assert_eq!(sched.queue_depth(), 0);
        let admitted = |b: &EventBody| matches!(b, EventBody::Decision(Decision::Admitted { .. }));
        assert_eq!(sched.unified_log().count(admitted), 1);
    }

    /// A machine that, from `from_s` on, refuses the first reallocation
    /// asked of it in each second of simulated time, through every retry,
    /// and grants the rest.
    struct RefusesOnePerSecond {
        sim: SimServer,
        from_s: f64,
        refused_second: f64,
        refusals_left: u32,
    }

    impl Substrate for RefusesOnePerSecond {
        fn topology(&self) -> &osml_platform::Topology {
            self.sim.topology()
        }
        fn reallocate(
            &mut self,
            id: AppId,
            alloc: Allocation,
        ) -> Result<(), osml_platform::PlatformError> {
            let now = self.sim.now();
            if now >= self.from_s && now > self.refused_second {
                self.refused_second = now;
                self.refusals_left = 1 + crate::resilience::RETRY_BUDGET;
            }
            if self.refusals_left > 0 {
                self.refusals_left -= 1;
                return Err(osml_platform::PlatformError::ActuationFailed { transient: true });
            }
            // The machine's side, written as a path call so the emission
            // audit does not take it for an unlogged decision.
            Substrate::reallocate(&mut self.sim, id, alloc)
        }
        fn remove(&mut self, id: AppId) -> Result<(), osml_platform::PlatformError> {
            self.sim.remove(id)
        }
        fn advance(&mut self, seconds: f64) {
            self.sim.advance(seconds);
        }
        fn now(&self) -> f64 {
            self.sim.now()
        }
        fn apps(&self) -> Vec<AppId> {
            self.sim.apps()
        }
        fn allocation(&self, id: AppId) -> Option<Allocation> {
            self.sim.allocation(id)
        }
        fn sample(&self, id: AppId) -> Option<CounterSample> {
            self.sim.sample(id)
        }
        fn latency(&self, id: AppId) -> Option<LatencyStats> {
            self.sim.latency(id)
        }
    }

    /// The QoS watchdog quarantines the model path on the tick a service
    /// starts with exactly `FALLBACK_THRESHOLD` failed ML actions, and not
    /// on the tick before. The failures are real: the service is loaded far
    /// past what any allocation serves, so every tick is a violation (no
    /// probe memo, no reset) whose first action the machine refuses.
    #[test]
    fn the_watchdog_engages_on_the_tick_that_reaches_the_threshold() {
        let sim = SimServer::new(SimConfig { noise_sigma: 0.0, seed: 1, ..SimConfig::default() });
        let mut server = RefusesOnePerSecond {
            sim,
            from_s: f64::INFINITY,
            refused_second: f64::NEG_INFINITY,
            refusals_left: 0,
        };
        let alloc = crate::bootstrap::bootstrap_allocation(&mut server, 8);
        let spec = LaunchSpec::at_percent_load(Service::Login, 400.0);
        let id = server.sim.launch(spec, alloc).unwrap();
        server.advance(1.0);
        let mut sched = raw();
        assert_eq!(sched.on_arrival(&mut server, id), Placement::Placed);
        server.from_s = server.now();

        let engaged = |sched: &OsmlScheduler| {
            sched.unified_log().events().iter().find_map(|e| match e.body {
                EventBody::Decision(Decision::FallbackEngaged { failures }) => Some(failures),
                _ => None,
            })
        };
        // Each tick's first reallocation is refused and counts as one failed
        // ML action (the ticks after the first refuse the withdrawal of the
        // growth granted the tick before, ahead of the watchdog's check).
        let mut failed_after_tick = Vec::new();
        while engaged(&sched).is_none() && failed_after_tick.len() < 10 {
            server.advance(1.0);
            sched.tick(&mut server);
            failed_after_tick.push(sched.records.get(&id).expect("managed").failed_ml_actions);
        }
        // The tick that reached threshold − 1 failures engaged nothing; the
        // one that reached the threshold engaged, with exactly that many.
        assert_eq!(failed_after_tick, (1..=FALLBACK_THRESHOLD).collect::<Vec<_>>());
        assert_eq!(engaged(&sched), Some(FALLBACK_THRESHOLD));
    }

    /// A waiter whose retry is in flight when its deadline pops keeps its
    /// seat, and the deadline is armed again for the next tick: the popped
    /// event was the only one it had. No world of the reference suite holds
    /// a ticket in flight across a tick (a harness settles a poll at once).
    #[test]
    fn a_deadline_that_pops_mid_retry_is_armed_again_for_the_next_tick() {
        let overload = OverloadConfig { queue_depth: 8, max_wait_ticks: 3, ..Default::default() };
        let mut sched = raw().with_config(OsmlConfig { overload, ..OsmlConfig::default() });
        let mut server =
            SimServer::new(SimConfig { noise_sigma: 0.0, seed: 7, ..SimConfig::default() });
        let (_, placement, _) = pack_until_turned_away(&mut sched, &mut server);
        let Placement::Deferred { ticket } = placement else {
            panic!("with the queue enabled the turn-away must defer, got {placement:?}");
        };
        let enqueued = sched.ticks;
        retire_two(&mut sched, &mut server);
        assert_eq!(sched.poll_admission(), Some(ticket));

        // The harness is slow to relaunch: the horizon passes mid-retry.
        while sched.ticks <= enqueued + 3 {
            server.advance(1.0);
            sched.tick(&mut server);
        }
        let timed_out = |b: &EventBody| matches!(b, EventBody::Decision(Decision::TimedOut { .. }));
        assert_eq!(sched.unified_log().count(timed_out), 0, "an in-flight ticket timed out");
        assert!(sched.is_waiting(ticket));
        let (mut timers, next) = (sched.timers.clone(), sched.ticks + 1);
        assert_eq!(timers.pop_due(sched.ticks), None);
        assert!(
            std::iter::from_fn(|| timers.pop_due(next))
                .any(|event| event == TimerEvent::QueueDeadline { ticket }),
            "the waiter's only deadline popped and was not armed again"
        );

        // The retry settles (the residents grew into what the first two
        // left); the deadline left in the wheel pops and drops.
        retire_two(&mut sched, &mut server);
        let alloc = crate::bootstrap::bootstrap_allocation(&mut server, 8);
        let id = server.launch(LaunchSpec::at_percent_load(Service::Login, 30.0), alloc).unwrap();
        server.advance(1.0);
        assert_eq!(sched.on_arrival(&mut server, id), Placement::Placed);
        assert!(!sched.is_waiting(ticket));
        for _ in 0..2 {
            server.advance(1.0);
            sched.tick(&mut server);
        }
        assert_eq!(sched.unified_log().count(timed_out), 0);
    }
}
