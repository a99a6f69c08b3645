//! The host half of the admission protocol, written once.
//!
//! Algorithm 1 ends, on "insufficient resources", by handing the service
//! back to an upper-level scheduler that owns process lifecycle. The
//! scheduler half of that contract is [`OsmlScheduler`]'s
//! `poll_admission` / `take_shed` / `cancel_ticket`; this module is the
//! other half — the only code that creates, withdraws and relaunches
//! processes in response to them — and every harness drives a node through
//! it:
//!
//! * [`Machine`] is what [`Substrate`] lacks for that job: create a process
//!   on an allocation, change its offered load.
//! * [`Host`] owns a machine, its controller and what is waiting, with the
//!   protocol as its methods. Every process it creates or removes is a
//!   world fact in the controller's unified log, so any log it leaves
//!   behind folds back to the live state.
//! * [`run_script`] drives a host through an [`ArrivalScript`].
//!
//! Co-location figures do not come through here: they advance the clock
//! between a launch and its `on_arrival` and never tick while services are
//! arriving, a script world does neither (see `osml_bench::scenario`).

use crate::{
    bootstrap_allocation, LaunchCause, Models, OsmlConfig, OsmlScheduler, RecoveryReport,
    RecoveryStore, RemovalCause, WorldFact,
};
use osml_platform::{
    Allocation, AppId, FaultRecord, FaultySubstrate, Placement, PlatformError, Scheduler, SloClass,
    Substrate,
};
use osml_workloads::loadgen::ArrivalScript;
use osml_workloads::{LaunchSpec, Service, SimServer};

/// A [`Substrate`] a harness can also populate.
pub trait Machine: Substrate {
    /// Creates a process running `spec` on `alloc`.
    ///
    /// # Errors
    ///
    /// Fails if the allocation is invalid for this machine.
    fn launch(&mut self, spec: LaunchSpec, alloc: Allocation) -> Result<AppId, PlatformError>;

    /// Changes a running process's offered load.
    ///
    /// # Errors
    ///
    /// Fails if `id` is not placed.
    fn set_load(&mut self, id: AppId, offered_rps: f64) -> Result<(), PlatformError>;

    /// Every fault the machine injected so far, in call order.
    fn injected_faults(&self) -> Vec<FaultRecord> {
        Vec::new()
    }
}

impl Machine for SimServer {
    fn launch(&mut self, spec: LaunchSpec, alloc: Allocation) -> Result<AppId, PlatformError> {
        SimServer::launch(self, spec, alloc)
    }
    fn set_load(&mut self, id: AppId, offered_rps: f64) -> Result<(), PlatformError> {
        SimServer::set_load(self, id, offered_rps)
    }
}

/// Launches and load changes are harness operations: they bypass fault
/// injection.
impl<M: Machine> Machine for FaultySubstrate<M> {
    fn launch(&mut self, spec: LaunchSpec, alloc: Allocation) -> Result<AppId, PlatformError> {
        self.inner_mut().launch(spec, alloc)
    }
    fn set_load(&mut self, id: AppId, offered_rps: f64) -> Result<(), PlatformError> {
        self.inner_mut().set_load(id, offered_rps)
    }
    fn injected_faults(&self) -> Vec<FaultRecord> {
        self.records()
    }
}

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

/// What a harness asks a node to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Submission {
    /// The number the world facts name this workload by. It is the
    /// caller's: a script index, a running launch counter.
    pub workload: u64,
    /// The process to create.
    pub spec: LaunchSpec,
    /// The SLO class it is submitted under.
    pub class: SloClass,
}

impl Submission {
    /// The fact that this submission's scripted arrival came due.
    pub fn arrival_due(&self) -> WorldFact {
        let LaunchSpec { service, threads, offered_rps } = self.spec;
        let (workload, class) = (self.workload, self.class);
        WorldFact::ArrivalDue { workload, service, class, threads, offered_rps }
    }
}

/// Where a submission stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seat {
    /// Not submitted yet (a scripted arrival that has not come due).
    Pending,
    /// Running under this id.
    Live(AppId),
    /// Withdrawn from the machine, holding this ticket in the scheduler's
    /// queue or shed stack.
    Waiting(u64),
    /// Left when its lifetime ended.
    Departed,
    /// Refused terminally.
    Rejected,
    /// Stopped waiting without being admitted: its ticket expired, or its
    /// lifetime ended in the queue.
    TimedOut,
}

/// One node as a harness holds it: the machine, its controller, and the
/// submissions that are running or waiting.
#[derive(Debug)]
pub struct Host<M> {
    /// The machine. A harness advances its clock and reads it freely;
    /// processes come and go through the host's methods only.
    pub machine: M,
    /// The controller.
    pub scheduler: OsmlScheduler,
    /// Every submission that is [`Seat::Live`] or [`Seat::Waiting`], with
    /// the load it last ran under.
    seats: Vec<(Seat, Submission)>,
    /// Fault records already drained into the log.
    fault_mark: usize,
}

impl<M: Machine> Host<M> {
    /// A host with nothing submitted.
    pub fn new(machine: M, scheduler: OsmlScheduler) -> Self {
        Host { machine, scheduler, seats: Vec::new(), fault_mark: 0 }
    }

    /// The submissions running or waiting, oldest seat first.
    pub fn seats(&self) -> impl Iterator<Item = (Seat, &Submission)> {
        self.seats.iter().map(|(seat, sub)| (*seat, sub))
    }

    fn removed(&mut self, at: f64, id: AppId, cause: RemovalCause) {
        self.scheduler.record_world(at, Some(id), WorldFact::Removed { cause });
    }

    /// Takes a process the controller knows off the machine.
    fn withdraw(&mut self, at: f64, id: AppId, cause: RemovalCause) {
        let _ = self.machine.remove(id);
        self.scheduler.on_departure(id);
        self.removed(at, id, cause);
    }

    /// Launches `sub` on its bootstrap allocation and hands it to the
    /// controller; a deferred or rejected process is withdrawn again, a
    /// deferred one keeping its ticket.
    pub fn submit(&mut self, sub: Submission, cause: LaunchCause) -> Seat {
        let Submission { workload, spec, class } = sub;
        let bootstrap = bootstrap_allocation(&mut self.machine, spec.threads);
        let id = self.machine.launch(spec, bootstrap).expect("bootstrap allocation is valid");
        let LaunchSpec { service, threads, offered_rps } = spec;
        let fact = WorldFact::Launched {
            workload,
            service,
            class,
            threads,
            offered_rps,
            bootstrap,
            cause,
        };
        self.scheduler.record_world(self.machine.now(), Some(id), fact);
        let seat = match self.scheduler.on_arrival_classed(&mut self.machine, id, class) {
            Placement::Placed => Seat::Live(id),
            Placement::Deferred { ticket } => {
                self.withdraw(self.machine.now(), id, RemovalCause::DeferredWithdrawal);
                Seat::Waiting(ticket)
            }
            Placement::Rejected(_) => {
                self.withdraw(self.machine.now(), id, RemovalCause::RejectedWithdrawal);
                return Seat::Rejected;
            }
        };
        self.seats.push((seat, sub));
        seat
    }

    /// Ends the lifetime of whatever holds `seat`: a running process
    /// leaves (stamped `at`, the caller's reading of the clock), a waiting
    /// ticket is cancelled. A seat the host does not hold comes back as it
    /// was.
    pub fn depart(&mut self, at: f64, seat: Seat) -> Seat {
        let Some(i) = self.seats.iter().position(|s| s.0 == seat) else { return seat };
        match self.seats.remove(i).0 {
            Seat::Live(id) => {
                self.withdraw(at, id, RemovalCause::ScriptedDeparture);
                Seat::Departed
            }
            Seat::Waiting(ticket) => {
                self.scheduler.cancel_ticket(ticket);
                Seat::TimedOut
            }
            gone => gone,
        }
    }

    /// Sets a running process's offered load. Only a change reaches the
    /// machine (whose solver is warm-started: re-applying a load is not a
    /// no-op on its floats) and the log (stamped `at`).
    pub(crate) fn set_load(&mut self, at: f64, id: AppId, offered_rps: f64) {
        let Some((_, sub)) = self.seats.iter_mut().find(|s| s.0 == Seat::Live(id)) else { return };
        if sub.spec.offered_rps == offered_rps {
            return;
        }
        sub.spec.offered_rps = offered_rps;
        let _ = self.machine.set_load(id, offered_rps);
        self.scheduler.record_world(at, Some(id), WorldFact::LoadChanged { offered_rps });
    }

    /// One monitoring step: a simulated second, a tick, `Self::drain`.
    pub fn step(&mut self, retry: impl FnMut(Submission) -> Submission) -> Vec<(u64, Seat)> {
        self.machine.advance(1.0);
        self.scheduler.tick(&mut self.machine);
        self.drain(retry)
    }

    /// What a tick leaves for the host to do, in the order the scheduler
    /// expects: withdraw what it shed (the ticket is the shed id), relaunch
    /// what `poll_admission` hands back — `retry` refreshes the parked
    /// submission: the rate *now*, the caller's next workload number —
    /// forget the waiters whose tickets expired, and log the faults the
    /// machine injected since the last drain. Returns every seat that
    /// moved, under the workload number it was parked or running with.
    pub(crate) fn drain(
        &mut self,
        mut retry: impl FnMut(Submission) -> Submission,
    ) -> Vec<(u64, Seat)> {
        let mut moved = Vec::new();
        for id in self.scheduler.take_shed() {
            let Some(i) = self.seats.iter().position(|s| s.0 == Seat::Live(id)) else { continue };
            // Its record is already gone: no `on_departure`.
            let _ = self.machine.remove(id);
            self.removed(self.machine.now(), id, RemovalCause::ShedWithdrawal);
            self.seats[i].0 = Seat::Waiting(id.0);
            moved.push((self.seats[i].1.workload, self.seats[i].0));
        }
        while let Some(ticket) = self.scheduler.poll_admission() {
            match self.seats.iter().position(|s| s.0 == Seat::Waiting(ticket)) {
                Some(i) => {
                    let (_, parked) = self.seats.remove(i);
                    moved.push((
                        parked.workload,
                        self.submit(retry(parked), LaunchCause::AdmissionRetry),
                    ));
                }
                // A seat nobody is waiting on any more.
                None => {
                    self.scheduler.cancel_ticket(ticket);
                }
            }
        }
        let scheduler = &self.scheduler;
        self.seats.retain(|&(seat, sub)| {
            let expired = matches!(seat, Seat::Waiting(ticket) if !scheduler.is_waiting(ticket));
            if expired {
                moved.push((sub.workload, Seat::TimedOut));
            }
            !expired
        });
        let faults = self.machine.injected_faults();
        for rec in &faults[self.fault_mark..] {
            let fact = WorldFact::FaultInjected { call: rec.call, fault: rec.fault };
            self.scheduler.record_world(rec.time_s, rec.app, fact);
        }
        self.fault_mark = faults.len();
        moved
    }

    /// Persists the controller's state as of now.
    pub fn checkpoint(&self, store: &RecoveryStore) {
        store.save_snapshot(&self.scheduler.snapshot(&self.machine)).expect("save snapshot");
    }

    /// Kills the controller — everything it held in memory is gone, the
    /// machine keeps running — and rebuilds it from `store` through
    /// [`OsmlScheduler::recover`].
    pub fn kill_and_recover(
        &mut self,
        models: Models,
        config: OsmlConfig,
        store: &RecoveryStore,
    ) -> RecoveryReport {
        let (recovered, report) = OsmlScheduler::recover(models, config, store, &mut self.machine);
        self.scheduler = recovered;
        report
    }
}

/// The kill [`run_script`] stages: two ticks after the controller first
/// enters brownout, between ticks, with a snapshot persisted to `store` at
/// the end of every tick — so the state before the kill is exactly what
/// was last persisted.
#[derive(Debug, Clone, Copy)]
pub struct MidBrownoutKill<'a> {
    /// Where the snapshots go; the controller's journal, if attached, lives
    /// here too.
    pub store: &'a RecoveryStore,
    /// The models the rebuilt controller starts from.
    pub models: &'a Models,
    /// Its configuration, should the restart come up cold.
    pub config: &'a OsmlConfig,
}

/// Drives `host` through `script`, one monitoring step at a time: due
/// departures, due arrivals (each submitted under [`slo_class_of`] its
/// service, its workload number its script index), load changes, a
/// simulated second, a tick, the drain; then `observe(host, seats, t)` with
/// one seat per scripted event. The runner reads the clock once a step,
/// after the simulated second, and stamps what the script does — arrivals
/// and departures coming due, a departure's removal, load changes — with
/// that reading, though a retry's profiling window may have moved the
/// machine's clock past it since: the committed digests pin those stamps.
///
/// Returns, when a `kill` was staged and the controller did brown out,
/// whether the rebuilt controller resumed with the killed one's
/// [`crate::ReplayState`]: counters, layouts, admission queue, shed stack,
/// shave ledger and brownout clock, entry for entry.
pub fn run_script<M: Machine>(
    host: &mut Host<M>,
    script: &ArrivalScript,
    kill: Option<MidBrownoutKill<'_>>,
    mut observe: impl FnMut(&Host<M>, &[Seat], f64),
) -> Option<bool> {
    let submission = |idx: usize, t: f64| {
        let event = &script.events[idx];
        let offered_rps = event.load.rps_at(t).max(1e-3);
        Submission {
            workload: idx as u64,
            spec: LaunchSpec { service: event.service, threads: event.threads, offered_rps },
            class: slo_class_of(event.service),
        }
    };
    let mut seats = vec![Seat::Pending; script.events.len()];
    let mut departure_due = vec![false; seats.len()];
    let mut first_brownout_tick: Option<u64> = None;
    let mut resumed: Option<bool> = None;
    let mut ticks: u64 = 0;
    let mut t = 0.0f64;
    while t <= script.duration_s {
        if let (Some(kill), Some(entered)) = (kill, first_brownout_tick) {
            if resumed.is_none() && ticks == entered + 2 {
                let before = host.scheduler.live_replay_state(&host.machine);
                host.kill_and_recover(kill.models.clone(), kill.config.clone(), kill.store);
                resumed = Some(before == host.scheduler.live_replay_state(&host.machine));
            }
        }
        for (idx, event) in script.events.iter().enumerate() {
            if t < event.depart_s {
                continue;
            }
            if !departure_due[idx] && seats[idx] != Seat::Pending {
                departure_due[idx] = true;
                let fact = WorldFact::DepartureDue { workload: idx as u64 };
                host.scheduler.record_world(t, None, fact);
            }
            seats[idx] = host.depart(t, seats[idx]);
        }
        for (idx, event) in script.events.iter().enumerate() {
            if seats[idx] != Seat::Pending || t < event.arrive_s || t >= event.depart_s {
                continue;
            }
            let sub = submission(idx, t);
            host.scheduler.record_world(t, None, sub.arrival_due());
            seats[idx] = host.submit(sub, LaunchCause::Scripted);
        }
        for (idx, seat) in seats.iter().enumerate() {
            if let Seat::Live(id) = *seat {
                host.set_load(t, id, submission(idx, t).spec.offered_rps);
            }
        }

        host.machine.advance(1.0);
        t = host.machine.now();
        ticks += 1;
        host.scheduler.tick(&mut host.machine);
        // A retry runs at the rate its schedule gives now, not at deferral.
        for (workload, seat) in host.drain(|parked| submission(parked.workload as usize, t)) {
            seats[workload as usize] = seat;
        }

        if first_brownout_tick.is_none() && host.scheduler.in_brownout() {
            first_brownout_tick = Some(ticks);
        }
        if let Some(kill) = kill {
            host.checkpoint(kill.store);
        }
        observe(host, &seats, t);
    }
    resumed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osml::reference::Staged;
    use crate::{Decision, EventBody, OverloadConfig};
    use osml_platform::FaultPlan;
    use osml_workloads::{SimConfig, ALL_SERVICES};

    fn node(overload: OverloadConfig) -> Host<Staged> {
        let config = OsmlConfig { overload, strict_layout: true, ..OsmlConfig::default() };
        let sim = SimServer::new(SimConfig { noise_sigma: 0.0, seed: 13, ..SimConfig::default() });
        let machine = Staged::new(FaultySubstrate::new(sim, FaultPlan::none()));
        Host::new(machine, OsmlScheduler::new(Models::untrained(1), config))
    }

    fn submission(workload: u64, service: Service) -> Submission {
        let spec = LaunchSpec::at_percent_load(service, 35.0);
        Submission { workload, spec, class: slo_class_of(service) }
    }

    /// Submits one service after another until the machine is full; returns
    /// the ticket of the one that was deferred.
    fn fill(host: &mut Host<Staged>) -> u64 {
        let mut services = ALL_SERVICES.iter().cycle().take(2 * ALL_SERVICES.len()).zip(0..);
        services
            .find_map(|(&service, w)| {
                match host.submit(submission(w, service), LaunchCause::Scripted) {
                    Seat::Waiting(ticket) => Some(ticket),
                    _ => None,
                }
            })
            .expect("two of every service overfill the machine")
    }

    fn world_facts_of(host: &Host<Staged>, app: u64) -> Vec<WorldFact> {
        let facts = host.scheduler.unified_log().events().iter().filter(|e| e.app == Some(app));
        let facts = facts.filter_map(|e| match &e.body {
            EventBody::World(fact) => Some(fact.clone()),
            _ => None,
        });
        facts.collect()
    }

    #[test]
    fn a_deferral_is_launched_then_withdrawn_and_leaves_nothing_behind() {
        let mut host = node(OverloadConfig::enabled());
        let ticket = fill(&mut host);
        // A first deferral's ticket is the id its process ran under.
        let facts = world_facts_of(&host, ticket);
        assert!(
            matches!(
                facts[..],
                [
                    WorldFact::Launched { cause: LaunchCause::Scripted, .. },
                    WorldFact::Removed { cause: RemovalCause::DeferredWithdrawal }
                ]
            ),
            "{facts:?}"
        );
        assert!(!host.machine.apps().contains(&AppId(ticket)), "the process is still placed");
        assert!(host.scheduler.is_waiting(ticket));
        assert!(host.seats().any(|(seat, _)| seat == Seat::Waiting(ticket)));
    }

    #[test]
    fn a_polled_ticket_nobody_waits_on_is_cancelled_not_relaunched() {
        let mut host = node(OverloadConfig::enabled());
        let ticket = fill(&mut host);
        host.seats.retain(|s| s.0 != Seat::Waiting(ticket));
        // Two departures free the room, and bank the retry credits.
        for id in host.machine.apps().into_iter().rev().take(2) {
            host.depart(host.machine.now(), Seat::Live(id));
        }
        let launches = |host: &Host<Staged>| {
            let launched =
                |b: &EventBody| matches!(b, EventBody::World(WorldFact::Launched { .. }));
            host.scheduler.unified_log().count(launched)
        };
        let before = launches(&host);
        assert_eq!(host.step(|parked| parked), vec![]);
        assert_eq!(launches(&host), before, "the unknown ticket was relaunched");
        assert!(!host.scheduler.is_waiting(ticket));
        let cancelled =
            |d: &Decision| matches!(d, Decision::Cancelled { ticket: t } if *t == ticket);
        assert_eq!(host.scheduler.unified_log().count_decisions(cancelled), 1);
    }

    #[test]
    fn a_timed_out_waiter_is_forgotten() {
        let mut host = node(OverloadConfig { max_wait_ticks: 3, ..OverloadConfig::enabled() });
        let ticket = fill(&mut host);
        let workload = host.seats().find(|s| s.0 == Seat::Waiting(ticket)).unwrap().1.workload;
        let moved: Vec<_> = (0..4).flat_map(|_| host.step(|parked| parked)).collect();
        assert!(moved.contains(&(workload, Seat::TimedOut)), "{moved:?}");
        assert!(!host.seats().any(|(seat, _)| seat == Seat::Waiting(ticket)));
        let timed_out = |d: &Decision| matches!(d, Decision::TimedOut { .. });
        assert_eq!(host.scheduler.unified_log().count_decisions(timed_out), 1);
    }

    #[test]
    fn a_restart_hands_out_no_queue_seat_the_journal_suffix_already_used() {
        let overload = OverloadConfig { max_wait_ticks: 3, ..OverloadConfig::enabled() };
        let scratch = crate::ScratchDir::new("host-queue-seats");
        let store = RecoveryStore::open(scratch.path()).unwrap();
        let mut host = node(overload);
        host.scheduler.attach_unified_journal(&store.unified_path()).unwrap();
        host.checkpoint(&store);
        // The suffix's only waiter is deferred and times out again: the
        // queue the restart folds to is empty.
        let first = fill(&mut host);
        for _ in 0..4 {
            host.step(|parked| parked);
        }
        assert!(!host.scheduler.is_waiting(first));
        let config = OsmlConfig::default();
        let report = host.kill_and_recover(Models::untrained(1), config, &store);
        assert!(report.journal_replayed > 0, "{report:?}");
        let second = fill(&mut host);
        let seat = |ticket: u64| {
            host.scheduler.unified_log().decisions().find_map(|e| match &e.body {
                EventBody::Decision(Decision::Deferred { entry }) if entry.ticket == ticket => {
                    Some(entry.seq)
                }
                _ => None,
            })
        };
        let (before, after) = (seat(first).unwrap(), seat(second).unwrap());
        assert!(after > before, "seat {before} handed out again as {after}");
    }

    #[test]
    fn a_shed_service_is_parked_under_its_id() {
        let mut host = node(OverloadConfig::enabled());
        // Best-effort work holds the machine; latency-critical arrivals,
        // one a tick, queue up behind it until brownout sheds some.
        for (service, w) in
            [Service::Ads, Service::TxtIndex, Service::Ads, Service::TxtIndex].into_iter().zip(0..)
        {
            host.submit(submission(w, service), LaunchCause::Scripted);
        }
        let critical = [Service::Moses, Service::ImgDnn, Service::Xapian, Service::Sphinx];
        for t in 0..30 {
            if t < 8 {
                host.submit(submission(4 + t, critical[t as usize % 4]), LaunchCause::Scripted);
            }
            let before: Vec<(u64, Seat)> = host.seats().map(|(s, sub)| (sub.workload, s)).collect();
            for (workload, seat) in host.step(|parked| parked) {
                let Seat::Waiting(ticket) = seat else { continue };
                if !before.contains(&(workload, Seat::Live(AppId(ticket)))) {
                    continue; // a waiter, retried and deferred again
                }
                assert!(workload < 4, "workload {workload} is not best-effort");
                let facts = world_facts_of(&host, ticket);
                let shed = WorldFact::Removed { cause: RemovalCause::ShedWithdrawal };
                assert_eq!(facts.last(), Some(&shed), "{facts:?}");
                assert!(!host.machine.apps().contains(&AppId(ticket)));
                assert!(host.scheduler.is_waiting(ticket));
                return;
            }
        }
        panic!("the world never shed");
    }

    /// The world above with a journal and a checkpoint after every third
    /// tick, the controller killed and recovered before tick `kill`: the log
    /// folds to the live state and the journal is the log before and after
    /// the restart and at the end. Returns whether the kill met a shed stack.
    fn shedding_world_killed_at(kill: u64) -> bool {
        let scratch = crate::ScratchDir::new("host-shed-kill");
        let store = RecoveryStore::open(scratch.path()).unwrap();
        let mut host = node(OverloadConfig::enabled());
        host.scheduler.attach_unified_journal(&store.unified_path()).unwrap();
        let one_record = |host: &Host<Staged>, when: &str| {
            let log = host.scheduler.unified_log();
            let live = host.scheduler.live_replay_state(&host.machine);
            assert_eq!(log.replay().unwrap(), live, "kill@{kill} {when}");
            let journal = std::fs::read_to_string(store.unified_path()).unwrap();
            assert_eq!(journal, log.to_jsonl(), "kill@{kill} {when}");
        };
        for (service, w) in
            [Service::Ads, Service::TxtIndex, Service::Ads, Service::TxtIndex].into_iter().zip(0..)
        {
            host.submit(submission(w, service), LaunchCause::Scripted);
        }
        let critical = [Service::Moses, Service::ImgDnn, Service::Xapian, Service::Sphinx];
        let mut met_shed = false;
        for t in 0..30 {
            if t == kill {
                one_record(&host, "before the kill");
                met_shed = !host.scheduler.live_replay_state(&host.machine).shed.is_empty();
                let report =
                    host.kill_and_recover(Models::untrained(1), OsmlConfig::default(), &store);
                assert_eq!(report.alloc_drift, 0, "kill@{kill}: {report:?}");
                one_record(&host, "after the recovery");
            }
            if t < 8 {
                host.submit(submission(4 + t, critical[t as usize % 4]), LaunchCause::Scripted);
            }
            host.step(|parked| parked);
            if t % 3 == 0 {
                host.checkpoint(&store);
            }
        }
        one_record(&host, "at the end");
        met_shed
    }

    #[test]
    fn a_kill_on_any_tick_of_a_shedding_world_recovers_the_fold_of_its_log() {
        let met_shed = (1..30).filter(|&kill| shedding_world_killed_at(kill)).count();
        assert!(met_shed > 0, "no kill met a shed stack");
    }

    #[test]
    fn an_unchanged_load_reaches_neither_the_machine_nor_the_log() {
        let mut host = node(OverloadConfig::default());
        let sub = submission(0, Service::Moses);
        let Seat::Live(id) = host.submit(sub, LaunchCause::Scripted) else {
            panic!("an empty machine places its first service");
        };
        let rps = sub.spec.offered_rps;
        let changed = |b: &EventBody| matches!(b, EventBody::World(WorldFact::LoadChanged { .. }));
        for _ in 0..5 {
            host.set_load(host.machine.now(), id, rps);
            host.step(|parked| parked);
        }
        assert_eq!(host.machine.set_loads, 0);
        assert_eq!(host.scheduler.unified_log().count(changed), 0);
        host.set_load(host.machine.now(), id, rps * 1.5);
        host.set_load(host.machine.now(), id, rps * 1.5);
        assert_eq!(host.machine.set_loads, 1);
        assert_eq!(host.scheduler.unified_log().count(changed), 1);
    }
}
