//! The scan loop `OsmlScheduler::tick` replaced, kept as the oracle the tick
//! engine is held against. Nothing outside `#[cfg(test)]` reaches it.
//!
//! A scheduler built by [`OsmlScheduler::reference`] runs the same
//! Algorithms 1–4 through the same code — every model is asked the same
//! one-row question at the same site — and deviates from the engine at four
//! hook statements in `osml.rs`, each row standing in for one engine
//! mechanism:
//!
//! | hook site | the reference does | in place of |
//! |---|---|---|
//! | `drain_due_timers` | [`OsmlScheduler::reference_prologue`]: walks every record, clears expired cooldowns and blocked actions, drops every probe memo, empties the wheel | the timer wheel and the dirty-set memo |
//! | `resolve_records` and the top of `tick`'s probe loop | looks each service's record up by id when its turn comes | one walk of the table's index before the loop, the slots held across it |
//! | `expire_due_waiters` | [`OsmlScheduler::reference_expire_waiters`]: partitions the whole queue on waited ticks | `QueueDeadline` events |
//!
//! The suite at the bottom drives both through the same worlds and demands
//! equal unified logs, equal layouts and equal per-service records after
//! every tick, fails if the engine never exercised one of the
//! [`Mechanism`]s the reference does without, and holds the engine's quiet
//! ticks to their budgets of by-id lookups and substrate reads.

use super::*;
use crate::golden::{first_divergence, LaunchCause};
use crate::host::{slo_class_of, Host, Machine, Seat, Submission};
use osml_platform::{
    FaultPlan, FaultProfile, FaultRecord, FaultySubstrate, PlatformError, Topology,
};
use osml_workloads::{LaunchSpec, Service, SimConfig, SimServer, ALL_SERVICES};
use proptest::prelude::*;
use std::cell::Cell;

/// An engine mechanism the suite must see exercised at least once.
#[derive(Debug, Clone, Copy)]
pub(super) enum Mechanism {
    CooldownExpiryPop,
    BlockedExpiryPop,
    QueueDeadlineTimeout,
    MemoHit,
}

const MECHANISMS: [Mechanism; 4] = [
    Mechanism::CooldownExpiryPop,
    Mechanism::BlockedExpiryPop,
    Mechanism::QueueDeadlineTimeout,
    Mechanism::MemoHit,
];

/// What a test build adds to the scheduler.
#[derive(Debug, Clone, Default)]
pub(super) struct Oracle {
    /// Whether this scheduler is the reference.
    pub(super) scan: bool,
    /// Times the engine exercised each [`Mechanism`].
    reached: [u64; MECHANISMS.len()],
}

impl Oracle {
    pub(super) fn reach(&mut self, mechanism: Mechanism) {
        self.reached[mechanism as usize] += 1;
    }
}

impl OsmlScheduler {
    /// A scheduler that ticks as the scan loop did.
    fn reference(models: Models, config: OsmlConfig) -> Self {
        let mut scheduler = OsmlScheduler::new(models, config);
        scheduler.oracle.scan = true;
        scheduler
    }

    /// The scan loop's tick prologue. Deadlines are authoritative, so "GC"
    /// is clearing expired entries; a record with no armed timer is skipped
    /// without touching its fields. The wheel the shared code armed since
    /// the last tick is thrown away, and so is every memo it stored.
    pub(super) fn reference_prologue(&mut self) {
        self.timers.clear();
        for record in self.records.values_mut() {
            record.probe_memo = None;
            if record.cooldown_until == 0 && record.blocked.is_empty() {
                continue;
            }
            if record.cooldown_until <= self.ticks {
                record.cooldown_until = 0;
            }
            record.blocked.retain(|&(_, until)| until > self.ticks);
        }
    }

    /// The scan loop's queue expiry: every waiter past the max-wait horizon
    /// leaves, in queue order; the in-flight ticket keeps its seat.
    pub(super) fn reference_expire_waiters(&mut self, now: f64, cfg: &OverloadConfig) {
        let in_flight = self.overload.in_flight;
        let ticks = self.ticks;
        let (expired, kept): (Vec<QueuedEntry>, Vec<QueuedEntry>) =
            self.overload.queue.drain(..).partition(|e| {
                Some(e.ticket) != in_flight
                    && ticks.saturating_sub(e.enqueued_tick) >= cfg.max_wait_ticks
            });
        self.overload.queue = kept;
        for e in expired {
            let waited = ticks.saturating_sub(e.enqueued_tick);
            let app = Some(AppId(e.ticket));
            self.decide(now, app, Decision::TimedOut { ticket: e.ticket, waited_ticks: waited });
            self.note_rejection(now, app, RejectReason::WaitTimeout);
            self.telemetry.counter_add("overload.timeouts", 1);
        }
    }
}

// ----------------------------------------------------------------------
// The suite: one script driver, the worlds, and what they must reach.
// ----------------------------------------------------------------------

/// One scripted service, in ticks, submitted under the class the overload
/// figures submit it with.
#[derive(Debug, Clone)]
struct Arrival {
    service: Service,
    pct: f64,
    arrive: usize,
    depart: Option<usize>,
    load_change: Option<(usize, f64)>,
}

impl Arrival {
    /// A service that arrives at `arrive` and stays.
    fn staying(service: Service, pct: f64, arrive: usize) -> Self {
        Arrival { service, pct, arrive, depart: None, load_change: None }
    }

    /// Decodes one random script entry from 64 bits (the vendored proptest
    /// has no tuple strategies).
    fn decode(raw: u64) -> Self {
        let service = ALL_SERVICES[(raw % ALL_SERVICES.len() as u64) as usize];
        let depart = ((raw >> 21) & 1 == 1).then(|| 18 + ((raw >> 22) % 12) as usize);
        let load_change = ((raw >> 26) & 1 == 1)
            .then(|| (4 + ((raw >> 27) % 12) as usize, 10.0 + ((raw >> 31) % 700) as f64 / 10.0));
        let pct = 10.0 + ((raw >> 8) % 600) as f64 / 10.0;
        Arrival {
            depart,
            load_change,
            ..Arrival::staying(service, pct, ((raw >> 18) % 8) as usize)
        }
    }
}

/// What happens to a service while its window is held (see [`Hold`]).
#[derive(Debug, Clone, Copy)]
enum Disturbance {
    /// Its p95 is reported at twice its QoS target.
    LatencyOverQos,
    /// An outside actor hands it idle cores, to past `rcliff + surplus_margin`.
    AllocationGrown,
}

/// Stages what a noise-free `SimServer` cannot: a service whose counters
/// stand still while its latency, or its allocation, moves. From tick `from`
/// and for `ticks` ticks, `sample` and `latency` of the
/// script's `service`-th entry answer what they answered at `from`, apart
/// from the [`Disturbance`]. A probe memo that keyed on the counters alone
/// would sleep through either.
#[derive(Debug, Clone, Copy)]
struct Hold {
    service: usize,
    from: usize,
    ticks: usize,
    disturbance: Disturbance,
}

/// Calls of the substrate's three per-service reads, so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Reads {
    latency: u64,
    sample: u64,
    allocation: u64,
}

/// The substrate both sides run on: the world's `SimServer` under its fault
/// plan, under the two things a [`World`] may stage on top.
pub(crate) struct Staged {
    inner: FaultySubstrate<SimServer>,
    /// `apps()` hands the ids out with every adjacent pair swapped.
    swap_pairs: bool,
    held: BTreeMap<AppId, (CounterSample, LatencyStats)>,
    /// Load changes that reached the machine.
    pub(crate) set_loads: usize,
    /// What the scheduler read. The trait's speculative read is left to its
    /// default, which asks `sample`: a caller of it would show up there.
    reads: Cell<Reads>,
}

impl Staged {
    /// `inner` with nothing staged on top.
    pub(crate) fn new(inner: FaultySubstrate<SimServer>) -> Self {
        let (held, reads) = (BTreeMap::new(), Cell::default());
        Staged { inner, swap_pairs: false, held, set_loads: 0, reads }
    }

    fn count(&self, read: impl FnOnce(&mut Reads)) {
        let mut reads = self.reads.get();
        read(&mut reads);
        self.reads.set(reads);
    }

    /// Starts holding `id`'s window as it stands, disturbed; a grown
    /// allocation ends one core past both what the service holds (a proven
    /// floor keeps Algorithm 3 quiet up to there) and `cliff_and_margin`.
    fn hold(&mut self, id: AppId, disturbance: Disturbance, cliff_and_margin: usize) {
        // Read under the fault plan's feet: staging is not a scheduler's call.
        let sample = self.inner.inner().sample(id).expect("a held service is placed");
        let mut lat = self.inner.latency(id).expect("a held service is placed");
        match disturbance {
            Disturbance::LatencyOverQos => lat.p95_ms = 2.0 * lat.qos_target_ms,
            Disturbance::AllocationGrown => {
                let mut alloc = self.inner.allocation(id).expect("a held service is placed");
                let surplus = alloc.cores.count().max(cliff_and_margin) + 1;
                for core in self.inner.idle_cores().iter() {
                    if alloc.cores.count() < surplus {
                        alloc.cores.insert(core);
                    }
                }
                assert_eq!(alloc.cores.count(), surplus, "too few idle cores to stage a surplus");
                // The world's move, not a scheduler's: written so that the
                // emission audit, which reads this file for method calls of
                // that name, does not take it for an unlogged decision.
                Substrate::reallocate(self.inner.inner_mut(), id, alloc)
                    .expect("idle cores are free to hand out");
            }
        }
        self.held.insert(id, (sample, lat));
    }
}

impl Substrate for Staged {
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }
    fn reallocate(&mut self, id: AppId, alloc: Allocation) -> Result<(), PlatformError> {
        Substrate::reallocate(&mut self.inner, id, alloc) // the machine's side: see `hold`
    }
    fn remove(&mut self, id: AppId) -> Result<(), PlatformError> {
        self.held.remove(&id);
        self.inner.remove(id)
    }
    fn advance(&mut self, seconds: f64) {
        self.inner.advance(seconds)
    }
    fn now(&self) -> f64 {
        self.inner.now()
    }
    fn apps(&self) -> Vec<AppId> {
        let mut ids = self.inner.apps();
        if self.swap_pairs {
            ids.chunks_exact_mut(2).for_each(|pair| pair.swap(0, 1));
        }
        ids
    }
    fn allocation(&self, id: AppId) -> Option<Allocation> {
        self.count(|r| r.allocation += 1);
        self.inner.allocation(id)
    }
    fn sample(&self, id: AppId) -> Option<CounterSample> {
        self.count(|r| r.sample += 1);
        // The inner call is made either way: the fault stream counts it.
        let live = self.inner.sample(id);
        self.held.get(&id).map_or(live, |&(sample, _)| Some(sample))
    }
    fn latency(&self, id: AppId) -> Option<LatencyStats> {
        self.count(|r| r.latency += 1);
        self.held.get(&id).map_or_else(|| self.inner.latency(id), |&(_, lat)| Some(lat))
    }
    fn idle_cores(&self) -> CoreSet {
        self.inner.idle_cores()
    }
    fn idle_way_count(&self) -> usize {
        self.inner.idle_way_count()
    }
    fn occupied_ways(&self, except: Option<AppId>) -> u32 {
        self.inner.occupied_ways(except)
    }
    fn find_free_ways(&self, count: usize, except: Option<AppId>) -> Option<WayMask> {
        self.inner.find_free_ways(count, except)
    }
}

impl Machine for Staged {
    fn launch(&mut self, spec: LaunchSpec, alloc: Allocation) -> Result<AppId, PlatformError> {
        self.inner.launch(spec, alloc)
    }
    fn set_load(&mut self, id: AppId, offered_rps: f64) -> Result<(), PlatformError> {
        self.set_loads += 1;
        self.inner.set_load(id, offered_rps)
    }
    fn injected_faults(&self) -> Vec<FaultRecord> {
        self.inner.injected_faults()
    }
}

struct World {
    name: String,
    /// Seed of the (untrained) Model-A.
    model_a_seed: u64,
    config: OsmlConfig,
    seed: u64,
    plan: FaultPlan,
    script: Vec<Arrival>,
    ticks: usize,
    /// Whether the substrate hands its ids out of order (see [`Staged`]).
    swap_pairs: bool,
    holds: Vec<Hold>,
}

/// What one run of a [`World`] leaves behind.
struct Outcome {
    log: UnifiedLog,
    layout: Vec<(u64, Allocation)>,
    /// The per-service records after each tick, memo aside: what the log
    /// does not show until a later decision reads it (a stored prediction,
    /// a cleared deadline).
    records: Vec<String>,
    decisions: u64,
    faults: usize,
    reached: [u64; MECHANISMS.len()],
    /// Every tick that logged nothing but its own `TickElapsed`.
    quiet_ticks: Vec<QuietTick>,
}

/// What a tick that took no action spent on finding records and on reading
/// the substrate.
#[derive(Debug, Clone, Copy)]
struct QuietTick {
    /// Services placed.
    services: usize,
    /// By-id descents of the record table's index.
    lookups: u64,
    /// Record timers popped (each is looked up by id: O(due), not O(fleet)).
    timer_pops: u64,
    /// Probes the memo skipped.
    memo_hits: u64,
    reads: Reads,
}

/// What [`QuietTick`] meters, so far: by-id lookups of the record table,
/// record timers popped, memo hits, then the substrate's three reads.
fn meters(host: &Host<Staged>) -> [u64; 6] {
    let reached = |m: Mechanism| host.scheduler.oracle.reached[m as usize];
    let popped = reached(Mechanism::CooldownExpiryPop) + reached(Mechanism::BlockedExpiryPop);
    let Reads { latency, sample, allocation } = host.machine.reads.get();
    let lookups = host.scheduler.records.descents();
    [lookups, popped, reached(Mechanism::MemoHit), latency, sample, allocation]
}

impl World {
    fn new(name: &str, config: OsmlConfig, seed: u64, script: Vec<Arrival>, ticks: usize) -> Self {
        let (name, plan) = (name.to_owned(), FaultPlan::none());
        let (swap_pairs, holds) = (false, Vec::new());
        World { name, model_a_seed: 1, config, seed, plan, script, ticks, swap_pairs, holds }
    }

    /// Drives the engine, or the reference, through the script on a
    /// [`Host`]: departures, arrivals and load changes, one simulated
    /// second, one tick, the drain. The three are called apart — not as
    /// `Host::step` — because a hold is staged between the second and the
    /// tick, and the lookup budget is measured around the tick alone.
    fn run(&self, reference: bool) -> Outcome {
        let models = Models::untrained(self.model_a_seed);
        let scheduler = if reference {
            OsmlScheduler::reference(models, self.config.clone())
        } else {
            OsmlScheduler::new(models, self.config.clone())
        };
        let sim = SimConfig { noise_sigma: 0.0, seed: self.seed, ..SimConfig::default() };
        let mut server = Staged::new(FaultySubstrate::new(SimServer::new(sim), self.plan.clone()));
        server.swap_pairs = self.swap_pairs;
        let mut host = Host::new(server, scheduler);
        let mut seats = vec![Seat::Pending; self.script.len()];
        let (mut records, mut quiet_ticks) = (Vec::new(), Vec::new());
        for tick in 0..self.ticks {
            for (seat, arrival) in seats.iter_mut().zip(&self.script) {
                if arrival.depart == Some(tick) {
                    *seat = host.depart(host.machine.now(), *seat);
                }
            }
            for (idx, arrival) in self.script.iter().enumerate() {
                if seats[idx] == Seat::Pending && arrival.arrive == tick {
                    let spec = LaunchSpec::at_percent_load(arrival.service, arrival.pct);
                    let class = slo_class_of(arrival.service);
                    let sub = Submission { workload: idx as u64, spec, class };
                    seats[idx] = host.submit(sub, LaunchCause::Scripted);
                }
            }
            for (seat, arrival) in seats.iter().zip(&self.script) {
                if let (Seat::Live(id), Some((at, pct))) = (*seat, arrival.load_change) {
                    if at == tick {
                        let rps = arrival.service.params().nominal_max_rps() * pct / 100.0;
                        host.set_load(host.machine.now(), id, rps);
                    }
                }
            }
            host.machine.advance(1.0);
            for hold in &self.holds {
                let Seat::Live(id) = seats[hold.service] else { continue };
                if tick == hold.from {
                    // The hold tests the memo only if the engine carries one.
                    let memoized =
                        host.scheduler.records.get(&id).is_some_and(|r| r.probe_memo.is_some());
                    assert!(reference || memoized, "{}: {id} is held unmemoized", self.name);
                    let cliff =
                        host.scheduler.prediction(id).expect("a live service is profiled").rcliff;
                    host.machine.hold(
                        id,
                        hold.disturbance,
                        cliff.cores + self.config.surplus_margin,
                    );
                } else if tick == hold.from + hold.ticks {
                    host.machine.held.remove(&id);
                }
            }
            let events = host.scheduler.unified_log().len();
            let before = meters(&host);
            host.scheduler.tick(&mut host.machine);
            if host.scheduler.unified_log().len() == events + 1 {
                let after = meters(&host);
                let [lookups, timer_pops, memo_hits, latency, sample, allocation] =
                    std::array::from_fn(|m| after[m] - before[m]);
                quiet_ticks.push(QuietTick {
                    services: host.machine.apps().len(),
                    lookups,
                    timer_pops,
                    memo_hits,
                    reads: Reads { latency, sample, allocation },
                });
            }
            for (workload, seat) in host.drain(|parked| parked) {
                seats[workload as usize] = seat;
            }
            let memo_aside = |r: &AppRecord| AppRecord { probe_memo: None, ..r.clone() };
            let table: Vec<_> =
                host.scheduler.records.iter().map(|(id, r)| (id, memo_aside(r))).collect();
            records.push(format!("{table:?}"));
        }
        let Host { machine: server, scheduler, .. } = host;
        let mut layout: Vec<(u64, Allocation)> = server
            .apps()
            .into_iter()
            .filter_map(|id| server.allocation(id).map(|a| (id.0, a)))
            .collect();
        layout.sort_by_key(|&(id, _)| id);
        Outcome {
            log: scheduler.unified_log().clone(),
            layout,
            records,
            decisions: scheduler.decision_count(),
            faults: server.inner.fault_count(),
            reached: scheduler.oracle.reached,
            quiet_ticks,
        }
    }

    /// Runs the reference and the engine; their logs, layouts and per-tick
    /// records must be equal. Returns `(reference, engine)`.
    fn compare(&self) -> (Outcome, Outcome) {
        let (reference, engine) = (self.run(true), self.run(false));
        if let Some(d) = first_divergence(&reference.log, &engine.log) {
            panic!("{}: the engine decided differently from the reference\n{d}", self.name);
        }
        assert_eq!(reference.log, engine.log, "{}: unified logs differ", self.name);
        assert_eq!(reference.layout, engine.layout, "{}: final layouts differ", self.name);
        for (tick, (r, e)) in reference.records.iter().zip(&engine.records).enumerate() {
            assert_eq!(r, e, "{}: records differ after tick {tick}", self.name);
        }
        assert_eq!(
            reference.reached,
            [0; MECHANISMS.len()],
            "{}: the reference used an engine mechanism",
            self.name
        );
        // The lookup budget, on the ticks that took no action: the reference
        // finds each service's record by id when its turn comes; the engine
        // finds none that way, beyond one per popped timer and one per id
        // the substrate handed out behind a larger one. Whatever else both
        // look up (a violator pricing its neighbours to no avail), both do.
        //
        // The read budget, on the same ticks. The memo spares no `latency` or
        // `sample` call (fault streams must not depend on it); a hit reads
        // the allocation once where Algorithm 3 would have, a miss on the
        // allocation alone has read it once more. So a tick on which every
        // probe hit (and, queue and brownout being off, nothing ran behind
        // the probe loop) read each of the three exactly once per service:
        // `platform.*_calls_per_op` on `node-steady`, and what a dirty-set
        // signal from the substrate would have to beat.
        assert_eq!(reference.quiet_ticks.len(), engine.quiet_ticks.len());
        for (r, e) in reference.quiet_ticks.iter().zip(&engine.quiet_ticks) {
            let n = e.services as u64;
            let out_of_order = if self.swap_pairs { n / 2 } else { 0 };
            assert_eq!(
                e.lookups + n,
                r.lookups + e.timer_pops + out_of_order,
                "{}: lookup budget, engine {e:?} against reference {r:?}",
                self.name
            );
            assert_eq!(
                (e.reads.latency, e.reads.sample),
                (r.reads.latency, r.reads.sample),
                "{}: read budget, engine {e:?} against reference {r:?}",
                self.name
            );
            assert!(
                e.reads.allocation <= r.reads.allocation + n - e.memo_hits,
                "{}: read budget, engine {e:?} against reference {r:?}",
                self.name
            );
            if e.memo_hits == n && !self.config.overload.is_enabled() {
                let once_each = Reads { latency: n, sample: n, allocation: n };
                assert_eq!(e.reads, once_each, "{}: read budget of a memoized tick", self.name);
            }
        }
        // The memo may only remove model decisions; nothing adds any.
        assert!(engine.decisions <= reference.decisions, "{}: the engine decided more", self.name);
        (reference, engine)
    }

    /// [`Self::compare`] for a world with a fault plan: faults must have been
    /// injected, equally many on both sides. Returns the engine's outcome.
    fn compare_under_faults(&self) -> Outcome {
        let (reference, engine) = self.compare();
        assert!(engine.faults > 0, "{}: the fault plan injected nothing", self.name);
        assert_eq!(reference.faults, engine.faults, "{}: fault streams differ", self.name);
        engine
    }
}

/// What the suite has seen the engine do so far, across worlds.
#[derive(Default)]
struct Seen {
    reached: [u64; MECHANISMS.len()],
    /// Whether one world's brownout both shaved and shed.
    shaved_and_shed: bool,
}

impl Seen {
    fn add(&mut self, engine: &Outcome) {
        for (total, n) in self.reached.iter_mut().zip(engine.reached) {
            *total += n;
        }
        let shaved = engine.log.count_decisions(|d| matches!(d, Decision::Shaved { .. }));
        let shed = engine.log.count_decisions(|d| matches!(d, Decision::Shed { .. }));
        self.shaved_and_shed |= shaved > 0 && shed > 0;
    }
}

fn overloaded(overload: OverloadConfig) -> OsmlConfig {
    OsmlConfig { overload, strict_layout: true, ..OsmlConfig::default() }
}

/// The random arrival / departure / load-change property: 24 scripts of
/// `sizes` services each, drawn as the property test this suite replaced
/// drew them.
fn random_scripts(name: &str, config: &OsmlConfig, sizes: std::ops::Range<usize>, seen: &mut Seen) {
    let mut rng = proptest::TestRng::from_name(name);
    let scripts = proptest::collection::vec((0u64..u64::MAX).prop_map(Arrival::decode), sizes);
    for case in 0..24 {
        let (script, seed) = (scripts.sample(&mut rng), (0u64..1000).sample(&mut rng));
        let world = World::new(&format!("{name} #{case}"), config.clone(), seed, script, 36);
        seen.add(&world.compare().1);
    }
}

/// One arrival a tick, every service twice over at 35 % load, far past what
/// the machine holds; the earliest arrivals leave from tick 16 on, one every
/// four ticks.
fn oversubscribed_script() -> Vec<Arrival> {
    (0..24)
        .map(|i| Arrival {
            depart: (i < 12).then_some(16 + 4 * i),
            ..Arrival::staying(ALL_SERVICES[i % ALL_SERVICES.len()], 35.0, i)
        })
        .collect()
}

#[test]
fn the_engine_agrees_with_the_reference_on_every_world_and_reaches_every_mechanism() {
    let mut seen = Seen::default();

    random_scripts("random scripts", &OsmlConfig::default(), 1..5, &mut seen);
    // The same property with the admission queue and brownout on, over
    // scripts long enough to fill the machine.
    let queued = overloaded(OverloadConfig::enabled());
    random_scripts("random scripts under overload", &queued, 8..20, &mut seen);

    // The over-subscribed anchor, at both queue configurations, and with a
    // wait short enough that deadlines expire by the dozen.
    for (name, overload) in [
        ("oversubscribed, binary rejection", OverloadConfig::default()),
        ("oversubscribed, queue and brownout", OverloadConfig::enabled()),
        (
            "oversubscribed, short waits",
            OverloadConfig { max_wait_ticks: 12, ..OverloadConfig::enabled() },
        ),
    ] {
        let world = World::new(name, overloaded(overload), 13, oversubscribed_script(), 100);
        seen.add(&world.compare().1);
    }

    // A quiet fleet: lightly loaded services that arrive early, never leave
    // and never change load. Once each settles, every further probe sees
    // the same counters, latency and layout, and the memo must skip it.
    let quiet = [Service::Memcached, Service::Nginx, Service::Masstree]
        .map(|service| Arrival::staying(service, 15.0, 0));
    let world = World::new("quiet fleet", OsmlConfig::default(), 11, quiet.to_vec(), 60);
    let (reference, engine) = world.compare();
    assert!(engine.decisions < reference.decisions, "the memo never skipped a quiet probe");
    // With nothing to do, the reference's only lookups are its one per
    // service per tick, and the engine's only lookups are its timer pops.
    assert!(engine.quiet_ticks.len() > 40, "the quiet fleet was not quiet");
    assert!(reference.quiet_ticks.iter().all(|t| t.lookups == t.services as u64));
    assert!(engine.quiet_ticks.iter().all(|t| t.lookups == t.timer_pops));
    let memoized = engine.quiet_ticks.iter().filter(|t| t.memo_hits == t.services as u64);
    assert!(memoized.count() > 40, "the read budget of a memoized tick was never checked");
    seen.add(&engine);

    // The same fleet with two windows held from tick 40, once every memo is
    // in place: the first service's counters stand still while its latency
    // crosses the guarded QoS line, the second's while an outside actor
    // grows its allocation past its cliff and margin. The reference walks
    // into Algorithm 2 and Algorithm 3's Model-C consult; a memo that did
    // not key on latency, or on the allocation, would sleep through them.
    let mut world =
        World::new("quiet fleet, held windows", OsmlConfig::default(), 11, quiet.to_vec(), 60);
    world.holds = [Disturbance::LatencyOverQos, Disturbance::AllocationGrown]
        .into_iter()
        .enumerate()
        .map(|(service, disturbance)| Hold { service, from: 40, ticks: 6, disturbance })
        .collect();
    let (reference, engine) = world.compare();
    // The scheduler's tick count is one ahead of the script's.
    let consulted = |app: u64, wanted: ActionKind| {
        reference.log.events().iter().filter(|e| e.tick == 41 && e.app == Some(app)).any(|e| {
            let EventBody::Decision(Decision::Alloc { kind, provenance, .. }) = &e.body else {
                return false;
            };
            *kind == wanted && *provenance == Provenance::ModelC
        })
    };
    assert!(consulted(0, ActionKind::Grant), "the latency hold never reached Algorithm 2");
    assert!(consulted(1, ActionKind::Reclaim), "the allocation hold never reached Algorithm 3");
    seen.add(&engine);

    // A chaos plan: retries, rollbacks and dropped windows, the same faults
    // on the same calls in both.
    let chaos = FaultPlan::new(0xAB, FaultProfile::chaos_default());
    let mut world = World::new("chaos", queued.clone(), 9, oversubscribed_script(), 100);
    world.plan = chaos.clone();
    seen.add(&world.compare_under_faults());

    // A large fleet: with `placement_via_models` off every service stays on
    // its (shared) bootstrap cores, so forty fit on one SimServer — enough
    // records for slot resolution and the lookup budget to be about a fleet.
    let fleet: Vec<Arrival> = (0..40)
        .map(|i| Arrival {
            depart: (i % 7 == 3).then_some(30 + i),
            load_change: (i % 5 == 1).then_some((20 + i % 9, 10.0 + 3.0 * (i % 13) as f64)),
            ..Arrival::staying(
                ALL_SERVICES[i % ALL_SERVICES.len()],
                8.0 + (i % 6) as f64 * 5.0,
                i / 2,
            )
        })
        .collect();
    let config = OsmlConfig { placement_via_models: false, ..OsmlConfig::default() };
    let mut world = World::new("large fleet", config, 5, fleet, 80);
    // Seed 1's Model-A rounds every sample of this world to one point;
    // seed 5's prediction moves with the sample.
    world.model_a_seed = 5;
    let engine = world.compare().1;
    assert!(!engine.quiet_ticks.is_empty(), "the lookup budget was never checked on a large fleet");
    seen.add(&engine);
    // The same fleet behind a substrate that hands its ids out of order:
    // every second one arrives behind the index walk and is looked up by id
    // (the budget `compare` checks allows exactly those), and nothing else
    // may change.
    world.name = "large fleet, ids out of order".to_owned();
    world.swap_pairs = true;
    let engine = world.compare().1;
    assert!(!engine.quiet_ticks.is_empty(), "the out-of-order lookups were never counted");
    seen.add(&engine);
    world.swap_pairs = false;
    // The same fleet under the chaos plan: equal faults on equal calls,
    // forty services wide.
    world.name = "large fleet, chaos".to_owned();
    world.plan = chaos;
    seen.add(&world.compare_under_faults());

    for (mechanism, reached) in MECHANISMS.iter().zip(seen.reached) {
        assert!(reached > 0, "no world reached {mechanism:?}");
    }
    assert!(seen.shaved_and_shed, "no brownout both shaved and shed");
}

/// No world can see this one: deadlines are authoritative and a memoized
/// probe reads neither of them, so the memo reset on a timer pop is
/// defensive. It is held directly.
#[test]
fn a_timer_pop_drops_the_memo() {
    let mut server = SimServer::deterministic();
    let alloc = crate::bootstrap_allocation(&mut server, 4);
    let id = server.launch(LaunchSpec::at_percent_load(Service::Login, 20.0), alloc).unwrap();
    server.advance(1.0);
    let memo =
        ProbeMemo { sample: server.sample(id).unwrap(), lat: server.latency(id).unwrap(), alloc };
    for event in [TimerEvent::CooldownExpiry(id), TimerEvent::BlockedExpiry(id)] {
        let mut scheduler = OsmlScheduler::new(Models::untrained(1), OsmlConfig::default());
        let mut record = AppRecord::adopted(OsmlScheduler::conservative_prediction(None), None);
        record.probe_memo = Some(memo.clone());
        scheduler.records.insert(id, record);
        scheduler.timers.schedule(1, event);
        scheduler.ticks = 1;
        scheduler.drain_due_timers();
        assert_eq!(scheduler.records.get(&id).unwrap().probe_memo, None, "{event:?}");
    }
}
