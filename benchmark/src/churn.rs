//! `node-churn`: the full-fidelity node. A trained template under the
//! default `OsmlConfig` (online learning on) with overload management and
//! strict layout, on a `FaultySubstrate<SimServer>` with the empty fault
//! plan (the path every figure takes), the unified journal attached to a
//! file. ≤ 11 services per world, so batching is gated off and arrivals,
//! departures, brownout, admission, Algorithm 1–4 actions, log emission
//! with its per-event flush, and Model-C's online training all run.

use crate::setup::{trained_template, training_config};
use crate::stats::Fnv;
use crate::traced::{Host, Mode, Phase, StepClock, Traced};
use crate::workload::{digest_layout, measured_jsonl, Round, Workload};
use crate::Scratch;
use osml_bench::chaos::layout_invariants_ok;
use osml_bench::overload::{overload_script, slo_class_of};
use osml_core::{OsmlConfig, OsmlScheduler, OverloadConfig};
use osml_platform::{hash01, AppId, FaultPlan, FaultySubstrate, Placement, Scheduler};
use osml_workloads::loadgen::ArrivalScript;
use osml_workloads::{LaunchSpec, SimConfig, SimServer};
use std::path::PathBuf;

/// Offered-load levels of the overload script, from under the co-location
/// frontier to twice past it.
pub const LEVELS: [f64; 4] = [0.8, 1.2, 1.6, 2.0];

/// One scripted world: an arrival script and the machine seed it runs on.
#[derive(Debug, Clone)]
pub struct ChurnWorld {
    /// Scripted arrivals, departures and loads.
    pub script: ArrivalScript,
    /// `SimConfig::seed` of the world's machine.
    pub sim_seed: u64,
}

/// Seed of the anchor worlds: the half of every round that is the same
/// whatever `--seed` says.
const ANCHOR_SEED: u64 = 0x0a0c_0a0c;

/// The worlds of one round: every level × `per_level` machines, half of
/// them (rounded down) anchors drawn from [`ANCHOR_SEED`], the rest drawn
/// from `seed`. A world's level is jittered by ±5 % and its machine's noise
/// stream seeded, so offered loads and counters are both a function of the
/// seed; arrival and departure times are not, so every seed demands the
/// same service-seconds.
///
/// Why anchors: how many actions — hence Model-C training steps, ≈0.8 ms
/// each — a world provokes is chaotic in its seed, and with all 24 worlds
/// seeded `ops_per_s` spreads ≈10 % (IQR/median over ten seeds) from the
/// inputs alone, beyond any bound a regression gate could use. Half the
/// worlds still change with every seed, which is what keeps a change from
/// being tuned to the worlds it was written against.
pub fn churn_worlds(seed: u64, per_level: usize) -> Vec<ChurnWorld> {
    let mut worlds = Vec::new();
    for (l, &level) in LEVELS.iter().enumerate() {
        for k in 0..per_level {
            let w = (l * per_level + k) as u64;
            let source = if k < per_level / 2 { ANCHOR_SEED } else { seed };
            let jitter = 0.95 + 0.1 * hash01(source, w, 0x1e7e1);
            worlds.push(ChurnWorld {
                script: overload_script(level * jitter),
                sim_seed: hash01(source, w, 0x5eed).to_bits(),
            });
        }
    }
    worlds
}

/// The controller configuration of `node-churn` (and of the worlds
/// `log-replay` records): the defaults plus overload management and strict
/// layout, as the overload harness runs them.
pub fn churn_config() -> OsmlConfig {
    OsmlConfig { overload: OverloadConfig::enabled(), strict_layout: true, ..OsmlConfig::default() }
}

/// The machine of one churn world.
pub fn churn_machine(sim_seed: u64) -> FaultySubstrate<SimServer> {
    let sim = SimServer::new(SimConfig { seed: sim_seed, ..SimConfig::default() });
    FaultySubstrate::new(sim, FaultPlan::none())
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Pending,
    Live(AppId),
    Waiting(u64),
    Done,
}

/// What one world's loop tallied.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    steps: u64,
    demanded: u64,
    failed: u64,
    layout_breaches: u64,
}

fn submit<H: Host>(
    scheduler: &mut OsmlScheduler,
    server: &mut H,
    world: &ChurnWorld,
    idx: usize,
    t: f64,
) -> Slot {
    let event = &world.script.events[idx];
    let spec = LaunchSpec {
        service: event.service,
        threads: event.threads,
        offered_rps: event.load.rps_at(t).max(1e-3),
    };
    let alloc = osml_core::bootstrap_allocation(server, event.threads);
    let id = server.launch(spec, alloc);
    match scheduler.on_arrival_classed(server, id, slo_class_of(event.service)) {
        Placement::Placed => Slot::Live(id),
        // The scheduler holds the seat; the harness withdraws the process
        // until the ticket is polled back.
        Placement::Deferred { ticket } => {
            let _ = server.remove(id);
            scheduler.on_departure(id);
            Slot::Waiting(ticket)
        }
        Placement::Rejected(_) => {
            let _ = server.remove(id);
            scheduler.on_departure(id);
            Slot::Done
        }
    }
}

/// Drives one world to the end of its script: the minimal
/// arrive/depart/tick/`take_shed`/`poll_admission` loop (the shape of
/// `osml_bench::overload::run_overload_detailed`, minus its reporting and
/// restart arms), generic over the machine so the traced run can wrap it.
fn drive<H: Host>(
    world: &ChurnWorld,
    server: &mut H,
    scheduler: &mut OsmlScheduler,
    clock: &mut StepClock<'_>,
) -> Tally {
    let script = &world.script;
    let n = script.events.len();
    let mut slots = vec![Slot::Pending; n];
    let mut tally = Tally::default();
    let (mut t, mut prev_t) = (0.0f64, 0.0f64);
    while t <= script.duration_s {
        clock.begin();
        for (idx, slot) in slots.iter_mut().enumerate() {
            if t < script.events[idx].depart_s {
                continue;
            }
            match *slot {
                Slot::Live(id) => {
                    let _ = server.remove(id);
                    scheduler.on_departure(id);
                    *slot = Slot::Done;
                }
                Slot::Waiting(ticket) => {
                    scheduler.cancel_ticket(ticket);
                    *slot = Slot::Done;
                }
                _ => {}
            }
        }
        for (idx, event) in script.events.iter().enumerate() {
            if slots[idx] == Slot::Pending && t >= event.arrive_s && t < event.depart_s {
                slots[idx] = submit(scheduler, server, world, idx, t);
            }
        }
        clock.lap(Phase::Arrivals);

        server.advance(1.0);
        t = server.now();
        clock.lap(Phase::Advance);

        scheduler.tick(server);
        clock.lap(Phase::Tick);

        // Controller-initiated sheds: withdraw the process (its record is
        // already gone) and park the ticket.
        for id in scheduler.take_shed() {
            if let Some(idx) = slots.iter().position(|s| *s == Slot::Live(id)) {
                let _ = server.remove(id);
                slots[idx] = Slot::Waiting(id.0);
            }
        }
        // Admission retries: spend banked credits relaunching waiters.
        while let Some(ticket) = scheduler.poll_admission() {
            match slots.iter().position(|s| *s == Slot::Waiting(ticket)) {
                Some(idx) => slots[idx] = submit(scheduler, server, world, idx, t),
                None => {
                    scheduler.cancel_ticket(ticket);
                }
            }
        }
        // A ticket the scheduler no longer tracks has timed out.
        for slot in slots.iter_mut() {
            if matches!(*slot, Slot::Waiting(ticket) if !scheduler.is_waiting(ticket)) {
                *slot = Slot::Done;
            }
        }
        clock.lap(Phase::Drain);
        clock.end();

        // Accounting and invariants, outside the timed step. One op is one
        // demanded service-second: a scripted-active service over this
        // step. It fails unless that service is running within its QoS
        // target. Placement profiling advances the clock by whole sampling
        // windows, so a step can be wider than 1 s; weighting by its width
        // (as the overload harness does) makes a world's demand the sum of
        // its scripted lifetimes, whatever the controller did.
        let dt = (t - prev_t).round() as u64;
        prev_t = t;
        let demanded = script.active_at(t).count() as u64;
        let served = slots
            .iter()
            .filter(|s| match **s {
                Slot::Live(id) => server.latency(id).is_some_and(|l| !l.violates_qos()),
                _ => false,
            })
            .count() as u64;
        tally.steps += 1;
        tally.demanded += demanded * dt;
        tally.failed += demanded.saturating_sub(served) * dt;
        tally.layout_breaches += u64::from(!layout_invariants_ok(server));
    }
    tally
}

/// `node-churn`'s prepared inputs.
#[derive(Debug)]
pub struct NodeChurn {
    template: OsmlScheduler,
    worlds: Vec<ChurnWorld>,
    journal_dir: Scratch,
}

impl NodeChurn {
    /// The trained template (for the dataset-split identity check).
    pub fn template(&self) -> &OsmlScheduler {
        &self.template
    }

    fn journal_path(&self, world: usize) -> PathBuf {
        self.journal_dir.path().join(format!("node-churn-{world}.jsonl"))
    }

    /// Runs world `w`, folding its log and final layout into `digest`.
    fn run_world(&self, w: usize, clock: &mut StepClock<'_>, round: &mut Round, digest: &mut Fnv) {
        let world = &self.worlds[w];
        let mut scheduler = self.template.clone().with_config(churn_config());
        let path = self.journal_path(w);
        let _ = std::fs::remove_file(&path);
        scheduler.attach_unified_journal(&path).expect("journal file opens under benchmark/out");
        clock.set_world(w as u32);
        let machine = churn_machine(world.sim_seed);
        let (machine, tally) = match clock.tracer() {
            Some(tracer) => {
                scheduler.set_telemetry(tracer.telemetry.clone());
                let mut traced = Traced::new(machine, tracer.taps.clone());
                let tally = drive(world, &mut traced, &mut scheduler, clock);
                (traced.into_inner(), tally)
            }
            None => {
                let mut machine = machine;
                let tally = drive(world, &mut machine, &mut scheduler, clock);
                (machine, tally)
            }
        };

        let c = &mut round.counts;
        c.steps += tally.steps;
        c.ops += tally.demanded;
        c.demanded += tally.demanded;
        c.failed_ops += tally.failed;
        c.actions += scheduler.action_count() as u64;
        c.decisions += scheduler.decision_count();
        let jsonl = measured_jsonl(scheduler.unified_log(), 0);
        c.log_events += scheduler.unified_log().len() as u64;
        c.log_bytes += jsonl.len() as u64;
        round.check(tally.layout_breaches == 0, || {
            format!("world {w}: layout invariants broke on {} ticks", tally.layout_breaches)
        });
        // The crash-safe deployment's promise: the journal on disk is the
        // log in memory.
        let on_disk = std::fs::read_to_string(&path).unwrap_or_default();
        round.check(on_disk == jsonl, || format!("world {w}: journal file differs from the log"));
        let _ = std::fs::remove_file(&path);

        digest.write(jsonl.as_bytes());
        digest_layout(digest, &machine);
    }
}

impl Workload for NodeChurn {
    const NAME: &'static str = "node-churn";

    fn setup(seed: u64, smoke: bool) -> Self {
        let me = NodeChurn {
            template: trained_template(&training_config(smoke)),
            worlds: churn_worlds(seed, if smoke { 1 } else { 6 }),
            journal_dir: Scratch::new(),
        };
        // Warm-up: one world end to end (journal file created, allocator
        // and page cache touched), discarded.
        let mut clock = StepClock::new(Mode::Plain, 256);
        me.run_world(0, &mut clock, &mut Round::default(), &mut Fnv::default());
        me
    }

    fn round(&mut self, mode: Mode<'_>) -> Round {
        let mut clock = StepClock::new(mode, self.worlds.len() * 256);
        let mut round = Round::default();
        let mut digest = Fnv::default();
        for w in 0..self.worlds.len() {
            self.run_world(w, &mut clock, &mut round, &mut digest);
        }
        round.digest = digest.finish();
        round.with_timings(clock)
    }
}
