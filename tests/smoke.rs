//! Tier-1 smoke tests: what `cargo test -q` at the repo root runs.
//!
//! Seven kinds of check, all seconds long:
//!
//! * **Pinned training digests.** Every f32 operation sequence of the ML
//!   kernels is part of their contract (see `osml_ml::Matrix`): the digests
//!   below were recorded from the commit *before* `Dqn::train_step` was fused
//!   and `matmul_transpose_into` vectorised (Model-B′'s masked-loss fit:
//!   before the step skipped inert rows), and any kernel change that moves
//!   a single weight bit moves them.
//! * **Pinned simulator digest.** Every `f64` the contention solver hands out
//!   is part of `SimServer`'s contract in the same way: the digest was
//!   recorded from the commit *before* `recompute` started caching the
//!   allocation-dependent half of `perf::evaluate`, along one scripted
//!   trajectory on a noisy and on a deterministic machine.
//! * **Place and hold.** A small trained suite places three services and
//!   keeps them placed, on disjoint cores and within QoS, through 30 s of
//!   monitoring.
//! * **One record.** A short overload world is driven through
//!   `osml_core::host` — the host the figures use — with the journal
//!   attached and a checkpoint every five ticks; the unified log alone must
//!   fold back to the live controller's state and the file on disk must be
//!   the log. The controller is killed before each of ticks 1–39 in turn,
//!   one run per kill, and recovered from checkpoint + journal suffix: both
//!   must hold after every recovery, with no allocation reported drifted.
//!   A mutation site that lost its only emission fails here first.
//! * **Wire fixtures.** `tests/fixtures/wire/` holds one of every kind of
//!   file the program writes, written by the tree-model codec this
//!   repository used up to PR 13. Each must decode and re-encode to the same
//!   bytes: the files on disk outlive the code that wrote them. (The
//!   snapshot pair is the newest format's; the last pair of the version
//!   before must be refused by version.)
//! * **Scan-engine anchor.** The overload world of the one-record test,
//!   digested as the scan loop decided it before that loop was deleted.
//! * **Lossy fleet.** Eight nodes behind a 10 % lossy channel, one partition
//!   window, one crash, through the fleet loop Figs. 22 and 23 use, at three
//!   seeds: the conservation ledger is exact, the cluster's log folds and no
//!   ghost replica survives a short settle.

use osml::bench::cluster::{lossy_fleet, LossyFleet};
use osml::bench::scenario::place_all;
use osml::dataset::{SweepConfig, TrainedModels, TrainingConfig};
use osml::ml::store::ModelStore;
use osml::ml::TrainerConfig;
use osml::models::{Action, ModelA, ModelBPrime, ModelC, ACTIONS};
use osml::platform::{
    hash01, Allocation, CoreSet, CounterSample, MbaThrottle, Scheduler, Substrate, WayMask,
};
use osml::scheduler::host::{slo_class_of, Host, Seat, Submission};
use osml::scheduler::recovery::{decode_snapshot, encode_snapshot, fnv1a64};
use osml::scheduler::{
    Decision, EventBody, LaunchCause, Models, OsmlConfig, OsmlScheduler, OverloadConfig,
    RecoveryError, RecoveryMode, RecoveryReport, RecoveryStore, SchedulerSnapshot, ScratchDir,
    UnifiedEvent, UnifiedLog,
};
use osml::workloads::{LaunchSpec, Service, SimConfig, SimServer, ALL_SERVICES};

/// Recorded at the parent of the fused-training-step change.
const MODEL_C_CHECKPOINT_DIGEST: u64 = 0xd0b7_ebf9_bdd3_740d;
/// Recorded at the parent of the fused-training-step change.
const MODEL_A_WEIGHTS_DIGEST: u64 = 0x452d_3ac5_0d87_4334;
/// Recorded at the parent of the inert-row training step.
const MODEL_B_PRIME_FIT_DIGEST: u64 = 0x42db_31e5_807f_440d;

/// Recorded at the parent of the prepare/outcome split of `perf::evaluate`.
const SIM_TRAJECTORY_DIGEST: u64 = 0xd6a6_1472_71af_13ff;

/// Recorded at a7ca796 — the last commit with a scan engine — on that
/// engine; the event engine produced the same value there.
const SCAN_ENGINE_WORLD_DIGEST: u64 = 0xe600_0149_bca6_faf7;

/// A plausible counter sample that is a pure function of `(salt, i)`.
fn sample(salt: u64, i: u64) -> CounterSample {
    let u = |j: u64| hash01(salt, i, j);
    CounterSample {
        ipc: 0.4 + 1.6 * u(0),
        llc_misses_per_sec: 1e6 + 5e7 * u(1),
        mbl_gbps: 12.0 * u(2),
        cpu_usage: 1.0 + 30.0 * u(3),
        memory_util_gb: 1.0 + 6.0 * u(4),
        virt_memory_gb: 2.0 + 8.0 * u(5),
        res_memory_gb: 1.0 + 6.0 * u(6),
        llc_occupancy_mb: 40.0 * u(7),
        allocated_cores: 1 + (35.0 * u(8)) as usize,
        allocated_ways: 1 + (19.0 * u(9)) as usize,
        frequency_ghz: 2.3,
        response_latency_ms: 1.0 + 200.0 * u(10) * u(10),
    }
}

#[test]
fn model_c_online_training_digest_is_pinned() {
    // 300 observe + train_step calls on the paper's configuration: the
    // first 199 only fill the pool, the next 101 each run a 200-tuple
    // update and cross five target-sync boundaries. Even steps take the
    // agent's own (mostly greedy, hence repeated) action, odd steps a
    // hashed one.
    let mut c = ModelC::new(0xC0FFEE);
    for i in 0..300u64 {
        let (before, after) = (sample(1, i), sample(2, i));
        let action = if i % 2 == 0 {
            c.select_action(&before)
        } else {
            Action::from_index((hash01(3, i, 0) * ACTIONS as f64) as usize)
        };
        c.observe(&before, action, &after);
        c.train_step();
    }
    let json = serde_json::to_string(&c.checkpoint()).expect("checkpoint serializes");
    assert_eq!(
        fnv1a64(json.as_bytes()),
        MODEL_C_CHECKPOINT_DIGEST,
        "Model-C's weights, moments, pool or RNG position moved: a kernel changed an f32 \
         operation order (digest {:#018x})",
        fnv1a64(json.as_bytes())
    );
}

#[test]
fn model_a_fit_digest_is_pinned() {
    let mut model = ModelA::new(36, 20, 7);
    let (inputs, outputs) = (model.mlp().input_size(), model.mlp().output_size());
    // 300 rows, 10 % held out: four batches of 64 and a tail of 14.
    let mut x = osml::ml::Matrix::zeros(300, inputs);
    let mut y = osml::ml::Matrix::zeros(300, outputs);
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        *v = hash01(4, i as u64, 0) as f32;
    }
    for (i, v) in y.as_mut_slice().iter_mut().enumerate() {
        *v = hash01(5, i as u64, 0) as f32;
    }
    let report = model.train(
        &x,
        &y,
        TrainerConfig { epochs: 4, batch_size: 64, ..TrainerConfig::default() },
    );
    assert!(report.epoch_losses.last() < report.epoch_losses.first(), "{report:?}");
    let json = serde_json::to_string(model.mlp()).expect("network serializes");
    assert_eq!(
        fnv1a64(json.as_bytes()),
        MODEL_A_WEIGHTS_DIGEST,
        "Model-A's fitted weights moved: a kernel changed an f32 operation order \
         (digest {:#018x})",
        fnv1a64(json.as_bytes())
    );
}

#[test]
fn model_b_prime_fit_digest_is_pinned() {
    // The masked-loss path: a row whose label is the "non-existent" 0 moves
    // no weight. 357 rows, 35 held out: eleven batches of 29 (seven 4-row
    // groups and one leftover row each) and a last batch of three. About
    // half the labels are 0, so every position of a group is inert in some
    // batch, and features of both signs make `±0.0` products.
    let mut model = ModelBPrime::new(11);
    let (rows, inputs) = (357, model.mlp().input_size());
    let mut x = osml::ml::Matrix::zeros(rows, inputs);
    let mut y = osml::ml::Matrix::zeros(rows, 1);
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        *v = 2.0 * hash01(6, i as u64, 0) as f32 - 1.0;
    }
    for (i, v) in y.as_mut_slice().iter_mut().enumerate() {
        let u = hash01(7, i as u64, 0);
        *v = if u < 0.5 { 0.0 } else { (u - 0.45) as f32 };
    }
    let inert = y.as_slice().iter().filter(|&&v| v == 0.0).count();
    assert!((rows * 2 / 5..rows * 3 / 5).contains(&inert), "{inert} of {rows} rows inert");
    let report = model.train(
        &x,
        &y,
        TrainerConfig { epochs: 6, batch_size: 29, ..TrainerConfig::default() },
    );
    assert!(report.epoch_losses.last() < report.epoch_losses.first(), "{report:?}");
    let json =
        serde_json::to_string(&(model.mlp(), &report)).expect("network and report serialize");
    assert_eq!(
        fnv1a64(json.as_bytes()),
        MODEL_B_PRIME_FIT_DIGEST,
        "Model-B′'s fitted weights or training report moved: a kernel changed an f32 operation \
         order (digest {:#018x})",
        fnv1a64(json.as_bytes())
    );
}

/// Appends the bits of every `outcome`/`sample`/`latency` field of every
/// placed app, in id order.
fn push_sim_state(server: &SimServer, bytes: &mut Vec<u8>) {
    for id in server.apps() {
        let (o, s, l) = (
            server.outcome(id).expect("placed"),
            server.sample(id).expect("placed"),
            server.latency(id).expect("placed"),
        );
        let floats = [
            o.service_time_ms,
            o.mean_ms,
            o.p95_ms,
            o.utilization,
            o.achieved_rps,
            o.capacity_rps,
            o.misses_per_sec,
            o.bw_demand_gbps,
            o.ipc,
            o.cpu_usage,
            o.llc_occupancy_mb,
            s.ipc,
            s.llc_misses_per_sec,
            s.mbl_gbps,
            s.cpu_usage,
            s.memory_util_gb,
            s.virt_memory_gb,
            s.res_memory_gb,
            s.llc_occupancy_mb,
            s.frequency_ghz,
            s.response_latency_ms,
            l.mean_ms,
            l.p95_ms,
            l.achieved_rps,
            l.offered_rps,
            l.qos_target_ms,
        ];
        bytes.extend_from_slice(&id.0.to_le_bytes());
        for f in floats {
            bytes.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&(s.allocated_cores as u64).to_le_bytes());
        bytes.extend_from_slice(&(s.allocated_ways as u64).to_le_bytes());
    }
}

#[test]
fn simulator_trajectory_digest_is_pinned() {
    let alloc = |cores: std::ops::Range<usize>, first_way, ways, mba: u8| {
        Allocation::new(
            CoreSet::from_cores(cores),
            WayMask::contiguous(first_way, ways).expect("ways fit"),
            MbaThrottle::percent(mba).expect("a 10 % step"),
        )
    };
    let mut bytes = Vec::new();
    for config in [SimConfig::default(), SimConfig::deterministic()] {
        let mut server = SimServer::new(config);
        // `$call` changes the machine; the state after it joins the digest.
        macro_rules! then {
            ($call:expr) => {{
                let value = $call;
                push_sim_state(&server, &mut bytes);
                value
            }};
        }
        let launch = |service, percent| LaunchSpec::at_percent_load(service, percent);
        // Moses and Specjbb share ways 6..10 and time-share cores 6 and 7;
        // Xapian runs 24 threads on 4 cores; Img-dnn sits on the HT siblings
        // of Moses' cores and shares Xapian's ways.
        let moses =
            then!(server.launch(launch(Service::Moses, 60.0), alloc(0..8, 0, 10, 100))).unwrap();
        then!(server.advance(1.0));
        let specjbb =
            then!(server.launch(launch(Service::Specjbb, 70.0), alloc(6..16, 6, 8, 100))).unwrap();
        let xapian =
            then!(server.launch(launch(Service::Xapian, 40.0), alloc(16..20, 12, 8, 100))).unwrap();
        let img_dnn =
            then!(server.launch(launch(Service::ImgDnn, 50.0), alloc(18..26, 14, 6, 100))).unwrap();
        for _ in 0..4 {
            then!(server.advance(1.0));
        }
        // An MBA throttle on the bandwidth hog, then a squeeze that starves it.
        then!(server.reallocate(specjbb, alloc(6..16, 6, 8, 20))).unwrap();
        for _ in 0..3 {
            then!(server.advance(1.0));
        }
        then!(server.reallocate(specjbb, alloc(8..14, 10, 2, 20))).unwrap();
        then!(server.advance(1.0));
        // Load steps, up past saturation and back down.
        for percent in [90.0, 140.0, 30.0] {
            let rps = Service::Moses.params().nominal_max_rps() * percent / 100.0;
            then!(server.set_load(moses, rps)).unwrap();
            then!(server.advance(1.0));
            then!(server.advance(1.0));
        }
        // A no-op reallocate inside Specjbb's warm-up window and, later, one
        // outside Xapian's: neither restarts warm-up, both draw noise.
        let same = server.allocation(specjbb).expect("placed");
        then!(server.reallocate(specjbb, same)).unwrap();
        for _ in 0..5 {
            then!(server.advance(1.0));
        }
        let same = server.allocation(xapian).expect("placed");
        then!(server.reallocate(xapian, same)).unwrap();
        then!(server.remove(img_dnn)).unwrap();
        then!(server.advance(0.5));
        then!(server.reallocate(xapian, alloc(16..36, 12, 8, 100))).unwrap();
        for _ in 0..40 {
            then!(server.advance(1.0));
        }
        then!(server.remove(moses)).unwrap();
        then!(server.advance(1.0));
    }
    assert_eq!(
        fnv1a64(&bytes),
        SIM_TRAJECTORY_DIGEST,
        "a sample, latency or outcome bit moved along the scripted trajectory: the contention \
         solver changed an f64 operation order or the noise stream's draw order (digest {:#018x})",
        fnv1a64(&bytes)
    );
}

#[test]
fn small_trained_suite_places_and_holds_three_services() {
    let services = [Service::Moses, Service::ImgDnn, Service::Xapian];
    let trained = TrainedModels::train(&TrainingConfig {
        sweep: SweepConfig { jobs: Some(1), ..SweepConfig::tiny(&services) },
        trainer: TrainerConfig { epochs: 40, batch_size: 64, ..TrainerConfig::default() },
        dqn_steps: 50,
        seed: 0x0511,
    });
    let models = Models {
        model_a: trained.model_a,
        model_b: trained.model_b,
        model_b_prime: trained.model_b_prime,
        model_c: trained.model_c,
    };
    let mut osml = OsmlScheduler::new(models, OsmlConfig::default());

    let mut server = SimServer::deterministic();
    let specs = services.map(|service| LaunchSpec::at_percent_load(service, 30.0));
    let (placed, all_placed) = place_all(&mut osml, &mut server, &specs, |_| {});
    assert!(all_placed, "{placed:?}");
    let ids: Vec<_> = placed.iter().map(|p| p.0).collect();
    for _ in 0..30 {
        server.advance(1.0);
        osml.tick(&mut server);
    }

    let held: Vec<_> = ids
        .iter()
        .map(|&id| server.allocation(id).expect("every service is still placed"))
        .collect();
    assert!(held.iter().all(|a| a.cores.count() >= 1 && a.ways.count() >= 1), "{held:?}");
    for (i, a) in held.iter().enumerate() {
        for b in &held[i + 1..] {
            assert!(a.cores.iter().all(|c| !b.cores.contains(c)), "cores overlap: {a:?} {b:?}");
        }
    }
    for &id in &ids {
        let lat = server.latency(id).expect("placed");
        assert!(!lat.violates_qos(), "{:?} over QoS: {lat:?}", server.service_of(id));
    }
}

/// The one-record worlds' node. `workload` in these worlds' facts is a
/// running launch counter, retries included.
struct World {
    host: Host<SimServer>,
    launched: u64,
}

impl World {
    fn submit(&mut self, spec: LaunchSpec) {
        let sub = Submission { workload: self.launched, spec, class: slo_class_of(spec.service) };
        self.launched += 1;
        self.host.submit(sub, LaunchCause::Scripted);
    }

    fn tick(&mut self) {
        let launched = &mut self.launched;
        self.host.step(|parked| {
            *launched += 1;
            Submission { workload: *launched - 1, ..parked }
        });
    }

    /// The log alone folds to the live state, and the journal is the log.
    fn assert_one_record(&self, store: &RecoveryStore, when: &str) {
        let log = self.host.scheduler.unified_log();
        assert_eq!(
            log.replay().expect("the log is sufficient"),
            self.host.scheduler.live_replay_state(&self.host.machine),
            "{when}: replay(log) != live state — a mutation site lost its emission"
        );
        assert!(log.journal_error().is_none(), "{when}: {:?}", log.journal_error());
        assert_eq!(
            std::fs::read_to_string(store.unified_path()).expect("journal exists"),
            log.to_jsonl(),
            "{when}: the journal on disk is not the log in memory"
        );
    }
}

fn overload_world_config() -> OsmlConfig {
    OsmlConfig {
        overload: OverloadConfig { max_wait_ticks: 12, ..OverloadConfig::enabled() },
        strict_layout: true,
        ..OsmlConfig::default()
    }
}

fn overload_world(scheduler: OsmlScheduler) -> World {
    let server = SimServer::new(SimConfig { noise_sigma: 0.0, seed: 13, ..SimConfig::default() });
    World { host: Host::new(server, scheduler), launched: 0 }
}

/// Second `t` of the overload world: one arrival per tick, every service
/// twice over, far past what the machine holds; the earliest residents leave
/// from tick 16 on. Over 40 of these the world defers, evicts, admits, times
/// out, enters brownout, shaves and leaves brownout again.
fn overload_world_step(world: &mut World, t: u64) {
    if t < 24 {
        let service = ALL_SERVICES[(t as usize) % ALL_SERVICES.len()];
        world.submit(LaunchSpec::at_percent_load(service, 35.0));
    }
    if t >= 16 && t.is_multiple_of(4) {
        if let Some(&oldest) = world.host.machine.apps().first() {
            world.host.depart(world.host.machine.now(), Seat::Live(oldest));
        }
    }
    world.tick();
}

/// The overload world with its journal attached and a checkpoint after
/// every fifth tick, the controller killed and recovered before tick
/// `kill`. Returns the recovery's report and whether the journal suffix it
/// folded carried actions, not just ticks.
fn one_record_across_a_kill_at(kill: u64) -> (RecoveryReport, bool) {
    let config = overload_world_config();
    let scratch = ScratchDir::new("smoke-one-record");
    let store = RecoveryStore::open(scratch.path()).expect("open recovery store");

    let mut scheduler = OsmlScheduler::new(Models::untrained(1), config.clone());
    scheduler.attach_unified_journal(&store.unified_path()).expect("attach journal");
    let mut world = overload_world(scheduler);

    let mut recovery = None;
    let mut actions_at_snapshot = 0;
    for t in 0..40u64 {
        if t == kill {
            world.assert_one_record(&store, &format!("kill@{kill}: before the kill"));
            let report = world.host.kill_and_recover(Models::untrained(1), config.clone(), &store);
            assert_eq!(report.mode, RecoveryMode::Warm, "kill@{kill}");
            assert_eq!(report.alloc_drift, 0, "kill@{kill}: nothing moved underneath: {report:?}");
            world.assert_one_record(&store, &format!("kill@{kill}: after the recovery"));
            let suffix_acted = world.host.scheduler.action_count() > actions_at_snapshot;
            recovery = Some((report, suffix_acted));
        }
        overload_world_step(&mut world, t);
        if t % 5 == 0 {
            world.host.checkpoint(&store);
            actions_at_snapshot = world.host.scheduler.action_count();
        }
    }
    world.assert_one_record(&store, &format!("kill@{kill}: at the end"));

    let log = world.host.scheduler.unified_log();
    let count = |pred: fn(&Decision) -> bool| log.count_decisions(pred);
    assert!(count(|d| matches!(d, Decision::Deferred { .. })) > 0, "the world never overloaded");
    assert!(count(|d| matches!(d, Decision::Admitted { .. })) > 0, "no waiter was ever admitted");
    assert_eq!(count(|d| matches!(d, Decision::Restarted { .. })), 1);
    // The queue stays FIFO within a class across the restart: every deferral
    // takes a sequence number no earlier deferral took.
    let mut seqs: Vec<u64> = log
        .decisions()
        .filter_map(|e| match &e.body {
            EventBody::Decision(Decision::Deferred { entry }) => Some(entry.seq),
            _ => None,
        })
        .collect();
    let deferrals = seqs.len();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), deferrals, "kill@{kill}: a deferral reused a queue sequence number");
    recovery.expect("the kill tick lies inside the run")
}

#[test]
fn one_record_replays_to_live_on_disk_and_across_a_crash() {
    // One run per kill tick: between a deferral and its admission, inside
    // and after brownout, on a checkpoint and up to four ticks past one.
    let mut suffix_with_actions = 0;
    for kill in 1..40 {
        let (report, suffix_acted) = one_record_across_a_kill_at(kill);
        suffix_with_actions += usize::from(report.journal_replayed > 0 && suffix_acted);
    }
    assert!(suffix_with_actions > 0, "no kill landed past a snapshot with actions in the suffix");
}

#[test]
fn overload_world_digest_recorded_on_the_scan_engine_is_pinned() {
    let mut world =
        overload_world(OsmlScheduler::new(Models::untrained(1), overload_world_config()));
    for t in 0..40u64 {
        overload_world_step(&mut world, t);
    }
    let log = world.host.scheduler.unified_log();
    let count = |pred: fn(&Decision) -> bool| log.count_decisions(pred);
    assert!(count(|d| matches!(d, Decision::Deferred { .. })) > 0, "the world never overloaded");
    assert!(count(|d| matches!(d, Decision::TimedOut { .. })) > 0, "no waiter ever timed out");
    assert!(count(|d| matches!(d, Decision::Shaved { .. })) > 0, "brownout never shaved");
    let machine = &world.host.machine;
    let layout: Vec<(u64, Allocation)> = machine
        .apps()
        .into_iter()
        .map(|id| (id.0, machine.allocation(id).expect("placed")))
        .collect();
    let mut bytes = log.to_jsonl().into_bytes();
    bytes.extend_from_slice(serde_json::to_string(&layout).expect("layout encodes").as_bytes());
    assert_eq!(
        fnv1a64(&bytes),
        SCAN_ENGINE_WORLD_DIGEST,
        "the controller no longer decides what the scan loop decided on the overload world \
         (digest {:#018x})",
        fnv1a64(&bytes)
    );
}

/// The cluster tier under the shared fleet loop: eight nodes behind a 10 %
/// lossy channel, node 0 partitioned for 20 s, node 3 crashed for 25 s. The
/// loop itself asserts that the conservation ledger is exact and that the
/// log folds; after 30 quiet steps no ghost replica may be left. Seeds 168
/// and 173 each left one before every pong ran the one reconciliation rule.
#[test]
fn lossy_fleet_conserves_every_service_and_its_log_folds() {
    for seed in [7, 168, 173] {
        let template = OsmlScheduler::new(Models::untrained(1), OsmlConfig::default());
        let LossyFleet { cluster, tally, down_steps } = lossy_fleet(template, seed);
        assert_eq!(tally.demanded, 16.0 * 150.0);
        assert!(down_steps > 0, "seed {seed}: the scripted crash never took node 3 down");
        assert!(cluster.channel_stats().0.dropped > 0, "seed {seed}: the channel lost nothing");
        assert!(cluster.failovers() > 0, "seed {seed}: nothing failed over: {tally:?}");
        assert_eq!(cluster.ghost_replicas(), 0, "seed {seed}: a ghost outlived the settle");
    }
}

/// The directory of wire fixtures (see its README).
fn wire_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire")
}

fn wire(name: &str) -> String {
    std::fs::read_to_string(wire_dir().join(name)).expect("wire fixture is readable")
}

#[test]
fn wire_fixtures_decode_and_reencode_byte_for_byte() {
    // The unified log, whole and line by line.
    let text = wire("unified.jsonl");
    let (log, loss) = UnifiedLog::from_jsonl_tolerant(&text).expect("known version");
    assert_eq!((loss.bytes_dropped, loss.lines_dropped), (0, 0));
    assert_eq!(log.to_jsonl(), text);
    for line in text.lines().skip(1) {
        let event: UnifiedEvent = serde_json::from_str(line).expect("event line decodes");
        assert_eq!(serde_json::to_string(&event).expect("event encodes"), line);
    }
    // It holds every variant of every layer (the name is what `Debug`
    // prints first).
    let variants: std::collections::BTreeSet<String> = log
        .events()
        .iter()
        .map(|e| match &e.body {
            EventBody::World(fact) => format!("world {fact:?}"),
            EventBody::Decision(decision) => format!("decision {decision:?}"),
            EventBody::Telemetry(note) => format!("telemetry {note:?}"),
        })
        .map(|name| name.split([' ', '{']).take(2).collect::<Vec<_>>().join(" "))
        .collect();
    let of = |layer: &str| variants.iter().filter(|v| v.starts_with(layer)).count();
    assert_eq!((of("world"), of("decision"), of("telemetry")), (16, 19, 3), "{variants:?}");

    // The snapshot envelope, and the same snapshot as an indented file: a
    // checkpoint taken mid-brownout, waiters queued and a service shaved.
    let text = wire("snapshot.v6.json");
    let snapshot = decode_snapshot(&text).expect("snapshot decodes");
    assert_eq!(encode_snapshot(&snapshot), text);
    let pretty = wire("snapshot.v6.pretty.json");
    assert_eq!(serde_json::from_str::<SchedulerSnapshot>(&pretty).expect("decodes"), snapshot);
    assert_eq!(serde_json::to_string_pretty(&snapshot).expect("encodes"), pretty);
    let state = &snapshot.state;
    assert!(!state.queue.is_empty() && !state.shaved.is_empty(), "{state:?}");
    assert!(state.brownout_since.is_some(), "{state:?}");
    // The last pair that carried a copy of the log is a foreign version.
    assert!(matches!(
        decode_snapshot(&wire("snapshot.v5c.json")),
        Err(RecoveryError::VersionMismatch { found: 5, expected: 6 })
    ));

    // A stored model and a stored agent, through the store that reads them.
    let dir = std::env::temp_dir().join(format!("osml-smoke-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fixtures = ModelStore::open(wire_dir()).expect("fixtures open");
    let copies = ModelStore::open(&dir).expect("temp dir opens");
    copies.save("model", &fixtures.load("model").expect("model loads")).expect("model saves");
    copies.save_agent("agent", &fixtures.load_agent("agent").expect("agent loads")).expect("saves");
    for name in ["model.json", "agent.agent.json"] {
        let copy = std::fs::read_to_string(dir.join(name)).expect("copy is readable");
        assert_eq!(copy, wire(name), "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The edge numbers and the escaped string, one JSON value per line.
    macro_rules! same {
        ($t:ty, $line:expr) => {
            let value: $t = serde_json::from_str($line).expect("line decodes");
            assert_eq!(serde_json::to_string(&value).expect("line encodes"), $line);
        };
    }
    let text = wire("numbers.jsonl");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 7);
    same!(Vec<u64>, lines[0]);
    same!(Vec<i64>, lines[1]);
    same!(Vec<f64>, lines[2]);
    same!(Vec<f32>, lines[3]);
    same!(Vec<Option<f64>>, lines[4]);
    same!(Vec<Option<f64>>, lines[5]);
    same!(String, lines[6]);
    assert!(lines[0].contains(&u64::MAX.to_string()) && lines[1].contains(&i64::MIN.to_string()));
}
