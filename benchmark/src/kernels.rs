//! The *direct* per-layer metrics: timed loops over single public functions
//! of each layer, each checking its output. They run in every traced run,
//! on inputs of their own (untrained models, fixed seeds), so a kernel reads
//! the same whichever workload's run printed it.

use crate::churn::LEVELS;
use crate::fleet::ClusterFaults;
use crate::logreplay::{record, Recording};
use crate::setup::untrained_models;
use crate::steady::NodeSteady;
use osml_bench::overload::overload_script;
use osml_core::recovery::{decode_snapshot, encode_snapshot};
use osml_core::{
    OsmlConfig, OsmlScheduler, RecoveryMode, RecoveryStore, ReplayState, UnifiedEvent, UnifiedLog,
};
use osml_ml::dqn::{Dqn, DqnConfig, Transition};
use osml_ml::loss::Mse;
use osml_ml::{Adam, Matrix, Mlp};
use osml_models::features::MODEL_C_STATE;
use osml_models::{ModelA, ACTIONS};
use osml_platform::control::{ChannelPlan, ControlChannel, LossyChannel};
use osml_platform::{hash01, Allocation, AppId, CoreSet, MbaThrottle, Substrate, WayMask};
use osml_telemetry::Telemetry;
use osml_workloads::{LaunchSpec, SimConfig, SimServer};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed repetitions per kernel; the best one is reported.
const REPS: usize = 5;

/// Kernel results: `(metric name, value)` pairs and failed output checks.
#[derive(Debug, Default)]
pub struct Kernels {
    /// One value per direct metric.
    pub values: Vec<(&'static str, f64)>,
    /// Failed output checks (empty on a correct program).
    pub errors: Vec<String>,
}

impl Kernels {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.errors.push(format!("kernel check failed: {what}"));
        }
    }
}

/// Best-of-[`REPS`] mean nanoseconds per iteration of `f`, after one
/// warm-up repetition.
fn best_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..=REPS {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        if rep > 0 {
            best = best.min(ns);
        }
    }
    best
}

/// As [`best_ns`], for iterations that need fresh input: only `run` is
/// timed, `prepare` is not.
fn best_ns_prepared<T>(
    iters: usize,
    mut prepare: impl FnMut() -> T,
    mut run: impl FnMut(T),
) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..=REPS {
        let mut total = 0u128;
        for _ in 0..iters {
            let input = prepare();
            let t = Instant::now();
            run(input);
            total += t.elapsed().as_nanos();
        }
        if rep > 0 {
            best = best.min(total as f64 / iters as f64);
        }
    }
    best
}

fn lossy_channel(k: &mut Kernels, iters: usize) {
    const LINKS: usize = 64;
    let mut channel: LossyChannel<u64> = LossyChannel::new(ChannelPlan::lossy(7, 0.10));
    let (mut i, mut delivered) = (0u64, 0u64);
    let ns = best_ns(iters, || {
        let link = (i as usize) % LINKS;
        black_box(channel.send(link, i, i as f64, i));
        delivered += channel.deliver(link, i as f64).len() as u64;
        i += 1;
    });
    for link in 0..LINKS {
        delivered += channel.deliver(link, f64::MAX).len() as u64;
    }
    let s = channel.stats();
    k.check(
        delivered + s.dropped + s.partitioned == s.sent + s.duplicated,
        "every envelope sent or duplicated is delivered or dropped exactly once",
    );
    k.values.push(("platform.lossy_send_deliver_ns", ns));
}

fn sim_server(k: &mut Kernels, iters: usize) {
    // The eight fig20 surge services at the co-location frontier.
    let mut server = SimServer::new(SimConfig::default());
    let mut ids: Vec<AppId> = Vec::new();
    for event in &overload_script(1.0).events[3..] {
        let spec = LaunchSpec {
            service: event.service,
            threads: event.threads,
            offered_rps: event.load.rps_at(100.0),
        };
        let alloc = osml_core::bootstrap_allocation(&mut server, event.threads);
        ids.push(server.launch(spec, alloc).expect("bootstrap allocation is valid"));
    }
    k.check(ids.len() == 8, "eight surge services launched");

    let advance_ns = best_ns(iters, || server.advance(1.0));
    k.check(server.now() == ((REPS + 1) * iters) as f64, "every advance moved the clock 1 s");
    k.values.push(("workloads.sim_advance_us", advance_ns / 1e3));

    let held = server.allocation(ids[0]).expect("service 0 is placed");
    let other = Allocation::new(
        CoreSet::from_cores(held.cores.iter().take(1)),
        WayMask::first_n(2),
        MbaThrottle::unthrottled(),
    );
    let mut flip = false;
    let realloc_ns = best_ns(iters, || {
        flip = !flip;
        let alloc = if flip { other } else { held };
        server.reallocate(ids[0], alloc).expect("both allocations are valid");
    });
    k.check(server.allocation(ids[0]) == Some(held), "reallocate programs the allocation");
    k.values.push(("workloads.sim_reallocate_us", realloc_ns / 1e3));

    let mut valid = true;
    let mut n = 0usize;
    let query_ns = best_ns(iters * 8, || {
        let id = ids[n % ids.len()];
        n += 1;
        let sample = server.sample(id);
        let latency = server.latency(id);
        valid &= sample.is_some_and(|s| s.is_valid()) && latency.is_some();
        black_box((sample, latency));
    });
    k.check(valid, "every sample is valid and every latency present");
    k.values.push(("workloads.sim_query_ns", query_ns));
}

fn rows(n: usize, width: usize, salt: u64) -> Matrix {
    let mut m = Matrix::zeros(n, width);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        *v = hash01(salt, i as u64, 0) as f32;
    }
    m
}

fn ml(k: &mut Kernels, iters: usize) {
    let model_a = ModelA::new(36, 20, 1);
    let mlp: &Mlp = model_a.mlp();
    let (mut a, mut b) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    for (batch, name) in [
        (1usize, "ml.forward_ns_per_row_b1"),
        (32, "ml.forward_ns_per_row_b32"),
        (1000, "ml.forward_ns_per_row_b1000"),
    ] {
        let input = rows(batch, mlp.input_size(), batch as u64);
        let out = mlp.forward_batch_into(&input, &mut a, &mut b);
        let same = (0..batch).all(|r| out.row(r) == mlp.forward(input.row(r)).as_slice());
        k.check(same, "batched forward equals the scalar forward row for row");
        let ns = best_ns((iters / batch).max(20), || {
            black_box(mlp.forward_batch_into(black_box(&input), &mut a, &mut b));
        });
        k.values.push((name, ns / batch as f64));
    }

    let mut net = mlp.clone();
    let mut adam = Adam::with_defaults(&net);
    let x = rows(256, net.input_size(), 11);
    let y = rows(256, net.output_size(), 12);
    let first = net.train_batch(&x, &y, &Mse, &mut adam);
    let mut last = first;
    let ns = best_ns((iters / 5).max(20), || last = net.train_batch(&x, &y, &Mse, &mut adam));
    k.check(last.is_finite() && last < first, "training on one batch lowers its loss");
    k.values.push(("ml.train_batch_us", ns / 1e3));

    let config = DqnConfig::paper(MODEL_C_STATE, ACTIONS, 4);
    let capacity = config.replay_capacity;
    let mut dqn = Dqn::new(config);
    for i in 0..capacity as u64 {
        let state = |salt| (0..MODEL_C_STATE as u64).map(|j| hash01(salt, i, j) as f32).collect();
        dqn.observe(Transition {
            state: state(21),
            action: (i % ACTIONS as u64) as usize,
            reward: hash01(22, i, 0) as f32 - 0.5,
            next_state: state(23),
        });
    }
    k.check(dqn.pool_len() == capacity, "the replay pool is full");
    let mut finite = true;
    let ns = best_ns((iters / 5).max(20), || {
        finite &= dqn.train_step().is_some_and(f32::is_finite);
    });
    k.check(finite, "every DQN step trained and returned a finite loss");
    k.values.push(("ml.dqn_train_step_us", ns / 1e3));
}

fn push_all(log: &mut UnifiedLog, events: Vec<UnifiedEvent>) {
    for e in events {
        log.push(e.tick, e.time_s, e.app, e.body);
    }
}

/// Mean ns/event of decoding `recs`, best of [`REPS`].
fn decode_ns_per_event(recs: &[Recording], k: &mut Kernels) -> f64 {
    let events: usize = recs.iter().map(|r| r.events).sum();
    let mut whole = true;
    let ns = best_ns(1, || {
        for r in recs {
            let (log, loss) = UnifiedLog::from_jsonl_tolerant(&r.jsonl).expect("known version");
            whole &= log.len() == r.events && loss.lines_dropped == 0;
            black_box(log);
        }
    });
    k.check(whole, "every log decodes whole");
    ns / events as f64
}

fn golden(k: &mut Kernels, recs: &[Recording], fleet_log: &Recording, scratch: &Path) {
    let logs: Vec<UnifiedLog> = recs
        .iter()
        .map(|r| UnifiedLog::from_jsonl_tolerant(&r.jsonl).expect("known version").0)
        .collect();
    let events: Vec<UnifiedEvent> = logs.iter().flat_map(|l| l.events().to_vec()).collect();
    let n = events.len() as f64;
    k.check(events.len() >= 1000, "the node logs hold at least 1000 events");

    let mut pushed = 0usize;
    let push_ns = best_ns_prepared(
        1,
        || events.clone(),
        |batch| {
            let mut log = UnifiedLog::new();
            push_all(&mut log, batch);
            pushed = log.len();
        },
    );
    k.check(pushed == events.len(), "every pushed event is in the log");
    k.values.push(("core.golden_push_ns_per_event", push_ns / n));

    let journal = scratch.join("kernel-journal.jsonl");
    let journaled_ns = best_ns_prepared(
        1,
        || {
            let _ = std::fs::remove_file(&journal);
            let mut log = UnifiedLog::new();
            log.attach_journal(&journal).expect("journal opens under benchmark/out");
            (log, events.clone())
        },
        |(mut log, batch)| push_all(&mut log, batch),
    );
    let on_disk = std::fs::read_to_string(&journal).unwrap_or_default();
    k.check(
        on_disk.lines().count() == events.len() + 1,
        "the journal holds a header and every event",
    );
    let _ = std::fs::remove_file(&journal);
    k.values.push(("core.golden_journal_ns_per_event", (journaled_ns - push_ns) / n));

    let mut identical = true;
    let encode_ns = best_ns(1, || {
        for (log, r) in logs.iter().zip(recs) {
            identical &= log.to_jsonl() == r.jsonl;
        }
    });
    k.check(identical, "encode(decode(log)) is the log, byte for byte");
    k.values.push(("core.golden_encode_ns_per_event", encode_ns / n));

    let node_decode = decode_ns_per_event(recs, k);
    k.values.push(("core.golden_decode_ns_per_event", node_decode));
    let fleet_decode = decode_ns_per_event(std::slice::from_ref(fleet_log), k);
    k.values.push(("core.golden_decode_scaling", fleet_decode / node_decode));

    let mut live = true;
    let fold_ns = best_ns(1, || {
        for (log, r) in logs.iter().zip(recs) {
            live &= log.replay().is_ok_and(|s| s == r.live);
        }
    });
    k.check(live, "every log folds to its live state");
    k.values.push(("core.golden_fold_ns_per_event", fold_ns / n));
}

fn snapshots(k: &mut Kernels, smoke: bool, scratch: &Path) {
    let steady = NodeSteady::new(3, smoke);
    let (server, scheduler) = steady.world();
    let per_1k = 1000.0 / steady.services() as f64;
    let iters = 4;

    let snapshot = scheduler.snapshot(&server);
    let text = encode_snapshot(&snapshot);
    let encode_ns = best_ns(iters, || {
        black_box(encode_snapshot(&scheduler.snapshot(&server)));
    });
    k.values.push(("core.snapshot_encode_ms_1k", encode_ns / 1e6 * per_1k));

    let mut same = true;
    let decode_ns = best_ns(iters, || {
        same &= decode_snapshot(&text).is_ok_and(|s| s == snapshot);
    });
    k.check(same, "decode_snapshot(encode_snapshot(s)) is s");
    k.values.push(("core.snapshot_decode_ms_1k", decode_ns / 1e6 * per_1k));

    let store = RecoveryStore::open(scratch.join("kernel-recovery")).expect("store opens");
    store.save_snapshot(&snapshot).expect("snapshot saves under benchmark/out");
    let mut warm = true;
    let recover_ns = best_ns_prepared(
        iters,
        // Recovery repairs the live layout in place; every iteration gets
        // the machine as the crash left it.
        || server.clone(),
        |mut machine| {
            let (recovered, report) = OsmlScheduler::recover(
                untrained_models(),
                OsmlConfig::default(),
                &store,
                &mut machine,
            );
            warm &= report.mode == RecoveryMode::Warm && report.restored == steady.services();
            black_box(recovered);
        },
    );
    k.check(warm, "recovery is warm and restores every service");
    let _ = std::fs::remove_dir_all(store.dir());
    k.values.push(("core.recover_ms_1k", recover_ns / 1e6 * per_1k));
}

fn telemetry(k: &mut Kernels, iters: usize) {
    let enabled = Telemetry::enabled();
    let on_ns = best_ns(iters, || drop(black_box(enabled.span("bench.kernel_us"))));
    let recorded = enabled.snapshot().histograms.get("bench.kernel_us").map_or(0, |h| h.count);
    k.check(recorded == ((REPS + 1) * iters) as u64, "an enabled span records once per drop");
    k.values.push(("telemetry.span_enabled_ns", on_ns));

    let disabled = Telemetry::disabled();
    let off_ns = best_ns(iters, || drop(black_box(disabled.span("bench.kernel_us"))));
    k.check(disabled.snapshot().histograms.is_empty(), "a disabled span records nothing");
    k.values.push(("telemetry.span_disabled_ns", off_ns));
}

/// Runs every kernel. Journal and snapshot files go under `scratch`.
pub fn run(smoke: bool, scratch: &Path) -> Kernels {
    let iters = if smoke { 200 } else { 1000 };
    let mut k = Kernels::default();
    lossy_channel(&mut k, iters);
    sim_server(&mut k, iters);
    ml(&mut k, iters);

    // Inputs of the log kernels: one recorded node world per overload
    // level, and one `cluster-faults` log (untrained models throughout).
    let template = OsmlScheduler::new(untrained_models(), OsmlConfig::default());
    let scripts: Vec<_> = LEVELS.iter().map(|&l| (overload_script(l), 0)).collect();
    let recs = record(&template, &scripts);
    let fleet = ClusterFaults::with_template(template.clone(), 5, smoke);
    let mut cluster = fleet.world(template);
    for _ in 0..fleet.steps() {
        cluster.run(1.0);
    }
    let fleet_log = Recording {
        jsonl: cluster.unified_log().to_jsonl(),
        events: cluster.unified_log().len(),
        live: ReplayState::default(),
    };
    golden(&mut k, &recs, &fleet_log, scratch);

    snapshots(&mut k, smoke, scratch);
    telemetry(&mut k, iters);
    k
}
