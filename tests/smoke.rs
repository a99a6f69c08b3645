//! Tier-1 smoke tests: what `cargo test -q` at the repo root runs.
//!
//! Two kinds of check, both seconds long:
//!
//! * **Pinned training digests.** Every f32 operation sequence of the ML
//!   kernels is part of their contract (see `osml_ml::Matrix`): the digests
//!   below were recorded from the commit *before* `Dqn::train_step` was fused
//!   and `matmul_transpose_into` vectorised, and any kernel change that moves
//!   a single weight bit moves them.
//! * **Place and hold.** A small trained suite places three services and
//!   keeps them placed, on disjoint cores and within QoS, through 30 s of
//!   monitoring.

use osml::bench::scenario::bootstrap_allocation;
use osml::dataset::{SweepConfig, TrainedModels, TrainingConfig};
use osml::ml::TrainerConfig;
use osml::models::{Action, ModelA, ModelC, ACTIONS};
use osml::platform::{hash01, CounterSample, Placement, Scheduler, Substrate};
use osml::scheduler::recovery::fnv1a64;
use osml::scheduler::{Models, OsmlConfig, OsmlScheduler};
use osml::workloads::{LaunchSpec, Service, SimServer};

/// Recorded at the parent of the fused-training-step change.
const MODEL_C_CHECKPOINT_DIGEST: u64 = 0xd0b7_ebf9_bdd3_740d;
/// Recorded at the parent of the fused-training-step change.
const MODEL_A_WEIGHTS_DIGEST: u64 = 0x452d_3ac5_0d87_4334;

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
    let mut ids = Vec::new();
    for service in services {
        let spec = LaunchSpec::at_percent_load(service, 30.0);
        let alloc = bootstrap_allocation(&mut server, spec.threads);
        let id = server.launch(spec, alloc).expect("bootstrap allocation is valid");
        server.advance(1.0);
        assert_eq!(osml.on_arrival(&mut server, id), Placement::Placed, "{service}");
        ids.push(id);
    }
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
