//! Model training for the workloads that need a trained suite, and the
//! split of that set-up time by calling `osml-dataset`'s public pieces one
//! by one.

use osml_core::{Models, OsmlConfig, OsmlScheduler};
use osml_dataset::{
    model_a_corpus, model_b_corpus, model_b_prime_corpus, model_c_transitions, SweepConfig,
    TrainedModels, TrainingConfig,
};
use osml_ml::TrainerConfig;
use osml_models::{ModelA, ModelB, ModelBPrime, ModelC};
use osml_workloads::Service;
use std::time::Instant;

/// The training configuration every trained workload sets up with.
///
/// It is `osml_bench::trained_suite(Standard)` thinned out — one thread
/// count, a coarser core/way grid, 40 epochs — because a run sets up three
/// times (the reported `setup_s` is their median) and the whole ledger is
/// ~90 runs under a fixed time cap: the 13–15 s standard suite does not
/// fit, this one trains in ≈2.5 s through exactly the same code (sweep →
/// corpus → fit ×3, pool fill → DQN steps). `--smoke` thins it further.
///
/// `jobs: Some(1)` keeps training off the `osml_ml::par` pool: on the
/// 2-CPU box the pool buys 0.5 s of 3 s (Model-B′'s fit is 80 % of the
/// total and is one thread either way) but makes `peak_rss_mb` a function
/// of how the four fits happen to overlap — 72–97 MB run to run against a
/// steady 30 MB without it. Any job count trains bit-identical models.
pub fn training_config(smoke: bool) -> TrainingConfig {
    if smoke {
        return TrainingConfig {
            sweep: SweepConfig {
                jobs: Some(1),
                ..SweepConfig::tiny(&[Service::Moses, Service::ImgDnn, Service::Xapian])
            },
            trainer: TrainerConfig { epochs: 8, batch_size: 64, ..TrainerConfig::default() },
            dqn_steps: 20,
            seed: 0x0511,
        };
    }
    TrainingConfig {
        sweep: SweepConfig {
            core_step: 6,
            way_step: 5,
            thread_counts: vec![16],
            jobs: Some(1),
            ..SweepConfig::default()
        },
        trainer: TrainerConfig { epochs: 40, batch_size: 256, ..TrainerConfig::default() },
        dqn_steps: 100,
        seed: 0x0511,
    }
}

/// Trains the suite and wraps it in a
/// default-configured scheduler template.
pub fn trained_template(cfg: &TrainingConfig) -> OsmlScheduler {
    let t = TrainedModels::train(cfg);
    let models = Models {
        model_a: t.model_a,
        model_b: t.model_b,
        model_b_prime: t.model_b_prime,
        model_c: t.model_c,
    };
    OsmlScheduler::new(models, OsmlConfig::default())
}

/// The untrained-but-structurally-valid suite `node-steady` and the kernels
/// run with: weights are a pure function of the seeds.
pub fn untrained_models() -> Models {
    Models {
        model_a: ModelA::new(36, 20, 1),
        model_b: ModelB::new(36, 20, 2),
        model_b_prime: ModelBPrime::new(3),
        model_c: ModelC::new(4),
    }
}

/// The serde encoding of a model suite, for byte-equality checks.
pub fn encode_models(m: &Models) -> [String; 4] {
    let enc = |r: Result<String, serde_json::Error>| r.expect("models serialize");
    [
        enc(serde_json::to_string(&m.model_a)),
        enc(serde_json::to_string(&m.model_b)),
        enc(serde_json::to_string(&m.model_b_prime)),
        enc(serde_json::to_string(&m.model_c.checkpoint())),
    ]
}

/// `setup_s` split by stage, single-threaded-sequentially (so the parts sum
/// to more than the fork-join `TrainedModels::train` wall time).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSplit {
    /// The four corpus sweeps.
    pub sweep_s: f64,
    /// Model-A fit.
    pub fit_a_s: f64,
    /// Model-B fit.
    pub fit_b_s: f64,
    /// Model-B′ fit.
    pub fit_b_prime_s: f64,
    /// Model-C pool fill + offline DQN steps.
    pub fit_c_s: f64,
    /// Rows over the three supervised corpora plus Model-C transitions.
    pub corpus_rows: u64,
    /// Whether the separately built models encode byte-identically to
    /// `reference` (the suite `TrainedModels::train` built from `cfg`).
    pub identical: bool,
}

/// Builds the suite from the public pieces in the order
/// `TrainedModels::train` does, timing each, and compares the result with
/// `reference`.
pub fn dataset_split(cfg: &TrainingConfig, reference: &Models) -> DatasetSplit {
    let secs = |t: Instant| t.elapsed().as_secs_f64();

    let t = Instant::now();
    let corpus_a = model_a_corpus(&cfg.sweep);
    let corpus_b = model_b_corpus(&cfg.sweep);
    let corpus_bp = model_b_prime_corpus(&cfg.sweep);
    let transitions = model_c_transitions(&cfg.sweep);
    let sweep_s = secs(t);

    let t = Instant::now();
    let mut model_a = ModelA::new(36, 20, cfg.seed);
    model_a.train(&corpus_a.x, &corpus_a.y, cfg.trainer.clone());
    let fit_a_s = secs(t);

    let t = Instant::now();
    let mut model_b = ModelB::new(36, 20, cfg.seed ^ 0xb);
    model_b.train(&corpus_b.x, &corpus_b.y, cfg.trainer.clone());
    let fit_b_s = secs(t);

    let t = Instant::now();
    let mut model_b_prime = ModelBPrime::new(cfg.seed ^ 0xbb);
    model_b_prime.train(&corpus_bp.x, &corpus_bp.y, cfg.trainer.clone());
    let fit_b_prime_s = secs(t);

    let t = Instant::now();
    let mut model_c = ModelC::new(cfg.seed ^ 0xc);
    for (before, action, after) in &transitions {
        model_c.observe(before, *action, after);
    }
    for _ in 0..cfg.dqn_steps {
        model_c.train_step();
    }
    let fit_c_s = secs(t);

    let rows = corpus_a.len() + corpus_b.len() + corpus_bp.len() + transitions.len();
    let built = Models { model_a, model_b, model_b_prime, model_c };
    DatasetSplit {
        sweep_s,
        fit_a_s,
        fit_b_s,
        fit_b_prime_s,
        fit_c_s,
        corpus_rows: rows as u64,
        identical: encode_models(&built) == encode_models(reference),
    }
}
