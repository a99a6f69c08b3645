use crate::corpus::{
    model_a_corpus, model_b_corpus, model_b_prime_corpus, model_c_stream, SweepConfig,
};
use osml_ml::{TrainReport, TrainerConfig};
use osml_models::{ModelA, ModelB, ModelBPrime, ModelC};
use serde::{Deserialize, Serialize};

/// End-to-end training configuration: which sweep to collect and how to fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Data-collection sweep.
    pub sweep: SweepConfig,
    /// Supervised-training hyper-parameters (Model-A/B/B′).
    pub trainer: TrainerConfig,
    /// Offline DQN updates for Model-C after its pool is filled.
    pub dqn_steps: usize,
    /// Seed for model initialization.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            sweep: SweepConfig::default(),
            trainer: TrainerConfig { epochs: 60, batch_size: 128, ..TrainerConfig::default() },
            dqn_steps: 300,
            seed: 0x051a,
        }
    }
}

/// Trains Model-A end to end: sweep → corpus → fit.
pub fn train_model_a(cfg: &TrainingConfig) -> (ModelA, TrainReport) {
    let corpus = model_a_corpus(&cfg.sweep);
    let mut model = ModelA::new(36, 20, cfg.seed);
    let report = model.train(&corpus.x, &corpus.y, cfg.trainer.clone());
    (model, report)
}

/// Trains Model-B end to end.
pub fn train_model_b(cfg: &TrainingConfig) -> (ModelB, TrainReport) {
    let corpus = model_b_corpus(&cfg.sweep);
    let mut model = ModelB::new(36, 20, cfg.seed ^ 0xb);
    let report = model.train(&corpus.x, &corpus.y, cfg.trainer.clone());
    (model, report)
}

/// Trains Model-B′ end to end.
pub fn train_model_b_prime(cfg: &TrainingConfig) -> (ModelBPrime, TrainReport) {
    let corpus = model_b_prime_corpus(&cfg.sweep);
    let mut model = ModelBPrime::new(cfg.seed ^ 0xbb);
    let report = model.train(&corpus.x, &corpus.y, cfg.trainer.clone());
    (model, report)
}

/// Trains Model-C offline: fills the experience pool with sweep-derived
/// transitions (§IV-C) and runs `dqn_steps` updates. The pool keeps only the
/// last `replay_capacity` tuples, so each is pooled as it is generated.
pub(crate) fn train_model_c(cfg: &TrainingConfig) -> ModelC {
    let mut model = ModelC::new(cfg.seed ^ 0xc);
    for (before, action, after) in model_c_stream(&cfg.sweep) {
        model.observe(&before, action, &after);
    }
    for _ in 0..cfg.dqn_steps {
        model.train_step();
    }
    model
}

/// The full trained model suite the OSML controller consumes.
#[derive(Debug, Clone)]
pub struct TrainedModels {
    /// Model-A and its training report.
    pub model_a: ModelA,
    /// Model-A's training report.
    pub report_a: TrainReport,
    /// Model-B.
    pub model_b: ModelB,
    /// Model-B's training report.
    pub report_b: TrainReport,
    /// Model-B′.
    pub model_b_prime: ModelBPrime,
    /// Model-B′'s training report.
    pub report_b_prime: TrainReport,
    /// Model-C (offline-pretrained; keeps learning online).
    pub model_c: ModelC,
}

impl TrainedModels {
    /// Trains the whole suite from one configuration.
    ///
    /// The four heads (Model-A, B, B′ and C) are independent given the
    /// configuration, so they are trained fork-join in parallel whenever the
    /// sweep's effective job count exceeds one; results are bit-identical to
    /// the sequential order because each head derives its own seed.
    pub fn train(cfg: &TrainingConfig) -> TrainedModels {
        let jobs = cfg.sweep.effective_jobs();
        let (
            ((model_a, report_a), (model_b, report_b)),
            ((model_b_prime, report_b_prime), model_c),
        ) = osml_ml::par::join(
            jobs,
            || osml_ml::par::join(jobs, || train_model_a(cfg), || train_model_b(cfg)),
            || osml_ml::par::join(jobs, || train_model_b_prime(cfg), || train_model_c(cfg)),
        );
        TrainedModels {
            model_a,
            report_a,
            model_b,
            report_b,
            model_b_prime,
            report_b_prime,
            model_c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::model_c_transitions;
    use osml_platform::Topology;
    use osml_workloads::oaa::LatencyGrid;
    use osml_workloads::Service;

    fn quick_cfg(services: &[Service]) -> TrainingConfig {
        TrainingConfig {
            sweep: SweepConfig {
                core_step: 3,
                way_step: 3,
                thread_counts: vec![16],
                rps_indices: vec![0, 2, 4],
                extra_load_fractions: vec![],
                noise_sigma: 0.005,
                seed: 0x7e57,
                services: services.to_vec(),
                jobs: None,
            },
            trainer: TrainerConfig { epochs: 300, batch_size: 64, ..TrainerConfig::default() },
            dqn_steps: 100,
            seed: 1,
        }
    }

    #[test]
    fn trained_model_a_localizes_the_oaa() {
        let cfg = quick_cfg(&[Service::Moses, Service::Xapian]);
        let (model, report) = train_model_a(&cfg);
        assert!(
            report.train_metrics.rmse < 0.12,
            "model-a underfit: rmse {}",
            report.train_metrics.rmse
        );

        // Prediction check: sample Moses at a mid allocation and compare the
        // predicted OAA with ground truth.
        let topo = Topology::xeon_e5_2697_v4();
        let truth = LatencyGrid::sweep(&topo, Service::Moses, 16, 2400.0).oaa().unwrap();
        let mut probe = crate::FeatureProbe::new(Service::Moses, 16, 2400.0, 0.0, 9);
        let sample = probe.sample_at(10, 10);
        let pred = model.predict(&sample, &mut osml_models::Scratch::default());
        assert!(
            (pred.oaa.cores as i64 - truth.cores as i64).abs() <= 6,
            "OAA cores: predicted {} vs truth {}",
            pred.oaa.cores,
            truth.cores
        );
        assert!(
            (pred.oaa.ways as i64 - truth.ways as i64).abs() <= 6,
            "OAA ways: predicted {} vs truth {}",
            pred.oaa.ways,
            truth.ways
        );
    }

    #[test]
    fn trained_model_b_prime_prices_deprivation() {
        let mut cfg = quick_cfg(&[Service::Moses]);
        // The B' corpus is small (324 rows per load point), so give the fit
        // a deeper budget than the quick default.
        cfg.trainer.epochs = 400;
        cfg.trainer.batch_size = 32;
        let (model, report) = train_model_b_prime(&cfg);
        assert!(report.train_metrics.rmse < 0.35, "rmse {}", report.train_metrics.rmse);
        let mut probe = crate::FeatureProbe::new(Service::Moses, 16, 2200.0, 0.0, 10);
        let sample = probe.sample_at(10, 8);
        // Deeper deprivation must predict no less slowdown (within noise).
        let scratch = &mut osml_models::Scratch::default();
        let shallow = model.predict(&sample, 1, 0, scratch);
        let deep = model.predict(&sample, 5, 3, scratch);
        assert!(deep >= shallow - 0.05, "shallow {shallow} vs deep {deep}");
    }

    #[test]
    fn the_streamed_pool_fill_is_the_collected_one() {
        // Six services at two loads sweep ≈11 k tuples: more than the
        // 10 000-tuple pool keeps, so the ring wraps and only the streamed
        // tail survives. Four jobs map the load points in chunks of four.
        let services = [
            Service::Moses,
            Service::Xapian,
            Service::ImgDnn,
            Service::Sphinx,
            Service::Masstree,
            Service::MongoDb,
        ];
        for jobs in [1, 4] {
            let mut cfg = quick_cfg(&services);
            cfg.sweep = SweepConfig { jobs: Some(jobs), ..SweepConfig::tiny(&services) };
            cfg.dqn_steps = 3;
            let transitions = model_c_transitions(&cfg.sweep);
            let mut collected = ModelC::new(cfg.seed ^ 0xc);
            for (before, action, after) in &transitions {
                collected.observe(before, *action, after);
            }
            for _ in 0..cfg.dqn_steps {
                collected.train_step();
            }
            let streamed = train_model_c(&cfg);
            let capacity = collected.checkpoint().config.replay_capacity;
            assert!(transitions.len() > capacity, "{} tuples", transitions.len());
            assert_eq!(streamed.pool_len(), capacity);
            let json = |m: &ModelC| serde_json::to_string(&m.checkpoint()).unwrap();
            assert!(json(&streamed) == json(&collected), "jobs {jobs}: checkpoints differ");
        }
    }

    #[test]
    fn trained_model_c_pool_is_filled() {
        let mut cfg = quick_cfg(&[Service::Moses]);
        cfg.dqn_steps = 20;
        let model = train_model_c(&cfg);
        assert!(model.pool_len() > 100, "pool {}", model.pool_len());
    }
}
