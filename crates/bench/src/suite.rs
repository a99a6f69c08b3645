//! One-stop construction of a trained OSML scheduler for experiments.

use osml_core::{Models, OsmlConfig, OsmlScheduler};
use osml_dataset::{SweepConfig, TrainedModels, TrainingConfig};
use osml_ml::TrainerConfig;
use std::sync::OnceLock;

/// Trains the model suite on the laptop-scale sweep (seconds; the paper's
/// full density is `cargo run --example train_models -- paper`) and wraps
/// it in an [`OsmlScheduler`].
///
/// The suite is trained once per process and every call returns a clone of
/// it. Training is deterministic and independent of `OSML_JOBS`, so a clone
/// is the scheduler a fresh training run would build.
pub fn trained_suite() -> OsmlScheduler {
    static TRAINED: OnceLock<OsmlScheduler> = OnceLock::new();
    TRAINED.get_or_init(train_suite).clone()
}

fn train_suite() -> OsmlScheduler {
    let training = TrainingConfig {
        sweep: SweepConfig::default(),
        trainer: TrainerConfig { epochs: 160, batch_size: 256, ..TrainerConfig::default() },
        dqn_steps: 400,
        seed: 0x05_11,
    };
    let trained = TrainedModels::train(&training);
    let models = Models {
        model_a: trained.model_a,
        model_b: trained.model_b,
        model_b_prime: trained.model_b_prime,
        model_c: trained.model_c,
    };
    OsmlScheduler::new(models, OsmlConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_colocation;
    use osml_workloads::{LaunchSpec, Service};

    #[test]
    fn standard_suite_schedules_a_light_colocation() {
        let mut osml = trained_suite();
        let specs = [
            LaunchSpec::at_percent_load(Service::Moses, 30.0),
            LaunchSpec::at_percent_load(Service::ImgDnn, 30.0),
        ];
        let out = run_colocation(&mut osml, &specs, 30, 3);
        assert!(out.all_placed, "{out:?}");
        assert!(out.qos_ok, "{:?}", out.apps);
    }
}
