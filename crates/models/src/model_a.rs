use crate::{features, Scratch};
use osml_ml::loss::Mse;
use osml_ml::{Matrix, Mlp, MlpConfig, TrainReport, Trainer, TrainerConfig};
use osml_platform::CounterSample;
use osml_workloads::oaa::AllocPoint;
use serde::{Deserialize, Serialize};

/// Number of regression heads: OAA cores, OAA ways, OAA bandwidth, RCliff
/// cores, RCliff ways.
pub(crate) const OUTPUTS: usize = 5;

/// Normalization scales for the five output heads (cores, ways, GB/s, cores,
/// ways).
const OUTPUT_SCALES: [f32; OUTPUTS] = [36.0, 20.0, 50.0, 36.0, 20.0];

/// Model-A's prediction for one service (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OaaPrediction {
    /// The Optimal Allocation Area: the `<cores, ways>` OSML should grant.
    pub oaa: AllocPoint,
    /// Bandwidth the service needs at its OAA, in tenths of GB/s (stored as
    /// integer-scaled to keep the type hashable; see
    /// [`OaaPrediction::oaa_bandwidth_gbps`]).
    bw_decigbps: u32,
    /// The Resource Cliff: the minimal allocation below which latency
    /// explodes.
    pub rcliff: AllocPoint,
}

impl OaaPrediction {
    /// Builds a prediction (bandwidth in GB/s).
    pub fn new(oaa: AllocPoint, oaa_bandwidth_gbps: f64, rcliff: AllocPoint) -> Self {
        OaaPrediction {
            oaa,
            bw_decigbps: (oaa_bandwidth_gbps.max(0.0) * 10.0).round() as u32,
            rcliff,
        }
    }

    /// Bandwidth the service needs at its OAA, GB/s.
    pub fn oaa_bandwidth_gbps(&self) -> f64 {
        f64::from(self.bw_decigbps) / 10.0
    }
}

/// **Model-A: finding the OAA.**
///
/// A 3-hidden-layer MLP (40 neurons per layer, ReLU, MSE loss, Adam) that
/// maps one normalized [`CounterSample`] to the service's OAA
/// (`<cores, ways>`), OAA bandwidth, and RCliff (`<cores, ways>`).
///
/// The network regresses normalized resource counts; [`ModelA::predict`]
/// rounds and clamps them back to valid machine coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelA {
    mlp: Mlp,
    max_cores: usize,
    max_ways: usize,
}

impl ModelA {
    /// Creates an untrained Model-A for a machine with the given geometry.
    pub fn new(max_cores: usize, max_ways: usize, seed: u64) -> Self {
        ModelA {
            mlp: Mlp::new(&MlpConfig::paper_mlp(features::BASE_FEATURES, OUTPUTS, seed)),
            max_cores,
            max_ways,
        }
    }

    /// Encodes a label row: `(oaa, oaa_bw, rcliff)` → normalized head values.
    pub fn encode_label(oaa: AllocPoint, oaa_bw_gbps: f64, rcliff: AllocPoint) -> [f32; OUTPUTS] {
        [
            oaa.cores as f32 / OUTPUT_SCALES[0],
            oaa.ways as f32 / OUTPUT_SCALES[1],
            oaa_bw_gbps as f32 / OUTPUT_SCALES[2],
            rcliff.cores as f32 / OUTPUT_SCALES[3],
            rcliff.ways as f32 / OUTPUT_SCALES[4],
        ]
    }

    /// Trains on a dataset of normalized inputs (`x`: one
    /// [`features::write_model_a_input`] row per sample) and encoded labels
    /// (`y`: one [`ModelA::encode_label`] per row) with the paper's MSE loss.
    pub fn train(&mut self, x: &Matrix, y: &Matrix, config: TrainerConfig) -> TrainReport {
        Trainer::new(config).fit(&mut self.mlp, x, y, &Mse)
    }

    /// Predicts OAA, OAA bandwidth, and RCliff from one counter sample.
    pub fn predict(&self, sample: &CounterSample, scratch: &mut Scratch) -> OaaPrediction {
        self.decode(scratch.run(&self.mlp, |row| features::write_model_a_input(sample, row)))
    }

    /// Decodes one raw output row into machine coordinates.
    fn decode(&self, out: &[f32]) -> OaaPrediction {
        let clamp = |v: f32, scale: f32, max: usize| -> usize {
            ((v * scale).round() as i64).clamp(1, max as i64) as usize
        };
        let oaa = AllocPoint::new(
            clamp(out[0], OUTPUT_SCALES[0], self.max_cores),
            clamp(out[1], OUTPUT_SCALES[1], self.max_ways),
        );
        let rcliff = AllocPoint::new(
            clamp(out[3], OUTPUT_SCALES[3], self.max_cores),
            clamp(out[4], OUTPUT_SCALES[4], self.max_ways),
        );
        let bw = (out[2] * OUTPUT_SCALES[2]).max(0.0) as f64;
        OaaPrediction::new(oaa, bw, rcliff)
    }

    /// Read access to the underlying network (for persistence).
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cores: usize, ways: usize, misses: f64) -> CounterSample {
        CounterSample {
            ipc: 1.1,
            llc_misses_per_sec: misses,
            mbl_gbps: misses * 160.0 / 1e9,
            cpu_usage: cores as f64 * 0.8,
            memory_util_gb: 4.0,
            virt_memory_gb: 6.4,
            res_memory_gb: 4.0,
            llc_occupancy_mb: ways as f64 * 2.25,
            allocated_cores: cores,
            allocated_ways: ways,
            frequency_ghz: 2.3,
            response_latency_ms: 8.0,
        }
    }

    #[test]
    fn label_encoding_round_trips_through_predict_scales() {
        let label = ModelA::encode_label(AllocPoint::new(9, 11), 12.5, AllocPoint::new(7, 9));
        assert!((label[0] * 36.0 - 9.0).abs() < 1e-4);
        assert!((label[1] * 20.0 - 11.0).abs() < 1e-4);
        assert!((label[2] * 50.0 - 12.5).abs() < 1e-4);
        assert!((label[3] * 36.0 - 7.0).abs() < 1e-4);
        assert!((label[4] * 20.0 - 9.0).abs() < 1e-4);
    }

    #[test]
    fn untrained_predictions_are_valid_coordinates() {
        let model = ModelA::new(36, 20, 1);
        let p = model.predict(&sample(6, 10, 5.0e7), &mut Scratch::default());
        assert!((1..=36).contains(&p.oaa.cores));
        assert!((1..=20).contains(&p.oaa.ways));
        assert!((1..=36).contains(&p.rcliff.cores));
        assert!((1..=20).contains(&p.rcliff.ways));
        assert!(p.oaa_bandwidth_gbps() >= 0.0);
    }

    #[test]
    fn model_a_learns_a_synthetic_oaa_mapping() {
        // Synthetic ground truth: the busier the service (more misses), the
        // larger its OAA. The model must recover it from counters alone.
        let mut model = ModelA::new(36, 20, 7);
        let n = 600;
        let mut x = Matrix::zeros(n, features::BASE_FEATURES);
        let mut y = Matrix::zeros(n, OUTPUTS);
        for i in 0..n {
            let level = (i % 10) as f64; // 0..9 intensity levels
            let s = sample(4 + i % 8, 2 + i % 12, 1.0e7 * (1.0 + level));
            let oaa = AllocPoint::new(4 + level as usize * 2, 3 + level as usize);
            let cliff = AllocPoint::new(3 + level as usize * 2, 2 + level as usize);
            features::write_model_a_input(&s, x.row_mut(i));
            y.row_mut(i).copy_from_slice(&ModelA::encode_label(oaa, 2.0 * level, cliff));
        }
        let report = model.train(
            &x,
            &y,
            TrainerConfig { epochs: 120, batch_size: 64, ..TrainerConfig::default() },
        );
        assert!(
            report.train_metrics.rmse < 0.05,
            "model-a failed to fit synthetic OAA: rmse {}",
            report.train_metrics.rmse
        );
        // Spot-check: intensity level 9 should predict a big OAA, level 0 a
        // small one.
        let scratch = &mut Scratch::default();
        let hot = model.predict(&sample(5, 5, 1.0e8), scratch);
        let cold = model.predict(&sample(5, 5, 1.0e7), scratch);
        assert!(hot.oaa.cores > cold.oaa.cores, "{hot:?} vs {cold:?}");
    }

    #[test]
    fn serde_round_trip() {
        let model = ModelA::new(36, 20, 3);
        let json = serde_json::to_string(&model).unwrap();
        let back: ModelA = serde_json::from_str(&json).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn bandwidth_stores_at_deci_resolution() {
        let p = OaaPrediction::new(AllocPoint::new(1, 1), 12.34, AllocPoint::new(1, 1));
        assert!((p.oaa_bandwidth_gbps() - 12.3).abs() < 1e-9);
    }
}
