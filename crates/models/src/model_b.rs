use crate::{features, Scratch};
use osml_ml::loss::MaskedRelativeMse;
use osml_ml::{Matrix, Mlp, MlpConfig, TrainReport, Trainer, TrainerConfig};
use osml_platform::CounterSample;
use serde::{Deserialize, Serialize};

/// The three resource-trading policies Model-B outputs (§IV-B): each
/// corresponds to one reduction angle in the paper's Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeprivePolicy {
    /// `<cores, LLC ways>` — the oblique angle: shed both evenly.
    Balanced,
    /// `<cores dominated, LLC ways>` — trade mostly cores for ways.
    CoresDominated,
    /// `<cores, LLC ways dominated>` — trade mostly ways for cores.
    WaysDominated,
}

/// One B-point: how many cores and ways can be deprived of a service under
/// one policy while keeping its QoS slowdown within the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BPoint {
    /// Policy this point belongs to.
    pub policy: DeprivePolicy,
    /// Cores that can be taken.
    pub cores: usize,
    /// LLC ways that can be taken.
    pub ways: usize,
}

impl BPoint {
    /// Total resources this point frees.
    pub fn total(&self) -> usize {
        self.cores + self.ways
    }
}

/// Model-B's full output: one B-point per policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BPoints {
    /// The balanced, cores-dominated and ways-dominated points.
    pub points: [BPoint; 3],
}

impl BPoints {
    /// Iterates the points.
    pub fn iter(&self) -> impl Iterator<Item = &BPoint> {
        self.points.iter()
    }

    /// The point freeing the most total resources.
    pub fn most_generous(&self) -> BPoint {
        *self.points.iter().max_by_key(|p| p.total()).expect("points is non-empty")
    }
}

/// Number of Model-B regression heads: (cores, ways) × 3 policies.
pub(crate) const OUTPUTS: usize = 6;

const CORE_SCALE: f32 = 36.0;
const WAY_SCALE: f32 = 20.0;

/// **Model-B: trading QoS for resources** (§IV-B).
///
/// Input: the 11 base features plus an acceptable QoS slowdown. Output:
/// three B-points. Trained with the paper's zero-masked relative loss
/// ([`MaskedRelativeMse`]) so "non-existent" trades — labelled 0 during data
/// collection — never pull the weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelB {
    mlp: Mlp,
    max_cores: usize,
    max_ways: usize,
}

impl ModelB {
    /// Creates an untrained Model-B.
    pub fn new(max_cores: usize, max_ways: usize, seed: u64) -> Self {
        ModelB {
            mlp: Mlp::new(&MlpConfig::paper_mlp(features::MODEL_B_INPUTS, OUTPUTS, seed)),
            max_cores,
            max_ways,
        }
    }

    /// Encodes a label row: the deprivable `(cores, ways)` per policy, in
    /// `DeprivePolicy` declaration order. `None` marks a non-existent
    /// trade (labelled 0 so the masked loss skips it).
    pub fn encode_label(points: [Option<(usize, usize)>; 3]) -> [f32; OUTPUTS] {
        let mut out = [0.0f32; OUTPUTS];
        for (i, p) in points.iter().enumerate() {
            if let Some((c, w)) = p {
                out[2 * i] = *c as f32 / CORE_SCALE;
                out[2 * i + 1] = *w as f32 / WAY_SCALE;
            }
        }
        out
    }

    /// Trains with the paper's masked loss.
    pub fn train(&mut self, x: &Matrix, y: &Matrix, config: TrainerConfig) -> TrainReport {
        Trainer::new(config).fit(&mut self.mlp, x, y, &MaskedRelativeMse::default())
    }

    /// Predicts the B-points for a service given its counters and the
    /// slowdown OSML is willing to impose on it.
    pub fn predict(
        &self,
        sample: &CounterSample,
        qos_slowdown: f64,
        scratch: &mut Scratch,
    ) -> BPoints {
        let write = |row: &mut [f32]| features::write_model_b_input(sample, qos_slowdown, row);
        self.decode(scratch.run(&self.mlp, write))
    }

    /// Decodes one raw output row into the three B-points.
    fn decode(&self, out: &[f32]) -> BPoints {
        let clamp = |v: f32, scale: f32, max: usize| -> usize {
            ((v * scale).round() as i64).clamp(0, max as i64) as usize
        };
        let mk = |i: usize, policy: DeprivePolicy| BPoint {
            policy,
            cores: clamp(out[2 * i], CORE_SCALE, self.max_cores),
            ways: clamp(out[2 * i + 1], WAY_SCALE, self.max_ways),
        };
        BPoints {
            points: [
                mk(0, DeprivePolicy::Balanced),
                mk(1, DeprivePolicy::CoresDominated),
                mk(2, DeprivePolicy::WaysDominated),
            ],
        }
    }
}

/// **Model-B′**: the shadow of Model-B (§IV-B) — given a service's counters
/// and a *proposed* deprivation `(cores, ways)`, predicts the QoS slowdown
/// it would suffer. Algorithm 4 uses it to price LLC sharing with
/// neighbours.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelBPrime {
    mlp: Mlp,
}

impl ModelBPrime {
    /// Creates an untrained Model-B′.
    pub fn new(seed: u64) -> Self {
        ModelBPrime {
            mlp: Mlp::new(&MlpConfig::paper_mlp(features::MODEL_B_PRIME_INPUTS, 1, seed)),
        }
    }

    /// Trains with the paper's masked loss (labels are slowdown fractions;
    /// impossible deprivations are labelled 0).
    pub fn train(&mut self, x: &Matrix, y: &Matrix, config: TrainerConfig) -> TrainReport {
        Trainer::new(config).fit(&mut self.mlp, x, y, &MaskedRelativeMse::default())
    }

    /// Predicted QoS slowdown (fraction, ≥ 0) if `(cores_taken, ways_taken)`
    /// are deprived from the sampled service.
    pub fn predict(
        &self,
        sample: &CounterSample,
        cores_taken: usize,
        ways_taken: usize,
        scratch: &mut Scratch,
    ) -> f64 {
        let write = |row: &mut [f32]| {
            features::write_model_b_prime_input(sample, cores_taken, ways_taken, row)
        };
        f64::from(scratch.run(&self.mlp, write)[0]).max(0.0)
    }

    /// Read access to the underlying network (for persistence).
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cores: usize, ways: usize) -> CounterSample {
        CounterSample {
            ipc: 1.2,
            llc_misses_per_sec: 4.0e7,
            mbl_gbps: 6.0,
            cpu_usage: cores as f64 * 0.6,
            memory_util_gb: 3.0,
            virt_memory_gb: 4.8,
            res_memory_gb: 3.0,
            llc_occupancy_mb: ways as f64 * 2.25,
            allocated_cores: cores,
            allocated_ways: ways,
            frequency_ghz: 2.3,
            response_latency_ms: 5.0,
        }
    }

    #[test]
    fn label_encoding_zeroes_nonexistent_cases() {
        let y = ModelB::encode_label([Some((2, 2)), None, Some((0, 4))]);
        assert!(y[0] > 0.0 && y[1] > 0.0);
        assert_eq!(y[2], 0.0);
        assert_eq!(y[3], 0.0);
        assert_eq!(y[4], 0.0);
        assert!(y[5] > 0.0);
    }

    #[test]
    fn untrained_predictions_are_in_range() {
        let model = ModelB::new(36, 20, 1);
        let points = model.predict(&sample(10, 10), 0.05, &mut Scratch::default());
        for p in points.iter() {
            assert!(p.cores <= 36);
            assert!(p.ways <= 20);
        }
        assert_eq!(points.points[0].policy, DeprivePolicy::Balanced);
        assert_eq!(points.points[1].policy, DeprivePolicy::CoresDominated);
        assert_eq!(points.points[2].policy, DeprivePolicy::WaysDominated);
    }

    #[test]
    fn model_b_learns_slowdown_proportional_trades() {
        // Synthetic rule: with slowdown budget s, a service on (c, w) can
        // give up floor(c * s * 5) cores / floor(w * s * 5) ways.
        let mut model = ModelB::new(36, 20, 5);
        let n = 800;
        let mut x = Matrix::zeros(n, features::MODEL_B_INPUTS);
        let mut y = Matrix::zeros(n, OUTPUTS);
        for i in 0..n {
            let c = 6 + i % 12;
            let w = 4 + i % 10;
            let s = 0.05 * ((i % 4) as f64 + 1.0); // 5..20%
            let give_c = ((c as f64) * s * 5.0).floor() as usize;
            let give_w = ((w as f64) * s * 5.0).floor() as usize;
            features::write_model_b_input(&sample(c, w), s, x.row_mut(i));
            y.row_mut(i).copy_from_slice(&ModelB::encode_label([
                Some((give_c, give_w)),
                Some((give_c + 1, give_w.saturating_sub(1))),
                Some((give_c.saturating_sub(1), give_w + 1)),
            ]));
        }
        let report = model.train(
            &x,
            &y,
            TrainerConfig { epochs: 150, batch_size: 64, ..TrainerConfig::default() },
        );
        assert!(report.train_metrics.rmse < 0.05, "rmse {}", report.train_metrics.rmse);
        // Bigger budget must free at least as many resources.
        let scratch = &mut Scratch::default();
        let small = model.predict(&sample(12, 10), 0.05, scratch);
        let large = model.predict(&sample(12, 10), 0.20, scratch);
        assert!(
            large.most_generous().total() >= small.most_generous().total(),
            "{large:?} vs {small:?}"
        );
    }

    #[test]
    fn model_b_prime_learns_a_slowdown_surface() {
        // Synthetic rule: slowdown = 2% per core + 1% per way taken.
        let mut model = ModelBPrime::new(9);
        let n = 600;
        let mut x = Matrix::zeros(n, features::MODEL_B_PRIME_INPUTS);
        let mut y = Matrix::zeros(n, 1);
        for i in 0..n {
            let c = i % 6;
            let w = (i / 6) % 6;
            features::write_model_b_prime_input(&sample(12, 12), c, w, x.row_mut(i));
            y.row_mut(i)[0] = 0.02 * c as f32 + 0.01 * w as f32;
        }
        let report = model.train(
            &x,
            &y,
            TrainerConfig { epochs: 200, batch_size: 64, ..TrainerConfig::default() },
        );
        assert!(report.train_metrics.rmse < 0.01, "rmse {}", report.train_metrics.rmse);
        let scratch = &mut Scratch::default();
        let cheap = model.predict(&sample(12, 12), 0, 1, scratch);
        let costly = model.predict(&sample(12, 12), 4, 4, scratch);
        assert!(costly > cheap, "taking more must cost more: {cheap} vs {costly}");
    }

    #[test]
    fn most_generous_picks_max_total() {
        let points = BPoints {
            points: [
                BPoint { policy: DeprivePolicy::Balanced, cores: 1, ways: 1 },
                BPoint { policy: DeprivePolicy::CoresDominated, cores: 4, ways: 0 },
                BPoint { policy: DeprivePolicy::WaysDominated, cores: 0, ways: 3 },
            ],
        };
        assert_eq!(points.most_generous().cores, 4);
    }

    #[test]
    fn serde_round_trip() {
        let b = ModelB::new(36, 20, 2);
        let bp = ModelBPrime::new(2);
        let b2: ModelB = serde_json::from_str(&serde_json::to_string(&b).unwrap()).unwrap();
        let bp2: ModelBPrime = serde_json::from_str(&serde_json::to_string(&bp).unwrap()).unwrap();
        assert_eq!(b, b2);
        assert_eq!(bp, bp2);
    }
}
