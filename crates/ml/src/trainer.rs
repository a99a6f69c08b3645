use crate::loss::Loss;
use crate::mlp::TrainScratch;
use crate::{Adam, AdamConfig, Matrix, Mlp};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration for mini-batch supervised training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Fraction of data held out for validation (0 disables).
    pub validation_split: f64,
    /// Adam hyper-parameters.
    pub adam: AdamConfig,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            epochs: 30,
            batch_size: 128,
            validation_split: 0.1,
            adam: AdamConfig::default(),
            seed: 0xd1ce,
        }
    }
}

/// A training or evaluation request the trainer cannot satisfy without
/// emitting NaN (or panicking). Returned by [`Trainer::try_fit`] and
/// [`Metrics::try_evaluate`]; the panicking [`Trainer::fit`] wrapper
/// surfaces the same conditions as messages.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub(crate) enum TrainError {
    /// `x` and `y` have different numbers of rows.
    RowCountMismatch {
        /// Rows in the feature matrix.
        x_rows: usize,
        /// Rows in the label matrix.
        y_rows: usize,
    },
    /// The dataset has zero rows.
    EmptyDataset,
    /// `validation_split` holds out every row, leaving nothing to train on.
    EmptyTrainingSplit {
        /// The configured split fraction.
        split: f64,
        /// Rows that would be held out.
        held_out: usize,
        /// Total rows available.
        rows: usize,
    },
    /// The features or labels contain NaN or infinite values, which would
    /// propagate through every weight on the first update.
    NonFiniteData,
    /// The evaluation set has zero rows, so every metric would be `0/0`.
    EmptyEvaluation,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::RowCountMismatch { x_rows, y_rows } => {
                write!(f, "x and y row counts differ (x has {x_rows} rows, y has {y_rows})")
            }
            TrainError::EmptyDataset => write!(f, "dataset is empty"),
            TrainError::EmptyTrainingSplit { split, held_out, rows } => write!(
                f,
                "validation_split {split} leaves an empty training split ({held_out} of {rows} \
                 rows held out); lower the split or provide more data"
            ),
            TrainError::NonFiniteData => {
                write!(f, "dataset contains non-finite values (NaN or infinity)")
            }
            TrainError::EmptyEvaluation => {
                write!(f, "evaluation set is empty; every metric would be 0/0")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// Regression quality metrics on a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Mean absolute error over all outputs.
    pub mae: f64,
    /// Root mean squared error over all outputs.
    pub rmse: f64,
    /// Fraction of predictions within ±1.0 of the label (for resource-count
    /// heads this is "predicted within one core/way").
    pub within_one: f64,
}

/// Rows [`Metrics::try_evaluate`] forwards at a time, not the whole set.
const EVAL_ROWS: usize = 256;

impl Metrics {
    /// Computes metrics of `mlp` on the rows `rows` of `(x, y)`, in that
    /// order, returning a typed error for the inputs on which the arithmetic
    /// would panic or emit NaN. Errors are added in row-major order, so every
    /// sum is the one a whole-set forward gives: a row's output bits do not
    /// depend on its batch.
    pub(crate) fn try_evaluate(
        mlp: &Mlp,
        x: &Matrix,
        y: &Matrix,
        rows: &[usize],
    ) -> Result<Metrics, TrainError> {
        if x.rows() != y.rows() {
            return Err(TrainError::RowCountMismatch { x_rows: x.rows(), y_rows: y.rows() });
        }
        if rows.is_empty() {
            return Err(TrainError::EmptyEvaluation);
        }
        let (mut xb, mut yb) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let (mut a, mut b) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let mut abs_sum = 0.0f64;
        let mut sq_sum = 0.0f64;
        let mut within = 0usize;
        for chunk in rows.chunks(EVAL_ROWS) {
            x.gather_rows_into(chunk, &mut xb);
            y.gather_rows_into(chunk, &mut yb);
            let pred = mlp.forward_batch_into(&xb, &mut a, &mut b);
            for (&p, &t) in pred.as_slice().iter().zip(yb.as_slice()) {
                let e = (p - t) as f64;
                abs_sum += e.abs();
                sq_sum += e * e;
                if e.abs() <= 1.0 {
                    within += 1;
                }
            }
        }
        let n = rows.len() * mlp.output_size();
        Ok(Metrics {
            mae: abs_sum / n as f64,
            rmse: (sq_sum / n as f64).sqrt(),
            within_one: within as f64 / n as f64,
        })
    }
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss of each epoch.
    pub epoch_losses: Vec<f64>,
    /// Final metrics on the training split.
    pub train_metrics: Metrics,
    /// Final metrics on the validation split (if one was held out).
    pub validation_metrics: Option<Metrics>,
}

/// Seeded mini-batch trainer for supervised heads (Model-A/B/B').
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainerConfig) -> Self {
        Trainer { config }
    }

    /// Trains `mlp` on `(x, y)` and reports losses and metrics.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` have different row counts, the dataset is
    /// empty or contains non-finite values, or `validation_split` is so
    /// large the training split would be empty (e.g. a split of 1.0, or 0.9
    /// on a 10-row dataset). The typed-error form is `Trainer::try_fit`.
    pub fn fit<L: Loss>(&self, mlp: &mut Mlp, x: &Matrix, y: &Matrix, loss: &L) -> TrainReport {
        match self.try_fit(mlp, x, y, loss) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Trains `mlp` on `(x, y)`, returning a typed error for the inputs on
    /// which [`Trainer::fit`] would panic — or worse, silently converge
    /// every weight to NaN (non-finite features/labels).
    pub(crate) fn try_fit<L: Loss>(
        &self,
        mlp: &mut Mlp,
        x: &Matrix,
        y: &Matrix,
        loss: &L,
    ) -> Result<TrainReport, TrainError> {
        if x.rows() != y.rows() {
            return Err(TrainError::RowCountMismatch { x_rows: x.rows(), y_rows: y.rows() });
        }
        if x.rows() == 0 {
            return Err(TrainError::EmptyDataset);
        }
        if !x.as_slice().iter().chain(y.as_slice()).all(|v| v.is_finite()) {
            return Err(TrainError::NonFiniteData);
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n = x.rows();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);

        let n_val = ((n as f64) * self.config.validation_split) as usize;
        if n_val >= n {
            return Err(TrainError::EmptyTrainingSplit {
                split: self.config.validation_split,
                held_out: n_val,
                rows: n,
            });
        }
        let (val_idx, train_idx) = order.split_at(n_val);

        let mut adam = Adam::new(mlp, self.config.adam);
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        // The training rows' indices, reshuffled in place each epoch; each
        // mini-batch is gathered straight from `(x, y)`. A shuffle's swaps do
        // not depend on the values it moves, so this is `train_idx` permuted
        // exactly as the same draws permute `0..train_idx.len()`: the order
        // the pinned fit digests hold.
        let mut batch_order = train_idx.to_vec();
        // Mini-batch scratch: reshaped per chunk, reallocated only when the
        // chunk size changes (once per epoch at the tail), not per batch.
        let mut xb = Matrix::zeros(0, 0);
        let mut yb = Matrix::zeros(0, 0);
        let mut scratch = TrainScratch::default();
        for _ in 0..self.config.epochs {
            batch_order.shuffle(&mut rng);
            let mut loss_sum = 0.0f64;
            let mut batches = 0usize;
            for chunk in batch_order.chunks(self.config.batch_size.max(1)) {
                x.gather_rows_into(chunk, &mut xb);
                y.gather_rows_into(chunk, &mut yb);
                loss_sum += mlp.train_batch_in(&xb, &yb, loss, &mut adam, &mut scratch) as f64;
                batches += 1;
            }
            epoch_losses.push(loss_sum / batches.max(1) as f64);
        }

        Ok(TrainReport {
            epoch_losses,
            train_metrics: Metrics::try_evaluate(mlp, x, y, train_idx)?,
            validation_metrics: if n_val > 0 {
                Some(Metrics::try_evaluate(mlp, x, y, val_idx)?)
            } else {
                None
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Mse;
    use crate::MlpConfig;

    /// `try_evaluate` as it was before it forwarded in chunks: one forward
    /// over the whole set — kept as the reference the chunked pass is
    /// pinned to, bit for bit.
    fn evaluate_whole(mlp: &Mlp, x: &Matrix, y: &Matrix) -> Metrics {
        let pred = mlp.forward_batch(x);
        let mut abs_sum = 0.0f64;
        let mut sq_sum = 0.0f64;
        let mut within = 0usize;
        let n = pred.as_slice().len();
        for (&p, &t) in pred.as_slice().iter().zip(y.as_slice()) {
            let e = (p - t) as f64;
            abs_sum += e.abs();
            sq_sum += e * e;
            if e.abs() <= 1.0 {
                within += 1;
            }
        }
        Metrics {
            mae: abs_sum / n as f64,
            rmse: (sq_sum / n as f64).sqrt(),
            within_one: within as f64 / n as f64,
        }
    }

    #[test]
    fn chunked_evaluation_is_bit_identical_to_the_whole_set_forward() {
        // A deep-enough net that both ping-pong buffers are used, signed
        // inputs and labels that put some errors on each side of ±1.
        let mlp = Mlp::new(&MlpConfig::new(&[3, 24, 16, 2], 11));
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut unit = || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (lcg >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        for rows in [1, EVAL_ROWS - 1, EVAL_ROWS, EVAL_ROWS + 1, 3 * EVAL_ROWS + 5] {
            let (mut x, mut y) = (Matrix::zeros(rows, 3), Matrix::zeros(rows, 2));
            x.as_mut_slice().iter_mut().for_each(|v| *v = 4.0 * unit());
            y.as_mut_slice().iter_mut().for_each(|v| *v = 3.0 * unit());
            let all: Vec<usize> = (0..rows).collect();
            let chunked = Metrics::try_evaluate(&mlp, &x, &y, &all).unwrap();
            let whole = evaluate_whole(&mlp, &x, &y);
            let bits = |m: Metrics| [m.mae.to_bits(), m.rmse.to_bits(), m.within_one.to_bits()];
            assert_eq!(bits(chunked), bits(whole), "{rows} rows");
            assert!(whole.within_one > 0.0 && whole.within_one < 1.0, "{rows} rows: {whole:?}");
        }
    }

    /// Synthetic regression task: y0 = 2a + b, y1 = a - b.
    fn dataset(n: usize) -> (Matrix, Matrix) {
        let mut x = Matrix::zeros(n, 2);
        let mut y = Matrix::zeros(n, 2);
        for i in 0..n {
            let a = (i % 17) as f32 / 17.0;
            let b = (i % 11) as f32 / 11.0;
            x.row_mut(i).copy_from_slice(&[a, b]);
            y.row_mut(i).copy_from_slice(&[2.0 * a + b, a - b]);
        }
        (x, y)
    }

    #[test]
    fn training_reduces_loss_monotonically_enough() {
        let (x, y) = dataset(512);
        let mut mlp = Mlp::new(&MlpConfig::new(&[2, 16, 2], 3));
        let trainer =
            Trainer::new(TrainerConfig { epochs: 150, batch_size: 32, ..TrainerConfig::default() });
        let report = trainer.fit(&mut mlp, &x, &y, &Mse);
        assert_eq!(report.epoch_losses.len(), 150);
        let first = report.epoch_losses.first().unwrap();
        let last = report.epoch_losses.last().unwrap();
        assert!(last < first, "loss should fall: {first} -> {last}");
        assert!(report.train_metrics.mae < 0.15, "mae {}", report.train_metrics.mae);
    }

    #[test]
    fn validation_metrics_track_generalization() {
        let (x, y) = dataset(1000);
        let mut mlp = Mlp::new(&MlpConfig::new(&[2, 16, 2], 4));
        let trainer = Trainer::new(TrainerConfig {
            epochs: 100,
            batch_size: 32,
            validation_split: 0.2,
            ..TrainerConfig::default()
        });
        let report = trainer.fit(&mut mlp, &x, &y, &Mse);
        let val = report.validation_metrics.expect("validation split was requested");
        // The function is deterministic, so validation should be close to train.
        assert!(val.mae < report.train_metrics.mae * 3.0 + 0.05);
        assert!(val.within_one > 0.95);
    }

    #[test]
    fn zero_validation_split_yields_none() {
        let (x, y) = dataset(64);
        let mut mlp = Mlp::new(&MlpConfig::new(&[2, 8, 2], 5));
        let trainer = Trainer::new(TrainerConfig {
            epochs: 2,
            validation_split: 0.0,
            ..TrainerConfig::default()
        });
        let report = trainer.fit(&mut mlp, &x, &y, &Mse);
        assert!(report.validation_metrics.is_none());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (x, y) = dataset(128);
        let run = |seed| {
            let mut mlp = Mlp::new(&MlpConfig::new(&[2, 8, 2], 7));
            let trainer =
                Trainer::new(TrainerConfig { epochs: 3, seed, ..TrainerConfig::default() });
            trainer.fit(&mut mlp, &x, &y, &Mse).epoch_losses
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn metrics_on_perfect_predictions() {
        let y = Matrix::from_rows(&[&[1.0], &[2.0]]);
        // A "network" that already maps x to y exactly is hard to construct;
        // instead check the arithmetic with an identity-ish case.
        let mlp = Mlp::new(&MlpConfig::new(&[1, 1], 0));
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let m = Metrics::try_evaluate(&mlp, &x, &y, &[0, 1]).unwrap();
        assert!(m.mae >= 0.0 && m.rmse >= m.mae.min(m.rmse));
        assert!((0.0..=1.0).contains(&m.within_one));
    }

    #[test]
    #[should_panic(expected = "leaves an empty training split")]
    fn full_validation_split_panics_clearly() {
        let (x, y) = dataset(8);
        let mut mlp = Mlp::new(&MlpConfig::new(&[2, 8, 2], 5));
        let trainer = Trainer::new(TrainerConfig {
            epochs: 1,
            validation_split: 1.0,
            ..TrainerConfig::default()
        });
        let _ = trainer.fit(&mut mlp, &x, &y, &Mse);
    }

    #[test]
    #[should_panic(expected = "dataset is empty")]
    fn empty_dataset_panics() {
        let mut mlp = Mlp::new(&MlpConfig::new(&[1, 1], 0));
        let trainer = Trainer::new(TrainerConfig::default());
        let x = Matrix::zeros(0, 1);
        let y = Matrix::zeros(0, 1);
        let _ = trainer.fit(&mut mlp, &x, &y, &Mse);
    }

    #[test]
    fn try_fit_returns_typed_errors_instead_of_panicking() {
        let mut mlp = Mlp::new(&MlpConfig::new(&[2, 8, 2], 5));
        let trainer = Trainer::new(TrainerConfig { epochs: 1, ..TrainerConfig::default() });

        let empty = (Matrix::zeros(0, 2), Matrix::zeros(0, 2));
        assert_eq!(
            trainer.try_fit(&mut mlp, &empty.0, &empty.1, &Mse).unwrap_err(),
            TrainError::EmptyDataset
        );

        let (x, y) = dataset(8);
        let y_short = Matrix::zeros(4, 2);
        assert_eq!(
            trainer.try_fit(&mut mlp, &x, &y_short, &Mse).unwrap_err(),
            TrainError::RowCountMismatch { x_rows: 8, y_rows: 4 }
        );

        let all_held_out =
            Trainer::new(TrainerConfig { epochs: 1, validation_split: 1.0, ..trainer.config });
        assert!(matches!(
            all_held_out.try_fit(&mut mlp, &x, &y, &Mse).unwrap_err(),
            TrainError::EmptyTrainingSplit { held_out: 8, rows: 8, .. }
        ));

        assert!(trainer.try_fit(&mut mlp, &x, &y, &Mse).is_ok());
    }

    #[test]
    fn non_finite_data_is_rejected_before_it_poisons_weights() {
        let (mut x, y) = dataset(16);
        x.row_mut(3)[1] = f32::NAN;
        let mut mlp = Mlp::new(&MlpConfig::new(&[2, 8, 2], 5));
        let trainer = Trainer::new(TrainerConfig { epochs: 1, ..TrainerConfig::default() });
        assert_eq!(trainer.try_fit(&mut mlp, &x, &y, &Mse).unwrap_err(), TrainError::NonFiniteData);
        // A constant-feature window (zero variance) is legal: it trains
        // without producing NaN anywhere in the report.
        let x_const = Matrix::zeros(16, 2);
        let report = trainer.try_fit(&mut mlp, &x_const, &y, &Mse).unwrap();
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(report.train_metrics.mae.is_finite());
    }

    #[test]
    fn try_evaluate_rejects_empty_sets() {
        let mlp = Mlp::new(&MlpConfig::new(&[1, 1], 0));
        let e = Matrix::zeros(0, 1);
        assert_eq!(
            Metrics::try_evaluate(&mlp, &e, &e, &[]).unwrap_err(),
            TrainError::EmptyEvaluation,
            "evaluate on empty would otherwise report mae = NaN"
        );
    }

    #[test]
    fn train_error_display_is_informative() {
        let errors: [TrainError; 5] = [
            TrainError::RowCountMismatch { x_rows: 1, y_rows: 2 },
            TrainError::EmptyDataset,
            TrainError::EmptyTrainingSplit { split: 1.0, held_out: 8, rows: 8 },
            TrainError::NonFiniteData,
            TrainError::EmptyEvaluation,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty(), "{e:?}");
        }
    }
}
