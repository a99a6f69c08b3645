//! Loss functions: standard MSE (Model-A) and the paper's zero-masked
//! relative loss (Model-B / Model-B').

use crate::Matrix;

/// A differentiable loss over a batch of predictions.
///
/// Implementations return the scalar batch loss and the gradient
/// `∂L/∂prediction` with the same shape as the prediction matrix, and say
/// which label rows can move no weight.
pub trait Loss {
    /// Scalar loss over the batch.
    fn value(&self, prediction: &Matrix, target: &Matrix) -> f32;
    /// Gradient of the loss w.r.t. each prediction element, written into
    /// `out` (reshaped to the prediction's shape, its buffer reused).
    fn gradient_into(&self, prediction: &Matrix, target: &Matrix, out: &mut Matrix);
    /// Whether a row with these labels is inert: for every finite
    /// prediction its terms of [`value`](Loss::value) are `+0.0` and of the
    /// gradient `±0.0`. A training step computes no forward or backward
    /// pass for an inert row. No row is, unless the loss says so.
    fn is_inert(&self, _labels: &[f32]) -> bool {
        false
    }
}

/// Mean squared error, `L = 1/n Σ (s - y)²` — the Model-A loss (§IV-A).
///
/// `n` counts elements, so multi-output heads are averaged uniformly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mse;

impl Loss for Mse {
    fn value(&self, prediction: &Matrix, target: &Matrix) -> f32 {
        assert_eq!(prediction.dims(), target.dims(), "loss shape mismatch");
        let n = prediction.as_slice().len() as f32;
        prediction
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&s, &y)| (s - y) * (s - y))
            .sum::<f32>()
            / n
    }

    fn gradient_into(&self, prediction: &Matrix, target: &Matrix, out: &mut Matrix) {
        assert_eq!(prediction.dims(), target.dims(), "loss shape mismatch");
        let n = prediction.as_slice().len() as f32;
        let (rows, cols) = prediction.dims();
        out.reset(rows, cols);
        for ((g, &s), &y) in
            out.as_mut_slice().iter_mut().zip(prediction.as_slice()).zip(target.as_slice())
        {
            *g = 2.0 * (s - y) / n;
        }
    }
}

/// The paper's Model-B loss (§IV-B):
///
/// ```text
/// L = 1/n Σ ( y/(y + C) · (s - y) )²
/// ```
///
/// with `C` infinitesimally small. Non-existent resource-trading cases are
/// labelled `y = 0` during data collection; the `y/(y+C)` factor zeroes
/// their contribution (and their gradient), so backpropagation never adjusts
/// weights toward fictitious labels while real labels (`y > 0`, where
/// `y/(y+C) ≈ 1`) train normally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskedRelativeMse {
    /// The constant `C`; the paper wants it "infinitely close to zero".
    pub c: f32,
}

impl Default for MaskedRelativeMse {
    fn default() -> Self {
        MaskedRelativeMse { c: 1e-6 }
    }
}

impl MaskedRelativeMse {
    fn weight(&self, y: f32) -> f32 {
        y / (y + self.c)
    }
}

impl Loss for MaskedRelativeMse {
    fn value(&self, prediction: &Matrix, target: &Matrix) -> f32 {
        assert_eq!(prediction.dims(), target.dims(), "loss shape mismatch");
        let n = prediction.as_slice().len() as f32;
        prediction
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&s, &y)| {
                let e = self.weight(y) * (s - y);
                e * e
            })
            .sum::<f32>()
            / n
    }

    fn gradient_into(&self, prediction: &Matrix, target: &Matrix, out: &mut Matrix) {
        assert_eq!(prediction.dims(), target.dims(), "loss shape mismatch");
        let n = prediction.as_slice().len() as f32;
        let (rows, cols) = prediction.dims();
        out.reset(rows, cols);
        for ((g, &s), &y) in
            out.as_mut_slice().iter_mut().zip(prediction.as_slice()).zip(target.as_slice())
        {
            let w = self.weight(y);
            *g = 2.0 * w * w * (s - y) / n;
        }
    }

    /// A row whose every label has weight `y/(y+C) = 0` — the paper's
    /// "non-existent case", `y = 0` — is inert: `(0 · (s − y))² = +0.0` and
    /// `2 · 0 · 0 · (s − y) / n = ±0.0` for any finite `s`.
    fn is_inert(&self, labels: &[f32]) -> bool {
        labels.iter().all(|&y| self.weight(y) == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(loss: &dyn Loss, prediction: &Matrix, target: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        loss.gradient_into(prediction, target, &mut out);
        out
    }

    #[test]
    fn mse_of_perfect_prediction_is_zero() {
        let p = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(Mse.value(&p, &p), 0.0);
        assert!(gradient(&Mse, &p, &p).as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mse_value_and_gradient_match_hand_computation() {
        let p = Matrix::from_rows(&[&[3.0, 0.0]]);
        let y = Matrix::from_rows(&[&[1.0, 0.0]]);
        // L = ((3-1)^2 + 0) / 2 = 2
        assert_eq!(Mse.value(&p, &y), 2.0);
        // dL/ds0 = 2*(3-1)/2 = 2
        assert_eq!(gradient(&Mse, &p, &y).as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn masked_loss_ignores_zero_labels() {
        let loss = MaskedRelativeMse::default();
        let p = Matrix::from_rows(&[&[5.0, 5.0]]);
        let y = Matrix::from_rows(&[&[0.0, 5.0]]);
        // The y=0 column contributes ~nothing despite the 5.0 error.
        assert!(loss.value(&p, &y) < 1e-6);
        let g = gradient(&loss, &p, &y);
        assert!(g[(0, 0)].abs() < 1e-6, "zero label must not generate gradient");
    }

    #[test]
    fn masked_loss_trains_nonzero_labels_like_mse() {
        let loss = MaskedRelativeMse::default();
        let p = Matrix::from_rows(&[&[3.0]]);
        let y = Matrix::from_rows(&[&[1.0]]);
        // weight ≈ 1, so value ≈ (3-1)^2 / 1 = 4, gradient ≈ 4.
        assert!((loss.value(&p, &y) - 4.0).abs() < 1e-4);
        assert!((gradient(&loss, &p, &y)[(0, 0)] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn gradients_agree_with_finite_differences() {
        let losses: Vec<Box<dyn Loss>> =
            vec![Box::new(Mse), Box::new(MaskedRelativeMse::default())];
        let y = Matrix::from_rows(&[&[1.0, 0.0, 2.5]]);
        let p0 = Matrix::from_rows(&[&[0.7, 0.4, 3.1]]);
        let eps = 1e-3f32;
        for loss in &losses {
            let analytic = gradient(loss.as_ref(), &p0, &y);
            for i in 0..3 {
                let mut plus = p0.clone();
                plus.as_mut_slice()[i] += eps;
                let mut minus = p0.clone();
                minus.as_mut_slice()[i] -= eps;
                let numeric = (loss.value(&plus, &y) - loss.value(&minus, &y)) / (2.0 * eps);
                assert!(
                    (numeric - analytic.as_slice()[i]).abs() < 1e-2,
                    "finite-difference mismatch at {i}: {numeric} vs {}",
                    analytic.as_slice()[i]
                );
            }
        }
    }

    #[test]
    fn only_all_masked_rows_are_inert() {
        let loss = MaskedRelativeMse::default();
        assert!(loss.is_inert(&[0.0, -0.0, 0.0]));
        assert!(!loss.is_inert(&[0.0, 1e-3, 0.0]));
        assert!(!Mse.is_inert(&[0.0, 0.0]));
        // `C = 0` weighs a zero label `0/0 = NaN`: nothing about that row is zero.
        assert!(!MaskedRelativeMse { c: 0.0 }.is_inert(&[0.0]));
        // An inert row adds `+0.0` to the value and `±0.0` to the gradient,
        // whatever the prediction.
        let y = Matrix::from_rows(&[&[0.0, -0.0, 0.0]]);
        for s in [0.0, -0.0, 1.5, -7.25, 3e-30, f32::MAX] {
            let p = Matrix::from_rows(&[&[s, -s, s]]);
            assert_eq!(loss.value(&p, &y).to_bits(), 0.0f32.to_bits(), "prediction {s}");
            assert!(gradient(&loss, &p, &y).as_slice().iter().all(|&g| g == 0.0), "{s}");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let p = Matrix::zeros(1, 2);
        let y = Matrix::zeros(1, 3);
        let _ = Mse.value(&p, &y);
    }
}
