use crate::mlp::{Mlp, ParamGrads};
use serde::{Deserialize, Serialize};

/// A gradient-descent rule applied to an [`Mlp`]'s parameters.
pub trait Optimizer {
    /// Applies one update step from the given gradients.
    fn step(&mut self, mlp: &mut Mlp, grads: &ParamGrads);
}

/// Plain stochastic gradient descent: `θ ← θ − η ∇L`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate `η`.
    pub learning_rate: f32,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate.
    pub fn new(learning_rate: f32) -> Self {
        Sgd { learning_rate }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, mlp: &mut Mlp, grads: &ParamGrads) {
        for (li, layer) in mlp.layers_mut().iter_mut().enumerate() {
            for (w, &g) in layer.weights.as_mut_slice().iter_mut().zip(grads.weights[li].as_slice())
            {
                *w -= self.learning_rate * g;
            }
            for (b, &g) in layer.bias.iter_mut().zip(&grads.biases[li]) {
                *b -= self.learning_rate * g;
            }
        }
    }
}

/// Hyper-parameters of [`Adam`]. Defaults are the standard
/// `β₁ = 0.9, β₂ = 0.999, ε = 1e-8, η = 1e-3` the paper uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate `η`.
    pub learning_rate: f32,
    /// First-moment decay `β₁`.
    pub beta1: f32,
    /// Second-moment decay `β₂`.
    pub beta2: f32,
    /// Numerical-stability constant `ε`.
    pub epsilon: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { learning_rate: 1e-3, beta1: 0.9, beta2: 0.999, epsilon: 1e-8 }
    }
}

/// The Adam optimizer, exactly as written in §IV-A of the paper:
///
/// ```text
/// m_t = β₁ m_{t-1} + (1 - β₁) g_t        v_t = β₂ v_{t-1} + (1 - β₂) g_t²
/// m̂_t = m_t / (1 - β₁ᵗ)                 v̂_t = v_t / (1 - β₂ᵗ)
/// θ_{t+1} = θ_t − η m̂_t / (√v̂_t + ε)
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    config: AdamConfig,
    /// First moments, flattened per layer: weights then bias.
    m: Vec<Vec<f32>>,
    /// Second moments, same layout as `m`.
    v: Vec<Vec<f32>>,
    /// Time step `t` (for bias correction).
    t: i32,
}

impl Adam {
    /// Creates an Adam optimizer sized for `mlp` with custom hyper-parameters.
    pub fn new(mlp: &Mlp, config: AdamConfig) -> Self {
        Adam {
            config,
            m: layer_param_counts(mlp).map(|s| vec![0.0; s]).collect(),
            v: layer_param_counts(mlp).map(|s| vec![0.0; s]).collect(),
            t: 0,
        }
    }

    /// Creates an Adam optimizer with the default hyper-parameters.
    pub fn with_defaults(mlp: &Mlp) -> Self {
        Adam::new(mlp, AdamConfig::default())
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> i32 {
        self.t
    }

    /// Whether the moments are laid out for `mlp` (one vector per layer,
    /// weights then bias) and the step counter is a count. `step` zips
    /// parameters with moments, so a mis-sized optimizer would silently
    /// update a prefix of each layer.
    pub(crate) fn is_sized_for(&self, mlp: &Mlp) -> bool {
        let sized = |moments: &[Vec<f32>]| moments.iter().map(Vec::len).eq(layer_param_counts(mlp));
        self.t >= 0 && sized(&self.m) && sized(&self.v)
    }
}

/// Parameters per layer (weights then bias): the layout of Adam's moments.
fn layer_param_counts(mlp: &Mlp) -> impl Iterator<Item = usize> + '_ {
    mlp.layers().iter().map(|l| l.weights.as_slice().len() + l.bias.len())
}

impl Optimizer for Adam {
    fn step(&mut self, mlp: &mut Mlp, grads: &ParamGrads) {
        self.t += 1;
        let c = self.config;
        let bias_corr1 = 1.0 - c.beta1.powi(self.t);
        let bias_corr2 = 1.0 - c.beta2.powi(self.t);
        for (li, layer) in mlp.layers_mut().iter_mut().enumerate() {
            let m = &mut self.m[li];
            let v = &mut self.v[li];
            let grad_iter =
                grads.weights[li].as_slice().iter().chain(grads.biases[li].iter()).copied();
            let param_iter = layer.weights.as_mut_slice().iter_mut().chain(layer.bias.iter_mut());
            for (((param, g), mi), vi) in param_iter.zip(grad_iter).zip(m).zip(v) {
                *mi = c.beta1 * *mi + (1.0 - c.beta1) * g;
                *vi = c.beta2 * *vi + (1.0 - c.beta2) * g * g;
                let m_hat = *mi / bias_corr1;
                let v_hat = *vi / bias_corr2;
                *param -= c.learning_rate * m_hat / (v_hat.sqrt() + c.epsilon);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Mse;
    use crate::{Matrix, MlpConfig};

    #[test]
    fn adam_bias_correction_makes_first_step_full_size() {
        // With g constant, the very first Adam step should be ≈ η (that is
        // the point of bias correction).
        let mut mlp = Mlp::new(&MlpConfig::new(&[1, 1], 0));
        let w0 = mlp.layers()[0].weights[(0, 0)];
        let mut adam = Adam::with_defaults(&mlp);
        let x = Matrix::from_rows(&[&[1.0]]);
        // Pick a target far away so the gradient sign is stable.
        let y = Matrix::from_rows(&[&[w0 + 100.0]]);
        mlp.train_batch(&x, &y, &Mse, &mut adam);
        let w1 = mlp.layers()[0].weights[(0, 0)];
        let step = (w1 - w0).abs();
        assert!((step - 1e-3).abs() < 1e-4, "first Adam step should be ~learning rate, got {step}");
        assert_eq!(adam.steps(), 1);
    }

    #[test]
    fn adam_converges_on_ill_scaled_input() {
        // Feature scales differ by 100x; Adam's per-parameter step size
        // normalization should still drive the loss to ~zero.
        let xs = [[0.01f32, 1.0], [0.02, 2.0], [0.03, 3.0], [0.04, 4.0]];
        let x = Matrix::from_rows(&[&xs[0], &xs[1], &xs[2], &xs[3]]);
        let y = Matrix::from_vec(4, 1, xs.iter().map(|r| 100.0 * r[0] + r[1]).collect());
        let mut mlp = Mlp::new(&MlpConfig::new(&[2, 8, 1], 21));
        let mut adam = Adam::with_defaults(&mlp);
        let mut last = f32::INFINITY;
        for _ in 0..3000 {
            last = mlp.train_batch(&x, &y, &Mse, &mut adam);
        }
        assert!(last < 0.05, "Adam failed to converge: loss {last}");
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut mlp = Mlp::new(&MlpConfig::new(&[1, 1], 1));
        let before = mlp.layers()[0].weights[(0, 0)];
        let x = Matrix::from_rows(&[&[1.0]]);
        let y = Matrix::from_rows(&[&[before + 10.0]]);
        let mut sgd = Sgd::new(0.1);
        mlp.train_batch(&x, &y, &Mse, &mut sgd);
        let after = mlp.layers()[0].weights[(0, 0)];
        assert!(after > before, "weight must move toward the target");
    }

    #[test]
    fn optimizer_state_serializes() {
        let mlp = Mlp::new(&MlpConfig::new(&[2, 3, 1], 2));
        let adam = Adam::with_defaults(&mlp);
        let json = serde_json::to_string(&adam).unwrap();
        let back: Adam = serde_json::from_str(&json).unwrap();
        assert_eq!(back, adam);
    }
}
