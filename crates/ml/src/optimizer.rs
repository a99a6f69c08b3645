use crate::mlp::{Mlp, ParamGrads};
use serde::{Deserialize, Serialize};

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
    pub(crate) fn new(mlp: &Mlp, config: AdamConfig) -> Self {
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

impl Adam {
    /// Applies one update step to `mlp`'s parameters from `grads`. Two plain
    /// slice loops per layer, weights then bias, so the update vectorises:
    /// every element runs the same operations in the same order, and
    /// division and `sqrt` round correctly in every lane.
    pub(crate) fn step(&mut self, mlp: &mut Mlp, grads: &ParamGrads) {
        self.t += 1;
        let c = self.config;
        let bias_corr1 = 1.0 - c.beta1.powi(self.t);
        let bias_corr2 = 1.0 - c.beta2.powi(self.t);
        let update = |params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32]| {
            for (((param, &g), mi), vi) in params.iter_mut().zip(grads).zip(m).zip(v) {
                *mi = c.beta1 * *mi + (1.0 - c.beta1) * g;
                *vi = c.beta2 * *vi + (1.0 - c.beta2) * g * g;
                let m_hat = *mi / bias_corr1;
                let v_hat = *vi / bias_corr2;
                *param -= c.learning_rate * m_hat / (v_hat.sqrt() + c.epsilon);
            }
        };
        for (li, layer) in mlp.layers_mut().iter_mut().enumerate() {
            let weights = layer.weights.as_mut_slice();
            let (m_w, m_b) = self.m[li].split_at_mut(weights.len());
            let (v_w, v_b) = self.v[li].split_at_mut(weights.len());
            update(weights, grads.weights[li].as_slice(), m_w, v_w);
            update(&mut layer.bias, &grads.biases[li], m_b, v_b);
        }
    }
}

#[cfg(test)]
impl Adam {
    /// `step` as it was before it vectorised — one loop per layer over the
    /// weights chained to the bias — kept as the reference the split loops
    /// are pinned to, bit for bit.
    pub(crate) fn step_reference(&mut self, mlp: &mut Mlp, grads: &ParamGrads) {
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
    fn split_adam_step_is_bit_identical_to_the_chained_reference() {
        // Gradients of both signs, both zeros, tiny and huge; after step 300
        // every third parameter's gradient stays zero, so its first moment
        // decays into the subnormal range. Layer lengths cover every % 8.
        let start = Mlp::new(&MlpConfig::new(&[5, 7, 9, 3, 1], 31));
        let (mut fast, mut slow) = (start.clone(), start.clone());
        let (mut adam, mut reference) = (Adam::with_defaults(&start), Adam::with_defaults(&start));
        let mut grads = ParamGrads {
            weights: start.layers().iter().map(|l| l.weights.clone()).collect(),
            biases: start.layers().iter().map(|l| l.bias.clone()).collect(),
        };
        let mut state = 0x5eed_u64;
        for step in 0..1200 {
            let every = grads.weights.iter_mut().flat_map(|w| w.as_mut_slice());
            for (i, g) in every.chain(grads.biases.iter_mut().flatten()).enumerate() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                *g = match (step / 50 + i) % 5 {
                    _ if step > 300 && i % 3 == 0 => 0.0,
                    0 => 0.0,
                    1 => -0.0,
                    2 => u * 1e-30,
                    3 => u * 1e4,
                    _ => u,
                };
            }
            adam.step(&mut fast, &grads);
            reference.step_reference(&mut slow, &grads);
            assert_eq!(
                serde_json::to_string(&(&fast, &adam)).unwrap(),
                serde_json::to_string(&(&slow, &reference)).unwrap(),
                "step {step}"
            );
        }
        assert!(adam.m.iter().flatten().any(|m| m.is_subnormal()), "no moment went subnormal");
        assert_ne!(fast, start, "the weights moved");
    }

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
        assert_eq!(adam.t, 1);
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
    fn optimizer_state_serializes() {
        let mlp = Mlp::new(&MlpConfig::new(&[2, 3, 1], 2));
        let adam = Adam::with_defaults(&mlp);
        let json = serde_json::to_string(&adam).unwrap();
        let back: Adam = serde_json::from_str(&json).unwrap();
        assert_eq!(back, adam);
    }
}
