use crate::loss::Loss;
use crate::{Adam, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Architecture of an [`Mlp`]: layer widths from input to output, plus the
/// weight-initialization seed.
///
/// The paper's Model-A/B use `[input, 40, 40, 40, output]`; Model-C's policy
/// and target networks use `[input, 30, 30, 30, |actions|]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Layer widths, `[input, hidden..., output]`. At least two entries.
    pub layer_sizes: Vec<usize>,
    /// Seed for Xavier weight initialization.
    pub seed: u64,
}

impl MlpConfig {
    /// Builds a config.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layer sizes are given or any is zero.
    pub(crate) fn new(layer_sizes: &[usize], seed: u64) -> Self {
        assert!(layer_sizes.len() >= 2, "need at least input and output layers");
        assert!(layer_sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        MlpConfig { layer_sizes: layer_sizes.to_vec(), seed }
    }

    /// The paper's Model-A/B shape: three hidden layers of 40 neurons.
    pub fn paper_mlp(inputs: usize, outputs: usize, seed: u64) -> Self {
        MlpConfig::new(&[inputs, 40, 40, 40, outputs], seed)
    }
}

/// One fully connected layer: `y = x W + b`.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct Dense {
    pub(crate) weights: Matrix, // in x out
    pub(crate) bias: Vec<f32>,
}

impl Clone for Dense {
    fn clone(&self) -> Self {
        Dense { weights: self.weights.clone(), bias: self.bias.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.weights.clone_from(&source.weights);
        self.bias.clone_from(&source.bias);
    }
}

/// A multi-layer perceptron with ReLU hidden activations and a linear output
/// layer, trained by backpropagation.
///
/// "Each layer is a set of nonlinear functions of a weighted sum of all
/// outputs that are fully connected from the prior one" (§IV-A); ReLU
/// (`f(x) = max(0, x)`) is the activation, chosen by the paper for
/// backpropagation efficiency.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Clone for Mlp {
    fn clone(&self) -> Self {
        Mlp { layers: self.layers.clone() }
    }

    /// Copies `source`'s parameters into `self`'s buffers: between networks
    /// of one shape (a DQN's target sync) nothing is allocated.
    fn clone_from(&mut self, source: &Self) {
        self.layers.clone_from(&source.layers);
    }
}

/// Buffers of one backpropagation step — the live-row mask, the layer
/// cache, the two deltas being ping-ponged, the transposed-weights scratch
/// of [`Matrix::matmul_transpose_scratch_into`] and the gradients — kept by
/// whoever trains in a loop so that a warmed-up step allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct TrainScratch {
    /// Whether each batch row is computed; an inert row's activations and
    /// deltas are `+0.0` (see [`Loss::is_inert`]).
    live: Vec<bool>,
    /// `outputs[i]` is layer `i`'s post-activation output.
    outputs: Vec<Matrix>,
    delta: Matrix,
    delta_below: Matrix,
    weights_t: Matrix,
    pub(crate) grads: ParamGrads,
}

impl TrainScratch {
    /// The network output cached by the last [`Mlp::forward_cached`].
    pub(crate) fn output(&self) -> &Matrix {
        self.outputs.last().expect("forward_cached ran on a network with layers")
    }
}

impl Mlp {
    /// Creates a network with Xavier-initialized weights and zero biases.
    pub fn new(config: &MlpConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let layers = config
            .layer_sizes
            .windows(2)
            .map(|w| {
                let (n_in, n_out) = (w[0], w[1]);
                let bound = (6.0 / (n_in + n_out) as f32).sqrt();
                let data =
                    (0..n_in * n_out).map(|_| rng.gen_range(-bound..bound)).collect::<Vec<_>>();
                Dense { weights: Matrix::from_vec(n_in, n_out, data), bias: vec![0.0; n_out] }
            })
            .collect();
        Mlp { layers }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.layers.first().expect("mlp has layers").weights.rows()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.layers.last().expect("mlp has layers").weights.cols()
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.weights.as_slice().len() + l.bias.len()).sum()
    }

    /// Index of the first layer a forward pass could not run (`Some(0)` for
    /// a network with no layers): a weight buffer that is not `rows × cols`
    /// long, a bias that is not `cols` long, or a next layer that does not
    /// take `cols` inputs. `Deserialize` checks none of this and the row
    /// kernels slice the flat buffers on trust, so a decoded network passes
    /// through here before anything indexes it.
    pub(crate) fn first_malformed_layer(&self) -> Option<usize> {
        if self.layers.is_empty() {
            return Some(0);
        }
        self.layers.iter().enumerate().position(|(i, l)| {
            let (rows, cols) = l.weights.dims();
            rows.checked_mul(cols) != Some(l.weights.as_slice().len())
                || l.bias.len() != cols
                || self.layers.get(i + 1).is_some_and(|next| next.weights.rows() != cols)
        })
    }

    /// Whether the network is well formed and its layers are exactly
    /// `sizes[0] → sizes[1] → … → sizes.last()`.
    pub(crate) fn has_layer_sizes(&self, sizes: &[usize]) -> bool {
        self.first_malformed_layer().is_none()
            && self.layers.len() + 1 == sizes.len()
            && self
                .layers
                .iter()
                .zip(sizes.windows(2))
                .all(|(l, w)| l.weights.dims() == (w[0], w[1]))
    }

    pub(crate) fn layers(&self) -> &[Dense] {
        &self.layers
    }

    pub(crate) fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Forward pass for a single input vector.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_size()`.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        let (mut a, mut b) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        self.forward_batch_into(&Matrix::row_vector(input), &mut a, &mut b).row(0).to_vec()
    }

    /// Forward pass for a batch into caller-provided scratch matrices,
    /// allocating nothing once the scratch has warmed up to the layer widths.
    /// Returns a borrow of whichever scratch holds the output.
    ///
    /// Row `i` of the result is bit-identical to `forward(input.row(i))`: the
    /// fused kernel computes every output row independently with the same
    /// f32 operation sequence regardless of batch size.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the input width.
    pub fn forward_batch_into<'s>(
        &self,
        input: &Matrix,
        scratch_a: &'s mut Matrix,
        scratch_b: &'s mut Matrix,
    ) -> &'s Matrix {
        assert_eq!(input.cols(), self.input_size(), "input width mismatch");
        let n_layers = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let relu = i + 1 < n_layers; // hidden layers ReLU, output linear
            let (src, dst): (&Matrix, &mut Matrix) = if i == 0 {
                (input, &mut *scratch_a)
            } else if i % 2 == 1 {
                (scratch_a, scratch_b)
            } else {
                (scratch_b, scratch_a)
            };
            src.matmul_bias_act_into(&layer.weights, &layer.bias, relu, dst);
        }
        if (n_layers - 1).is_multiple_of(2) {
            scratch_a
        } else {
            scratch_b
        }
    }

    /// Forward pass keeping each layer's post-activation output for
    /// backpropagation in `ws` (buffers reused): `outputs[i]` is layer `i`'s
    /// output (after ReLU on hidden layers). Pre-activations are not cached —
    /// for ReLU the derivative mask is recoverable from the output
    /// (`max(0, z) > 0 ⟺ z > 0`), which halves the cache. A row for which
    /// `inert` holds is not computed: every layer's output row is `+0.0`, and
    /// so are its deltas in the [`backward`](Mlp::backward) that follows.
    pub(crate) fn forward_cached(
        &self,
        input: &Matrix,
        inert: impl Fn(usize) -> bool,
        ws: &mut TrainScratch,
    ) {
        assert_eq!(input.cols(), self.input_size(), "input width mismatch");
        ws.live.clear();
        ws.live.extend((0..input.rows()).map(|r| !inert(r)));
        let live = &ws.live;
        let n_layers = self.layers.len();
        ws.outputs.resize_with(n_layers, Matrix::default);
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.outputs.split_at_mut(i);
            let src = if i == 0 { input } else { &done[i - 1] };
            let relu = i + 1 < n_layers;
            src.matmul_bias_act_rows_into(
                &layer.weights,
                &layer.bias,
                relu,
                |r| live[r],
                &mut rest[0],
            );
        }
    }

    /// One backpropagation step on a batch: computes gradients of `loss` and
    /// applies them through `adam`. Returns the pre-step batch loss.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between `x`, `y` and the network.
    pub fn train_batch<L: Loss + ?Sized>(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        loss: &L,
        adam: &mut Adam,
    ) -> f32 {
        self.train_batch_in(x, y, loss, adam, &mut TrainScratch::default())
    }

    /// [`train_batch`](Mlp::train_batch) with the step's buffers kept by the
    /// caller across batches.
    pub(crate) fn train_batch_in<L: Loss + ?Sized>(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        loss: &L,
        adam: &mut Adam,
        ws: &mut TrainScratch,
    ) -> f32 {
        let value = self.gradients_in(x, y, loss, ws);
        adam.step(self, &ws.grads);
        value
    }

    /// One forward pass with cache, the loss, and the backward pass from the
    /// (linear) output layer down, leaving the gradients in `ws.grads`. The
    /// rows `loss` calls inert are skipped, which leaves every bit of the
    /// all-rows step as it was (the inert-row rule of [`Matrix`]'s
    /// contract): their terms of the loss and its gradient are `±0.0`.
    fn gradients_in<L: Loss + ?Sized>(
        &self,
        x: &Matrix,
        y: &Matrix,
        loss: &L,
        ws: &mut TrainScratch,
    ) -> f32 {
        assert_eq!(x.rows(), y.rows(), "loss shape mismatch");
        self.forward_cached(x, |r| loss.is_inert(y.row(r)), ws);
        let output = ws.outputs.last().expect("forward_cached ran on a network with layers");
        let value = loss.value(output, y);
        loss.gradient_into(output, y, &mut ws.delta);
        self.backward(x, self.layers.len() - 1, ws);
        value
    }

    /// Backpropagates `ws.delta` — `∂L/∂output` of layer `top`, before that
    /// layer's ReLU mask — through layers `top, top − 1, …, 0`, writing their
    /// gradients into `ws.grads`. `ws` must hold the cache of a
    /// [`forward_cached`](Mlp::forward_cached) over `x`; the rows it left out
    /// are left out here too.
    fn backward(&self, x: &Matrix, top: usize, ws: &mut TrainScratch) {
        let n_layers = self.layers.len();
        ws.grads.reshape(n_layers);
        let live = &ws.live;
        for i in (0..=top).rev() {
            if i + 1 < n_layers {
                // ReLU derivative of this hidden layer, recovered from its
                // post-activation output: max(0, z) ≤ 0 exactly when z ≤ 0.
                let act = &ws.outputs[i];
                let width = act.cols();
                let rows = ws.delta.as_mut_slice().chunks_exact_mut(width);
                for ((d_row, a_row), _) in
                    rows.zip(act.as_slice().chunks_exact(width)).zip(live).filter(|(_, &l)| l)
                {
                    for (d, &a) in d_row.iter_mut().zip(a_row) {
                        if a <= 0.0 {
                            *d = 0.0;
                        }
                    }
                }
            }
            let layer_input: &Matrix = if i == 0 { x } else { &ws.outputs[i - 1] };
            layer_input.transpose_matmul_rows_into(
                &ws.delta,
                |r| live[r],
                &mut ws.grads.weights[i],
            );
            ws.delta.column_sums_into(&mut ws.grads.biases[i]);
            if i > 0 {
                ws.delta.matmul_transpose_scratch_into(
                    &self.layers[i].weights,
                    &mut ws.weights_t,
                    |r| live[r],
                    &mut ws.delta_below,
                );
                std::mem::swap(&mut ws.delta, &mut ws.delta_below);
            }
        }
    }

    /// The backward pass for an output-layer delta that is `hot[r].1` at
    /// column `hot[r].0` of row `r` and `+0.0` everywhere else — a DQN's TD
    /// error, carried by the taken action only. Leaves in `ws.grads` exactly
    /// the bits [`gradients`](Mlp::gradients)' dense pass over that delta
    /// would (for finite activations and weights), at a fraction of the
    /// arithmetic:
    ///
    /// * the output layer's weight gradient through
    ///   [`Matrix::transpose_matmul_one_hot_into`];
    /// * its bias gradient as `b[a_r] += d_r` in row order (the dense column
    ///   sums add `+0.0` in every other row);
    /// * the delta below as `0.0 + d_r · W[h][a_r]`: of the dense dot
    ///   product's four partial sums and tail, one holds that product added
    ///   to the `+0.0` it started from and everything else is `±0.0`.
    ///
    /// `ws` must hold the cache of a [`forward_cached`](Mlp::forward_cached)
    /// over `x`.
    ///
    /// # Panics
    ///
    /// Panics if `hot.len() != x.rows()` or a column is out of range.
    pub(crate) fn backward_one_hot(&self, x: &Matrix, hot: &[(usize, f32)], ws: &mut TrainScratch) {
        let top = self.layers.len() - 1;
        let w = &self.layers[top].weights;
        let (n_in, n_out) = w.dims();
        assert_eq!(hot.len(), x.rows(), "one delta per batch row");
        ws.grads.reshape(self.layers.len());
        let layer_input: &Matrix = if top == 0 { x } else { &ws.outputs[top - 1] };
        layer_input.transpose_matmul_one_hot_into(hot, n_out, &mut ws.grads.weights[top]);
        let bias = &mut ws.grads.biases[top];
        bias.clear();
        bias.resize(n_out, 0.0);
        for &(a, d) in hot {
            bias[a] += d;
        }
        if top > 0 {
            ws.delta.reset(hot.len(), n_in);
            let w = w.as_slice();
            for (below, &(a, d)) in ws.delta.as_mut_slice().chunks_exact_mut(n_in).zip(hot) {
                for (h, v) in below.iter_mut().enumerate() {
                    *v = 0.0 + d * w[h * n_out + a];
                }
            }
            self.backward(x, top - 1, ws);
        }
    }
}

/// Per-layer parameter gradients produced by [`Mlp::gradients_in`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ParamGrads {
    /// `∂L/∂W` per layer.
    pub(crate) weights: Vec<Matrix>,
    /// `∂L/∂b` per layer.
    pub(crate) biases: Vec<Vec<f32>>,
}

impl ParamGrads {
    /// One (kept) buffer per layer; the kernels size them.
    fn reshape(&mut self, n_layers: usize) {
        self.weights.resize_with(n_layers, Matrix::default);
        self.biases.resize_with(n_layers, Vec::new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Loss, MaskedRelativeMse, Mse};
    use crate::Adam;

    impl Mlp {
        /// Forward pass for a batch (one input per row) on scratch of its
        /// own, for the whole-batch references; the program forwards into
        /// kept scratch with `forward_batch_into`.
        pub(crate) fn forward_batch(&self, input: &Matrix) -> Matrix {
            let (mut a, mut b) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            self.forward_batch_into(input, &mut a, &mut b).clone()
        }
    }

    #[test]
    fn shapes_are_consistent() {
        let mlp = Mlp::new(&MlpConfig::paper_mlp(11, 5, 1));
        assert_eq!(mlp.input_size(), 11);
        assert_eq!(mlp.output_size(), 5);
        assert_eq!(mlp.parameter_count(), 11 * 40 + 40 + 40 * 40 + 40 + 40 * 40 + 40 + 40 * 5 + 5);
        let out = mlp.forward(&[0.0; 11]);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn initialization_is_seeded() {
        let a = Mlp::new(&MlpConfig::new(&[4, 8, 2], 7));
        let b = Mlp::new(&MlpConfig::new(&[4, 8, 2], 7));
        let c = Mlp::new(&MlpConfig::new(&[4, 8, 2], 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn backprop_gradients_match_finite_differences() {
        let mut mlp = Mlp::new(&MlpConfig::new(&[3, 5, 4, 2], 123));
        let x = Matrix::from_rows(&[&[0.3, -0.8, 1.2], &[1.0, 0.5, -0.4]]);
        let y = Matrix::from_rows(&[&[0.5, -1.0], &[1.5, 0.25]]);
        let mut ws = TrainScratch::default();
        mlp.gradients_in(&x, &y, &Mse, &mut ws);
        let grads = ws.grads;

        let eps = 1e-2f32;
        // Spot-check a handful of weights in every layer.
        for li in 0..3 {
            let n = mlp.layers()[li].weights.as_slice().len();
            for wi in (0..n).step_by(n / 4 + 1) {
                let orig = mlp.layers()[li].weights.as_slice()[wi];
                mlp.layers_mut()[li].weights.as_mut_slice()[wi] = orig + eps;
                let lp = Mse.value(&mlp.forward_batch(&x), &y);
                mlp.layers_mut()[li].weights.as_mut_slice()[wi] = orig - eps;
                let lm = Mse.value(&mlp.forward_batch(&x), &y);
                mlp.layers_mut()[li].weights.as_mut_slice()[wi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads.weights[li].as_slice()[wi];
                assert!(
                    (numeric - analytic).abs() < 2e-2 + 0.05 * numeric.abs(),
                    "layer {li} weight {wi}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
        // And the biases.
        for li in 0..3 {
            let orig = mlp.layers()[li].bias[0];
            mlp.layers_mut()[li].bias[0] = orig + eps;
            let lp = Mse.value(&mlp.forward_batch(&x), &y);
            mlp.layers_mut()[li].bias[0] = orig - eps;
            let lm = Mse.value(&mlp.forward_batch(&x), &y);
            mlp.layers_mut()[li].bias[0] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.biases[li][0];
            assert!(
                (numeric - analytic).abs() < 2e-2 + 0.05 * numeric.abs(),
                "layer {li} bias: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn one_hot_backward_is_bit_identical_to_the_dense_backward() {
        // Hidden and hidden-free networks; deltas of both signs and both
        // zeros (a `+0.0` delta times a negative weight is `-0.0`, which the
        // dense dot product absorbs into the `+0.0` it started from).
        for sizes in [&[3usize, 4, 5][..], &[2, 6, 6, 3], &[4, 2]] {
            let mlp = Mlp::new(&MlpConfig::new(sizes, 77));
            let (n, n_out) = (11, mlp.output_size());
            let mut x = Matrix::zeros(n, mlp.input_size());
            for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 37 % 19) as f32 - 9.0) / 7.0;
            }
            let hot: Vec<(usize, f32)> =
                (0..n).map(|r| (r * 5 % n_out, [0.0, -0.0, 0.25, -1.5, 3e-3][r % 5])).collect();

            let mut dense = TrainScratch::default();
            mlp.forward_cached(&x, |_| false, &mut dense);
            dense.delta = Matrix::zeros(n, n_out);
            for (r, &(a, d)) in hot.iter().enumerate() {
                dense.delta[(r, a)] = d;
            }
            mlp.backward(&x, sizes.len() - 2, &mut dense);

            let mut fused = TrainScratch::default();
            mlp.forward_cached(&x, |_| false, &mut fused);
            mlp.backward_one_hot(&x, &hot, &mut fused);

            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for li in 0..sizes.len() - 1 {
                assert_eq!(
                    bits(&fused.grads.weights[li]),
                    bits(&dense.grads.weights[li]),
                    "{sizes:?} layer {li} weights"
                );
                assert_eq!(
                    fused.grads.biases[li].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    dense.grads.biases[li].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{sizes:?} layer {li} biases"
                );
            }
            if sizes.len() > 2 {
                // The delta that reached the first layer, signs of zero included.
                assert_eq!(bits(&fused.delta), bits(&dense.delta), "{sizes:?} bottom delta");
            }
        }
    }

    /// The supervised step as it was before inert rows were skipped — a
    /// forward and backward pass over every row, the gradient into a fresh
    /// matrix, Adam's chained loop — kept as the reference the step is
    /// pinned to, bit for bit.
    fn train_batch_dense<L: Loss>(
        mlp: &mut Mlp,
        x: &Matrix,
        y: &Matrix,
        loss: &L,
        adam: &mut Adam,
    ) -> f32 {
        let mut ws = TrainScratch::default();
        mlp.forward_cached(x, |_| false, &mut ws);
        let value = loss.value(ws.output(), y);
        let mut delta = Matrix::default();
        loss.gradient_into(ws.output(), y, &mut delta);
        ws.delta = delta;
        mlp.backward(x, mlp.layers.len() - 1, &mut ws);
        adam.step_reference(mlp, &ws.grads);
        value
    }

    #[test]
    fn inert_row_step_is_bit_identical_to_the_dense_reference() {
        // (layer sizes, batch): batch % 4 over {0, 1, 2, 3}, with and
        // without hidden layers. Two outputs, so a row with one zero label
        // is still live; inputs of both signs, with zeros of both signs.
        let shapes: [(&[usize], usize); 4] =
            [(&[3, 6, 5, 2], 16), (&[4, 7, 2], 13), (&[2, 5, 5, 5, 2], 10), (&[3, 2], 7)];
        let loss = MaskedRelativeMse::default();
        for (sizes, batch) in shapes {
            for inert_share in [0.0f32, 0.5, 1.0] {
                let start = Mlp::new(&MlpConfig::new(sizes, batch as u64));
                let (mut fast, mut dense) = (start.clone(), start);
                let (mut adam, mut reference) =
                    (Adam::with_defaults(&fast), Adam::with_defaults(&dense));
                let mut ws = TrainScratch::default();
                let (mut x, mut y) = (Matrix::zeros(batch, sizes[0]), Matrix::zeros(batch, 2));
                let mut lcg = batch as u64;
                let mut unit = || {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (lcg >> 40) as f32 / (1u64 << 24) as f32
                };
                let mut inert_rows = 0;
                for step in 0..300 {
                    for v in x.as_mut_slice() {
                        let u = unit();
                        *v = if u < 0.1 { [0.0, -0.0][(u < 0.05) as usize] } else { 4.0 * u - 2.4 };
                    }
                    for r in 0..batch {
                        let inert = unit() < inert_share;
                        inert_rows += usize::from(inert);
                        for v in y.row_mut(r) {
                            let u = unit();
                            *v = if inert || u < 0.3 { [0.0, -0.0][(u < 0.1) as usize] } else { u };
                        }
                    }
                    let a = fast.train_batch_in(&x, &y, &loss, &mut adam, &mut ws);
                    let b = train_batch_dense(&mut dense, &x, &y, &loss, &mut reference);
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{sizes:?} ×{batch}, {inert_share}: step {step}"
                    );
                }
                assert_eq!(
                    serde_json::to_string(&(&fast, &adam)).unwrap(),
                    serde_json::to_string(&(&dense, &reference)).unwrap(),
                    "{sizes:?} ×{batch}, inert share {inert_share}"
                );
                let share = inert_rows as f32 / (300 * batch) as f32;
                assert!((share - inert_share).abs() < 0.1, "{share} of rows inert");
            }
        }
    }

    #[test]
    fn a_warm_training_step_allocates_nothing() {
        // Every buffer keeps its address from the second step on (the delta
        // pair swaps roles per layer, so they are compared as a set).
        let mut mlp = Mlp::new(&MlpConfig::new(&[3, 8, 8, 2], 1));
        let mut adam = Adam::with_defaults(&mlp);
        let loss = MaskedRelativeMse::default();
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3], &[1.0, 0.5, -0.4], &[0.0, 0.7, 0.2]]);
        let y = Matrix::from_rows(&[&[0.5, 0.0], &[0.0, 0.0], &[1.5, 0.25]]);
        let addresses = |ws: &TrainScratch| {
            let mut at: Vec<usize> = [&ws.delta, &ws.delta_below, &ws.weights_t]
                .into_iter()
                .chain(&ws.outputs)
                .chain(&ws.grads.weights)
                .map(|m| m.as_slice().as_ptr() as usize)
                .chain(ws.grads.biases.iter().map(|b| b.as_ptr() as usize))
                .chain([ws.live.as_ptr() as usize])
                .collect();
            at.sort_unstable();
            at
        };
        let mut ws = TrainScratch::default();
        mlp.train_batch_in(&x, &y, &loss, &mut adam, &mut ws);
        let warm = addresses(&ws);
        for _ in 0..3 {
            mlp.train_batch_in(&x, &y, &loss, &mut adam, &mut ws);
            assert_eq!(addresses(&ws), warm);
        }
    }

    #[test]
    fn adam_learns_a_nonlinear_function() {
        let mut mlp = Mlp::new(&MlpConfig::new(&[1, 16, 16, 1], 9));
        let mut adam = Adam::with_defaults(&mlp);
        // y = x^2 on [-1, 1].
        let xs: Vec<f32> = (0..21).map(|i| -1.0 + i as f32 * 0.1).collect();
        let x = Matrix::from_vec(21, 1, xs.clone());
        let y = Matrix::from_vec(21, 1, xs.iter().map(|v| v * v).collect());
        for _ in 0..1500 {
            mlp.train_batch(&x, &y, &Mse, &mut adam);
        }
        let pred = mlp.forward(&[0.5]);
        assert!((pred[0] - 0.25).abs() < 0.05, "got {}", pred[0]);
    }

    #[test]
    fn masked_loss_trains_only_real_labels() {
        // Two outputs; output 1's labels are always 0 ("non-existent case").
        let mut mlp = Mlp::new(&MlpConfig::new(&[1, 8, 2], 3));
        let mut adam = Adam::with_defaults(&mlp);
        let loss = MaskedRelativeMse::default();
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let y = Matrix::from_rows(&[&[1.0, 0.0], &[3.0, 0.0]]);
        for _ in 0..1000 {
            mlp.train_batch(&x, &y, &loss, &mut adam);
        }
        let p = mlp.forward(&[1.0]);
        assert!((p[0] - 3.0).abs() < 0.2, "real label must be learned, got {}", p[0]);
        assert!(loss.value(&mlp.forward_batch(&x), &y) < 1e-2);
    }

    #[test]
    fn a_batched_forward_row_is_bit_identical_to_the_one_row_forward() {
        // What the DQN's target pass and the kernel bench rely on. Up to a
        // fleet's worth of rows at a Model-A shape, each row unlike the one
        // before (no branch can be learnt across rows), with exact zeros of
        // both signs among the features.
        let mlp = Mlp::new(&MlpConfig::paper_mlp(11, 5, 11));
        let (mut a, mut b) = (Matrix::default(), Matrix::default());
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in [1usize, 2, 7, 33, 500, 1000] {
            let mut input = Matrix::zeros(n, 11);
            for r in 0..n {
                for (j, v) in input.row_mut(r).iter_mut().enumerate() {
                    *v = match (r + 3 * j) % 13 {
                        0 => 0.0,
                        1 => -0.0,
                        k => (k as f32 - 6.0) * 0.1 + r as f32 * 1e-3,
                    };
                }
            }
            let out = mlp.forward_batch_into(&input, &mut a, &mut b);
            for r in 0..n {
                assert_eq!(bits(out.row(r)), bits(&mlp.forward(input.row(r))), "row {r} of {n}");
            }
        }
    }

    #[test]
    fn forward_is_deterministic() {
        let mlp = Mlp::new(&MlpConfig::new(&[13, 30, 30, 30, 49], 1));
        let input = vec![0.5; 13];
        assert_eq!(mlp.forward(&input), mlp.forward(&input));
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let mlp = Mlp::new(&MlpConfig::new(&[4, 10, 3], 11));
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = [0.1, -0.2, 0.3, 0.4];
        assert_eq!(mlp.forward(&x), back.forward(&x));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_rejects_wrong_width() {
        let mlp = Mlp::new(&MlpConfig::new(&[4, 2], 0));
        let _ = mlp.forward(&[1.0, 2.0]);
    }
}
