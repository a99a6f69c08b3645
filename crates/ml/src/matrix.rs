use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A minimal row-major `f32` matrix.
///
/// # The kernels' contract
///
/// Every weight, loss, checkpoint and `results/` byte in this repository is
/// a function of the f32 operations the kernels below perform, so **the
/// per-element operation order is the API**: each kernel documents (and its
/// tests pin, with `to_bits` equality against a scalar reference) the exact
/// sequence of multiplies and adds that produces one output element. A
/// kernel may be re-blocked, vectorised over *independent* output elements
/// or given scratch space, but never re-associated: the batch size, the
/// vector width and the tiling never change a bit. Concretely,
///
/// * `matmul_bias_act_rows_into`: an output element starts at
///   `0.0` (or its bias) and adds `((a₀w₀ + a₁w₁) + a₂w₂) + a₃w₃` per block
///   of four `k`, then one product per leftover `k`;
/// * `transpose_matmul_rows_into`: the same expression over blocks of four
///   *rows*, then one product per leftover row;
/// * `matmul_transpose_scratch_into`: four partial sums over
///   `k ≡ 0,1,2,3 (mod 4)`, combined as `(s₀ + s₁) + (s₂ + s₃)`, then one
///   product per leftover `k`.
///
/// The dense-layer kernel (`matmul_bias_act_rows_into`) computes every
/// block, zero multipliers included: its rows are one service each,
/// and a data-dependent branch per block costs more in mispredictions than
/// the arithmetic it saves. The backward kernels (`transpose_matmul_rows_into`,
/// `transpose_matmul_one_hot_into`) skip a block whose multipliers are all
/// zero. The two agree whenever the accumulator is not exactly `-0.0`
/// (adding a block of `±0.0` products leaves every other value, `+0.0`
/// included, as it was) and the operands are finite. The backward kernels'
/// accumulators start at `+0.0` and can never become `-0.0`; a dense layer's
/// can only if its bias is `-0.0` and every block before summed to `-0.0`,
/// where computing the block yields `+0.0` and skipping it would have kept
/// `-0.0` (pinned by a test below). No loader can produce a non-finite
/// weight.
///
/// **Inert rows.** A training step skips the batch rows whose loss
/// gradient is zero whatever the prediction (`Loss::is_inert`). The
/// `*_rows_into` kernels write `+0.0` for such a row of a forward or
/// delta-below output; `transpose_matmul_rows_into` drops it from its
/// 4-row group, which keeps its batch position and sums the products of
/// its live rows in row order. This equals the all-rows kernel bit for bit
/// whenever every dropped row's delta is `±0.0` and its activations are
/// finite, by the block-skip argument: each dropped product is `±0.0`, so a
/// group's sum differs at most in the sign of a zero, and adding a zero of
/// either sign to an accumulator that started at `+0.0` changes nothing.
/// The loss still averages over every element of the batch.
///
/// # Example
///
/// ```
/// use osml_ml::Matrix;
///
/// let mut m = Matrix::zeros(2, 3);
/// m.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
/// assert_eq!((m.rows(), m.cols()), (2, 3));
/// assert_eq!(m[(1, 2)], 3.0);
/// assert_eq!(m.as_slice(), &[0.0, 0.0, 0.0, 1.0, 2.0, 3.0]);
/// ```
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }

    /// Reuses `self`'s buffer (the derive would reallocate).
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

/// Output columns per tile of [`Matrix::matmul_transpose_scratch_into`]: four
/// accumulator rows of this width fit the sixteen SSE registers with room
/// for the operand loads.
const MT_TILE: usize = 8;

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must match dimensions");
        Matrix { rows, cols, data }
    }

    /// A 1 × n row vector.
    pub(crate) fn row_vector(values: &[f32]) -> Self {
        Matrix { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// `(rows, cols)`.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat row-major mutable view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes to `rows × cols`, reusing the existing allocation when the
    /// element count is unchanged. Contents are unspecified afterwards; the
    /// `*_into` kernels overwrite every element. Public so callers building
    /// inference batches row by row (the scheduler's gather pass) can reuse
    /// one buffer across ticks.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        self.rows = rows;
        self.cols = cols;
        if self.data.len() != len {
            self.data.resize(len, 0.0);
        }
    }

    /// Fused dense-layer kernel: `out = act(self × w + bias)`, where `act`
    /// is ReLU when `relu` is true and identity otherwise. `out` is reshaped
    /// to `self.rows × w.cols` reusing its buffer, so a training loop that
    /// ping-pongs two scratch matrices allocates nothing per step.
    ///
    /// Fusing the bias into the accumulator's initial value and the
    /// activation into the same pass removes two full sweeps over the output
    /// (plus the pre-activation clone the layer cache used to keep).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != w.rows` or `bias.len() != w.cols`.
    pub(crate) fn matmul_bias_act_into(
        &self,
        w: &Matrix,
        bias: &[f32],
        relu: bool,
        out: &mut Matrix,
    ) {
        self.matmul_bias_act_rows_into(w, bias, relu, |_| true, out);
    }

    /// [`matmul_bias_act_into`](Matrix::matmul_bias_act_into) over the rows
    /// `live` selects; every other output row is `+0.0`. A computed row is
    /// the same bits as in the all-rows kernel: rows are independent.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != w.rows` or `bias.len() != w.cols`.
    pub(crate) fn matmul_bias_act_rows_into(
        &self,
        w: &Matrix,
        bias: &[f32],
        relu: bool,
        live: impl Fn(usize) -> bool,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols, w.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, w.rows, w.cols
        );
        assert_eq!(bias.len(), w.cols, "bias length mismatch");
        out.reset(self.rows, w.cols);
        let n_in = self.cols;
        let n_out = w.cols;
        for i in 0..self.rows {
            let out_row = &mut out.data[i * n_out..(i + 1) * n_out];
            if !live(i) {
                out_row.fill(0.0);
                continue;
            }
            let a_row = &self.data[i * n_in..(i + 1) * n_in];
            out_row.copy_from_slice(bias);
            accumulate_row(a_row, &w.data, n_out, out_row);
            if relu {
                for v in out_row.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
    }

    /// `out = selfᵀ × other` over the rows `live` selects, reshaping `out`
    /// (its buffer is reused).
    ///
    /// Both operands are streamed row-major; the r-loop is unrolled 4-wide
    /// so the (small) output is swept n/4 times instead of n, and blocks
    /// whose four multipliers are all zero (ReLU-sparse deltas) are skipped.
    /// Each 4-row group keeps its batch position and adds `x·b` of its live
    /// rows only, in row order. Bit-identical to the all-rows product
    /// whenever every row `live` drops is `±0.0` in `other` and finite in
    /// `self` (the contract's inert-row rule).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub(crate) fn transpose_matmul_rows_into(
        &self,
        other: &Matrix,
        live: impl Fn(usize) -> bool,
        out: &mut Matrix,
    ) {
        assert_eq!(self.rows, other.rows, "transpose_matmul dimension mismatch");
        out.reset(self.cols, other.cols);
        out.data.fill(0.0);
        let (ac, bc) = (self.cols, other.cols);
        let a_row = |r: usize| &self.data[r * ac..(r + 1) * ac];
        let b_row = |r: usize| &other.data[r * bc..(r + 1) * bc];
        let mut r = 0;
        while r + 4 <= self.rows {
            let (mut a, mut b): ([&[f32]; 4], [&[f32]; 4]) = ([&[]; 4], [&[]; 4]);
            let mut k = 0;
            for q in (r..r + 4).filter(|&q| live(q)) {
                (a[k], b[k]) = (a_row(q), b_row(q));
                k += 1;
            }
            match k {
                4 => accumulate_group(a, b, &mut out.data),
                3 => accumulate_group([a[0], a[1], a[2]], [b[0], b[1], b[2]], &mut out.data),
                2 => accumulate_group([a[0], a[1]], [b[0], b[1]], &mut out.data),
                1 => accumulate_group([a[0]], [b[0]], &mut out.data),
                _ => {}
            }
            r += 4;
        }
        for q in (r..self.rows).filter(|&q| live(q)) {
            accumulate_group([a_row(q)], [b_row(q)], &mut out.data);
        }
    }

    /// `out = self × otherᵀ` over the rows `live` selects, with a
    /// caller-kept scratch for `otherᵀ`; every other output row is `+0.0`.
    ///
    /// Output element `(i, j)` is the dot product of row `i` of `self` and
    /// row `j` of `other`, accumulated as four partial sums over
    /// `k ≡ 0, 1, 2, 3 (mod 4)`, combined as `(s0 + s1) + (s2 + s3)`, then one
    /// product per leftover `k`. The (small) right operand is transposed into
    /// `other_t`, zero-padded to whole tiles, so that the same sequence runs
    /// for [`MT_TILE`] adjacent output columns at once out of contiguous
    /// memory: vectorised across independent elements, never re-associated.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub(crate) fn matmul_transpose_scratch_into(
        &self,
        other: &Matrix,
        other_t: &mut Matrix,
        live: impl Fn(usize) -> bool,
        out: &mut Matrix,
    ) {
        assert_eq!(self.cols, other.cols, "matmul_transpose dimension mismatch");
        let (k, m) = (self.cols, other.rows);
        let padded = m.div_ceil(MT_TILE) * MT_TILE;
        other_t.reset(k, padded);
        other_t.data.fill(0.0);
        for j in 0..m {
            for c in 0..k {
                other_t.data[c * padded + j] = other.data[j * k + c];
            }
        }
        out.reset(self.rows, m);
        let tile_at = |c: usize, j0: usize| -> &[f32; MT_TILE] {
            other_t.data[c * padded + j0..][..MT_TILE].try_into().expect("tile-sized slice")
        };
        for i in 0..self.rows {
            let out_row = &mut out.data[i * m..(i + 1) * m];
            if !live(i) {
                out_row.fill(0.0);
                continue;
            }
            let a_row = &self.data[i * k..(i + 1) * k];
            for (t, out_tile) in out_row.chunks_mut(MT_TILE).enumerate() {
                let j0 = t * MT_TILE;
                let mut acc = [[0.0f32; MT_TILE]; 4];
                let mut c = 0;
                while c + 4 <= k {
                    for (lane, sums) in acc.iter_mut().enumerate() {
                        let a = a_row[c + lane];
                        for (s, &b) in sums.iter_mut().zip(tile_at(c + lane, j0)) {
                            *s += a * b;
                        }
                    }
                    c += 4;
                }
                let mut s = [0.0f32; MT_TILE];
                for (j, v) in s.iter_mut().enumerate() {
                    *v = (acc[0][j] + acc[1][j]) + (acc[2][j] + acc[3][j]);
                }
                while c < k {
                    let a = a_row[c];
                    for (v, &b) in s.iter_mut().zip(tile_at(c, j0)) {
                        *v += a * b;
                    }
                    c += 1;
                }
                out_tile.copy_from_slice(&s[..out_tile.len()]);
            }
        }
    }

    /// `out = selfᵀ × D`, where `D` is the `self.rows × cols` matrix holding
    /// `hot[r].1` at `(r, hot[r].0)` and `+0.0` everywhere else — the shape
    /// of a DQN's output-layer delta, where only the taken action of each
    /// row carries a TD error.
    ///
    /// Bit-identical to
    /// [`transpose_matmul_rows_into`](Matrix::transpose_matmul_rows_into)
    /// over every row of the dense `D` for finite `self`: the 4-row grouping, the all-zero
    /// skip and the `x0·b0 + x1·b1 + x2·b2 + x3·b3` expression are kept for
    /// every column a group touches, and a column it does not touch would
    /// only have had `±0.0` added to an accumulator that started at `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `hot.len() != self.rows` or any column is `>= cols` (with
    /// flat indexing an out-of-range column would otherwise land in a
    /// neighbouring cell instead of out of bounds).
    pub(crate) fn transpose_matmul_one_hot_into(
        &self,
        hot: &[(usize, f32)],
        cols: usize,
        out: &mut Matrix,
    ) {
        assert_eq!(self.rows, hot.len(), "transpose_matmul dimension mismatch");
        assert!(hot.iter().all(|&(col, _)| col < cols), "one-hot column out of range");
        out.reset(self.cols, cols);
        out.data.fill(0.0);
        let ac = self.cols;
        let mut groups = hot.chunks_exact(4);
        let mut r = 0;
        for group in &mut groups {
            let a0 = &self.data[r * ac..(r + 1) * ac];
            let a1 = &self.data[(r + 1) * ac..(r + 2) * ac];
            let a2 = &self.data[(r + 2) * ac..(r + 3) * ac];
            let a3 = &self.data[(r + 3) * ac..(r + 4) * ac];
            for (g, &(j, _)) in group.iter().enumerate() {
                // Each distinct column once, at its first row in the group.
                if group[..g].iter().any(|&(col, _)| col == j) {
                    continue;
                }
                let b = |row: usize| if group[row].0 == j { group[row].1 } else { 0.0 };
                let (b0, b1, b2, b3) = (b(0), b(1), b(2), b(3));
                for i in 0..ac {
                    let (x0, x1, x2, x3) = (a0[i], a1[i], a2[i], a3[i]);
                    if x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0 {
                        continue;
                    }
                    out.data[i * cols + j] += x0 * b0 + x1 * b1 + x2 * b2 + x3 * b3;
                }
            }
            r += 4;
        }
        for &(j, d) in groups.remainder() {
            let a_row = &self.data[r * ac..(r + 1) * ac];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                out.data[i * cols + j] += a * d;
            }
            r += 1;
        }
    }

    /// Copies the `idx`-selected rows of `self` into `out` (reshaped to
    /// `idx.len() × self.cols`, buffer reused). This is the mini-batch
    /// gather; reusing `out` keeps `Trainer::fit` allocation-free per batch.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub(crate) fn gather_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        out.reset(idx.len(), self.cols);
        for (dst_r, &src_r) in idx.iter().enumerate() {
            assert!(src_r < self.rows, "row {src_r} out of bounds");
            out.data[dst_r * self.cols..(dst_r + 1) * self.cols]
                .copy_from_slice(&self.data[src_r * self.cols..(src_r + 1) * self.cols]);
        }
    }

    /// Column sums into `sums` (resized to `self.cols`, buffer reused): each
    /// starts at `0.0` and adds its column's elements in row order (used to
    /// reduce bias gradients over a batch).
    pub(crate) fn column_sums_into(&self, sums: &mut Vec<f32>) {
        sums.clear();
        sums.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
    }
}

/// Accumulates `out_row += Σ_k a_row[k] · w[k, ·]` with the k-loop unrolled
/// 4-wide; `w` is the flat row-major weight buffer with rows of `n_out`.
/// Every block is computed, zero multipliers included: a branch on the
/// activations mispredicts once per block when every row of a batch is a
/// different service, which costs more than the multiplies it saves.
#[inline]
fn accumulate_row(a_row: &[f32], w: &[f32], n_out: usize, out_row: &mut [f32]) {
    let n_in = a_row.len();
    let mut k = 0;
    while k + 4 <= n_in {
        let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
        let w0 = &w[k * n_out..(k + 1) * n_out];
        let w1 = &w[(k + 1) * n_out..(k + 2) * n_out];
        let w2 = &w[(k + 2) * n_out..(k + 3) * n_out];
        let w3 = &w[(k + 3) * n_out..(k + 4) * n_out];
        for j in 0..n_out {
            out_row[j] += a0 * w0[j] + a1 * w1[j] + a2 * w2[j] + a3 * w3[j];
        }
        k += 4;
    }
    while k < n_in {
        let a = a_row[k];
        let wk = &w[k * n_out..(k + 1) * n_out];
        for (o, &b) in out_row.iter_mut().zip(wk) {
            *o += a * b;
        }
        k += 1;
    }
}

/// Adds one group of rows' `Σ_q a_q[i] · b_q[j]` to `out[i][j]`, an output
/// of `a_q.len()` rows of `b_q.len()`: the group's products are summed in
/// row order, `((x₀b₀ + x₁b₁) + x₂b₂) + x₃b₃` for four rows, and the sum is
/// added to the accumulator. An `i` whose multipliers are all zero is
/// skipped.
#[inline]
fn accumulate_group<const N: usize>(a: [&[f32]; N], b: [&[f32]; N], out: &mut [f32]) {
    let (ac, bc) = (a[0].len(), b[0].len());
    let b = b.map(|row| &row[..bc]);
    for i in 0..ac {
        let x: [f32; N] = std::array::from_fn(|q| a[q][i]);
        if x.iter().all(|&v| v == 0.0) {
            continue;
        }
        let dst = &mut out[i * bc..(i + 1) * bc];
        for j in 0..bc {
            let mut s = x[0] * b[0][j];
            for q in 1..N {
                s += x[q] * b[q][j];
            }
            dst[j] += s;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The all-rows kernels the shipped `*_rows_into` and scratch kernels
    /// are checked against, and the conveniences only tests build with.
    impl Matrix {
        /// Builds from row slices.
        ///
        /// # Panics
        ///
        /// Panics if rows have differing lengths or the input is empty.
        pub(crate) fn from_rows(rows: &[&[f32]]) -> Self {
            assert!(!rows.is_empty(), "matrix needs at least one row");
            let cols = rows[0].len();
            let mut data = Vec::with_capacity(rows.len() * cols);
            for r in rows {
                assert_eq!(r.len(), cols, "all rows must have equal length");
                data.extend_from_slice(r);
            }
            Matrix { rows: rows.len(), cols, data }
        }

        /// Matrix product `self × other`.
        ///
        /// # Panics
        ///
        /// Panics if the inner dimensions disagree.
        pub(crate) fn matmul(&self, other: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(0, 0);
            self.matmul_into(other, &mut out);
            out
        }

        /// `out = self × other`, reshaping `out` (its buffer is reused).
        ///
        /// The k-loop walks four rows of `other` at a time, so each output row
        /// stays register/L1-resident across the whole accumulation instead of
        /// being re-streamed once per k.
        ///
        /// # Panics
        ///
        /// Panics if the inner dimensions disagree.
        pub(crate) fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
            assert_eq!(
                self.cols, other.rows,
                "matmul dimension mismatch: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            );
            out.reset(self.rows, other.cols);
            let n_in = self.cols;
            let n_out = other.cols;
            for i in 0..self.rows {
                let a_row = &self.data[i * n_in..(i + 1) * n_in];
                let out_row = &mut out.data[i * n_out..(i + 1) * n_out];
                out_row.fill(0.0);
                accumulate_row(a_row, &other.data, n_out, out_row);
            }
        }

        /// `selfᵀ × other` without materializing the transpose.
        ///
        /// # Panics
        ///
        /// Panics if `self.rows != other.rows`.
        pub(crate) fn transpose_matmul(&self, other: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(0, 0);
            self.transpose_matmul_into(other, &mut out);
            out
        }

        /// `out = selfᵀ × other`, reshaping `out` (its buffer is reused).
        ///
        /// Both operands are streamed row-major; the r-loop is unrolled 4-wide
        /// so the (small) output is swept n/4 times instead of n, and blocks
        /// whose four multipliers are all zero (ReLU-sparse deltas) are skipped.
        ///
        /// # Panics
        ///
        /// Panics if `self.rows != other.rows`.
        pub(crate) fn transpose_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
            self.transpose_matmul_rows_into(other, |_| true, out);
        }

        /// `self × otherᵀ` without materializing the transpose.
        ///
        /// # Panics
        ///
        /// Panics if `self.cols != other.cols`.
        pub(crate) fn matmul_transpose(&self, other: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(0, 0);
            self.matmul_transpose_into(other, &mut out);
            out
        }

        /// `out = self × otherᵀ`, reshaping `out` (its buffer is reused).
        ///
        /// Allocates the transpose scratch of `matmul_transpose_scratch_into`
        /// per call; loops that run it repeatedly keep one and call that.
        ///
        /// # Panics
        ///
        /// Panics if `self.cols != other.cols`.
        pub(crate) fn matmul_transpose_into(&self, other: &Matrix, out: &mut Matrix) {
            self.matmul_transpose_scratch_into(other, &mut Matrix::zeros(0, 0), |_| true, out);
        }

        /// Adds `row` to every row of `self` (bias broadcast).
        ///
        /// # Panics
        ///
        /// Panics if lengths disagree.
        pub(crate) fn add_row_broadcast(&mut self, row: &[f32]) {
            assert_eq!(row.len(), self.cols, "broadcast length mismatch");
            for r in 0..self.rows {
                for (d, &b) in self.row_mut(r).iter_mut().zip(row) {
                    *d += b;
                }
            }
        }

        /// Applies `f` to every element in place.
        pub(crate) fn map_in_place<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
            for v in &mut self.data {
                *v = f(*v);
            }
        }
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = Matrix::from_rows(&[&[4.0], &[5.0], &[6.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), (1, 1));
        assert_eq!(c[(0, 0)], 32.0);
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        // aT (2x3) * b (3x2) = 2x2
        let c = a.transpose_matmul(&b);
        assert_eq!(c.dims(), (2, 2));
        assert_eq!(c[(0, 0)], 1.0 * 1.0 + 3.0 * 0.0 + 5.0 * 1.0);
        assert_eq!(c[(1, 1)], 2.0 * 0.0 + 4.0 * 1.0 + 6.0 * 1.0);
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        // a (1x2) * bT (2x2) = 1x2
        let c = a.matmul_transpose(&b);
        assert_eq!(c.dims(), (1, 2));
        assert_eq!(c[(0, 0)], 11.0);
        assert_eq!(c[(0, 1)], 17.0);
    }

    /// Reference triple-loop product to pin the optimized kernels against.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                for j in 0..b.cols() {
                    out[(i, j)] += a[(i, k)] * b[(k, j)];
                }
            }
        }
        out
    }

    /// Deterministic pseudo-random matrix with ReLU-like zero runs.
    fn test_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let x = (state >> 8) as f32 / (1 << 24) as f32 - 0.5;
            *v = if state.is_multiple_of(3) { 0.0 } else { x };
        }
        m
    }

    #[test]
    fn unrolled_matmul_matches_naive_at_odd_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 8, 4), (7, 41, 13), (2, 40, 40)] {
            let a = test_matrix(m, k, (m * 100 + k) as u32);
            let b = test_matrix(k, n, (k * 100 + n) as u32);
            let fast = a.matmul(&b);
            let slow = naive_matmul(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() < 1e-5, "fast {x} vs naive {y}");
            }
        }
    }

    #[test]
    fn fused_kernel_matches_separate_ops() {
        let a = test_matrix(5, 9, 1);
        let w = test_matrix(9, 6, 2);
        let bias: Vec<f32> = (0..6).map(|i| i as f32 * 0.25 - 0.5).collect();

        let mut expected = a.matmul(&w);
        expected.add_row_broadcast(&bias);
        let mut expected_relu = expected.clone();
        expected_relu.map_in_place(|v| v.max(0.0));

        let mut linear = Matrix::zeros(0, 0);
        a.matmul_bias_act_into(&w, &bias, false, &mut linear);
        let mut relu = Matrix::zeros(0, 0);
        a.matmul_bias_act_into(&w, &bias, true, &mut relu);

        for (x, y) in linear.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
        for (x, y) in relu.as_slice().iter().zip(expected_relu.as_slice()) {
            assert!((x - y).abs() < 1e-5);
            assert!(*x >= 0.0);
        }
    }

    #[test]
    fn into_kernels_reuse_buffers_across_shapes() {
        let mut out = Matrix::zeros(0, 0);
        // Grow, then shrink: results must match fresh computations.
        for &(m, k, n) in &[(6, 8, 10), (2, 3, 4)] {
            let a = test_matrix(m, k, 7);
            let b = test_matrix(k, n, 8);
            a.matmul_into(&b, &mut out);
            assert_eq!(out.dims(), (m, n));
            let fresh = naive_matmul(&a, &b);
            for (x, y) in out.as_slice().iter().zip(fresh.as_slice()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn transpose_kernels_match_naive_at_odd_sizes() {
        let a = test_matrix(13, 7, 3);
        let b = test_matrix(13, 5, 4);
        let fast = a.transpose_matmul(&b);
        // Naive: out[i][j] = sum_r a[r][i] * b[r][j].
        for i in 0..7 {
            for j in 0..5 {
                let want: f32 = (0..13).map(|r| a[(r, i)] * b[(r, j)]).sum();
                assert!((fast[(i, j)] - want).abs() < 1e-5);
            }
        }

        let c = test_matrix(6, 11, 5);
        let d = test_matrix(4, 11, 6);
        let fast = c.matmul_transpose(&d);
        for i in 0..6 {
            for j in 0..4 {
                let want: f32 = (0..11).map(|k| c[(i, k)] * d[(j, k)]).sum();
                assert!((fast[(i, j)] - want).abs() < 1e-4);
            }
        }
    }

    /// The scalar `matmul_transpose_into` the vectorised kernel replaced,
    /// kept as the reference its per-element operation order is pinned to.
    fn matmul_transpose_reference(a: &Matrix, other: &Matrix) -> Matrix {
        assert_eq!(a.cols, other.cols, "matmul_transpose dimension mismatch");
        let mut out = Matrix::zeros(a.rows, other.rows);
        let k = a.cols;
        for i in 0..a.rows {
            let a_row = &a.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * other.rows..(i + 1) * other.rows];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &other.data[j * k..(j + 1) * k];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0, 0.0, 0.0);
                let mut c = 0;
                while c + 4 <= k {
                    s0 += a_row[c] * b_row[c];
                    s1 += a_row[c + 1] * b_row[c + 1];
                    s2 += a_row[c + 2] * b_row[c + 2];
                    s3 += a_row[c + 3] * b_row[c + 3];
                    c += 4;
                }
                let mut s = (s0 + s1) + (s2 + s3);
                while c < k {
                    s += a_row[c] * b_row[c];
                    c += 1;
                }
                *o = s;
            }
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        bits_of(m.as_slice())
    }

    fn bits_of(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `accumulate_row` as it was while it skipped blocks whose multipliers
    /// are all zero, kept as the scalar reference the branch-free kernel's
    /// per-element operation order is pinned to.
    fn accumulate_row_skipping(a_row: &[f32], w: &[f32], n_out: usize, out_row: &mut [f32]) {
        let n_in = a_row.len();
        let mut k = 0;
        while k + 4 <= n_in {
            let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
            if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                let w0 = &w[k * n_out..(k + 1) * n_out];
                let w1 = &w[(k + 1) * n_out..(k + 2) * n_out];
                let w2 = &w[(k + 2) * n_out..(k + 3) * n_out];
                let w3 = &w[(k + 3) * n_out..(k + 4) * n_out];
                for j in 0..n_out {
                    out_row[j] += a0 * w0[j] + a1 * w1[j] + a2 * w2[j] + a3 * w3[j];
                }
            }
            k += 4;
        }
        while k < n_in {
            let a = a_row[k];
            if a != 0.0 {
                let wk = &w[k * n_out..(k + 1) * n_out];
                for (o, &b) in out_row.iter_mut().zip(wk) {
                    *o += a * b;
                }
            }
            k += 1;
        }
    }

    /// `matmul_bias_act_into` over [`accumulate_row_skipping`].
    fn dense_layer_skipping(a: &Matrix, w: &Matrix, bias: &[f32], relu: bool) -> Matrix {
        let mut out = Matrix::zeros(a.rows, w.cols);
        for i in 0..a.rows {
            let out_row = out.row_mut(i);
            out_row.copy_from_slice(bias);
            accumulate_row_skipping(a.row(i), &w.data, w.cols, out_row);
            if relu {
                out_row.iter_mut().for_each(|v| *v = v.max(0.0));
            }
        }
        out
    }

    #[test]
    fn dense_kernels_are_bit_identical_to_the_skipping_reference() {
        // Widths with every `k % 4`, from tail-only to the networks' own 40.
        for n_in in [1, 2, 3, 4, 7, 9, 10, 11, 12, 30, 40, 41, 42, 43] {
            for n_out in [1, 5, 40] {
                let w = test_matrix(n_in, n_out, (n_in * 64 + n_out) as u32);
                // `+0.0` biases too: an accumulator may sit at zero when a
                // zero block arrives.
                let bias: Vec<f32> = (0..n_out)
                    .map(|j| if j % 3 == 0 { 0.0 } else { j as f32 * 0.125 - 1.0 })
                    .collect();
                // One row per zeroed span: each whole block in turn, the
                // tail, everything, and nothing (`test_matrix` scatters its
                // own zeros besides). Zeros of both signs.
                let blocks = n_in / 4;
                let mut a = test_matrix(blocks + 3, n_in, (n_in + n_out) as u32);
                let zero = |k: usize| if k.is_multiple_of(2) { 0.0 } else { -0.0 };
                for b in 0..blocks {
                    for k in 4 * b..4 * b + 4 {
                        a[(b, k)] = zero(k);
                    }
                }
                for k in 4 * blocks..n_in {
                    a[(blocks, k)] = zero(k);
                }
                for k in 0..n_in {
                    a[(blocks + 1, k)] = zero(k);
                }
                let mut got = Matrix::zeros(0, 0);
                for relu in [false, true] {
                    a.matmul_bias_act_into(&w, &bias, relu, &mut got);
                    let want = dense_layer_skipping(&a, &w, &bias, relu);
                    assert_eq!(bits(&got), bits(&want), "{n_in} -> {n_out}, relu {relu}");
                }
                let want = dense_layer_skipping(&a, &w, &vec![0.0; n_out], false);
                assert_eq!(bits(&a.matmul(&w)), bits(&want), "{n_in} -> {n_out}, matmul");
            }
        }
    }

    #[test]
    fn a_negative_zero_accumulator_is_where_skipping_and_computing_differ() {
        // The contract's one exception: a `-0.0` bias under a block of zero
        // activations. Computing the block adds `+0.0` and lands on `+0.0`;
        // skipping it would have kept `-0.0`. Equal as numbers, not as bits.
        let a = Matrix::from_rows(&[&[0.0, 0.0, 0.0, 0.0]]);
        let w = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let mut got = Matrix::zeros(0, 0);
        a.matmul_bias_act_into(&w, &[-0.0], false, &mut got);
        let skipped = dense_layer_skipping(&a, &w, &[-0.0], false);
        assert_eq!(bits(&got), [0.0f32.to_bits()]);
        assert_eq!(bits(&skipped), [(-0.0f32).to_bits()]);
        assert_eq!(got, skipped, "-0.0 == +0.0");
        // Negative-zero activations multiply to `-0.0` and keep it either way.
        let a = Matrix::from_rows(&[&[-0.0, -0.0, -0.0, -0.0]]);
        a.matmul_bias_act_into(&w, &[-0.0], false, &mut got);
        assert_eq!(bits(&got), bits(&dense_layer_skipping(&a, &w, &[-0.0], false)));
    }

    #[test]
    fn vectorised_matmul_transpose_is_bit_identical_to_the_scalar_reference() {
        let shapes = [
            (1, 1, 1),
            (3, 2, 5),   // k < 4: tail only
            (5, 3, 1),   // k < 4, m = 1
            (7, 4, 8),   // one block, one full tile
            (6, 11, 4),  // k % 4 = 3, partial tile
            (9, 13, 17), // k % 4 = 1, two tiles and a column
            (4, 30, 1),  // m = 1
            (200, 49, 30),
            (256, 40, 40),
        ];
        // One scratch across all shapes: stale contents must not leak.
        let (mut scratch, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for (rows, k, m) in shapes {
            let a = test_matrix(rows, k, (rows * 31 + k) as u32);
            let b = test_matrix(m, k, (m * 17 + k) as u32);
            let want = matmul_transpose_reference(&a, &b);
            a.matmul_transpose_scratch_into(&b, &mut scratch, |_| true, &mut out);
            assert_eq!(out.dims(), (rows, m));
            assert_eq!(bits(&out), bits(&want), "{rows}x{k} * ({m}x{k})T with kept scratch");
            assert_eq!(bits(&a.matmul_transpose(&b)), bits(&want), "{rows}x{k} * ({m}x{k})T");
        }
    }

    /// `transpose_matmul_into` as it was before it took a live-row mask —
    /// every row, four at a time — kept as the reference the masked kernel's
    /// per-element operation order is pinned to.
    fn transpose_matmul_reference(a: &Matrix, other: &Matrix) -> Matrix {
        let (n, ac, bc) = (a.rows, a.cols, other.cols);
        let mut out = Matrix::zeros(ac, bc);
        let mut r = 0;
        while r + 4 <= n {
            let (a0, a1, a2, a3) = (a.row(r), a.row(r + 1), a.row(r + 2), a.row(r + 3));
            let (b0, b1, b2, b3) =
                (other.row(r), other.row(r + 1), other.row(r + 2), other.row(r + 3));
            for i in 0..ac {
                let (x0, x1, x2, x3) = (a0[i], a1[i], a2[i], a3[i]);
                if x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0 {
                    continue;
                }
                for j in 0..bc {
                    out[(i, j)] += x0 * b0[j] + x1 * b1[j] + x2 * b2[j] + x3 * b3[j];
                }
            }
            r += 4;
        }
        while r < n {
            for (i, &x) in a.row(r).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for j in 0..bc {
                    out[(i, j)] += x * other[(r, j)];
                }
            }
            r += 1;
        }
        out
    }

    #[test]
    fn masked_kernels_are_bit_identical_to_the_all_rows_kernels() {
        // rows % 4 over {0, 1, 2, 3}; group `g` drops the rows of pattern
        // `g % 16`, so every subset of a 4-row group is dropped somewhere,
        // and the leftover rows are dropped by the same rule.
        for (rows, ac, bc) in [(64, 5, 3), (13, 40, 40), (6, 7, 1), (3, 4, 9), (71, 30, 49)] {
            let live = |r: usize| ((r / 4 + 3) % 16) & (1 << (r % 4)) == 0;
            let a = test_matrix(rows, ac, (rows * 7 + ac) as u32);
            let mut d = test_matrix(rows, bc, (rows * 5 + bc) as u32);
            for r in (0..rows).filter(|&r| !live(r)) {
                // A dropped row's delta is `±0.0`; which sign does not matter.
                for (j, v) in d.row_mut(r).iter_mut().enumerate() {
                    *v = if (r + j) % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            let want = transpose_matmul_reference(&a, &d);
            let mut got = Matrix::zeros(0, 0);
            a.transpose_matmul_rows_into(&d, live, &mut got);
            assert_eq!(bits(&got), bits(&want), "{rows}x{ac} weight gradient, rows dropped");
            a.transpose_matmul_into(&d, &mut got);
            assert_eq!(bits(&got), bits(&want), "{rows}x{ac} weight gradient, every row");

            // Forward and delta-below: a dropped row is `+0.0`, every other
            // row is the all-rows kernel's.
            let (w, bias) = (test_matrix(ac, bc, 9), vec![0.25; bc]);
            let (mut all, mut some) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            a.matmul_bias_act_into(&w, &bias, true, &mut all);
            a.matmul_bias_act_rows_into(&w, &bias, true, live, &mut some);
            let wt = test_matrix(bc, ac, 10);
            let (mut all_t, mut some_t, mut scratch) =
                (Matrix::default(), Matrix::default(), Matrix::default());
            a.matmul_transpose_scratch_into(&wt, &mut scratch, |_| true, &mut all_t);
            a.matmul_transpose_scratch_into(&wt, &mut scratch, live, &mut some_t);
            for r in 0..rows {
                let expect = |m: &Matrix| if live(r) { bits_of(m.row(r)) } else { vec![0; m.cols] };
                assert_eq!(bits_of(some.row(r)), expect(&all), "{rows}x{ac} forward row {r}");
                assert_eq!(
                    bits_of(some_t.row(r)),
                    expect(&all_t),
                    "{rows}x{ac} delta-below row {r}"
                );
            }
        }
    }

    #[test]
    fn one_hot_transpose_matmul_is_bit_identical_to_the_dense_kernel() {
        // (rows, inner width, columns): rows % 4 over {0, 1, 2, 3}, columns
        // % 4 over {0, 1, 2, 3}; column picks repeat inside 4-row groups.
        for (rows, ac, cols) in [(8, 5, 4), (13, 30, 49), (6, 7, 2), (203, 30, 7), (3, 4, 1)] {
            let a = test_matrix(rows, ac, (rows + cols) as u32);
            let mut state = rows as u32;
            let hot: Vec<(usize, f32)> = (0..rows)
                .map(|r| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    // Rows 4..8 share one column: four equal picks in a group.
                    let col = if (4..8).contains(&r) { 0 } else { (state >> 16) as usize % cols };
                    let d = match r % 5 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => (state >> 8) as f32 / (1 << 24) as f32 - 0.5,
                    };
                    (col, d)
                })
                .collect();
            let mut dense = Matrix::zeros(rows, cols);
            for (r, &(col, d)) in hot.iter().enumerate() {
                dense[(r, col)] = d;
            }
            let want = a.transpose_matmul(&dense);
            let mut got = Matrix::zeros(0, 0);
            a.transpose_matmul_one_hot_into(&hot, cols, &mut got);
            assert_eq!(got.dims(), want.dims());
            assert_eq!(bits(&got), bits(&want), "{rows}x{ac} one-hot over {cols} columns");
        }
    }

    #[test]
    #[should_panic(expected = "one-hot column out of range")]
    fn one_hot_kernel_rejects_an_out_of_range_column() {
        // Column 3 of a 3-column output would be cell (1, 0) under flat
        // indexing; it must panic instead.
        let a = test_matrix(2, 2, 1);
        a.transpose_matmul_one_hot_into(&[(0, 1.0), (3, 1.0)], 3, &mut Matrix::zeros(0, 0));
    }

    #[test]
    fn clone_from_reuses_the_buffer() {
        let src = test_matrix(3, 4, 9);
        let mut dst = Matrix::zeros(4, 3);
        let before = dst.as_slice().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.as_slice().as_ptr(), before, "same element count: no reallocation");
    }

    #[test]
    fn gather_rows_into_selects_and_reuses() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut out = Matrix::zeros(0, 0);
        m.gather_rows_into(&[2, 0], &mut out);
        assert_eq!(out, Matrix::from_rows(&[&[5.0, 6.0], &[1.0, 2.0]]));
        m.gather_rows_into(&[1], &mut out);
        assert_eq!(out, Matrix::from_rows(&[&[3.0, 4.0]]));
    }

    #[test]
    fn broadcast_and_column_sums() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, 2.0]);
        let mut sums = Vec::new();
        m.column_sums_into(&mut sums);
        assert_eq!(sums, [3.0, 6.0]);
    }

    #[test]
    fn map_in_place_applies_function() {
        let mut m = Matrix::from_rows(&[&[-1.0, 2.0]]);
        m.map_in_place(|v| v.max(0.0));
        assert_eq!(m.as_slice(), &[0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_checks_bounds() {
        let m = Matrix::zeros(1, 1);
        let _ = m[(0, 1)];
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Matrix::zeros(2, 2).to_string().is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_rows(&[&[1.5, -2.5]]);
        let s = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&s).unwrap();
        assert_eq!(back, m);
    }
}
