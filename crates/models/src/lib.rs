//! The paper's three collaborating ML models (§IV).
//!
//! * [`ModelA`] — *finding the OAA*: a 3-hidden-layer MLP (40 neurons each)
//!   mapping a 2-second window of runtime counters (Table 3) to the
//!   service's Optimal Allocation Area, its OAA bandwidth requirement, and
//!   its Resource Cliff.
//! * [`ModelB`] — *trading QoS for resources*: given the counters plus an
//!   acceptable QoS slowdown, predicts how many cores/ways can be deprived
//!   under three policies (balanced, cores-dominated, ways-dominated) — the
//!   **B-points**. [`ModelBPrime`] is its shadow: given a proposed
//!   deprivation, predict the slowdown it would cause.
//! * [`ModelC`] — *handling changes on the fly*: a DQN whose actions are
//!   `<Δcores, Δways>` with each component in [-3, 3] and whose reward
//!   prefers lower latency achieved with fewer resources.
//!
//! Each model answers one sample through one call, `predict` (Model-C:
//! `best_action_where`), which writes the model's [`features`] row into a
//! caller-held [`Scratch`] and runs the network over that one row.
//! [`features`] defines the shared input schema and its normalization;
//! training corpora are generated by `osml-dataset` following the paper's
//! sweep methodology, through the same row writers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod features;
mod model_a;
mod model_b;
mod model_c;

pub use model_a::{ModelA, OaaPrediction};
pub use model_b::{BPoints, ModelB, ModelBPrime};
pub use model_c::{Action, ModelC, ACTIONS};

use osml_ml::{Matrix, Mlp};

/// The buffers a model call runs on: its one input row and the layer
/// ping-pong pair, shared by every model and allocation-free once warm.
/// Holds nothing between calls — each call rewrites the row before the
/// forward pass reads it.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    input: Matrix,
    a: Matrix,
    b: Matrix,
}

impl Scratch {
    /// Fills the input row through `write` (one of the [`features`]
    /// writers) and runs `mlp` over it, returning the output row.
    fn run(&mut self, mlp: &Mlp, write: impl FnOnce(&mut [f32])) -> &[f32] {
        self.input.reset(1, mlp.input_size());
        write(self.input.row_mut(0));
        mlp.forward_batch_into(&self.input, &mut self.a, &mut self.b).row(0)
    }
}
