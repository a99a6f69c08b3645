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
//! [`features`] defines the shared input schema and its normalization;
//! training corpora are generated by `osml-dataset` following the paper's
//! sweep methodology.

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
