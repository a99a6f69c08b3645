//! Training-corpus generation, reproducing the paper's data-collection
//! methodology (§IV) against the simulated testbed.
//!
//! The paper's corpus was gathered over nine months on real hardware:
//! for every service and every common RPS, launch `t = 36, 35, …, 1`
//! threads, map them onto `c = 36, 35, …, 1` cores, allocate `w = 1…20`
//! LLC ways, and record the performance trace of each case, labelling it
//! with the OAA, RCliff and OAA bandwidth (Fig. 5). Model-B's corpus
//! reduces resources from the OAA along three angles and labels each step
//! with its QoS slowdown (Fig. 6). Model-C's corpus pairs Model-A tuples
//! whose allocations differ by at most 3 cores / 3 ways and scores the
//! implied action with the reward function.
//!
//! This crate runs the same sweeps against `osml-workloads`' simulator.
//! [`SweepConfig`] scales the sweep density: the defaults regenerate a
//! laptop-sized corpus in seconds; `SweepConfig::paper()` matches the
//! paper's full grid.
//!
//! End-to-end entry points ([`train_model_a`], [`train_model_b`],
//! [`train_model_b_prime`], `train_model_c`) produce trained models ready
//! for the OSML controller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod corpus;
mod probe;
mod train;

pub use corpus::{
    model_a_corpus, model_b_corpus, model_b_prime_corpus, model_c_transitions, SweepConfig,
};
pub use probe::FeatureProbe;
pub use train::{train_model_a, train_model_b, train_model_b_prime, TrainedModels, TrainingConfig};
