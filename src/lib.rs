//! # osml — facade crate for the OSML reproduction
//!
//! Re-exports the whole workspace under one roof so examples and downstream
//! users can depend on a single crate:
//!
//! * [`platform`] — simulated server substrate (cores, CAT, MBA, counters),
//! * [`workloads`] — analytic latency-critical service models with
//!   resource-cliff behaviour, and the co-location simulator,
//! * [`ml`] — from-scratch MLP / Adam / DQN machinery,
//! * [`models`] — the paper's Model-A / Model-B / Model-B' / Model-C,
//! * [`scheduler`] — the OSML central controller (Algorithms 1–4),
//! * [`baselines`] — PARTIES, unmanaged allocation, and the Oracle,
//! * [`dataset`] — training-corpus generation per the paper's methodology,
//! * [`mod@bench`] — the experiment harness (scenarios, grids, timelines).
//!
//! See the repository `README.md` for a guided tour and `DESIGN.md` for the
//! paper-to-module map.

pub use osml_baselines as baselines;
pub use osml_bench as bench;
pub use osml_core as scheduler;
pub use osml_dataset as dataset;
pub use osml_ml as ml;
pub use osml_models as models;
pub use osml_platform as platform;
pub use osml_workloads as workloads;
