//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§VI). See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! The harness is scheduler-agnostic: the same scenario code drives OSML,
//! PARTIES and the unmanaged baseline through the
//! [`osml_platform::Scheduler`] trait, and the Oracle through its offline
//! search. Each figure of the `figures` binary prints a human-readable table
//! and writes machine-readable JSON under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod chaos;
pub mod cluster;
pub mod control;
pub mod grid;
pub mod overload;
pub mod replay;
pub mod report;
pub mod scenario;
pub mod suite;
pub mod timeline;

pub use scenario::run_colocation;
