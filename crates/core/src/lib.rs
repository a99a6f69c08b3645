//! The OSML central controller (§V of the paper).
//!
//! OSML sits between the OS and the services as a user-level daemon. Its
//! profiling module samples each co-located service's performance counters
//! once per second; its central controller coordinates the three ML models
//! and executes allocation changes through `taskset`/CAT/MBA — here,
//! through the [`osml_platform::Substrate`] trait.
//!
//! The control logic follows Fig. 9:
//!
//! * **Algorithm 1** (placement): profile the newcomer for 2 s, ask Model-A
//!   for its OAA and RCliff, allocate from idle resources if they suffice;
//!   otherwise ask Model-B for every neighbour's B-points and deprive at
//!   most three neighbours within their slowdown budgets.
//! * **Algorithm 2** (QoS violation): ask Model-C for a growth action,
//!   satisfy it from idle resources, else consider sharing (Algorithm 4).
//! * **Algorithm 3** (surplus): when a service holds more than
//!   `RCliff + margin`, ask Model-C for a reclamation action; roll it back
//!   if QoS breaks on the next sample.
//! * **Algorithm 4** (sharing): price LLC/core sharing with Model-B′ and
//!   either share or report the service for migration.
//!
//! Bandwidth is partitioned `BW_j / Σ BW_i` from Model-A's OAA-bandwidth
//! predictions (§V-B), programmed as MBA throttles.
//!
//! [`Cluster`] adds the upper-level tier the paper defers to: first-fit
//! placement across OSML-managed nodes and migration of services a node
//! reports it cannot keep within QoS (Algorithm 4, line 9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod admission;
mod apptable;
pub mod bootstrap;
mod cluster;
mod config;
mod event_queue;
pub mod golden;
pub mod host;
mod layout;
mod osml;
pub mod recovery;
mod resilience;

pub use bootstrap::bootstrap_allocation;
pub use cluster::{Cluster, ClusterError, ClusterPlacement, ServiceDisposition};
pub use config::{ClusterConfig, OsmlConfig, OverloadConfig, PlacementPolicy};
pub(crate) use golden::Provenance;
pub use golden::{
    first_divergence, ActionKind, Decision, Divergence, EventBody, LaunchCause, RemovalCause,
    ReplayState, TelemetryNote, UnifiedEvent, UnifiedLog, WorldFact,
};
pub use osml::{Models, OsmlScheduler};
pub use recovery::{
    RecoveryError, RecoveryMode, RecoveryReport, RecoveryStore, SchedulerSnapshot, ScratchDir,
};
