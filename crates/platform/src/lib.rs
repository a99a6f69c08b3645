//! Simulated datacenter server substrate for the OSML reproduction.
//!
//! The OSML scheduler (FAST '23) observes a machine exclusively through a
//! small set of performance counters (Table 3 of the paper) and acts on it
//! exclusively through three knobs:
//!
//! * **core affinity** (`taskset`) — which logical cores a service's threads
//!   may run on,
//! * **LLC way allocation** (Intel CAT) — a contiguous bitmask of last-level
//!   cache ways,
//! * **memory-bandwidth throttling** (Intel MBA) — a per-service cap on local
//!   memory bandwidth.
//!
//! This crate models exactly that interface. It provides:
//!
//! * [`Topology`] — socket/physical-core/logical-core layout, LLC geometry and
//!   memory-bandwidth capacity (the paper's testbed, a Xeon E5-2697 v4, is
//!   available as [`Topology::xeon_e5_2697_v4`]),
//! * [`CoreSet`] and [`WayMask`] — typed resource bitmaps with the validity
//!   rules of the real hardware (CAT requires *contiguous* way masks),
//! * [`MbaThrottle`] — MBA-style bandwidth caps in 10 % steps,
//! * [`Allocation`] — one service's `<cores, ways, bandwidth>` vector,
//! * [`CounterSample`] — one pqos/PMU observation (the 11 Model-A features of
//!   Table 3 plus response latency),
//! * [`Substrate`] — the trait schedulers drive; the analytic co-location
//!   simulator in `osml-workloads` implements it.
//!
//! # Example
//!
//! ```
//! use osml_platform::{Topology, CoreSet, WayMask, Allocation, MbaThrottle};
//!
//! let topo = Topology::xeon_e5_2697_v4();
//! assert_eq!(topo.logical_cores(), 36);
//! assert_eq!(topo.llc_ways(), 20);
//!
//! // Six dedicated cores, ways 0..=9, no bandwidth throttling.
//! let alloc = Allocation::new(
//!     CoreSet::first_n(6),
//!     WayMask::contiguous(0, 10).unwrap(),
//!     MbaThrottle::unthrottled(),
//! );
//! assert_eq!(alloc.cores.count(), 6);
//! assert_eq!(alloc.ways.count(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod alloc;
pub mod control;
mod counters;
mod error;
pub mod faults;
mod mba;
pub mod node_faults;
mod schedule;
mod substrate;
mod topology;
mod ways;

pub use alloc::{Allocation, CoreSet};
pub use control::{
    ChannelPlan, ChannelStats, ControlChannel, Envelope, LossyChannel, NodeCommand, NodeReply,
    PartitionWindow, SendReport, SeqWindow,
};
pub use counters::{CounterSample, LatencyStats};
pub use error::PlatformError;
pub use faults::{
    hash01, FailWindow, FaultPlan, FaultProfile, FaultRecord, FaultySubstrate, InjectedFault,
};
pub use mba::MbaThrottle;
pub use node_faults::{NodeCrash, NodeFaultPlan};
pub use schedule::{Placement, RejectReason, Scheduler, SloClass};
pub use substrate::{AppId, Substrate};
pub use topology::{ServerSpec, Topology};
pub use ways::WayMask;
