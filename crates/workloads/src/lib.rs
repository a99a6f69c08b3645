//! Analytic models of latency-critical microservices and the co-location
//! simulator used as OSML's machine substrate.
//!
//! The paper evaluates OSML on eleven real services (Table 1: Tailbench
//! workloads plus Memcached, MongoDB, Nginx, Specjbb and two proprietary
//! services). Real binaries and load generators are a hardware/data gate for
//! this reproduction, so this crate substitutes **queueing-theoretic analytic
//! models** calibrated to the paper's published numbers. The substitution is
//! behaviour-preserving for the phenomena OSML's models must learn:
//!
//! * **Resource Cliff (RCliff, §III-A)** — per-request service time grows as
//!   LLC ways are removed (miss-ratio curve), and capacity grows with cores;
//!   at fixed offered load, the utilization `ρ = load / capacity` crosses 1
//!   along a frontier in the (cores, ways) plane. Below the frontier the
//!   queue diverges and tail latency jumps by 100×+ within a single core or
//!   way — exactly the cliff of Fig. 1.
//! * **RPS sensitivity (Fig. 2)** — raising offered load moves the `ρ = 1`
//!   frontier outward, shifting the cliff.
//! * **Thread-count insensitivity of the OAA (Fig. 3)** — extra threads add
//!   context-switch overhead (raising latency uniformly) but do not move the
//!   capacity frontier, so the optimal allocation area stays put.
//! * **Cross-service coupling** — co-runners share memory bandwidth (misses
//!   drive DRAM traffic; saturation stalls everyone), LLC ways (overlapping
//!   CAT masks split capacity), and cores (overlapping affinity masks split
//!   cycles), reproducing the contention PARTIES and OSML fight over.
//!
//! The crate provides:
//!
//! * [`Service`] / [`ServiceParams`] — the twelve modelled services and their
//!   calibrated parameters,
//! * [`perf::evaluate`] — the closed-form performance model,
//! * [`SimServer`] — a [`osml_platform::Substrate`] implementation that
//!   co-locates services, resolves bandwidth/cache/core contention to a fixed
//!   point each tick, and synthesizes Table-3 counter samples,
//! * [`oaa`] — ground-truth latency grids, RCliff and OAA extraction
//!   (the paper's Fig. 1 red line and green area),
//! * [`loadgen`] — deterministic load schedules for the dynamic experiments
//!   (Fig. 4, Fig. 14).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;
pub mod oaa;
mod params;
pub mod perf;
mod sim;

pub use params::{Service, ServiceParams, ALL_SERVICES};
pub use perf::{PerfInput, PerfOutcome};
pub use sim::{LaunchSpec, SimConfig, SimServer};
