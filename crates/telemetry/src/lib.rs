//! Observability for the OSML scheduler stack: metrics and span timing.
//!
//! Production ML schedulers treat observability as a first-class subsystem —
//! the paper's entire evaluation (Figs. 4–17) rests on what can be observed
//! about the controller's decisions. *What happened* is recorded once, in
//! the controller's unified log (`osml_core::golden`); this crate is the
//! other half — *what it cost* — and it measures without perturbing the
//! decisions themselves:
//!
//! * a **metrics registry** (`MetricsRegistry`) with counters, gauges and
//!   fixed-bucket latency histograms (p50/p95/p99 extraction), all
//!   deterministic and `Serialize`-able;
//! * **span timing** ([`Telemetry::span`]) for the hot paths — Model-A/B/C
//!   inference, DQN replay/training steps, actuation calls — recorded as
//!   microsecond histograms.
//!
//! The contract that makes this safe to wire everywhere: **telemetry is
//! write-only from the scheduler's perspective**. Nothing the scheduler
//! reads flows out of this crate, so an instrumented run takes exactly the
//! decisions an uninstrumented run takes (observer effect = 0, enforced by
//! property tests in `osml-bench`). With telemetry disabled — the default —
//! every call is a branch on a `None` and no clock is read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod handle;
pub mod metrics;

pub use handle::Telemetry;
pub use metrics::{Histogram, MetricsSnapshot, LATENCY_US_BOUNDS};
