//! The comparison schedulers of the paper's evaluation (§VI-B).
//!
//! * [`Parties`] — a re-implementation of PARTIES (Chen et al., ASPLOS '19)
//!   from its published description, as the paper itself did ("we implement
//!   it in our work, as it is not open-source"): a per-service finite state
//!   machine making incremental, one-dimension-at-a-time adjustments until
//!   QoS is satisfied for all services, with trial-and-error reverts.
//! * [`Unmanaged`] — the paper's baseline: threads mapped across all cores,
//!   no CAT/MBA control; the OS time-shares everything.
//! * [`Oracle`] — exhaustive offline search for the best static partition,
//!   "the ceiling that the schedulers try to achieve".

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod oracle;
mod parties;
mod unmanaged;

pub use oracle::Oracle;
pub use parties::Parties;
pub use unmanaged::Unmanaged;
