//! Admission-control and brownout state for overload management.
//!
//! When co-located demand exceeds the machine, Algorithm 1's "insufficient
//! resources" exit no longer has to be terminal: arrivals wait in a
//! priority-ordered queue bounded by [`crate::config::OverloadConfig`], and
//! sustained pressure moves the controller into a declared brownout where
//! Model-B′-priced shaves (and, as a last resort, LIFO shedding of
//! best-effort services) free capacity for queued latency-critical work.
//!
//! Everything here is plain state — the policy lives in `osml.rs`. The
//! queue, shed stack, shave ledger and brownout clock are what the unified
//! log folds to, so a crash mid-overload recovers them from the log; the
//! counters no event carries travel in `SchedulerSnapshot`.

use osml_platform::{Allocation, SloClass};
use serde::{Deserialize, Serialize};

/// Cap on banked retry credits: each departure / slack signal banks one
/// admission retry, but a quiet stretch must not let a later burst replay
/// dozens of profiling windows in a single tick.
pub(crate) const MAX_RETRY_CREDITS: u32 = 4;

/// Ticks a non-best-effort arrival must have waited before the controller
/// declares brownout.
pub(crate) const BROWNOUT_AFTER_TICKS: u64 = 6;

/// Consecutive ticks with an empty queue before brownout starts restoring
/// shaved services and exits.
pub(crate) const BROWNOUT_EXIT_HOLD_TICKS: u32 = 4;

/// Maximum Model-B′-priced shave steps applied per tick while in brownout
/// (each step takes one core or one way from the cheapest victim).
pub(crate) const SHAVE_STEP_BUDGET: usize = 2;

/// The cumulative priced-slowdown ceiling brownout may impose on a service
/// of `class`: the more protected the class, the less it tolerates.
pub(crate) fn slowdown_ceiling(class: SloClass) -> f64 {
    match class {
        SloClass::LatencyCritical => 0.05,
        SloClass::Degradable => 0.25,
        SloClass::BestEffort => 0.40,
    }
}

/// One deferred arrival holding a seat in the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueuedEntry {
    /// Opaque ticket handed back to the harness (the raw id of the arrival
    /// that was deferred).
    pub ticket: u64,
    /// SLO class the arrival was submitted with.
    pub class: SloClass,
    /// Scheduler tick at first deferral — retries keep the original clock,
    /// so the max-wait horizon counts from the first rejection.
    pub enqueued_tick: u64,
    /// Monotonic arrival sequence number: FIFO order within a class.
    pub seq: u64,
    /// Model-A's RCliff core demand at rejection time (the smallest holding
    /// the controller would accept): brownout sheds only when freeing
    /// best-effort capacity can plausibly cover this. `0` = unknown.
    pub need_cores: usize,
    /// RCliff way demand at rejection time. `0` = unknown.
    pub need_ways: usize,
}

/// One shed best-effort service awaiting re-admission (LIFO stack).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShedEntry {
    /// Ticket (raw id at shed time) the harness relaunches against.
    pub ticket: u64,
    /// Class at shed time (always best-effort under the current policy).
    pub class: SloClass,
    /// Scheduler tick the service was shed at.
    pub shed_tick: u64,
}

/// A brownout shave applied to a live service, remembering what to restore.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShaveRecord {
    /// Raw id of the shaved service.
    pub app: u64,
    /// Allocation before the first shave (the restoration target).
    pub original: Allocation,
    /// Cumulative Model-B′-priced slowdown imposed so far, compared against
    /// the class ceiling before every further shave.
    pub priced: f64,
}

/// The complete overload-management state machine.
#[derive(Debug, Clone, Default)]
pub(crate) struct OverloadState {
    /// Deferred arrivals, unordered; the head is selected by
    /// `(class rank, seq)` so latency-critical work always goes first.
    pub queue: Vec<QueuedEntry>,
    /// Best-effort services shed during brownout, restored LIFO.
    pub shed: Vec<ShedEntry>,
    /// Live services currently running below their pre-brownout allocation,
    /// restored in reverse shave order on brownout exit.
    pub shaved: Vec<ShaveRecord>,
    /// Next FIFO sequence number.
    pub next_seq: u64,
    /// Banked admission retries (capped at four): one is
    /// earned per departure, per slack-growth observation and per
    /// successful shave; one is spent per `poll_admission`.
    pub retry_credits: u32,
    /// Ticket currently being retried by the harness (between
    /// `poll_admission` and the resulting `on_arrival_classed`).
    pub in_flight: Option<u64>,
    /// Raw id whose next `on_departure` must not bank a retry credit: the
    /// departure of a just-deferred arrival (or failed retry) frees only
    /// its own bootstrap allocation, not new capacity.
    pub suppress_credit_for: Option<u64>,
    /// Services shed by the controller that the harness has not yet
    /// withdrawn from the substrate (drained via `take_shed`).
    pub pending_shed: Vec<u64>,
    /// Tick brownout was entered at, while degraded.
    pub brownout_since: Option<u64>,
    /// Consecutive quiet (empty-queue) ticks counted toward brownout exit.
    pub exit_streak: u32,
    /// `(idle cores, idle ways)` at the last tick, for the reclaim-slack
    /// retry signal.
    pub last_idle: Option<(usize, usize)>,
}

impl OverloadState {
    /// Index of the next entry to retry: lowest class rank first (most
    /// protected), FIFO within a class.
    pub(crate) fn head_index(&self) -> Option<usize> {
        (0..self.queue.len()).min_by_key(|&i| (self.queue[i].class.rank(), self.queue[i].seq))
    }

    /// Index of the entry an over-full queue would evict: highest class
    /// rank (least protected), newest within that class.
    pub(crate) fn eviction_index(&self) -> Option<usize> {
        (0..self.queue.len()).max_by_key(|&i| (self.queue[i].class.rank(), self.queue[i].seq))
    }

    /// Whether `ticket` is still waiting (queued or shed).
    pub(crate) fn is_waiting(&self, ticket: u64) -> bool {
        self.queue.iter().any(|e| e.ticket == ticket)
            || self.shed.iter().any(|e| e.ticket == ticket)
    }

    /// Banks one retry credit, saturating at [`MAX_RETRY_CREDITS`].
    pub(crate) fn bank_credit(&mut self) {
        self.retry_credits = (self.retry_credits + 1).min(MAX_RETRY_CREDITS);
    }

    /// Whether any overload machinery currently holds state the controller
    /// must keep driving (waiters to retry or damage to restore).
    pub(crate) fn is_active(&self) -> bool {
        !self.queue.is_empty()
            || !self.shed.is_empty()
            || !self.shaved.is_empty()
            || self.brownout_since.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ticket: u64, class: SloClass, seq: u64) -> QueuedEntry {
        QueuedEntry { ticket, class, enqueued_tick: 0, seq, need_cores: 0, need_ways: 0 }
    }

    #[test]
    fn head_prefers_protected_classes_then_fifo() {
        let mut st = OverloadState::default();
        st.queue.push(entry(1, SloClass::BestEffort, 0));
        st.queue.push(entry(2, SloClass::LatencyCritical, 1));
        st.queue.push(entry(3, SloClass::LatencyCritical, 2));
        st.queue.push(entry(4, SloClass::Degradable, 3));
        assert_eq!(st.queue[st.head_index().unwrap()].ticket, 2);
        st.queue.remove(st.head_index().unwrap());
        assert_eq!(st.queue[st.head_index().unwrap()].ticket, 3);
        st.queue.remove(st.head_index().unwrap());
        assert_eq!(st.queue[st.head_index().unwrap()].ticket, 4);
    }

    #[test]
    fn eviction_picks_least_protected_newest() {
        let mut st = OverloadState::default();
        st.queue.push(entry(1, SloClass::BestEffort, 0));
        st.queue.push(entry(2, SloClass::BestEffort, 1));
        st.queue.push(entry(3, SloClass::LatencyCritical, 2));
        assert_eq!(st.queue[st.eviction_index().unwrap()].ticket, 2);
    }

    #[test]
    fn brownout_constants_are_coherent() {
        assert!(
            slowdown_ceiling(SloClass::LatencyCritical) < slowdown_ceiling(SloClass::Degradable)
                && slowdown_ceiling(SloClass::Degradable) < slowdown_ceiling(SloClass::BestEffort),
            "more protected classes must tolerate less priced slowdown"
        );
        let max_wait = crate::OverloadConfig::enabled().max_wait_ticks;
        assert!(max_wait > BROWNOUT_AFTER_TICKS, "brownout must start before waiters time out");
    }

    #[test]
    fn credits_saturate() {
        let mut st = OverloadState::default();
        for _ in 0..20 {
            st.bank_credit();
        }
        assert_eq!(st.retry_credits, MAX_RETRY_CREDITS);
    }
}
