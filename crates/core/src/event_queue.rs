//! The tick engine's timer wheel: a binary heap of scheduled expiries keyed
//! on the tick they fall due, with a deterministic FIFO tie-break.
//!
//! A scan loop (the `#[cfg(test)]` reference in `osml/reference.rs`) walks
//! every [`AppRecord`] each tick to clear expired reclaim cooldowns and
//! blocked actions, and walks the admission queue to find overstayed
//! waiters — O(services) even when nothing is pending. The timer wheel
//! inverts that: when a deadline is *created*
//! (rollback cooldown armed, growth blocked, arrival queued) an expiry event
//! is scheduled at its absolute due tick, and each tick pops only the events
//! that are actually due. Idle services cost nothing per tick.
//!
//! Determinism: events are ordered by `(due, tie, order)`. `order` is a
//! per-queue monotone sequence number, so two events scheduled for the same
//! tick pop in scheduling order (FIFO). Queue-deadline events carry the
//! admission entry's own sequence number as `tie`, so same-tick admission
//! timeouts drain in queue order exactly like a scan of the queue — including
//! entries whose deadline was pushed back while they were in flight.
//!
//! Events are *hints*, not state: the authoritative deadlines live on the
//! records and queue entries, and every pop re-checks them. A stale event
//! (record departed, cooldown refreshed, waiter admitted) pops and drops
//! without effect, which is what makes rebuilding the heap from a recovered
//! snapshot trivial.
//!
//! [`AppRecord`]: crate::OsmlScheduler

use osml_platform::AppId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What falls due when a scheduled tick arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerEvent {
    /// A reclaim cooldown armed by a QoS rollback runs out; the record's
    /// `cooldown_until` can be garbage-collected.
    CooldownExpiry(AppId),
    /// A blocked growth action's quarantine runs out; expired entries can be
    /// dropped from the record's blocked list.
    BlockedExpiry(AppId),
    /// An admission-queue waiter reaches its max-wait horizon and should be
    /// timed out (or re-armed if it is currently in flight).
    QueueDeadline {
        /// The waiter's ticket (raw app id of the deferred arrival).
        ticket: u64,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Scheduled {
    due: u64,
    /// Primary tie-break at equal `due`: the admission entry's seq for
    /// queue deadlines, the scheduling order for record timers.
    tie: u64,
    /// Unique per-queue sequence number; makes the order total.
    order: u64,
    event: TimerEvent,
}

// BinaryHeap is a max-heap; invert so the earliest (due, tie, order) pops
// first.
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.due, other.tie, other.order).cmp(&(self.due, self.tie, self.order))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The timer wheel.
#[derive(Debug, Clone, Default)]
pub(crate) struct TimerQueue {
    heap: BinaryHeap<Scheduled>,
    next_order: u64,
}

impl TimerQueue {
    /// Schedules a record-timer expiry (cooldown / blocked) at `due`.
    pub(crate) fn schedule(&mut self, due: u64, event: TimerEvent) {
        let order = self.next_order;
        self.next_order += 1;
        self.heap.push(Scheduled { due, tie: order, order, event });
    }

    /// Schedules a queue-deadline expiry at `due`, tie-broken by the
    /// admission entry's own sequence number so same-tick timeouts drain in
    /// queue order.
    pub(crate) fn schedule_queue_deadline(&mut self, due: u64, entry_seq: u64, ticket: u64) {
        let order = self.next_order;
        self.next_order += 1;
        self.heap.push(Scheduled {
            due,
            tie: entry_seq,
            order,
            event: TimerEvent::QueueDeadline { ticket },
        });
    }

    /// Pops the next event due at or before `now`, in `(due, tie, order)`
    /// order.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<TimerEvent> {
        if self.heap.peek().is_some_and(|s| s.due <= now) {
            self.heap.pop().map(|s| s.event)
        } else {
            None
        }
    }

    /// Drops every scheduled event (used before a rebuild from recovered
    /// state or a swapped config).
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    /// Number of pending events (diagnostics and tests).
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_due_then_fifo_order() {
        let mut q = TimerQueue::default();
        q.schedule(5, TimerEvent::CooldownExpiry(AppId(1)));
        q.schedule(3, TimerEvent::CooldownExpiry(AppId(2)));
        q.schedule(3, TimerEvent::BlockedExpiry(AppId(3)));
        assert_eq!(q.pop_due(2), None);
        assert_eq!(q.pop_due(4), Some(TimerEvent::CooldownExpiry(AppId(2))));
        assert_eq!(q.pop_due(4), Some(TimerEvent::BlockedExpiry(AppId(3))));
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.pop_due(5), Some(TimerEvent::CooldownExpiry(AppId(1))));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn queue_deadlines_tie_break_on_entry_seq() {
        let mut q = TimerQueue::default();
        // Scheduled out of entry order (a later entry re-armed first) but
        // sharing a due tick: must pop in entry-seq order, like the scan.
        q.schedule_queue_deadline(7, 4, 40);
        q.schedule_queue_deadline(7, 2, 20);
        assert_eq!(q.pop_due(7), Some(TimerEvent::QueueDeadline { ticket: 20 }));
        assert_eq!(q.pop_due(7), Some(TimerEvent::QueueDeadline { ticket: 40 }));
    }

    #[test]
    fn clear_empties_the_wheel() {
        let mut q = TimerQueue::default();
        q.schedule(1, TimerEvent::CooldownExpiry(AppId(1)));
        q.clear();
        assert_eq!(q.pop_due(100), None);
    }
}
