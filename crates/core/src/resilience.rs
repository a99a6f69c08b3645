//! Actuation resilience: a retry-with-backoff borrow-wrapper the controller
//! threads through every substrate interaction.
//!
//! [`Retrying`] implements [`Substrate`] over a `&mut S`, so the layout
//! helpers and the algorithm bodies are oblivious to it — any `reallocate`
//! they issue is transparently retried while the error is classified
//! transient ([`PlatformError::is_transient`]) and the retry budget lasts.
//! Backoff is charged to an accounting meter rather than slept: the
//! simulated clock belongs to the harness, and a zero-fault run must stay
//! bit-identical to the unwrapped controller.
//!
//! Every observation (failed attempt, successful retry burst, exhausted
//! budget) accumulates in [`RetryStats`], which the scheduler drains into
//! its event log at transaction boundaries.

use osml_platform::{
    Allocation, AppId, CounterSample, LatencyStats, PlatformError, Substrate, Topology,
};

/// One actuation that succeeded only after retries:
/// `(app, total attempts, total backoff ms)`.
pub(crate) type RetryBurst = (AppId, u32, f64);

/// Fault observations accumulated by [`Retrying`] and drained by the
/// scheduler into its event log.
#[derive(Debug, Default)]
pub(crate) struct RetryStats {
    /// One entry per transiently failed attempt (including exhausted ones).
    pub faults: Vec<AppId>,
    /// Actuations that succeeded after one or more retries.
    pub retried: Vec<RetryBurst>,
    /// Actuations whose whole retry budget was exhausted (persistent
    /// transient failures — the rollback trigger). Exhaustion is surfaced
    /// here rather than only as the returned error so the scheduler's event
    /// log can distinguish "succeeded after retries" from "gave up".
    pub persistent: u32,
}

impl RetryStats {
    /// Whether anything at all was observed.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.retried.is_empty() && self.persistent == 0
    }
}

/// Re-attempts allowed after the first try: one operation is attempted at
/// most `1 + RETRY_BUDGET` times before its failure counts as persistent.
/// [`Retrying`] applies this budget and [`charge`] to substrate actuations;
/// the cluster control plane applies both to command resends over a lossy
/// channel, so the two layers charge backoff identically (accounted, never
/// slept).
pub(crate) const RETRY_BUDGET: u32 = 3;

/// Backoff base, ms: retry *n* charges `base · 2ⁿ⁻¹`, so an exhausted
/// budget charges 1 + 2 + 4 = 7 ms.
const RETRY_BACKOFF_BASE_MS: f64 = 1.0;

/// The running backoff total after charging retry number `attempts`
/// (1-based count of *completed* attempts): adds `base · 2ⁿ⁻¹` to
/// `charged_ms`.
pub(crate) fn charge(attempts: u32, charged_ms: f64) -> f64 {
    charged_ms + RETRY_BACKOFF_BASE_MS * 2f64.powi((attempts - 1) as i32)
}

/// A [`Substrate`] borrow-wrapper that retries transiently failed
/// actuations with exponential backoff before letting the error surface.
/// All other operations delegate untouched.
#[derive(Debug)]
pub(crate) struct Retrying<'a, S: Substrate> {
    inner: &'a mut S,
    /// Observations pending a drain by the scheduler.
    pub stats: RetryStats,
}

impl<'a, S: Substrate> Retrying<'a, S> {
    /// Wraps `inner` in the shared retry discipline.
    pub fn new(inner: &'a mut S) -> Self {
        Retrying { inner, stats: RetryStats::default() }
    }

    /// Drains the accumulated observations.
    pub fn take_stats(&mut self) -> RetryStats {
        std::mem::take(&mut self.stats)
    }
}

impl<S: Substrate> Substrate for Retrying<'_, S> {
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn reallocate(&mut self, id: AppId, alloc: Allocation) -> Result<(), PlatformError> {
        let mut attempts: u32 = 0;
        let mut backoff_ms = 0.0;
        loop {
            attempts += 1;
            match self.inner.reallocate(id, alloc) {
                Ok(()) => {
                    if attempts > 1 {
                        self.stats.retried.push((id, attempts, backoff_ms));
                    }
                    return Ok(());
                }
                Err(e) if e.is_transient() => {
                    self.stats.faults.push(id);
                    if attempts > RETRY_BUDGET {
                        self.stats.persistent += 1;
                        return Err(e);
                    }
                    // Accounting only: charge the backoff, don't sleep.
                    backoff_ms = charge(attempts, backoff_ms);
                }
                // Permanent errors (malformed request, unknown app) are the
                // caller's bug or a departure race; retrying cannot help.
                Err(e) => return Err(e),
            }
        }
    }

    fn remove(&mut self, id: AppId) -> Result<(), PlatformError> {
        self.inner.remove(id)
    }

    fn advance(&mut self, seconds: f64) {
        self.inner.advance(seconds);
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn apps(&self) -> Vec<AppId> {
        self.inner.apps()
    }

    fn allocation(&self, id: AppId) -> Option<Allocation> {
        self.inner.allocation(id)
    }

    fn sample(&self, id: AppId) -> Option<CounterSample> {
        self.inner.sample(id)
    }

    fn latency(&self, id: AppId) -> Option<LatencyStats> {
        self.inner.latency(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osml_platform::{CoreSet, MbaThrottle, WayMask};
    use std::collections::BTreeMap;

    /// A substrate whose next `fail_next` reallocations fail transiently.
    #[derive(Debug)]
    struct Flaky {
        topo: Topology,
        apps: BTreeMap<AppId, Allocation>,
        fail_next: usize,
        attempts_seen: usize,
    }

    impl Flaky {
        fn new(fail_next: usize) -> Self {
            let mut apps = BTreeMap::new();
            apps.insert(
                AppId(1),
                Allocation::new(
                    CoreSet::first_n(2),
                    WayMask::contiguous(0, 2).unwrap(),
                    MbaThrottle::unthrottled(),
                ),
            );
            Flaky { topo: Topology::xeon_e5_2697_v4(), apps, fail_next, attempts_seen: 0 }
        }
    }

    impl Substrate for Flaky {
        fn topology(&self) -> &Topology {
            &self.topo
        }
        fn reallocate(&mut self, id: AppId, alloc: Allocation) -> Result<(), PlatformError> {
            self.attempts_seen += 1;
            if !self.apps.contains_key(&id) {
                return Err(PlatformError::UnknownApp { id: id.0 });
            }
            if self.fail_next > 0 {
                self.fail_next -= 1;
                return Err(PlatformError::ActuationFailed { transient: true });
            }
            self.apps.insert(id, alloc);
            Ok(())
        }
        fn remove(&mut self, id: AppId) -> Result<(), PlatformError> {
            self.apps.remove(&id).map(|_| ()).ok_or(PlatformError::UnknownApp { id: id.0 })
        }
        fn advance(&mut self, _seconds: f64) {}
        fn now(&self) -> f64 {
            0.0
        }
        fn apps(&self) -> Vec<AppId> {
            self.apps.keys().copied().collect()
        }
        fn allocation(&self, id: AppId) -> Option<Allocation> {
            self.apps.get(&id).copied()
        }
        fn sample(&self, _id: AppId) -> Option<CounterSample> {
            None
        }
        fn latency(&self, _id: AppId) -> Option<LatencyStats> {
            None
        }
    }

    fn some_alloc() -> Allocation {
        Allocation::new(
            CoreSet::first_n(4),
            WayMask::contiguous(0, 4).unwrap(),
            MbaThrottle::unthrottled(),
        )
    }

    #[test]
    fn retries_within_budget_succeed_and_are_recorded() {
        let mut flaky = Flaky::new(2);
        let mut retrying = Retrying::new(&mut flaky);
        assert!(retrying.reallocate(AppId(1), some_alloc()).is_ok());
        let stats = retrying.take_stats();
        assert_eq!(stats.faults.len(), 2);
        assert_eq!(stats.retried, vec![(AppId(1), 3, 3.0)], "1 ms + 2 ms of backoff");
        assert_eq!(stats.persistent, 0);
        assert_eq!(flaky.attempts_seen, 3);
        assert_eq!(flaky.allocation(AppId(1)), Some(some_alloc()));
    }

    #[test]
    fn exhausted_budget_is_a_persistent_failure() {
        let mut flaky = Flaky::new(100);
        let mut retrying = Retrying::new(&mut flaky);
        let err = retrying.reallocate(AppId(1), some_alloc()).unwrap_err();
        assert!(err.is_transient());
        let stats = retrying.take_stats();
        assert_eq!(stats.faults.len(), 4, "initial attempt + 3 retries");
        assert_eq!(stats.persistent, 1);
        assert!(stats.retried.is_empty());
        assert_eq!(flaky.attempts_seen, 4, "budget bounds the attempts");
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        let mut flaky = Flaky::new(0);
        let mut retrying = Retrying::new(&mut flaky);
        let err = retrying.reallocate(AppId(99), some_alloc()).unwrap_err();
        assert!(!err.is_transient());
        assert!(retrying.take_stats().is_empty());
        assert_eq!(flaky.attempts_seen, 1);
    }

    #[test]
    fn success_without_faults_leaves_no_trace() {
        let mut flaky = Flaky::new(0);
        let mut retrying = Retrying::new(&mut flaky);
        assert!(retrying.reallocate(AppId(1), some_alloc()).is_ok());
        assert!(retrying.take_stats().is_empty());
    }

    /// Pins the charged-backoff series: pure doubling, 1 + 2 + 4 ms over the
    /// whole budget.
    #[test]
    fn charged_backoff_series_doubles_over_the_whole_budget() {
        let mut flaky = Flaky::new(RETRY_BUDGET as usize);
        let mut retrying = Retrying::new(&mut flaky);
        assert!(retrying.reallocate(AppId(1), some_alloc()).is_ok());
        assert_eq!(retrying.take_stats().retried, vec![(AppId(1), 4, 7.0)]);
    }
}
