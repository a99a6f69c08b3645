//! Deterministic fault injection for any [`Substrate`].
//!
//! Real CAT/MBA programming is an MSR write that fails transiently under
//! contention; `taskset` races dying tasks; `pqos`/PMU reads drop windows or
//! return garbage. The schedulers in this repository are exercised against
//! those failure modes through [`FaultySubstrate`], a decorator that injects
//! faults according to a seeded [`FaultPlan`]:
//!
//! * **transient actuation errors** — [`Substrate::reallocate`] fails with
//!   [`PlatformError::ActuationFailed`]`{ transient: true }` with a
//!   configurable per-call probability,
//! * **outage windows** — scripted `[start, end)` intervals during which
//!   *every* actuation fails (a wedged resctrl interface),
//! * **counter dropout** — [`Substrate::sample`] returns `None` (a missed
//!   `pqos` window),
//! * **stale counters** — `sample` returns the previous window's values,
//! * **counter corruption** — `sample` returns NaN-poisoned garbage (a torn
//!   MSR read), which consumers must catch via
//!   [`CounterSample::is_valid`],
//! * **counter noise** — multiplicative jitter on the continuous counters
//!   (valid but wrong data),
//! * **actuation latency** — a per-call delay charged to an accounting
//!   meter (the simulated clock is *not* perturbed, so a zero-probability
//!   plan stays bit-identical to the bare substrate).
//!
//! Every decision derives from a hash of `(seed, call index)`, so a given
//! plan plus a given call sequence yields the identical fault trace on
//! every run — faults are an *input*, not an accident, and tests can assert
//! on the exact trace via [`FaultySubstrate::records`].
//!
//! The decorator faults the *data plane* only: `remove` (process teardown
//! goes through the OS, not the MSR path), `advance`, `now`, `apps`,
//! `allocation` and `latency` (measured at the load balancer, not on the
//! machine) pass through untouched, and harness-side control-plane calls
//! (launching services, changing offered load) should go through
//! [`FaultySubstrate::inner_mut`].

use crate::{Allocation, AppId, CounterSample, LatencyStats, PlatformError, Substrate, Topology};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// A scripted interval `[start_s, end_s)` of simulated time during which
/// every actuation fails (transiently).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailWindow {
    /// Window start, seconds of simulated time (inclusive).
    pub start_s: f64,
    /// Window end, seconds of simulated time (exclusive).
    pub end_s: f64,
}

impl FailWindow {
    /// Whether `t` falls inside the window.
    pub(crate) fn contains(&self, t: f64) -> bool {
        t >= self.start_s && t < self.end_s
    }
}

/// The fault mix a [`FaultPlan`] injects. All probabilities are per call in
/// `[0, 1]`; a default-constructed profile injects nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Probability that one `reallocate` call fails transiently.
    pub actuation_failure_prob: f64,
    /// Probability that one `sample` call returns `None` (dropped window).
    pub counter_dropout_prob: f64,
    /// Probability that one `sample` call returns the *previous* window's
    /// values instead of fresh ones.
    pub counter_stale_prob: f64,
    /// Probability that one `sample` call returns NaN-poisoned garbage.
    pub counter_corruption_prob: f64,
    /// Relative amplitude of multiplicative jitter on the continuous
    /// counters (0 disables). Noisy samples remain valid.
    pub counter_noise_sigma: f64,
    /// Latency charged per successful actuation, milliseconds (accounting
    /// only — the simulated clock is not perturbed).
    pub actuation_latency_ms: f64,
    /// Scripted outages: all actuations fail while `now()` is inside any of
    /// these windows.
    pub fail_windows: Vec<FailWindow>,
    /// If set, no faults of any kind are injected once `now()` reaches this
    /// time — models an incident that ends, so recovery behavior can be
    /// demonstrated deterministically.
    pub quiet_after_s: Option<f64>,
}

impl FaultProfile {
    /// A profile that injects nothing ([`FaultySubstrate`] becomes a
    /// transparent wrapper).
    pub fn none() -> Self {
        FaultProfile {
            actuation_failure_prob: 0.0,
            counter_dropout_prob: 0.0,
            counter_stale_prob: 0.0,
            counter_corruption_prob: 0.0,
            counter_noise_sigma: 0.0,
            actuation_latency_ms: 0.0,
            fail_windows: Vec::new(),
            quiet_after_s: None,
        }
    }

    /// The default chaos mix of the fault-tolerance experiment (Fig. 17):
    /// 5 % transient actuation failures plus 2 % counter dropout.
    pub fn chaos_default() -> Self {
        FaultProfile {
            actuation_failure_prob: 0.05,
            counter_dropout_prob: 0.02,
            ..FaultProfile::none()
        }
    }

    /// A profile scaled around the chaos default: `rate` is the transient
    /// actuation failure probability; dropout, staleness and corruption
    /// scale proportionally (2/5, 1/5 and 1/10 of `rate`).
    pub fn at_rate(rate: f64) -> Self {
        FaultProfile {
            actuation_failure_prob: rate,
            counter_dropout_prob: rate * 0.4,
            counter_stale_prob: rate * 0.2,
            counter_corruption_prob: rate * 0.1,
            ..FaultProfile::none()
        }
    }

    /// Whether this profile can inject anything at all.
    pub(crate) fn is_none(&self) -> bool {
        self.actuation_failure_prob <= 0.0
            && self.counter_dropout_prob <= 0.0
            && self.counter_stale_prob <= 0.0
            && self.counter_corruption_prob <= 0.0
            && self.counter_noise_sigma <= 0.0
            && self.actuation_latency_ms <= 0.0
            && self.fail_windows.is_empty()
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// A seeded fault schedule: the profile says *what* can go wrong, the seed
/// pins *when*. Identical plans driven through identical call sequences
/// produce identical fault traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the per-call decision hash.
    pub seed: u64,
    /// The fault mix.
    pub profile: FaultProfile,
}

impl FaultPlan {
    /// A plan injecting `profile` under `seed`.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        FaultPlan { seed, profile }
    }

    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan { seed: 0, profile: FaultProfile::none() }
    }
}

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InjectedFault {
    /// `reallocate` failed with a transient error (probabilistic).
    TransientActuationError,
    /// `reallocate` failed because `now()` was inside a [`FailWindow`].
    OutageWindow,
    /// `sample` returned `None`.
    CounterDropout,
    /// `sample` returned the previous window's values.
    CounterStale,
    /// `sample` returned NaN-poisoned garbage.
    CounterCorruption,
    /// `sample` returned jittered (but valid) values.
    CounterNoise,
    /// A successful actuation was charged `ms` of injected latency.
    ActuationDelay {
        /// Milliseconds charged to the latency meter.
        ms: f64,
    },
}

/// One injected fault, for trace assertions and chaos-run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Simulated time of the faulted call.
    pub time_s: f64,
    /// Monotone index of the faultable call (reallocate/sample) that drew
    /// this decision.
    pub call: u64,
    /// The service the call concerned.
    pub app: Option<AppId>,
    /// What was injected.
    pub fault: InjectedFault,
}

/// Interior state of the decorator; behind a `RefCell` because
/// [`Substrate::sample`] takes `&self` but must record injected faults.
#[derive(Debug, Default)]
struct FaultState {
    /// Count of faultable calls so far (the decision-hash counter).
    calls: u64,
    records: Vec<FaultRecord>,
    /// Last genuine sample observed per app (source of stale reads).
    last_seen: BTreeMap<AppId, CounterSample>,
    injected_latency_ms: f64,
}

/// SplitMix64-style hash of `(seed, call, salt)` to a uniform `f64` in
/// `[0, 1)`. Stateless per call, so the fault trace depends only on the
/// plan and the call sequence — never on thread scheduling. Shared with
/// the whole-node fault model in [`crate::node_faults`], which keys it by
/// `(node, interval)` instead of a call counter.
pub(crate) fn decision(seed: u64, call: u64, salt: u64) -> f64 {
    hash01(seed, call, salt)
}

/// Public handle on the shared SplitMix64 decision hash, for upper layers
/// that need seeded uniform draws keyed to a stream index without carrying
/// RNG state (the cluster's random-placement baseline draws here). Salts
/// must be disjoint from the fault salts of this crate (1–5, 101–102,
/// 201–205).
pub fn hash01(seed: u64, call: u64, salt: u64) -> f64 {
    let mut z =
        seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A [`Substrate`] decorator that injects deterministic faults per a
/// [`FaultPlan`]. See the module docs for the fault vocabulary.
#[derive(Debug)]
pub struct FaultySubstrate<S: Substrate> {
    inner: S,
    plan: FaultPlan,
    state: RefCell<FaultState>,
}

impl<S: Substrate> FaultySubstrate<S> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultySubstrate { inner, plan, state: RefCell::new(FaultState::default()) }
    }

    /// The wrapped substrate (read-only).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Control-plane access to the wrapped substrate — launching services
    /// and changing offered load are harness operations that bypass fault
    /// injection.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Every fault injected so far, in call order.
    pub fn records(&self) -> Vec<FaultRecord> {
        self.state.borrow().records.clone()
    }

    /// Number of faults injected so far.
    pub fn fault_count(&self) -> usize {
        self.state.borrow().records.len()
    }

    /// Total actuation latency charged so far, milliseconds.
    pub fn injected_latency_ms(&self) -> f64 {
        self.state.borrow().injected_latency_ms
    }

    /// Whether injection is live at the current simulated time (respects
    /// `quiet_after_s`).
    fn active(&self) -> bool {
        match self.plan.profile.quiet_after_s {
            Some(quiet) => self.inner.now() < quiet,
            None => true,
        }
    }

    fn record(&self, app: Option<AppId>, call: u64, fault: InjectedFault) {
        let time_s = self.inner.now();
        self.state.borrow_mut().records.push(FaultRecord { time_s, call, app, fault });
    }

    /// Draws the next call index.
    fn next_call(&self) -> u64 {
        let mut st = self.state.borrow_mut();
        let c = st.calls;
        st.calls += 1;
        c
    }
}

/// Salts separating the decision streams of the different fault knobs.
const SALT_ACTUATION: u64 = 1;
const SALT_DROPOUT: u64 = 2;
const SALT_STALE: u64 = 3;
const SALT_CORRUPT: u64 = 4;
const SALT_NOISE: u64 = 5;

impl<S: Substrate> Substrate for FaultySubstrate<S> {
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn reallocate(&mut self, id: AppId, alloc: Allocation) -> Result<(), PlatformError> {
        let p = &self.plan.profile;
        if self.active() && !p.is_none() {
            let call = self.next_call();
            let now = self.inner.now();
            if p.fail_windows.iter().any(|w| w.contains(now)) {
                self.record(Some(id), call, InjectedFault::OutageWindow);
                return Err(PlatformError::ActuationFailed { transient: true });
            }
            if p.actuation_failure_prob > 0.0
                && decision(self.plan.seed, call, SALT_ACTUATION) < p.actuation_failure_prob
            {
                self.record(Some(id), call, InjectedFault::TransientActuationError);
                return Err(PlatformError::ActuationFailed { transient: true });
            }
            if p.actuation_latency_ms > 0.0 {
                let ms = p.actuation_latency_ms;
                self.record(Some(id), call, InjectedFault::ActuationDelay { ms });
                self.state.borrow_mut().injected_latency_ms += ms;
            }
        }
        self.inner.reallocate(id, alloc)
    }

    fn remove(&mut self, id: AppId) -> Result<(), PlatformError> {
        // Teardown goes through the OS, not the MSR path: never faulted.
        self.state.borrow_mut().last_seen.remove(&id);
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
        let fresh = self.inner.sample(id)?;
        let p = &self.plan.profile;
        if !self.active() || p.is_none() {
            return Some(fresh);
        }
        let call = self.next_call();
        let seed = self.plan.seed;
        // Stale reads return the *previous* genuine sample, so snapshot it
        // before updating the per-app history with this window's values.
        let previous = self.state.borrow().last_seen.get(&id).copied();
        self.state.borrow_mut().last_seen.insert(id, fresh);
        if p.counter_dropout_prob > 0.0
            && decision(seed, call, SALT_DROPOUT) < p.counter_dropout_prob
        {
            self.record(Some(id), call, InjectedFault::CounterDropout);
            return None;
        }
        if p.counter_stale_prob > 0.0 && decision(seed, call, SALT_STALE) < p.counter_stale_prob {
            if let Some(old) = previous {
                self.record(Some(id), call, InjectedFault::CounterStale);
                return Some(old);
            }
        }
        if p.counter_corruption_prob > 0.0
            && decision(seed, call, SALT_CORRUPT) < p.counter_corruption_prob
        {
            self.record(Some(id), call, InjectedFault::CounterCorruption);
            // A torn read: poisoned rates, an impossible negative latency.
            return Some(CounterSample {
                ipc: f64::NAN,
                llc_misses_per_sec: f64::NAN,
                response_latency_ms: -1.0,
                ..fresh
            });
        }
        if p.counter_noise_sigma > 0.0 {
            self.record(Some(id), call, InjectedFault::CounterNoise);
            // Multiplicative jitter on the continuous counters; allocation
            // counts are exact (the scheduler programmed them itself).
            let jitter = |salt_off: u64| {
                let u = decision(seed, call, SALT_NOISE + salt_off);
                (1.0 + p.counter_noise_sigma * (2.0 * u - 1.0)).max(0.0)
            };
            return Some(CounterSample {
                ipc: fresh.ipc * jitter(0),
                llc_misses_per_sec: fresh.llc_misses_per_sec * jitter(1),
                mbl_gbps: fresh.mbl_gbps * jitter(2),
                cpu_usage: fresh.cpu_usage * jitter(3),
                llc_occupancy_mb: fresh.llc_occupancy_mb * jitter(4),
                response_latency_ms: fresh.response_latency_ms * jitter(5),
                ..fresh
            });
        }
        Some(fresh)
    }

    fn latency(&self, id: AppId) -> Option<LatencyStats> {
        // Measured at the load generator, not on the machine: never faulted.
        self.inner.latency(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreSet, MbaThrottle, WayMask};

    /// Minimal in-memory substrate (mirrors the one in `substrate.rs`).
    #[derive(Debug, Clone)]
    struct Ledger {
        topo: Topology,
        apps: BTreeMap<AppId, Allocation>,
        clock: f64,
    }

    impl Ledger {
        fn new() -> Self {
            Ledger { topo: Topology::xeon_e5_2697_v4(), apps: BTreeMap::new(), clock: 0.0 }
        }
        fn place(&mut self, id: u64) {
            self.apps.insert(
                AppId(id),
                Allocation::new(
                    CoreSet::first_n(2),
                    WayMask::contiguous(0, 2).unwrap(),
                    MbaThrottle::unthrottled(),
                ),
            );
        }
    }

    impl Substrate for Ledger {
        fn topology(&self) -> &Topology {
            &self.topo
        }
        fn reallocate(&mut self, id: AppId, alloc: Allocation) -> Result<(), PlatformError> {
            alloc.validate(&self.topo)?;
            match self.apps.get_mut(&id) {
                Some(a) => {
                    *a = alloc;
                    Ok(())
                }
                None => Err(PlatformError::UnknownApp { id: id.0 }),
            }
        }
        fn remove(&mut self, id: AppId) -> Result<(), PlatformError> {
            self.apps.remove(&id).map(|_| ()).ok_or(PlatformError::UnknownApp { id: id.0 })
        }
        fn advance(&mut self, seconds: f64) {
            self.clock += seconds;
        }
        fn now(&self) -> f64 {
            self.clock
        }
        fn apps(&self) -> Vec<AppId> {
            self.apps.keys().copied().collect()
        }
        fn allocation(&self, id: AppId) -> Option<Allocation> {
            self.apps.get(&id).copied()
        }
        fn sample(&self, id: AppId) -> Option<CounterSample> {
            self.apps.get(&id).map(|a| CounterSample {
                ipc: 1.0 + self.clock * 0.01,
                llc_misses_per_sec: 1.0e6,
                mbl_gbps: 2.0,
                cpu_usage: 1.5,
                memory_util_gb: 1.0,
                virt_memory_gb: 1.5,
                res_memory_gb: 0.9,
                llc_occupancy_mb: 4.0,
                allocated_cores: a.cores.count(),
                allocated_ways: a.ways.count(),
                frequency_ghz: 2.3,
                response_latency_ms: 5.0,
            })
        }
        fn latency(&self, _id: AppId) -> Option<LatencyStats> {
            Some(LatencyStats {
                mean_ms: 2.0,
                p95_ms: 5.0,
                achieved_rps: 100.0,
                offered_rps: 100.0,
                qos_target_ms: 10.0,
            })
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
    fn zero_profile_is_transparent() {
        let mut bare = Ledger::new();
        bare.place(1);
        let mut faulty = FaultySubstrate::new(bare.clone(), FaultPlan::none());
        for step in 0..50 {
            assert_eq!(faulty.sample(AppId(1)), bare.sample(AppId(1)), "step {step}");
            assert_eq!(faulty.latency(AppId(1)), bare.latency(AppId(1)));
            assert_eq!(
                faulty.reallocate(AppId(1), some_alloc()),
                bare.reallocate(AppId(1), some_alloc())
            );
            assert_eq!(faulty.allocation(AppId(1)), bare.allocation(AppId(1)));
            faulty.advance(1.0);
            bare.advance(1.0);
            assert_eq!(faulty.now(), bare.now());
        }
        assert_eq!(faulty.fault_count(), 0);
        assert_eq!(faulty.injected_latency_ms(), 0.0);
    }

    #[test]
    fn fault_trace_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut bare = Ledger::new();
            bare.place(1);
            let plan = FaultPlan::new(seed, FaultProfile::at_rate(0.3));
            let mut faulty = FaultySubstrate::new(bare, plan);
            let mut errors = 0usize;
            for _ in 0..200 {
                if faulty.reallocate(AppId(1), some_alloc()).is_err() {
                    errors += 1;
                }
                let _ = faulty.sample(AppId(1));
                faulty.advance(1.0);
            }
            (errors, faulty.records())
        };
        let (e1, r1) = run(7);
        let (e2, r2) = run(7);
        assert_eq!(e1, e2);
        assert_eq!(r1, r2);
        assert!(!r1.is_empty(), "a 30% plan must inject something in 400 calls");
        let (e3, r3) = run(8);
        assert!(e3 != e1 || r3 != r1, "different seeds should differ");
    }

    #[test]
    fn actuation_failures_are_transient_and_leave_state_untouched() {
        let mut bare = Ledger::new();
        bare.place(1);
        let before = bare.allocation(AppId(1)).unwrap();
        let plan =
            FaultPlan::new(3, FaultProfile { actuation_failure_prob: 1.0, ..FaultProfile::none() });
        let mut faulty = FaultySubstrate::new(bare, plan);
        let err = faulty.reallocate(AppId(1), some_alloc()).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(faulty.allocation(AppId(1)), Some(before), "failed write must not apply");
        assert_eq!(faulty.fault_count(), 1);
    }

    #[test]
    fn fail_windows_block_all_actuations() {
        let mut bare = Ledger::new();
        bare.place(1);
        let profile = FaultProfile {
            fail_windows: vec![FailWindow { start_s: 5.0, end_s: 10.0 }],
            ..FaultProfile::none()
        };
        let mut faulty = FaultySubstrate::new(bare, FaultPlan::new(0, profile));
        assert!(faulty.reallocate(AppId(1), some_alloc()).is_ok(), "before the window");
        faulty.advance(6.0);
        assert!(faulty.reallocate(AppId(1), some_alloc()).is_err(), "inside the window");
        faulty.advance(5.0);
        assert!(faulty.reallocate(AppId(1), some_alloc()).is_ok(), "after the window");
        assert!(faulty.records().iter().any(|r| matches!(r.fault, InjectedFault::OutageWindow)));
    }

    #[test]
    fn dropout_returns_none_and_corruption_fails_validation() {
        let mut bare = Ledger::new();
        bare.place(1);
        let drop_plan =
            FaultPlan::new(1, FaultProfile { counter_dropout_prob: 1.0, ..FaultProfile::none() });
        let faulty = FaultySubstrate::new(bare.clone(), drop_plan);
        assert!(faulty.sample(AppId(1)).is_none());

        let corrupt_plan = FaultPlan::new(
            1,
            FaultProfile { counter_corruption_prob: 1.0, ..FaultProfile::none() },
        );
        let faulty = FaultySubstrate::new(bare, corrupt_plan);
        let s = faulty.sample(AppId(1)).expect("corruption returns a (garbage) sample");
        assert!(!s.is_valid(), "corrupted samples must fail validation");
    }

    #[test]
    fn stale_reads_return_the_previous_window() {
        let mut bare = Ledger::new();
        bare.place(1);
        let plan =
            FaultPlan::new(1, FaultProfile { counter_stale_prob: 1.0, ..FaultProfile::none() });
        let mut faulty = FaultySubstrate::new(bare, plan);
        // First read has no history: passes through fresh values.
        let first = faulty.sample(AppId(1)).unwrap();
        assert!(first.is_valid());
        faulty.advance(1.0);
        let second = faulty.sample(AppId(1)).unwrap();
        assert_eq!(second.ipc, first.ipc, "stale read repeats the previous window");
        assert!(faulty.records().iter().any(|r| matches!(r.fault, InjectedFault::CounterStale)));
    }

    #[test]
    fn noise_keeps_samples_valid_but_changes_them() {
        let mut bare = Ledger::new();
        bare.place(1);
        let clean = bare.sample(AppId(1)).unwrap();
        let plan =
            FaultPlan::new(1, FaultProfile { counter_noise_sigma: 0.2, ..FaultProfile::none() });
        let faulty = FaultySubstrate::new(bare, plan);
        let noisy = faulty.sample(AppId(1)).unwrap();
        assert!(noisy.is_valid());
        assert_ne!(noisy.ipc, clean.ipc);
        assert_eq!(noisy.allocated_cores, clean.allocated_cores, "counts stay exact");
    }

    #[test]
    fn quiet_after_silences_injection() {
        let mut bare = Ledger::new();
        bare.place(1);
        let profile = FaultProfile {
            actuation_failure_prob: 1.0,
            quiet_after_s: Some(10.0),
            ..FaultProfile::none()
        };
        let mut faulty = FaultySubstrate::new(bare, FaultPlan::new(0, profile));
        assert!(faulty.reallocate(AppId(1), some_alloc()).is_err());
        faulty.advance(10.0);
        assert!(faulty.reallocate(AppId(1), some_alloc()).is_ok());
        assert_eq!(faulty.fault_count(), 1, "nothing injected after the quiet point");
    }

    #[test]
    fn latency_injection_is_accounted_not_slept() {
        let mut bare = Ledger::new();
        bare.place(1);
        let plan =
            FaultPlan::new(0, FaultProfile { actuation_latency_ms: 2.5, ..FaultProfile::none() });
        let mut faulty = FaultySubstrate::new(bare, plan);
        let t0 = faulty.now();
        for _ in 0..4 {
            faulty.reallocate(AppId(1), some_alloc()).unwrap();
        }
        assert_eq!(faulty.now(), t0, "clock must not move");
        assert!((faulty.injected_latency_ms() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let plan = FaultPlan::new(
            42,
            FaultProfile {
                fail_windows: vec![FailWindow { start_s: 1.0, end_s: 2.0 }],
                quiet_after_s: Some(9.0),
                ..FaultProfile::chaos_default()
            },
        );
        let back: FaultPlan = serde_json::from_str(&serde_json::to_string(&plan).unwrap()).unwrap();
        assert_eq!(back, plan);
    }
}
