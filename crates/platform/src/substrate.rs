use crate::{Allocation, CoreSet, CounterSample, LatencyStats, PlatformError, Topology, WayMask};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a running service instance on one server.
///
/// Ids are allocated by the substrate when a service is placed and stay
/// stable until the service is removed (or migrated away).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AppId(pub u64);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

/// The machine interface every scheduler in this repository drives.
///
/// On the paper's testbed this role is played by Linux + `taskset` + Intel
/// CAT/MBA + `pqos`/PMU; here it is implemented by the analytic co-location
/// simulator in `osml-workloads` (`SimServer`). Keeping schedulers generic
/// over `Substrate` means OSML, PARTIES and the unmanaged baseline all
/// exercise identical control paths.
///
/// Time is explicit: nothing changes until [`Substrate::advance`] is called,
/// which runs the machine forward and refreshes counters and latency
/// statistics. Samples are averages over the most recent `advance` window,
/// matching the paper's 1-second `pqos` sampling.
pub trait Substrate {
    /// The machine's hardware geometry.
    fn topology(&self) -> &Topology;

    /// Changes a placed service's resource allocation (cores / ways / MBA).
    ///
    /// # Errors
    ///
    /// Fails if `id` is unknown or the allocation is invalid for this
    /// machine.
    fn reallocate(&mut self, id: AppId, alloc: Allocation) -> Result<(), PlatformError>;

    /// Removes a service from the machine (completion or migration).
    ///
    /// # Errors
    ///
    /// Fails if `id` is unknown.
    fn remove(&mut self, id: AppId) -> Result<(), PlatformError>;

    /// Runs the machine forward by `seconds` of simulated time.
    fn advance(&mut self, seconds: f64);

    /// Current simulated time in seconds since the server booted.
    fn now(&self) -> f64;

    /// Services currently placed, in placement order.
    fn apps(&self) -> Vec<AppId>;

    /// Allocation currently programmed for `id`, if placed.
    fn allocation(&self, id: AppId) -> Option<Allocation>;

    /// Latest counter sample for `id` (averaged over the last `advance`
    /// window), if placed.
    fn sample(&self, id: AppId) -> Option<CounterSample>;

    /// [`Substrate::sample`] under the name a speculative reader (the batched
    /// inference pre-passes, since deleted) once called it by. Nothing under
    /// `crates/` calls or overrides it; it survives only because the frozen
    /// `benchmark/src/traced.rs` implements it, and goes with that
    /// (ROADMAP item 3).
    fn peek_sample(&self, id: AppId) -> Option<CounterSample> {
        self.sample(id)
    }

    /// Latest latency statistics for `id`, if placed.
    fn latency(&self, id: AppId) -> Option<LatencyStats>;

    /// Cores not allocated to any service.
    fn idle_cores(&self) -> CoreSet {
        let mut used = CoreSet::new();
        for id in self.apps() {
            if let Some(a) = self.allocation(id) {
                used = used.union(a.cores);
            }
        }
        CoreSet::all(self.topology()).difference(used)
    }

    /// Ways not allocated to any service, as a count. (The idle ways need not
    /// be contiguous once services hold arbitrary masks, so only the count is
    /// meaningful here; mask layout is the allocator's business.)
    fn idle_way_count(&self) -> usize {
        let total = self.topology().llc_ways();
        let mut used = 0u32;
        for id in self.apps() {
            if let Some(a) = self.allocation(id) {
                used |= a.ways.bits();
            }
        }
        total - (used.count_ones() as usize).min(total)
    }

    /// Union of way masks currently held by services other than `except`.
    fn occupied_ways(&self, except: Option<AppId>) -> u32 {
        let mut used = 0u32;
        for id in self.apps() {
            if Some(id) == except {
                continue;
            }
            if let Some(a) = self.allocation(id) {
                used |= a.ways.bits();
            }
        }
        used
    }

    /// Finds a contiguous run of `count` ways that does not overlap any
    /// other service's mask (ignoring `except`'s own mask). Returns `None`
    /// if no such run exists.
    fn find_free_ways(&self, count: usize, except: Option<AppId>) -> Option<WayMask> {
        let total = self.topology().llc_ways();
        if count == 0 || count > total {
            return None;
        }
        let used = self.occupied_ways(except);
        (0..=total.saturating_sub(count)).find_map(|first| {
            let mask = WayMask::contiguous(first, count).ok()?;
            (mask.bits() & used == 0).then_some(mask)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MbaThrottle;
    use std::collections::BTreeMap;

    /// Minimal in-memory substrate used to exercise the trait's provided
    /// methods without pulling in the workload simulator.
    struct Ledger {
        topo: Topology,
        apps: BTreeMap<AppId, Allocation>,
        clock: f64,
    }

    impl Ledger {
        fn new() -> Self {
            Ledger { topo: Topology::xeon_e5_2697_v4(), apps: BTreeMap::new(), clock: 0.0 }
        }
        fn place(&mut self, id: u64, alloc: Allocation) {
            self.apps.insert(AppId(id), alloc);
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
        fn sample(&self, _id: AppId) -> Option<CounterSample> {
            None
        }
        fn latency(&self, _id: AppId) -> Option<LatencyStats> {
            None
        }
    }

    fn alloc(cores: std::ops::Range<usize>, first_way: usize, ways: usize) -> Allocation {
        Allocation::new(
            CoreSet::from_cores(cores),
            WayMask::contiguous(first_way, ways).unwrap(),
            MbaThrottle::unthrottled(),
        )
    }

    #[test]
    fn idle_accounting() {
        let mut s = Ledger::new();
        assert_eq!(s.idle_cores().count(), 36);
        assert_eq!(s.idle_way_count(), 20);
        s.place(1, alloc(0..6, 0, 10));
        s.place(2, alloc(6..14, 10, 4));
        assert_eq!(s.idle_cores().count(), 36 - 14);
        assert_eq!(s.idle_way_count(), 6);
    }

    #[test]
    fn overlapping_masks_count_once() {
        let mut s = Ledger::new();
        s.place(1, alloc(0..2, 0, 10));
        s.place(2, alloc(2..4, 5, 10)); // ways 5..15 overlap 0..10
        assert_eq!(s.idle_way_count(), 5);
    }

    #[test]
    fn find_free_ways_skips_occupied_runs() {
        let mut s = Ledger::new();
        s.place(1, alloc(0..2, 0, 8)); // ways 0..8
        s.place(2, alloc(2..4, 12, 4)); // ways 12..16
                                        // Free runs: 8..12 (4 ways) and 16..20 (4 ways).
        let m = s.find_free_ways(4, None).unwrap();
        assert_eq!((m.first(), m.count()), (8, 4));
        assert!(s.find_free_ways(5, None).is_none());
        // Ignoring app 2's mask opens 8..16.
        let m = s.find_free_ways(8, Some(AppId(2))).unwrap();
        assert_eq!((m.first(), m.count()), (8, 8));
    }

    #[test]
    fn find_free_ways_zero_is_none() {
        let s = Ledger::new();
        assert!(s.find_free_ways(0, None).is_none());
        assert!(s.find_free_ways(20, None).is_some());
        assert!(s.find_free_ways(21, None).is_none());
    }

    #[test]
    fn reallocate_unknown_app_fails() {
        let mut s = Ledger::new();
        let err = s.reallocate(AppId(9), alloc(0..1, 0, 1)).unwrap_err();
        assert_eq!(err, PlatformError::UnknownApp { id: 9 });
    }

    #[test]
    fn app_id_display() {
        assert_eq!(AppId(3).to_string(), "app#3");
    }
}
