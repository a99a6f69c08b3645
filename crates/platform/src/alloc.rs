use crate::{MbaThrottle, PlatformError, Topology, WayMask};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of logical cores, as passed to `taskset`.
///
/// Backed by a 64-bit bitmap, so machines of up to 64 hardware threads are
/// supported (the paper's testbed has 36).
///
/// # Example
///
/// ```
/// use osml_platform::CoreSet;
///
/// let mut s = CoreSet::first_n(4);
/// s.insert(10);
/// assert_eq!(s.count(), 5);
/// assert!(s.contains(10));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 10]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoreSet(u64);

impl CoreSet {
    /// The empty core set.
    pub fn new() -> Self {
        CoreSet(0)
    }

    /// A set containing logical cores `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= 64, "CoreSet supports at most 64 cores");
        if n == 64 {
            CoreSet(u64::MAX)
        } else {
            CoreSet((1u64 << n) - 1)
        }
    }

    /// A set containing every logical core of `topo`.
    pub fn all(topo: &Topology) -> Self {
        CoreSet::first_n(topo.logical_cores())
    }

    /// Builds a set from an iterator of core indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is ≥ 64.
    pub fn from_cores<I: IntoIterator<Item = usize>>(cores: I) -> Self {
        let mut s = CoreSet::new();
        for c in cores {
            s.insert(c);
        }
        s
    }

    /// Raw bitmap.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Number of cores in the set.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `core` is in the set.
    pub fn contains(self, core: usize) -> bool {
        core < 64 && self.0 & (1u64 << core) != 0
    }

    /// Adds `core` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `core ≥ 64`.
    pub fn insert(&mut self, core: usize) {
        assert!(core < 64, "core {core} exceeds CoreSet capacity");
        self.0 |= 1u64 << core;
    }

    /// Removes `core` from the set.
    pub fn remove(&mut self, core: usize) {
        if core < 64 {
            self.0 &= !(1u64 << core);
        }
    }

    /// Set union.
    pub fn union(self, other: CoreSet) -> CoreSet {
        CoreSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(self, other: CoreSet) -> CoreSet {
        CoreSet(self.0 & other.0)
    }

    /// Cores in `self` but not in `other`.
    pub fn difference(self, other: CoreSet) -> CoreSet {
        CoreSet(self.0 & !other.0)
    }

    /// Whether any core is shared with `other`.
    pub fn overlaps(self, other: CoreSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterates over core indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..64).filter(move |&c| self.contains(c))
    }

    /// Checks every core is within `topo` and the set is non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::EmptyCoreSet`] for an empty set and
    /// [`PlatformError::CoreOutOfRange`] for a core beyond the machine.
    pub fn validate(self, topo: &Topology) -> Result<(), PlatformError> {
        if self.is_empty() {
            return Err(PlatformError::EmptyCoreSet);
        }
        let total = topo.logical_cores();
        match self.iter().find(|&c| c >= total) {
            Some(core) => Err(PlatformError::CoreOutOfRange { core, total }),
            None => Ok(()),
        }
    }

    /// Effective compute capacity of this core set on `topo`, in units of
    /// "full physical cores".
    ///
    /// A physical core with one allocated hardware thread contributes 1.0;
    /// with both HT siblings allocated it contributes `HT_PAIR_YIELD`
    /// (1.3), reflecting the ~30 % throughput gain SMT typically provides.
    /// This is the quantity the workload models use for capacity.
    pub fn effective_cores(self, topo: &Topology) -> f64 {
        let phys = topo.physical_cores();
        let mut per_phys = vec![0u8; phys];
        for c in self.iter().take_while(|&c| c < topo.logical_cores()) {
            per_phys[topo.physical_of(c)] += 1;
        }
        per_phys
            .iter()
            .map(|&n| match n {
                0 => 0.0,
                1 => 1.0,
                _ => HT_PAIR_YIELD,
            })
            .sum()
    }

    /// Picks `n` cores from this set, preferring to fill distinct physical
    /// cores before doubling up on HT siblings (how a NUMA-aware operator
    /// would pin a latency-critical service). Returns `None` if the set has
    /// fewer than `n` cores.
    pub fn pick_spread(self, topo: &Topology, n: usize) -> Option<CoreSet> {
        if self.count() < n {
            return None;
        }
        let phys = topo.physical_cores();
        let mut taken = CoreSet::new();
        let mut used_phys = vec![false; phys];
        // First pass: one thread per physical core.
        for c in self.iter() {
            if taken.count() == n {
                break;
            }
            let p = topo.physical_of(c);
            if !used_phys[p] {
                used_phys[p] = true;
                taken.insert(c);
            }
        }
        // Second pass: fill HT siblings.
        for c in self.iter() {
            if taken.count() == n {
                break;
            }
            if !taken.contains(c) {
                taken.insert(c);
            }
        }
        Some(taken)
    }
}

/// Combined throughput of two hardware threads sharing one physical core,
/// relative to a single thread running alone on it.
pub const HT_PAIR_YIELD: f64 = 1.3;

impl FromIterator<usize> for CoreSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        CoreSet::from_cores(iter)
    }
}

impl Extend<usize> for CoreSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl fmt::Display for CoreSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cores{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// One service's full resource vector: `<cores, LLC ways, bandwidth>`.
///
/// This is the unit OSML's central controller manipulates (Algorithms 1–4 of
/// the paper) and the unit the [`crate::Substrate`] trait accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Allocation {
    /// Logical cores the service's threads are pinned to.
    pub cores: CoreSet,
    /// LLC ways in the service's CAT class of service.
    pub ways: WayMask,
    /// MBA bandwidth cap.
    pub mba: MbaThrottle,
}

impl Allocation {
    /// Builds an allocation from its three components.
    pub fn new(cores: CoreSet, ways: WayMask, mba: MbaThrottle) -> Self {
        Allocation { cores, ways, mba }
    }

    /// The whole machine: every core, every way, unthrottled. This is what a
    /// service gets when it runs alone (the paper's solo baseline).
    pub fn whole_machine(topo: &Topology) -> Self {
        Allocation {
            cores: CoreSet::all(topo),
            ways: WayMask::all(topo),
            mba: MbaThrottle::unthrottled(),
        }
    }

    /// Validates all components against `topo`.
    ///
    /// # Errors
    ///
    /// Propagates the first component error (see [`CoreSet::validate`] and
    /// [`WayMask::validate`]).
    pub fn validate(&self, topo: &Topology) -> Result<(), PlatformError> {
        self.cores.validate(topo)?;
        self.ways.validate(topo)?;
        Ok(())
    }

    /// LLC capacity of the allocation on `topo`, in MB.
    pub fn cache_mb(&self, topo: &Topology) -> f64 {
        self.ways.capacity_mb(topo)
    }
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{} cores, {} ways, {}>", self.cores.count(), self.ways.count(), self.mba)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::xeon_e5_2697_v4()
    }

    #[test]
    fn set_operations() {
        let a = CoreSet::from_cores([0, 1, 2, 3]);
        let b = CoreSet::from_cores([2, 3, 4, 5]);
        assert_eq!(a.union(b).count(), 6);
        assert_eq!(a.intersection(b).count(), 2);
        assert_eq!(a.difference(b), CoreSet::from_cores([0, 1]));
        assert!(a.overlaps(b));
        assert!(!a.overlaps(CoreSet::from_cores([10])));
    }

    #[test]
    fn first_n_64_is_full() {
        assert_eq!(CoreSet::first_n(64).count(), 64);
        assert_eq!(CoreSet::first_n(0).count(), 0);
    }

    #[test]
    fn validate_rejects_empty_and_out_of_range() {
        let t = topo();
        assert_eq!(CoreSet::new().validate(&t), Err(PlatformError::EmptyCoreSet));
        let s = CoreSet::from_cores([36]);
        assert!(matches!(s.validate(&t), Err(PlatformError::CoreOutOfRange { core: 36, .. })));
        assert!(CoreSet::first_n(36).validate(&t).is_ok());
    }

    #[test]
    fn effective_cores_counts_ht_pairs_once() {
        let t = topo();
        // Cores 0..6 are on six distinct physical cores.
        assert!((CoreSet::first_n(6).effective_cores(&t) - 6.0).abs() < 1e-12);
        // Core 0 and its sibling 18 share a physical core.
        let pair = CoreSet::from_cores([0, 18]);
        assert!((pair.effective_cores(&t) - HT_PAIR_YIELD).abs() < 1e-12);
        // All 36 logical cores => 18 * 1.3.
        let all = CoreSet::all(&t);
        assert!((all.effective_cores(&t) - 18.0 * HT_PAIR_YIELD).abs() < 1e-9);
    }

    #[test]
    fn pick_spread_prefers_distinct_physical_cores() {
        let t = topo();
        let picked = CoreSet::all(&t).pick_spread(&t, 6).unwrap();
        assert_eq!(picked.count(), 6);
        let phys: std::collections::HashSet<_> = picked.iter().map(|c| t.physical_of(c)).collect();
        assert_eq!(phys.len(), 6, "six cores should land on six physical cores");
    }

    #[test]
    fn pick_spread_doubles_up_only_when_forced() {
        let t = topo();
        let picked = CoreSet::all(&t).pick_spread(&t, 20).unwrap();
        assert_eq!(picked.count(), 20);
        // 18 physical cores, so exactly 2 must be HT doubles.
        assert!((picked.effective_cores(&t) - (16.0 + 2.0 * HT_PAIR_YIELD)).abs() < 1e-9);
    }

    #[test]
    fn pick_spread_returns_none_when_short() {
        let t = topo();
        assert!(CoreSet::first_n(3).pick_spread(&t, 4).is_none());
    }

    #[test]
    fn whole_machine_is_valid() {
        let t = topo();
        let a = Allocation::whole_machine(&t);
        assert!(a.validate(&t).is_ok());
        assert_eq!(a.cores.count(), 36);
        assert_eq!(a.ways.count(), 20);
        assert!((a.cache_mb(&t) - 45.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        let a =
            Allocation::new(CoreSet::first_n(2), WayMask::first_n(3), MbaThrottle::unthrottled());
        assert_eq!(a.to_string(), "<2 cores, 3 ways, mba 100%>");
        assert_eq!(CoreSet::from_cores([1, 5]).to_string(), "cores{1,5}");
    }

    #[test]
    fn from_iterator_and_extend() {
        let s: CoreSet = [3usize, 1, 2].into_iter().collect();
        assert_eq!(s.count(), 3);
        let mut s2 = CoreSet::new();
        s2.extend([7usize, 8]);
        assert!(s2.contains(7) && s2.contains(8));
    }
}
