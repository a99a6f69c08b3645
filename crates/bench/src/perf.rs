//! Scheduler-core throughput benchmark: the event-driven engine vs the
//! legacy scan loop at 10/100/1k/10k co-located services.
//!
//! The substrate here is deliberately synthetic: every query the scheduler
//! makes ([`Substrate::sample`], [`Substrate::latency`], the idle-resource
//! views) is O(1) via per-resource refcounts, so the measurement isolates
//! the *scheduler's* per-tick cost — timer bookkeeping, Model-A refresh
//! inference, and the per-service control loop — instead of the simulator's.
//! Counters are synthesized from a seeded hash of `(service, window)`, so a
//! run is a pure function of `(services, ticks, seed)` and both engines see
//! bit-identical inputs; the harness asserts their event logs match.
//!
//! Workload shape: services never violate QoS (wide slack), so the tick is
//! the steady-state hot path — refresh Model-A, check surplus, occasionally
//! reclaim toward the predicted cliff. This is where a co-located box spends
//! almost all of its life, and exactly the path the event-driven core
//! optimizes.

use osml_core::{Models, OsmlConfig, OsmlScheduler};
use osml_models::{ModelA, ModelB, ModelBPrime, ModelC};
use osml_platform::{
    Allocation, AppId, CoreSet, CounterSample, LatencyStats, MbaThrottle, Placement, PlatformError,
    Scheduler, Substrate, Topology, WayMask,
};
use serde::Serialize;
use std::time::Instant;

/// SplitMix64: cheap, well-distributed, and stable across platforms.
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from a hash of `(seed, id, window, salt)`.
fn frac(seed: u64, id: u64, window: u64, salt: u64) -> f64 {
    let h = hash64(seed ^ hash64(id ^ hash64(window ^ salt)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// In-memory substrate with O(1) scheduler-facing queries.
///
/// Core and way occupancy are tracked as per-unit refcounts, so the
/// idle-resource views the allocator leans on cost O(machine width), not
/// O(services) — at 10k co-located services the default trait
/// implementations would otherwise dominate the measurement.
pub struct BenchSubstrate {
    topo: Topology,
    seed: u64,
    clock: f64,
    apps: Vec<AppId>,
    /// Dense by raw id (ids are handed out 0..n).
    allocs: Vec<Option<Allocation>>,
    core_refs: [u32; 64],
    way_refs: [u32; 32],
}

impl BenchSubstrate {
    /// A machine on the paper's testbed topology, synthesizing counters
    /// from `seed`.
    pub fn new(seed: u64) -> Self {
        BenchSubstrate {
            topo: Topology::xeon_e5_2697_v4(),
            seed,
            clock: 0.0,
            apps: Vec::new(),
            allocs: Vec::new(),
            core_refs: [0; 64],
            way_refs: [0; 32],
        }
    }

    fn track(&mut self, alloc: Allocation, add: bool) {
        for core in alloc.cores.iter() {
            let r = &mut self.core_refs[core];
            *r = if add { *r + 1 } else { r.saturating_sub(1) };
        }
        for way in 0..self.topo.llc_ways() {
            if alloc.ways.bits() & (1 << way) != 0 {
                let r = &mut self.way_refs[way];
                *r = if add { *r + 1 } else { r.saturating_sub(1) };
            }
        }
    }

    /// Places the next service on a small shared bootstrap allocation and
    /// returns its id.
    pub fn place_next(&mut self) -> AppId {
        let id = AppId(self.allocs.len() as u64);
        let alloc = Allocation::new(
            CoreSet::first_n(4),
            WayMask::first_n(4.min(self.topo.llc_ways())),
            MbaThrottle::unthrottled(),
        );
        self.allocs.push(Some(alloc));
        self.apps.push(id);
        self.track(alloc, true);
        id
    }

    /// Profiling-window index the synthetic counters are keyed on. OSML's
    /// profiling module aggregates hardware counters over a ~2 s sampling
    /// window (§V-B), so at 1 s ticks a service's observed counters are
    /// stable across consecutive ticks within a window and only step at
    /// window boundaries. Re-randomizing every tick — as an earlier version
    /// of this substrate did — models a workload no real profiler reports:
    /// one whose counters never repeat, which structurally starves any
    /// steady-state optimization (the event engine's dirty-set memo keys on
    /// sample equality) of the windows it exists to exploit.
    fn window(&self) -> u64 {
        (self.clock / 2.0) as u64
    }
}

impl Substrate for BenchSubstrate {
    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn reallocate(&mut self, id: AppId, alloc: Allocation) -> Result<(), PlatformError> {
        alloc.validate(&self.topo)?;
        let slot = self
            .allocs
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(PlatformError::UnknownApp { id: id.0 })?;
        let old = *slot;
        *slot = alloc;
        self.track(old, false);
        self.track(alloc, true);
        Ok(())
    }

    fn remove(&mut self, id: AppId) -> Result<(), PlatformError> {
        let old = self
            .allocs
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or(PlatformError::UnknownApp { id: id.0 })?;
        self.track(old, false);
        self.apps.retain(|&a| a != id);
        Ok(())
    }

    fn advance(&mut self, seconds: f64) {
        self.clock += seconds;
    }

    fn now(&self) -> f64 {
        self.clock
    }

    fn apps(&self) -> Vec<AppId> {
        self.apps.clone()
    }

    fn allocation(&self, id: AppId) -> Option<Allocation> {
        self.allocs.get(id.0 as usize).copied().flatten()
    }

    fn sample(&self, id: AppId) -> Option<CounterSample> {
        let alloc = self.allocation(id)?;
        let (s, i, w) = (self.seed, id.0, self.window());
        Some(CounterSample {
            ipc: 0.5 + 1.5 * frac(s, i, w, 1),
            llc_misses_per_sec: 1e6 * frac(s, i, w, 2),
            mbl_gbps: 10.0 * frac(s, i, w, 3),
            cpu_usage: alloc.cores.count() as f64 * frac(s, i, w, 4),
            memory_util_gb: 4.0 * frac(s, i, w, 5),
            virt_memory_gb: 8.0 * frac(s, i, w, 6),
            res_memory_gb: 4.0 * frac(s, i, w, 7),
            llc_occupancy_mb: 20.0 * frac(s, i, w, 8),
            allocated_cores: alloc.cores.count(),
            allocated_ways: alloc.ways.count(),
            frequency_ghz: 2.3,
            response_latency_ms: 1.0 + frac(s, i, w, 9),
        })
    }

    fn latency(&self, id: AppId) -> Option<LatencyStats> {
        self.allocation(id)?;
        // Wide slack, never violating: the benchmark measures the
        // steady-state path, not violation recovery.
        Some(LatencyStats {
            mean_ms: 1.0,
            p95_ms: 2.0,
            achieved_rps: 100.0,
            offered_rps: 100.0,
            qos_target_ms: 10.0,
        })
    }

    fn idle_cores(&self) -> CoreSet {
        let mut idle = CoreSet::new();
        for core in 0..self.topo.logical_cores() {
            if self.core_refs[core] == 0 {
                idle.insert(core);
            }
        }
        idle
    }

    fn idle_way_count(&self) -> usize {
        (0..self.topo.llc_ways()).filter(|&w| self.way_refs[w] == 0).count()
    }

    fn occupied_ways(&self, except: Option<AppId>) -> u32 {
        let mut used = 0u32;
        for way in 0..self.topo.llc_ways() {
            if self.way_refs[way] > 0 {
                used |= 1 << way;
            }
        }
        if let Some(ex) = except {
            if let Some(alloc) = self.allocation(ex) {
                // Ways only `except` holds are not occupied from its view.
                for way in 0..self.topo.llc_ways() {
                    if alloc.ways.bits() & (1 << way) != 0 && self.way_refs[way] == 1 {
                        used &= !(1 << way);
                    }
                }
            }
        }
        used
    }
}

/// Wall-clock and throughput of one engine at one fleet size.
#[derive(Debug, Clone, Serialize)]
pub struct EngineRun {
    /// Seconds spent inside the tick loop.
    pub wall_secs: f64,
    /// Scheduled service-ticks per second (`services * ticks / wall`).
    pub service_ticks_per_sec: f64,
    /// Model forward passes (scheduling decisions) per second.
    pub decisions_per_sec: f64,
    /// Model forward passes observed during the loop.
    pub decisions: u64,
}

/// Scan-vs-event comparison at one fleet size.
#[derive(Debug, Clone, Serialize)]
pub struct SizePoint {
    /// Co-located services.
    pub services: usize,
    /// Measured scheduler ticks.
    pub ticks: usize,
    /// Legacy scan engine.
    pub scan: EngineRun,
    /// Event-driven + batched engine.
    pub event: EngineRun,
    /// `event.service_ticks_per_sec / scan.service_ticks_per_sec`.
    pub speedup: f64,
}

/// The untrained-but-structurally-valid model suite the benchmark runs
/// with: weights are a pure function of the seeds, so both engines (and
/// repeated runs) execute identical inference.
pub fn bench_models() -> Models {
    Models {
        model_a: ModelA::new(36, 20, 1),
        model_b: ModelB::new(36, 20, 2),
        model_b_prime: ModelBPrime::new(3),
        model_c: ModelC::new(4),
    }
}

fn run_engine(event_driven: bool, services: usize, ticks: usize, seed: u64) -> (EngineRun, u64) {
    let config = OsmlConfig {
        placement_via_models: false,
        manage_bandwidth: false,
        online_learning: false,
        event_driven,
        ..OsmlConfig::default()
    };
    let mut scheduler = OsmlScheduler::new(bench_models(), config);
    let mut server = BenchSubstrate::new(seed);
    for _ in 0..services {
        let id = server.place_next();
        assert_eq!(
            scheduler.on_arrival(&mut server, id),
            Placement::Placed,
            "bench placement is unconditional under placement_via_models: false"
        );
    }
    let decisions_before = scheduler.decision_count();
    let start = Instant::now();
    for _ in 0..ticks {
        server.advance(1.0);
        scheduler.tick(&mut server);
    }
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    let decisions = scheduler.decision_count() - decisions_before;
    let log_fingerprint = fingerprint(&scheduler);
    (
        EngineRun {
            wall_secs,
            service_ticks_per_sec: (services * ticks) as f64 / wall_secs,
            decisions_per_sec: decisions as f64 / wall_secs,
            decisions,
        },
        log_fingerprint,
    )
}

/// A cheap structural fingerprint of the run's decisions: both engines must
/// schedule identically, and hashing keeps the comparison allocation-light
/// at 10k services.
fn fingerprint(scheduler: &OsmlScheduler) -> u64 {
    let mut acc = 0u64;
    for event in scheduler.unified_log().decisions() {
        let line = format!("{:?}", event);
        for b in line.as_bytes() {
            acc = hash64(acc ^ u64::from(*b));
        }
    }
    acc
}

/// Timing repetitions per engine: small fleets finish a whole run in
/// microseconds, where one scheduler hiccup (page fault, frequency ramp)
/// swamps the signal. Best-of-N with interleaved engines keeps both arms
/// exposed to the same machine state.
const TIMING_REPS: usize = 3;

/// Measures both engines at one fleet size — best of [`TIMING_REPS`]
/// interleaved repetitions per engine — asserting they produced identical
/// event logs on every repetition.
pub fn measure(services: usize, ticks: usize, seed: u64) -> SizePoint {
    let mut scan: Option<EngineRun> = None;
    let mut event: Option<EngineRun> = None;
    for _ in 0..TIMING_REPS {
        let (s, scan_log) = run_engine(false, services, ticks, seed);
        let (e, event_log) = run_engine(true, services, ticks, seed);
        assert_eq!(
            scan_log, event_log,
            "scan and event engines diverged at {services} services (seed {seed})"
        );
        if scan.as_ref().is_none_or(|best| s.wall_secs < best.wall_secs) {
            scan = Some(s);
        }
        if event.as_ref().is_none_or(|best| e.wall_secs < best.wall_secs) {
            event = Some(e);
        }
    }
    let (scan, event) = (scan.expect("at least one rep"), event.expect("at least one rep"));
    let speedup = event.service_ticks_per_sec / scan.service_ticks_per_sec.max(1e-9);
    SizePoint { services, ticks, scan, event, speedup }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_substrate_tracks_occupancy() {
        let mut s = BenchSubstrate::new(7);
        let a = s.place_next();
        let b = s.place_next();
        assert_eq!(s.apps(), vec![a, b]);
        assert_eq!(s.idle_cores().count(), s.topology().logical_cores() - 4);
        assert_eq!(s.idle_way_count(), s.topology().llc_ways() - 4);
        // Both services share the bootstrap ways, so from either's view the
        // ways stay occupied; after a move apart they free up.
        assert_ne!(s.occupied_ways(Some(a)), 0);
        let moved = Allocation::new(
            CoreSet::from_cores([10, 11]),
            WayMask::contiguous(10, 2).unwrap(),
            MbaThrottle::unthrottled(),
        );
        s.reallocate(b, moved).unwrap();
        assert_eq!(s.occupied_ways(Some(a)) & 0b1111, 0);
        s.remove(b).unwrap();
        assert_eq!(s.apps(), vec![a]);
        assert_eq!(s.idle_way_count(), s.topology().llc_ways() - 4);
    }

    #[test]
    fn sample_is_deterministic_and_valid() {
        let mut s = BenchSubstrate::new(42);
        let id = s.place_next();
        let one = s.sample(id).unwrap();
        assert!(one.is_valid());
        assert_eq!(s.sample(id), Some(one), "same window must resample identically");
        s.advance(1.0);
        assert_eq!(
            s.sample(id),
            Some(one),
            "counters hold steady across ticks inside one profiling window"
        );
        s.advance(1.0);
        assert_ne!(s.sample(id), Some(one), "new window must vary the counters");
    }

    #[test]
    fn engines_agree_at_small_scale() {
        let point = measure(8, 25, 0xbeef);
        assert_eq!(point.services, 8);
        assert!(point.scan.service_ticks_per_sec > 0.0);
        assert!(point.event.service_ticks_per_sec > 0.0);
    }
}
