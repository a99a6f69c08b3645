//! The co-location server simulator: an [`Substrate`] implementation that
//! places analytic services on a [`Topology`], resolves cross-service
//! contention to a fixed point each tick, and synthesizes Table-3 counters.

use crate::perf::{self, PerfInput, PerfOutcome, Prepared};
use crate::Service;
use osml_platform::{
    Allocation, AppId, CoreSet, CounterSample, LatencyStats, PlatformError, Substrate, Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Throughput discount per additional service time-sharing a core.
const CORE_SHARE_PENALTY: f64 = 0.06;

/// Yield of one hardware thread when its HT sibling is also busy.
const HT_SHARED_YIELD: f64 = 0.65;

/// Iterations of the bandwidth-contention fixed point. The damped update
/// converges geometrically; 12 rounds leave residuals ≪ 1 % even from a cold
/// start (`mem_stall = 1` on a saturated bus), and `mem_stall` is carried
/// from one `recompute` to the next, so a machine nobody touches settles to
/// a bit-stable state within a few steps (both asserted in this module's
/// tests). The count is fixed rather than tolerance-driven so that a step's
/// result is a function of the call sequence alone.
const FIXED_POINT_ITERS: usize = 12;

/// Gain of the DRAM-bus queueing stall as total traffic approaches the bus
/// capacity (`stall = 1 + gain * pressure^exponent`).
const DRAM_QUEUE_GAIN: f64 = 4.0;

/// Exponent of the DRAM-bus queueing stall: gentle below ~50 % of practical
/// bandwidth, steep beyond it — the familiar DDR4 loaded-latency curve.
const DRAM_QUEUE_EXPONENT: i32 = 4;

/// Fraction of the catalog bandwidth that is practically achievable before
/// queueing dominates (bank conflicts, refresh, read/write turnarounds).
const PRACTICAL_BW_FRACTION: f64 = 0.7;

/// Seconds after an allocation change during which samples carry extra
/// warm-up noise (cache refill, thread re-balancing) — the reason the paper
/// samples for 2 s before trusting Model-A's inputs (§V-B).
const WARMUP_WINDOW_S: f64 = 2.0;

/// Extra multiplicative noise sigma during the warm-up window.
const WARMUP_NOISE_SIGMA: f64 = 0.25;

/// Configuration of a simulated server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Hardware geometry; defaults to the paper's testbed.
    pub topology: Topology,
    /// Standard deviation of the multiplicative log-normal latency noise
    /// (0.02 ≈ ±2 % run-to-run jitter). Zero gives a fully deterministic
    /// machine, which the ground-truth sweeps use.
    pub noise_sigma: f64,
    /// Seed for the noise stream.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { topology: Topology::xeon_e5_2697_v4(), noise_sigma: 0.02, seed: 0x05_51_1a_b5 }
    }
}

impl SimConfig {
    /// A noiseless configuration, for ground-truth sweeps and property tests.
    pub fn deterministic() -> Self {
        SimConfig { noise_sigma: 0.0, ..SimConfig::default() }
    }
}

/// How a service is launched: which service, how many threads, what load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaunchSpec {
    /// Which service binary is started.
    pub service: Service,
    /// Number of worker threads.
    pub threads: usize,
    /// Offered load, requests per second.
    pub offered_rps: f64,
}

impl LaunchSpec {
    /// Launches `service` with its default thread count at `offered_rps`.
    pub fn new(service: Service, offered_rps: f64) -> Self {
        LaunchSpec { service, threads: service.params().default_threads, offered_rps }
    }

    /// Launches `service` at `percent` of its nominal maximum load.
    pub fn at_percent_load(service: Service, percent: f64) -> Self {
        LaunchSpec::new(service, service.params().nominal_max_rps() * percent / 100.0)
    }
}

#[derive(Debug, Clone)]
struct AppState {
    spec: LaunchSpec,
    alloc: Allocation,
    mem_stall: f64,
    outcome: PerfOutcome,
    sample: CounterSample,
    latency: LatencyStats,
    /// Simulated time of the last allocation change (for warm-up noise).
    changed_at: f64,
}

/// What the solver derives for one app from the population and the
/// allocations alone: loads, stalls and the clock do not move it.
#[derive(Debug, Clone, Copy)]
struct PreparedApp {
    /// The allocation-dependent half of the performance model at this app's
    /// share of cores and cache.
    perf: Prepared,
    /// Bandwidth this app's MBA throttle lets through, GB/s.
    bw_cap_gbps: f64,
}

/// A simulated co-location server.
///
/// # Example
///
/// ```
/// use osml_platform::{Allocation, CoreSet, MbaThrottle, Substrate, WayMask};
/// use osml_workloads::{LaunchSpec, Service, SimConfig, SimServer};
///
/// let mut server = SimServer::new(SimConfig::deterministic());
/// let alloc = Allocation::new(
///     CoreSet::first_n(16),
///     WayMask::contiguous(0, 12)?,
///     MbaThrottle::unthrottled(),
/// );
/// let id = server.launch(LaunchSpec::new(Service::Moses, 2200.0), alloc)?;
/// server.advance(2.0);
/// let lat = server.latency(id).unwrap();
/// assert!(lat.p95_ms < lat.qos_target_ms, "16 cores / 12 ways meets Moses QoS");
/// # Ok::<(), osml_platform::PlatformError>(())
/// ```
#[derive(Debug)]
pub struct SimServer {
    topo: Topology,
    apps: BTreeMap<AppId, AppState>,
    next_id: u64,
    clock: f64,
    noise_sigma: f64,
    rng: StdRng,
    /// One entry per app in id order; empty while stale (`launch`, `remove`
    /// and a `reallocate` that changes an allocation clear it, `set_load`
    /// and `advance` do not) and rebuilt by the next `recompute`.
    prepared: Vec<PreparedApp>,
    /// Scratch of the fixed point: each app's bandwidth demand, in id order.
    bw_demand: Vec<f64>,
    /// Routes `recompute` to the solver this one replaced, which the oracle
    /// tests in `reference` hold it against.
    #[cfg(test)]
    reference_solver: bool,
}

impl SimServer {
    /// Creates a server with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        SimServer {
            topo: config.topology,
            apps: BTreeMap::new(),
            next_id: 0,
            clock: 0.0,
            noise_sigma: config.noise_sigma,
            rng: StdRng::seed_from_u64(config.seed),
            prepared: Vec::new(),
            bw_demand: Vec::new(),
            #[cfg(test)]
            reference_solver: false,
        }
    }

    /// Creates a deterministic server on the paper's testbed topology.
    pub fn deterministic() -> Self {
        SimServer::new(SimConfig::deterministic())
    }

    /// Places a new service on the machine.
    ///
    /// Counters and latency are available after the next [`Substrate::advance`].
    ///
    /// # Errors
    ///
    /// Fails if the allocation is invalid for this machine's topology.
    pub fn launch(&mut self, spec: LaunchSpec, alloc: Allocation) -> Result<AppId, PlatformError> {
        alloc.validate(&self.topo)?;
        let id = AppId(self.next_id);
        self.next_id += 1;
        let mut placeholder = Self::empty_state(spec, alloc);
        placeholder.changed_at = self.clock;
        self.apps.insert(id, placeholder);
        self.prepared.clear();
        self.recompute();
        Ok(id)
    }

    /// Changes a running service's offered load (the Fig. 14 load steps).
    ///
    /// # Errors
    ///
    /// Fails if `id` is not placed.
    pub fn set_load(&mut self, id: AppId, offered_rps: f64) -> Result<(), PlatformError> {
        let app = self.apps.get_mut(&id).ok_or(PlatformError::UnknownApp { id: id.0 })?;
        app.spec.offered_rps = offered_rps;
        self.recompute();
        Ok(())
    }

    /// The service running under `id`, if placed.
    pub fn service_of(&self, id: AppId) -> Option<Service> {
        self.apps.get(&id).map(|a| a.spec.service)
    }

    /// The launch spec of `id`, if placed.
    pub fn spec_of(&self, id: AppId) -> Option<LaunchSpec> {
        self.apps.get(&id).map(|a| a.spec)
    }

    /// Full model outcome for `id` (richer than the public counters), if
    /// placed. Ground-truth tooling uses this; schedulers must not.
    pub fn outcome(&self, id: AppId) -> Option<PerfOutcome> {
        self.apps.get(&id).map(|a| a.outcome)
    }

    fn empty_state(spec: LaunchSpec, alloc: Allocation) -> AppState {
        let zero_outcome = PerfOutcome {
            service_time_ms: 0.0,
            mean_ms: 0.0,
            p95_ms: 0.0,
            utilization: 0.0,
            achieved_rps: 0.0,
            capacity_rps: 0.0,
            misses_per_sec: 0.0,
            bw_demand_gbps: 0.0,
            ipc: 0.0,
            cpu_usage: 0.0,
            llc_occupancy_mb: 0.0,
        };
        AppState {
            spec,
            alloc,
            mem_stall: 1.0,
            changed_at: 0.0,
            outcome: zero_outcome,
            sample: CounterSample {
                ipc: 0.0,
                llc_misses_per_sec: 0.0,
                mbl_gbps: 0.0,
                cpu_usage: 0.0,
                memory_util_gb: 0.0,
                virt_memory_gb: 0.0,
                res_memory_gb: 0.0,
                llc_occupancy_mb: 0.0,
                allocated_cores: alloc.cores.count(),
                allocated_ways: alloc.ways.count(),
                frequency_ghz: 0.0,
                response_latency_ms: 0.0,
            },
            latency: LatencyStats {
                mean_ms: 0.0,
                p95_ms: 0.0,
                achieved_rps: 0.0,
                offered_rps: spec.offered_rps,
                qos_target_ms: spec.service.params().qos_ms,
            },
        }
    }

    /// Rebuilds `prepared`: splits shared LLC ways and time-shared cores
    /// among their holders, then prepares each app's performance model at
    /// its share.
    ///
    /// Each way's capacity is divided among its holders in proportion to
    /// their working-set pressure, the first-order behaviour of an
    /// LRU-managed shared cache. Each core is divided in proportion to its
    /// holders' thread demand per core, discounted when its HT sibling is
    /// busy, and time-slicing stretches service time by the average number
    /// of co-holders. Per-way and per-core totals are summed over apps in id
    /// order and each app's shares over its ways and cores in index order:
    /// the order is part of the result's bits.
    fn prepare_apps(&mut self) {
        let way_mb = self.topo.way_mb();
        let bw_total = self.topo.memory_bw_gbps();
        let freq = self.topo.frequency_ghz();
        let ways_of = |app: &AppState| {
            let bits = app.alloc.ways.bits();
            (0..u32::BITS as usize).filter(move |&way| bits & (1 << way) != 0)
        };
        let thread_weight =
            |app: &AppState| app.spec.threads as f64 / app.alloc.cores.count().max(1) as f64;

        // `WayMask` and `CoreSet` are a `u32` and a `u64` of bits.
        let mut way_pressure = [0.0f64; u32::BITS as usize];
        let mut core_weight = [0.0f64; u64::BITS as usize];
        let mut core_holders = [0u32; u64::BITS as usize];
        let mut busy = CoreSet::new();
        for app in self.apps.values() {
            let (wss_mb, weight) = (app.spec.service.params().wss_mb, thread_weight(app));
            for way in ways_of(app) {
                way_pressure[way] += wss_mb;
            }
            for core in app.alloc.cores.iter() {
                core_weight[core] += weight;
                core_holders[core] += 1;
            }
            busy = busy.union(app.alloc.cores);
        }

        self.prepared.clear();
        for app in self.apps.values() {
            let params = app.spec.service.params();
            let mut cache_mb = 0.0;
            for way in ways_of(app) {
                cache_mb += way_mb * params.wss_mb / way_pressure[way];
            }

            let mask = app.alloc.cores;
            let my_weight = thread_weight(app);
            let mut eff = 0.0;
            let mut holder_sum = 0.0;
            for core in mask.iter() {
                // Demand-weighted share of this core among the apps pinned to it.
                let share =
                    if core_weight[core] > 0.0 { my_weight / core_weight[core] } else { 1.0 };
                let sibling_busy =
                    self.topo.sibling_of(core).map(|s| busy.contains(s)).unwrap_or(false);
                let yield_factor = if sibling_busy { HT_SHARED_YIELD } else { 1.0 };
                eff += share * yield_factor;
                holder_sum += core_holders[core] as f64;
            }
            let avg_holders = holder_sum / mask.count().max(1) as f64;
            let penalty = 1.0 + CORE_SHARE_PENALTY * (avg_holders - 1.0).max(0.0);

            let input = PerfInput {
                threads: app.spec.threads,
                offered_rps: app.spec.offered_rps,
                effective_cores: eff / penalty,
                logical_cores: mask.count(),
                cache_mb,
                frequency_ghz: freq,
                nominal_frequency_ghz: freq,
                mem_stall: app.mem_stall,
            };
            self.prepared.push(PreparedApp {
                perf: perf::prepare(params, &input),
                bw_cap_gbps: app.alloc.mba.fraction() * bw_total,
            });
        }
    }

    /// One damped round of the fixed point on the per-app memory-stall
    /// multipliers: every service's miss traffic loads the shared DRAM bus;
    /// as the bus approaches capacity, queueing there stretches everyone's
    /// per-miss stall, which lowers throughput, which sheds traffic — a
    /// classic congestion equilibrium. MBA caps add a per-app term.
    fn contention_round(&mut self) {
        let bw_total = self.topo.memory_bw_gbps();
        self.bw_demand.clear();
        self.bw_demand.extend(self.apps.values().zip(&self.prepared).map(|(app, prepared)| {
            prepared.perf.bw_demand_gbps(app.spec.offered_rps, app.mem_stall)
        }));
        let total: f64 = self.bw_demand.iter().sum();
        let pressure = total / (bw_total * PRACTICAL_BW_FRACTION);
        let bus_stall = 1.0 + DRAM_QUEUE_GAIN * pressure.powi(DRAM_QUEUE_EXPONENT);
        let solved = self.prepared.iter().zip(&self.bw_demand);
        for (app, (prepared, bw)) in self.apps.values_mut().zip(solved) {
            let mba_stall = (bw / prepared.bw_cap_gbps).max(1.0);
            let target = bus_stall * mba_stall;
            app.mem_stall = 0.5 * app.mem_stall + 0.5 * target;
        }
    }

    /// Re-resolves the machine's contention equilibrium. Called whenever the
    /// population, allocations or loads change, and on every `advance`.
    ///
    /// Allocation-free once `prepared` and `bw_demand` have grown to the
    /// population's size; unless `prepared` is stale, the only
    /// transcendentals are the final evaluation's one `powf` per app and
    /// the noise draws.
    fn recompute(&mut self) {
        #[cfg(test)]
        if self.reference_solver {
            return self.recompute_reference();
        }
        if self.apps.is_empty() {
            return;
        }
        if self.prepared.is_empty() {
            self.prepare_apps();
        }
        debug_assert_eq!(self.prepared.len(), self.apps.len(), "one prepared entry per app");
        let freq = self.topo.frequency_ghz();

        for _ in 0..FIXED_POINT_ITERS {
            self.contention_round();
        }

        // Final evaluation and counter synthesis.
        for (app, prepared) in self.apps.values_mut().zip(&self.prepared) {
            let outcome = prepared.perf.outcome(app.spec.offered_rps, app.mem_stall);
            let warm = self.clock - app.changed_at < WARMUP_WINDOW_S;
            let extra_sigma = if warm { WARMUP_NOISE_SIGMA } else { 0.0 };
            let noise = Self::latency_noise(&mut self.rng, self.noise_sigma, extra_sigma);
            // During warm-up the PMU counters are polluted too (cache
            // refill inflates misses and depresses IPC), which is why the
            // paper profiles for 2 s before trusting Model-A (§V-B).
            let counter_noise = Self::latency_noise(&mut self.rng, self.noise_sigma, extra_sigma);
            let params = app.spec.service.params();
            let res_gb =
                params.res_memory_gb + params.memory_per_thread_gb * app.spec.threads as f64;
            app.outcome = outcome;
            app.sample = CounterSample {
                ipc: outcome.ipc / counter_noise,
                llc_misses_per_sec: outcome.misses_per_sec * counter_noise,
                mbl_gbps: outcome.bw_demand_gbps * counter_noise,
                cpu_usage: outcome.cpu_usage * counter_noise,
                memory_util_gb: res_gb,
                virt_memory_gb: res_gb * 1.6,
                res_memory_gb: res_gb,
                llc_occupancy_mb: outcome.llc_occupancy_mb,
                allocated_cores: app.alloc.cores.count(),
                allocated_ways: app.alloc.ways.count(),
                frequency_ghz: freq,
                response_latency_ms: outcome.mean_ms * noise,
            };
            app.latency = LatencyStats {
                mean_ms: outcome.mean_ms * noise,
                p95_ms: outcome.p95_ms * noise,
                achieved_rps: outcome.achieved_rps,
                offered_rps: app.spec.offered_rps,
                qos_target_ms: params.qos_ms,
            };
        }
    }

    /// One draw of the multiplicative log-normal jitter: two uniforms, or
    /// none on a deterministic machine.
    fn latency_noise(rng: &mut StdRng, noise_sigma: f64, extra_sigma: f64) -> f64 {
        let sigma = noise_sigma + if noise_sigma > 0.0 { extra_sigma } else { 0.0 };
        if sigma == 0.0 {
            return 1.0;
        }
        // Log-normal multiplicative jitter via Box-Muller.
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (sigma * z).exp()
    }
}

impl Substrate for SimServer {
    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn reallocate(&mut self, id: AppId, alloc: Allocation) -> Result<(), PlatformError> {
        alloc.validate(&self.topo)?;
        let clock = self.clock;
        let app = self.apps.get_mut(&id).ok_or(PlatformError::UnknownApp { id: id.0 })?;
        if app.alloc != alloc {
            app.changed_at = clock;
            app.alloc = alloc;
            self.prepared.clear();
        }
        self.recompute();
        Ok(())
    }

    fn remove(&mut self, id: AppId) -> Result<(), PlatformError> {
        self.apps.remove(&id).ok_or(PlatformError::UnknownApp { id: id.0 })?;
        self.prepared.clear();
        self.recompute();
        Ok(())
    }

    fn advance(&mut self, seconds: f64) {
        self.clock += seconds.max(0.0);
        self.recompute();
    }

    fn now(&self) -> f64 {
        self.clock
    }

    fn apps(&self) -> Vec<AppId> {
        self.apps.keys().copied().collect()
    }

    fn allocation(&self, id: AppId) -> Option<Allocation> {
        self.apps.get(&id).map(|a| a.alloc)
    }

    fn sample(&self, id: AppId) -> Option<CounterSample> {
        self.apps.get(&id).map(|a| a.sample)
    }

    fn latency(&self, id: AppId) -> Option<LatencyStats> {
        self.apps.get(&id).map(|a| a.latency)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use osml_platform::{MbaThrottle, WayMask};

    fn alloc(cores: std::ops::Range<usize>, first_way: usize, ways: usize) -> Allocation {
        Allocation::new(
            CoreSet::from_cores(cores),
            WayMask::contiguous(first_way, ways).unwrap(),
            MbaThrottle::unthrottled(),
        )
    }

    #[test]
    fn solo_service_meets_qos_with_ample_resources() {
        let mut s = SimServer::deterministic();
        let id = s.launch(LaunchSpec::new(Service::Xapian, 3000.0), alloc(0..12, 0, 16)).unwrap();
        s.advance(2.0);
        let lat = s.latency(id).unwrap();
        assert!(!lat.violates_qos(), "p95 {} > {}", lat.p95_ms, lat.qos_target_ms);
        assert!((lat.achieved_rps - 3000.0).abs() < 1.0);
    }

    #[test]
    fn starved_service_violates_qos() {
        let mut s = SimServer::deterministic();
        let id = s.launch(LaunchSpec::new(Service::Xapian, 5000.0), alloc(0..2, 0, 2)).unwrap();
        s.advance(2.0);
        assert!(s.latency(id).unwrap().violates_qos());
    }

    #[test]
    fn co_runner_sharing_ways_slows_both() {
        let mut s = SimServer::deterministic();
        let a = s.launch(LaunchSpec::new(Service::Moses, 2200.0), alloc(0..8, 0, 10)).unwrap();
        s.advance(2.0);
        let solo_p95 = s.latency(a).unwrap().p95_ms;

        // A cache-hungry neighbour overlapping all ten of Moses' ways.
        let b = s.launch(LaunchSpec::new(Service::Specjbb, 9000.0), alloc(8..20, 0, 10)).unwrap();
        s.advance(2.0);
        let shared_p95 = s.latency(a).unwrap().p95_ms;
        assert!(
            shared_p95 > solo_p95 * 1.5,
            "sharing all ways should hurt: solo {solo_p95:.2} vs shared {shared_p95:.2}"
        );
        assert!(s.latency(b).is_some());
    }

    #[test]
    fn disjoint_partitions_isolate_cache() {
        let mut s = SimServer::deterministic();
        let a = s.launch(LaunchSpec::new(Service::Moses, 2200.0), alloc(0..8, 0, 10)).unwrap();
        s.advance(2.0);
        let solo_p95 = s.latency(a).unwrap().p95_ms;

        // Same neighbour but on disjoint ways and cores; only bandwidth is
        // shared, so Moses should degrade far less than under way sharing.
        let _b = s.launch(LaunchSpec::new(Service::ImgDnn, 2000.0), alloc(8..16, 10, 10)).unwrap();
        s.advance(2.0);
        let iso_p95 = s.latency(a).unwrap().p95_ms;
        assert!(
            iso_p95 < solo_p95 * 1.3,
            "disjoint partitions should isolate: solo {solo_p95:.2} vs {iso_p95:.2}"
        );
    }

    #[test]
    fn core_sharing_splits_capacity() {
        let mut s = SimServer::deterministic();
        let a = s.launch(LaunchSpec::new(Service::ImgDnn, 3000.0), alloc(0..8, 0, 4)).unwrap();
        s.advance(1.0);
        let solo_cap = s.outcome(a).unwrap().capacity_rps;
        let _b = s.launch(LaunchSpec::new(Service::Nginx, 100_000.0), alloc(0..8, 4, 4)).unwrap();
        s.advance(1.0);
        let shared_cap = s.outcome(a).unwrap().capacity_rps;
        assert!(
            shared_cap < solo_cap * 0.75,
            "time-shared cores must cut capacity: {solo_cap:.0} -> {shared_cap:.0}"
        );
    }

    #[test]
    fn bandwidth_saturation_couples_services() {
        let mut s = SimServer::deterministic();
        // Two bandwidth-hungry services with tiny cache allocations so their
        // miss traffic is huge (the pair `saturated_pair` launches).
        let a = s.launch(LaunchSpec::new(Service::Moses, 2800.0), alloc(0..9, 0, 2)).unwrap();
        s.advance(1.0);
        let lone = s.outcome(a).unwrap().service_time_ms;
        let _b = s.launch(LaunchSpec::new(Service::Specjbb, 15_000.0), alloc(9..18, 2, 2)).unwrap();
        s.advance(1.0);
        let contended = s.outcome(a).unwrap().service_time_ms;
        assert!(
            contended > lone * 1.02,
            "DRAM contention should stretch service time: {lone:.3} -> {contended:.3}"
        );
    }

    /// Moses and Specjbb on two ways each: miss traffic past the bus's
    /// practical bandwidth.
    fn saturated_pair(s: &mut SimServer) {
        s.launch(LaunchSpec::new(Service::Moses, 2800.0), alloc(0..9, 0, 2)).unwrap();
        s.launch(LaunchSpec::new(Service::Specjbb, 15_000.0), alloc(9..18, 2, 2)).unwrap();
    }

    /// The saturated pair plus six services at 80 % load on the HT siblings,
    /// overlapping each other's cores and ways, two of them throttled.
    fn crowded_eight(s: &mut SimServer) {
        saturated_pair(s);
        let others = [
            Service::ImgDnn,
            Service::Masstree,
            Service::Memcached,
            Service::MongoDb,
            Service::Xapian,
            Service::Sphinx,
        ];
        for (i, service) in others.into_iter().enumerate() {
            let mut a = alloc(18 + 3 * i..18 + 3 * i + 5.min(18 - 3 * i), 4 + 2 * i, 4);
            if i % 3 == 1 {
                a.mba = MbaThrottle::percent(10).unwrap();
            }
            s.launch(LaunchSpec::at_percent_load(service, 80.0), a).unwrap();
        }
    }

    fn stalls(s: &SimServer) -> Vec<f64> {
        s.apps.values().map(|a| a.mem_stall).collect()
    }

    #[test]
    fn twelve_rounds_from_a_cold_start_leave_residuals_under_one_percent() {
        for machine in [saturated_pair, crowded_eight] {
            let mut s = SimServer::deterministic();
            machine(&mut s);
            s.apps.values_mut().for_each(|a| a.mem_stall = 1.0);
            for _ in 0..FIXED_POINT_ITERS {
                s.contention_round();
            }
            let settled = stalls(&s);
            assert!(settled.iter().all(|&m| m > 1.2), "the bus must be contended: {settled:?}");
            s.contention_round();
            for (before, after) in settled.iter().zip(stalls(&s)) {
                assert!((after / before - 1.0).abs() < 0.01, "{before} -> {after}");
            }
        }
    }

    #[test]
    fn an_untouched_machine_becomes_bit_stable_within_ten_steps() {
        // What an exact "stalls unchanged, stop early" exit could rest on;
        // `recompute` does not take it.
        for machine in [saturated_pair, crowded_eight] {
            for config in [SimConfig::deterministic(), SimConfig::default()] {
                let mut s = SimServer::new(config);
                machine(&mut s);
                for _ in 0..10 {
                    s.advance(1.0);
                }
                let state = |s: &SimServer| -> Vec<[u64; 11]> {
                    s.apps.values().map(|a| perf::outcome_bits(&a.outcome)).collect()
                };
                let (settled, settled_stalls) = (state(&s), stalls(&s));
                for _ in 0..5 {
                    s.advance(1.0);
                    assert_eq!(state(&s), settled);
                    assert_eq!(stalls(&s), settled_stalls);
                }
            }
        }
    }

    #[test]
    fn a_steady_advance_allocates_nothing() {
        let mut s = SimServer::new(SimConfig::default());
        crowded_eight(&mut s);
        s.advance(1.0);
        let scratch = |s: &SimServer| {
            (
                s.prepared.as_ptr(),
                s.prepared.capacity(),
                s.bw_demand.as_ptr(),
                s.bw_demand.capacity(),
            )
        };
        let before = scratch(&s);
        let id = s.apps()[3];
        for _ in 0..20 {
            s.advance(1.0);
            s.set_load(id, 900.0).unwrap();
            s.reallocate(id, s.allocation(id).unwrap()).unwrap();
            assert_eq!(s.prepared.len(), 8, "loads, time and a no-op reallocate keep the geometry");
        }
        // The solver's only heap state is these two buffers: where and how
        // large they are has not changed, so nothing was allocated.
        assert_eq!(scratch(&s), before);
    }

    #[test]
    fn a_noop_reallocate_keeps_warm_up_where_it_was() {
        let mut s = SimServer::new(SimConfig::default());
        let id = s.launch(LaunchSpec::new(Service::Moses, 2000.0), alloc(0..9, 0, 6)).unwrap();
        s.advance(3.0);
        s.reallocate(id, s.allocation(id).unwrap()).unwrap();
        assert_eq!(s.apps[&id].changed_at, 0.0);
        s.reallocate(id, alloc(0..9, 0, 7)).unwrap();
        assert_eq!(s.apps[&id].changed_at, 3.0);
    }

    #[test]
    fn mba_throttle_slows_a_bandwidth_hog() {
        let mut s = SimServer::deterministic();
        let mut a = alloc(0..9, 0, 2);
        let id = s.launch(LaunchSpec::new(Service::Moses, 2800.0), a).unwrap();
        s.advance(1.0);
        let free = s.outcome(id).unwrap().p95_ms;
        a.mba = MbaThrottle::percent(10).unwrap();
        s.reallocate(id, a).unwrap();
        s.advance(1.0);
        let throttled = s.outcome(id).unwrap().p95_ms;
        assert!(throttled > free, "a 10% MBA cap must hurt: {free:.2} -> {throttled:.2}");
    }

    #[test]
    fn remove_restores_the_neighbours() {
        let mut s = SimServer::deterministic();
        let a = s.launch(LaunchSpec::new(Service::Moses, 2200.0), alloc(0..8, 0, 10)).unwrap();
        let b = s.launch(LaunchSpec::new(Service::Specjbb, 12_000.0), alloc(8..20, 0, 10)).unwrap();
        s.advance(2.0);
        let contended = s.latency(a).unwrap().p95_ms;
        s.remove(b).unwrap();
        s.advance(2.0);
        let relieved = s.latency(a).unwrap().p95_ms;
        assert!(relieved < contended);
        assert_eq!(s.apps().len(), 1);
    }

    #[test]
    fn set_load_moves_latency() {
        let mut s = SimServer::deterministic();
        let id = s.launch(LaunchSpec::new(Service::Masstree, 2000.0), alloc(0..6, 0, 12)).unwrap();
        s.advance(1.0);
        let low = s.latency(id).unwrap().p95_ms;
        s.set_load(id, 4600.0).unwrap();
        s.advance(1.0);
        let high = s.latency(id).unwrap().p95_ms;
        assert!(high > low);
        assert!(s.set_load(AppId(99), 1.0).is_err());
    }

    #[test]
    fn idle_accounting_via_substrate() {
        let mut s = SimServer::deterministic();
        let _ = s.launch(LaunchSpec::new(Service::Login, 300.0), alloc(0..2, 0, 2)).unwrap();
        assert_eq!(s.idle_cores().count(), 34);
        assert_eq!(s.idle_way_count(), 18);
        let m = s.find_free_ways(18, None).unwrap();
        assert_eq!(m.first(), 2);
    }

    #[test]
    fn counters_are_synthesized() {
        let mut s = SimServer::deterministic();
        let id = s.launch(LaunchSpec::new(Service::MongoDb, 5000.0), alloc(0..10, 0, 10)).unwrap();
        s.advance(2.0);
        let c = s.sample(id).unwrap();
        assert!(c.ipc > 0.0 && c.ipc <= 2.5);
        assert!(c.llc_misses_per_sec > 0.0);
        assert!(c.mbl_gbps > 0.0);
        assert!(c.cpu_usage > 0.0);
        assert!(c.res_memory_gb > 0.0 && c.virt_memory_gb > c.res_memory_gb);
        assert_eq!(c.allocated_cores, 10);
        assert_eq!(c.allocated_ways, 10);
        assert!((c.frequency_ghz - 2.3).abs() < 1e-12);
        assert!(c.response_latency_ms > 0.0);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = SimServer::new(SimConfig { seed, ..SimConfig::default() });
            let id =
                s.launch(LaunchSpec::new(Service::Xapian, 4000.0), alloc(0..10, 0, 10)).unwrap();
            s.advance(2.0);
            s.latency(id).unwrap().p95_ms
        };
        assert_eq!(run(7).to_bits(), run(7).to_bits());
        assert_ne!(run(7).to_bits(), run(8).to_bits());
    }

    #[test]
    fn clock_advances() {
        let mut s = SimServer::deterministic();
        assert_eq!(s.now(), 0.0);
        s.advance(2.0);
        s.advance(1.5);
        assert!((s.now() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn launch_rejects_invalid_allocation() {
        let mut s = SimServer::deterministic();
        let bad = Allocation::new(
            CoreSet::from_cores([40]),
            WayMask::first_n(4),
            MbaThrottle::unthrottled(),
        );
        assert!(s.launch(LaunchSpec::new(Service::Ads, 100.0), bad).is_err());
    }
}
