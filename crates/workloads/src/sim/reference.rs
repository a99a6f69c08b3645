//! The contention solver `SimServer::recompute` replaced, kept as the oracle
//! the current one is held against: it rebuilds the way and core splits on
//! every call and runs the whole performance model thirteen times per app.
//! Nothing outside `#[cfg(test)]` reaches it.

use super::*;
use crate::params::ServiceParams;
use crate::perf::{evaluate_reference, outcome_bits};
use crate::ALL_SERVICES;
use osml_platform::{MbaThrottle, WayMask};
use proptest::prelude::*;
use std::collections::BTreeMap;

impl SimServer {
    /// Effective LLC capacity per app after splitting shared ways.
    ///
    /// Each way's capacity is divided among its holders in proportion to
    /// their working-set pressure, the first-order behaviour of an
    /// LRU-managed shared cache.
    fn effective_cache_reference(&self) -> BTreeMap<AppId, f64> {
        let way_mb = self.topo.way_mb();
        let mut cache: BTreeMap<AppId, f64> = self.apps.keys().map(|&id| (id, 0.0)).collect();
        for way in 0..self.topo.llc_ways() {
            let bit = 1u32 << way;
            let holders: Vec<(AppId, f64)> = self
                .apps
                .iter()
                .filter(|(_, a)| a.alloc.ways.bits() & bit != 0)
                .map(|(&id, a)| (id, a.spec.service.params().wss_mb))
                .collect();
            let total: f64 = holders.iter().map(|(_, w)| w).sum();
            for (id, w) in holders {
                *cache.get_mut(&id).expect("holder is an app") += way_mb * w / total;
            }
        }
        cache
    }

    /// Effective core capacity per app after splitting time-shared cores,
    /// plus the time-slicing penalty factor applied to service time.
    fn effective_cores_reference(&self) -> BTreeMap<AppId, (f64, f64)> {
        let mut out: BTreeMap<AppId, (f64, f64)> = BTreeMap::new();
        // Which logical cores are busy at all (for HT yield).
        let mut busy = CoreSet::new();
        for a in self.apps.values() {
            busy = busy.union(a.alloc.cores);
        }
        for (&id, app) in &self.apps {
            let mask = app.alloc.cores;
            let my_weight = app.spec.threads as f64 / mask.count().max(1) as f64;
            let mut eff = 0.0;
            let mut holder_sum = 0.0;
            for core in mask.iter() {
                if core >= self.topo.logical_cores() {
                    continue;
                }
                // Demand-weighted share of this core among the apps pinned to it.
                let mut total_weight = 0.0;
                let mut holders = 0u32;
                for other in self.apps.values() {
                    if other.alloc.cores.contains(core) {
                        total_weight +=
                            other.spec.threads as f64 / other.alloc.cores.count().max(1) as f64;
                        holders += 1;
                    }
                }
                let share = if total_weight > 0.0 { my_weight / total_weight } else { 1.0 };
                let sibling_busy =
                    self.topo.sibling_of(core).map(|s| busy.contains(s)).unwrap_or(false);
                let yield_factor = if sibling_busy { HT_SHARED_YIELD } else { 1.0 };
                eff += share * yield_factor;
                holder_sum += holders as f64;
            }
            let avg_holders = holder_sum / mask.count().max(1) as f64;
            let penalty = 1.0 + CORE_SHARE_PENALTY * (avg_holders - 1.0).max(0.0);
            out.insert(id, (eff, penalty));
        }
        out
    }

    /// Re-resolves the machine's contention equilibrium. Called whenever the
    /// population, allocations or loads change, and on every `advance`.
    pub(super) fn recompute_reference(&mut self) {
        if self.apps.is_empty() {
            return;
        }
        let cache = self.effective_cache_reference();
        let cores = self.effective_cores_reference();
        let bw_total = self.topo.memory_bw_gbps();
        let freq = self.topo.frequency_ghz();

        // Damped fixed point on the per-app memory-stall multipliers: every
        // service's miss traffic loads the shared DRAM bus; as the bus
        // approaches capacity, queueing there stretches everyone's per-miss
        // stall, which lowers throughput, which sheds traffic — a classic
        // congestion equilibrium. MBA caps add a per-app term.
        for _ in 0..FIXED_POINT_ITERS {
            let mut achieved_bw: BTreeMap<AppId, f64> = BTreeMap::new();
            for &id in self.apps.keys().collect::<Vec<_>>() {
                let out = self.evaluate_app_reference(id, &cache, &cores, freq);
                achieved_bw.insert(id, out.bw_demand_gbps);
            }
            let total: f64 = achieved_bw.values().sum();
            let pressure = total / (bw_total * PRACTICAL_BW_FRACTION);
            let bus_stall = 1.0 + DRAM_QUEUE_GAIN * pressure.powi(DRAM_QUEUE_EXPONENT);
            for (&id, app) in self.apps.iter_mut() {
                let cap = app.alloc.mba.fraction() * bw_total;
                let mba_stall = (achieved_bw[&id] / cap).max(1.0);
                let target = bus_stall * mba_stall;
                app.mem_stall = 0.5 * app.mem_stall + 0.5 * target;
            }
        }

        // Final evaluation and counter synthesis.
        let ids: Vec<AppId> = self.apps.keys().copied().collect();
        for id in ids {
            let outcome = self.evaluate_app_reference(id, &cache, &cores, freq);
            let warm = self.clock - self.apps[&id].changed_at < WARMUP_WINDOW_S;
            let extra_sigma = if warm { WARMUP_NOISE_SIGMA } else { 0.0 };
            let noise = Self::latency_noise(&mut self.rng, self.noise_sigma, extra_sigma);
            // During warm-up the PMU counters are polluted too (cache
            // refill inflates misses and depresses IPC), which is why the
            // paper profiles for 2 s before trusting Model-A (§V-B).
            let counter_noise = Self::latency_noise(&mut self.rng, self.noise_sigma, extra_sigma);
            let app = self.apps.get_mut(&id).expect("id is placed");
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

    fn evaluate_app_reference(
        &self,
        id: AppId,
        cache: &BTreeMap<AppId, f64>,
        cores: &BTreeMap<AppId, (f64, f64)>,
        freq: f64,
    ) -> PerfOutcome {
        let app = &self.apps[&id];
        let (eff_cores, penalty) = cores[&id];
        let params: &ServiceParams = app.spec.service.params();
        let input = PerfInput {
            threads: app.spec.threads,
            offered_rps: app.spec.offered_rps,
            effective_cores: eff_cores / penalty,
            logical_cores: app.alloc.cores.count(),
            cache_mb: cache[&id],
            frequency_ghz: freq,
            nominal_frequency_ghz: self.topo.frequency_ghz(),
            mem_stall: app.mem_stall,
        };
        evaluate_reference(params, &input)
    }
}

/// Every float of an app's state as bits, with its memory stall.
fn app_bits(server: &SimServer, id: AppId) -> Vec<u64> {
    let app = &server.apps[&id];
    let (s, l) = (&app.sample, &app.latency);
    let floats = [
        s.ipc,
        s.llc_misses_per_sec,
        s.mbl_gbps,
        s.cpu_usage,
        s.memory_util_gb,
        s.virt_memory_gb,
        s.res_memory_gb,
        s.llc_occupancy_mb,
        s.frequency_ghz,
        s.response_latency_ms,
        l.mean_ms,
        l.p95_ms,
        l.achieved_rps,
        l.offered_rps,
        l.qos_target_ms,
        app.mem_stall,
    ];
    let mut bits = outcome_bits(&app.outcome).to_vec();
    bits.extend(floats.map(f64::to_bits));
    bits.extend([s.allocated_cores as u64, s.allocated_ways as u64]);
    bits
}

/// An allocation drawn from `word`: any core range (so sets overlap and
/// HT siblings pair up), any way window, any throttle step.
fn allocation_from(word: u64) -> Allocation {
    let first_core = (word >> 8) as usize % 36;
    let cores = 1 + (word >> 14) as usize % (36 - first_core).min(14);
    let first_way = (word >> 20) as usize % 20;
    let ways = 1 + (word >> 26) as usize % (20 - first_way);
    let mba = 10 * (1 + (word >> 32) % 10) as u8;
    Allocation::new(
        CoreSet::from_cores(first_core..first_core + cores),
        WayMask::contiguous(first_way, ways).expect("window fits"),
        MbaThrottle::percent(mba).expect("a 10 % step"),
    )
}

/// What a driven trajectory reached, over all of its steps.
#[derive(Debug, Default, PartialEq)]
struct Coverage {
    most_apps: usize,
    shared_ways: bool,
    shared_cores: bool,
    throttled: bool,
    oversubscribed: bool,
}

impl Coverage {
    fn note(&mut self, server: &SimServer) {
        let apps: Vec<&AppState> = server.apps.values().collect();
        self.most_apps = self.most_apps.max(apps.len());
        for (i, a) in apps.iter().enumerate() {
            self.throttled |= a.alloc.mba.as_percent() < 100;
            self.oversubscribed |= a.spec.threads > a.alloc.cores.count();
            for b in &apps[i + 1..] {
                self.shared_ways |= a.alloc.ways.overlaps(b.alloc.ways);
                self.shared_cores |= a.alloc.cores.overlaps(b.alloc.cores);
            }
        }
    }
}

/// Drives both solvers through the calls `words` encode and compares every
/// app after every call.
fn drive_both(config: SimConfig, words: &[u64]) -> Coverage {
    let mut seen = Coverage::default();
    let mut new = SimServer::new(config.clone());
    let mut old = SimServer { reference_solver: true, ..SimServer::new(config) };
    for (step, &word) in words.iter().enumerate() {
        let placed = new.apps();
        let pick = |salt: u32| placed.get((word >> salt) as usize % placed.len().max(1)).copied();
        let load = |service: Service| {
            service.params().nominal_max_rps() * (5 + (word >> 40) % 200) as f64 / 100.0
        };
        match (word % 8, pick(36)) {
            (0, _) | (1, None) if placed.len() < 11 => {
                let service = ALL_SERVICES[(word >> 36) as usize % ALL_SERVICES.len()];
                // Default threads half the time, else 1..=36: more threads
                // than cores is the common case.
                let threads = match (word >> 48) % 2 {
                    0 => service.params().default_threads,
                    _ => 1 + (word >> 49) as usize % 36,
                };
                let spec = LaunchSpec { service, threads, offered_rps: load(service) };
                let alloc = allocation_from(word);
                assert_eq!(new.launch(spec, alloc).ok(), old.launch(spec, alloc).ok());
            }
            (1, Some(id)) => {
                let rps = load(new.service_of(id).expect("placed"));
                new.set_load(id, rps).expect("placed");
                old.set_load(id, rps).expect("placed");
            }
            (2, Some(id)) => {
                // One in four is the allocation the app already holds.
                let alloc = match (word >> 50) % 4 {
                    0 => new.allocation(id).expect("placed"),
                    _ => allocation_from(word),
                };
                new.reallocate(id, alloc).expect("valid");
                old.reallocate(id, alloc).expect("valid");
            }
            (3, Some(id)) if (word >> 51) % 2 == 0 => {
                new.remove(id).expect("placed");
                old.remove(id).expect("placed");
            }
            _ => {
                let seconds = [1.0, 1.0, 0.5, 2.5][(word >> 52) as usize % 4];
                new.advance(seconds);
                old.advance(seconds);
            }
        }
        assert_eq!(new.apps(), old.apps(), "step {step}");
        for id in new.apps() {
            assert_eq!(
                app_bits(&new, id),
                app_bits(&old, id),
                "step {step}, word {word:#x}, {id:?}"
            );
        }
        seen.note(&new);
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_solver_equals_the_one_it_replaced_bit_for_bit(
        words in proptest::collection::vec(0u64..u64::MAX, 40..160),
        seed in 0u64..1 << 32,
    ) {
        drive_both(SimConfig { seed, ..SimConfig::default() }, &words);
        drive_both(SimConfig::deterministic(), &words);
    }
}

#[test]
fn the_oracle_reaches_crowded_machines() {
    // The interleavings are only an oracle if they reach the machines the
    // solver's shortcuts could get wrong: one long fixed stream must at some
    // point hold 11 services, share ways and cores, throttle someone and run
    // more threads than cores.
    let mut rng = StdRng::seed_from_u64(7);
    let words: Vec<u64> = (0..1500).map(|_| rng.gen_range(0..u64::MAX)).collect();
    let seen = drive_both(SimConfig::default(), &words);
    assert_eq!(
        seen,
        Coverage {
            most_apps: 11,
            shared_ways: true,
            shared_cores: true,
            throttled: true,
            oversubscribed: true
        }
    );
}
