//! `node-steady`: one event-engine controller holding a large fleet on an
//! O(1) synthetic substrate — the controller core (timers, app table, probe
//! memo) and batched Model-A inference do nearly all the work.

use crate::setup::untrained_models;
use crate::stats::Fnv;
use crate::traced::{Mode, Phase, StepClock, Traced};
use crate::workload::{digest_layout, measured_jsonl, Round, Workload};
use osml_core::{OsmlConfig, OsmlScheduler};
use osml_platform::{
    hash01, Allocation, AppId, CoreSet, CounterSample, LatencyStats, MbaThrottle, Placement,
    PlatformError, Scheduler, Substrate, Topology, WayMask,
};

/// In-memory substrate with O(1) scheduler-facing queries, modelled on
/// `osml_bench::perf::BenchSubstrate` (per-unit refcounts make the
/// idle-resource views O(machine width), not O(services)) but owned by the
/// benchmark and with one change: service *i*'s counters step on the ticks
/// where `tick + i` is even. The original steps every service on the same
/// tick, so ticks alternate between "whole fleet dirty" and "whole fleet
/// memoized" and the tick-time median straddles two modes; staggering makes
/// every tick refresh half the fleet.
#[derive(Debug, Clone)]
pub struct SteadySubstrate {
    topo: Topology,
    seed: u64,
    clock: f64,
    apps: Vec<AppId>,
    /// Dense by raw id (ids are handed out 0..n).
    allocs: Vec<Option<Allocation>>,
    core_refs: [u32; 64],
    way_refs: [u32; 32],
}

impl SteadySubstrate {
    /// A machine on the paper's testbed topology whose counters are a pure
    /// function of `(seed, service, window)`.
    pub fn new(seed: u64) -> Self {
        SteadySubstrate {
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
        let bump = |r: &mut u32| *r = if add { *r + 1 } else { r.saturating_sub(1) };
        for core in alloc.cores.iter() {
            bump(&mut self.core_refs[core]);
        }
        for way in 0..self.topo.llc_ways() {
            if alloc.ways.bits() & (1 << way) != 0 {
                bump(&mut self.way_refs[way]);
            }
        }
    }

    /// Places the next service on a small shared bootstrap allocation.
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

    /// The 2 s profiling window service `id` is in, offset by its parity.
    fn window(&self, id: u64) -> u64 {
        (self.clock as u64 + id) / 2
    }
}

impl Substrate for SteadySubstrate {
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
        let old = std::mem::replace(slot, alloc);
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
        let w = self.window(id.0);
        let f = |salt: u64| hash01(self.seed, id.0, w.wrapping_mul(16) + salt);
        Some(CounterSample {
            ipc: 0.5 + 1.5 * f(1),
            llc_misses_per_sec: 1e6 * f(2),
            mbl_gbps: 10.0 * f(3),
            cpu_usage: alloc.cores.count() as f64 * f(4),
            memory_util_gb: 4.0 * f(5),
            virt_memory_gb: 8.0 * f(6),
            res_memory_gb: 4.0 * f(7),
            llc_occupancy_mb: 20.0 * f(8),
            allocated_cores: alloc.cores.count(),
            allocated_ways: alloc.ways.count(),
            frequency_ghz: 2.3,
            response_latency_ms: 1.0 + f(9),
        })
    }

    fn latency(&self, id: AppId) -> Option<LatencyStats> {
        self.allocation(id)?;
        // Wide slack, never violating: this workload is the steady-state
        // path, not violation recovery (`node-churn` covers that).
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
        if let Some(alloc) = except.and_then(|ex| self.allocation(ex)) {
            // Ways only `except` holds are not occupied from its view.
            for way in 0..self.topo.llc_ways() {
                if alloc.ways.bits() & (1 << way) != 0 && self.way_refs[way] == 1 {
                    used &= !(1 << way);
                }
            }
        }
        used
    }
}

/// The controller configuration `node-steady` runs: event engine, no
/// online learning, unconditional placement, no MBA programming.
pub fn steady_config() -> OsmlConfig {
    OsmlConfig {
        placement_via_models: false,
        manage_bandwidth: false,
        online_learning: false,
        ..OsmlConfig::default()
    }
}

/// `node-steady`'s prepared inputs.
#[derive(Debug)]
pub struct NodeSteady {
    seed: u64,
    services: usize,
    warmup_ticks: usize,
    ticks: usize,
}

impl NodeSteady {
    /// The workload's sizes, nothing built yet.
    pub fn new(seed: u64, smoke: bool) -> Self {
        if smoke {
            NodeSteady { seed, services: 100, warmup_ticks: 20, ticks: 120 }
        } else {
            NodeSteady { seed, services: 1000, warmup_ticks: 200, ticks: 2400 }
        }
    }

    /// Co-located services.
    pub fn services(&self) -> usize {
        self.services
    }

    /// A fresh world: every service placed, warm-up ticks run.
    pub fn world(&self) -> (SteadySubstrate, OsmlScheduler) {
        let mut server = SteadySubstrate::new(self.seed);
        let mut scheduler = OsmlScheduler::new(untrained_models(), steady_config());
        for _ in 0..self.services {
            let id = server.place_next();
            assert_eq!(
                scheduler.on_arrival(&mut server, id),
                Placement::Placed,
                "placement is unconditional under placement_via_models: false"
            );
        }
        for _ in 0..self.warmup_ticks {
            server.advance(1.0);
            scheduler.tick(&mut server);
        }
        (server, scheduler)
    }

    fn steps<S: Substrate>(
        &self,
        server: &mut S,
        scheduler: &mut OsmlScheduler,
        clock: &mut StepClock<'_>,
    ) -> u64 {
        let mut failed_ops = 0;
        for _ in 0..self.ticks {
            clock.begin();
            server.advance(1.0);
            clock.lap(Phase::Advance);
            scheduler.tick(server);
            clock.lap(Phase::Tick);
            clock.end();
            // A service-tick fails when the service ends it over its QoS
            // target or on an allocation the machine would refuse. (Core
            // *overlap* is not a breach here: 1000 services share 36 cores
            // by construction.)
            for id in server.apps() {
                let ok = server.latency(id).is_some_and(|l| !l.violates_qos())
                    && server.allocation(id).is_some_and(|a| a.validate(server.topology()).is_ok());
                failed_ops += u64::from(!ok);
            }
        }
        failed_ops
    }
}

impl Workload for NodeSteady {
    const NAME: &'static str = "node-steady";

    fn setup(seed: u64, smoke: bool) -> Self {
        let me = NodeSteady::new(seed, smoke);
        // Warm-up proper: build and discard one world so the first
        // measured round does not pay first-touch page faults.
        drop(me.world());
        me
    }

    fn round(&mut self, mode: Mode<'_>) -> Round {
        let mut clock = StepClock::new(mode, self.ticks);
        let (server, mut scheduler) = self.world();
        let before = (scheduler.action_count(), scheduler.decision_count());
        let events_before = scheduler.unified_log().len();
        let (server, failed_ops) = match clock.tracer() {
            Some(tracer) => {
                scheduler.set_telemetry(tracer.telemetry.clone());
                let mut traced = Traced::new(server, tracer.taps.clone());
                let failed = self.steps(&mut traced, &mut scheduler, &mut clock);
                (traced.into_inner(), failed)
            }
            None => {
                let mut server = server;
                let failed = self.steps(&mut server, &mut scheduler, &mut clock);
                (server, failed)
            }
        };

        let mut round = Round::default().with_timings(clock);
        let c = &mut round.counts;
        c.steps = self.ticks as u64;
        c.ops = (self.services * self.ticks) as u64;
        c.demanded = c.ops;
        c.failed_ops = failed_ops;
        c.actions = (scheduler.action_count() - before.0) as u64;
        c.decisions = scheduler.decision_count() - before.1;
        let jsonl = measured_jsonl(scheduler.unified_log(), events_before);
        c.log_events = (scheduler.unified_log().len() - events_before) as u64;
        c.log_bytes = jsonl.len() as u64;
        let mut digest = Fnv::default();
        digest.write(jsonl.as_bytes());
        digest_layout(&mut digest, &server);
        round.digest = digest.finish();
        round
    }
}
