//! Ground-truth latency grids, Resource Cliff (RCliff) and Optimal
//! Allocation Area (OAA) extraction.
//!
//! This module plays two roles:
//!
//! 1. It regenerates the paper's Fig. 1–3 analyses (latency heatmaps over
//!    the (cores, ways) plane, the red RCliff frontier, the green OAA).
//! 2. It labels training data for Model-A: given a service, thread count and
//!    load, the sweep yields the OAA point, the RCliff point and the OAA
//!    bandwidth that Model-A learns to predict from runtime counters.
//!
//! Terminology, following §III-A of the paper:
//!
//! * the **RCliff** point for a given load is the *minimal* `<cores, ways>`
//!   allocation that still meets QoS — depriving one more core or way from
//!   it produces a catastrophic slowdown;
//! * the **OAA** sits a safety margin above the cliff (the paper's example:
//!   cliff at `<3 cores, 6 MB>` → OAA at `<5 cores, 8 MB>`); among
//!   QoS-feasible allocations OSML prefers the one using the fewest ways,
//!   then the fewest cores (§III-B: "LLC ways should be allocated as less as
//!   possible").

use crate::perf::{self, PerfInput};
use crate::{Service, SimConfig, SimServer};
use osml_platform::{CoreSet, Substrate, Topology};
use serde::{Deserialize, Serialize};

/// Safety margin, in cores and ways, that the OAA keeps above the RCliff.
pub(crate) const OAA_MARGIN: usize = 1;

/// A `<cores, ways>` allocation point in the scheduling plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AllocPoint {
    /// Number of logical cores.
    pub cores: usize,
    /// Number of LLC ways.
    pub ways: usize,
}

impl AllocPoint {
    /// Builds a point.
    pub fn new(cores: usize, ways: usize) -> Self {
        AllocPoint { cores, ways }
    }

    /// Total scarce resources committed (the tie-break metric used when
    /// comparing candidate allocations).
    pub fn total(&self) -> usize {
        self.cores + self.ways
    }
}

/// The p95-latency surface of one service over the (cores, ways) plane at a
/// fixed thread count and offered load — one panel of the paper's Fig. 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyGrid {
    /// Service swept.
    pub service: Service,
    /// Threads launched.
    pub threads: usize,
    /// Offered load, RPS.
    pub offered_rps: f64,
    /// Maximum cores swept (grid is `1..=max_cores`).
    pub max_cores: usize,
    /// Maximum ways swept (grid is `1..=max_ways`).
    pub max_ways: usize,
    /// `p95[(cores-1) * max_ways + (ways-1)]`, ms.
    pub p95_ms: Vec<f64>,
    /// Bandwidth demand at each cell, GB/s (used for the OAA bandwidth
    /// label).
    pub bw_gbps: Vec<f64>,
}

impl LatencyGrid {
    /// Sweeps the full (cores, ways) plane for `service` on `topo`.
    ///
    /// Cores are picked spread-first across physical cores (the deployment
    /// policy of `osml-platform`); the sweep runs on a dedicated noiseless
    /// simulator so cells are exact model evaluations.
    pub fn sweep(
        topo: &Topology,
        service: Service,
        threads: usize,
        offered_rps: f64,
    ) -> LatencyGrid {
        let max_cores = topo.logical_cores();
        let max_ways = topo.llc_ways();
        let mut p95_ms = Vec::with_capacity(max_cores * max_ways);
        let mut bw_gbps = Vec::with_capacity(max_cores * max_ways);
        let all = CoreSet::all(topo);
        for cores in 1..=max_cores {
            let picked = all.pick_spread(topo, cores).expect("cores <= machine size");
            let eff = picked.effective_cores(topo);
            for ways in 1..=max_ways {
                let input = PerfInput {
                    threads,
                    offered_rps,
                    effective_cores: eff,
                    logical_cores: cores,
                    cache_mb: ways as f64 * topo.way_mb(),
                    frequency_ghz: topo.frequency_ghz(),
                    nominal_frequency_ghz: topo.frequency_ghz(),
                    mem_stall: 1.0,
                };
                let out = perf::evaluate(service.params(), &input);
                p95_ms.push(out.p95_ms);
                bw_gbps.push(out.bw_demand_gbps);
            }
        }
        LatencyGrid { service, threads, offered_rps, max_cores, max_ways, p95_ms, bw_gbps }
    }

    /// p95 latency at `<cores, ways>`, ms.
    ///
    /// # Panics
    ///
    /// Panics if the point is outside the swept grid.
    pub fn p95(&self, p: AllocPoint) -> f64 {
        assert!(p.cores >= 1 && p.cores <= self.max_cores, "cores out of grid");
        assert!(p.ways >= 1 && p.ways <= self.max_ways, "ways out of grid");
        self.p95_ms[(p.cores - 1) * self.max_ways + (p.ways - 1)]
    }

    /// Bandwidth demand at `<cores, ways>`, GB/s.
    ///
    /// # Panics
    ///
    /// Panics as [`LatencyGrid::p95`] does.
    pub(crate) fn bandwidth(&self, p: AllocPoint) -> f64 {
        assert!(p.cores >= 1 && p.cores <= self.max_cores, "cores out of grid");
        assert!(p.ways >= 1 && p.ways <= self.max_ways, "ways out of grid");
        self.bw_gbps[(p.cores - 1) * self.max_ways + (p.ways - 1)]
    }

    /// Whether the service meets QoS at this point.
    pub fn meets_qos(&self, p: AllocPoint) -> bool {
        self.p95(p) <= self.service.params().qos_ms
    }

    /// The RCliff frontier: for each core count, the minimal way count that
    /// meets QoS (`None` where no way count suffices). This is the red line
    /// of Fig. 1.
    pub fn rcliff_frontier(&self) -> Vec<Option<usize>> {
        (1..=self.max_cores)
            .map(|cores| {
                (1..=self.max_ways).find(|&ways| self.meets_qos(AllocPoint::new(cores, ways)))
            })
            .collect()
    }

    /// The RCliff *point*: among the frontier allocations (for each core
    /// count, the minimal QoS-feasible way count) the one committing the
    /// fewest total resources, tie-broken towards fewer ways (the paper
    /// treats LLC ways as the scarcer resource, §III-B). `None` if QoS is
    /// infeasible anywhere on the grid (load too high).
    pub fn rcliff(&self) -> Option<AllocPoint> {
        let mut best: Option<AllocPoint> = None;
        for cores in 1..=self.max_cores {
            if let Some(ways) =
                (1..=self.max_ways).find(|&w| self.meets_qos(AllocPoint::new(cores, w)))
            {
                let cand = AllocPoint::new(cores, ways);
                best = match best {
                    None => Some(cand),
                    Some(b) => {
                        if (cand.total(), cand.ways) < (b.total(), b.ways) {
                            Some(cand)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
        }
        best
    }

    /// The OAA point: the RCliff plus a safety margin of `OAA_MARGIN` in
    /// both dimensions (clamped to the machine), nudged further if the
    /// margin cell itself still violates QoS.
    pub fn oaa(&self) -> Option<AllocPoint> {
        self.oaa_with_margin(OAA_MARGIN)
    }

    /// [`LatencyGrid::oaa`] with an explicit cliff margin (the ablation knob
    /// for DESIGN.md's "OAA margin" study).
    pub fn oaa_with_margin(&self, margin: usize) -> Option<AllocPoint> {
        let cliff = self.rcliff()?;
        let mut p = AllocPoint::new(
            (cliff.cores + margin).min(self.max_cores),
            (cliff.ways + margin).min(self.max_ways),
        );
        // Grow until the point itself is QoS-clean (it normally already is).
        while !self.meets_qos(p) {
            if p.cores < self.max_cores {
                p.cores += 1;
            } else if p.ways < self.max_ways {
                p.ways += 1;
            } else {
                return None;
            }
        }
        Some(p)
    }

    /// Bandwidth requirement at the OAA (the third output of Model-A).
    pub fn oaa_bandwidth_gbps(&self) -> Option<f64> {
        self.oaa().map(|p| self.bandwidth(p))
    }

    /// The largest latency ratio across any single-step resource deprivation
    /// from a QoS-feasible cell — the cliff's "height". Moses/Xapian/Sphinx
    /// show 100×+ here, MongoDB only a few × (Fig. 1).
    pub fn cliff_magnitude(&self) -> f64 {
        let mut worst: f64 = 1.0;
        for cores in 1..=self.max_cores {
            for ways in 1..=self.max_ways {
                let here = AllocPoint::new(cores, ways);
                if !self.meets_qos(here) {
                    continue;
                }
                let p95 = self.p95(here);
                if cores > 1 {
                    worst = worst.max(self.p95(AllocPoint::new(cores - 1, ways)) / p95);
                }
                if ways > 1 {
                    worst = worst.max(self.p95(AllocPoint::new(cores, ways - 1)) / p95);
                }
            }
        }
        worst
    }
}

/// RCliff positions across the offered loads of Table 1 — the Fig. 2
/// analysis. Returns `(rps, rcliff)` pairs; infeasible loads yield `None`.
pub fn rcliff_shift(topo: &Topology, service: Service) -> Vec<(f64, Option<AllocPoint>)> {
    let threads = service.params().default_threads;
    service
        .params()
        .table1_rps
        .iter()
        .map(|&rps| (rps, LatencyGrid::sweep(topo, service, threads, rps).rcliff()))
        .collect()
}

/// Maximum load (RPS) the service sustains within QoS when running alone on
/// the whole machine — the definition behind Table 1's "max load" and the
/// "% of max load" axes of Figs. 10–12. Found by bisection on the simulator.
pub fn max_load(topo: &Topology, service: Service) -> f64 {
    let params = service.params();
    let threads = params.default_threads;
    let meets = |rps: f64| -> bool {
        let mut server =
            SimServer::new(SimConfig { topology: topo.clone(), noise_sigma: 0.0, seed: 0 });
        let alloc = osml_platform::Allocation::whole_machine(topo);
        let id = server
            .launch(crate::LaunchSpec { service, threads, offered_rps: rps }, alloc)
            .expect("whole-machine allocation is valid");
        server.advance(2.0);
        !server.latency(id).expect("app placed").violates_qos()
    };
    let mut lo: f64 = 0.0;
    let mut hi = params.nominal_max_rps() * 4.0;
    if !meets(lo.max(1e-3)) {
        return 0.0;
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::xeon_e5_2697_v4()
    }

    #[test]
    fn grid_indexing_is_consistent() {
        let g = LatencyGrid::sweep(&topo(), Service::Moses, 16, 2200.0);
        assert_eq!(g.p95_ms.len(), 36 * 20);
        // Corner cells exist and are positive.
        assert!(g.p95(AllocPoint::new(1, 1)) > 0.0);
        assert!(g.p95(AllocPoint::new(36, 20)) > 0.0);
        // More resources never hurt in the noiseless model.
        assert!(g.p95(AllocPoint::new(36, 20)) <= g.p95(AllocPoint::new(1, 1)));
    }

    #[test]
    fn moses_has_cliff_and_oaa() {
        let g = LatencyGrid::sweep(&topo(), Service::Moses, 16, 2200.0);
        let cliff = g.rcliff().expect("moses at 2200 rps is feasible");
        let oaa = g.oaa().expect("oaa exists");
        assert!(oaa.cores >= cliff.cores && oaa.ways >= cliff.ways);
        assert!(oaa.cores > cliff.cores || oaa.ways > cliff.ways, "oaa must sit off the cliff");
        assert!(g.meets_qos(oaa));
        // Fig. 1-a magnitudes: depriving one step from the frontier is
        // catastrophic.
        assert!(g.cliff_magnitude() > 50.0, "magnitude {}", g.cliff_magnitude());
    }

    #[test]
    fn mongodb_cliff_is_gentler_than_moses() {
        let t = topo();
        let moses = LatencyGrid::sweep(&t, Service::Moses, 16, 2200.0).cliff_magnitude();
        let mongo = LatencyGrid::sweep(&t, Service::MongoDb, 24, 5000.0).cliff_magnitude();
        assert!(mongo < moses, "mongodb ({mongo:.1}x) should cliff less than moses ({moses:.1}x)");
    }

    #[test]
    fn img_dnn_rcliff_needs_few_ways() {
        let g = LatencyGrid::sweep(&topo(), Service::ImgDnn, 36, 4000.0);
        let cliff = g.rcliff().expect("feasible");
        assert!(cliff.ways <= 3, "img-dnn is core-bound; cliff at {cliff:?}");
    }

    #[test]
    fn rcliff_shifts_outward_with_load() {
        let shifts = rcliff_shift(&topo(), Service::Moses);
        let feasible: Vec<_> = shifts.iter().filter_map(|(_, p)| *p).collect();
        assert!(feasible.len() >= 2, "several Table-1 loads must be feasible");
        let first = feasible.first().unwrap();
        let last = feasible.last().unwrap();
        assert!(
            last.total() >= first.total(),
            "higher load must not need fewer resources: {first:?} -> {last:?}"
        );
    }

    #[test]
    fn oaa_is_stable_across_thread_counts() {
        // Fig. 3: the OAA is insensitive to how many threads the operator
        // launches.
        let t = topo();
        let oaas: Vec<_> = [16usize, 20, 28, 36]
            .iter()
            .map(|&th| LatencyGrid::sweep(&t, Service::Moses, th, 2200.0).oaa().expect("feasible"))
            .collect();
        let min_cores = oaas.iter().map(|p| p.cores).min().unwrap();
        let max_cores = oaas.iter().map(|p| p.cores).max().unwrap();
        assert!(max_cores - min_cores <= 3, "OAA cores should barely move with threads: {oaas:?}");
    }

    #[test]
    fn infeasible_load_has_no_rcliff() {
        let g = LatencyGrid::sweep(&topo(), Service::Moses, 16, 1.0e9);
        assert_eq!(g.rcliff(), None);
        assert_eq!(g.oaa(), None);
        assert_eq!(g.oaa_bandwidth_gbps(), None);
    }

    #[test]
    fn max_load_is_near_table1_top() {
        let t = topo();
        for s in [Service::Moses, Service::Xapian, Service::ImgDnn] {
            let measured = max_load(&t, s);
            let nominal = s.params().nominal_max_rps();
            let ratio = measured / nominal;
            assert!(
                (0.5..=2.5).contains(&ratio),
                "{s}: measured max load {measured:.0} vs Table-1 {nominal:.0} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn oaa_bandwidth_is_positive_for_memory_bound_services() {
        let g = LatencyGrid::sweep(&topo(), Service::Moses, 16, 2600.0);
        if let Some(bw) = g.oaa_bandwidth_gbps() {
            assert!(bw > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of grid")]
    fn p95_rejects_out_of_grid() {
        let g = LatencyGrid::sweep(&topo(), Service::Login, 8, 300.0);
        let _ = g.p95(AllocPoint::new(37, 1));
    }
}
