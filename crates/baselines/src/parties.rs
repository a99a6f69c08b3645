use osml_platform::{
    Allocation, AppId, CoreSet, MbaThrottle, Placement, RejectReason, Scheduler, Substrate, WayMask,
};
use osml_telemetry::Telemetry;
use std::collections::BTreeMap;

/// Tunables of the PARTIES re-implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartiesConfig {
    /// QoS slack above which a service is downsized to free resources
    /// (PARTIES uses generous upsize/downsize thresholds around its
    /// monitoring interval).
    pub downsize_slack: f64,
    /// Slack below which (but still positive) the service is left alone.
    pub comfort_slack: f64,
}

impl Default for PartiesConfig {
    fn default() -> Self {
        PartiesConfig { downsize_slack: 0.40, comfort_slack: 0.05 }
    }
}

/// Which resource dimension an adjustment touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dim {
    Cores,
    Ways,
}

impl Dim {
    fn other(self) -> Dim {
        match self {
            Dim::Cores => Dim::Ways,
            Dim::Ways => Dim::Cores,
        }
    }
}

/// A pending trial-and-error adjustment awaiting its next sample.
#[derive(Debug, Clone, Copy)]
struct Trial {
    dim: Dim,
    upsize: bool,
    p95_before: f64,
}

#[derive(Debug, Clone)]
struct AppFsm {
    next_dim: Dim,
    trial: Option<Trial>,
}

/// A re-implementation of **PARTIES** (Chen et al., ASPLOS '19), the
/// state-of-the-art comparison point of the paper's evaluation.
///
/// PARTIES monitors each service's tail latency and makes *incremental,
/// one-dimension-at-a-time* adjustments:
///
/// * a service violating QoS is **upsized** by one core or one LLC way —
///   taken from the idle pool, or stolen from the co-runner with the most
///   slack;
/// * a service with ample slack is **downsized** by one unit to free
///   resources;
/// * each adjustment is a *trial*: if the next sample shows it did not help
///   (upsize) or broke QoS (downsize), it is reverted and the other
///   dimension is tried — the FSM the OSML paper describes (§VI-B).
///
/// Because PARTIES has no notion of RCliff or OAA, a downsize can step off
/// the cliff, producing the latency spikes of Fig. 4/16; recovery then
/// takes many single-unit upsizes.
#[derive(Debug, Clone)]
pub struct Parties {
    config: PartiesConfig,
    fsms: BTreeMap<AppId, AppFsm>,
    actions: usize,
    telemetry: Telemetry,
}

impl Parties {
    /// Creates a PARTIES scheduler with default thresholds.
    pub fn new() -> Self {
        Parties::with_config(PartiesConfig::default())
    }

    /// Creates a PARTIES scheduler with custom thresholds.
    pub fn with_config(config: PartiesConfig) -> Self {
        Parties { config, fsms: BTreeMap::new(), actions: 0, telemetry: Telemetry::disabled() }
    }

    /// Attaches an observability pipeline (write-only; decisions are
    /// unaffected).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Splits all cores and ways evenly among the current services —
    /// PARTIES' starting partition after an arrival.
    fn equal_partition<S: Substrate>(&mut self, server: &mut S) {
        let apps = server.apps();
        if apps.is_empty() {
            return;
        }
        let topo = server.topology().clone();
        let n = apps.len();
        let cores_each = (topo.logical_cores() / n).max(1);
        let ways_each = (topo.llc_ways() / n).max(1);
        let mut counts: BTreeMap<AppId, (usize, usize)> = BTreeMap::new();
        let mut spare_cores = topo.logical_cores() - cores_each * n.min(topo.logical_cores());
        let mut spare_ways = topo.llc_ways().saturating_sub(ways_each * n);
        for &id in &apps {
            let extra_c = usize::from(spare_cores > 0);
            let extra_w = usize::from(spare_ways > 0);
            spare_cores = spare_cores.saturating_sub(1);
            spare_ways = spare_ways.saturating_sub(1);
            counts.insert(id, (cores_each + extra_c, ways_each + extra_w));
        }
        self.install_partition(server, &counts);
    }

    /// Programs disjoint contiguous masks/core sets for the given counts.
    fn install_partition<S: Substrate>(
        &mut self,
        server: &mut S,
        counts: &BTreeMap<AppId, (usize, usize)>,
    ) {
        let topo = server.topology().clone();
        let mut next_core = 0usize;
        let mut next_way = 0usize;
        for (&id, &(cores, ways)) in counts {
            let cores = cores.min(topo.logical_cores().saturating_sub(next_core)).max(1);
            let ways = ways.min(topo.llc_ways().saturating_sub(next_way)).max(1);
            let core_set = CoreSet::from_cores(next_core..next_core + cores);
            let mask = WayMask::contiguous(next_way.min(topo.llc_ways() - ways), ways)
                .expect("partition fits");
            next_core += cores;
            next_way += ways;
            let alloc = Allocation::new(core_set, mask, MbaThrottle::unthrottled());
            let _ = server.reallocate(id, alloc);
        }
    }

    /// Current `(cores, ways)` counts of every service.
    fn current_counts<S: Substrate>(&self, server: &S) -> BTreeMap<AppId, (usize, usize)> {
        server
            .apps()
            .into_iter()
            .filter_map(|id| server.allocation(id).map(|a| (id, (a.cores.count(), a.ways.count()))))
            .collect()
    }

    /// Applies one `±1` adjustment to `id` on `dim`, stealing from `donor`
    /// if the idle pool is empty. Returns false if no unit was available.
    fn adjust<S: Substrate>(
        &mut self,
        server: &mut S,
        id: AppId,
        dim: Dim,
        upsize: bool,
        donor: Option<AppId>,
    ) -> bool {
        let mut counts = self.current_counts(server);
        let topo = server.topology().clone();
        let total_cores = topo.logical_cores();
        let total_ways = topo.llc_ways();
        let used_cores: usize = counts.values().map(|&(c, _)| c).sum();
        let used_ways: usize = counts.values().map(|&(_, w)| w).sum();
        {
            let Some(entry) = counts.get_mut(&id) else { return false };
            match (dim, upsize) {
                (Dim::Cores, false) if entry.0 > 1 => entry.0 -= 1,
                (Dim::Ways, false) if entry.1 > 1 => entry.1 -= 1,
                (Dim::Cores, true) => entry.0 += 1,
                (Dim::Ways, true) => entry.1 += 1,
                _ => return false,
            }
        }
        if upsize {
            let over_cores = dim == Dim::Cores && used_cores >= total_cores;
            let over_ways = dim == Dim::Ways && used_ways >= total_ways;
            if over_cores || over_ways {
                // Steal one unit from the donor.
                let Some(donor) = donor.filter(|d| *d != id) else { return false };
                let Some(d) = counts.get_mut(&donor) else { return false };
                match dim {
                    Dim::Cores if d.0 > 1 => d.0 -= 1,
                    Dim::Ways if d.1 > 1 => d.1 -= 1,
                    _ => return false,
                }
            }
        }
        self.install_partition(server, &counts);
        self.actions += 1;
        true
    }

    /// The co-runner with the most QoS slack (the victim PARTIES steals
    /// from).
    fn max_slack_app<S: Substrate>(&self, server: &S, except: AppId) -> Option<AppId> {
        server
            .apps()
            .into_iter()
            .filter(|&id| id != except)
            .filter_map(|id| server.latency(id).map(|l| (id, l.qos_slack())))
            .filter(|&(_, slack)| slack > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(id, _)| id)
    }
}

impl Default for Parties {
    fn default() -> Self {
        Parties::new()
    }
}

impl Scheduler for Parties {
    fn name(&self) -> &'static str {
        "parties"
    }

    fn on_arrival<S: Substrate>(&mut self, server: &mut S, id: AppId) -> Placement {
        // PARTIES equal-partitions the machine, so it can host at most as
        // many services as the scarcer resource has units. Past that the
        // partition would hand out empty allocations; reject instead so the
        // overload comparison against OSML is an honest one (the cap never
        // binds in the paper's co-location mixes of ≤ 6 services).
        let topo = server.topology();
        let capacity = topo.logical_cores().min(topo.llc_ways());
        if server.apps().len() > capacity {
            self.fsms.remove(&id);
            return Placement::Rejected(RejectReason::InsufficientResources);
        }
        self.fsms.insert(id, AppFsm { next_dim: Dim::Ways, trial: None });
        self.equal_partition(server);
        self.actions += 1;
        Placement::Placed
    }

    fn tick<S: Substrate>(&mut self, server: &mut S) {
        self.telemetry.counter_add("scheduler.ticks", 1);
        let ids = server.apps();
        for id in ids {
            let Some(lat) = server.latency(id) else { continue };
            let Some(fsm) = self.fsms.get(&id).cloned() else { continue };
            let slack = lat.qos_slack();

            // Settle a pending trial first.
            if let Some(trial) = fsm.trial {
                let improved = lat.p95_ms < trial.p95_before * 0.95;
                let mut fsm = fsm.clone();
                fsm.trial = None;
                if trial.upsize && !improved && slack < self.config.comfort_slack {
                    // The unit didn't help: give it back and try the other
                    // dimension next.
                    self.adjust(server, id, trial.dim, false, None);
                    fsm.next_dim = trial.dim.other();
                } else if !trial.upsize && slack < self.config.comfort_slack {
                    // Downsizing broke QoS: revert.
                    self.adjust(server, id, trial.dim, true, None);
                    fsm.next_dim = trial.dim.other();
                }
                self.fsms.insert(id, fsm);
                continue;
            }

            if slack < self.config.comfort_slack {
                // UPSIZE state: act before the strict boundary so noise
                // around the target does not whipsaw the FSM.
                let dim = fsm.next_dim;
                let donor = self.max_slack_app(server, id);
                if self.adjust(server, id, dim, true, donor) {
                    self.fsms.insert(
                        id,
                        AppFsm {
                            next_dim: dim,
                            trial: Some(Trial { dim, upsize: true, p95_before: lat.p95_ms }),
                        },
                    );
                } else {
                    // Nothing to take on this dimension; rotate.
                    self.fsms.insert(id, AppFsm { next_dim: dim.other(), trial: None });
                }
            } else if slack > self.config.downsize_slack {
                // DOWNSIZE state.
                let dim = fsm.next_dim;
                if self.adjust(server, id, dim, false, None) {
                    self.fsms.insert(
                        id,
                        AppFsm {
                            next_dim: dim.other(),
                            trial: Some(Trial { dim, upsize: false, p95_before: lat.p95_ms }),
                        },
                    );
                }
            }
            // Otherwise: SATISFIED, do nothing.
        }
    }

    fn on_departure(&mut self, id: AppId) {
        self.fsms.remove(&id);
    }

    fn action_count(&self) -> usize {
        self.actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osml_workloads::{LaunchSpec, Service, SimServer};

    fn seed_alloc() -> Allocation {
        Allocation::new(CoreSet::first_n(2), WayMask::first_n(2), MbaThrottle::unthrottled())
    }

    fn run(server: &mut SimServer, sched: &mut Parties, seconds: usize) {
        for _ in 0..seconds {
            server.advance(1.0);
            sched.tick(server);
        }
    }

    #[test]
    fn arrival_installs_an_equal_partition() {
        let mut server = SimServer::deterministic();
        let mut p = Parties::new();
        let a =
            server.launch(LaunchSpec::at_percent_load(Service::Moses, 40.0), seed_alloc()).unwrap();
        p.on_arrival(&mut server, a);
        let b = server
            .launch(LaunchSpec::at_percent_load(Service::Xapian, 40.0), seed_alloc())
            .unwrap();
        p.on_arrival(&mut server, b);
        let alloc_a = server.allocation(a).unwrap();
        let alloc_b = server.allocation(b).unwrap();
        assert_eq!(alloc_a.cores.count(), 18);
        assert_eq!(alloc_b.cores.count(), 18);
        assert_eq!(alloc_a.ways.count(), 10);
        assert!(!alloc_a.cores.overlaps(alloc_b.cores));
        assert!(!alloc_a.ways.overlaps(alloc_b.ways));
    }

    #[test]
    fn parties_eventually_fixes_a_single_violation() {
        let mut server = SimServer::deterministic();
        let mut p = Parties::new();
        // One service at a demanding load, starting from a half-machine
        // partition with a phantom light neighbour holding the rest.
        let heavy = server
            .launch(LaunchSpec::at_percent_load(Service::Xapian, 70.0), seed_alloc())
            .unwrap();
        p.on_arrival(&mut server, heavy);
        let light =
            server.launch(LaunchSpec::at_percent_load(Service::Login, 20.0), seed_alloc()).unwrap();
        p.on_arrival(&mut server, light);
        run(&mut server, &mut p, 120);
        let lat = server.latency(heavy).unwrap();
        assert!(
            !lat.violates_qos(),
            "PARTIES should converge within 120 s: p95 {:.2} target {:.2}",
            lat.p95_ms,
            lat.qos_target_ms
        );
    }

    #[test]
    fn parties_takes_many_actions_to_converge() {
        // The trial-and-error loop costs far more actions than decisions —
        // this is the inefficiency Fig. 15 quantifies.
        let mut server = SimServer::deterministic();
        let mut p = Parties::new();
        for (svc, pct) in [(Service::Moses, 40.0), (Service::ImgDnn, 40.0), (Service::Xapian, 40.0)]
        {
            let id = server.launch(LaunchSpec::at_percent_load(svc, pct), seed_alloc()).unwrap();
            p.on_arrival(&mut server, id);
        }
        run(&mut server, &mut p, 100);
        assert!(p.action_count() > 10, "actions {}", p.action_count());
    }

    #[test]
    fn downsize_reverts_when_it_breaks_qos() {
        let mut server = SimServer::deterministic();
        let mut p = Parties::new();
        // A service with slack; PARTIES will try to downsize it. At some
        // point a downsize crosses the cliff and must be reverted, leaving
        // QoS met at steady state.
        let id =
            server.launch(LaunchSpec::at_percent_load(Service::Moses, 60.0), seed_alloc()).unwrap();
        p.on_arrival(&mut server, id);
        run(&mut server, &mut p, 150);
        let lat = server.latency(id).unwrap();
        assert!(
            !lat.violates_qos(),
            "after revert cycles QoS must hold: p95 {:.2} / {:.2}",
            lat.p95_ms,
            lat.qos_target_ms
        );
        // And resources were actually reclaimed below the full machine.
        let alloc = server.allocation(id).unwrap();
        assert!(alloc.cores.count() < 36 || alloc.ways.count() < 20);
    }

    #[test]
    fn stealing_requires_a_donor_with_slack() {
        let mut server = SimServer::deterministic();
        let mut p = Parties::new();
        let a = server
            .launch(LaunchSpec::at_percent_load(Service::Xapian, 95.0), seed_alloc())
            .unwrap();
        p.on_arrival(&mut server, a);
        let b =
            server.launch(LaunchSpec::at_percent_load(Service::Login, 10.0), seed_alloc()).unwrap();
        p.on_arrival(&mut server, b);
        run(&mut server, &mut p, 150);
        // The heavy app should have stolen resources from the light one.
        let heavy_alloc = server.allocation(a).unwrap();
        let light_alloc = server.allocation(b).unwrap();
        assert!(
            heavy_alloc.cores.count() > light_alloc.cores.count(),
            "heavy {} vs light {}",
            heavy_alloc.cores.count(),
            light_alloc.cores.count()
        );
    }
}
