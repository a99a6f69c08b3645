//! Co-location scenarios: launch a set of services, let a scheduler settle
//! them, and judge the steady state.

pub use osml_core::bootstrap_allocation;
use osml_core::host::Machine;
use osml_platform::{AppId, Placement, Scheduler, Substrate};
use osml_workloads::{LaunchSpec, Service, SimConfig, SimServer};
use serde::{Deserialize, Serialize};

/// Steady-state report for one service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppReport {
    /// The service.
    pub service: Service,
    /// Offered load, RPS.
    pub offered_rps: f64,
    /// Final p95 latency, ms.
    pub p95_ms: f64,
    /// QoS target, ms.
    pub qos_ms: f64,
    /// Whether QoS was met at steady state.
    pub qos_met: bool,
    /// Final core count.
    pub cores: usize,
    /// Final way count.
    pub ways: usize,
}

/// Outcome of a co-location scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Whether every service was accepted (no migration requests at
    /// placement time).
    pub all_placed: bool,
    /// Whether every placed service met QoS at steady state.
    pub qos_ok: bool,
    /// Total scheduling actions the policy took.
    pub actions: usize,
    /// Per-service detail.
    pub apps: Vec<AppReport>,
}

impl ScenarioOutcome {
    /// Whether the co-location fully succeeded (all placed, all within QoS).
    pub fn success(&self) -> bool {
        self.all_placed && self.qos_ok
    }
}

/// Runs one co-location: services arrive in order, the scheduler places
/// each (rejected services are migrated away, failing the scenario), then
/// the machine runs for `settle_ticks` seconds of 1 Hz monitoring. The
/// machine is noiseless, making grid cells deterministic; use
/// [`run_colocation_with_noise`] for robustness studies.
pub fn run_colocation<Sched: Scheduler>(
    scheduler: &mut Sched,
    specs: &[LaunchSpec],
    settle_ticks: usize,
    seed: u64,
) -> ScenarioOutcome {
    run_colocation_with_noise(scheduler, specs, settle_ticks, seed, 0.0)
}

/// The placement phase every co-location shares: services arrive in order,
/// each launched on its bootstrap allocation and given a second to produce
/// counters before the scheduler sees it; one the scheduler refuses is
/// withdrawn (the upper-level scheduler migrates it elsewhere). The
/// scheduler never ticks while services are arriving. `after_each` sees the
/// machine after every arrival. Returns what was placed, and whether
/// everything was.
pub fn place_all<Sched: Scheduler, M: Machine>(
    scheduler: &mut Sched,
    machine: &mut M,
    specs: &[LaunchSpec],
    mut after_each: impl FnMut(&M),
) -> (Vec<(AppId, LaunchSpec)>, bool) {
    let mut placed = Vec::new();
    for &spec in specs {
        let alloc = bootstrap_allocation(machine, spec.threads);
        let id = machine.launch(spec, alloc).expect("bootstrap allocation is valid");
        machine.advance(1.0);
        match scheduler.on_arrival(machine, id) {
            Placement::Placed => placed.push((id, spec)),
            Placement::Rejected(_) | Placement::Deferred { .. } => {
                let _ = machine.remove(id);
                scheduler.on_departure(id);
            }
        }
        after_each(machine);
    }
    let all_placed = placed.len() == specs.len();
    (placed, all_placed)
}

/// How many of `placed` are within their QoS target right now.
pub(crate) fn met_qos<S: Substrate>(server: &S, placed: &[(AppId, LaunchSpec)]) -> usize {
    placed.iter().filter(|p| server.latency(p.0).is_some_and(|l| !l.violates_qos())).count()
}

/// The steady-state report of every placed service still on the machine.
pub(crate) fn app_reports<S: Substrate>(
    server: &S,
    placed: &[(AppId, LaunchSpec)],
) -> Vec<AppReport> {
    placed
        .iter()
        .filter_map(|&(id, spec)| {
            let lat = server.latency(id)?;
            let alloc = server.allocation(id)?;
            Some(AppReport {
                service: spec.service,
                offered_rps: spec.offered_rps,
                p95_ms: lat.p95_ms,
                qos_ms: lat.qos_target_ms,
                qos_met: !lat.violates_qos(),
                cores: alloc.cores.count(),
                ways: alloc.ways.count(),
            })
        })
        .collect()
}

/// [`run_colocation`] on a machine with trace noise (and the cache-warmup
/// transients that come with it).
pub fn run_colocation_with_noise<Sched: Scheduler>(
    scheduler: &mut Sched,
    specs: &[LaunchSpec],
    settle_ticks: usize,
    seed: u64,
    noise_sigma: f64,
) -> ScenarioOutcome {
    let mut server = SimServer::new(SimConfig { noise_sigma, seed, ..SimConfig::default() });
    let (placed, all_placed) = place_all(scheduler, &mut server, specs, |_| {});
    for _ in 0..settle_ticks {
        server.advance(1.0);
        scheduler.tick(&mut server);
    }
    server.advance(1.0);

    let apps = app_reports(&server, &placed);
    let qos_ok = apps.iter().all(|a| a.qos_met);
    ScenarioOutcome { all_placed, qos_ok, actions: scheduler.action_count(), apps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osml_baselines::{Parties, Unmanaged};

    #[test]
    fn light_colocation_succeeds_under_parties() {
        let specs = [
            LaunchSpec::at_percent_load(Service::Moses, 20.0),
            LaunchSpec::at_percent_load(Service::Login, 20.0),
        ];
        let mut p = Parties::new();
        let out = run_colocation(&mut p, &specs, 80, 1);
        assert!(out.all_placed);
        assert!(out.qos_ok, "{:?}", out.apps);
        assert_eq!(out.apps.len(), 2);
        assert!(out.actions >= 2);
    }

    #[test]
    fn unmanaged_fails_where_isolation_matters() {
        // Heavy cache-contending pair: unmanaged sharing should violate at
        // least one QoS where a partitioned policy can succeed.
        let specs = [
            LaunchSpec::at_percent_load(Service::Moses, 70.0),
            LaunchSpec::at_percent_load(Service::Specjbb, 70.0),
        ];
        let mut unmanaged = Unmanaged::new();
        let shared = run_colocation(&mut unmanaged, &specs, 30, 2);
        let mut parties = Parties::new();
        let managed = run_colocation(&mut parties, &specs, 150, 2);
        assert!(
            managed.qos_ok as u8 >= shared.qos_ok as u8,
            "managed {:?} vs unmanaged {:?}",
            managed.qos_ok,
            shared.qos_ok
        );
    }

    #[test]
    fn bootstrap_allocation_is_always_valid() {
        let mut server = SimServer::deterministic();
        for i in 0..6 {
            let alloc = bootstrap_allocation(&mut server, 16);
            assert!(alloc.validate(server.topology()).is_ok());
            server
                .launch(LaunchSpec::at_percent_load(Service::Login, 10.0 + i as f64), alloc)
                .unwrap();
        }
    }
}
