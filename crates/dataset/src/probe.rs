use osml_platform::{
    Allocation, AppId, CoreSet, CounterSample, MbaThrottle, Substrate, Topology, WayMask,
};
use osml_workloads::{LaunchSpec, Service, SimConfig, SimServer};

/// A reusable solo-service probe: launches one service on a private
/// simulator and samples its counters at arbitrary `<cores, ways>`
/// allocations.
///
/// This is the data-collection harness of the paper's Fig. 5: one service
/// alone on the testbed, allocation swept cell by cell, counters recorded
/// after a 2-second window.
#[derive(Debug)]
pub struct FeatureProbe {
    server: SimServer,
    id: AppId,
    topo: Topology,
}

impl FeatureProbe {
    /// Launches `service` with `threads` threads at `offered_rps` on a fresh
    /// simulator. `noise_sigma` > 0 adds the run-to-run jitter real traces
    /// carry (training sets use a little; evaluation uses none).
    pub fn new(
        service: Service,
        threads: usize,
        offered_rps: f64,
        noise_sigma: f64,
        seed: u64,
    ) -> Self {
        let topo = Topology::xeon_e5_2697_v4();
        let mut server = SimServer::new(SimConfig { topology: topo.clone(), noise_sigma, seed });
        let alloc = Allocation::whole_machine(&topo);
        let id = server
            .launch(LaunchSpec { service, threads, offered_rps }, alloc)
            .expect("whole-machine allocation is valid");
        FeatureProbe { server, id, topo }
    }

    /// Samples the service's counters at `<cores, ways>` after a 2-second
    /// window. Cores are picked spread-first across physical cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `ways` are 0 or exceed the machine.
    pub fn sample_at(&mut self, cores: usize, ways: usize) -> CounterSample {
        let picked =
            CoreSet::all(&self.topo).pick_spread(&self.topo, cores).expect("cores within machine");
        let mask = WayMask::contiguous(0, ways).expect("ways within machine");
        let alloc = Allocation::new(picked, mask, MbaThrottle::unthrottled());
        self.server.reallocate(self.id, alloc).expect("probe app is placed");
        self.server.advance(2.0);
        self.server.sample(self.id).expect("probe app is placed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reflects_the_requested_allocation() {
        let mut probe = FeatureProbe::new(Service::Moses, 16, 2200.0, 0.0, 1);
        let s = probe.sample_at(8, 12);
        assert_eq!(s.allocated_cores, 8);
        assert_eq!(s.allocated_ways, 12);
        assert!(s.response_latency_ms > 0.0);
    }

    #[test]
    fn starved_allocation_shows_higher_latency() {
        let mut probe = FeatureProbe::new(Service::Xapian, 24, 4000.0, 0.0, 2);
        let rich = probe.sample_at(16, 16);
        let poor = probe.sample_at(2, 2);
        assert!(poor.response_latency_ms > rich.response_latency_ms);
    }

    #[test]
    fn deterministic_given_zero_noise() {
        let mut a = FeatureProbe::new(Service::Login, 8, 900.0, 0.0, 4);
        let mut b = FeatureProbe::new(Service::Login, 8, 900.0, 0.0, 5);
        assert_eq!(a.sample_at(4, 4), b.sample_at(4, 4));
    }
}
