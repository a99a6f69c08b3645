use osml_platform::{Allocation, AppId, Placement, RejectReason, Scheduler, Substrate};

/// The paper's **Unmanaged Allocation** baseline: every service's threads
/// may run on every core, the LLC and memory bandwidth are uncontrolled,
/// and the OS time-shares everything. QoS is whatever falls out.
#[derive(Debug, Clone, Default)]
pub struct Unmanaged {
    actions: usize,
}

impl Unmanaged {
    /// Creates the baseline scheduler.
    pub fn new() -> Self {
        Unmanaged::default()
    }
}

impl Scheduler for Unmanaged {
    fn name(&self) -> &'static str {
        "unmanaged"
    }

    fn on_arrival<S: Substrate>(&mut self, server: &mut S, id: AppId) -> Placement {
        let alloc = Allocation::whole_machine(server.topology());
        if server.reallocate(id, alloc).is_ok() {
            self.actions += 1;
            Placement::Placed
        } else {
            Placement::Rejected(RejectReason::InsufficientResources)
        }
    }

    fn tick<S: Substrate>(&mut self, _server: &mut S) {
        // The OS scheduler "manages" everything; this policy never acts.
    }

    fn on_departure(&mut self, _id: AppId) {}

    fn action_count(&self) -> usize {
        self.actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osml_platform::{CoreSet, MbaThrottle, WayMask};
    use osml_workloads::{LaunchSpec, Service, SimServer};

    #[test]
    fn unmanaged_gives_everyone_the_whole_machine() {
        let mut server = SimServer::deterministic();
        let mut sched = Unmanaged::new();
        let seed_alloc =
            Allocation::new(CoreSet::first_n(2), WayMask::first_n(2), MbaThrottle::unthrottled());
        let a = server.launch(LaunchSpec::new(Service::Moses, 1500.0), seed_alloc).unwrap();
        let b = server.launch(LaunchSpec::new(Service::Xapian, 2000.0), seed_alloc).unwrap();
        assert_eq!(sched.on_arrival(&mut server, a), Placement::Placed);
        assert_eq!(sched.on_arrival(&mut server, b), Placement::Placed);
        server.advance(2.0);
        sched.tick(&mut server);
        for id in [a, b] {
            let alloc = server.allocation(id).unwrap();
            assert_eq!(alloc.cores.count(), 36);
            assert_eq!(alloc.ways.count(), 20);
        }
        assert_eq!(sched.action_count(), 2);
    }

    #[test]
    fn unmanaged_co_runners_interfere() {
        // Two heavy services sharing everything must hurt each other more
        // than a clean half-half partition would.
        let mut shared = SimServer::deterministic();
        let mut sched = Unmanaged::new();
        let seed =
            Allocation::new(CoreSet::first_n(1), WayMask::first_n(1), MbaThrottle::unthrottled());
        let a = shared.launch(LaunchSpec::at_percent_load(Service::Moses, 60.0), seed).unwrap();
        let b = shared.launch(LaunchSpec::at_percent_load(Service::Specjbb, 60.0), seed).unwrap();
        sched.on_arrival(&mut shared, a);
        sched.on_arrival(&mut shared, b);
        shared.advance(2.0);
        let shared_p95 = shared.latency(a).unwrap().p95_ms;

        let mut split = SimServer::deterministic();
        let a2 = split
            .launch(
                LaunchSpec::at_percent_load(Service::Moses, 60.0),
                Allocation::new(
                    CoreSet::first_n(18),
                    WayMask::first_n(10),
                    MbaThrottle::unthrottled(),
                ),
            )
            .unwrap();
        let _b2 = split
            .launch(
                LaunchSpec::at_percent_load(Service::Specjbb, 60.0),
                Allocation::new(
                    CoreSet::from_cores(18..36),
                    WayMask::contiguous(10, 10).unwrap(),
                    MbaThrottle::unthrottled(),
                ),
            )
            .unwrap();
        split.advance(2.0);
        let split_p95 = split.latency(a2).unwrap().p95_ms;
        assert!(
            shared_p95 > split_p95,
            "unmanaged sharing should be worse: {shared_p95:.2} vs {split_p95:.2}"
        );
    }
}
