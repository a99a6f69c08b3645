//! Property-based tests (proptest) on the core data structures and the
//! simulator's physical invariants.

use osml_bench::chaos::layout_invariants_ok;
use osml_bench::replay::world_script_from_log;
use osml_core::host::{Host, Seat, Submission};
use osml_core::{LaunchCause, OsmlConfig, OverloadConfig, RecoveryStore, ScratchDir};
use osml_integration::raw_scheduler;
use osml_platform::{Allocation, CoreSet, MbaThrottle, SloClass, Substrate, Topology, WayMask};
use osml_workloads::oaa::LatencyGrid;
use osml_workloads::perf::{self, PerfInput};
use osml_workloads::{LaunchSpec, Service, SimConfig, SimServer, ALL_SERVICES};
use proptest::prelude::*;

fn arb_service() -> impl Strategy<Value = Service> {
    (0..ALL_SERVICES.len()).prop_map(|i| ALL_SERVICES[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn way_masks_round_trip(first in 0usize..19, count in 1usize..20) {
        prop_assume!(first + count <= 20);
        let m = WayMask::contiguous(first, count).unwrap();
        prop_assert_eq!(m.first(), first);
        prop_assert_eq!(m.count(), count);
        prop_assert_eq!(m.end(), first + count);
        prop_assert_eq!(WayMask::from_bits(m.bits()).unwrap(), m);
    }

    #[test]
    fn way_mask_resize_stays_valid(first in 0usize..19, count in 1usize..20, delta in -25i32..25) {
        prop_assume!(first + count <= 20);
        let m = WayMask::contiguous(first, count).unwrap();
        let r = m.resized(delta, 20);
        prop_assert!(r.count() >= 1);
        prop_assert!(r.end() <= 20);
        // Resizing is exact when unclamped.
        let expect = (count as i32 + delta).clamp(1, 20) as usize;
        prop_assert_eq!(r.count(), expect);
    }

    #[test]
    fn core_set_operations_are_consistent(bits_a in 0u64..(1 << 36), bits_b in 0u64..(1 << 36)) {
        let a = CoreSet::from_cores((0..36).filter(|&c| bits_a & (1 << c) != 0));
        let b = CoreSet::from_cores((0..36).filter(|&c| bits_b & (1 << c) != 0));
        prop_assert_eq!(a.union(b).count() + a.intersection(b).count(), a.count() + b.count());
        prop_assert_eq!(a.difference(b).count(), a.count() - a.intersection(b).count());
        prop_assert_eq!(a.overlaps(b), a.intersection(b).count() > 0);
    }

    #[test]
    fn effective_cores_bounded_by_logical_and_physical(bits in 1u64..(1 << 36)) {
        let topo = Topology::xeon_e5_2697_v4();
        let set = CoreSet::from_cores((0..36).filter(|&c| bits & (1 << c) != 0));
        let eff = set.effective_cores(&topo);
        prop_assert!(eff > 0.0);
        prop_assert!(eff <= set.count() as f64 + 1e-9);
        prop_assert!(eff <= 18.0 * 1.3 + 1e-9);
    }

    #[test]
    fn latency_monotone_in_each_resource(
        service in arb_service(),
        cores in 2usize..18,
        ways in 2usize..20,
        load_frac in 0.1f64..0.9,
    ) {
        let params = service.params();
        let rps = params.nominal_max_rps() * load_frac;
        let eval = |c: usize, w: usize| {
            perf::evaluate(
                params,
                &PerfInput::solo(params.default_threads, rps, c as f64, w as f64 * 2.25),
            )
            .p95_ms
        };
        let here = eval(cores, ways);
        prop_assert!(eval(cores - 1, ways) >= here - 1e-9, "more cores must not hurt");
        prop_assert!(eval(cores, ways - 1) >= here - 1e-9, "more ways must not hurt");
    }

    #[test]
    fn latency_monotone_in_load(
        service in arb_service(),
        f1 in 0.1f64..0.5,
        f2 in 0.5f64..1.2,
    ) {
        let params = service.params();
        let eval = |f: f64| {
            perf::evaluate(
                params,
                &PerfInput::solo(params.default_threads, params.nominal_max_rps() * f, 12.0, 22.5),
            )
            .p95_ms
        };
        prop_assert!(eval(f2) >= eval(f1) - 1e-9);
    }

    #[test]
    fn oaa_when_present_meets_qos(service in arb_service(), load_frac in 0.1f64..0.8) {
        let topo = Topology::xeon_e5_2697_v4();
        let rps = service.params().nominal_max_rps() * load_frac;
        let grid = LatencyGrid::sweep(&topo, service, service.params().default_threads, rps);
        if let Some(oaa) = grid.oaa() {
            prop_assert!(grid.meets_qos(oaa));
            let cliff = grid.rcliff().unwrap();
            prop_assert!(oaa.cores >= cliff.cores);
            prop_assert!(oaa.ways >= cliff.ways);
            prop_assert!(grid.meets_qos(cliff));
        }
    }

    #[test]
    fn sim_conserves_reported_allocations(
        c1 in 1usize..12, c2 in 1usize..12,
        w1 in 1usize..8, w2 in 1usize..8,
    ) {
        let mut server = SimServer::new(SimConfig { noise_sigma: 0.0, seed: 1, ..SimConfig::default() });
        let a1 = Allocation::new(
            CoreSet::from_cores(0..c1),
            WayMask::contiguous(0, w1).unwrap(),
            MbaThrottle::unthrottled(),
        );
        let a2 = Allocation::new(
            CoreSet::from_cores(c1..c1 + c2),
            WayMask::contiguous(w1, w2).unwrap(),
            MbaThrottle::unthrottled(),
        );
        let id1 = server.launch(LaunchSpec::at_percent_load(Service::Moses, 20.0), a1).unwrap();
        let id2 = server.launch(LaunchSpec::at_percent_load(Service::Xapian, 20.0), a2).unwrap();
        server.advance(2.0);
        prop_assert_eq!(server.allocation(id1).unwrap(), a1);
        prop_assert_eq!(server.allocation(id2).unwrap(), a2);
        prop_assert_eq!(server.idle_cores().count(), 36 - c1 - c2);
        prop_assert_eq!(server.idle_way_count(), 20 - w1 - w2);
        // Counters exist and are physical.
        let s = server.sample(id1).unwrap();
        prop_assert!(s.ipc > 0.0 && s.llc_misses_per_sec >= 0.0 && s.mbl_gbps >= 0.0);
    }

    #[test]
    fn adding_a_neighbour_never_speeds_you_up(
        service in arb_service(),
        load_frac in 0.2f64..0.6,
    ) {
        let mut server = SimServer::new(SimConfig { noise_sigma: 0.0, seed: 2, ..SimConfig::default() });
        let alloc = Allocation::new(
            CoreSet::from_cores(0..10),
            WayMask::contiguous(0, 8).unwrap(),
            MbaThrottle::unthrottled(),
        );
        let id = server
            .launch(LaunchSpec::at_percent_load(service, load_frac * 100.0), alloc)
            .unwrap();
        server.advance(2.0);
        let solo = server.latency(id).unwrap().p95_ms;
        // A bandwidth-hungry neighbour on disjoint cores/ways.
        let neighbor = Allocation::new(
            CoreSet::from_cores(10..20),
            WayMask::contiguous(8, 4).unwrap(),
            MbaThrottle::unthrottled(),
        );
        server
            .launch(LaunchSpec::at_percent_load(Service::Specjbb, 80.0), neighbor)
            .unwrap();
        server.advance(2.0);
        let contended = server.latency(id).unwrap().p95_ms;
        prop_assert!(contended >= solo - 1e-6, "neighbour cannot help: {solo} -> {contended}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary interleavings of arrivals (admitted, deferred or rejected),
    /// departures, ticks, checkpoints and controller kills never leak cores
    /// or ways: the layout stays free of core double-assignment throughout,
    /// and once every service is gone the whole machine reads idle again.
    /// The host records what it does into a journal, so after every op —
    /// a recovery included, warm from the last checkpoint or, before the
    /// first, cold with the whole journal as the suffix — the log alone must
    /// fold to the live state and the journal must be the log, and at the
    /// end the world script must reconstruct from it.
    #[test]
    fn overload_interleavings_never_leak_resources(ops in proptest::collection::vec(0u8..255, 1..64)) {
        let server =
            SimServer::new(SimConfig { noise_sigma: 0.0, seed: 0xA110C, ..SimConfig::default() });
        // Untrained models: the property is about bookkeeping, not decision
        // quality, and training would dominate the proptest budget.
        let config = OsmlConfig { overload: OverloadConfig::enabled(), ..OsmlConfig::default() };
        let scratch = ScratchDir::new("properties-overload");
        let store = RecoveryStore::open(scratch.path()).expect("open recovery store");
        let mut scheduler = raw_scheduler().with_config(config.clone());
        scheduler.attach_unified_journal(&store.unified_path()).expect("attach journal");
        let mut host = Host::new(server, scheduler);
        let mut arrivals = 0u64;
        for &op in &ops {
            let now = host.machine.now();
            // `op % 8` picks the op, weighted to arrivals and ticks so runs
            // reach brownout and shedding; the draw is the bits it leaves
            // unused, so arrivals reach every class and every service.
            let draw = (op / 8) as usize;
            match op % 8 {
                0..=2 => {
                    let spec = LaunchSpec::at_percent_load(
                        ALL_SERVICES[draw % ALL_SERVICES.len()],
                        20.0 + (op % 40) as f64,
                    );
                    let class =
                        [SloClass::LatencyCritical, SloClass::Degradable, SloClass::BestEffort]
                            [draw % 3];
                    let sub = Submission { workload: arrivals, spec, class };
                    host.scheduler.record_world(now, None, sub.arrival_due());
                    host.submit(sub, LaunchCause::Scripted);
                    arrivals += 1;
                }
                3 => {
                    let live: Vec<Seat> =
                        host.seats().map(|s| s.0).filter(|s| matches!(s, Seat::Live(_))).collect();
                    if !live.is_empty() {
                        host.depart(now, live[draw % live.len()]);
                    }
                }
                4 | 5 => {
                    host.step(|parked| parked);
                }
                6 => host.checkpoint(&store),
                _ => {
                    let models = raw_scheduler().models().clone();
                    host.kill_and_recover(models, config.clone(), &store);
                }
            }
            prop_assert!(layout_invariants_ok(&host.machine), "layout broke after op {op}");
            prop_assert_eq!(
                host.scheduler.unified_log().replay().expect("the log is sufficient"),
                host.scheduler.live_replay_state(&host.machine),
                "replay(log) != live state after op {}", op
            );
            prop_assert_eq!(
                std::fs::read_to_string(store.unified_path()).expect("the journal exists"),
                host.scheduler.unified_log().to_jsonl(),
                "the journal is not the log after op {}", op
            );
        }

        // Two last heartbeats — a script ends at the one before its last,
        // and may not end before an arrival — then drain the world: every
        // live service departs, every waiting ticket is withdrawn. Nothing
        // may remain allocated.
        host.step(|parked| parked);
        host.step(|parked| parked);
        let now = host.machine.now();
        for seat in host.seats().map(|s| s.0).collect::<Vec<_>>() {
            host.depart(now, seat);
        }
        prop_assert!(host.machine.apps().is_empty());
        prop_assert_eq!(host.machine.idle_cores().count(), 36, "cores leaked");
        prop_assert_eq!(host.machine.idle_way_count(), 20, "LLC ways leaked");
        prop_assert_eq!(host.scheduler.queue_depth(), 0);
        let script = world_script_from_log(host.scheduler.unified_log());
        prop_assert_eq!(script.map(|s| s.events.len() as u64), Ok(arrivals));
    }
}
