//! End-to-end integration: train the full model suite from simulator sweeps,
//! drive the OSML controller on co-locations, and check the paper's headline
//! behaviours hold across the crate boundaries.

use osml_baselines::{Oracle, Parties, Unmanaged};
use osml_bench::suite::trained_suite;
use osml_bench::{run_colocation, scenario::place_all};
use osml_platform::{Scheduler, Substrate};
use osml_workloads::{LaunchSpec, Service, SimConfig, SimServer};

fn osml() -> osml_core::OsmlScheduler {
    // Deterministic: `trained_suite` trains from fixed seeds, so every test
    // gets an identical scheduler.
    trained_suite()
}

#[test]
fn osml_places_and_meets_qos_for_a_light_pair() {
    let mut sched = osml();
    let specs = [
        LaunchSpec::at_percent_load(Service::Moses, 30.0),
        LaunchSpec::at_percent_load(Service::Xapian, 30.0),
    ];
    let out = run_colocation(&mut sched, &specs, 40, 0xE2E);
    assert!(out.all_placed, "{out:?}");
    assert!(out.qos_ok, "apps: {:?}", out.apps);
    // Resources must be partitioned, not fully hoarded.
    let total_cores: usize = out.apps.iter().map(|a| a.cores).sum();
    assert!(total_cores <= 36);
}

#[test]
fn osml_beats_unmanaged_on_a_contended_pair() {
    let specs = [
        LaunchSpec::at_percent_load(Service::Moses, 50.0),
        LaunchSpec::at_percent_load(Service::Specjbb, 50.0),
    ];
    let mut um = Unmanaged::new();
    let unmanaged = run_colocation(&mut um, &specs, 30, 7);
    let mut sched = osml();
    let managed = run_colocation(&mut sched, &specs, 60, 7);
    assert!(managed.qos_ok, "OSML should isolate this pair: {:?}", managed.apps);
    assert!(!unmanaged.qos_ok, "unmanaged sharing should fail here: {:?}", unmanaged.apps);
}

#[test]
fn osml_converges_with_far_fewer_actions_than_parties() {
    let specs = [
        LaunchSpec::at_percent_load(Service::ImgDnn, 40.0),
        LaunchSpec::at_percent_load(Service::Xapian, 40.0),
        LaunchSpec::at_percent_load(Service::Moses, 40.0),
    ];
    let mut p = Parties::new();
    let parties = run_colocation(&mut p, &specs, 120, 11);
    let mut s = osml();
    let osml_out = run_colocation(&mut s, &specs, 120, 11);
    assert!(
        osml_out.actions * 2 <= parties.actions.max(1) * 3,
        "OSML ({}) should need far fewer actions than PARTIES ({})",
        osml_out.actions,
        parties.actions
    );
}

#[test]
fn osml_reclaims_surplus_after_a_load_drop() {
    let mut sched = osml();
    let mut server =
        SimServer::new(SimConfig { noise_sigma: 0.0, seed: 13, ..SimConfig::default() });
    let spec = LaunchSpec::at_percent_load(Service::Xapian, 70.0);
    let (placed, all_placed) = place_all(&mut sched, &mut server, &[spec], |_| {});
    assert!(all_placed);
    let id = placed[0].0;
    for _ in 0..20 {
        server.advance(1.0);
        sched.tick(&mut server);
    }
    let busy_cores = server.allocation(id).unwrap().cores.count();

    // Load collapses to 10 %; Algorithm 3 should hand resources back.
    server.set_load(id, Service::Xapian.params().nominal_max_rps() * 0.10).unwrap();
    for _ in 0..60 {
        server.advance(1.0);
        sched.tick(&mut server);
    }
    let idle_cores = server.allocation(id).unwrap().cores.count();
    assert!(
        idle_cores < busy_cores,
        "surplus must be reclaimed: {busy_cores} -> {idle_cores} cores"
    );
    assert!(!server.latency(id).unwrap().violates_qos());
}

#[test]
fn osml_handles_the_unseen_service() {
    // Txt-index is absent from every training sweep; OSML must still place
    // it and keep QoS (the paper's Fig. 14 makes this exact point).
    let mut sched = osml();
    let specs = [
        LaunchSpec::at_percent_load(Service::Moses, 30.0),
        LaunchSpec::at_percent_load(Service::TxtIndex, 30.0),
    ];
    let out = run_colocation(&mut sched, &specs, 60, 17);
    assert!(out.all_placed);
    assert!(out.qos_ok, "{:?}", out.apps);
}

#[test]
fn oracle_upper_bounds_osml_on_a_spot_check() {
    let specs = [
        LaunchSpec::at_percent_load(Service::Masstree, 40.0),
        LaunchSpec::at_percent_load(Service::Xapian, 40.0),
    ];
    // If OSML succeeds, the Oracle must agree the combination is feasible.
    let mut sched = osml();
    let osml_out = run_colocation(&mut sched, &specs, 60, 19);
    if osml_out.success() {
        assert!(
            Oracle::new().best_partition(&specs).is_some(),
            "oracle must not be beaten by an online scheduler"
        );
    }
}

#[test]
fn scheduler_survives_arrivals_and_departures() {
    let mut sched = osml();
    let mut server =
        SimServer::new(SimConfig { noise_sigma: 0.0, seed: 23, ..SimConfig::default() });
    let specs = [Service::Moses, Service::Login, Service::Ads]
        .map(|service| LaunchSpec::at_percent_load(service, 25.0));
    let (placed, all_placed) = place_all(&mut sched, &mut server, &specs, |_| {});
    assert!(all_placed);
    let ids: Vec<_> = placed.iter().map(|p| p.0).collect();
    for _ in 0..10 {
        server.advance(1.0);
        sched.tick(&mut server);
    }
    // Middle service departs; the others keep being scheduled sanely.
    server.remove(ids[1]).unwrap();
    sched.on_departure(ids[1]);
    for _ in 0..20 {
        server.advance(1.0);
        sched.tick(&mut server);
    }
    for &id in [&ids[0], &ids[2]] {
        assert!(!server.latency(id).unwrap().violates_qos());
    }
}
