//! Fault-injection integration: the resilient controller against the
//! deterministic chaos substrate, across crate boundaries.
//!
//! Covers the robustness acceptance criteria end to end: a zero-probability
//! fault plan is observationally transparent, arbitrary fault schedules
//! never corrupt the machine layout, fault traces are independent of the
//! training job count, and a scripted outage drives the watchdog through a
//! full `FallbackEngaged` → `Recovered` cycle.

use osml_bench::chaos::{layout_invariants_ok, run_chaos_colocation};
use osml_bench::scenario::place_all;
use osml_bench::suite::trained_suite;
use osml_core::{Decision, EventBody, Models, OsmlConfig, OsmlScheduler};
use osml_dataset::{SweepConfig, TrainedModels, TrainingConfig};
use osml_ml::TrainerConfig;
use osml_platform::{FailWindow, FaultPlan, FaultProfile, FaultySubstrate, Scheduler, Substrate};
use osml_workloads::{LaunchSpec, Service, SimConfig, SimServer};
use proptest::prelude::*;

fn sim(seed: u64) -> SimServer {
    SimServer::new(SimConfig { noise_sigma: 0.0, seed, ..SimConfig::default() })
}

/// A zero-probability profile whose decision path still runs (the far-future
/// fail window keeps `is_none()` false), so transparency is proven for the
/// hashing code, not just the early-out.
fn armed_but_harmless() -> FaultProfile {
    FaultProfile {
        fail_windows: vec![FailWindow { start_s: 1.0e9, end_s: 2.0e9 }],
        ..FaultProfile::none()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With every fault probability at 0.0 the wrapped substrate is
    /// byte-identical to the bare one across an arbitrary op sequence.
    #[test]
    fn zero_probability_substrate_is_transparent(
        seed in 0u64..1000,
        fault_seed in 0u64..1000,
        loads in proptest::collection::vec(10.0f64..60.0, 1..4),
        steps in proptest::collection::vec(0.5f64..3.0, 1..12),
    ) {
        let services = [Service::Moses, Service::Xapian, Service::ImgDnn];
        let mut plain = sim(seed);
        let mut wrapped =
            FaultySubstrate::new(sim(seed), FaultPlan::new(fault_seed, armed_but_harmless()));

        let mut ids = Vec::new();
        for (i, &load) in loads.iter().enumerate() {
            let spec = LaunchSpec::at_percent_load(services[i % services.len()], load);
            let alloc = osml_core::bootstrap_allocation(&mut plain, spec.threads);
            let a = plain.launch(spec, alloc).unwrap();
            let b = wrapped.inner_mut().launch(spec, alloc).unwrap();
            prop_assert_eq!(a, b);
            ids.push(a);
        }
        for (tick, &dt) in steps.iter().enumerate() {
            plain.advance(dt);
            wrapped.advance(dt);
            prop_assert_eq!(plain.now(), wrapped.now());
            // Exercise the actuation path on one app per step.
            let id = ids[tick % ids.len()];
            let grown = plain.allocation(id).unwrap();
            prop_assert_eq!(plain.reallocate(id, grown).is_ok(), wrapped.reallocate(id, grown).is_ok());
            for &id in &ids {
                prop_assert_eq!(plain.sample(id), wrapped.sample(id));
                prop_assert_eq!(plain.latency(id), wrapped.latency(id));
                prop_assert_eq!(plain.allocation(id), wrapped.allocation(id));
            }
        }
        prop_assert_eq!(wrapped.fault_count(), 0);
        prop_assert_eq!(wrapped.injected_latency_ms(), 0.0);
    }
}

proptest! {
    // Each case replays a full co-location, so keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// No fault schedule — whatever the mix and seed — may ever leave the
    /// machine with an invalid allocation or a double-assigned core, and the
    /// controller must survive it without panicking.
    #[test]
    fn layout_invariants_hold_under_any_fault_schedule(
        fault_seed in 0u64..10_000,
        rate in 0.0f64..0.4,
        stale in 0.0f64..0.3,
        corruption in 0.0f64..0.2,
        sim_seed in 0u64..100,
    ) {
        let profile = FaultProfile {
            counter_stale_prob: stale,
            counter_corruption_prob: corruption,
            ..FaultProfile::at_rate(rate)
        };
        let specs = [
            LaunchSpec::at_percent_load(Service::Moses, 30.0),
            LaunchSpec::at_percent_load(Service::Xapian, 30.0),
        ];
        let mut osml = trained_suite();
        let out = run_chaos_colocation(
            &mut osml,
            &specs,
            25,
            sim_seed,
            FaultPlan::new(fault_seed, profile),
        );
        prop_assert!(out.layout_always_valid, "half-applied layout: {:?}", out);
        // The controller never mistakes injected faults for capacity: every
        // observed fault is accounted for in the log, none crashes the run.
        prop_assert!(out.faults_observed <= out.faults_injected + out.retries);
    }
}

/// The fault trace and every scheduler decision depend only on the fault
/// seed and call sequence — not on how many worker threads trained the
/// models (`SweepConfig::jobs` 1 vs 4).
#[test]
fn fault_trace_is_independent_of_training_job_count() {
    let train = |jobs: usize| -> OsmlScheduler {
        let training = TrainingConfig {
            sweep: SweepConfig { jobs: Some(jobs), ..SweepConfig::default() },
            trainer: TrainerConfig { epochs: 160, batch_size: 256, ..TrainerConfig::default() },
            dqn_steps: 400,
            seed: 0x05_11,
        };
        let t = TrainedModels::train(&training);
        let models = Models {
            model_a: t.model_a,
            model_b: t.model_b,
            model_b_prime: t.model_b_prime,
            model_c: t.model_c,
        };
        OsmlScheduler::new(models, OsmlConfig::default())
    };
    let specs = [
        LaunchSpec::at_percent_load(Service::Xapian, 30.0),
        LaunchSpec::at_percent_load(Service::ImgDnn, 30.0),
    ];
    let plan = FaultPlan::new(0x00DE_7E12, FaultProfile::chaos_default());

    let mut seq = train(1);
    let out_seq = run_chaos_colocation(&mut seq, &specs, 40, 9, plan.clone());
    let mut par = train(4);
    let out_par = run_chaos_colocation(&mut par, &specs, 40, 9, plan);

    // Identical decisions → identical unified logs (including every
    // FaultObserved/Retried note) and identical outcomes.
    assert_eq!(seq.unified_log(), par.unified_log());
    assert_eq!(serde_json::to_string(&out_seq).unwrap(), serde_json::to_string(&out_par).unwrap());
    assert!(out_seq.faults_injected > 0, "chaos profile should have fired at least once");
}

/// A scripted mid-run outage must push the watchdog into heuristic fallback
/// and, once the platform is quiet again, back out: every `FallbackEngaged`
/// is matched by a `FallbackRecovered`, and every service ends QoS-compliant.
#[test]
fn scripted_outage_engages_fallback_and_recovers() {
    let profile = FaultProfile {
        // Total actuation outage between t=20s and t=34s; silence afterwards
        // so recovery is deterministic.
        fail_windows: vec![FailWindow { start_s: 20.0, end_s: 34.0 }],
        quiet_after_s: Some(34.0),
        ..FaultProfile::chaos_default()
    };
    let mut server = FaultySubstrate::new(sim(11), FaultPlan::new(0xBAD_CAFE, profile));
    let mut osml = trained_suite();

    let specs = [
        LaunchSpec::at_percent_load(Service::Moses, 30.0),
        LaunchSpec::at_percent_load(Service::Xapian, 30.0),
    ];
    let (placed, all_placed) = place_all(&mut osml, &mut server, &specs, |_| {});
    assert!(all_placed);
    let ids: Vec<_> = placed.iter().map(|p| p.0).collect();

    let mut engaged_at = None;
    for tick in 0..130 {
        server.advance(1.0);
        if server.now() >= 19.0 && server.now() < 20.0 {
            // Load spike just before the outage: the controller now *needs*
            // to actuate, and every actuation inside the window fails.
            let spec = server.inner().spec_of(ids[0]).unwrap();
            server.inner_mut().set_load(ids[0], spec.offered_rps * 2.2).unwrap();
        }
        osml.tick(&mut server);
        assert!(layout_invariants_ok(&server), "invalid layout at tick {tick}");
        if engaged_at.is_none() && ids.iter().any(|&id| osml.in_fallback(id)) {
            engaged_at = Some(server.now());
        }
    }

    let log = osml.unified_log();
    let engaged = log.count(|b| matches!(b, EventBody::Decision(Decision::FallbackEngaged { .. })));
    let recovered =
        log.count(|b| matches!(b, EventBody::Decision(Decision::FallbackRecovered { .. })));
    assert!(engaged >= 1, "outage must trip the watchdog: {engaged_at:?}");
    assert_eq!(engaged, recovered, "every FallbackEngaged needs a matching FallbackRecovered");
    assert_eq!(ids.iter().filter(|&&id| osml.in_fallback(id)).count(), 0);
    for &id in &ids {
        let lat = server.latency(id).unwrap();
        assert!(
            !lat.violates_qos(),
            "service {id:?} must converge back to QoS: p95={} target={}",
            lat.p95_ms,
            lat.qos_target_ms
        );
    }
    assert!(server.fault_count() > 0);
}
