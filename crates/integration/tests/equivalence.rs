//! Engine equivalence: the event-driven scheduler core (timer wheel +
//! batched inference) must produce **bit-identical** unified logs and final
//! layouts to the legacy scan-based loop on deterministic substrates.
//!
//! Coverage:
//!
//! * a property test over random arrival/departure/load scripts on the
//!   workload simulator (binary-rejection admission), pinning the full
//!   unified golden-thread log;
//! * the same property with overload management enabled (admission queue,
//!   wait timeouts, brownout shave/shed) through the overload harness;
//! * the canonical Fig. 20 overload script at both queue configurations;
//! * a quiet-fleet anchor proving the dirty-set probe memo actually skips
//!   work (fewer model decisions) without changing the log.

use osml_bench::overload::{overload_script, run_overload_detailed};
use osml_core::{Models, OsmlConfig, OsmlScheduler, OverloadConfig, UnifiedLog};
use osml_models::{ModelA, ModelB, ModelBPrime, ModelC};
use osml_platform::{Allocation, AppId, FaultPlan, Placement, Scheduler, Substrate};
use osml_workloads::{LaunchSpec, Service, SimConfig, SimServer, ALL_SERVICES};
use proptest::prelude::*;

/// An untrained (but structurally valid, seed-deterministic) scheduler:
/// equivalence is about control flow, not model quality, and skipping
/// training keeps the property-test cases cheap.
fn raw_scheduler(config: OsmlConfig) -> OsmlScheduler {
    OsmlScheduler::new(
        Models {
            model_a: ModelA::new(36, 20, 1),
            model_b: ModelB::new(36, 20, 2),
            model_b_prime: ModelBPrime::new(3),
            model_c: ModelC::new(4),
        },
        config,
    )
}

/// One scripted service for the binary-rejection property.
#[derive(Debug, Clone)]
struct Ev {
    service: Service,
    pct: f64,
    arrive_tick: usize,
    depart_tick: Option<usize>,
    load_change: Option<(usize, f64)>,
}

/// Decodes one script entry from 64 random bits (the vendored proptest has
/// no tuple/oneof strategies, so a bit-sliced `u64` stands in for them).
fn decode_ev(raw: u64) -> Ev {
    let service = ALL_SERVICES[(raw % ALL_SERVICES.len() as u64) as usize];
    let pct = 10.0 + ((raw >> 8) % 600) as f64 / 10.0;
    let arrive_tick = ((raw >> 18) % 8) as usize;
    let depart_tick = ((raw >> 21) & 1 == 1).then(|| 18 + ((raw >> 22) % 12) as usize);
    let load_change = ((raw >> 26) & 1 == 1)
        .then(|| (4 + ((raw >> 27) % 12) as usize, 10.0 + ((raw >> 31) % 700) as f64 / 10.0));
    Ev { service, pct, arrive_tick, depart_tick, load_change }
}

/// One engine's observable outcome over a script.
struct RunOutcome {
    unified: UnifiedLog,
    layout: Vec<(u64, Allocation)>,
    /// Model decisions taken (Model-A predicts + Model-C inferences); the
    /// dirty-set memo may lower this in event mode without touching the
    /// log — skipped quiescent probes decide nothing.
    decisions: u64,
}

/// Drives one engine through the script and returns its observable outcome:
/// the unified golden-thread log, the final `(id, allocation)` layout and
/// the model-decision count.
fn run_script(event_driven: bool, seed: u64, script: &[Ev]) -> RunOutcome {
    run_script_for(event_driven, seed, script, 36)
}

fn run_script_for(event_driven: bool, seed: u64, script: &[Ev], ticks: usize) -> RunOutcome {
    let mut scheduler = raw_scheduler(OsmlConfig { event_driven, ..OsmlConfig::default() });
    let mut server = SimServer::new(SimConfig { noise_sigma: 0.0, seed, ..SimConfig::default() });
    let mut live: Vec<Option<AppId>> = vec![None; script.len()];
    for tick in 0..ticks {
        for (idx, ev) in script.iter().enumerate() {
            if live[idx].is_some() && ev.depart_tick == Some(tick) {
                let id = live[idx].take().expect("checked");
                let _ = server.remove(id);
                scheduler.on_departure(id);
            }
        }
        for (idx, ev) in script.iter().enumerate() {
            if live[idx].is_none() && ev.arrive_tick == tick && ev.depart_tick != Some(tick) {
                let spec = LaunchSpec::at_percent_load(ev.service, ev.pct);
                let alloc = osml_core::bootstrap_allocation(&mut server, spec.threads);
                let id = server.launch(spec, alloc).expect("bootstrap allocation is valid");
                match scheduler.on_arrival(&mut server, id) {
                    Placement::Placed => live[idx] = Some(id),
                    _ => {
                        let _ = server.remove(id);
                        scheduler.on_departure(id);
                    }
                }
            }
        }
        for (idx, ev) in script.iter().enumerate() {
            if let (Some(id), Some((at, pct2))) = (live[idx], ev.load_change) {
                if at == tick {
                    let rps = ev.service.params().nominal_max_rps() * pct2 / 100.0;
                    let _ = server.set_load(id, rps);
                }
            }
        }
        server.advance(1.0);
        scheduler.tick(&mut server);
    }
    let mut layout: Vec<(u64, Allocation)> = server
        .apps()
        .into_iter()
        .filter_map(|id| server.allocation(id).map(|a| (id.0, a)))
        .collect();
    layout.sort_by_key(|&(id, _)| id);
    RunOutcome {
        unified: scheduler.unified_log().clone(),
        layout,
        decisions: scheduler.decision_count(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_match_on_random_scripts(
        script in proptest::collection::vec((0u64..u64::MAX).prop_map(decode_ev), 1..5),
        seed in 0u64..1000,
    ) {
        let scan = run_script(false, seed, &script);
        let event = run_script(true, seed, &script);
        prop_assert_eq!(
            scan.unified, event.unified,
            "unified golden-thread logs diverged (seed {})", seed
        );
        prop_assert_eq!(scan.layout, event.layout, "final layouts diverged (seed {})", seed);
        prop_assert!(
            event.decisions <= scan.decisions,
            "the dirty-set memo may only remove decisions, never add them \
             (scan {} vs event {}, seed {})",
            scan.decisions, event.decisions, seed
        );
    }

    #[test]
    fn engines_match_under_overload(seed in 0u64..200, level_pct in 80u32..160) {
        // The overload harness exercises the queue-deadline timers,
        // brownout hysteresis and shave/shed paths that the plain script
        // cannot reach.
        let template = raw_scheduler(OsmlConfig::default());
        let script = overload_script(f64::from(level_pct) / 100.0);
        let run = |event_driven: bool| {
            run_overload_detailed(
                &template,
                &script,
                seed,
                OverloadConfig::enabled(),
                FaultPlan::none(),
                false,
                OsmlConfig { event_driven, ..OsmlConfig::default() },
            )
        };
        let (_, scan_log, scan_layout) = run(false);
        let (_, event_log, event_layout) = run(true);
        prop_assert_eq!(scan_log, event_log, "overload event logs diverged (seed {})", seed);
        prop_assert_eq!(scan_layout, event_layout, "overload layouts diverged (seed {})", seed);
    }
}

/// A quiet fleet: a few lightly-loaded services that arrive early, never
/// depart and never change load. Once each settles (surplus reclaimed to
/// its floor), every further probe observes the same counters, latency and
/// layout — exactly the window the dirty-set memo exists for. The memo must
/// skip those probes (strictly fewer model decisions than the scan engine)
/// while the log and the final layout stay bit-identical.
#[test]
fn dirty_set_memo_skips_quiet_probes_without_changing_the_logs() {
    let quiet =
        |service| Ev { service, pct: 15.0, arrive_tick: 0, depart_tick: None, load_change: None };
    let script = vec![quiet(Service::Memcached), quiet(Service::Nginx), quiet(Service::Masstree)];
    let scan = run_script_for(false, 11, &script, 60);
    let event = run_script_for(true, 11, &script, 60);
    assert_eq!(scan.unified, event.unified, "unified logs diverged on the quiet fleet");
    assert_eq!(scan.layout, event.layout, "final layouts diverged on the quiet fleet");
    assert!(
        event.decisions < scan.decisions,
        "the memo never fired: a settled fleet must skip quiescent probes \
         (scan made {} model decisions, event {})",
        scan.decisions,
        event.decisions
    );
}

/// The canonical Fig. 20 sweep point, both with the queue disabled (binary
/// rejection, timers never armed for admission) and enabled — a fixed,
/// always-run anchor alongside the randomized property.
#[test]
fn engines_match_on_fig20_script() {
    let template = raw_scheduler(OsmlConfig::default());
    let script = overload_script(1.0);
    for overload in [OverloadConfig::default(), OverloadConfig::enabled()] {
        let run = |event_driven: bool| {
            run_overload_detailed(
                &template,
                &script,
                7,
                overload.clone(),
                FaultPlan::none(),
                false,
                OsmlConfig { event_driven, ..OsmlConfig::default() },
            )
        };
        let (scan_outcome, scan_log, scan_layout) = run(false);
        let (event_outcome, event_log, event_layout) = run(true);
        assert_eq!(scan_log, event_log);
        assert_eq!(scan_layout, event_layout);
        assert_eq!(scan_outcome.actions, event_outcome.actions);
        assert_eq!(scan_outcome.timeouts, event_outcome.timeouts);
    }
}
