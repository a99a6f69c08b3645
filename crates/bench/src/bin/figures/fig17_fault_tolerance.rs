//! Fig. 17 (this reproduction's extension): QoS compliance vs platform
//! fault rate for the 3-service co-location of Fig. 10, proving the
//! resilient controller degrades gracefully rather than cliff-shaped.
//!
//! Each point replays the co-location with a seeded fault plan scaled
//! around the default chaos mix (5 % transient actuation failures + 2 %
//! counter dropout at rate 0.05): actuations fail transiently at the given
//! probability, counter windows drop/stale/corrupt proportionally, and the
//! controller's retry/rollback/fallback machinery has to keep every
//! service converging back to QoS.
//!
//! `--smoke` runs a two-point sweep with a short settle phase (CI).

use osml_bench::chaos::{run_chaos_colocation, ChaosOutcome};
use osml_bench::report;
use osml_bench::suite::trained_suite;
use osml_platform::{FaultPlan, FaultProfile};
use osml_workloads::{LaunchSpec, Service};

pub(super) fn run(smoke: bool) {
    let (rates, settle): (&[f64], usize) =
        if smoke { (&[0.0, 0.05], 40) } else { (&[0.0, 0.01, 0.02, 0.05, 0.10, 0.20], 120) };
    let specs = [
        LaunchSpec::at_percent_load(Service::Xapian, 30.0),
        LaunchSpec::at_percent_load(Service::ImgDnn, 30.0),
        LaunchSpec::at_percent_load(Service::Moses, 30.0),
    ];
    let template = trained_suite();

    println!("== Fig. 17: QoS compliance vs platform fault rate ==\n");
    println!(
        "{:>6}  {:>9}  {:>10}  {:>7}  {:>7}  {:>9}  {:>9}  {:>9}  {:>6}",
        "rate",
        "compliance",
        "converged",
        "faults",
        "retries",
        "rollbacks",
        "fallbacks",
        "recovered",
        "layout"
    );
    let mut outcomes: Vec<ChaosOutcome> = Vec::new();
    for &rate in rates {
        let profile = if (rate - 0.05).abs() < 1e-12 {
            // The default chaos point uses the canonical 5 % + 2 % mix.
            FaultProfile::chaos_default()
        } else {
            FaultProfile::at_rate(rate)
        };
        let mut osml = template.clone();
        let out =
            run_chaos_colocation(&mut osml, &specs, settle, 17, FaultPlan::new(0xFA_17, profile));
        println!(
            "{:>6.2}  {:>9.3}  {:>10}  {:>7}  {:>7}  {:>9}  {:>9}  {:>9}  {:>6}",
            rate,
            out.qos_compliance_over_time,
            out.converged,
            out.faults_injected,
            out.retries,
            out.rollbacks,
            out.fallbacks_engaged,
            out.recoveries,
            if out.layout_always_valid { "ok" } else { "BROKEN" },
        );
        assert!(
            out.layout_always_valid,
            "rate {rate}: a half-applied layout escaped the transactional controller"
        );
        outcomes.push(out);
    }

    let zero = &outcomes[0];
    assert!(zero.faults_injected == 0 && zero.retries == 0 && zero.rollbacks == 0);
    println!("\nExpected shape: compliance ~1.0 at rate 0 and degrading smoothly; every");
    println!("service converges back to QoS at the default chaos point (rate 0.05).");
    report::save_json("fig17_fault_tolerance", &outcomes);
}
