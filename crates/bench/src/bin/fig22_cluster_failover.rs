//! Fig. 22 (this reproduction's extension): cluster QoS compliance vs
//! node-failure rate and fleet size, comparing the full failover stack
//! (interference-aware re-placement of services stranded by dead nodes)
//! against a score-only tier (better placement, no failover), the legacy
//! first-fit tier (no failover at all) and a seeded random-placement
//! baseline (the null hypothesis for the placement policy).
//!
//! Each cell churns a fleet under a seeded [`NodeFaultPlan`] for the run's
//! duration and accounts demand-based compliance: evicted and rejected
//! services keep demanding service-seconds, so shedding services on node
//! death is paid for rather than hidden. Two invariants are asserted at
//! every cell: no service is ever silently lost (every submitted id keeps
//! a typed disposition), and the cluster's golden-thread log folds through
//! `replay()` without error.
//!
//! `--smoke` runs a 2-point sweep on the small fleet (CI).

use osml_bench::cluster::{failover_workload, run_cluster_failover, FailoverArm};
use osml_bench::report;
use osml_bench::suite::trained_suite;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rates, fleets, duration_s): (&[f64], &[usize], f64) =
        if smoke { (&[0.0, 0.20], &[3], 60.0) } else { (&[0.0, 0.05, 0.10, 0.20], &[3, 6], 120.0) };
    let template = trained_suite();

    println!("== Fig. 22: cluster failover under node churn ==\n");
    println!(
        "{:>6}  {:>6}  {:>14}  {:>10}  {:>8}  {:>9}  {:>9}  {:>8}  {:>6}",
        "nodes", "rate", "arm", "compliance", "evicted", "failovers", "failures", "migrate", "fold"
    );
    let mut outcomes = Vec::new();
    for &nodes in fleets {
        // Two services per node: survivors have headroom for failovers.
        let specs = failover_workload(2 * nodes);
        for &rate in rates {
            let mut per_arm = Vec::new();
            for arm in FailoverArm::ALL {
                let out = run_cluster_failover(
                    &template,
                    nodes,
                    &specs,
                    duration_s,
                    rate,
                    0xF22 ^ (nodes as u64) << 8,
                    arm,
                );
                println!(
                    "{:>6}  {:>6.2}  {:>14}  {:>10.3}  {:>8}  {:>9}  {:>9}  {:>8}  {:>6}",
                    nodes,
                    rate,
                    arm.label(),
                    out.qos_compliance,
                    out.evicted,
                    out.failovers,
                    out.node_failures,
                    out.migrations,
                    if out.replay_ok { "ok" } else { "BROKEN" },
                );
                assert_eq!(out.lost_silently, 0, "no-loss invariant");
                per_arm.push(out);
            }
            let no_failover =
                per_arm.iter().find(|o| o.arm == FailoverArm::NoFailover).unwrap().qos_compliance;
            let full =
                per_arm.iter().find(|o| o.arm == FailoverArm::OsmlFailover).unwrap().qos_compliance;
            assert!(
                full >= no_failover - 1e-9,
                "nodes={nodes} rate={rate}: failover ({full:.3}) must not lose to \
                 no-failover ({no_failover:.3})"
            );
            outcomes.extend(per_arm);
        }
    }

    println!("\nExpected shape: all arms tie near rate 0; as churn grows, the no-failover");
    println!("tier sheds services on every node death while the failover stack re-places");
    println!("them on survivors, holding compliance strictly higher at every rate.");
    let path = report::save_json("fig22_cluster_failover", &outcomes);
    println!("saved {}", path.display());
}
