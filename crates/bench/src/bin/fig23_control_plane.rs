//! Fig. 23 (this reproduction's extension): cluster QoS compliance when
//! the *control plane itself* fails — messages between the upper scheduler
//! and its nodes dropped, delayed, duplicated, and whole nodes partitioned
//! away mid-run — comparing the full partition-tolerant protocol (sequence
//! dedup, epoch-fenced placement, heartbeat suspicion and reconciliation
//! on every pong) against a no-fencing ablation and the loss-free-channel
//! reference.
//!
//! Each cell runs the same service mix as Fig. 22 on a small fleet, sweeps
//! per-message loss against a mid-run partition of node 0, and accounts
//! demand-based compliance. Four invariants are asserted at every cell:
//! no service is ever silently lost (conservation ledger), every arm's
//! golden-thread log folds through `replay()` without error, the full
//! protocol never loses to its own ablation on the same channel, and it
//! ends the run with no ghost replica.
//!
//! `--smoke` runs a 2-point sweep (CI).

use osml_bench::cluster::failover_workload;
use osml_bench::control::{run_control_plane, ControlArm};
use osml_bench::report;
use osml_bench::suite::trained_suite;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (losses, partitions, duration_s): (&[f64], &[f64], f64) = if smoke {
        (&[0.0, 0.10], &[20.0], 60.0)
    } else {
        (&[0.0, 0.05, 0.10, 0.20], &[0.0, 20.0], 120.0)
    };
    let nodes = 3usize;
    let specs = failover_workload(2 * nodes);
    let template = trained_suite();

    println!("== Fig. 23: control-plane faults, suspicion and epoch fencing ==\n");
    println!(
        "{:>6}  {:>7}  {:>16}  {:>10}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}  {:>6}",
        "loss",
        "part_s",
        "arm",
        "compliance",
        "suspic",
        "false",
        "readopt",
        "fenced",
        "ghosts",
        "fold"
    );
    let mut outcomes = Vec::new();
    for &partition_s in partitions {
        for &loss in losses {
            let mut per_arm = Vec::new();
            for arm in ControlArm::ALL {
                let out = run_control_plane(
                    &template,
                    nodes,
                    &specs,
                    duration_s,
                    loss,
                    partition_s,
                    0xF23 ^ ((partition_s as u64) << 16) ^ ((loss * 100.0) as u64),
                    arm,
                );
                println!(
                    "{:>6.2}  {:>7.0}  {:>16}  {:>10.3}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}  {:>6}",
                    loss,
                    partition_s,
                    arm.label(),
                    out.qos_compliance,
                    out.suspicions,
                    out.false_suspicions,
                    out.readopted,
                    out.fenced_ghosts,
                    out.ghost_replicas_end,
                    if out.replay_ok { "ok" } else { "BROKEN" },
                );
                assert_eq!(out.lost_silently, 0, "conservation ledger must stay exact");
                if arm == ControlArm::LossyFull {
                    assert_eq!(
                        out.ghost_replicas_end, 0,
                        "loss={loss} partition={partition_s}: the full protocol left a ghost"
                    );
                }
                per_arm.push(out);
            }
            let ablated = per_arm
                .iter()
                .find(|o| o.arm == ControlArm::LossyNoFencing)
                .unwrap()
                .qos_compliance;
            let full =
                per_arm.iter().find(|o| o.arm == ControlArm::LossyFull).unwrap().qos_compliance;
            assert!(
                full >= ablated - 1e-9,
                "loss={loss} partition={partition_s}: the full protocol ({full:.3}) must not \
                 lose to its no-fencing ablation ({ablated:.3})"
            );
            outcomes.extend(per_arm);
        }
    }

    println!("\nExpected shape: all arms tie on a clean channel; as loss and partitions");
    println!("grow, the ablation accumulates ghost replicas and permanently evicts");
    println!("falsely suspected services, while the full protocol dedups, fences, and");
    println!("re-adopts — holding compliance at or above the ablation everywhere.");
    let path = report::save_json("fig23_control_plane", &outcomes);
    println!("saved {}", path.display());
}
