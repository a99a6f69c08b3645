//! Cross-crate tests of the fault-tolerant cluster tier: service
//! conservation under arbitrary submit/finish/kill/recover interleavings,
//! failover across scripted node deaths, and golden-thread replay of
//! cluster runs.

use osml_core::{
    Cluster, ClusterConfig, ClusterError, ClusterPlacement, OsmlConfig, ServiceDisposition,
};
use osml_integration::{conserve_through, crash_plan, raw_scheduler};
use osml_platform::{NodeCrash, NodeFaultPlan};
use osml_workloads::{LaunchSpec, Service};
use proptest::prelude::*;

#[test]
fn zero_node_cluster_is_a_typed_error() {
    assert_eq!(
        Cluster::try_new(0, raw_scheduler(), OsmlConfig::default(), ClusterConfig::default(), 1)
            .unwrap_err(),
        ClusterError::NoNodes
    );
}

/// Satellite regression: kill the node hosting a service, then resolve the
/// migrated service by cluster id — `locate`, `latency_over_target`, and
/// `finish` must never chase the stale `(node, app)` pair.
#[test]
fn failover_keeps_ids_resolvable_across_node_death() {
    let cfg = ClusterConfig {
        node_faults: NodeFaultPlan {
            crashes: vec![NodeCrash { node: 0, at_s: 10.0, recover_s: None }],
            ..NodeFaultPlan::none()
        },
        ..ClusterConfig::failover_enabled()
    };
    let mut cluster = Cluster::try_new(3, raw_scheduler(), OsmlConfig::default(), cfg, 42).unwrap();
    let mut handles = Vec::new();
    for service in [Service::Moses, Service::Login, Service::ImgDnn] {
        match cluster.submit(LaunchSpec::at_percent_load(service, 25.0)) {
            ClusterPlacement::Placed(h) => handles.push(h),
            ClusterPlacement::ClusterFull => panic!("an empty 3-node fleet rejected a service"),
        }
    }
    let on_zero: Vec<_> = handles.iter().filter(|h| h.node == 0).copied().collect();
    assert!(!on_zero.is_empty(), "first-fit must land something on node 0");

    cluster.run(20.0);
    assert!(!cluster.node_is_up(0));
    assert_eq!(cluster.failovers(), on_zero.len());
    for stale in &on_zero {
        let here = cluster.locate(stale.id).expect("failed-over service stays resolvable");
        assert_ne!(here.node, 0, "must have left the dead node");
        assert!(
            cluster.latency_over_target(stale.id).is_some(),
            "latency resolves through the new replica"
        );
        assert_eq!(cluster.disposition(stale.id), Some(ServiceDisposition::Running));
    }
    // The stale pre-death handle still finishes the service by id.
    let stale = on_zero[0];
    assert!(cluster.finish(stale));
    assert!(cluster.locate(stale.id).is_none());
    cluster.unified_log().replay().expect("cluster log must fold after failover");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation under arbitrary interleavings of submit / finish /
    /// node-kill / node-recover / run, every death scripted by the fault
    /// plan and detected by heartbeat: every id ever issued holds exactly
    /// one disposition at all times (placed, evicted, rejected, finished —
    /// never lost, never duplicated), running services resolve to up
    /// nodes, and the golden log still folds at the end.
    #[test]
    fn services_are_conserved_under_chaos(
        raw_ops in proptest::collection::vec(0usize..1000, 1..40),
        seed in 0u64..1000,
    ) {
        let cfg = ClusterConfig {
            node_faults: crash_plan(&raw_ops, 3),
            ..ClusterConfig::failover_enabled()
        };
        let mut cluster =
            Cluster::try_new(3, raw_scheduler(), OsmlConfig::default(), cfg, seed).unwrap();
        conserve_through(&mut cluster, &raw_ops);
        cluster.unified_log().replay().expect("cluster log must fold after the interleaving");
    }
}
