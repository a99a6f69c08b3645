//! Cross-crate tests of the partition-tolerant control plane: service
//! conservation under arbitrary interleavings of submit / finish /
//! node-kill / node-restore / run on a *lossy* command channel with
//! scripted partition windows, plus duplicate-delivery idempotence and a
//! seed sweep of the tier-1 lossy fleet that no ghost replica may survive.

use osml_bench::cluster::lossy_fleet;
use osml_core::{Cluster, ClusterConfig, ClusterPlacement, OsmlConfig, ServiceDisposition};
use osml_integration::{conserve_through, raw_scheduler};
use osml_platform::{ChannelPlan, PartitionWindow};
use osml_workloads::{LaunchSpec, Service};
use proptest::prelude::*;

/// Duplicate-delivery idempotence across the crate boundary: a channel
/// that duplicates *every* message must still leave exactly one replica
/// per running service, because the node-side sequence window dedups
/// commands and re-acks from the reply cache.
#[test]
fn duplicated_commands_never_double_place() {
    let cfg = ClusterConfig {
        channel: ChannelPlan { seed: 7, duplicate_prob: 1.0, ..ChannelPlan::none() },
        ..ClusterConfig::failover_enabled()
    };
    let mut cluster = Cluster::try_new(3, raw_scheduler(), OsmlConfig::default(), cfg, 77).unwrap();
    let mut ids = Vec::new();
    for service in [Service::Moses, Service::Login, Service::ImgDnn] {
        if let ClusterPlacement::Placed(h) =
            cluster.submit(LaunchSpec::at_percent_load(service, 25.0))
        {
            ids.push(h.id);
        }
    }
    cluster.run(15.0);
    for id in &ids {
        if cluster.disposition(*id) == Some(ServiceDisposition::Running) {
            assert_eq!(cluster.replicas_of(*id), 1, "id {id} must have exactly one replica");
        }
    }
    assert_eq!(cluster.ghost_replicas(), 0, "duplicates must never leave ghosts");
    cluster.unified_log().replay().expect("log must fold under total duplication");
}

/// The tier-1 lossy fleet (eight nodes, 10 % loss, a partition and a crash)
/// over 300 seeds: after a 30-step settle no seed may leave a ghost
/// replica. Before every fresh pong ran the one reconciliation rule, seeds
/// 168, 173 and 296 each left a replica of a running service on a node
/// nobody had suspected — a delayed launch whose ack was lost.
#[test]
fn no_lossy_fleet_seed_leaves_a_ghost() {
    let ghosted: Vec<u64> = (1..=300)
        .filter(|&seed| lossy_fleet(raw_scheduler(), seed).cluster.ghost_replicas() > 0)
        .collect();
    assert!(ghosted.is_empty(), "seeds that left a ghost: {ghosted:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation on a faulty control plane: arbitrary interleavings of
    /// submit / finish / kill / restore / run over a channel that drops,
    /// delays and duplicates messages and cuts scripted partition windows.
    /// At every step the ledger is exact — every id ever issued holds
    /// exactly one typed disposition — and running services resolve to
    /// believed-up nodes. After the chaos quiesces (partitions over,
    /// nodes restored, links drained) no ghost replica survives and every
    /// running service has exactly one physical replica; the golden log
    /// folds throughout.
    #[test]
    fn services_are_conserved_on_a_lossy_channel(
        raw_ops in proptest::collection::vec(0usize..1000, 1..32),
        seed in 0u64..1000,
        loss_step in 1u64..5,
        raw_windows in proptest::collection::vec(0u64..10_000, 0..3),
    ) {
        let nodes = 3usize;
        let loss = loss_step as f64 * 0.05;
        let mut channel = ChannelPlan::lossy(seed ^ 0xC0, loss);
        let mut max_end = 0.0f64;
        // Decode each raw draw into a (node, start, duration) partition
        // window — the vendored proptest has no tuple strategies.
        for &raw in &raw_windows {
            let node = (raw % nodes as u64) as usize;
            let start_s = ((raw / 10) % 40) as f64;
            let end_s = start_s + (2 + (raw / 400) % 18) as f64;
            channel.partitions.push(PartitionWindow { node, start_s, end_s });
            max_end = max_end.max(end_s);
        }
        let cfg = ClusterConfig { channel, ..ClusterConfig::failover_enabled() };
        let mut cluster =
            Cluster::try_new(nodes, raw_scheduler(), OsmlConfig::default(), cfg, seed).unwrap();

        conserve_through(&mut cluster, &raw_ops, nodes);

        // Quiesce: outlive every partition window, restore the fleet, and
        // give the at-least-once teardown machinery time to drain.
        for node in 0..nodes {
            cluster.restore_node(node);
        }
        cluster.run(max_end + 30.0);
        for node in 0..nodes {
            cluster.restore_node(node);
            prop_assert!(cluster.node_is_up(node));
        }
        cluster.run(10.0);
        prop_assert_eq!(
            cluster.ghost_replicas(), 0,
            "after quiesce every live replica must be the authoritative one"
        );
        for h in cluster.services() {
            prop_assert_eq!(
                cluster.replicas_of(h.id), 1,
                "running id {} must have exactly one replica", h.id
            );
        }
        cluster.unified_log().replay().expect("cluster log must fold after the interleaving");
    }
}
