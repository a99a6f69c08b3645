//! What more than one module of this binary drives a world with.

use osml_core::{Cluster, Models, OsmlConfig, OsmlScheduler, ServiceDisposition};
use osml_platform::{NodeCrash, NodeFaultPlan};
use osml_workloads::{LaunchSpec, Service};

/// An untrained (but structurally valid, seed-deterministic) scheduler:
/// these tests are about plumbing and control flow, not model quality, and
/// skipping training keeps them cheap.
pub fn raw_scheduler() -> OsmlScheduler {
    OsmlScheduler::new(Models::untrained(1), OsmlConfig::default())
}

/// The node deaths of a [`conserve_through`] interleaving, as the fault plan
/// the cluster is built with: a kill draw (`raw % 10 == 5`) crashes node
/// `payload % nodes` at the clock of that point (the sum of the run draws
/// before it), and a restore draw (`6`) recovers it then. A crash still open
/// when the draws end recovers at their end; a kill and restore with no run
/// between them leave no crash.
pub fn crash_plan(raw_ops: &[usize], nodes: usize) -> NodeFaultPlan {
    let mut clock = 0.0;
    let mut open: Vec<Option<f64>> = vec![None; nodes];
    let mut crashes = Vec::new();
    let mut close = |node: usize, at_s: f64, recover_s: f64| {
        if recover_s > at_s {
            crashes.push(NodeCrash { node, at_s, recover_s: Some(recover_s) });
        }
    };
    for &raw in raw_ops {
        let payload = raw / 10;
        match raw % 10 {
            5 => {
                open[payload % nodes].get_or_insert(clock);
            }
            6 => {
                if let Some(at_s) = open[payload % nodes].take() {
                    close(payload % nodes, at_s, clock);
                }
            }
            7..=9 => clock += (1 + payload % 5) as f64,
            _ => {}
        }
    }
    for (node, at_s) in open.into_iter().enumerate() {
        if let Some(at_s) = at_s {
            close(node, at_s, clock);
        }
    }
    NodeFaultPlan { crashes, ..NodeFaultPlan::none() }
}

/// The conservation interleaving of the cluster-tier property tests. Each
/// raw draw decodes to one weighted operation (the vendored proptest has no
/// `prop_oneof`): submit ×3, finish the oldest service ×2, kill a node,
/// restore a node, run 1–5 s ×3. Kills and restores are the cluster's fault
/// plan ([`crash_plan`] of the same draws), so here they only mark time;
/// the cluster learns of a death by heartbeat. After every operation the
/// ledger must be exact — every id ever issued holds exactly one typed
/// disposition — and every running service must live on a node the cluster
/// believes up; at the end every finished id must read finished.
///
/// # Panics
///
/// When one of those invariants breaks.
pub fn conserve_through(cluster: &mut Cluster, raw_ops: &[usize]) {
    const SERVICES: [Service; 4] =
        [Service::Moses, Service::Login, Service::ImgDnn, Service::Memcached];
    let mut issued: Vec<u64> = Vec::new();
    let mut finished: Vec<u64> = Vec::new();
    for &raw in raw_ops {
        let payload = raw / 10;
        match raw % 10 {
            0..=2 => {
                let before = cluster.submitted();
                let _ = cluster.submit(LaunchSpec::at_percent_load(SERVICES[payload % 4], 20.0));
                assert_eq!(cluster.submitted(), before + 1);
                issued.push(before);
            }
            3..=4 => {
                if let Some(h) = cluster.services().first().copied() {
                    assert!(cluster.finish(h));
                    finished.push(h.id);
                }
            }
            5 | 6 => {}
            _ => cluster.run((1 + payload % 5) as f64),
        }
        let ledger = cluster.dispositions();
        assert_eq!(ledger.len() as u64, cluster.submitted());
        for id in &issued {
            let entries = ledger.iter().filter(|(lid, _)| lid == id).count();
            assert_eq!(entries, 1, "id {id} must appear exactly once in the ledger");
        }
        // Suspicion strands a node's residents in the same transition that
        // marks it down, so the two views never disagree.
        for h in cluster.services() {
            assert_eq!(cluster.disposition(h.id), Some(ServiceDisposition::Running));
            assert!(cluster.node_is_up(h.node), "no service may live on a dead node");
        }
    }
    for id in &finished {
        assert_eq!(cluster.disposition(*id), Some(ServiceDisposition::Finished));
    }
}
