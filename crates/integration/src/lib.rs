//! Cross-crate integration tests for the OSML reproduction live in `tests/`;
//! what more than one of them drives a world with lives here.

use osml_core::{Cluster, Models, OsmlConfig, OsmlScheduler, ServiceDisposition};
use osml_workloads::{LaunchSpec, Service};

/// An untrained (but structurally valid, seed-deterministic) scheduler:
/// these tests are about plumbing and control flow, not model quality, and
/// skipping training keeps them cheap.
pub fn raw_scheduler() -> OsmlScheduler {
    OsmlScheduler::new(Models::untrained(1), OsmlConfig::default())
}

/// The conservation interleaving of the cluster-tier property tests. Each
/// raw draw decodes to one weighted operation (the vendored proptest has no
/// `prop_oneof`): submit ×3, finish the oldest service ×2, kill a node,
/// restore a node, run 1–5 s ×3. After every operation the ledger must be
/// exact — every id ever issued holds exactly one typed disposition — and
/// every running service must live on a node the cluster believes up; at
/// the end every finished id must read finished.
///
/// # Panics
///
/// When one of those invariants breaks.
pub fn conserve_through(cluster: &mut Cluster, raw_ops: &[usize], nodes: usize) {
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
            5 => cluster.kill_node(payload % nodes),
            6 => cluster.restore_node(payload % nodes),
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
