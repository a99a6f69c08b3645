//! Cluster-level failover experiments (Fig. 22): a fleet of OSML nodes
//! under a seeded node-churn plan, swept over node-failure rate and fleet
//! size, comparing the full failover stack against ablated tiers.
//!
//! The accounting is demand-based: every submitted service contributes one
//! service-second of *demand* per elapsed second from submission onwards,
//! and one service-second of *compliance* only while it is running within
//! its QoS target. Evicted and rejected services keep demanding — a tier
//! that sheds services on node death pays for it in compliance, which is
//! exactly what makes the no-failover ablation comparable to (and never
//! better than) the failover stack.

use osml_core::{
    Cluster, ClusterConfig, OsmlConfig, OsmlScheduler, PlacementPolicy, ServiceDisposition,
};
use osml_platform::{ChannelPlan, NodeCrash, NodeFaultPlan, PartitionWindow};
use osml_workloads::{LaunchSpec, Service};
use serde::{Deserialize, Serialize};

/// Which tier of the fault-tolerance stack a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailoverArm {
    /// Null-hypothesis tier: seeded random placement, no failover.
    RandomPlacement,
    /// Legacy tier: first-fit placement, node death evicts residents.
    NoFailover,
    /// Interference-aware placement only; still no failover on death.
    ScoreOnly,
    /// The full stack: scored placement plus failover of stranded services.
    OsmlFailover,
}

impl FailoverArm {
    /// All arms, in ablation order.
    pub const ALL: [FailoverArm; 4] = [
        FailoverArm::RandomPlacement,
        FailoverArm::NoFailover,
        FailoverArm::ScoreOnly,
        FailoverArm::OsmlFailover,
    ];

    /// Short label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            FailoverArm::RandomPlacement => "random-placement",
            FailoverArm::NoFailover => "no-failover",
            FailoverArm::ScoreOnly => "score-only",
            FailoverArm::OsmlFailover => "osml-failover",
        }
    }

    fn config(self, node_faults: NodeFaultPlan) -> ClusterConfig {
        match self {
            FailoverArm::RandomPlacement => ClusterConfig {
                failover: false,
                policy: PlacementPolicy::Random,
                node_faults,
                ..ClusterConfig::default()
            },
            FailoverArm::NoFailover => ClusterConfig {
                failover: false,
                policy: PlacementPolicy::FirstFit,
                node_faults,
                ..ClusterConfig::default()
            },
            FailoverArm::ScoreOnly => ClusterConfig {
                failover: false,
                policy: PlacementPolicy::InterferenceScore,
                node_faults,
                ..ClusterConfig::default()
            },
            FailoverArm::OsmlFailover => {
                ClusterConfig { node_faults, ..ClusterConfig::failover_enabled() }
            }
        }
    }
}

/// One `(arm, failure rate, fleet size)` cell of the Fig. 22 sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterRunOutcome {
    /// Which tier ran.
    pub arm: FailoverArm,
    /// Per-interval node-crash probability of the churn plan.
    pub failure_rate: f64,
    /// Fleet size.
    pub nodes: usize,
    /// Services submitted.
    pub services: usize,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Compliant service-seconds over demanded service-seconds.
    pub qos_compliance: f64,
    /// Services that ended the run evicted (typed losses).
    pub evicted: usize,
    /// Services rejected at submission.
    pub rejected: usize,
    /// Submitted ids with no disposition — must always be zero.
    pub lost_silently: usize,
    /// Node-death failovers committed.
    pub failovers: usize,
    /// QoS-violation migrations committed.
    pub migrations: usize,
    /// Node-down transitions the fault plan scripts over the run.
    pub node_failures: usize,
    /// Whether the unified log folded without error after the run.
    pub replay_ok: bool,
}

/// The Fig. 10 service mix, cycled to `count` services at moderate load so
/// a survivor fleet has headroom to absorb failovers.
pub fn failover_workload(count: usize) -> Vec<LaunchSpec> {
    let mix = [
        (Service::Xapian, 25.0),
        (Service::ImgDnn, 25.0),
        (Service::Moses, 25.0),
        (Service::Masstree, 25.0),
    ];
    (0..count)
        .map(|i| {
            let (s, pct) = mix[i % mix.len()];
            LaunchSpec::at_percent_load(s, pct)
        })
        .collect()
}

/// What [`run_fleet`] tallied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTally {
    /// Service-seconds demanded: one per submitted service per step.
    pub demanded: f64,
    /// Compliant service-seconds over demanded ones; 0.0 when nothing was
    /// demanded (an empty run is not a perfect one).
    pub qos_compliance: f64,
    /// Services that ended the run evicted (typed losses).
    pub evicted: usize,
    /// Services rejected at submission.
    pub rejected: usize,
}

/// The fleet loop of Figs. 22 and 23: submits every spec, then steps the
/// cluster one second at a time for `duration_s`, calling `each_step` and
/// walking the disposition ledger after each. Every submitted service
/// demands one service-second per step — evicted and rejected ones
/// included — and supplies a compliant one only while running within QoS.
///
/// # Panics
///
/// Panics if a submitted id ends the run without a disposition (the no-loss
/// invariant) or if the unified log fails to fold, transport faults and
/// all — both indicate bugs, not workload effects.
pub fn run_fleet(
    cluster: &mut Cluster,
    specs: &[LaunchSpec],
    duration_s: f64,
    mut each_step: impl FnMut(&Cluster),
) -> FleetTally {
    for spec in specs {
        // A rejected id keeps demanding: the ledger tracks it.
        let _ = cluster.submit(*spec);
    }
    let (mut demanded, mut compliant) = (0.0f64, 0.0f64);
    for _ in 0..duration_s.max(0.0).round() as usize {
        cluster.run(1.0);
        each_step(cluster);
        for (id, disposition) in cluster.dispositions() {
            demanded += 1.0;
            if disposition == ServiceDisposition::Running
                && cluster.latency_over_target(id).is_some_and(|ratio| ratio <= 1.0)
            {
                compliant += 1.0;
            }
        }
    }
    let dispositions = cluster.dispositions();
    let submitted = cluster.submitted() as usize;
    assert_eq!(dispositions.len(), submitted, "every submitted id must keep a typed disposition");
    let ended = |d: ServiceDisposition| dispositions.iter().filter(|(_, x)| *x == d).count();
    let folds = cluster.unified_log().replay().is_ok();
    assert!(folds, "the cluster's golden log must fold after the run");
    FleetTally {
        demanded,
        qos_compliance: if demanded > 0.0 { compliant / demanded } else { 0.0 },
        evicted: ended(ServiceDisposition::Evicted),
        rejected: ended(ServiceDisposition::Rejected),
    }
}

/// Quiet steps [`lossy_fleet`] gives a fleet after its run to fence the
/// last stale replicas, stopping early once none is left.
const LOSSY_FLEET_SETTLE_STEPS: usize = 30;

/// What [`lossy_fleet`] observed.
#[derive(Debug)]
pub struct LossyFleet {
    /// The fleet after its run and settle.
    pub cluster: Cluster,
    /// [`run_fleet`]'s tally of the run.
    pub tally: FleetTally,
    /// Steps the cluster believed the crashed node down.
    pub down_steps: usize,
}

/// The lossy fleet of the tier-1 smoke test and the control-plane seed
/// sweep: eight nodes behind a 10 % lossy channel seeded `seed ^ 0x23`,
/// node 0 partitioned over 40–60 s and node 3 crashed over 70–95 s, sixteen
/// [`failover_workload`] services run through [`run_fleet`] for 150 s, then
/// up to 30 quiet steps for the last stale replicas to be fenced.
///
/// # Panics
///
/// As [`run_fleet`].
pub fn lossy_fleet(template: OsmlScheduler, seed: u64) -> LossyFleet {
    let mut channel = ChannelPlan::lossy(seed ^ 0x23, 0.10);
    channel.partitions.push(PartitionWindow { node: 0, start_s: 40.0, end_s: 60.0 });
    let crash = NodeCrash { node: 3, at_s: 70.0, recover_s: Some(95.0) };
    let cfg = ClusterConfig {
        channel,
        node_faults: NodeFaultPlan { crashes: vec![crash], ..NodeFaultPlan::none() },
        heartbeat_timeout_s: 8.0,
        ..ClusterConfig::failover_enabled()
    };
    let mut cluster =
        Cluster::try_new(8, template, OsmlConfig::default(), cfg, seed).expect("a valid fleet");
    let mut down_steps = 0;
    let tally = run_fleet(&mut cluster, &failover_workload(16), 150.0, |cluster| {
        down_steps += usize::from(!cluster.node_is_up(3));
    });
    for _ in 0..LOSSY_FLEET_SETTLE_STEPS {
        if cluster.ghost_replicas() == 0 {
            break;
        }
        cluster.run(1.0);
    }
    LossyFleet { cluster, tally, down_steps }
}

/// Runs one cell of the failover sweep: `services` services on a fleet of
/// `nodes`, churned at `failure_rate` for `duration_s` seconds.
///
/// # Panics
///
/// As [`run_fleet`].
pub fn run_cluster_failover(
    template: &OsmlScheduler,
    nodes: usize,
    specs: &[LaunchSpec],
    duration_s: f64,
    failure_rate: f64,
    seed: u64,
    arm: FailoverArm,
) -> ClusterRunOutcome {
    let plan = if failure_rate > 0.0 {
        NodeFaultPlan::churn_at_rate(seed ^ 0x22, failure_rate)
    } else {
        NodeFaultPlan::none()
    };
    // The failures the plan scripts, not the ones the cluster has noticed
    // yet: up→down transitions at t = 1..=steps, every node up before t = 1.
    let up = |node, t: usize| t == 0 || plan.health(node, t as f64).is_up();
    let steps = duration_s.max(0.0).round() as usize;
    let node_failures =
        (0..nodes).map(|n| (1..=steps).filter(|&t| up(n, t - 1) && !up(n, t)).count()).sum();
    let cfg = arm.config(plan);
    let mut cluster = Cluster::try_new(nodes, template.clone(), OsmlConfig::default(), cfg, seed)
        .expect("fleet size is positive");
    let tally = run_fleet(&mut cluster, specs, duration_s, |_| {});

    ClusterRunOutcome {
        arm,
        failure_rate,
        nodes,
        services: specs.len(),
        duration_s,
        qos_compliance: tally.qos_compliance,
        evicted: tally.evicted,
        rejected: tally.rejected,
        lost_silently: 0, // `run_fleet` asserted it, and the fold below
        failovers: cluster.failovers(),
        migrations: cluster.migrations(),
        node_failures,
        replay_ok: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osml_core::Models;

    /// An empty fleet run reads as 0.0 over zero demanded service-seconds,
    /// not as a perfect one.
    #[test]
    fn nothing_demanded_is_not_compliance() {
        let models = Models::untrained(1);
        let template = OsmlScheduler::new(models, OsmlConfig::default());
        for (services, duration_s) in [(0, 5.0), (2, 0.0)] {
            let specs = failover_workload(services);
            let out = run_cluster_failover(
                &template,
                2,
                &specs,
                duration_s,
                0.0,
                1,
                FailoverArm::OsmlFailover,
            );
            assert_eq!(out.qos_compliance, 0.0, "{services} services for {duration_s} s");
            assert_eq!((out.evicted, out.rejected, out.lost_silently), (0, 0, 0));
        }
    }
}
