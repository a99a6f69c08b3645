//! `cluster-faults`: the cluster tier under node churn, a lossy command
//! channel and scripted partitions. Heartbeats, retries, dedup, fencing,
//! failover placement and one `SimServer::advance` per node per step do the
//! work; a single controller's inner loop does little.
//!
//! Node controllers run with `online_learning: false`: with learning on,
//! ≈80 % of a step is `Dqn::train_step`, which `node-churn` already covers,
//! and a 2× control-plane win would sit inside run-to-run spread.

use crate::setup::{trained_template, training_config};
use crate::stats::Fnv;
use crate::traced::{Mode, Phase, StepClock};
use crate::workload::{measured_jsonl, Round, Workload};
use osml_bench::cluster::failover_workload;
use osml_core::{Cluster, ClusterConfig, OsmlConfig, OsmlScheduler, ServiceDisposition};
use osml_platform::{hash01, ChannelPlan, NodeCrash, NodeFaultPlan, PartitionWindow};

/// Starts of the four 20 s partition windows (on nodes 0–3), as fractions
/// of the run: 100/350/600/850 s of a 1200 s round.
const PARTITION_STARTS: [f64; 4] = [100.0 / 1200.0, 350.0 / 1200.0, 600.0 / 1200.0, 850.0 / 1200.0];

/// Untimed seconds the fleet gets after the run to fence its last ghosts.
const GHOST_SETTLE_STEPS: usize = 120;

/// `cluster-faults`' prepared inputs.
#[derive(Debug)]
pub struct ClusterFaults {
    template: OsmlScheduler,
    seed: u64,
    nodes: usize,
    services: usize,
    steps: usize,
}

impl ClusterFaults {
    /// The trained template (for the dataset-split identity check).
    pub fn template(&self) -> &OsmlScheduler {
        &self.template
    }

    /// The workload's sizes around an already-built template.
    pub fn with_template(template: OsmlScheduler, seed: u64, smoke: bool) -> Self {
        if smoke {
            ClusterFaults { template, seed, nodes: 8, services: 32, steps: 150 }
        } else {
            ClusterFaults { template, seed, nodes: 64, services: 256, steps: 1200 }
        }
    }

    /// Steps per round.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Node crashes at `NodeFaultPlan::churn_at_rate(seed, 0.05)`'s rate
    /// and shape — per node and 30 s interval a crash with probability
    /// 0.05, down for 10–30 s — but scripted, and only over the first 80 %
    /// of the run: stochastic churn never stops, so some node is always
    /// down holding stale replicas and the ghost count at the end would
    /// say nothing. After a quiet tail it says whether fencing completes.
    fn crashes(&self) -> Vec<NodeCrash> {
        let intervals = (0.8 * self.steps as f64 / 30.0) as u64;
        let mut crashes = Vec::new();
        for node in 0..self.nodes {
            for k in 0..intervals {
                let key = ((node as u64) << 32) | k;
                if hash01(self.seed, key, 0xc4a5) < 0.05 {
                    let at_s = k as f64 * 30.0;
                    let down_s = (10.0 + 20.0 * hash01(self.seed, key, 0xd0e4)).floor();
                    crashes.push(NodeCrash { node, at_s, recover_s: Some(at_s + down_s) });
                }
            }
        }
        crashes
    }

    fn config(&self) -> ClusterConfig {
        let mut channel = ChannelPlan::lossy(self.seed, 0.10);
        for (node, start) in PARTITION_STARTS.iter().enumerate() {
            let start_s = (start * self.steps as f64).round();
            channel.partitions.push(PartitionWindow {
                node: node % self.nodes,
                start_s,
                end_s: start_s + 20.0,
            });
        }
        ClusterConfig {
            // A failure detector provisioned for a noisy management
            // network, as fig23 runs it.
            heartbeat_timeout_s: 8.0,
            node_faults: NodeFaultPlan {
                seed: self.seed,
                crashes: self.crashes(),
                ..NodeFaultPlan::none()
            },
            channel,
            ..ClusterConfig::failover_enabled()
        }
    }

    /// A fresh fleet with every service submitted.
    pub fn world(&self, template: OsmlScheduler) -> Cluster {
        let node_config = OsmlConfig { online_learning: false, ..OsmlConfig::default() };
        let mut cluster =
            Cluster::try_new(self.nodes, template, node_config, self.config(), self.seed)
                .expect("the fleet is non-empty and the config valid by construction");
        for spec in failover_workload(self.services) {
            // A rejected submission keeps its ledger entry and keeps
            // demanding service-seconds.
            let _ = cluster.submit(spec);
        }
        cluster
    }
}

impl Workload for ClusterFaults {
    const NAME: &'static str = "cluster-faults";

    fn setup(seed: u64, smoke: bool) -> Self {
        let me =
            ClusterFaults::with_template(trained_template(&training_config(smoke)), seed, smoke);
        // Warm-up: build one fleet and run it a little.
        let mut cluster = me.world(me.template.clone());
        for _ in 0..me.steps / 20 {
            cluster.run(1.0);
        }
        me
    }

    fn round(&mut self, mode: Mode<'_>) -> Round {
        let mut clock = StepClock::new(mode, self.steps);
        // Clones of the template share its telemetry pipe, so the traced
        // round's model spans aggregate over all node controllers.
        let template = match clock.tracer() {
            Some(tracer) => self.template.clone().with_telemetry(tracer.telemetry.clone()),
            None => self.template.clone(),
        };
        let mut cluster = self.world(template);
        if let Some(tracer) = clock.tracer() {
            tracer.mark_telemetry();
        }
        let events_before = cluster.unified_log().len();
        let (cmd0, rep0) = cluster.channel_stats();
        let actions_before = cluster.total_actions();

        let (mut demanded, mut compliant) = (0u64, 0u64);
        for _ in 0..self.steps {
            clock.begin();
            cluster.run(1.0);
            clock.lap(Phase::ClusterRun);
            clock.end();
            // fig22/23 accounting: every submitted id demands one
            // service-second per second; only a running, in-QoS one
            // supplies it.
            for (id, disposition) in cluster.dispositions() {
                demanded += 1;
                let ok = disposition == ServiceDisposition::Running
                    && cluster.latency_over_target(id).is_some_and(|r| r <= 1.0);
                compliant += u64::from(ok);
            }
        }

        let mut round = Round::default().with_timings(clock);
        let (cmd, rep) = cluster.channel_stats();
        let c = &mut round.counts;
        c.steps = self.steps as u64;
        c.ops = (self.nodes * self.steps) as u64;
        c.demanded = demanded;
        c.failed_ops = demanded - compliant;
        c.actions = (cluster.total_actions() - actions_before) as u64;
        c.failovers = cluster.failovers() as u64;
        c.migrations = cluster.migrations() as u64;
        c.suspicions = cluster.suspicions() as u64;
        c.false_suspicions = cluster.false_suspicions() as u64;
        c.fenced_ghosts = cluster.fenced_ghosts() as u64;
        c.command_backoff_us = (cluster.command_backoff_ms() * 1e3).round() as u64;
        c.envelopes = cmd.sent + rep.sent - cmd0.sent - rep0.sent;
        c.envelopes_dropped = cmd.dropped + rep.dropped - cmd0.dropped - rep0.dropped;
        c.envelopes_duplicated =
            cmd.duplicated + rep.duplicated - cmd0.duplicated - rep0.duplicated;
        c.envelopes_partitioned =
            cmd.partitioned + rep.partitioned - cmd0.partitioned - rep0.partitioned;
        let jsonl = measured_jsonl(cluster.unified_log(), events_before);
        c.log_events = (cluster.unified_log().len() - events_before) as u64;
        c.log_bytes = jsonl.len() as u64;

        let dispositions = cluster.dispositions();
        round.check(cluster.submitted() as usize == dispositions.len(), || {
            format!(
                "conservation: {} ids submitted, {} dispositions",
                cluster.submitted(),
                dispositions.len()
            )
        });
        let fold = cluster.unified_log().replay();
        round.check(fold.is_ok(), || format!("the cluster log does not fold: {fold:?}"));

        let mut digest = Fnv::default();
        digest.write(jsonl.as_bytes());
        digest.write(format!("{dispositions:?}{:?}", cluster.services()).as_bytes());
        round.digest = digest.finish();

        // Ghosts: message loss never stops, so a replica orphaned in the
        // last seconds may still await its fencing — the fleet gets quiet
        // time (untimed, after everything above was captured) to fence it.
        // What is still there afterwards is reported as a count, not failed
        // as a check: on some seeds one replica of a running service does
        // survive every heal (see the README's findings), and a benchmark
        // must run to completion on any seed.
        let mut settle = 0;
        while cluster.ghost_replicas() > 0 && settle < GHOST_SETTLE_STEPS {
            cluster.run(1.0);
            settle += 1;
        }
        round.counts.ghosts_after_settle = cluster.ghost_replicas() as u64;
        round
    }
}
