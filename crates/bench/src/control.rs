//! Control-plane fault experiments (Fig. 23): a fleet of OSML nodes
//! behind a lossy, partitionable command channel, swept over message-loss
//! rate and partition duration, comparing the full partition-tolerant
//! protocol (sequence dedup, epoch fencing, pong reconciliation) against
//! a no-fencing ablation and the loss-free-channel reference.
//!
//! The accounting is the same demand-based compliance as Fig. 22: every
//! submitted service demands one service-second per elapsed second, and
//! supplies a compliant one only while running within QoS. A protocol
//! that loses services to false suspicions — or bloats nodes with ghost
//! replicas — pays for it in compliance. Two invariants are asserted at
//! every cell: the conservation ledger is exact (no submitted id ever
//! loses its typed disposition), and the golden-thread log folds through
//! `replay()` without error, transport faults and all.

use osml_core::{Cluster, ClusterConfig, OsmlConfig, OsmlScheduler};
use osml_platform::{ChannelPlan, PartitionWindow};
use osml_workloads::LaunchSpec;
use serde::{Deserialize, Serialize};

/// Which control-plane protocol tier a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlArm {
    /// Loss-free channel (the none plan, detected by heartbeat like any
    /// other): the reference. Ignores the loss and partition axes (there is
    /// nothing to inject). Labelled `perfect` in tables and JSON.
    Perfect,
    /// Lossy channel with the protocol ablated: no sequence dedup, no
    /// epoch fencing, no reconciliation — at-least-once retries only.
    LossyNoFencing,
    /// Lossy channel under the full partition-tolerant protocol.
    LossyFull,
}

impl ControlArm {
    /// All arms, in ablation order.
    pub const ALL: [ControlArm; 3] =
        [ControlArm::Perfect, ControlArm::LossyNoFencing, ControlArm::LossyFull];

    /// Short label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ControlArm::Perfect => "perfect",
            ControlArm::LossyNoFencing => "lossy-no-fencing",
            ControlArm::LossyFull => "lossy-full",
        }
    }

    fn config(self, channel: ChannelPlan) -> ClusterConfig {
        // A failure detector provisioned for a noisy management network:
        // suspicion takes 8 s of continuous silence rather than the
        // default 3 — at 20 % per-message loss a 3 s timeout cries wolf
        // every few minutes, which measures detector tuning, not the
        // protocol. All arms share the tuning so the sweep isolates
        // dedup/fencing/reconciliation.
        let base = ClusterConfig { heartbeat_timeout_s: 8.0, ..ClusterConfig::failover_enabled() };
        match self {
            ControlArm::Perfect => base,
            ControlArm::LossyNoFencing => ClusterConfig { channel, fencing: false, ..base },
            ControlArm::LossyFull => ClusterConfig { channel, ..base },
        }
    }
}

/// One `(arm, loss rate, partition duration)` cell of the Fig. 23 sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControlRunOutcome {
    /// Which protocol tier ran.
    pub arm: ControlArm,
    /// Per-message loss rate of the channel plan (drop probability;
    /// duplicates at half, delays at the same rate).
    pub loss_rate: f64,
    /// Seconds the mid-run partition isolates node 0 (0 = no partition).
    pub partition_s: f64,
    /// Fleet size.
    pub nodes: usize,
    /// Services submitted.
    pub services: usize,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Compliant service-seconds over demanded service-seconds.
    pub qos_compliance: f64,
    /// Services that ended the run evicted.
    pub evicted: usize,
    /// Services rejected at submission.
    pub rejected: usize,
    /// Submitted ids with no disposition — must always be zero.
    pub lost_silently: usize,
    /// Node-death/suspicion failovers committed.
    pub failovers: usize,
    /// QoS-violation migrations committed.
    pub migrations: usize,
    /// Suspicion transitions raised by heartbeat timeout.
    pub suspicions: usize,
    /// Suspicions against nodes that were in fact alive.
    pub false_suspicions: usize,
    /// Services re-adopted from a reconnecting node instead of fenced.
    pub readopted: usize,
    /// Stale replicas destroyed by epoch fencing.
    pub fenced_ghosts: usize,
    /// Unaccounted live replicas at end of run (0 under the full
    /// protocol once links heal; the ablation accumulates them).
    pub ghost_replicas_end: usize,
    /// Messages sent across both channel directions.
    pub messages_sent: u64,
    /// Messages randomly dropped (partition drops excluded).
    pub messages_dropped: u64,
    /// Messages duplicated in flight.
    pub messages_duplicated: u64,
    /// Messages swallowed by scripted partition windows.
    pub messages_partitioned: u64,
    /// Simulated backoff charged to command-level retries, ms.
    pub command_backoff_ms: f64,
    /// Whether the unified log folded without error after the run.
    pub replay_ok: bool,
}

/// Runs one cell of the control-plane sweep: `specs` services on `nodes`
/// nodes for `duration_s` seconds, with per-message loss at `loss_rate`
/// and node 0 partitioned for `partition_s` seconds starting mid-run.
///
/// # Panics
///
/// As [`crate::cluster::run_fleet`].
#[allow(clippy::too_many_arguments)]
pub fn run_control_plane(
    template: &OsmlScheduler,
    nodes: usize,
    specs: &[LaunchSpec],
    duration_s: f64,
    loss_rate: f64,
    partition_s: f64,
    seed: u64,
    arm: ControlArm,
) -> ControlRunOutcome {
    let mut channel = if loss_rate > 0.0 {
        ChannelPlan::lossy(seed ^ 0x23, loss_rate)
    } else {
        ChannelPlan::none()
    };
    if partition_s > 0.0 {
        // One mid-run window on node 0: long enough (vs the default 3 s
        // heartbeat timeout) to force a suspicion, then a heal.
        let start = duration_s * 0.3;
        channel.partitions.push(PartitionWindow {
            node: 0,
            start_s: start,
            end_s: start + partition_s,
        });
    }
    let cfg = arm.config(channel);
    let mut cluster = Cluster::try_new(nodes, template.clone(), OsmlConfig::default(), cfg, seed)
        .expect("fig23 configs are valid by construction");

    let tally = crate::cluster::run_fleet(&mut cluster, specs, duration_s, |_| {});
    let (cmd, rep) = cluster.channel_stats();

    ControlRunOutcome {
        arm,
        loss_rate,
        partition_s,
        nodes,
        services: specs.len(),
        duration_s,
        qos_compliance: tally.qos_compliance,
        evicted: tally.evicted,
        rejected: tally.rejected,
        lost_silently: 0, // `run_fleet` asserted it, and the fold below
        failovers: cluster.failovers(),
        migrations: cluster.migrations(),
        suspicions: cluster.suspicions(),
        false_suspicions: cluster.false_suspicions(),
        readopted: cluster.readopted(),
        fenced_ghosts: cluster.fenced_ghosts(),
        ghost_replicas_end: cluster.ghost_replicas(),
        messages_sent: cmd.sent + rep.sent,
        messages_dropped: cmd.dropped + rep.dropped,
        messages_duplicated: cmd.duplicated + rep.duplicated,
        messages_partitioned: cmd.partitioned + rep.partitioned,
        command_backoff_ms: cluster.command_backoff_ms(),
        replay_ok: true,
    }
}
