use crate::cluster::HEARTBEAT_INTERVAL_S;
use osml_platform::{ChannelPlan, NodeFaultPlan};
use serde::{Deserialize, Serialize};

/// Tunables of the OSML controller. Defaults follow the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OsmlConfig {
    /// Seconds of counter sampling before Model-A is consulted for a new
    /// service (§V-B: 2 s by default; shorter windows pick up cache-warmup
    /// and context-switch noise).
    pub sampling_window_s: f64,
    /// Maximum neighbours involved in one B-point match (Algorithm 1,
    /// line 17: "at most 3 apps involved; the less the better").
    pub max_deprived_apps: usize,
    /// Whether to program MBA throttles from Model-A's OAA bandwidth
    /// (§V-B). Disable on substrates without MBA.
    pub manage_bandwidth: bool,
    /// Whether Model-C keeps training online from observed transitions.
    pub online_learning: bool,
    /// Ablation switch: when false, ineffective growth actions are not
    /// withdrawn and re-blocked (the trial-withdrawal mechanism this
    /// reproduction layers on Model-C; §V-A's "the corresponding actions
    /// will be withdrawn").
    pub withdraw_ineffective_growth: bool,
    /// Ablation switch (§IV-D "Why don't we use Model-C directly?"):
    /// when false, Algorithm 1 skips Model-A/B and leaves the newcomer on
    /// its bootstrap allocation, forcing Model-C to explore from scratch.
    pub placement_via_models: bool,
    /// Overload management: admission queue + brownout. Disabled by default
    /// (`queue_depth == 0`), in which case every decision and event is
    /// bit-identical to the pre-overload controller. (Snapshots serialized
    /// before this field existed are already rejected by the snapshot
    /// version bump, so no serde default is needed.)
    pub overload: OverloadConfig,
    /// Forces strict overlap hygiene even with overload management off:
    /// whenever a placement path re-derives a core set from a service's
    /// current holding, cores another service also holds are subtracted
    /// first, so a transient bootstrap overlap is never laundered into a
    /// dedicated allocation. Always on while `overload` is enabled (the
    /// admission/shed churn leaves the overlap window wide open); off by
    /// default because the committed figure corpus was generated through
    /// the legacy paths and stays bit-identical that way.
    pub strict_layout: bool,
}

/// Overload-management tunables: the admission queue and brownout mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Maximum arrivals waiting in the admission queue. `0` disables
    /// overload management entirely: rejections stay terminal and the
    /// controller never defers, shaves or sheds.
    pub queue_depth: usize,
    /// Ticks a deferred arrival may wait before it is dropped with a
    /// [`osml_platform::RejectReason::WaitTimeout`].
    pub max_wait_ticks: u64,
    /// Whether sustained overload may enter brownout (shaving slack from
    /// running services and shedding best-effort work). Without it the
    /// queue still defers and retries, but capacity must appear on its own.
    pub brownout: bool,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig { queue_depth: 0, max_wait_ticks: 45, brownout: false }
    }
}

impl OverloadConfig {
    /// The preset used by the Fig. 20 overload experiments: queueing and
    /// brownout both active.
    pub fn enabled() -> Self {
        OverloadConfig { queue_depth: 8, brownout: true, ..OverloadConfig::default() }
    }

    /// Whether overload management is active at all.
    pub fn is_enabled(&self) -> bool {
        self.queue_depth > 0
    }
}

/// How the cluster tier ranks candidate nodes for placement and failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Legacy first-fit: nodes tried in order of most idle cores. The
    /// default, bit-identical to the pre-failover cluster.
    FirstFit,
    /// Interference-aware scoring: free capacity (idle cores + idle LLC
    /// ways) scaled by node health, minus the QoS pressure of residents
    /// already close to violation — so a crashed node's services land
    /// where they disturb the least, not merely where cores are idle.
    InterferenceScore,
    /// Seeded random order over the live nodes — the null-hypothesis
    /// baseline the scored policies are measured against (Fig. 22's
    /// `random` arm). Deterministic: the order is drawn from the cluster
    /// seed and a per-placement counter, never from ambient entropy.
    Random,
}

/// Tunables of the cluster tier: placement policy, failover, the node-fault
/// schedule and the control channel. The default reproduces the legacy
/// cluster bit-for-bit: first-fit placement, no node faults, a perfect
/// channel — failover machinery is armed but has nothing to react to. A
/// service migrates after 30 s of continuous QoS violation, at most three
/// times; those two values are constants of `osml_core::cluster`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Candidate-node ranking for submit, failover and migration.
    pub policy: PlacementPolicy,
    /// Whether a dead node's services are re-placed on survivors. With
    /// failover off they become typed `Evicted` outcomes instead.
    pub failover: bool,
    /// Whole-node fault schedule (crash / outage / degrade / churn).
    pub node_faults: NodeFaultPlan,
    /// Control-channel fault plan between the cluster and its nodes. The
    /// none plan selects the perfect (reliable, same-instant) channel,
    /// bit-identical to the direct calls it replaced; any other plan
    /// selects the seeded lossy channel and switches failure detection
    /// from connection refusal to heartbeat-timeout suspicion.
    pub channel: ChannelPlan,
    /// Silence (no pong) after which a node is *suspected* dead on a
    /// lossy channel. Each node is pinged once a second (every monitoring
    /// step), so this must exceed 1 s; false suspicions are possible and
    /// are resolved by epoch reconciliation once the node answers again.
    pub heartbeat_timeout_s: f64,
    /// Epoch fencing and duplicate suppression — the exactly-once
    /// restoration layer over the at-least-once channel. Disabling it is
    /// the Fig. 23 ablation: duplicated launches double-place, delayed
    /// teardowns can kill fresh replicas, and healed partitions leave
    /// ghost replicas eating capacity.
    pub fencing: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            policy: PlacementPolicy::FirstFit,
            failover: true,
            node_faults: NodeFaultPlan::none(),
            channel: ChannelPlan::none(),
            heartbeat_timeout_s: 3.0,
            fencing: true,
        }
    }
}

impl ClusterConfig {
    /// The preset the Fig. 22 failover arms build on: interference-aware
    /// placement with failover armed.
    pub fn failover_enabled() -> Self {
        ClusterConfig { policy: PlacementPolicy::InterferenceScore, ..ClusterConfig::default() }
    }

    /// Structural validation, run by `Cluster::try_new`. Rejects the
    /// configurations that used to misbehave silently: a heartbeat timeout
    /// not above the 1 s ping interval (every node permanently suspected)
    /// or NaN (no node ever suspected), and channel probabilities outside
    /// `[0, 1]`.
    ///
    /// # Errors
    ///
    /// A static reason string naming the offending field.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.heartbeat_timeout_s.is_nan() || self.heartbeat_timeout_s <= HEARTBEAT_INTERVAL_S {
            return Err("heartbeat_timeout_s must exceed the 1 s heartbeat interval");
        }
        for (p, name) in [
            (self.channel.drop_prob, "channel.drop_prob must be within [0, 1]"),
            (self.channel.duplicate_prob, "channel.duplicate_prob must be within [0, 1]"),
            (self.channel.delay_prob, "channel.delay_prob must be within [0, 1]"),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(name);
            }
        }
        Ok(())
    }
}

impl Default for OsmlConfig {
    fn default() -> Self {
        OsmlConfig {
            sampling_window_s: 2.0,
            max_deprived_apps: 3,
            manage_bandwidth: true,
            online_learning: true,
            withdraw_ineffective_growth: true,
            placement_via_models: true,
            overload: OverloadConfig::default(),
            strict_layout: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = OsmlConfig::default();
        assert_eq!(c.sampling_window_s, 2.0);
        assert_eq!(c.max_deprived_apps, 3);
        assert!(c.manage_bandwidth);
        assert!(c.online_learning);
    }

    #[test]
    fn config_round_trips_through_serde() {
        let c = OsmlConfig { sampling_window_s: 1.0, ..OsmlConfig::default() };
        let back: OsmlConfig = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn cluster_defaults_reproduce_the_legacy_tier_and_round_trip() {
        let c = ClusterConfig::default();
        assert_eq!(c.policy, PlacementPolicy::FirstFit, "legacy placement order by default");
        assert!(c.node_faults.is_none(), "no node faults unless scripted");
        assert!(c.channel.is_none(), "a perfect channel unless scripted");
        assert!(c.failover && c.fencing);
        let back: ClusterConfig =
            serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(back, c);
        assert_eq!(ClusterConfig::failover_enabled().policy, PlacementPolicy::InterferenceScore);
    }

    #[test]
    fn overload_is_disabled_by_default_and_enabled_preset_is_coherent() {
        let d = OverloadConfig::default();
        assert!(!d.is_enabled());
        assert!(!d.brownout);
        let e = OverloadConfig::enabled();
        assert!(e.is_enabled() && e.brownout);
    }
}
