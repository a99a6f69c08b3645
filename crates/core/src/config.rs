use osml_platform::{ChannelPlan, FaultPlan, NodeFaultPlan, SloClass};
use serde::{Deserialize, Serialize};

/// Tunables of the OSML controller. Defaults follow the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OsmlConfig {
    /// Seconds of counter sampling before Model-A is consulted for a new
    /// service (§V-B: 2 s by default; shorter windows pick up cache-warmup
    /// and context-switch noise).
    pub sampling_window_s: f64,
    /// QoS slowdown OSML is willing to impose on a neighbour when depriving
    /// resources through Model-B (Algorithm 1, line 11: "can tolerate a
    /// certain QoS slowdown").
    pub deprive_slowdown_budget: f64,
    /// Maximum neighbours involved in one B-point match (Algorithm 1,
    /// line 17: "at most 3 apps involved; the less the better").
    pub max_deprived_apps: usize,
    /// Neighbour slowdown beyond which Algorithm 4 refuses to share and
    /// requests a migration instead.
    pub sharing_slowdown_budget: f64,
    /// Surplus margin of Algorithm 3: reclamation starts only when a
    /// service holds more than `RCliff + margin` in both dimensions
    /// (line 2: "> its RCliff's + 2").
    pub surplus_margin: usize,
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
    /// Retry budget for transiently failed actuations: one actuation is
    /// attempted at most `1 + actuation_retry_budget` times before the
    /// failure is treated as persistent.
    pub actuation_retry_budget: u32,
    /// Base of the exponential backoff charged between actuation retries,
    /// milliseconds (attempt *n* waits `base · 2ⁿ`). Accounting only — the
    /// simulated clock is driven by the harness.
    pub retry_backoff_base_ms: f64,
    /// Ceiling on the total backoff charged to one actuation, milliseconds.
    /// The exponential series is truncated here instead of silently
    /// wrapping: with the default budget the cap never binds, but a
    /// generous budget cannot charge an unbounded (or, previously,
    /// exponent-clamped) amount of simulated wait.
    pub max_backoff_ms: f64,
    /// Consecutive failed/ineffective ML actions on one service before the
    /// QoS watchdog quarantines the model path and engages the heuristic
    /// fallback.
    pub fallback_threshold: u32,
    /// Consecutive healthy ticks (QoS met, no fresh faults) a quarantined
    /// service must accumulate before the ML path is re-engaged.
    pub fallback_recovery_ticks: u32,
    /// Seconds after the last observed platform fault during which the
    /// watchdog also counts *ineffective* (withdrawn) ML actions toward the
    /// fallback threshold. Outside this window a withdrawal is ordinary
    /// Model-C exploration, so a fault-free run never engages fallback and
    /// stays bit-identical to the pre-resilience controller.
    pub fault_attention_s: f64,
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
    /// Ticks a non-best-effort arrival must have waited before the
    /// controller declares brownout.
    pub brownout_after_ticks: u64,
    /// Consecutive ticks with an empty queue before brownout starts
    /// restoring shaved services and exits.
    pub brownout_exit_hold_ticks: u32,
    /// Maximum Model-B′-priced shave steps applied per tick while in
    /// brownout (each step takes one core or one way from the cheapest
    /// victim).
    pub shave_step_budget: usize,
    /// Cumulative priced slowdown ceiling for latency-critical services.
    pub lc_slowdown_ceiling: f64,
    /// Cumulative priced slowdown ceiling for degradable services.
    pub degradable_slowdown_ceiling: f64,
    /// Cumulative priced slowdown ceiling for best-effort services.
    pub best_effort_slowdown_ceiling: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_depth: 0,
            max_wait_ticks: 45,
            brownout: false,
            brownout_after_ticks: 6,
            brownout_exit_hold_ticks: 4,
            shave_step_budget: 2,
            lc_slowdown_ceiling: 0.05,
            degradable_slowdown_ceiling: 0.25,
            best_effort_slowdown_ceiling: 0.40,
        }
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

    /// The cumulative priced-slowdown ceiling for a class during brownout.
    pub fn ceiling(&self, class: SloClass) -> f64 {
        match class {
            SloClass::LatencyCritical => self.lc_slowdown_ceiling,
            SloClass::Degradable => self.degradable_slowdown_ceiling,
            SloClass::BestEffort => self.best_effort_slowdown_ceiling,
        }
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

/// Tunables of the cluster tier: placement policy, failover, resilient
/// migration and the fault schedule. The default reproduces the legacy
/// cluster bit-for-bit: first-fit placement, no node faults, no actuation
/// faults — failover machinery is armed but has nothing to react to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Seconds of continuous QoS violation before the upper scheduler
    /// migrates a service away from its node.
    pub migration_patience_s: f64,
    /// Candidate-node ranking for submit, failover and migration.
    pub policy: PlacementPolicy,
    /// Whether a dead node's services are re-placed on survivors. With
    /// failover off they become typed `Evicted` outcomes instead.
    pub failover: bool,
    /// Warm-up cost charged on every migration destination, seconds: the
    /// violation clock is suspended for this window (cache refill and
    /// layout re-derivation make early samples unrepresentative — the
    /// same reasoning as the §V-B 2 s sampling window).
    pub warmup_cost_s: f64,
    /// Migration attempts (QoS-violation path) allowed per service before
    /// the cluster stops moving it — the anti-thrash budget. Failover
    /// after a node death is never budget-limited.
    pub migration_budget: u32,
    /// Whole-node fault schedule (crash / outage / degrade / churn).
    pub node_faults: NodeFaultPlan,
    /// Call-level fault plan installed on every node's substrate (the
    /// plan's seed is re-salted per node). A none plan keeps the wrapper
    /// bit-transparent; a live plan makes migration installs go through
    /// the retry-with-backoff path.
    pub actuation_faults: FaultPlan,
    /// Control-channel fault plan between the cluster and its nodes. The
    /// none plan selects the perfect (reliable, same-instant) channel,
    /// bit-identical to the direct calls it replaced; any other plan
    /// selects the seeded lossy channel and switches failure detection
    /// from connection refusal to heartbeat-timeout suspicion.
    pub channel: ChannelPlan,
    /// Seconds between heartbeat pings to each node. The default (1 s,
    /// every monitoring step) keeps perfect-channel failure detection as
    /// prompt as the omniscient health read it replaced.
    pub heartbeat_interval_s: f64,
    /// Silence (no pong) after which a node is *suspected* dead on a
    /// lossy channel. Must exceed the interval; false suspicions are
    /// possible and are resolved by epoch reconciliation at heal time.
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
            migration_patience_s: 30.0,
            policy: PlacementPolicy::FirstFit,
            failover: true,
            warmup_cost_s: 2.0,
            migration_budget: 3,
            node_faults: NodeFaultPlan::none(),
            actuation_faults: FaultPlan::none(),
            channel: ChannelPlan::none(),
            heartbeat_interval_s: 1.0,
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
    /// configurations that used to misbehave silently: a non-positive
    /// warm-up (the violation clock would never suspend, or arithmetic
    /// would run backwards), a heartbeat interval at or past the timeout
    /// (every node would be permanently suspected), a zero migration
    /// budget (Algorithm 4's escape hatch silently welded shut), and
    /// channel probabilities outside `[0, 1]`.
    ///
    /// # Errors
    ///
    /// A static reason string naming the offending field.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.warmup_cost_s <= 0.0 || self.warmup_cost_s.is_nan() {
            return Err("warmup_cost_s must be positive");
        }
        if self.heartbeat_interval_s <= 0.0 || self.heartbeat_interval_s.is_nan() {
            return Err("heartbeat_interval_s must be positive");
        }
        if self.heartbeat_interval_s >= self.heartbeat_timeout_s {
            return Err("heartbeat_interval_s must be below heartbeat_timeout_s");
        }
        if self.migration_budget == 0 {
            return Err("migration_budget must be at least 1");
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
            deprive_slowdown_budget: 0.15,
            max_deprived_apps: 3,
            sharing_slowdown_budget: 0.35,
            surplus_margin: 2,
            manage_bandwidth: true,
            online_learning: true,
            withdraw_ineffective_growth: true,
            placement_via_models: true,
            actuation_retry_budget: 3,
            retry_backoff_base_ms: 1.0,
            max_backoff_ms: 1000.0,
            fallback_threshold: 3,
            fallback_recovery_ticks: 8,
            fault_attention_s: 30.0,
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
        assert!(
            c.deprive_slowdown_budget > 0.0
                && c.sharing_slowdown_budget > c.deprive_slowdown_budget
        );
        assert_eq!(c.max_deprived_apps, 3);
        assert_eq!(c.surplus_margin, 2);
        assert!(c.manage_bandwidth);
        assert!(c.online_learning);
    }

    #[test]
    fn resilience_defaults_are_sane() {
        let c = OsmlConfig::default();
        assert!(c.actuation_retry_budget >= 1, "at least one retry or nothing is transient");
        assert!(c.retry_backoff_base_ms > 0.0);
        assert!(
            c.max_backoff_ms
                >= c.retry_backoff_base_ms * ((1u64 << c.actuation_retry_budget) - 1) as f64,
            "the default cap must not bind under the default budget"
        );
        assert!(c.fallback_threshold >= 2, "a single withdrawal must not quarantine the models");
        assert!(c.fallback_recovery_ticks >= 1);
        assert!(c.fault_attention_s > 0.0);
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
        assert!(c.actuation_faults.profile.is_none(), "transparent substrate wrapper");
        assert_eq!(c.migration_patience_s, 30.0, "matches the pre-failover field default");
        assert!(c.failover && c.warmup_cost_s > 0.0 && c.migration_budget >= 1);
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
        assert!(
            e.ceiling(SloClass::LatencyCritical) < e.ceiling(SloClass::Degradable)
                && e.ceiling(SloClass::Degradable) < e.ceiling(SloClass::BestEffort),
            "more protected classes must tolerate less priced slowdown"
        );
        assert!(e.max_wait_ticks > e.brownout_after_ticks);
    }
}
