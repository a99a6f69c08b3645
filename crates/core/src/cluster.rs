//! The upper-level scheduler the paper keeps referring to — now
//! partition tolerant.
//!
//! OSML is a per-node controller: Algorithm 1 "reports to the upper
//! scheduler about the scheduling policies", and Algorithm 4's fallback is
//! "OSML migrates the microservice to another node". This module provides
//! that upper level — a [`Cluster`] of simulated servers, each run by its
//! own OSML instance, with placement across nodes and automatic migration
//! of services a node cannot keep within QoS.
//!
//! Since the fault-tolerance tier, the cluster no longer calls into its
//! nodes directly. Every interaction is a typed message over a
//! [`ControlChannel`]: [`NodeCommand`] envelopes (launch / teardown /
//! ping) flow out under per-node sequence numbers, [`NodeReply`]
//! envelopes flow back. The one transport is a seeded [`LossyChannel`]
//! that drops, delays, duplicates and partitions as its
//! [`ChannelPlan`](osml_platform::ChannelPlan) says; the none plan says
//! nothing, which makes it a reliable, in-order, same-instant link. Either
//! way the protocol is the same, and it has to earn its keep:
//!
//! * **at-least-once commands** — every RPC retries under the same
//!   sequence number with exponential backoff; node agents deduplicate by
//!   [`SeqWindow`] and re-acknowledge from a reply cache, so a duplicated
//!   `Launch` places exactly one replica,
//! * **epoch fencing** — each placement attempt carries a fresh epoch;
//!   nodes refuse any epoch not strictly newer than the highest they have
//!   seen for the id, and teardowns are epoch-exact, so a delayed
//!   `Migrate`/`Launch` can never double-place a service and a delayed
//!   teardown can never kill its successor replica. Acknowledged-late
//!   launches become *ghost replicas* that are fenced off (torn down by
//!   exact epoch) as soon as the link allows,
//! * **failure suspicion, not omniscience** — node health is inferred
//!   from heartbeat timeouts on every plan; no transport proves a peer
//!   dead. Suspicion is belief: a partitioned node is indistinguishable
//!   from a dead one, so false suspicions happen,
//! * **one reconciliation rule** — every fresh pong lists the node's
//!   replicas, and each is kept (the tracked replica, or a launch still in
//!   flight), re-adopted (the current-epoch replica of a service evicted
//!   while its node was suspected, [`LaunchCause::Readopted`]) or fenced;
//!   a tracked service the snapshot should list but does not is re-placed.
//!   The same rule runs whether or not the node was suspected,
//! * **destination-commit-first migration** — the destination launch
//!   commits before the source replica is released, and the source
//!   teardown is a fenced, at-least-once command that survives a
//!   mid-flight partition: until the epoch-exact ack arrives the teardown
//!   stays pending and is re-sent every step,
//! * **golden thread** — transport faults (`MessageDropped`,
//!   `MessageDuplicated`), partition windows (`PartitionStarted`/
//!   `PartitionHealed`) and belief transitions (`NodeSuspected`/
//!   `NodeSuspicionCleared`) are world facts in the cluster's
//!   [`UnifiedLog`], strict enough for [`UnifiedLog::replay`] to fold
//!   without error.
//!
//! The conservation ledger is exact under all of it: every id ever issued
//! has exactly one disposition, no matter what the channel does.

use crate::resilience::{charge, RETRY_BUDGET};
use crate::{
    ActionKind, ClusterConfig, Decision, EventBody, LaunchCause, OsmlConfig, OsmlScheduler,
    PlacementPolicy, Provenance, RemovalCause, TelemetryNote, UnifiedLog, WorldFact,
};
use osml_platform::{
    hash01, Allocation, AppId, ChannelStats, ControlChannel, Envelope, LossyChannel, NodeCommand,
    NodeReply, Placement, RejectReason, Scheduler, SendReport, SeqWindow, SloClass, Substrate,
};
use osml_workloads::{LaunchSpec, Service, SimConfig, SimServer};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Commands carry the workload launch payload.
type Command = NodeCommand<LaunchSpec>;

/// Channel-salt for the command direction (folded into the plan seed so
/// the two directions draw independent fault streams).
const CMD_CHANNEL_SALT: u64 = 0x0C;
/// Channel-salt for the reply direction.
const REPLY_CHANNEL_SALT: u64 = 0x0D;
/// Decision-hash salt for the random-placement baseline; disjoint from
/// the platform fault salts (1–5, 101–102, 201–205).
const PLACEMENT_SALT: u64 = 211;

/// Seconds between heartbeat pings to each node: every monitoring step.
/// [`ClusterConfig::heartbeat_timeout_s`] must exceed it.
pub(crate) const HEARTBEAT_INTERVAL_S: f64 = 1.0;

/// Warm-up charged on every migration destination, seconds: the violation
/// clock is suspended for this window (cache refill and layout re-derivation
/// make early samples unrepresentative — the reasoning of the §V-B 2 s
/// sampling window).
const WARMUP_COST_S: f64 = 2.0;

/// Seconds of continuous QoS violation before the upper scheduler migrates
/// a service away from its node.
const MIGRATION_PATIENCE_S: f64 = 30.0;

/// QoS-violation migration attempts allowed per service before the cluster
/// stops moving it — the anti-thrash budget. Failover after a node death is
/// never budget-limited.
const MIGRATION_BUDGET: u32 = 3;

/// A service's location in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ServiceHandle {
    /// Cluster-wide identifier (stable across migrations and failover).
    pub id: u64,
    /// Node hosting the service when the handle was issued. Goes stale
    /// across migrations — resolve by [`ServiceHandle::id`] via
    /// [`Cluster::locate`], never by `(node, app)`.
    pub node: usize,
    /// Node-local application id (stale together with `node`).
    pub app: AppId,
}

/// Outcome of a cluster placement request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterPlacement {
    /// The service is running on the given node.
    Placed(ServiceHandle),
    /// No node in the cluster could host the service within QoS.
    ClusterFull,
}

/// Why constructing a [`Cluster`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// A cluster needs at least one node.
    NoNodes,
    /// The [`ClusterConfig`] fails validation (see
    /// `ClusterConfig::validate`); the reason says which rule.
    InvalidConfig {
        /// Human-readable rule that was violated.
        reason: &'static str,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoNodes => write!(f, "cluster needs at least one node"),
            ClusterError::InvalidConfig { reason } => {
                write!(f, "invalid cluster config: {reason}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Where a submitted service ended up — the conservation ledger. Every
/// cluster id ever issued has exactly one current disposition; nothing is
/// ever silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceDisposition {
    /// Live on some node (relocatable by migration/failover).
    Running,
    /// Removed by [`Cluster::finish`].
    Finished,
    /// Its node died (or it was stranded) and no surviving node could
    /// host it — a typed loss, surfaced, never silent.
    Evicted,
    /// No node could host it at submit time ([`ClusterPlacement::ClusterFull`]).
    Rejected,
}

#[derive(Debug, Clone)]
struct Tracked {
    handle: ServiceHandle,
    spec: LaunchSpec,
    /// Placement epoch of the replica this entry tracks (the fencing
    /// token: teardown targets exactly this epoch, and any launch ack
    /// carrying a different epoch is a ghost).
    epoch: u64,
    violating_since: Option<f64>,
    /// Destination-node time until which the violation clock is suspended
    /// (the paid migration warm-up window).
    warm_until: f64,
    /// QoS-violation migration attempts consumed (the anti-thrash budget;
    /// node-death failover is never budget-limited).
    migrations_used: u32,
    /// Cluster clock when this replica committed; pong snapshots taken
    /// before it cannot vote on its existence.
    settled_s: f64,
}

/// A service evicted while its node was merely *suspected* dead. If the
/// node reconnects still hosting the current-epoch replica, the service
/// is re-adopted instead of fenced.
#[derive(Debug, Clone)]
struct Parked {
    spec: LaunchSpec,
    epoch: u64,
    migrations_used: u32,
}

/// An epoch-exact teardown that has not been acknowledged yet. Re-sent
/// every step (same sequence number, so the node-side window dedups)
/// until its [`NodeReply::TornDown`] arrives.
#[derive(Debug, Clone, Copy)]
struct PendingTeardown {
    node: usize,
    id: u64,
    epoch: u64,
    seq: u64,
}

/// The node-side half of the control protocol: one per node, owning the
/// substrate and the local OSML controller. Executes commands delivered
/// by the channel, never called directly by placement logic.
#[derive(Debug)]
struct NodeAgent {
    index: usize,
    node: SimServer,
    scheduler: OsmlScheduler,
    /// Ground truth: the node's processes are running. Distinct from the
    /// cluster's *suspicion* of it.
    alive: bool,
    /// Self-measured capacity factor, refreshed from the fault plan while
    /// alive; reported in pongs.
    capacity: f64,
    /// Resident replicas as `(cluster id, app, epoch)`, in arrival order.
    residents: Vec<(u64, AppId, u64)>,
    /// Highest epoch seen per id — the fence. Volatile: dies with the node.
    fence: BTreeMap<u64, u64>,
    /// Command-sequence dedup window. Volatile.
    seen: SeqWindow,
    /// Replies by sequence number, for duplicate re-acks. Volatile.
    reply_cache: BTreeMap<u64, NodeReply>,
}

impl NodeAgent {
    /// The node dies: residents drain (their processes die with it) and
    /// all volatile protocol state — fences, dedup window, reply cache —
    /// is lost. Returns the drained residents for ledger bookkeeping.
    fn crash(&mut self) -> Vec<(u64, AppId, u64)> {
        self.alive = false;
        let drained: Vec<(u64, AppId, u64)> = self.residents.drain(..).collect();
        for &(_, app, _) in &drained {
            let _ = self.node.remove(app);
            self.scheduler.on_departure(app);
        }
        self.fence.clear();
        self.seen.clear();
        self.reply_cache.clear();
        drained
    }

    /// One monitoring step of node-local time. A partitioned-but-alive
    /// node keeps running its own controller — local autonomy is the
    /// whole point of the per-node OSML design.
    fn step(&mut self) {
        self.node.advance(1.0);
        if self.alive {
            self.scheduler.tick(&mut self.node);
        }
    }

    /// Executes one delivered command. `None` means silence: the node is
    /// dead, which the cluster can only learn from pongs that stop.
    /// With `fencing` the agent dedups by sequence number (re-acking
    /// duplicates from the cache) and enforces epoch fences; the ablation
    /// arm switches all of that off.
    fn handle(&mut self, env: Envelope<Command>, now_s: f64, fencing: bool) -> Option<NodeReply> {
        if !self.alive {
            return None;
        }
        // Pings are idempotent reads: they bypass dedup and the reply
        // cache so every delivery — duplicates included — is answered
        // with a *current* snapshot, never a stale cached one. Dedup and
        // caching exist for the effectful commands below.
        if let Command::Ping = env.msg {
            return Some(NodeReply::Pong {
                node: self.index,
                at_s: now_s,
                capacity: self.capacity,
                residents: self.residents.clone(),
            });
        }
        if fencing && !self.seen.fresh(env.seq) {
            // Duplicate delivery: re-acknowledge idempotently. A pruned
            // cache entry degrades to silence, which the sender's retry
            // loop already tolerates.
            return self.reply_cache.get(&env.seq).cloned();
        }
        let reply = match env.msg {
            Command::Ping => unreachable!("answered above"),
            Command::Launch { id, epoch, spec } => self.handle_launch(id, epoch, spec, fencing),
            Command::Teardown { id, epoch } => self.handle_teardown(id, epoch, fencing),
        };
        if fencing {
            self.reply_cache.insert(env.seq, reply.clone());
            while self.reply_cache.len() > 1024 {
                self.reply_cache.pop_first();
            }
        }
        Some(reply)
    }

    /// The launch path: fence check, bootstrap allocation, then the local
    /// controller's admission. Identical call sequence to the pre-protocol
    /// `try_place`.
    fn handle_launch(&mut self, id: u64, epoch: u64, spec: LaunchSpec, fencing: bool) -> NodeReply {
        if fencing {
            let top = self.fence.get(&id).copied().unwrap_or(0);
            if epoch <= top {
                return NodeReply::Fenced { id, epoch };
            }
            self.fence.insert(id, epoch);
        }
        let bootstrap = crate::bootstrap::bootstrap_allocation(&mut self.node, spec.threads);
        let Ok(app) = self.node.launch(spec, bootstrap) else {
            return NodeReply::LaunchFailed { id, epoch };
        };
        self.node.advance(1.0);
        match self.scheduler.on_arrival(&mut self.node, app) {
            Placement::Placed => {
                let post = self.node.allocation(app).unwrap_or(bootstrap);
                self.residents.push((id, app, epoch));
                NodeReply::Launched { id, epoch, app, post }
            }
            Placement::Rejected(_) | Placement::Deferred { .. } => {
                // The cluster tier has no arrival queue of its own: a node
                // that defers is treated as full and the next node is tried.
                let _ = self.node.remove(app);
                self.scheduler.on_departure(app);
                NodeReply::LaunchFailed { id, epoch }
            }
        }
    }

    /// Epoch-exact teardown (fencing) or by-id teardown (ablation).
    /// Idempotent either way: a miss acknowledges with `removed: false`.
    fn handle_teardown(&mut self, id: u64, epoch: u64, fencing: bool) -> NodeReply {
        let pos = if fencing {
            self.residents.iter().position(|&(rid, _, re)| rid == id && re == epoch)
        } else {
            self.residents.iter().position(|&(rid, _, _)| rid == id)
        };
        match pos {
            Some(p) => {
                let (_, app, _) = self.residents.remove(p);
                let _ = self.node.remove(app);
                self.scheduler.on_departure(app);
                if fencing {
                    let top = self.fence.entry(id).or_insert(0);
                    *top = (*top).max(epoch);
                }
                NodeReply::TornDown { id, epoch, removed: true }
            }
            None => NodeReply::TornDown { id, epoch, removed: false },
        }
    }
}

/// A fleet of OSML-managed servers with an upper-level placement,
/// migration and failover policy, speaking a fault-injectable control
/// protocol to its nodes.
///
/// # Example
///
/// ```no_run
/// use osml_core::{Cluster, OsmlConfig};
/// use osml_workloads::{LaunchSpec, Service};
/// # fn trained() -> osml_core::OsmlScheduler { unimplemented!() }
///
/// let scheduler_template = trained();
/// let mut cluster = Cluster::new(2, scheduler_template, OsmlConfig::default(), 7);
/// let placement = cluster.submit(LaunchSpec::at_percent_load(Service::Moses, 60.0));
/// cluster.run(30.0);
/// println!("{placement:?}, {} migrations so far", cluster.migrations());
/// ```
#[derive(Debug)]
pub struct Cluster {
    agents: Vec<NodeAgent>,
    /// Belief, not ground truth: the cluster suspects node i is dead.
    /// Index-parallel to `agents`, as are the heartbeat vectors below.
    suspected: Vec<bool>,
    /// Last cluster-clock instant a fresh pong arrived per node.
    last_heard: Vec<f64>,
    /// Last pong-reported capacity per node.
    capacity: Vec<f64>,
    /// Partition-window membership as of the last step, for transition
    /// facts.
    partitioned: Vec<bool>,
    cmd_channel: LossyChannel<Command>,
    reply_channel: LossyChannel<NodeReply>,
    /// Next command sequence number per node.
    next_seq: Vec<u64>,
    /// Unacknowledged epoch-exact teardowns, re-sent every step.
    pending_teardowns: Vec<PendingTeardown>,
    /// Suspicion-evicted services kept for re-adoption at heal.
    parked: BTreeMap<u64, Parked>,
    /// Latest issued placement epoch per id.
    epochs: BTreeMap<u64, u64>,
    /// Tracked ids whose replica death was already ledgered
    /// (`Removed { NodeFailure }`) but whose suspicion has not resolved
    /// yet — suppresses a double removal fact at finish.
    physically_gone: BTreeSet<u64>,
    services: Vec<Tracked>,
    /// Conservation ledger: every issued id, exactly one disposition.
    dispositions: BTreeMap<u64, ServiceDisposition>,
    next_id: u64,
    migrations: usize,
    failovers: usize,
    suspicions: usize,
    false_suspicions: usize,
    readopted: usize,
    fenced_ghosts: usize,
    /// Total backoff charged by command-level (transport) retries, ms.
    command_backoff_ms: f64,
    /// Monotone counter behind the random-placement baseline's draws.
    placement_draws: u64,
    /// Cluster wall clock (steps of [`Cluster::run`]); node clocks run
    /// slightly ahead because placement profiling advances them.
    clock: f64,
    tick: u64,
    log: UnifiedLog,
    cluster_cfg: ClusterConfig,
    seed: u64,
}

impl Cluster {
    /// Builds a cluster of `n` identical nodes, each driven by a clone of
    /// the (trained) `scheduler` template, under the default
    /// [`ClusterConfig`] (no faults, a loss-free channel, first-fit
    /// placement).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`; use [`Cluster::try_new`] for a typed error.
    pub fn new(n: usize, scheduler: OsmlScheduler, config: OsmlConfig, seed: u64) -> Self {
        Cluster::try_new(n, scheduler, config, ClusterConfig::default(), seed)
            .expect("cluster needs at least one node")
    }

    /// Builds a cluster of `n` nodes under an explicit [`ClusterConfig`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoNodes`] when `n == 0`;
    /// [`ClusterError::InvalidConfig`] when the config fails
    /// `ClusterConfig::validate`.
    pub fn try_new(
        n: usize,
        scheduler: OsmlScheduler,
        config: OsmlConfig,
        cluster_cfg: ClusterConfig,
        seed: u64,
    ) -> Result<Self, ClusterError> {
        if n == 0 {
            return Err(ClusterError::NoNodes);
        }
        if let Err(reason) = cluster_cfg.validate() {
            return Err(ClusterError::InvalidConfig { reason });
        }
        let agents: Vec<NodeAgent> = (0..n)
            .map(|i| NodeAgent {
                index: i,
                node: SimServer::new(SimConfig {
                    seed: seed ^ (i as u64) << 32,
                    ..SimConfig::default()
                }),
                scheduler: scheduler.clone().with_config(config.clone()),
                alive: true,
                capacity: cluster_cfg.node_faults.health(i, 0.0).capacity(),
                residents: Vec::new(),
                fence: BTreeMap::new(),
                seen: SeqWindow::new(),
                reply_cache: BTreeMap::new(),
            })
            .collect();
        let mut cluster = Cluster {
            suspected: vec![false; n],
            last_heard: vec![0.0; n],
            capacity: (0..n).map(|i| cluster_cfg.node_faults.health(i, 0.0).capacity()).collect(),
            partitioned: vec![false; n],
            cmd_channel: LossyChannel::salted(&cluster_cfg.channel, CMD_CHANNEL_SALT),
            reply_channel: LossyChannel::salted(&cluster_cfg.channel, REPLY_CHANNEL_SALT),
            next_seq: vec![0; n],
            pending_teardowns: Vec::new(),
            parked: BTreeMap::new(),
            epochs: BTreeMap::new(),
            physically_gone: BTreeSet::new(),
            agents,
            services: Vec::new(),
            dispositions: BTreeMap::new(),
            next_id: 0,
            migrations: 0,
            failovers: 0,
            suspicions: 0,
            false_suspicions: 0,
            readopted: 0,
            fenced_ghosts: 0,
            command_backoff_ms: 0.0,
            placement_draws: 0,
            clock: 0.0,
            tick: 0,
            log: UnifiedLog::new(),
            cluster_cfg,
            seed,
        };
        for i in 0..n {
            // The one belief not learnt from pongs: a node the plan has down
            // at t = 0 starts suspected.
            if !cluster.cluster_cfg.node_faults.health(i, 0.0).is_up() {
                cluster.agents[i].alive = false;
                cluster.suspected[i] = true;
                cluster.record(None, WorldFact::NodeFailed { node: i });
            }
        }
        Ok(cluster)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.agents.len()
    }

    /// Whether the cluster has no nodes (never true; see [`Cluster::try_new`]).
    pub fn is_empty(&self) -> bool {
        self.agents.is_empty()
    }

    /// QoS-violation migrations committed so far.
    pub fn migrations(&self) -> usize {
        self.migrations
    }

    /// Node-death failovers committed so far.
    pub fn failovers(&self) -> usize {
        self.failovers
    }

    /// Times the cluster transitioned into suspecting a node dead.
    pub fn suspicions(&self) -> usize {
        self.suspicions
    }

    /// Suspicions raised against nodes that were in fact alive (merely
    /// partitioned) — ground-truth bookkeeping the protocol itself never
    /// sees, exported for harness metrics.
    pub fn false_suspicions(&self) -> usize {
        self.false_suspicions
    }

    /// Services re-adopted from a reconnecting node instead of fenced.
    pub fn readopted(&self) -> usize {
        self.readopted
    }

    /// Stale replicas destroyed by epoch fencing after late delivery.
    pub fn fenced_ghosts(&self) -> usize {
        self.fenced_ghosts
    }

    /// Total backoff charged to command-level (transport) retries, ms.
    pub fn command_backoff_ms(&self) -> f64 {
        self.command_backoff_ms
    }

    /// Live replicas that do not match any tracked `(id, node, epoch)` —
    /// ghosts awaiting fencing (or re-adoption). Zero under the full
    /// protocol once links heal; the no-fencing ablation accumulates them.
    pub fn ghost_replicas(&self) -> usize {
        let total: usize = self.agents.iter().map(|a| a.residents.len()).sum();
        // Each tracked service accounts for at most one physical replica;
        // every resident beyond that — wrong epoch, wrong node, or a
        // same-epoch double-place — is a ghost.
        let matched = self
            .services
            .iter()
            .filter(|t| {
                self.agents[t.handle.node]
                    .residents
                    .iter()
                    .any(|&(id, _, e)| id == t.handle.id && e == t.epoch)
            })
            .count();
        total - matched
    }

    /// Physical replica count of a cluster id across all nodes (exactly
    /// one for a running service under the full protocol).
    pub fn replicas_of(&self, id: u64) -> usize {
        self.agents.iter().flat_map(|a| a.residents.iter()).filter(|r| r.0 == id).count()
    }

    /// Cumulative transport fault counters as `(commands, replies)`.
    pub fn channel_stats(&self) -> (ChannelStats, ChannelStats) {
        (self.cmd_channel.stats(), self.reply_channel.stats())
    }

    /// Cluster ids issued so far (every one has a disposition).
    pub fn submitted(&self) -> u64 {
        self.next_id
    }

    /// Current disposition of a cluster id, if it was ever issued.
    pub fn disposition(&self, id: u64) -> Option<ServiceDisposition> {
        self.dispositions.get(&id).copied()
    }

    /// The full conservation ledger, ordered by id.
    pub fn dispositions(&self) -> Vec<(u64, ServiceDisposition)> {
        self.dispositions.iter().map(|(&id, &d)| (id, d)).collect()
    }

    /// Whether the cluster currently *believes* `node` is up: heartbeat-
    /// derived suspicion, which can be wrong in both directions for a few
    /// seconds.
    pub fn node_is_up(&self, node: usize) -> bool {
        !self.suspected[node]
    }

    /// The cluster tier's own golden-thread log (per-node controller
    /// decisions live in each node's scheduler log).
    pub fn unified_log(&self) -> &UnifiedLog {
        &self.log
    }

    /// Services currently running, with their locations.
    pub fn services(&self) -> Vec<ServiceHandle> {
        self.services.iter().map(|t| t.handle).collect()
    }

    /// Sum of scheduling actions across all node controllers.
    pub fn total_actions(&self) -> usize {
        self.agents.iter().map(|a| a.scheduler.action_count()).sum()
    }

    // ---- control-plane plumbing -------------------------------------

    /// Logs a world fact at the current instant.
    fn record(&mut self, app: Option<u64>, fact: WorldFact) {
        self.log.push(self.tick, self.clock, app, EventBody::World(fact));
    }

    /// Logs a decision at the current instant.
    fn decide(&mut self, app: Option<u64>, decision: Decision) {
        self.log.push(self.tick, self.clock, app, EventBody::Decision(decision));
    }

    fn alloc_seq(&mut self, node: usize) -> u64 {
        let seq = self.next_seq[node];
        self.next_seq[node] += 1;
        seq
    }

    /// Sends one command copy.
    fn send_command(&mut self, node: usize, seq: u64, cmd: Command) {
        let report = self.cmd_channel.send(node, seq, self.clock, cmd);
        self.note_transport(node, seq, report);
    }

    /// Records what the transport did to one message copy as world facts
    /// (partition drops are covered by the window facts instead).
    fn note_transport(&mut self, node: usize, seq: u64, report: SendReport) {
        if report.dropped {
            self.record(None, WorldFact::MessageDropped { node, seq });
        }
        if report.duplicated {
            self.record(None, WorldFact::MessageDuplicated { node, seq });
        }
    }

    /// Delivers every due command on `node`'s link to its agent and
    /// queues the agent's replies. A dead agent answers nothing.
    fn pump_node(&mut self, node: usize) {
        let due = self.cmd_channel.deliver(node, self.clock);
        if due.is_empty() {
            return;
        }
        let fencing = self.cluster_cfg.fencing;
        for env in due {
            let seq = env.seq;
            if let Some(reply) = self.agents[node].handle(env, self.clock, fencing) {
                let report = self.reply_channel.send(node, seq, self.clock, reply);
                self.note_transport(node, seq, report);
            }
        }
    }

    /// Delivers and dispatches every due reply on `node`'s link.
    fn drain_replies(&mut self, node: usize) {
        let due = self.reply_channel.deliver(node, self.clock);
        for env in due {
            self.dispatch_reply(env);
        }
    }

    /// Handles a reply nobody is synchronously waiting for: heartbeat
    /// pongs and — the interesting ones — late acks of commands whose RPC
    /// already gave up.
    fn dispatch_reply(&mut self, env: Envelope<NodeReply>) {
        match env.msg {
            NodeReply::Pong { node, at_s, capacity, residents } => {
                self.on_pong(node, at_s, capacity, &residents);
            }
            NodeReply::Launched { id, epoch, .. } => {
                // A launch ack that outlived its RPC: the replica exists
                // but was never committed — a ghost. Fence it by exact
                // epoch (unless it happens to be the authoritative one,
                // e.g. a duplicated ack of a committed launch).
                let current = self.services.iter().find(|t| t.handle.id == id).map(|t| t.epoch);
                if self.cluster_cfg.fencing && current != Some(epoch) {
                    self.schedule_teardown(env.link, id, epoch);
                }
            }
            NodeReply::TornDown { id, epoch, removed } => {
                let before = self.pending_teardowns.len();
                self.pending_teardowns
                    .retain(|p| !(p.node == env.link && p.id == id && p.epoch == epoch));
                if removed && self.pending_teardowns.len() < before {
                    self.fenced_ghosts += 1;
                    self.record(Some(id), WorldFact::Removed { cause: RemovalCause::Fenced });
                }
            }
            NodeReply::LaunchFailed { .. } | NodeReply::Fenced { .. } => {}
        }
    }

    /// One bounded at-least-once RPC: sends `cmd` under a fresh sequence
    /// number, pumps the link, and waits (within the current instant) for
    /// the matching reply, re-sending under the same sequence number with
    /// backoff until the command budget runs out. Non-matching replies
    /// that surface meanwhile are dispatched normally.
    fn rpc(&mut self, node: usize, cmd: Command) -> Option<NodeReply> {
        let seq = self.alloc_seq(node);
        let max_attempts = RETRY_BUDGET + 1;
        let mut backoff_ms = 0.0;
        let mut attempts: u32 = 0;
        let mut result: Option<NodeReply> = None;
        while result.is_none() && attempts < max_attempts {
            attempts += 1;
            self.send_command(node, seq, cmd.clone());
            self.pump_node(node);
            for env in self.reply_channel.deliver(node, self.clock) {
                if env.seq == seq {
                    // First match completes the RPC; duplicate copies of
                    // the same ack are swallowed here, not dispatched.
                    if result.is_none() {
                        result = Some(env.msg);
                    }
                } else {
                    self.dispatch_reply(env);
                }
            }
            if result.is_none() && attempts < max_attempts {
                backoff_ms = charge(attempts, backoff_ms);
            }
        }
        if attempts > 1 {
            self.command_backoff_ms += backoff_ms;
            if result.is_some() {
                self.log.push(
                    self.tick,
                    self.clock,
                    None,
                    EventBody::Telemetry(TelemetryNote::MessageRetried { attempts, backoff_ms }),
                );
            }
        }
        result
    }

    /// Registers (and immediately sends) an epoch-exact teardown that
    /// must eventually be acknowledged; deduplicated per
    /// `(node, id, epoch)`, re-sent every step until its ack arrives.
    fn schedule_teardown(&mut self, node: usize, id: u64, epoch: u64) {
        if self.pending_teardowns.iter().any(|p| p.node == node && p.id == id && p.epoch == epoch) {
            return;
        }
        let seq = self.alloc_seq(node);
        self.pending_teardowns.push(PendingTeardown { node, id, epoch, seq });
        self.send_command(node, seq, Command::Teardown { id, epoch });
        self.pump_node(node);
        self.drain_replies(node);
    }

    /// Tears down the replica of `id` at `epoch` on `node`: one RPC, unless
    /// the node is suspected, and a pending teardown when no ack came back.
    fn teardown(&mut self, node: usize, id: u64, epoch: u64) {
        let acked = !self.suspected[node]
            && matches!(
                self.rpc(node, Command::Teardown { id, epoch }),
                Some(NodeReply::TornDown { .. })
            );
        if !acked {
            self.schedule_teardown(node, id, epoch);
        }
    }

    /// Re-sends every unacknowledged teardown (same sequence numbers, so
    /// node-side dedup absorbs the repeats).
    fn retry_pending(&mut self) {
        if self.pending_teardowns.is_empty() {
            return;
        }
        let mut links: Vec<usize> = Vec::new();
        // Sending never touches the list, so each entry is copied out by
        // index rather than the whole list cloned every step.
        for i in 0..self.pending_teardowns.len() {
            let PendingTeardown { node, seq, id, epoch } = self.pending_teardowns[i];
            self.send_command(node, seq, Command::Teardown { id, epoch });
            if !links.contains(&node) {
                links.push(node);
            }
        }
        for node in links {
            self.pump_node(node);
            self.drain_replies(node);
        }
    }

    fn next_epoch(&mut self, id: u64) -> u64 {
        let e = self.epochs.entry(id).or_insert(0);
        *e += 1;
        *e
    }

    // ---- heartbeats, suspicion, reconciliation ----------------------

    /// Sends the heartbeat probe — once a step, every
    /// [`HEARTBEAT_INTERVAL_S`] — and processes whatever comes back within
    /// the instant.
    fn heartbeat(&mut self, node: usize) {
        let seq = self.alloc_seq(node);
        self.send_command(node, seq, Command::Ping);
        self.pump_node(node);
        self.drain_replies(node);
    }

    /// Heartbeat-timeout failure detection, the only kind there is:
    /// silence past the timeout turns into suspicion, rightly or wrongly.
    fn check_timeout(&mut self, node: usize) {
        if !self.suspected[node]
            && self.clock - self.last_heard[node] >= self.cluster_cfg.heartbeat_timeout_s
        {
            self.suspect(node);
        }
    }

    /// A fresh pong: liveness proof, capacity gauge, and — with fencing —
    /// the snapshot `reconcile` runs on, suspected node or not.
    fn on_pong(&mut self, node: usize, at_s: f64, capacity: f64, residents: &[(u64, AppId, u64)]) {
        if at_s < self.last_heard[node] {
            // A delayed pong superseded by a fresher one: its snapshot
            // must not vote on anything.
            return;
        }
        self.last_heard[node] = self.clock;
        self.capacity[node] = capacity;
        if self.suspected[node] {
            self.suspected[node] = false;
            self.record(None, WorldFact::NodeSuspicionCleared { node });
        }
        if self.cluster_cfg.fencing {
            self.reconcile(node, at_s, residents);
        }
    }

    /// The cluster now believes `node` is dead: every service tracked
    /// there is stranded and failed over (or evicted — parked for
    /// re-adoption, since the belief may be wrong).
    fn suspect(&mut self, node: usize) {
        self.suspected[node] = true;
        self.suspicions += 1;
        if self.agents[node].alive {
            self.false_suspicions += 1;
        }
        self.record(None, WorldFact::NodeSuspected { node });
        let (stranded, kept): (Vec<Tracked>, Vec<Tracked>) =
            std::mem::take(&mut self.services).into_iter().partition(|t| t.handle.node == node);
        self.services = kept;
        for t in stranded {
            let id = t.handle.id;
            if self.fail_over(&t) {
                // The old replica may still be running behind a partition:
                // fence it by its exact epoch.
                self.schedule_teardown(node, id, t.epoch);
                continue;
            }
            self.parked.insert(
                id,
                Parked { spec: t.spec, epoch: t.epoch, migrations_used: t.migrations_used },
            );
            self.evict(id);
        }
    }

    /// `t` (already out of `services`) lost its replica, or is believed
    /// to have: ledgers the loss unless its physical death already was,
    /// then — with failover armed — re-places it on a survivor. Returns
    /// whether one took it; the caller decides what becomes of a service
    /// none did.
    fn fail_over(&mut self, t: &Tracked) -> bool {
        let id = t.handle.id;
        if !self.physically_gone.remove(&id) {
            // The replica's physical death was never ledgered — the node
            // may in fact be alive. Record the *believed* loss so the
            // fold's layouts track the authoritative view.
            self.record(Some(id), WorldFact::Removed { cause: RemovalCause::NodeFailure });
        }
        if !self.cluster_cfg.failover {
            return false;
        }
        self.decide(Some(id), Decision::MigrationRequested);
        let Some((_, _, post)) = self.replace(t, None) else {
            return false;
        };
        self.failovers += 1;
        self.emit_launched(id, t.spec, post, LaunchCause::Failover);
        self.emit_migration_alloc(id, None, post);
        true
    }

    /// The one reconciliation rule, run on every fresh pong with fencing
    /// on. Each replica `residents` lists meets the first case that
    /// matches:
    ///
    /// * the tracked replica at this node and epoch — kept;
    /// * a launch still in flight — kept: the latest epoch issued for an id
    ///   nothing tracks yet, whose disposition is unset or `Running`. A pong
    ///   delivered while an RPC waits for its ack can list the replica
    ///   before `submit` or `replace` tracks it;
    /// * a parked replica at its epoch whose service is `Evicted` (the node
    ///   was suspected, wrongly) — re-adopted;
    /// * anything else — fenced by an epoch-exact teardown. That includes
    ///   a replica a delayed launch left behind after the cluster moved on
    ///   and whose ack was lost, on a node nobody ever suspected.
    ///
    /// Then every service tracked here that committed before the snapshot
    /// was taken (`at_s`) but is missing from it lost its replica without a
    /// suspicion window — a crash shorter than the heartbeat timeout, say —
    /// and is re-placed instead of tracked as a zombie.
    fn reconcile(&mut self, node: usize, at_s: f64, residents: &[(u64, AppId, u64)]) {
        // One walk over the services tracked here: how many listed replicas
        // they account for, and which of them the snapshot should list.
        let mut accounted = 0;
        let mut missing: Vec<(u64, u64)> = Vec::new();
        for t in self.services.iter().filter(|t| t.handle.node == node) {
            if residents.iter().any(|&(id, _, epoch)| id == t.handle.id && epoch == t.epoch) {
                accounted += 1;
            } else if t.settled_s < at_s {
                missing.push((t.handle.id, t.epoch));
            }
        }
        if accounted < residents.len() {
            for &(id, app, epoch) in residents {
                let tracked = self.services.iter().find(|t| t.handle.id == id);
                if tracked.is_some_and(|t| t.handle.node == node && t.epoch == epoch) {
                    continue;
                }
                let disposition = self.dispositions.get(&id).copied();
                let in_flight = tracked.is_none()
                    && self.epochs.get(&id) == Some(&epoch)
                    && matches!(disposition, None | Some(ServiceDisposition::Running));
                if in_flight {
                    continue;
                }
                let readoptable = disposition == Some(ServiceDisposition::Evicted)
                    && self.parked.get(&id).is_some_and(|p| p.epoch == epoch);
                let settled =
                    if readoptable { self.agents[node].node.allocation(app) } else { None };
                let Some(settled) = settled else {
                    self.schedule_teardown(node, id, epoch);
                    continue;
                };
                let p = self.parked.remove(&id).expect("checked above");
                let handle = ServiceHandle { id, node, app };
                self.track(handle, p.spec, epoch, p.migrations_used, 0.0);
                self.readopted += 1;
                self.emit_launched(id, p.spec, settled, LaunchCause::Readopted);
            }
        }
        for (id, epoch) in missing {
            let Some(pos) = self
                .services
                .iter()
                .position(|t| t.handle.id == id && t.handle.node == node && t.epoch == epoch)
            else {
                continue;
            };
            let t = self.services.remove(pos);
            if !self.fail_over(&t) {
                self.evict(id);
            }
        }
    }

    /// Tracks a committed replica, settled now, as its service's one
    /// authoritative copy: the service is `Running`.
    fn track(
        &mut self,
        handle: ServiceHandle,
        spec: LaunchSpec,
        epoch: u64,
        migrations_used: u32,
        warm_until: f64,
    ) {
        self.services.push(Tracked {
            handle,
            spec,
            epoch,
            violating_since: None,
            warm_until,
            migrations_used,
            settled_s: self.clock,
        });
        self.dispositions.insert(handle.id, ServiceDisposition::Running);
    }

    // ---- ground-truth node health -----------------------------------

    /// Reconciles one agent's ground-truth health with the fault plan, the
    /// only thing that kills or revives a node. Down transitions drain the
    /// node and ledger the losses; what the *cluster* believes is a
    /// separate, later question for the heartbeat path.
    fn refresh_agent(&mut self, node: usize) {
        let health = self.cluster_cfg.node_faults.health(node, self.clock);
        let alive = self.agents[node].alive;
        if alive && !health.is_up() {
            self.take_node_down(node);
        } else if !alive && health.is_up() {
            self.agents[node].alive = true;
            self.record(None, WorldFact::NodeRecovered { node });
        }
        if self.agents[node].alive {
            self.agents[node].capacity = health.capacity();
        }
    }

    /// Ground-truth node death: processes drain with it. The tracked
    /// replica and a parked one, each matched at its exact epoch, get their
    /// removal ledgered now (a world fact, independent of when the
    /// cluster's belief catches up). Every other resident — a stale replica
    /// of a service running elsewhere, an anonymous ghost — dies as the
    /// ghost it was, unrecorded, so the fold keeps the live replica.
    fn take_node_down(&mut self, node: usize) {
        self.record(None, WorldFact::NodeFailed { node });
        for (id, _, epoch) in self.agents[node].crash() {
            // An epoch is issued for one launch on one node, so `(id, epoch)`
            // names the replica that launch placed.
            if self.services.iter().any(|t| t.handle.id == id && t.epoch == epoch) {
                self.physically_gone.insert(id);
            } else if self.parked.get(&id).is_some_and(|p| p.epoch == epoch) {
                self.parked.remove(&id);
            } else {
                continue;
            }
            self.record(Some(id), WorldFact::Removed { cause: RemovalCause::NodeFailure });
        }
    }

    /// Logs partition-window transitions for `node` as world facts.
    fn note_partition_transitions(&mut self, node: usize) {
        let inside = self.cluster_cfg.channel.partitioned(node, self.clock);
        if inside == self.partitioned[node] {
            return;
        }
        self.partitioned[node] = inside;
        let fact = if inside {
            WorldFact::PartitionStarted { node }
        } else {
            WorldFact::PartitionHealed { node }
        };
        self.record(None, fact);
    }

    // ---- placement --------------------------------------------------

    /// Candidate nodes for a placement, best first: unsuspected nodes
    /// only (minus `exclude`), ranked by the configured
    /// [`PlacementPolicy`].
    fn candidates(&mut self, exclude: Option<usize>) -> Vec<usize> {
        let mut order: Vec<usize> =
            (0..self.agents.len()).filter(|&i| !self.suspected[i] && Some(i) != exclude).collect();
        match self.cluster_cfg.policy {
            PlacementPolicy::FirstFit => {
                order.sort_by_key(|&i| std::cmp::Reverse(self.agents[i].node.idle_cores().count()));
            }
            PlacementPolicy::InterferenceScore => {
                let mut scored: Vec<(usize, f64)> =
                    order.into_iter().map(|i| (i, self.node_score(i))).collect();
                scored.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
                });
                order = scored.into_iter().map(|(i, _)| i).collect();
            }
            PlacementPolicy::Random => {
                // Null-hypothesis baseline: a seeded shuffle, one fresh
                // draw stream per placement attempt.
                self.placement_draws += 1;
                let draw = self.placement_draws;
                let mut scored: Vec<(usize, f64)> = order
                    .into_iter()
                    .map(|i| (i, hash01(self.seed, (draw << 8) ^ i as u64, PLACEMENT_SALT)))
                    .collect();
                scored.sort_by(|a, b| {
                    a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
                });
                order = scored.into_iter().map(|(i, _)| i).collect();
            }
        }
        order
    }

    /// Interference-aware placement score; higher is a better destination.
    /// Free capacity (idle core and LLC-way fractions) scaled by the last
    /// known node health, minus the QoS pressure of residents: a service
    /// already at 90 % of its latency target contributes its overshoot,
    /// so newcomers avoid nodes whose tenants have no slack left.
    fn node_score(&self, node: usize) -> f64 {
        let server = &self.agents[node].node;
        let topo = server.topology();
        let idle_cores = server.idle_cores().count() as f64 / topo.logical_cores() as f64;
        let idle_ways = server.idle_way_count() as f64 / topo.llc_ways() as f64;
        let mut pressure = 0.0;
        for t in self.services.iter().filter(|t| t.handle.node == node) {
            if let Some(lat) = server.latency(t.handle.app) {
                pressure += (lat.p95_ms / lat.qos_target_ms - 0.9).max(0.0);
            }
        }
        self.capacity[node] * (idle_cores + idle_ways) - pressure
    }

    /// Submits a new service, trying candidate nodes best-first and
    /// falling back through every believed-up node before declaring the
    /// cluster full. Either way the outcome is ledgered: `Running` or
    /// `Rejected`.
    pub fn submit(&mut self, spec: LaunchSpec) -> ClusterPlacement {
        let id = self.next_id;
        self.next_id += 1;
        self.record(
            Some(id),
            WorldFact::ArrivalDue {
                workload: id,
                service: spec.service,
                class: SloClass::LatencyCritical,
                threads: spec.threads,
                offered_rps: spec.offered_rps,
            },
        );
        for node in self.candidates(None) {
            let epoch = self.next_epoch(id);
            if let Some(NodeReply::Launched { app, post, .. }) =
                self.rpc(node, Command::Launch { id, epoch, spec })
            {
                let handle = ServiceHandle { id, node, app };
                self.emit_launched(id, spec, post, LaunchCause::Scripted);
                self.track(handle, spec, epoch, 0, 0.0);
                return ClusterPlacement::Placed(handle);
            }
        }
        self.dispositions.insert(id, ServiceDisposition::Rejected);
        self.decide(Some(id), Decision::Rejected { reason: RejectReason::InsufficientResources });
        ClusterPlacement::ClusterFull
    }

    /// Logs the cluster-level launch fact. The recorded allocation is the
    /// placement-settled one (node-local Model-A/B decisions live in the
    /// per-node scheduler logs), so the cluster fold tracks real layouts.
    fn emit_launched(
        &mut self,
        id: u64,
        spec: LaunchSpec,
        settled: Allocation,
        cause: LaunchCause,
    ) {
        self.record(
            Some(id),
            WorldFact::Launched {
                workload: id,
                service: spec.service,
                class: SloClass::LatencyCritical,
                threads: spec.threads,
                offered_rps: spec.offered_rps,
                bootstrap: settled,
                cause,
            },
        );
    }

    /// Logs the committed-migration decision pair for `id`.
    fn emit_migration_alloc(&mut self, id: u64, pre: Option<Allocation>, post: Allocation) {
        self.decide(
            Some(id),
            Decision::Alloc {
                kind: ActionKind::Migrate,
                provenance: Provenance::Controller,
                pre,
                post,
                counts_as_action: true,
            },
        );
    }

    /// Transactionally re-places `t` (already out of `services`) on the
    /// best believed-up candidate, through a fenced launch RPC. On
    /// success the new residency is tracked and ledgered and
    /// `(node, app, settled allocation)` returned; the caller owns source
    /// teardown and log emission, so the destination launch always
    /// commits before any source replica is released.
    fn replace(
        &mut self,
        t: &Tracked,
        exclude: Option<usize>,
    ) -> Option<(usize, AppId, Allocation)> {
        let id = t.handle.id;
        for node in self.candidates(exclude) {
            let epoch = self.next_epoch(id);
            if let Some(NodeReply::Launched { app, post, .. }) =
                self.rpc(node, Command::Launch { id, epoch, spec: t.spec })
            {
                let warm_until = self.agents[node].node.now() + WARMUP_COST_S;
                let handle = ServiceHandle { id, node, app };
                self.track(handle, t.spec, epoch, t.migrations_used + 1, warm_until);
                self.physically_gone.remove(&id);
                return Some((node, app, post));
            }
        }
        None
    }

    /// Ledger a typed eviction: capacity is genuinely (believed) gone.
    fn evict(&mut self, id: u64) {
        self.dispositions.insert(id, ServiceDisposition::Evicted);
        self.decide(Some(id), Decision::Rejected { reason: RejectReason::InsufficientResources });
    }

    /// Removes a service from the cluster (completion). The handle is
    /// resolved by its cluster `ServiceHandle::id` — never by its
    /// possibly stale `(node, app)` pair — so handles issued before a
    /// migration or failover keep working.
    ///
    /// Returns false if the id is not running (already finished, evicted
    /// or rejected).
    pub fn finish(&mut self, handle: ServiceHandle) -> bool {
        self.finish_id(handle.id)
    }

    /// Removes the running service with cluster id `id` (completion).
    /// The physical teardown is an epoch-fenced, at-least-once command;
    /// if the node is unreachable it stays pending until acknowledged.
    pub(crate) fn finish_id(&mut self, id: u64) -> bool {
        let Some(pos) = self.services.iter().position(|t| t.handle.id == id) else {
            return false;
        };
        let t = self.services.remove(pos);
        self.teardown(t.handle.node, id, t.epoch);
        self.dispositions.insert(id, ServiceDisposition::Finished);
        if !self.physically_gone.remove(&id) {
            self.record(Some(id), WorldFact::Removed { cause: RemovalCause::ScriptedDeparture });
        }
        true
    }

    /// Current location of the service with cluster id `id`.
    pub fn locate(&self, id: u64) -> Option<ServiceHandle> {
        self.services.iter().find(|t| t.handle.id == id).map(|t| t.handle)
    }

    /// Current p95/target ratio of a service, if running. Resolved by
    /// cluster id, so the answer tracks migrations and failover.
    pub fn latency_over_target(&self, id: u64) -> Option<f64> {
        let t = self.services.iter().find(|t| t.handle.id == id)?;
        let lat = self.agents[t.handle.node].node.latency(t.handle.app)?;
        Some(lat.p95_ms / lat.qos_target_ms)
    }

    /// Runs every node forward by `seconds` (1 Hz monitoring). Each step:
    /// per-node ground-truth health and channel pumping (partition facts,
    /// heartbeats, suspicion), then pending teardown re-sends, then the
    /// per-node controllers, then QoS-violation migrations.
    pub fn run(&mut self, seconds: f64) {
        let steps = seconds.max(0.0).round() as usize;
        for _ in 0..steps {
            self.clock += 1.0;
            for node in 0..self.agents.len() {
                self.note_partition_transitions(node);
                self.refresh_agent(node);
                self.pump_node(node);
                self.drain_replies(node);
                self.heartbeat(node);
                self.check_timeout(node);
            }
            self.retry_pending();
            for node in 0..self.agents.len() {
                self.agents[node].step();
            }
            self.check_migrations();
            self.tick += 1;
            self.record(None, WorldFact::TickElapsed);
        }
    }

    fn check_migrations(&mut self) {
        let mut to_migrate: Vec<usize> = Vec::new();
        for (idx, tracked) in self.services.iter_mut().enumerate() {
            let node = &self.agents[tracked.handle.node].node;
            let now = node.now();
            if now < tracked.warm_until {
                // Paid warm-up after a migration: early samples are
                // unrepresentative, so the violation clock is suspended.
                tracked.violating_since = None;
                continue;
            }
            let violating =
                node.latency(tracked.handle.app).map(|l| l.violates_qos()).unwrap_or(false);
            if violating {
                let since = *tracked.violating_since.get_or_insert(now);
                if now - since > MIGRATION_PATIENCE_S {
                    to_migrate.push(idx);
                }
            } else {
                tracked.violating_since = None;
            }
        }
        // Migrate in reverse index order so removals stay valid.
        for idx in to_migrate.into_iter().rev() {
            if self.services[idx].migrations_used >= MIGRATION_BUDGET {
                // Budget exhausted: stay put rather than thrash; wait a
                // full patience window before reconsidering.
                self.services[idx].violating_since = None;
                continue;
            }
            let t = self.services.remove(idx);
            let id = t.handle.id;
            let from = t.handle.node;
            self.decide(Some(id), Decision::MigrationRequested);
            let pre = self.agents[from].node.allocation(t.handle.app);
            if let Some((_, _, post)) = self.replace(&t, Some(from)) {
                // The destination is committed: only now is the source
                // replica released — an epoch-exact teardown that stays
                // pending (and re-sent) if the ack does not arrive, so a
                // mid-flight partition can never yield zero — or two —
                // authoritative replicas.
                self.teardown(from, id, t.epoch);
                self.migrations += 1;
                self.record(Some(id), WorldFact::Removed { cause: RemovalCause::Migrated });
                self.emit_launched(id, t.spec, post, LaunchCause::Failover);
                self.emit_migration_alloc(id, pre, post);
            } else {
                // No destination would take it: the service never left
                // its node. The attempt still burns budget (anti-thrash)
                // and the violation clock restarts.
                let mut t = t;
                t.violating_since = None;
                t.migrations_used += 1;
                self.services.insert(idx, t);
            }
        }
    }

    /// Which services run on `node`.
    pub fn services_on(&self, node: usize) -> Vec<Service> {
        self.services.iter().filter(|t| t.handle.node == node).map(|t| t.spec.service).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Models;
    use osml_platform::{ChannelPlan, NodeCrash, NodeFaultPlan, PartitionWindow};

    /// A scheduler with untrained models is still structurally valid for
    /// cluster-plumbing tests (predictions are arbitrary but legal).
    fn raw_scheduler() -> OsmlScheduler {
        OsmlScheduler::new(Models::untrained(1), OsmlConfig::default())
    }

    /// A plan crashing `node` at `at_s`, optionally recovering.
    fn crash_plan(node: usize, at_s: f64, recover_s: Option<f64>) -> ClusterConfig {
        ClusterConfig {
            node_faults: NodeFaultPlan {
                crashes: vec![NodeCrash { node, at_s, recover_s }],
                ..NodeFaultPlan::none()
            },
            policy: PlacementPolicy::InterferenceScore,
            ..ClusterConfig::default()
        }
    }

    /// A channel plan that only partitions `node` during `[from, until)`.
    fn partition_plan(node: usize, from: f64, until: f64) -> ChannelPlan {
        ChannelPlan {
            partitions: vec![PartitionWindow { node, start_s: from, end_s: until }],
            ..ChannelPlan::none()
        }
    }

    #[test]
    fn a_thousand_node_fleet_is_built_from_one_pool() {
        // A template whose Model-C pool is full, as a trained one's is. Every
        // node's controller is a clone of it: were a clone a copy, this
        // fleet would be 1024 × 10 000 tuples (≈2 GB) before its first step.
        let sample = osml_platform::CounterSample {
            ipc: 1.0,
            llc_misses_per_sec: 1e7,
            mbl_gbps: 2.0,
            cpu_usage: 5.0,
            memory_util_gb: 2.0,
            virt_memory_gb: 3.2,
            res_memory_gb: 2.0,
            llc_occupancy_mb: 10.0,
            allocated_cores: 6,
            allocated_ways: 8,
            frequency_ghz: 2.3,
            response_latency_ms: 4.0,
        };
        let mut models = Models::untrained(1);
        for _ in 0..10_000 {
            models.model_c.observe(&sample, osml_models::Action::from_index(24), &sample);
        }
        let template = OsmlScheduler::new(models, OsmlConfig::default());
        let mut cluster = Cluster::new(1024, template, OsmlConfig::default(), 9);
        let handles: Vec<ServiceHandle> = (0..64)
            .map(|_| match cluster.submit(LaunchSpec::at_percent_load(Service::Login, 30.0)) {
                ClusterPlacement::Placed(h) => h,
                ClusterPlacement::ClusterFull => panic!("1024 idle nodes cannot be full"),
            })
            .collect();
        cluster.run(5.0);
        assert!(handles.iter().all(|h| cluster.locate(h.id).is_some()));
        for agent in &cluster.agents {
            assert!(agent.node.now() >= 5.0, "every node ran");
            assert_eq!(agent.scheduler.models().model_c.pool_len(), 10_000);
        }
    }

    #[test]
    fn services_spread_across_nodes() {
        let mut cluster = Cluster::new(2, raw_scheduler(), OsmlConfig::default(), 5);
        let mut nodes_used = std::collections::HashSet::new();
        for _ in 0..2 {
            match cluster.submit(LaunchSpec::at_percent_load(Service::Moses, 40.0)) {
                ClusterPlacement::Placed(h) => {
                    nodes_used.insert(h.node);
                }
                ClusterPlacement::ClusterFull => panic!("two nodes cannot be full"),
            }
        }
        // First-fit-by-idle sends the second service to the other node.
        assert_eq!(nodes_used.len(), 2);
        assert_eq!(cluster.services().len(), 2);
    }

    #[test]
    fn finish_releases_resources() {
        let mut cluster = Cluster::new(1, raw_scheduler(), OsmlConfig::default(), 6);
        let ClusterPlacement::Placed(h) =
            cluster.submit(LaunchSpec::at_percent_load(Service::Login, 20.0))
        else {
            panic!("placement failed");
        };
        let idle_during = cluster.agents[0].node.idle_cores().count();
        assert!(cluster.finish(h));
        assert!(!cluster.finish(h), "double-finish must be rejected");
        assert!(cluster.agents[0].node.idle_cores().count() > idle_during);
        assert!(cluster.services().is_empty());
        assert_eq!(cluster.disposition(h.id), Some(ServiceDisposition::Finished));
    }

    #[test]
    fn overloaded_service_is_migrated() {
        let mut cluster = Cluster::new(2, raw_scheduler(), OsmlConfig::default(), 7);
        // Node 0: a service whose (untrained-model) allocation will violate.
        let ClusterPlacement::Placed(h) =
            cluster.submit(LaunchSpec::at_percent_load(Service::Xapian, 80.0))
        else {
            panic!("placement failed");
        };
        // Crowd node h.node so the controller cannot fix the violation...
        // (with untrained models the violation simply persists).
        cluster.run(MIGRATION_PATIENCE_S + 10.0);
        // Either it was healed in place or migrated; in both cases the
        // service must still be somewhere in the cluster.
        assert!(cluster.locate(h.id).is_some(), "service must not be lost");
    }

    #[test]
    fn run_advances_all_nodes() {
        let mut cluster = Cluster::new(3, raw_scheduler(), OsmlConfig::default(), 8);
        cluster.run(10.0);
        for agent in &cluster.agents {
            assert!((agent.node.now() - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_nodes_is_a_typed_error() {
        let err = Cluster::try_new(
            0,
            raw_scheduler(),
            OsmlConfig::default(),
            ClusterConfig::default(),
            1,
        )
        .unwrap_err();
        assert_eq!(err, ClusterError::NoNodes);
        assert_eq!(err.to_string(), "cluster needs at least one node");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics_through_the_legacy_constructor() {
        let _ = Cluster::new(0, raw_scheduler(), OsmlConfig::default(), 1);
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        use osml_platform::node_faults::NodeChurnProfile;
        const CHURN: NodeChurnProfile =
            NodeChurnProfile { crash_prob: 0.1, interval_s: 30.0, mean_downtime_s: 20.0 };
        let churn = |profile| ClusterConfig {
            node_faults: NodeFaultPlan { churn: Some(profile), ..NodeFaultPlan::none() },
            ..ClusterConfig::default()
        };
        assert!(churn(CHURN).validate().is_ok(), "each churn case below breaks one field");
        let bad: Vec<ClusterConfig> = vec![
            ClusterConfig { heartbeat_timeout_s: 1.0, ..ClusterConfig::default() },
            // NaN fails every suspicion check: a dead node behind a lossy
            // channel would never be suspected.
            ClusterConfig { heartbeat_timeout_s: f64::NAN, ..ClusterConfig::default() },
            ClusterConfig {
                channel: ChannelPlan { drop_prob: 1.5, ..ChannelPlan::none() },
                ..ClusterConfig::default()
            },
            // An infinite timeout never suspects a crashed node either.
            ClusterConfig { heartbeat_timeout_s: f64::INFINITY, ..ClusterConfig::default() },
            // A delayed copy due at +inf is never delivered.
            ClusterConfig {
                channel: ChannelPlan { max_delay_s: f64::INFINITY, ..ChannelPlan::none() },
                ..ClusterConfig::default()
            },
            ClusterConfig {
                channel: ChannelPlan { max_delay_s: -1.0, ..ChannelPlan::none() },
                ..ClusterConfig::default()
            },
            // `decision >= NaN` is false, so a NaN probability crashes every
            // node in every interval.
            churn(NodeChurnProfile { crash_prob: f64::NAN, ..CHURN }),
            churn(NodeChurnProfile { crash_prob: 1.5, ..CHURN }),
            // An interval or downtime that is not finite and positive
            // silently turns churn off, or never lets a node back.
            churn(NodeChurnProfile { interval_s: 0.0, ..CHURN }),
            churn(NodeChurnProfile { interval_s: f64::NAN, ..CHURN }),
            churn(NodeChurnProfile { mean_downtime_s: -1.0, ..CHURN }),
            churn(NodeChurnProfile { mean_downtime_s: f64::INFINITY, ..CHURN }),
        ];
        for cfg in bad {
            let err =
                Cluster::try_new(2, raw_scheduler(), OsmlConfig::default(), cfg, 1).unwrap_err();
            assert!(
                matches!(err, ClusterError::InvalidConfig { .. }),
                "expected InvalidConfig, got {err:?}"
            );
            assert!(err.to_string().starts_with("invalid cluster config:"));
        }
        // The default config itself must validate.
        assert!(ClusterConfig::default().validate().is_ok());
    }

    #[test]
    fn node_death_fails_services_over_to_survivors() {
        let cfg = crash_plan(0, 5.0, None);
        let mut cluster =
            Cluster::try_new(2, raw_scheduler(), OsmlConfig::default(), cfg, 11).unwrap();
        let ClusterPlacement::Placed(h) =
            cluster.submit(LaunchSpec::at_percent_load(Service::Moses, 30.0))
        else {
            panic!("placement failed");
        };
        assert_eq!(h.node, 0, "first-fit on an empty fleet starts at node 0");
        cluster.run(10.0);
        assert!(!cluster.node_is_up(0));
        assert_eq!(cluster.failovers(), 1);
        let here = cluster.locate(h.id).expect("failover keeps the service in the cluster");
        assert_eq!(here.node, 1, "re-placed on the survivor");
        assert_eq!(cluster.disposition(h.id), Some(ServiceDisposition::Running));
        assert!(cluster.latency_over_target(h.id).is_some(), "resolvable after failover");
        let log = cluster.unified_log();
        let facts: Vec<&WorldFact> = log
            .world_facts()
            .filter_map(|e| match &e.body {
                EventBody::World(f) => Some(f),
                _ => None,
            })
            .collect();
        assert!(facts.iter().any(|f| matches!(f, WorldFact::NodeFailed { node: 0 })));
        assert!(facts
            .iter()
            .any(|f| matches!(f, WorldFact::Removed { cause: RemovalCause::NodeFailure })));
        assert!(facts
            .iter()
            .any(|f| matches!(f, WorldFact::Launched { cause: LaunchCause::Failover, .. })));
        let state = log.replay().expect("cluster log must fold");
        assert!(state.layouts.contains_key(&h.id), "the fold tracks the live replica");
    }

    #[test]
    fn stale_handles_resolve_by_id_after_failover() {
        let cfg = crash_plan(0, 5.0, None);
        let mut cluster =
            Cluster::try_new(2, raw_scheduler(), OsmlConfig::default(), cfg, 12).unwrap();
        let ClusterPlacement::Placed(stale) =
            cluster.submit(LaunchSpec::at_percent_load(Service::Login, 20.0))
        else {
            panic!("placement failed");
        };
        cluster.run(10.0);
        assert_ne!(cluster.locate(stale.id).unwrap().node, stale.node, "handle went stale");
        // The pre-failover handle still finishes the service: resolution
        // is by cluster id, never by the stale (node, app) pair.
        assert!(cluster.finish(stale));
        assert_eq!(cluster.disposition(stale.id), Some(ServiceDisposition::Finished));
        assert!(cluster.locate(stale.id).is_none());
    }

    #[test]
    fn sole_node_death_is_a_typed_eviction() {
        let cfg = crash_plan(0, 5.0, None);
        let mut cluster =
            Cluster::try_new(1, raw_scheduler(), OsmlConfig::default(), cfg, 13).unwrap();
        let ClusterPlacement::Placed(h) =
            cluster.submit(LaunchSpec::at_percent_load(Service::Moses, 30.0))
        else {
            panic!("placement failed");
        };
        cluster.run(10.0);
        assert_eq!(cluster.disposition(h.id), Some(ServiceDisposition::Evicted));
        assert!(cluster.locate(h.id).is_none());
        // The eviction is surfaced in the log as a typed rejection, and
        // the log still folds (the resident was removed first).
        assert!(cluster.unified_log().decisions().any(|e| matches!(
            &e.body,
            EventBody::Decision(Decision::Rejected { reason: RejectReason::InsufficientResources })
        ) && e.app == Some(h.id)));
        cluster.unified_log().replay().expect("cluster log must fold");
        // New submissions are rejected while the whole fleet is down.
        assert_eq!(
            cluster.submit(LaunchSpec::at_percent_load(Service::Login, 10.0)),
            ClusterPlacement::ClusterFull
        );
    }

    #[test]
    fn recovered_node_rejoins_empty_and_accepts_work() {
        let cfg = crash_plan(0, 5.0, Some(20.0));
        let mut cluster =
            Cluster::try_new(1, raw_scheduler(), OsmlConfig::default(), cfg, 14).unwrap();
        let ClusterPlacement::Placed(h) =
            cluster.submit(LaunchSpec::at_percent_load(Service::Moses, 30.0))
        else {
            panic!("placement failed");
        };
        cluster.run(30.0);
        assert!(cluster.node_is_up(0), "recovered at t=20");
        assert_eq!(cluster.disposition(h.id), Some(ServiceDisposition::Evicted));
        assert!(cluster
            .unified_log()
            .world_facts()
            .any(|e| matches!(e.body, EventBody::World(WorldFact::NodeRecovered { node: 0 }))));
        // The rejoined (empty) node hosts new work again.
        assert!(matches!(
            cluster.submit(LaunchSpec::at_percent_load(Service::Login, 20.0)),
            ClusterPlacement::Placed(_)
        ));
    }

    #[test]
    fn a_crash_on_the_loss_free_channel_is_suspected_by_heartbeat_and_cleared_at_recovery() {
        let cfg = ClusterConfig { channel: ChannelPlan::none(), ..crash_plan(1, 5.0, Some(20.0)) };
        let timeout = cfg.heartbeat_timeout_s as u64;
        let mut cluster =
            Cluster::try_new(2, raw_scheduler(), OsmlConfig::default(), cfg, 17).unwrap();
        for _ in 0..2 {
            let _ = cluster.submit(LaunchSpec::at_percent_load(Service::Moses, 30.0));
        }
        assert_eq!(cluster.locate(1).map(|h| h.node), Some(1), "first-fit spreads the two");
        cluster.run(30.0);
        let tick_of = |fact: WorldFact| {
            let mut events = cluster.unified_log().world_facts();
            events.find(|e| e.body == EventBody::World(fact.clone())).expect("logged").tick
        };
        let (failed, suspected) = (
            tick_of(WorldFact::NodeFailed { node: 1 }),
            tick_of(WorldFact::NodeSuspected { node: 1 }),
        );
        assert!(suspected > failed && suspected - failed <= timeout + 1, "{failed} {suspected}");
        assert_eq!((cluster.false_suspicions(), cluster.failovers()), (0, 1));
        assert_eq!(cluster.locate(1).map(|h| h.node), Some(0), "failed over to the survivor");
        let recovered = tick_of(WorldFact::NodeRecovered { node: 1 });
        assert!(tick_of(WorldFact::NodeSuspicionCleared { node: 1 }) >= recovered);
        assert!(cluster.node_is_up(1));
    }

    #[test]
    fn qos_migration_emits_the_golden_decision_pair() {
        let mut cluster = Cluster::new(2, raw_scheduler(), OsmlConfig::default(), 15);
        // Offered load beyond nominal capacity: the violation persists on
        // any node, so patience must expire and a migration must commit.
        let ClusterPlacement::Placed(h) =
            cluster.submit(LaunchSpec::at_percent_load(Service::Xapian, 120.0))
        else {
            panic!("placement failed");
        };
        cluster.run(MIGRATION_PATIENCE_S + 15.0);
        assert!(cluster.migrations() >= 1, "an unfixable violation must migrate");
        let log = cluster.unified_log();
        assert!(
            log.decisions().any(|e| e.app == Some(h.id)
                && matches!(e.body, EventBody::Decision(Decision::MigrationRequested))),
            "the cluster-level migration request must be in the golden log"
        );
        assert!(
            log.decisions().any(|e| e.app == Some(h.id)
                && matches!(
                    &e.body,
                    EventBody::Decision(Decision::Alloc {
                        kind: ActionKind::Migrate,
                        provenance: Provenance::Controller,
                        counts_as_action: true,
                        ..
                    })
                )),
            "a committed migration must record its Alloc decision"
        );
        assert!(log.world_facts().any(|e| matches!(
            e.body,
            EventBody::World(WorldFact::Removed { cause: RemovalCause::Migrated })
        )));
        assert!(cluster.locate(h.id).is_some(), "service must not be lost");
        log.replay().expect("cluster log must fold after a migration");
    }

    #[test]
    fn exhausted_migration_budget_suppresses_thrashing() {
        let mut cluster = Cluster::new(2, raw_scheduler(), OsmlConfig::default(), 16);
        let ClusterPlacement::Placed(h) =
            cluster.submit(LaunchSpec::at_percent_load(Service::Xapian, 120.0))
        else {
            panic!("placement failed");
        };
        // Every attempt waits out the patience window (and a migrated one
        // its warm-up too): one window more than the budget holds.
        cluster.run(f64::from(MIGRATION_BUDGET + 1) * (MIGRATION_PATIENCE_S + WARMUP_COST_S + 2.0));
        assert!(
            cluster.migrations() <= MIGRATION_BUDGET as usize,
            "the budget bounds the QoS migrations"
        );
        let tracked = cluster.services.iter().find(|t| t.handle.id == h.id);
        let tracked = tracked.expect("the service stayed in the cluster");
        assert_eq!(
            tracked.migrations_used, MIGRATION_BUDGET,
            "the persisting violation must exhaust the budget"
        );
    }

    #[test]
    fn faultless_cluster_log_replays_to_the_running_set() {
        let mut cluster = Cluster::new(3, raw_scheduler(), OsmlConfig::default(), 19);
        let mut ids = Vec::new();
        for (service, pct) in
            [(Service::Moses, 30.0), (Service::ImgDnn, 30.0), (Service::Xapian, 30.0)]
        {
            if let ClusterPlacement::Placed(h) =
                cluster.submit(LaunchSpec::at_percent_load(service, pct))
            {
                ids.push(h.id);
            }
        }
        cluster.run(20.0);
        cluster.finish_id(ids[0]);
        cluster.run(5.0);
        let state = cluster.unified_log().replay().expect("cluster log must fold");
        let running: Vec<u64> = cluster.services().iter().map(|h| h.id).collect();
        assert_eq!(
            state.layouts.keys().copied().collect::<Vec<_>>(),
            running,
            "fold layout keys must equal the running set"
        );
        assert_eq!(state.tick, 25);
    }

    #[test]
    fn duplicate_delivery_is_idempotent_under_fencing() {
        // Every message is duplicated, both directions. Node-side
        // sequence dedup plus reply-cache re-acks must keep exactly one
        // replica per service.
        let cfg = ClusterConfig {
            channel: ChannelPlan { seed: 21, duplicate_prob: 1.0, ..ChannelPlan::none() },
            ..ClusterConfig::default()
        };
        let mut cluster =
            Cluster::try_new(2, raw_scheduler(), OsmlConfig::default(), cfg, 21).unwrap();
        let ClusterPlacement::Placed(h) =
            cluster.submit(LaunchSpec::at_percent_load(Service::Moses, 30.0))
        else {
            panic!("placement failed");
        };
        cluster.run(10.0);
        assert_eq!(cluster.replicas_of(h.id), 1, "duplicated launches must not double-place");
        assert_eq!(cluster.ghost_replicas(), 0);
        assert_eq!(cluster.disposition(h.id), Some(ServiceDisposition::Running));
        assert!(
            cluster
                .unified_log()
                .world_facts()
                .any(|e| matches!(e.body, EventBody::World(WorldFact::MessageDuplicated { .. }))),
            "transport duplication must be a world fact"
        );
        cluster.unified_log().replay().expect("log must fold under duplication");
    }

    #[test]
    fn without_fencing_duplicates_double_place() {
        // The ablation arm: same duplicating channel, protocol off. The
        // duplicated launch executes twice and leaves a ghost replica —
        // the failure mode the fencing protocol exists to prevent.
        let cfg = ClusterConfig {
            channel: ChannelPlan { seed: 21, duplicate_prob: 1.0, ..ChannelPlan::none() },
            fencing: false,
            ..ClusterConfig::default()
        };
        let mut cluster =
            Cluster::try_new(2, raw_scheduler(), OsmlConfig::default(), cfg, 21).unwrap();
        let ClusterPlacement::Placed(h) =
            cluster.submit(LaunchSpec::at_percent_load(Service::Moses, 30.0))
        else {
            panic!("placement failed");
        };
        assert!(cluster.replicas_of(h.id) > 1, "without dedup the duplicate must double-place");
        assert!(cluster.ghost_replicas() > 0, "the extra replica is a ghost");
    }

    #[test]
    fn false_suspicion_readopts_after_partition_heals() {
        // A partition, not a crash: the sole node keeps running its
        // replica the whole time. The cluster must (wrongly) suspect it,
        // evict, and then re-adopt the still-live replica at heal.
        let cfg =
            ClusterConfig { channel: partition_plan(0, 5.0, 12.0), ..ClusterConfig::default() };
        let mut cluster =
            Cluster::try_new(1, raw_scheduler(), OsmlConfig::default(), cfg, 22).unwrap();
        let ClusterPlacement::Placed(h) =
            cluster.submit(LaunchSpec::at_percent_load(Service::Moses, 30.0))
        else {
            panic!("placement failed");
        };
        cluster.run(8.0);
        assert!(!cluster.node_is_up(0), "heartbeat timeout must raise suspicion");
        assert_eq!(cluster.false_suspicions(), 1, "the node is in fact alive");
        assert_eq!(cluster.disposition(h.id), Some(ServiceDisposition::Evicted));
        assert_eq!(cluster.replicas_of(h.id), 1, "the replica survived behind the partition");
        cluster.run(12.0);
        assert!(cluster.node_is_up(0), "suspicion clears at heal");
        assert_eq!(cluster.readopted(), 1, "the current-epoch replica is re-adopted");
        assert_eq!(cluster.disposition(h.id), Some(ServiceDisposition::Running));
        assert_eq!(cluster.locate(h.id).map(|h| h.node), Some(0));
        assert_eq!(cluster.ghost_replicas(), 0);
        let log = cluster.unified_log();
        for expect in [
            |f: &WorldFact| matches!(f, WorldFact::PartitionStarted { node: 0 }),
            |f: &WorldFact| matches!(f, WorldFact::PartitionHealed { node: 0 }),
            |f: &WorldFact| matches!(f, WorldFact::NodeSuspected { node: 0 }),
            |f: &WorldFact| matches!(f, WorldFact::NodeSuspicionCleared { node: 0 }),
            |f: &WorldFact| matches!(f, WorldFact::Launched { cause: LaunchCause::Readopted, .. }),
        ] {
            assert!(
                log.world_facts().any(|e| match &e.body {
                    EventBody::World(f) => expect(f),
                    _ => false,
                }),
                "a belief-transition fact is missing from the golden thread"
            );
        }
        let state = log.replay().expect("log must fold across suspicion and re-adoption");
        assert!(state.layouts.contains_key(&h.id));
    }

    #[test]
    fn partition_failover_fences_the_stale_replica_at_heal() {
        // Two nodes; node 0 is partitioned long enough to be suspected
        // and its service failed over to node 1. The old replica keeps
        // running behind the partition — at heal it must be fenced by its
        // exact epoch, leaving one authoritative replica.
        let cfg =
            ClusterConfig { channel: partition_plan(0, 5.0, 25.0), ..ClusterConfig::default() };
        let mut cluster =
            Cluster::try_new(2, raw_scheduler(), OsmlConfig::default(), cfg, 23).unwrap();
        let ClusterPlacement::Placed(h) =
            cluster.submit(LaunchSpec::at_percent_load(Service::Moses, 30.0))
        else {
            panic!("placement failed");
        };
        assert_eq!(h.node, 0);
        cluster.run(15.0);
        assert_eq!(cluster.failovers(), 1, "the suspected node's service fails over");
        assert_eq!(cluster.locate(h.id).map(|h| h.node), Some(1));
        assert_eq!(cluster.replicas_of(h.id), 2, "the ghost still runs behind the partition");
        cluster.run(20.0);
        assert_eq!(cluster.replicas_of(h.id), 1, "the ghost is fenced at heal");
        assert_eq!(cluster.ghost_replicas(), 0);
        assert_eq!(cluster.fenced_ghosts(), 1);
        assert_eq!(cluster.disposition(h.id), Some(ServiceDisposition::Running));
        assert!(cluster.unified_log().world_facts().any(|e| matches!(
            e.body,
            EventBody::World(WorldFact::Removed { cause: RemovalCause::Fenced })
        )));
        cluster.unified_log().replay().expect("log must fold across fencing");
    }

    #[test]
    fn lossy_runs_are_bit_deterministic_for_a_fixed_seed() {
        let build = || {
            let cfg = ClusterConfig {
                channel: ChannelPlan {
                    partitions: vec![PartitionWindow { node: 0, start_s: 10.0, end_s: 18.0 }],
                    ..ChannelPlan::lossy(31, 0.1)
                },
                ..ClusterConfig::default()
            };
            let mut cluster =
                Cluster::try_new(3, raw_scheduler(), OsmlConfig::default(), cfg, 31).unwrap();
            for (service, pct) in
                [(Service::Moses, 30.0), (Service::ImgDnn, 30.0), (Service::Login, 20.0)]
            {
                let _ = cluster.submit(LaunchSpec::at_percent_load(service, pct));
            }
            cluster.run(40.0);
            cluster
        };
        let (a, b) = (build(), build());
        let (a_cmd, a_rep) = a.channel_stats();
        let (b_cmd, b_rep) = b.channel_stats();
        assert_eq!(
            (a_cmd.sent, a_cmd.dropped, a_cmd.duplicated, a_cmd.delayed, a_cmd.partitioned),
            (b_cmd.sent, b_cmd.dropped, b_cmd.duplicated, b_cmd.delayed, b_cmd.partitioned)
        );
        assert_eq!(
            (a_rep.sent, a_rep.dropped, a_rep.duplicated, a_rep.delayed, a_rep.partitioned),
            (b_rep.sent, b_rep.dropped, b_rep.duplicated, b_rep.delayed, b_rep.partitioned)
        );
        assert_eq!(a.services(), b.services());
        assert_eq!(a.dispositions(), b.dispositions());
        assert_eq!(a.suspicions(), b.suspicions());
        assert_eq!(a.fenced_ghosts(), b.fenced_ghosts());
        assert_eq!(a.unified_log().events().len(), b.unified_log().events().len());
    }

    #[test]
    fn random_placement_is_seeded_and_legal() {
        let cfg = ClusterConfig { policy: PlacementPolicy::Random, ..ClusterConfig::default() };
        let mut cluster =
            Cluster::try_new(3, raw_scheduler(), OsmlConfig::default(), cfg.clone(), 33).unwrap();
        let mut nodes = Vec::new();
        for _ in 0..4 {
            if let ClusterPlacement::Placed(h) =
                cluster.submit(LaunchSpec::at_percent_load(Service::Login, 15.0))
            {
                nodes.push(h.node);
            }
        }
        assert_eq!(nodes.len(), 4, "random placement still places on a healthy fleet");
        // Same seed, same draws: the shuffle is reproducible.
        let mut again =
            Cluster::try_new(3, raw_scheduler(), OsmlConfig::default(), cfg, 33).unwrap();
        let mut nodes_again = Vec::new();
        for _ in 0..4 {
            if let ClusterPlacement::Placed(h) =
                again.submit(LaunchSpec::at_percent_load(Service::Login, 15.0))
            {
                nodes_again.push(h.node);
            }
        }
        assert_eq!(nodes, nodes_again);
    }
}
