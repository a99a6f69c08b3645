//! Fault-injectable control plane between a cluster scheduler and its
//! nodes.
//!
//! PR 9's cluster drove its nodes through direct method calls — a perfect,
//! instantaneous, omniscient channel no real fleet has. This module puts a
//! typed message layer in between: [`NodeCommand`] / [`NodeReply`]
//! envelopes with per-node sequence numbers travel over a
//! [`ControlChannel`], which is either
//!
//! * a [`PerfectChannel`] — synchronous, reliable, in-order, and able to
//!   *prove* a dead peer at delivery time (a reliable transport
//!   distinguishes "connection refused" from silence, the way TCP RST
//!   does). This is the default and is bit-identical to the direct calls
//!   it replaces; or
//! * a seeded [`LossyChannel`] — every message independently drawn
//!   against a [`ChannelPlan`]'s drop / duplicate / delay probabilities
//!   through the same SplitMix64 decision hash the fault substrate uses,
//!   plus scripted [`PartitionWindow`]s that silently black-hole all
//!   traffic to and from a node. A lossy transport can never prove a peer
//!   dead — silence is ambiguous — so the cluster above falls back to
//!   heartbeat-timeout *suspicion*.
//!
//! Reordering arises from the delay draws: each copy of a message draws
//! its own delay, so a duplicated or retried message can overtake an
//! earlier one. Delivery within one instant is deterministic (stable
//! order by due time, then send order), so a fixed seed replays
//! bit-identically regardless of `OSML_JOBS`.
//!
//! The channel is transport only: it moves opaque payloads and reports
//! what it did to them ([`SendReport`]). Protocol concerns — retries,
//! dedup ([`SeqWindow`]), epoch fencing, suspicion — live with the
//! endpoints in `osml_core::cluster`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};

use crate::alloc::Allocation;
use crate::faults::decision;
use crate::substrate::AppId;

/// Decision-hash salts for the per-message fault draws. Disjoint from the
/// substrate fault salts (1–5) and the node-fault salts (101–102).
const SALT_DROP: u64 = 201;
const SALT_DUP: u64 = 202;
const SALT_DELAY: u64 = 203;
const SALT_DELAY_LEN: u64 = 204;
const SALT_DUP_DELAY: u64 = 205;

/// A scripted window `[start_s, end_s)` during which `node` is cut off
/// from the cluster entirely: every command to it and every reply from it
/// is silently dropped, in both directions, with no per-message fault
/// draw. The node itself keeps running — partitions sever the control
/// plane, not the machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// Node index the window isolates.
    pub node: usize,
    /// Window start, inclusive, in cluster-clock seconds.
    pub start_s: f64,
    /// Window end, exclusive.
    pub end_s: f64,
}

/// Stochastic per-message fault profile plus scripted partitions for a
/// [`LossyChannel`]. [`ChannelPlan::none`] selects the
/// [`PerfectChannel`] instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelPlan {
    /// Seed for the per-message decision draws.
    pub seed: u64,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a surviving message is delivered twice (the duplicate
    /// draws its own delay, so copies can reorder).
    pub duplicate_prob: f64,
    /// Probability a surviving message is delayed by 1..=`max_delay_s`
    /// whole seconds instead of arriving within the step it was sent.
    pub delay_prob: f64,
    /// Upper bound on the drawn delay, in seconds.
    pub max_delay_s: f64,
    /// Scripted total-isolation windows.
    pub partitions: Vec<PartitionWindow>,
}

impl ChannelPlan {
    /// The no-fault plan: selects the perfect, reliable channel.
    pub fn none() -> Self {
        ChannelPlan {
            seed: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            max_delay_s: 0.0,
            partitions: Vec::new(),
        }
    }

    /// A lossy profile keyed to a single loss rate: messages drop at
    /// `loss`, duplicate at `loss / 2`, and delay at `loss` for up to 3 s
    /// — the shape the fig23 sweep uses.
    pub fn lossy(seed: u64, loss: f64) -> Self {
        ChannelPlan {
            seed,
            drop_prob: loss,
            duplicate_prob: loss / 2.0,
            delay_prob: loss,
            max_delay_s: 3.0,
            partitions: Vec::new(),
        }
    }

    /// True when this plan injects nothing: no stochastic faults and no
    /// partitions, so the perfect channel serves it exactly.
    pub fn is_none(&self) -> bool {
        self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.delay_prob == 0.0
            && self.partitions.is_empty()
    }

    /// Whether `node` is inside a scripted partition window at `now_s`.
    pub fn partitioned(&self, node: usize, now_s: f64) -> bool {
        self.partitions.iter().any(|w| w.node == node && now_s >= w.start_s && now_s < w.end_s)
    }
}

/// A command the cluster sends to one node agent. Generic over the launch
/// payload `S` (the workload `LaunchSpec` lives above this crate).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeCommand<S> {
    /// Place a service replica at `epoch`. The node refuses (fences) any
    /// epoch not strictly newer than the highest it has seen for `id`.
    Launch {
        /// Cluster-wide service id.
        id: u64,
        /// Placement epoch of this attempt; each attempt gets a fresh one.
        epoch: u64,
        /// Launch payload.
        spec: S,
    },
    /// Tear down the replica of `id` at exactly `epoch`. Epoch-exact so a
    /// delayed teardown of an old replica can never kill a newer one.
    Teardown {
        /// Cluster-wide service id.
        id: u64,
        /// Epoch of the replica to remove.
        epoch: u64,
    },
    /// Heartbeat probe; answered with [`NodeReply::Pong`].
    Ping,
}

/// A reply a node agent sends back to the cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeReply {
    /// Launch succeeded: the replica of `id` at `epoch` runs as `app`.
    Launched {
        /// Cluster-wide service id.
        id: u64,
        /// Epoch the replica carries.
        epoch: u64,
        /// Node-local process handle.
        app: AppId,
        /// Allocation after admission.
        post: Allocation,
    },
    /// Launch failed: the node could not start the replica, or its
    /// controller did not admit it.
    LaunchFailed {
        /// Cluster-wide service id.
        id: u64,
        /// Epoch of the failed attempt.
        epoch: u64,
    },
    /// Command refused: `epoch` is not newer than the fence for `id`.
    Fenced {
        /// Cluster-wide service id.
        id: u64,
        /// The stale epoch that was refused.
        epoch: u64,
    },
    /// Teardown acknowledged (idempotent: also sent when no matching
    /// replica existed). `removed` says whether a process actually died.
    TornDown {
        /// Cluster-wide service id.
        id: u64,
        /// Epoch the teardown targeted.
        epoch: u64,
        /// Whether a replica was actually removed.
        removed: bool,
    },
    /// Heartbeat answer carrying the node's self-reported state.
    Pong {
        /// Replying node.
        node: usize,
        /// Cluster-clock instant the snapshot was taken (the ping's
        /// delivery time). A delayed pong keeps its original stamp, so
        /// receivers can discard snapshots superseded by fresher ones.
        at_s: f64,
        /// Self-measured capacity factor (degraded nodes report < 1).
        capacity: f64,
        /// Resident replicas as `(id, app, epoch)`, in arrival order —
        /// the list the cluster reconciles against on every fresh pong.
        residents: Vec<(u64, AppId, u64)>,
    },
    /// Transport-level verdict from a *reliable* channel: the peer is
    /// provably dead (connection refused). A lossy channel never sends
    /// this — silence there is ambiguous.
    Unreachable {
        /// The dead node.
        node: usize,
    },
}

/// What the transport did to one `send` — the caller logs world facts
/// (message dropped / duplicated) from this, keeping the channel free of
/// any logging dependency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendReport {
    /// Message was silently dropped by a stochastic draw.
    pub dropped: bool,
    /// Message was dropped because the link is inside a partition window
    /// (reported separately so callers can avoid per-message log spam —
    /// the window itself is already a logged fact).
    pub partitioned: bool,
    /// An extra copy was queued.
    pub duplicated: bool,
    /// The original copy was delayed past its send instant.
    pub delayed: bool,
}

/// Cumulative transport counters (all zero for a perfect channel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Messages accepted for transmission.
    pub sent: u64,
    /// Stochastic drops.
    pub dropped: u64,
    /// Partition-window drops (send- or delivery-time).
    pub partitioned: u64,
    /// Extra copies queued.
    pub duplicated: u64,
    /// Messages delayed past their send instant.
    pub delayed: u64,
}

/// One in-flight message on a cluster↔node link.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// The node whose link this message traverses (destination for
    /// commands, origin for replies).
    pub link: usize,
    /// Per-node sequence number; retries of one logical message reuse it
    /// so the receiver's [`SeqWindow`] can dedup.
    pub seq: u64,
    /// Payload.
    pub msg: M,
}

/// A one-directional message transport between the cluster and its nodes.
/// Implementations must be deterministic: same construction, same call
/// sequence, same deliveries.
pub trait ControlChannel<M> {
    /// Queues `msg` on `link` at `now_s`; reports what happened to it.
    fn send(&mut self, link: usize, seq: u64, now_s: f64, msg: M) -> SendReport;
    /// Drains every message due on `link` at `now_s`, in deterministic
    /// order (due time, then send order).
    fn deliver(&mut self, link: usize, now_s: f64) -> Vec<Envelope<M>>;
    /// Whether this transport proves a dead peer at delivery time
    /// (connection refused) instead of timing out.
    fn detects_dead_peer(&self) -> bool;
    /// Cumulative fault counters.
    fn stats(&self) -> ChannelStats;
}

/// The default transport: reliable, in-order, delivered within the same
/// instant. Bit-identical to the direct method calls it replaced, and —
/// like any reliable connection-oriented transport — able to report a
/// dead peer synchronously.
#[derive(Debug, Default)]
pub struct PerfectChannel<M> {
    queues: BTreeMap<usize, VecDeque<(u64, M)>>,
    stats: ChannelStats,
}

impl<M> PerfectChannel<M> {
    /// An empty perfect channel.
    pub fn new() -> Self {
        PerfectChannel { queues: BTreeMap::new(), stats: ChannelStats::default() }
    }
}

impl<M> ControlChannel<M> for PerfectChannel<M> {
    fn send(&mut self, link: usize, seq: u64, _now_s: f64, msg: M) -> SendReport {
        self.stats.sent += 1;
        self.queues.entry(link).or_default().push_back((seq, msg));
        SendReport::default()
    }

    fn deliver(&mut self, link: usize, _now_s: f64) -> Vec<Envelope<M>> {
        match self.queues.get_mut(&link) {
            Some(q) => q.drain(..).map(|(seq, msg)| Envelope { link, seq, msg }).collect(),
            None => Vec::new(),
        }
    }

    fn detects_dead_peer(&self) -> bool {
        true
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }
}

/// One queued lossy-channel message.
#[derive(Debug, Clone)]
struct Queued<M> {
    due_s: f64,
    order: u64,
    seq: u64,
    msg: M,
}

/// A seeded unreliable transport. Every message draws drop / duplicate /
/// delay decisions from the SplitMix64 hash keyed by `(plan.seed,
/// message index, salt)`, so the fault trace depends only on the plan and
/// the send sequence — never on wall time or thread scheduling.
#[derive(Debug)]
pub struct LossyChannel<M> {
    plan: ChannelPlan,
    /// Monotone message index: the decision-hash counter.
    index: u64,
    /// In-flight messages of each link, in delivery order: by due time,
    /// then send order, then the order they were queued in. A delivery reads
    /// and moves its own link's messages only, so a fleet's channel work is
    /// what is due, not what is in flight.
    links: Vec<Vec<Queued<M>>>,
    stats: ChannelStats,
}

impl<M: Clone> LossyChannel<M> {
    /// A lossy channel drawing against `plan`.
    pub fn new(plan: ChannelPlan) -> Self {
        LossyChannel { plan, index: 0, links: Vec::new(), stats: ChannelStats::default() }
    }

    fn enqueue(&mut self, due_s: f64, link: usize, seq: u64, msg: M) {
        let order = self.index;
        if link >= self.links.len() {
            self.links.resize_with(link + 1, Vec::new);
        }
        let queue = &mut self.links[link];
        let after = queue.partition_point(|q| (q.due_s, q.order) <= (due_s, order));
        queue.insert(after, Queued { due_s, order, seq, msg });
    }
}

impl<M: Clone> ControlChannel<M> for LossyChannel<M> {
    fn send(&mut self, link: usize, seq: u64, now_s: f64, msg: M) -> SendReport {
        self.stats.sent += 1;
        let i = self.index;
        self.index += 1;
        let mut report = SendReport::default();
        if self.plan.partitioned(link, now_s) {
            self.stats.partitioned += 1;
            report.partitioned = true;
            return report;
        }
        if decision(self.plan.seed, i, SALT_DROP) < self.plan.drop_prob {
            self.stats.dropped += 1;
            report.dropped = true;
            return report;
        }
        let delay = if decision(self.plan.seed, i, SALT_DELAY) < self.plan.delay_prob {
            let span = self.plan.max_delay_s.max(1.0);
            1.0 + (decision(self.plan.seed, i, SALT_DELAY_LEN) * span).floor().min(span - 1.0)
        } else {
            0.0
        };
        if delay > 0.0 {
            self.stats.delayed += 1;
            report.delayed = true;
        }
        if decision(self.plan.seed, i, SALT_DUP) < self.plan.duplicate_prob {
            self.stats.duplicated += 1;
            report.duplicated = true;
            // The duplicate draws its own delay so copies can reorder.
            let span = self.plan.max_delay_s.max(1.0);
            let dup_delay = (decision(self.plan.seed, i, SALT_DUP_DELAY) * span).floor();
            self.enqueue(now_s + dup_delay, link, seq, msg.clone());
        }
        self.enqueue(now_s + delay, link, seq, msg);
        report
    }

    fn deliver(&mut self, link: usize, now_s: f64) -> Vec<Envelope<M>> {
        let Some(queue) = self.links.get_mut(link) else { return Vec::new() };
        let due = queue.partition_point(|q| q.due_s <= now_s);
        if due == 0 {
            return Vec::new();
        }
        // Messages in flight when a window opens are swallowed too.
        if self.plan.partitioned(link, now_s) {
            self.stats.partitioned += due as u64;
            queue.drain(..due);
            return Vec::new();
        }
        queue.drain(..due).map(|q| Envelope { link, seq: q.seq, msg: q.msg }).collect()
    }

    fn detects_dead_peer(&self) -> bool {
        false
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }
}

/// Either transport behind one concrete type, so the cluster can hold it
/// without boxing. Construct from a [`ChannelPlan`] via
/// [`Channel::from_plan`].
#[derive(Debug)]
pub enum Channel<M> {
    /// Reliable default.
    Perfect(PerfectChannel<M>),
    /// Seeded lossy transport.
    Lossy(LossyChannel<M>),
}

impl<M: Clone> Channel<M> {
    /// Perfect when the plan injects nothing, lossy otherwise. `salt` is
    /// folded into the lossy seed so the command and reply directions
    /// draw independent fault streams from one plan.
    pub fn from_plan(plan: &ChannelPlan, salt: u64) -> Self {
        if plan.is_none() {
            Channel::Perfect(PerfectChannel::new())
        } else {
            let mut plan = plan.clone();
            plan.seed ^= salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Channel::Lossy(LossyChannel::new(plan))
        }
    }
}

impl<M: Clone> ControlChannel<M> for Channel<M> {
    fn send(&mut self, link: usize, seq: u64, now_s: f64, msg: M) -> SendReport {
        match self {
            Channel::Perfect(c) => c.send(link, seq, now_s, msg),
            Channel::Lossy(c) => c.send(link, seq, now_s, msg),
        }
    }

    fn deliver(&mut self, link: usize, now_s: f64) -> Vec<Envelope<M>> {
        match self {
            Channel::Perfect(c) => c.deliver(link, now_s),
            Channel::Lossy(c) => c.deliver(link, now_s),
        }
    }

    fn detects_dead_peer(&self) -> bool {
        match self {
            Channel::Perfect(c) => ControlChannel::<M>::detects_dead_peer(c),
            Channel::Lossy(c) => ControlChannel::<M>::detects_dead_peer(c),
        }
    }

    fn stats(&self) -> ChannelStats {
        match self {
            Channel::Perfect(c) => ControlChannel::<M>::stats(c),
            Channel::Lossy(c) => ControlChannel::<M>::stats(c),
        }
    }
}

/// Receiver-side duplicate suppression over per-node sequence numbers.
/// Retries of one logical message reuse their seq, so "seen before" means
/// "duplicate delivery" — the receiver re-acks from its reply cache
/// instead of executing twice. The window is pruned from the bottom once
/// it grows past `PRUNE_AT`, far beyond any delay the channel can inject.
#[derive(Debug, Default)]
pub struct SeqWindow {
    seen: BTreeSet<u64>,
}

impl SeqWindow {
    const PRUNE_AT: usize = 8192;

    /// An empty window.
    pub fn new() -> Self {
        SeqWindow::default()
    }

    /// Records `seq`; returns `true` the first time it is seen and
    /// `false` for every duplicate.
    pub fn fresh(&mut self, seq: u64) -> bool {
        let fresh = self.seen.insert(seq);
        if self.seen.len() > Self::PRUNE_AT {
            let cut = *self.seen.iter().nth(Self::PRUNE_AT / 2).expect("window is non-empty");
            self.seen = self.seen.split_off(&cut);
        }
        fresh
    }

    /// Drops all state — a crashed node loses its dedup memory.
    pub fn clear(&mut self) {
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping_plan(loss: f64) -> ChannelPlan {
        ChannelPlan::lossy(7, loss)
    }

    /// The lossy channel as it was before it had a queue per link: one
    /// queue for the whole fleet, drained and rebuilt by every delivery, the
    /// due messages of the link sorted out of it. Kept as the reference the
    /// per-link channel is held to, call by call.
    struct WholeQueueChannel<M> {
        plan: ChannelPlan,
        index: u64,
        queue: Vec<(usize, Queued<M>)>,
        stats: ChannelStats,
    }

    impl<M: Clone> WholeQueueChannel<M> {
        fn new(plan: ChannelPlan) -> Self {
            WholeQueueChannel { plan, index: 0, queue: Vec::new(), stats: ChannelStats::default() }
        }

        fn enqueue(&mut self, due_s: f64, link: usize, seq: u64, msg: M) {
            self.queue.push((link, Queued { due_s, order: self.index, seq, msg }));
        }

        fn send(&mut self, link: usize, seq: u64, now_s: f64, msg: M) -> SendReport {
            self.stats.sent += 1;
            let i = self.index;
            self.index += 1;
            let mut report = SendReport::default();
            if self.plan.partitioned(link, now_s) {
                self.stats.partitioned += 1;
                report.partitioned = true;
                return report;
            }
            if decision(self.plan.seed, i, SALT_DROP) < self.plan.drop_prob {
                self.stats.dropped += 1;
                report.dropped = true;
                return report;
            }
            let delay = if decision(self.plan.seed, i, SALT_DELAY) < self.plan.delay_prob {
                let span = self.plan.max_delay_s.max(1.0);
                1.0 + (decision(self.plan.seed, i, SALT_DELAY_LEN) * span).floor().min(span - 1.0)
            } else {
                0.0
            };
            if delay > 0.0 {
                self.stats.delayed += 1;
                report.delayed = true;
            }
            if decision(self.plan.seed, i, SALT_DUP) < self.plan.duplicate_prob {
                self.stats.duplicated += 1;
                report.duplicated = true;
                let span = self.plan.max_delay_s.max(1.0);
                let dup_delay = (decision(self.plan.seed, i, SALT_DUP_DELAY) * span).floor();
                self.enqueue(now_s + dup_delay, link, seq, msg.clone());
            }
            self.enqueue(now_s + delay, link, seq, msg);
            report
        }

        fn deliver(&mut self, link: usize, now_s: f64) -> Vec<Envelope<M>> {
            let mut due: Vec<Queued<M>> = Vec::new();
            let mut rest = Vec::with_capacity(self.queue.len());
            for (on, q) in self.queue.drain(..) {
                if on == link && q.due_s <= now_s {
                    due.push(q);
                } else {
                    rest.push((on, q));
                }
            }
            self.queue = rest;
            due.sort_by(|a, b| {
                a.due_s
                    .partial_cmp(&b.due_s)
                    .expect("due times are finite")
                    .then(a.order.cmp(&b.order))
            });
            let mut out = Vec::with_capacity(due.len());
            for q in due {
                if self.plan.partitioned(link, now_s) {
                    self.stats.partitioned += 1;
                    continue;
                }
                out.push(Envelope { link, seq: q.seq, msg: q.msg });
            }
            out
        }
    }

    #[test]
    fn per_link_queues_deliver_what_the_whole_queue_did_call_by_call() {
        let links = 5u64;
        let plans = |seed: u64| {
            let windows = vec![
                PartitionWindow { node: 1, start_s: 20.0, end_s: 45.0 },
                PartitionWindow { node: 3, start_s: 30.0, end_s: 31.0 },
                PartitionWindow { node: 1, start_s: 80.0, end_s: 120.0 },
            ];
            [
                ChannelPlan::lossy(seed, 0.3),
                ChannelPlan { partitions: windows.clone(), ..ChannelPlan::lossy(seed, 0.1) },
                // Every message twice, most of them late by up to 6 s: many
                // equal due times, the tie the send order breaks.
                ChannelPlan {
                    seed,
                    drop_prob: 0.0,
                    duplicate_prob: 1.0,
                    delay_prob: 0.7,
                    max_delay_s: 6.0,
                    partitions: windows,
                },
                ChannelPlan { delay_prob: 1.0, max_delay_s: 0.0, ..ChannelPlan::lossy(seed, 0.05) },
            ]
        };
        let (mut delivered, mut swallowed_in_flight) = (0usize, 0u64);
        for seed in 0..24u64 {
            for plan in plans(seed) {
                let mut new: LossyChannel<u64> = LossyChannel::new(plan.clone());
                let mut old: WholeQueueChannel<u64> = WholeQueueChannel::new(plan);
                let mut now = 0.0f64;
                for call in 0..600u64 {
                    // The script draws from the decision hash too, on salts
                    // of its own.
                    let draw =
                        |salt, below: u64| (decision(seed, call, salt) * below as f64) as u64;
                    let link = draw(1, links) as usize;
                    match draw(2, 8) {
                        0..=3 => {
                            let seq = draw(3, 50); // retries reuse a seq
                            assert_eq!(
                                new.send(link, seq, now, call),
                                old.send(link, seq, now, call),
                                "seed {seed} call {call}"
                            );
                        }
                        4..=6 => {
                            let before = old.stats.partitioned;
                            let (got, want) = (new.deliver(link, now), old.deliver(link, now));
                            assert_eq!(got, want, "seed {seed} call {call}");
                            delivered += got.len();
                            swallowed_in_flight += old.stats.partitioned - before;
                        }
                        // The clock is whole seconds in the cluster; here it
                        // also stops between them.
                        _ => now += [0.0, 0.5, 1.0, 1.0, 3.0][draw(4, 5) as usize],
                    }
                    assert_eq!(new.stats(), old.stats, "seed {seed} call {call}");
                }
                for link in 0..links as usize + 1 {
                    assert_eq!(new.deliver(link, 1e9), old.deliver(link, 1e9), "seed {seed} flush");
                }
                assert_eq!(new.stats(), old.stats);
                assert!(new.links.iter().all(Vec::is_empty) && old.queue.is_empty());
            }
        }
        assert!(
            delivered > 10_000 && swallowed_in_flight > 100,
            "{delivered} {swallowed_in_flight}"
        );
    }

    #[test]
    fn a_delivery_with_nothing_due_allocates_nothing_and_touches_no_other_link() {
        let mut plan = ping_plan(0.0);
        plan.delay_prob = 1.0; // every message is 1–3 s late
        plan.partitions = vec![PartitionWindow { node: 2, start_s: 1.0, end_s: 10.0 }];
        let mut ch: LossyChannel<u32> = LossyChannel::new(plan);
        for link in [0, 2, 2] {
            assert!(ch.send(link, 0, 0.0, 7).delayed);
        }
        let in_flight = |ch: &LossyChannel<u32>| {
            ch.links.iter().map(|q| (q.len(), q.as_ptr() as usize)).collect::<Vec<_>>()
        };
        let before = in_flight(&ch);
        // Links 0 and 2 hold only late messages, link 1 none, link 9 never
        // existed.
        for link in [0, 1, 2, 9] {
            let got = ch.deliver(link, 0.0);
            assert!(got.is_empty() && got.capacity() == 0, "link {link}");
        }
        assert_eq!(in_flight(&ch), before, "no queue was moved, grown or drained");
        // Link 2's window opened while its two messages were in flight: they
        // are swallowed when they come due, and counted then.
        assert_eq!(ch.stats().partitioned, 0);
        let got = ch.deliver(2, 5.0);
        assert!(got.is_empty() && got.capacity() == 0);
        assert_eq!(ch.stats().partitioned, 2);
        assert_eq!(in_flight(&ch)[0], before[0], "link 0 still holds its message");
        assert_eq!(ch.deliver(0, 5.0).len(), 1);
    }

    #[test]
    fn perfect_channel_delivers_everything_in_order_same_instant() {
        let mut ch: PerfectChannel<u32> = PerfectChannel::new();
        for (seq, msg) in [(0u64, 10u32), (1, 11), (2, 12)] {
            assert_eq!(ch.send(3, seq, 5.0, msg), SendReport::default());
        }
        let got = ch.deliver(3, 5.0);
        assert_eq!(
            got.iter().map(|e| (e.seq, e.msg)).collect::<Vec<_>>(),
            vec![(0, 10), (1, 11), (2, 12)]
        );
        assert!(ch.deliver(3, 5.0).is_empty(), "drained");
        assert!(ch.deliver(9, 5.0).is_empty(), "other links untouched");
        assert_eq!(ch.stats().sent, 3);
        assert_eq!(ch.stats().dropped, 0);
    }

    #[test]
    fn lossy_channel_is_deterministic_for_a_fixed_seed() {
        let runs: Vec<(ChannelStats, Vec<(u64, u32)>)> = (0..2)
            .map(|_| {
                let mut ch: LossyChannel<u32> = LossyChannel::new(ping_plan(0.3));
                let mut got = Vec::new();
                for step in 0..50u64 {
                    let now = step as f64;
                    ch.send(0, step, now, step as u32);
                    got.extend(ch.deliver(0, now).into_iter().map(|e| (e.seq, e.msg)));
                }
                // Flush stragglers.
                got.extend(ch.deliver(0, 1000.0).into_iter().map(|e| (e.seq, e.msg)));
                (ch.stats(), got)
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same seed, same trace");
        let (stats, got) = &runs[0];
        assert!(stats.dropped > 0, "30% loss over 50 sends must drop something");
        assert_eq!(
            got.len() as u64 + stats.dropped,
            stats.sent + stats.duplicated,
            "every non-dropped copy is delivered exactly once"
        );
    }

    #[test]
    fn partition_window_black_holes_both_fresh_and_in_flight_messages() {
        let mut plan = ping_plan(0.0);
        plan.delay_prob = 0.0;
        plan.partitions = vec![PartitionWindow { node: 1, start_s: 10.0, end_s: 20.0 }];
        let mut ch: LossyChannel<u32> = LossyChannel::new(plan);
        assert!(!ch.send(1, 0, 5.0, 1).partitioned, "before the window: accepted");
        assert_eq!(ch.deliver(1, 5.0).len(), 1);
        assert!(ch.send(1, 1, 10.0, 2).partitioned, "inside the window: swallowed");
        assert!(ch.deliver(1, 10.0).is_empty());
        assert!(!ch.send(0, 2, 10.0, 3).partitioned, "other nodes unaffected");
        assert_eq!(ch.deliver(0, 10.0).len(), 1);
        assert!(!ch.send(1, 3, 20.0, 4).partitioned, "window is half-open: end is out");
        assert_eq!(ch.deliver(1, 20.0).len(), 1);
        assert_eq!(ch.stats().partitioned, 1);
    }

    #[test]
    fn duplicates_reorder_and_seq_window_suppresses_them() {
        let mut plan = ping_plan(0.0);
        plan.drop_prob = 0.0;
        plan.duplicate_prob = 1.0;
        plan.delay_prob = 0.0;
        let mut ch: LossyChannel<u32> = LossyChannel::new(plan);
        for seq in 0..20u64 {
            let r = ch.send(0, seq, 0.0, seq as u32);
            assert!(r.duplicated);
        }
        let got = ch.deliver(0, 100.0);
        assert_eq!(got.len(), 40, "every copy arrives");
        let mut win = SeqWindow::new();
        let fresh: Vec<u64> = got.iter().filter(|e| win.fresh(e.seq)).map(|e| e.seq).collect();
        assert_eq!(fresh.len(), 20, "dedup keeps exactly one copy per seq");
        let mut sorted = fresh.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn channel_from_plan_selects_perfect_for_the_none_plan() {
        let ch: Channel<u32> = Channel::from_plan(&ChannelPlan::none(), 0);
        assert!(matches!(ch, Channel::Perfect(_)));
        assert!(ChannelStats::default() == ControlChannel::<u32>::stats(&ch));
        let ch: Channel<u32> = Channel::from_plan(&ChannelPlan::lossy(1, 0.1), 0);
        assert!(matches!(ch, Channel::Lossy(_)));
        assert!(!ControlChannel::<u32>::detects_dead_peer(&ch));
    }

    #[test]
    fn command_and_reply_salts_draw_independent_fault_streams() {
        let plan = ping_plan(0.5);
        let mut a: Channel<u32> = Channel::from_plan(&plan, 0x0C);
        let mut b: Channel<u32> = Channel::from_plan(&plan, 0x0D);
        let fate = |ch: &mut Channel<u32>| {
            (0..64u64).map(|s| ch.send(0, s, 0.0, 0).dropped).collect::<Vec<bool>>()
        };
        assert_ne!(fate(&mut a), fate(&mut b), "different salts, different streams");
    }
}
