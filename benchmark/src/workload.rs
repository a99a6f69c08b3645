//! What every workload hands back from one round, and the trait the runner
//! drives them through.

use crate::stats::Fnv;
use crate::traced::{Mode, StepClock, PHASES};
use osml_core::UnifiedLog;
use osml_platform::Substrate;

/// The deterministic work counts of one round. They repeat exactly for a
/// seed, so they — not seconds — are what a later change is gated on: every
/// round of a run, and the traced round, must produce the same `Counts`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Steps executed.
    pub steps: u64,
    /// Ops executed (the numerator of `ops_per_s`).
    pub ops: u64,
    /// Simulated outcomes demanded (the denominator of `failed_ops_share`;
    /// equals `ops` except on `cluster-faults`, whose op is a node-step).
    pub demanded: u64,
    /// Demanded outcomes that were not delivered within QoS.
    pub failed_ops: u64,
    /// Scheduling actions committed.
    pub actions: u64,
    /// Model forward passes (`Scheduler::decision_count`).
    pub decisions: u64,
    /// Unified-log events emitted.
    pub log_events: u64,
    /// Bytes of the unified log's JSONL encoding.
    pub log_bytes: u64,
    /// Cluster: node-death failovers committed.
    pub failovers: u64,
    /// Cluster: QoS migrations committed.
    pub migrations: u64,
    /// Cluster: suspicions raised.
    pub suspicions: u64,
    /// Cluster: suspicions against live nodes.
    pub false_suspicions: u64,
    /// Cluster: stale replicas destroyed by fencing.
    pub fenced_ghosts: u64,
    /// Cluster: replicas matching no tracked placement after the run and a
    /// quiet settling period (0 when fencing is complete).
    pub ghosts_after_settle: u64,
    /// Cluster: simulated command-retry backoff, microseconds.
    pub command_backoff_us: u64,
    /// Cluster: envelopes sent, both directions.
    pub envelopes: u64,
    /// Cluster: envelopes dropped at random.
    pub envelopes_dropped: u64,
    /// Cluster: envelopes duplicated in flight.
    pub envelopes_duplicated: u64,
    /// Cluster: envelopes swallowed by partition windows.
    pub envelopes_partitioned: u64,
}

/// One round: its timings, its counts, its fingerprint, and whatever
/// correctness check it failed.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host nanoseconds per step.
    pub step_ns: Vec<u64>,
    /// Host nanoseconds per [`crate::traced::Phase`], summed over steps.
    pub phase_ns: [u64; PHASES],
    /// Allocation events inside steps (`Mode::Allocs` rounds only).
    pub allocs: u64,
    /// Bytes requested inside steps (`Mode::Allocs` rounds only).
    pub alloc_bytes: u64,
    /// Deterministic work counts.
    pub counts: Counts,
    /// FNV-1a of the round's unified-log JSONL and final layouts.
    pub digest: u64,
    /// Failed correctness checks (empty on a correct program).
    pub errors: Vec<String>,
}

impl Round {
    /// Moves a finished clock's timings into the round.
    pub fn with_timings(self, clock: StepClock<'_>) -> Round {
        Round {
            step_ns: clock.step_ns,
            phase_ns: clock.phase_ns,
            allocs: clock.allocs,
            alloc_bytes: clock.alloc_bytes,
            ..self
        }
    }

    /// Host nanoseconds over all steps.
    pub fn wall_ns(&self) -> u64 {
        self.step_ns.iter().sum()
    }

    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// One benchmark workload: set-up (model training, input generation, world
/// build, warm-up) and bit-identical measured rounds.
pub trait Workload: Sized {
    /// The workload's name in `BENCHMARK.json`.
    const NAME: &'static str;

    /// Everything before the first measured step. `seed` feeds every
    /// generated input; `smoke` shrinks the rounds for tests.
    fn setup(seed: u64, smoke: bool) -> Self;

    /// Runs one round of identical work on a fresh world, observed in
    /// `mode`.
    fn round(&mut self, mode: Mode<'_>) -> Round;
}

/// The JSONL encoding of the events a log gained after its first `skip`
/// (world-build and warm-up) events: what the measured steps emitted.
pub fn measured_jsonl(log: &UnifiedLog, skip: usize) -> String {
    UnifiedLog::from_events(log.events()[skip..].to_vec()).to_jsonl()
}

/// Folds a machine's final layout — every placed service and what it
/// holds — into a round's digest.
pub fn digest_layout<S: Substrate>(digest: &mut Fnv, server: &S) {
    for id in server.apps() {
        digest.write_u64(id.0);
        digest.write(format!("{:?}", server.allocation(id)).as_bytes());
    }
}
