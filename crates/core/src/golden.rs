//! The golden-thread unified event log: one typed, versioned stream with
//! three distinct layers, sufficient for deterministic full-state replay.
//!
//! * **World facts** ([`WorldFact`]) — everything that would have happened
//!   regardless of which controller was running: scripted arrivals and
//!   departures coming due, processes launched/removed by the driver, load
//!   changes, injected platform faults, the passage of monitoring time and
//!   controller crashes.
//! * **System decisions** ([`Decision`]) — what the controller did about
//!   it: every allocation change (with model provenance and full pre/post
//!   [`Allocation`]), admission-queue transitions, brownout entry/exit,
//!   shave/shed bookkeeping, watchdog transitions and recovery.
//! * **Operational telemetry** ([`TelemetryNote`]) — plumbing observations
//!   (retries, fault sightings). Explicitly **excluded from replay**: the
//!   `replay` fold ignores this layer entirely, and stripping it from a
//!   log must not change the replayed state (pinned by tests).
//!
//! The sufficiency invariant: `replay` reconstructs the scheduler's
//! observable state — final layouts, admission queue, shed stack, shave
//! ledger, brownout flag, tick and action counters — from the world-fact +
//! decision layers alone, bit-identical to the live scheduler that emitted
//! them. The serialized form is a versioned JSONL stream whose reader
//! tolerates a torn tail (only the final line can be damaged by a crash,
//! because every event is flushed before the next is appended), which is
//! what makes the attached journal the write-ahead record crash recovery
//! replays from.

use crate::admission::{QueuedEntry, ShaveRecord, ShedEntry};
use osml_platform::{Allocation, InjectedFault, RejectReason, SloClass};
use osml_workloads::Service;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;

/// Format version written as the JSONL header; bumped on breaking schema
/// changes so a reader never misinterprets a foreign log.
pub(crate) const UNIFIED_LOG_VERSION: u32 = 1;

/// Why the driver launched a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LaunchCause {
    /// A scripted arrival (exogenous: part of the offered world).
    Scripted,
    /// An admission retry of a queued or shed ticket (endogenous: a
    /// consequence of controller decisions, re-derived on A/B replay).
    AdmissionRetry,
    /// The cluster tier re-placed the service on another node — after a
    /// node death or a QoS-violation migration (endogenous).
    Failover,
    /// A falsely-suspected node healed still hosting the replica at its
    /// current epoch, and the cluster re-adopted it instead of leaving the
    /// service evicted (endogenous).
    Readopted,
}

/// Why the driver removed a process from the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RemovalCause {
    /// Its scripted lifetime ended (exogenous).
    ScriptedDeparture,
    /// The arrival was deferred into the admission queue and the process
    /// withdrawn until its ticket is polled back (endogenous).
    DeferredWithdrawal,
    /// The arrival was rejected terminally (endogenous).
    RejectedWithdrawal,
    /// The controller shed the service during brownout (endogenous).
    ShedWithdrawal,
    /// Its node died with it still resident; a failover re-placement, if
    /// any, follows as its own [`WorldFact::Launched`] (exogenous cause,
    /// endogenous consequence).
    NodeFailure,
    /// The cluster tier tore down the source replica after the
    /// destination launch of a migration committed (endogenous).
    Migrated,
    /// A stale-epoch ghost replica (left behind by a partition, a lost
    /// ack or a duplicated launch) was fenced off and destroyed. The
    /// authoritative replica of the same service is unaffected, so the
    /// replay fold treats this as a no-op on layouts (endogenous).
    Fenced,
}

/// Layer 1: a fact about the world. World facts are controller-independent
/// where marked exogenous; endogenous launch/remove facts record what the
/// driver's fixed policy did in response to decisions, so the fold can
/// track substrate layouts exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorldFact {
    /// A scripted arrival's time came due (whatever then happened to it).
    ArrivalDue {
        /// Stable identity of the scripted workload (script index).
        workload: u64,
        /// The service.
        service: Service,
        /// SLO class it is submitted under.
        class: SloClass,
        /// Thread count.
        threads: usize,
        /// Offered load at arrival, requests/s.
        offered_rps: f64,
    },
    /// A scripted lifetime ended (whether the workload was live, waiting
    /// or already gone).
    DepartureDue {
        /// Stable identity of the scripted workload (script index).
        workload: u64,
    },
    /// The driver launched a process with its bootstrap allocation.
    Launched {
        /// Stable identity of the scripted workload (script index) this
        /// process realizes. Binds the envelope's app id to its workload so
        /// later per-app facts (load changes) can be attributed when
        /// reconstructing the world script from the log.
        workload: u64,
        /// The service.
        service: Service,
        /// SLO class.
        class: SloClass,
        /// Thread count.
        threads: usize,
        /// Offered load at launch, requests/s.
        offered_rps: f64,
        /// The bootstrap allocation installed at launch.
        bootstrap: Allocation,
        /// Scripted arrival or admission retry.
        cause: LaunchCause,
    },
    /// The driver removed a process from the substrate.
    Removed {
        /// Why it was removed.
        cause: RemovalCause,
    },
    /// The driver changed a live service's offered load.
    LoadChanged {
        /// New offered load, requests/s.
        offered_rps: f64,
    },
    /// One monitoring interval elapsed (the scheduler's tick heartbeat).
    TickElapsed,
    /// The platform injected a fault (drained from the chaos substrate's
    /// record stream — the fault schedule is part of the world).
    FaultInjected {
        /// Monotone faultable-call index that drew this fault.
        call: u64,
        /// What was injected.
        fault: InjectedFault,
    },
    /// The controller process died and was warm-restarted.
    ControllerCrashed,
    /// A cluster node died (crash, outage window or churn); events with
    /// `app` ids record what became of its residents.
    NodeFailed {
        /// The dead node's index.
        node: usize,
    },
    /// A previously failed cluster node rejoined the fleet, empty.
    NodeRecovered {
        /// The rejoining node's index.
        node: usize,
    },
    /// The control channel dropped a message on a node's link (stochastic
    /// loss; partition-window drops are covered by the window facts).
    MessageDropped {
        /// Node whose link lost the message.
        node: usize,
        /// Per-node sequence number of the lost message.
        seq: u64,
    },
    /// The control channel queued an extra copy of a message.
    MessageDuplicated {
        /// Node whose link duplicated the message.
        node: usize,
        /// Per-node sequence number of the duplicated message.
        seq: u64,
    },
    /// A scripted partition window opened: the node is cut off from the
    /// cluster in both directions (the node itself keeps running).
    PartitionStarted {
        /// The isolated node.
        node: usize,
    },
    /// A partition window closed; traffic to and from the node flows again.
    PartitionHealed {
        /// The reconnected node.
        node: usize,
    },
    /// The cluster stopped hearing heartbeats from a node past the
    /// timeout and now *suspects* it dead. Suspicion is belief, not
    /// ground truth — the node may merely be partitioned.
    NodeSuspected {
        /// The suspected node.
        node: usize,
    },
    /// A suspected node answered a heartbeat again; suspicion is lifted
    /// and its resident replicas are reconciled by epoch.
    NodeSuspicionCleared {
        /// The cleared node.
        node: usize,
    },
}

/// Which component decided a [`Decision::Alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Provenance {
    /// Model-A OAA/RCliff prediction drove the action.
    ModelA,
    /// Model-B B-point matching drove the action.
    ModelB,
    /// Model-B′ slowdown pricing drove the action.
    ModelBPrime,
    /// Model-C's DQN chose the action.
    ModelC,
    /// The heuristic fallback (QoS watchdog quarantine) drove the action.
    Heuristic,
    /// The controller's own machinery (rollback, transaction restore,
    /// repack, repair, migration) drove the action.
    Controller,
}

/// What kind of move a [`Decision::Alloc`] made.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionKind {
    /// Initial placement of a newly arrived service.
    Place,
    /// A growth grant (Algorithm 2 or the heuristic fallback).
    Grant,
    /// A neighbour deprived of resources (Algorithm 1 / Model-B, or a
    /// brownout shave priced by Model-B′).
    Deprive,
    /// Surplus reclaimed (Algorithm 3).
    Reclaim,
    /// LLC sharing enabled with a neighbour (Algorithm 4).
    Share,
    /// A pending action withdrawn (reclaim broke QoS / growth was wasted).
    Rollback,
    /// A shaved service got its pre-brownout allocation back
    /// (`counts_as_action`), or a transaction abort restored a service to
    /// its pre-move layout (not an action).
    Restore,
    /// MBA throttles were repartitioned.
    BandwidthRepartitioned,
    /// An LLC way-mask repack slid a neighbour to keep free ways contiguous.
    Repack,
    /// Warm-restart reconciliation repaired a drifted or overlapping layout.
    Repair,
    /// The upper scheduler moved the service to another node (failover or
    /// QoS migration): the destination launch committed before the source
    /// replica was torn down.
    Migrate,
}

/// Layer 2: a decision the controller made. Every state-mutating site in
/// the scheduler emits exactly one of these (pinned by the emission-site
/// audit test), which is what makes the `replay` fold sufficient.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Decision {
    /// An allocation changed on the substrate.
    Alloc {
        /// What kind of move (place/grant/deprive/reclaim/share/rollback/
        /// restore/repack/repair/bandwidth).
        kind: ActionKind,
        /// Which model (or controller machinery) drove it.
        provenance: Provenance,
        /// Allocation before the move.
        pre: Option<Allocation>,
        /// Allocation after the move (the fold's authoritative layout).
        post: Allocation,
        /// Whether the move counts toward the paper's action accounting.
        counts_as_action: bool,
    },
    /// Model-A profiled a new arrival.
    Profiled {
        /// Predicted OAA cores.
        oaa_cores: usize,
        /// Predicted OAA ways.
        oaa_ways: usize,
        /// Predicted RCliff cores.
        rcliff_cores: usize,
        /// Predicted RCliff ways.
        rcliff_ways: usize,
    },
    /// An arrival (or waiter) was rejected with a typed reason.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// An arrival was deferred into the admission queue.
    Deferred {
        /// The complete queue entry (the fold reconstructs the queue from
        /// these verbatim).
        entry: QueuedEntry,
    },
    /// A queued waiter was admitted on retry.
    Admitted {
        /// The ticket whose seat is released.
        ticket: u64,
        /// Ticks it waited.
        waited_ticks: u64,
    },
    /// A queued waiter expired at the max-wait horizon.
    TimedOut {
        /// The expired ticket.
        ticket: u64,
        /// Ticks it waited.
        waited_ticks: u64,
    },
    /// A full queue evicted its least-protected entry for a better one.
    Evicted {
        /// The evicted ticket.
        ticket: u64,
    },
    /// A waiting ticket was withdrawn by the driver.
    Cancelled {
        /// The cancelled ticket.
        ticket: u64,
    },
    /// A best-effort service was shed during brownout.
    Shed {
        /// The complete shed-stack entry.
        entry: ShedEntry,
    },
    /// A shed service was re-admitted.
    ShedReadmitted {
        /// The ticket leaving the shed stack.
        ticket: u64,
    },
    /// A brownout shave landed on the event's service.
    Shaved {
        /// Model-B′-priced slowdown of this shave.
        price: f64,
        /// Allocation before the *first* shave (the restoration target).
        original: Allocation,
    },
    /// The event's service left the shave ledger (restored, regrown, or
    /// its record disappeared).
    ShaveSettled,
    /// The controller entered its declared degraded state.
    BrownoutEntered {
        /// Queue depth at entry.
        queued: usize,
    },
    /// The controller left brownout.
    BrownoutExited {
        /// Ticks spent degraded.
        ticks_degraded: u64,
    },
    /// The QoS watchdog quarantined the ML path for the event's service.
    FallbackEngaged {
        /// Consecutive failed/ineffective ML actions.
        failures: u32,
    },
    /// The event's service left fallback quarantine.
    FallbackRecovered {
        /// Healthy ticks observed before re-engaging the models.
        healthy_ticks: u32,
    },
    /// The upper scheduler was asked to migrate the event's service.
    MigrationRequested,
    /// A transaction aborted and restored the listed number of services
    /// (each restore also emitted its own [`Decision::Alloc`]).
    TransactionAborted {
        /// Services restored.
        services: usize,
    },
    /// The controller warm/cold-restarted and reconciled durable state
    /// against the live substrate. Its fold rule is the whole of what a
    /// restart does to the queue, shed stack and shave ledger: recovery
    /// applies this event to its state and reads them back.
    Restarted {
        /// Whether the snapshot verified.
        warm: bool,
        /// Services restored from snapshot records.
        restored: usize,
        /// Orphans adopted.
        adopted: usize,
        /// Snapshot records whose service departed during the outage.
        dropped: usize,
    },
}

/// Layer 3: an operational-telemetry observation. Never consulted by
/// `replay`; stripping every [`TelemetryNote`] from a log leaves the
/// replayed state bit-identical (pinned by tests). Metrics and spans flow
/// through `osml-telemetry`; this layer records the scheduler-observed
/// operational events in the unified stream so one file tells the whole
/// story.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryNote {
    /// The scheduler observed a platform fault (failed actuation, invalid
    /// or dropped counter window).
    FaultObserved {
        /// Whether it was transient.
        transient: bool,
    },
    /// A transient actuation failure was retried until success.
    Retried {
        /// Attempts including the final successful one.
        attempts: u32,
        /// Total backoff charged, milliseconds.
        backoff_ms: f64,
    },
    /// A control-plane command needed same-sequence resends before its
    /// acknowledgement arrived (at-least-once delivery over a lossy
    /// channel; distinct from [`TelemetryNote::Retried`], which is an
    /// actuation-level retry on one node).
    MessageRetried {
        /// Send attempts including the final acknowledged one.
        attempts: u32,
        /// Total backoff charged, milliseconds.
        backoff_ms: f64,
    },
}

/// The layer-tagged payload of one unified event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventBody {
    /// Layer 1: world fact.
    World(WorldFact),
    /// Layer 2: system decision.
    Decision(Decision),
    /// Layer 3: operational telemetry (excluded from replay).
    Telemetry(TelemetryNote),
}

/// One entry in the unified log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnifiedEvent {
    /// Monotone sequence number across all layers (the journal's append
    /// order; recovery appends the durable suffix by `seq`).
    pub seq: u64,
    /// Scheduler tick the event was emitted at.
    pub tick: u64,
    /// Simulated time, seconds.
    pub time_s: f64,
    /// The service concerned (raw id), `None` for machine-wide events.
    pub app: Option<u64>,
    /// The layer-tagged payload.
    pub body: EventBody,
}

/// The JSONL header line.
#[derive(Serialize, Deserialize)]
struct LogHeader {
    unified_log_version: u32,
}

/// Errors reading a serialized unified log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnifiedLogError {
    /// The stream was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
}

impl fmt::Display for UnifiedLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnifiedLogError::VersionMismatch { found, expected } => {
                write!(f, "unified log version {found} incompatible with expected {expected}")
            }
        }
    }
}

impl std::error::Error for UnifiedLogError {}

/// What a tolerant read dropped from a damaged tail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailLoss {
    /// Bytes past the last complete, parseable event line.
    pub bytes_dropped: usize,
    /// Damaged (unparseable or out-of-order) lines dropped.
    pub lines_dropped: usize,
}

/// The append-only unified event log. Push-only in normal operation; when
/// a journal file is attached, every event is serialized, appended and
/// flushed before `push` returns, so at most the final line of the durable
/// file can be torn by a crash.
#[derive(Debug, Default)]
pub struct UnifiedLog {
    events: Vec<UnifiedEvent>,
    next_seq: u64,
    last_time_s: f64,
    /// Durable mirror; deliberately not cloned (a cloned controller must
    /// not double-append to the same file).
    journal: Option<Journal>,
}

/// The attached journal file and the first write failure it met.
#[derive(Debug)]
struct Journal {
    file: File,
    /// The line being written, kept for its capacity.
    line: String,
    /// Mirroring stops at the first failed write: an event appended behind
    /// a damaged line would be invisible to the tolerant reader anyway.
    error: Option<io::Error>,
}

impl Clone for UnifiedLog {
    fn clone(&self) -> Self {
        UnifiedLog {
            events: self.events.clone(),
            next_seq: self.next_seq,
            last_time_s: self.last_time_s,
            journal: None,
        }
    }
}

impl PartialEq for UnifiedLog {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}

impl UnifiedLog {
    /// An empty log.
    pub fn new() -> Self {
        UnifiedLog::default()
    }

    /// Rebuilds a log from raw events (seq/time bookkeeping re-derived).
    pub fn from_events(events: Vec<UnifiedEvent>) -> Self {
        let next_seq = events.last().map(|e| e.seq + 1).unwrap_or(0);
        let last_time_s = events.last().map(|e| e.time_s).unwrap_or(0.0);
        UnifiedLog { events, next_seq, last_time_s, journal: None }
    }

    /// Appends one event, stamping the next sequence number. Mirrored to
    /// the attached journal (serialized, appended, flushed) before return.
    pub fn push(&mut self, tick: u64, time_s: f64, app: Option<u64>, body: EventBody) {
        let event = UnifiedEvent { seq: self.next_seq, tick, time_s, app, body };
        self.next_seq += 1;
        self.last_time_s = time_s;
        self.mirror(&event);
        self.events.push(event);
    }

    /// Appends one event at the last seen timestamp (for emission sites
    /// with no clock in scope, e.g. ticket cancellation).
    pub(crate) fn push_untimed(&mut self, tick: u64, app: Option<u64>, body: EventBody) {
        let time_s = self.last_time_s;
        self.push(tick, time_s, app, body);
    }

    fn mirror(&mut self, event: &UnifiedEvent) {
        let Some(journal) = &mut self.journal else { return };
        if journal.error.is_some() {
            return;
        }
        journal.line.clear();
        serde_json::append_to_string(&mut journal.line, event).expect("unified event serializes");
        journal.line.push('\n');
        // One write per event: a crash tears at most this line.
        let written =
            journal.file.write_all(journal.line.as_bytes()).and_then(|()| journal.file.flush());
        journal.error = written.err();
    }

    /// Attaches (or replaces) a durable journal at `path`, opened in
    /// append mode. Only events pushed *after* the attach are mirrored.
    ///
    /// Only whole lines of an existing file are committed. An empty file,
    /// or one whose header line a crash tore before any event followed it,
    /// is restarted with a fresh header; a torn final event line is cut
    /// off, so the next event never lands behind a damaged line.
    ///
    /// # Errors
    ///
    /// Propagates file failures. [`io::ErrorKind::InvalidData`] when the
    /// file was written by another `UNIFIED_LOG_VERSION`, or holds events
    /// behind an unreadable header — appending to either would write events
    /// no reader accepts.
    pub fn attach_journal(&mut self, path: &Path) -> io::Result<()> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = std::fs::read(path)?;
        let committed = bytes.iter().rposition(|&c| c == b'\n').map_or(0, |i| i + 1);
        let header_end = bytes.iter().position(|&c| c == b'\n').map_or(0, |i| i + 1);
        let header: Option<LogHeader> = std::str::from_utf8(&bytes[..header_end])
            .ok()
            .and_then(|line| serde_json::from_str(line.trim_end()).ok());
        let invalid = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
        match header {
            Some(h) if h.unified_log_version == UNIFIED_LOG_VERSION => {
                file.set_len(committed as u64)?;
            }
            Some(h) => {
                return Err(invalid(format!(
                    "{}: journal written by unified log version {}, this build writes {}",
                    path.display(),
                    h.unified_log_version,
                    UNIFIED_LOG_VERSION
                )));
            }
            None if committed > header_end => {
                return Err(invalid(format!(
                    "{}: journal holds events behind an unreadable header",
                    path.display()
                )));
            }
            None => {
                file.set_len(0)?;
                let mut header =
                    serde_json::to_string(&LogHeader { unified_log_version: UNIFIED_LOG_VERSION })
                        .expect("header serializes");
                header.push('\n');
                file.write_all(header.as_bytes())?;
                file.flush()?;
            }
        }
        self.journal = Some(Journal { file, line: String::new(), error: None });
        Ok(())
    }

    /// The first journal write that failed, if any. Events pushed from then
    /// on are in memory only; a harness asserts `None` to know the file on
    /// disk is whole.
    pub fn journal_error(&self) -> Option<&io::Error> {
        self.journal.as_ref().and_then(|j| j.error.as_ref())
    }

    /// All events in order.
    pub fn events(&self) -> &[UnifiedEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The sequence number of the most recent event, if any.
    pub(crate) fn last_seq(&self) -> Option<u64> {
        self.events.last().map(|e| e.seq)
    }

    /// `(world, decision, telemetry)` event counts.
    pub fn layer_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for e in &self.events {
            match e.body {
                EventBody::World(_) => counts.0 += 1,
                EventBody::Decision(_) => counts.1 += 1,
                EventBody::Telemetry(_) => counts.2 += 1,
            }
        }
        counts
    }

    /// Number of events whose body matches `pred`.
    pub fn count(&self, pred: impl Fn(&EventBody) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.body)).count()
    }

    /// Number of layer-2 events whose decision matches `pred`.
    pub fn count_decisions(&self, pred: impl Fn(&Decision) -> bool) -> usize {
        self.count(|b| matches!(b, EventBody::Decision(d) if pred(d)))
    }

    /// The decision-layer events, in order (the A/B diff stream).
    pub fn decisions(&self) -> impl Iterator<Item = &UnifiedEvent> {
        self.events.iter().filter(|e| matches!(e.body, EventBody::Decision(_)))
    }

    /// The world-fact events, in order.
    pub fn world_facts(&self) -> impl Iterator<Item = &UnifiedEvent> {
        self.events.iter().filter(|e| matches!(e.body, EventBody::World(_)))
    }

    /// A copy with the telemetry layer removed — replaying it must produce
    /// the identical state (the exclusion invariant).
    pub fn stripped(&self) -> UnifiedLog {
        UnifiedLog::from_events(
            self.events
                .iter()
                .filter(|e| !matches!(e.body, EventBody::Telemetry(_)))
                .cloned()
                .collect(),
        )
    }

    /// Serializes to the versioned JSONL form: one header line, then one
    /// line per event.
    pub fn to_jsonl(&self) -> String {
        let mut out =
            serde_json::to_string(&LogHeader { unified_log_version: UNIFIED_LOG_VERSION })
                .expect("header serializes");
        out.push('\n');
        for e in &self.events {
            serde_json::append_to_string(&mut out, e).expect("unified event serializes");
            out.push('\n');
        }
        out
    }

    /// Parses the JSONL form, tolerating a torn tail: reading stops at the
    /// first damaged (unparseable or sequence-regressing) line and keeps
    /// every complete event before it. An empty or header-torn stream is
    /// an empty log, not an error — a crash-damaged journal always yields
    /// its committed prefix. Only a *parseable header with a foreign
    /// version* is refused.
    ///
    /// # Errors
    ///
    /// [`UnifiedLogError::VersionMismatch`] if the header names a version
    /// this build does not understand.
    pub fn from_jsonl_tolerant(text: &str) -> Result<(UnifiedLog, TailLoss), UnifiedLogError> {
        let mut loss = TailLoss::default();
        let mut lines = text.split_inclusive('\n');
        let Some(header_line) = lines.next() else {
            return Ok((UnifiedLog::new(), loss));
        };
        let header: LogHeader = match serde_json::from_str(header_line.trim_end()) {
            Ok(h) => h,
            Err(_) => {
                // Torn or absent header: nothing committed yet.
                loss.bytes_dropped = text.len();
                loss.lines_dropped = text.lines().count();
                return Ok((UnifiedLog::new(), loss));
            }
        };
        if header.unified_log_version != UNIFIED_LOG_VERSION {
            return Err(UnifiedLogError::VersionMismatch {
                found: header.unified_log_version,
                expected: UNIFIED_LOG_VERSION,
            });
        }
        let mut events: Vec<UnifiedEvent> = Vec::new();
        let mut consumed = header_line.len();
        for line in lines {
            let parsed: Result<UnifiedEvent, _> = serde_json::from_str(line.trim_end());
            match parsed {
                Ok(e) if events.last().map(|p: &UnifiedEvent| e.seq > p.seq).unwrap_or(true) => {
                    consumed += line.len();
                    events.push(e);
                }
                _ => break,
            }
        }
        loss.bytes_dropped = text.len() - consumed;
        loss.lines_dropped = text[consumed..].lines().count();
        Ok((UnifiedLog::from_events(events), loss))
    }

    /// Replays this log; see `replay`.
    ///
    /// # Errors
    ///
    /// See `replay`.
    pub fn replay(&self) -> Result<ReplayState, ReplayError> {
        replay(self.events())
    }
}

/// The scheduler state a log reconstructs: what `replay` returns and
/// what `OsmlScheduler::live_replay_state` captures from a live run, so
/// the two can be compared bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayState {
    /// Ticks executed.
    pub tick: u64,
    /// Scheduling actions committed (the paper's overhead accounting).
    pub actions: usize,
    /// Live services and their exact allocations, keyed by raw id.
    pub layouts: BTreeMap<u64, Allocation>,
    /// The admission queue, in the scheduler's internal order.
    pub queue: Vec<QueuedEntry>,
    /// The shed stack (LIFO).
    pub shed: Vec<ShedEntry>,
    /// The brownout shave ledger.
    pub shaved: Vec<ShaveRecord>,
    /// Tick brownout was entered at, while degraded.
    pub brownout_since: Option<u64>,
}

/// [`ReplayState`] as it travels: the layouts map is an ordered
/// `(id, allocation)` pair list (the vendored serde only maps string keys).
#[derive(Serialize, Deserialize)]
struct ReplayStateWire {
    tick: u64,
    actions: usize,
    layouts: Vec<(u64, Allocation)>,
    queue: Vec<QueuedEntry>,
    shed: Vec<ShedEntry>,
    shaved: Vec<ShaveRecord>,
    brownout_since: Option<u64>,
}

impl Serialize for ReplayState {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        ReplayStateWire {
            tick: self.tick,
            actions: self.actions,
            layouts: self.layouts.iter().map(|(&id, &alloc)| (id, alloc)).collect(),
            queue: self.queue.clone(),
            shed: self.shed.clone(),
            shaved: self.shaved.clone(),
            brownout_since: self.brownout_since,
        }
        .serialize(w);
    }
}

impl Deserialize for ReplayState {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let wire = ReplayStateWire::deserialize(r)?;
        Ok(ReplayState {
            tick: wire.tick,
            actions: wire.actions,
            layouts: wire.layouts.into_iter().collect(),
            queue: wire.queue,
            shed: wire.shed,
            shaved: wire.shaved,
            brownout_since: wire.brownout_since,
        })
    }
}

/// A replay-sufficiency violation: the log alone could not reconstruct
/// state, meaning some mutation site failed to emit its event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A decision referenced a service the world facts never launched.
    UnknownApp {
        /// Sequence number of the offending event.
        seq: u64,
        /// The unknown raw id.
        app: u64,
    },
    /// A per-service event arrived with no service in its envelope.
    MissingApp {
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// A queue/shed transition referenced a ticket that holds no seat.
    MissingTicket {
        /// Sequence number of the offending event.
        seq: u64,
        /// The missing ticket.
        ticket: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnknownApp { seq, app } => {
                write!(f, "event seq {seq}: decision for app {app} never launched by a world fact")
            }
            ReplayError::MissingApp { seq } => {
                write!(f, "event seq {seq}: per-service event carries no app id")
            }
            ReplayError::MissingTicket { seq, ticket } => {
                write!(f, "event seq {seq}: ticket {ticket} holds no seat")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl ReplayState {
    /// Folds one event into the state: the only fold there is. `replay`
    /// runs it from [`ReplayState::default`] over a whole log, and crash
    /// recovery runs it from a snapshot's checkpoint over the journal
    /// suffix. The telemetry layer is ignored by construction. Strict: a
    /// reference to a service or ticket the state cannot account for is an
    /// error, because silence here would mean an emission site rotted. An
    /// event it rejects leaves the state as it was.
    ///
    /// # Errors
    ///
    /// [`ReplayError`] naming the event when the state cannot absorb it.
    pub fn apply(&mut self, ev: &UnifiedEvent) -> Result<(), ReplayError> {
        let app = || ev.app.ok_or(ReplayError::MissingApp { seq: ev.seq });
        let missing = |ticket: u64| ReplayError::MissingTicket { seq: ev.seq, ticket };
        match &ev.body {
            EventBody::Telemetry(_) => {}
            EventBody::World(fact) => match fact {
                WorldFact::Launched { bootstrap, .. } => {
                    self.layouts.insert(app()?, *bootstrap);
                }
                WorldFact::Removed { cause: RemovalCause::Fenced } => {
                    // A fenced ghost dies without touching the
                    // authoritative replica's layout.
                }
                WorldFact::Removed { .. } => {
                    let id = app()?;
                    self.layouts.remove(&id);
                    self.shaved.retain(|s| s.app != id);
                }
                WorldFact::TickElapsed => self.tick = ev.tick,
                WorldFact::ArrivalDue { .. }
                | WorldFact::DepartureDue { .. }
                | WorldFact::LoadChanged { .. }
                | WorldFact::FaultInjected { .. }
                | WorldFact::ControllerCrashed
                | WorldFact::NodeFailed { .. }
                | WorldFact::NodeRecovered { .. }
                | WorldFact::MessageDropped { .. }
                | WorldFact::MessageDuplicated { .. }
                | WorldFact::PartitionStarted { .. }
                | WorldFact::PartitionHealed { .. }
                | WorldFact::NodeSuspected { .. }
                | WorldFact::NodeSuspicionCleared { .. } => {}
            },
            EventBody::Decision(decision) => match decision {
                Decision::Alloc { post, counts_as_action, .. } => {
                    let id = app()?;
                    let Some(layout) = self.layouts.get_mut(&id) else {
                        return Err(ReplayError::UnknownApp { seq: ev.seq, app: id });
                    };
                    *layout = *post;
                    if *counts_as_action {
                        self.actions += 1;
                    }
                }
                Decision::Deferred { entry } => self.queue.push(*entry),
                Decision::Admitted { ticket, .. }
                | Decision::TimedOut { ticket, .. }
                | Decision::Evicted { ticket } => {
                    let pos = self.queue.iter().position(|e| e.ticket == *ticket);
                    self.queue.remove(pos.ok_or_else(|| missing(*ticket))?);
                }
                Decision::Cancelled { ticket } => {
                    self.queue.retain(|e| e.ticket != *ticket);
                    self.shed.retain(|e| e.ticket != *ticket);
                }
                Decision::Shed { entry } => {
                    self.shaved.retain(|s| s.app != entry.ticket);
                    self.shed.push(*entry);
                }
                Decision::ShedReadmitted { ticket } => {
                    let pos = self.shed.iter().rposition(|e| e.ticket == *ticket);
                    self.shed.remove(pos.ok_or_else(|| missing(*ticket))?);
                }
                Decision::Shaved { price, original } => {
                    let id = app()?;
                    match self.shaved.iter_mut().find(|s| s.app == id) {
                        Some(s) => s.priced += price,
                        None => self.shaved.push(ShaveRecord {
                            app: id,
                            original: *original,
                            priced: *price,
                        }),
                    }
                }
                Decision::ShaveSettled => {
                    let id = app()?;
                    self.shaved.retain(|s| s.app != id);
                }
                Decision::BrownoutEntered { .. } => self.brownout_since = Some(ev.tick),
                Decision::BrownoutExited { .. } => self.brownout_since = None,
                Decision::Restarted { .. } => {
                    // What a restart keeps: a waiting ticket whose service
                    // is in fact live lost its seat, and a shave on a
                    // service that is gone has nothing left to restore.
                    self.tick = ev.tick;
                    let layouts = &self.layouts;
                    self.queue.retain(|e| !layouts.contains_key(&e.ticket));
                    self.shed.retain(|e| !layouts.contains_key(&e.ticket));
                    self.shaved.retain(|s| layouts.contains_key(&s.app));
                }
                Decision::Profiled { .. }
                | Decision::Rejected { .. }
                | Decision::FallbackEngaged { .. }
                | Decision::FallbackRecovered { .. }
                | Decision::MigrationRequested
                | Decision::TransactionAborted { .. } => {}
            },
        }
        Ok(())
    }
}

/// Reconstructs full scheduler state from the world-fact + decision layers
/// alone: [`ReplayState::apply`] folded over `events` from the empty state.
///
/// # Errors
///
/// [`ReplayError`] naming the offending event when the log is
/// insufficient.
pub(crate) fn replay(events: &[UnifiedEvent]) -> Result<ReplayState, ReplayError> {
    let mut state = ReplayState::default();
    for ev in events {
        state.apply(ev)?;
    }
    Ok(state)
}

/// The first point where two decision streams disagree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Divergence {
    /// Index into the decision-filtered streams (not the raw logs).
    pub index: usize,
    /// The expected (first log's) decision event at that index, if any.
    pub expected: Option<UnifiedEvent>,
    /// The actual (second log's) decision event at that index, if any.
    pub got: Option<UnifiedEvent>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tick = |e: &Option<UnifiedEvent>| {
            e.as_ref().map(|e| e.tick.to_string()).unwrap_or_else(|| "-".into())
        };
        writeln!(
            f,
            "first divergence at decision index {} (tick {} vs {}):",
            self.index,
            tick(&self.expected),
            tick(&self.got)
        )?;
        writeln!(f, "  expected: {:?}", self.expected)?;
        write!(f, "  got:      {:?}", self.got)
    }
}

/// Diffs the decision layers of two logs element-wise, ignoring sequence
/// numbers and timestamps (layer interleavings legitimately differ across
/// configs); the comparison key is `(tick, app, body)`. Returns the first
/// divergence, or `None` when the streams decide identically.
pub fn first_divergence(a: &UnifiedLog, b: &UnifiedLog) -> Option<Divergence> {
    let da: Vec<&UnifiedEvent> = a.decisions().collect();
    let db: Vec<&UnifiedEvent> = b.decisions().collect();
    for i in 0..da.len().max(db.len()) {
        let ea = da.get(i).copied();
        let eb = db.get(i).copied();
        let same = match (ea, eb) {
            (Some(x), Some(y)) => x.tick == y.tick && x.app == y.app && x.body == y.body,
            (None, None) => true,
            _ => false,
        };
        if !same {
            return Some(Divergence { index: i, expected: ea.cloned(), got: eb.cloned() });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use osml_platform::{CoreSet, MbaThrottle, WayMask};
    use proptest::prelude::*;

    fn alloc(cores: std::ops::Range<usize>, first_way: usize, ways: usize) -> Allocation {
        Allocation::new(
            CoreSet::from_cores(cores),
            WayMask::contiguous(first_way, ways).unwrap(),
            MbaThrottle::unthrottled(),
        )
    }

    fn sample_log() -> UnifiedLog {
        let mut log = UnifiedLog::new();
        log.push(
            0,
            0.5,
            Some(1),
            EventBody::World(WorldFact::Launched {
                workload: 0,
                service: Service::Login,
                class: SloClass::Degradable,
                threads: 4,
                offered_rps: 100.0,
                bootstrap: alloc(0..2, 0, 2),
                cause: LaunchCause::Scripted,
            }),
        );
        log.push(
            0,
            2.5,
            Some(1),
            EventBody::Decision(Decision::Alloc {
                kind: ActionKind::Place,
                provenance: Provenance::ModelA,
                pre: Some(alloc(0..2, 0, 2)),
                post: alloc(0..4, 0, 6),
                counts_as_action: true,
            }),
        );
        log.push(1, 3.5, None, EventBody::World(WorldFact::TickElapsed));
        log.push(
            1,
            3.5,
            Some(1),
            EventBody::Telemetry(TelemetryNote::Retried { attempts: 2, backoff_ms: 1.0 }),
        );
        log
    }

    #[test]
    fn replay_reconstructs_layouts_and_counters() {
        let log = sample_log();
        let state = log.replay().unwrap();
        assert_eq!(state.tick, 1);
        assert_eq!(state.actions, 1);
        assert_eq!(state.layouts.len(), 1);
        assert_eq!(state.layouts[&1], alloc(0..4, 0, 6));
    }

    #[test]
    fn telemetry_layer_is_excluded_from_replay() {
        let log = sample_log();
        assert!(log.layer_counts().2 > 0);
        assert_eq!(log.replay().unwrap(), log.stripped().replay().unwrap());
    }

    #[test]
    fn jsonl_round_trips() {
        let log = sample_log();
        let (back, loss) = UnifiedLog::from_jsonl_tolerant(&log.to_jsonl()).unwrap();
        assert_eq!(loss, TailLoss::default());
        assert_eq!(back, log);
    }

    #[test]
    fn an_event_cannot_carry_an_allocation_the_hardware_would_refuse() {
        let line = |post: &str| {
            format!(
                "{{\"seq\":0,\"tick\":0,\"time_s\":0.0,\"app\":1,\"body\":{{\"Decision\":\
                 {{\"Alloc\":{{\"kind\":\"Place\",\"provenance\":\"ModelA\",\"pre\":null,\
                 \"post\":{post},\"counts_as_action\":true}}}}}}}}"
            )
        };
        let decode = |post: &str| serde_json::from_str::<UnifiedEvent>(&line(post));
        assert!(decode(r#"{"cores":1,"ways":7,"mba":100}"#).is_ok());
        // 0b101 is no CAT mask and 255 % no MBA level: decoding goes through
        // `WayMask::from_bits` and `MbaThrottle::percent`.
        let err = decode(r#"{"cores":1,"ways":5,"mba":255}"#).unwrap_err();
        assert!(err.to_string().contains("way mask 0b101"), "{err}");
        let err = decode(r#"{"cores":1,"ways":7,"mba":255}"#).unwrap_err();
        assert!(err.to_string().contains("MBA throttle 255%"), "{err}");
        assert!(decode(r#"{"cores":1,"ways":0,"mba":100}"#).is_err());
        assert!(decode(r#"{"cores":1,"ways":7,"mba":55}"#).is_err());
    }

    #[test]
    fn replay_state_travels_with_its_layouts_as_a_pair_list() {
        let state = sample_log().replay().unwrap();
        let text = serde_json::to_string(&state).unwrap();
        assert!(text.contains(r#""layouts":[[1,{"cores":15,"ways":63,"mba":100}]]"#), "{text}");
        assert_eq!(serde_json::from_str::<ReplayState>(&text).unwrap(), state);
    }

    #[test]
    fn foreign_version_is_refused() {
        let text = sample_log().to_jsonl().replacen(
            "{\"unified_log_version\":1}",
            "{\"unified_log_version\":9}",
            1,
        );
        assert_eq!(
            UnifiedLog::from_jsonl_tolerant(&text),
            Err(UnifiedLogError::VersionMismatch { found: 9, expected: 1 })
        );
    }

    /// A fresh journal path, unique per test (tests run in parallel).
    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("osml-golden-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Re-attaches `log` (a controller that outlived a crash of the writer)
    /// to `path`, pushes one more event and checks the file reads back as
    /// exactly the log: nothing landed behind damage.
    fn reattach_push_and_read_back(mut log: UnifiedLog, path: &Path) {
        log.attach_journal(path).unwrap();
        log.push(9, 9.5, None, EventBody::World(WorldFact::TickElapsed));
        assert!(log.journal_error().is_none());
        let text = std::fs::read_to_string(path).unwrap();
        let (back, loss) = UnifiedLog::from_jsonl_tolerant(&text).unwrap();
        assert_eq!(loss, TailLoss::default());
        assert_eq!(back.events(), &log.events()[log.len() - back.len()..]);
        assert_eq!(back.events().last(), log.events().last());
    }

    #[test]
    fn attach_to_a_whole_journal_appends() {
        let path = temp_journal("append");
        let mut log = UnifiedLog::new();
        log.attach_journal(&path).unwrap();
        for e in sample_log().events() {
            log.push(e.tick, e.time_s, e.app, e.body.clone());
        }
        reattach_push_and_read_back(log.clone(), &path);
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk.lines().count(), 1 + sample_log().len() + 1, "header + every event");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn attach_after_a_crash_mid_header_restarts_the_file() {
        let header = sample_log().to_jsonl().lines().next().unwrap().to_owned() + "\n";
        for cut in 0..header.len() {
            let path = temp_journal(&format!("torn-header-{cut}"));
            std::fs::write(&path, &header[..cut]).unwrap();
            let mut log = UnifiedLog::new();
            log.attach_journal(&path).unwrap();
            for e in sample_log().events() {
                log.push(e.tick, e.time_s, e.app, e.body.clone());
            }
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                log.to_jsonl(),
                "cut at byte {cut}: every event pushed after the re-attach must read back"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn attach_cuts_a_torn_final_event_before_appending() {
        let path = temp_journal("torn-tail");
        let log = sample_log();
        std::fs::write(&path, log.to_jsonl() + "{\"seq\":4,\"tick\":1,\"time").unwrap();
        reattach_push_and_read_back(log, &path);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn attach_refuses_a_journal_it_cannot_extend() {
        let foreign = sample_log().to_jsonl().replacen(
            "\"unified_log_version\":1",
            "\"unified_log_version\":9",
            1,
        );
        let headless =
            sample_log().to_jsonl().replacen("{\"unified_log_version\":1}", "{\"unified_lo", 1);
        for (tag, text, needles) in [
            ("foreign", foreign, vec!["version 9", "writes 1"]),
            ("headless", headless, vec!["header"]),
        ] {
            let path = temp_journal(tag);
            std::fs::write(&path, &text).unwrap();
            let err = UnifiedLog::new().attach_journal(&path).expect_err(tag);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{tag}");
            for needle in needles {
                assert!(err.to_string().contains(needle), "{tag}: {err}");
            }
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                text,
                "{tag}: file must be untouched"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn a_failed_journal_write_is_kept_and_stops_mirroring() {
        let path = temp_journal("write-error");
        let mut log = UnifiedLog::new();
        log.attach_journal(&path).unwrap();
        // A read-only handle stands in for a disk that stopped taking writes.
        log.journal =
            Some(Journal { file: File::open(&path).unwrap(), line: String::new(), error: None });
        log.push(1, 1.0, None, EventBody::World(WorldFact::TickElapsed));
        let first = log.journal_error().expect("the failed write is reported").to_string();
        log.push(2, 2.0, None, EventBody::World(WorldFact::TickElapsed));
        assert_eq!(log.journal_error().unwrap().to_string(), first, "the first error is kept");
        assert_eq!(log.len(), 2, "the in-memory log is unaffected");
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1, "header only");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_at_every_byte_boundary_keeps_the_committed_prefix() {
        let log = sample_log();
        let text = log.to_jsonl();
        // Complete-line offsets -> number of events committed by then.
        let mut committed_at: Vec<(usize, usize)> = vec![];
        let mut offset = 0usize;
        for (i, line) in text.split_inclusive('\n').enumerate() {
            offset += line.len();
            committed_at.push((offset, i)); // header is line 0
        }
        for cut in 0..=text.len() {
            let (back, _loss) = UnifiedLog::from_jsonl_tolerant(&text[..cut]).unwrap();
            // A line torn *after* its JSON but before the newline is still a
            // complete, durably-committed event — the reader keeps it.
            let expected =
                committed_at.iter().filter(|&&(end, _)| end - 1 <= cut).map(|&(_, i)| i).max();
            let expected_events = expected.unwrap_or(0); // line i complete => i events
            assert_eq!(
                back.events().len(),
                expected_events,
                "cut at byte {cut}: wrong committed prefix"
            );
            assert_eq!(back.events(), &log.events()[..expected_events]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random multi-event logs, random cut: the tolerant reader never
        /// panics, never errors, and always yields an exact event prefix.
        #[test]
        fn torn_tail_always_yields_a_prefix(n in 1usize..12, cut_frac in 0.0f64..1.0) {
            let mut log = UnifiedLog::new();
            for i in 0..n {
                log.push(
                    i as u64,
                    i as f64,
                    Some(i as u64),
                    EventBody::World(WorldFact::Removed { cause: RemovalCause::ScriptedDeparture }),
                );
            }
            let text = log.to_jsonl();
            let cut = ((text.len() as f64) * cut_frac) as usize;
            let (back, loss) = UnifiedLog::from_jsonl_tolerant(&text[..cut.min(text.len())]).unwrap();
            prop_assert_eq!(back.events(), &log.events()[..back.events().len()]);
            prop_assert_eq!(loss.bytes_dropped + cut - loss.bytes_dropped, cut);
        }
    }

    #[test]
    fn cluster_failover_sequence_folds_and_round_trips() {
        // The cluster tier logs a committed migration as
        // Removed(source) → Launched(destination) → Alloc(Migrate), so the
        // fold never sees the service resident in two places.
        let launched = |cause| {
            EventBody::World(WorldFact::Launched {
                workload: 1,
                service: Service::Moses,
                class: SloClass::LatencyCritical,
                threads: 4,
                offered_rps: 100.0,
                bootstrap: alloc(0..2, 0, 2),
                cause,
            })
        };
        let mut log = UnifiedLog::new();
        log.push(0, 0.0, Some(1), launched(LaunchCause::Scripted));
        log.push(3, 3.0, None, EventBody::World(WorldFact::NodeFailed { node: 0 }));
        log.push(
            3,
            3.0,
            Some(1),
            EventBody::World(WorldFact::Removed { cause: RemovalCause::NodeFailure }),
        );
        log.push(3, 3.0, Some(1), EventBody::Decision(Decision::MigrationRequested));
        log.push(3, 3.0, Some(1), launched(LaunchCause::Failover));
        log.push(
            3,
            3.0,
            Some(1),
            EventBody::Decision(Decision::Alloc {
                kind: ActionKind::Migrate,
                provenance: Provenance::Controller,
                pre: Some(alloc(0..2, 0, 2)),
                post: alloc(2..4, 2, 2),
                counts_as_action: true,
            }),
        );
        log.push(10, 10.0, None, EventBody::World(WorldFact::NodeRecovered { node: 0 }));
        let state = log.replay().unwrap();
        assert_eq!(state.layouts.len(), 1, "exactly one live replica after the migration");
        assert_eq!(state.layouts[&1], alloc(2..4, 2, 2));
        assert_eq!(state.actions, 1);
        let (back, loss) = UnifiedLog::from_jsonl_tolerant(&log.to_jsonl()).unwrap();
        assert_eq!(loss, TailLoss::default());
        assert_eq!(back, log);
    }

    #[test]
    fn divergence_reports_first_differing_decision() {
        let a = sample_log();
        let mut b = sample_log();
        b.push(2, 4.5, Some(1), EventBody::Decision(Decision::MigrationRequested));
        let d = first_divergence(&a, &b).expect("streams differ");
        assert_eq!(d.index, 1);
        assert!(d.expected.is_none());
        assert_eq!(d.got.unwrap().tick, 2);
        assert!(first_divergence(&a, &a).is_none());
    }

    #[test]
    fn replay_rejects_orphan_decisions() {
        let mut log = UnifiedLog::new();
        log.push(
            0,
            0.0,
            Some(9),
            EventBody::Decision(Decision::Alloc {
                kind: ActionKind::Place,
                provenance: Provenance::ModelA,
                pre: None,
                post: alloc(0..1, 0, 1),
                counts_as_action: true,
            }),
        );
        assert_eq!(log.replay(), Err(ReplayError::UnknownApp { seq: 0, app: 9 }));
    }
}
