//! Durable scheduler state: versioned, checksummed snapshots plus the
//! unified log's durable journal.
//!
//! The OSML controller is a long-running user-level daemon; when it crashes,
//! the hardware allocations it programmed (CAT/MBA/taskset) persist on the
//! machine while every piece of controller state — per-app records, watchdog
//! status, Model-C's online learning — evaporates. This module makes that
//! state durable so a restarted controller picks up where the dead one
//! stopped instead of re-profiling the world from scratch:
//!
//! * The **journal** is the unified log's own JSONL mirror
//!   (`unified.jsonl`, see [`UnifiedLog::attach_journal`]), every event on
//!   disk before the next is appended: the only durable copy of the log.
//! * [`SchedulerSnapshot`] is the log's fold ([`ReplayState`]) at one
//!   journal position plus what no event carries; state is that checkpoint
//!   ⊕ the fold of the journal suffix. On disk it travels inside a
//!   versioned envelope whose FNV-1a checksum covers the serialized
//!   payload, so a torn or bit-flipped file is *detected* —
//!   [`RecoveryError::ChecksumMismatch`] — never half-parsed into
//!   plausible-looking garbage.
//! * [`RecoveryStore`] owns both files. Snapshot writes are crash-atomic
//!   (temp file + rename); the journal is append-only, so at most its final
//!   line can be torn — the reader tolerates exactly that.
//!
//! Reconciliation against the live substrate (adopting orphans, dropping
//! departed apps, repairing drifted layouts) lives in
//! `OsmlScheduler::recover`; this module is only the durable format.

use crate::golden::{ReplayState, UnifiedEvent, UnifiedLog};
use crate::OsmlConfig;
use osml_models::{Action, OaaPrediction};
use osml_platform::{CounterSample, SloClass};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

/// Format version written into every snapshot envelope; bumped on breaking
/// changes to the snapshot schema. A mismatch is surfaced as
/// [`RecoveryError::VersionMismatch`] and the controller cold-starts.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Durable image of one service's controller state — the serializable
/// mirror of the scheduler's private per-app record, minus the in-flight
/// pending action (a pending grant/reclaim cannot be settled across an
/// outage: the "after" sample would include the downtime, poisoning
/// Model-C's reward, so recovery abandons it and counts it in the
/// [`RecoveryReport`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSnapshot {
    /// Raw service id.
    pub id: u64,
    /// The SLO class the service was admitted under (drives brownout shave
    /// ceilings and shed eligibility after a warm restart).
    pub class: SloClass,
    /// Model-A's OAA/RCliff prediction for the service.
    pub prediction: OaaPrediction,
    /// Whether an action was pending settlement when the snapshot was
    /// taken (abandoned on recovery; see the type docs).
    pub had_pending: bool,
    /// Ticks remaining before Algorithm 3 may reclaim again.
    pub reclaim_cooldown: usize,
    /// Withdrawn growth actions and their remaining blocked ticks.
    pub blocked: Vec<(Action, usize)>,
    /// Proven minimal allocation `(cores, ways, cpu_usage at proof time)`.
    pub reclaim_floor: Option<(usize, usize, f64)>,
    /// Whether a migration request is outstanding.
    pub migration_requested: bool,
    /// Consecutive ticks in guarded QoS violation.
    pub violation_ticks: usize,
    /// Last valid counter window (hold-last-good source).
    pub last_good: Option<CounterSample>,
    /// Watchdog strikes accumulated.
    pub failed_ml_actions: u32,
    /// Whether the heuristic fallback is driving the service.
    pub fallback: bool,
    /// Healthy ticks accumulated toward leaving fallback.
    pub fallback_ok_ticks: u32,
}

/// Durable image of the whole controller at one checkpoint: the fold of the
/// log up to a journal position, and what no event carries. Model-C's
/// learning state is checkpointed on its own cadence
/// (`osml_ml::store::ModelStore::save_agent`), the allocations live on the
/// machine, and the log's durable copy is the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerSnapshot {
    /// The configuration the controller was running with. Warm restart
    /// resumes under this config, not the binary's default — a restart must
    /// not silently change policy.
    pub config: OsmlConfig,
    /// Simulated time of the most recent observed platform fault.
    pub last_fault_s: Option<f64>,
    /// Cumulative persistent actuation failures.
    pub persistent_failures: u32,
    /// Per-service records, sorted by id.
    pub apps: Vec<AppSnapshot>,
    /// The fold of the log at the checkpoint
    /// (`OsmlScheduler::live_replay_state`).
    pub state: ReplayState,
    /// Sequence number of the last event `state` covers.
    pub last_seq: Option<u64>,
    /// Next admission-queue FIFO sequence number.
    pub next_seq: u64,
    /// Banked admission retry credits.
    pub retry_credits: u32,
    /// Consecutive quiet ticks counted toward brownout exit.
    pub exit_streak: u32,
}

/// The on-disk envelope: `{version, checksum, payload}` where `payload` is
/// the JSON-serialized [`SchedulerSnapshot`] and `checksum` is the FNV-1a-64
/// digest of the payload bytes.
#[derive(Serialize, Deserialize)]
struct SnapshotEnvelope {
    version: u32,
    checksum: u64,
    payload: String,
}

/// FNV-1a 64-bit digest. One substituted byte always changes the digest
/// (XOR keeps the difference, multiplication by the odd FNV prime is
/// invertible mod 2⁶⁴), which is the property the corruption tests pin.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Errors from snapshot persistence and decoding.
#[derive(Debug)]
#[non_exhaustive]
pub enum RecoveryError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid envelope or payload (torn write, truncation,
    /// hand-editing).
    Corrupt(String),
    /// The envelope was written by an incompatible snapshot version.
    VersionMismatch {
        /// Version found in the envelope.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The payload does not hash to the envelope's checksum (bit rot or a
    /// partial overwrite).
    ChecksumMismatch {
        /// Digest recorded in the envelope.
        expected: u64,
        /// Digest of the payload actually found.
        found: u64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery store i/o error: {e}"),
            RecoveryError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            RecoveryError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} incompatible with expected {expected}")
            }
            RecoveryError::ChecksumMismatch { expected, found } => {
                write!(f, "snapshot checksum mismatch: envelope says {expected:#x}, payload hashes to {found:#x}")
            }
        }
    }
}

impl Error for RecoveryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RecoveryError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// Encodes a snapshot into its checksummed envelope JSON.
pub fn encode_snapshot(snapshot: &SchedulerSnapshot) -> String {
    let payload = serde_json::to_string(snapshot).expect("snapshot serializes");
    let envelope = SnapshotEnvelope {
        version: SNAPSHOT_VERSION,
        checksum: fnv1a64(payload.as_bytes()),
        payload,
    };
    serde_json::to_string(&envelope).expect("envelope serializes")
}

/// Decodes and verifies an envelope produced by [`encode_snapshot`].
///
/// # Errors
///
/// [`RecoveryError::Corrupt`] if the envelope or payload fails to parse,
/// [`RecoveryError::VersionMismatch`] for a foreign schema version, and
/// [`RecoveryError::ChecksumMismatch`] if the payload bytes do not hash to
/// the recorded digest. Corruption is always one of these errors — a
/// damaged snapshot never decodes into a different valid snapshot.
pub fn decode_snapshot(text: &str) -> Result<SchedulerSnapshot, RecoveryError> {
    let envelope: SnapshotEnvelope =
        serde_json::from_str(text).map_err(|e| RecoveryError::Corrupt(format!("envelope: {e}")))?;
    if envelope.version != SNAPSHOT_VERSION {
        return Err(RecoveryError::VersionMismatch {
            found: envelope.version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let found = fnv1a64(envelope.payload.as_bytes());
    if found != envelope.checksum {
        return Err(RecoveryError::ChecksumMismatch { expected: envelope.checksum, found });
    }
    serde_json::from_str(&envelope.payload)
        .map_err(|e| RecoveryError::Corrupt(format!("payload: {e}")))
}

/// A directory holding the controller's durable state: `snapshot.json`
/// (checksummed envelope, atomically replaced at each checkpoint) and
/// `unified.jsonl` (the unified log's append-only durable journal), plus
/// `unified.jsonl.unfolded` once a restart has set aside a journal it could
/// not fold.
#[derive(Debug, Clone)]
pub struct RecoveryStore {
    dir: PathBuf,
}

impl RecoveryStore {
    /// Opens (creating if needed) a store at `dir`.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Io`] if the directory cannot be created.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self, RecoveryError> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(RecoveryStore { dir: dir.as_ref().to_path_buf() })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the snapshot envelope.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.json")
    }

    /// Path of the durable unified golden-thread event journal (feed this
    /// to `OsmlScheduler::attach_unified_journal`).
    pub fn unified_path(&self) -> PathBuf {
        self.dir.join("unified.jsonl")
    }

    /// Persists a snapshot crash-atomically (temp file + rename): a kill at
    /// any instant leaves the previous snapshot intact.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Io`] on write failure.
    pub fn save_snapshot(&self, snapshot: &SchedulerSnapshot) -> Result<(), RecoveryError> {
        osml_ml::store::write_atomic(&self.snapshot_path(), &encode_snapshot(snapshot))?;
        Ok(())
    }

    /// Loads the most recent snapshot. `Ok(None)` means no snapshot exists
    /// (first boot); a snapshot that exists but fails verification is an
    /// error — the caller decides to cold-start, this layer never guesses.
    ///
    /// # Errors
    ///
    /// Everything [`decode_snapshot`] reports, plus [`RecoveryError::Io`]
    /// for unreadable files.
    pub fn load_snapshot(&self) -> Result<Option<SchedulerSnapshot>, RecoveryError> {
        let path = self.snapshot_path();
        if !path.exists() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&path)?;
        decode_snapshot(&text).map(Some)
    }

    /// Where a restart moves a journal it could not fold.
    pub(crate) fn unfolded_path(&self) -> PathBuf {
        self.dir.join("unified.jsonl.unfolded")
    }

    /// Reads the durable unified event journal, oldest first, and whether
    /// the file is *damaged*: it holds a whole line the read could not use.
    /// A missing or unreadable file is an empty log; a torn tail (the crash
    /// shape the per-event flush guarantees) is dropped, keeping the
    /// committed prefix, and is no damage — attaching the journal cuts it
    /// off. A damaged line stops the read there, and whatever follows it is
    /// dropped too; an event appended behind it would never be read again,
    /// so `OsmlScheduler::recover` sets a damaged file aside. A journal
    /// written by a foreign `UNIFIED_LOG_VERSION` reads as empty and
    /// damaged — recovery resumes from the snapshot's checkpoint alone
    /// rather than folding events it cannot interpret.
    pub(crate) fn read_unified(&self) -> (Vec<UnifiedEvent>, bool) {
        let Ok(text) = std::fs::read_to_string(self.unified_path()) else {
            return (Vec::new(), false);
        };
        match UnifiedLog::from_jsonl_tolerant(&text) {
            // Whole lines beyond the header and the events read: damage.
            Ok((log, _)) => {
                let damaged = text.matches('\n').count() > log.len() + 1;
                (log.events().to_vec(), damaged)
            }
            Err(_) => (Vec::new(), true),
        }
    }

    /// Moves the journal to [`RecoveryStore::unfolded_path`] (replacing an
    /// earlier one there), so a new journal starts and the old bytes stay.
    ///
    /// # Errors
    ///
    /// The rename's.
    pub(crate) fn set_aside_unified(&self) -> std::io::Result<()> {
        std::fs::rename(self.unified_path(), self.unfolded_path())
    }
}

/// A scratch directory for one run's durable state: unique per process
/// *and* per call — two same-seed runs on two threads must not share a
/// store — and removed when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh path under the system's temporary directory; nothing is
    /// created until a store is opened on it.
    pub fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let call = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("osml-{tag}-{}-{call}", std::process::id()));
        // A leftover of a dead process that had this pid.
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How `OsmlScheduler::recover` rebuilt the controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecoveryMode {
    /// A verified snapshot was restored and the journal suffix folded onto
    /// its checkpoint.
    Warm,
    /// No usable snapshot — every running service was adopted cold.
    Cold {
        /// Why the snapshot was unusable (`"no snapshot"`, checksum
        /// mismatch, version mismatch, …).
        reason: String,
    },
}

/// What reconciliation found and did during `OsmlScheduler::recover`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Warm (snapshot + journal) or cold (adopt-everything) restart.
    pub mode: RecoveryMode,
    /// Services restored from their snapshot records.
    pub restored: usize,
    /// Orphaned services found on the substrate with no snapshot record
    /// (launched while the controller was down) and adopted.
    pub adopted: usize,
    /// Snapshot records whose service no longer runs (departed while the
    /// controller was down) and were dropped.
    pub dropped: usize,
    /// Restored services whose in-flight pending action was abandoned.
    pub pending_abandoned: usize,
    /// Restored services whose live allocation differed from the layout
    /// the log folds to (mutated underneath the dead controller). The
    /// substrate value wins.
    pub alloc_drift: usize,
    /// Services whose live layout was invalid (overlapping cores, malformed
    /// masks) and was repaired during reconciliation.
    pub drift_repaired: usize,
    /// Unified-journal events past the snapshot's checkpoint, folded onto
    /// it and appended to the restored log.
    pub journal_replayed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{slo_class_of, Host, Seat, Submission};
    use osml_workloads::oaa::AllocPoint;
    use proptest::prelude::*;

    fn sample(latency_ms: f64) -> CounterSample {
        CounterSample {
            ipc: 1.2,
            llc_misses_per_sec: 3.0e7,
            mbl_gbps: 4.0,
            cpu_usage: 3.5,
            memory_util_gb: 2.0,
            virt_memory_gb: 3.0,
            res_memory_gb: 1.5,
            llc_occupancy_mb: 12.0,
            allocated_cores: 8,
            allocated_ways: 6,
            frequency_ghz: 2.3,
            response_latency_ms: latency_ms,
        }
    }

    /// Deterministic-but-varied app snapshot (drives structural coverage:
    /// options, tuples, enums, nested vecs).
    fn app(id: u64) -> AppSnapshot {
        let k = id as usize;
        AppSnapshot {
            id,
            class: match id % 3 {
                0 => SloClass::LatencyCritical,
                1 => SloClass::Degradable,
                _ => SloClass::BestEffort,
            },
            prediction: OaaPrediction::new(
                AllocPoint::new(1 + k % 16, 1 + k % 11),
                0.1 * k as f64,
                AllocPoint::new(1 + k % 4, 1 + k % 3),
            ),
            had_pending: k.is_multiple_of(2),
            reclaim_cooldown: k % 10,
            blocked: (0..k % 3)
                .map(|i| (Action { dcores: (i as i32) - 1, dways: 1 }, 5 + i))
                .collect(),
            reclaim_floor: (k % 4 == 1).then(|| (1 + k % 6, 1 + k % 6, 0.5 * k as f64)),
            migration_requested: k.is_multiple_of(5),
            violation_ticks: k % 7,
            last_good: (k % 2 == 1).then(|| sample(10.0 + k as f64)),
            failed_ml_actions: (k % 4) as u32,
            fallback: k.is_multiple_of(6),
            fallback_ok_ticks: (k % 3) as u32,
        }
    }

    fn snapshot_from(ticks: u64, napps: usize, faulty: bool) -> SchedulerSnapshot {
        let mut state = ReplayState {
            tick: ticks,
            actions: (ticks as usize) * 2 + napps,
            layouts: (0..napps)
                .filter(|k| !k.is_multiple_of(3))
                .map(|k| {
                    let alloc = osml_platform::Allocation::new(
                        osml_platform::CoreSet::first_n(1 + k % 8),
                        osml_platform::WayMask::contiguous(k % 5, 1 + k % 6).unwrap(),
                        osml_platform::MbaThrottle::unthrottled(),
                    );
                    (k as u64, alloc)
                })
                .collect(),
            ..ReplayState::default()
        };
        if faulty {
            state.queue.push(crate::admission::QueuedEntry {
                ticket: 900 + ticks,
                class: SloClass::Degradable,
                enqueued_tick: ticks.saturating_sub(2),
                seq: 0,
                need_cores: 4,
                need_ways: 2,
            });
            state.brownout_since = Some(ticks.saturating_sub(1));
        }
        SchedulerSnapshot {
            config: OsmlConfig { sampling_window_s: 1.0 + ticks as f64, ..OsmlConfig::default() },
            last_fault_s: faulty.then_some(ticks as f64 * 0.5),
            persistent_failures: (ticks % 5) as u32,
            apps: (0..napps as u64).map(app).collect(),
            state,
            last_seq: (ticks > 0).then_some(3 * ticks),
            next_seq: u64::from(faulty),
            retry_credits: (ticks % 4) as u32,
            exit_streak: (ticks % 3) as u32,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// serialize → checksum → deserialize is the identity.
        #[test]
        fn snapshot_round_trips(ticks in 0u64..100_000, napps in 0usize..9, f in 0u8..2) {
            let snap = snapshot_from(ticks, napps, f == 1);
            let decoded = decode_snapshot(&encode_snapshot(&snap)).expect("round trip");
            prop_assert_eq!(decoded, snap);
        }

        /// A corrupted envelope is always *detected*: decoding either fails
        /// typed, or (vacuously) still equals the original — it never
        /// half-parses into a different valid snapshot.
        #[test]
        fn corruption_is_detected_never_misparsed(
            ticks in 0u64..10_000,
            napps in 1usize..6,
            pos_seed in 0usize..1_000_000,
            byte in 0u8..94,
        ) {
            let snap = snapshot_from(ticks, napps, true);
            let text = encode_snapshot(&snap);
            let bytes = text.as_bytes();
            let pos = pos_seed % bytes.len();
            let replacement = b' ' + byte; // printable ASCII, keeps UTF-8 valid
            prop_assume!(replacement != bytes[pos]);
            let mut corrupted = bytes.to_vec();
            corrupted[pos] = replacement;
            let corrupted = String::from_utf8(corrupted).expect("ascii substitution");
            match decode_snapshot(&corrupted) {
                Err(_) => {}
                Ok(decoded) => prop_assert_eq!(
                    decoded, snap,
                    "a corrupt snapshot decoded into *different* state"
                ),
            }
        }

        /// Truncation (the torn-write shape a crash produces) never parses.
        #[test]
        fn truncation_is_detected(ticks in 0u64..10_000, keep_per_mille in 0usize..1000) {
            let snap = snapshot_from(ticks, 3, false);
            let text = encode_snapshot(&snap);
            let keep = text.len() * keep_per_mille / 1000;
            prop_assume!(keep < text.len());
            let truncated: String = text.chars().take(keep).collect();
            prop_assert!(decode_snapshot(&truncated).is_err());
        }
    }

    #[test]
    fn store_persists_and_reloads() {
        let scratch = ScratchDir::new("recovery");
        let store = RecoveryStore::open(scratch.path()).unwrap();
        assert!(store.load_snapshot().unwrap().is_none(), "first boot has no snapshot");
        let snap = snapshot_from(42, 4, true);
        store.save_snapshot(&snap).unwrap();
        assert_eq!(store.load_snapshot().unwrap(), Some(snap.clone()));
        // Overwrite with a newer snapshot; the newest wins.
        let newer = snapshot_from(43, 4, true);
        store.save_snapshot(&newer).unwrap();
        assert_eq!(store.load_snapshot().unwrap(), Some(newer));
    }

    #[test]
    fn scratch_dirs_are_unique_per_call_and_removed_on_drop() {
        let (a, b) = (ScratchDir::new("same-tag"), ScratchDir::new("same-tag"));
        assert_ne!(a.path(), b.path());
        RecoveryStore::open(a.path()).unwrap();
        let path = a.path().to_path_buf();
        assert!(path.exists());
        drop(a);
        assert!(!path.exists());
    }

    #[test]
    fn tampered_snapshot_file_is_rejected() {
        let scratch = ScratchDir::new("recovery-tamper");
        let store = RecoveryStore::open(scratch.path()).unwrap();
        store.save_snapshot(&snapshot_from(7, 2, false)).unwrap();
        // Inside the envelope the payload is an escaped JSON string, so the
        // field appears as `\"tick\":7`.
        let text = std::fs::read_to_string(store.snapshot_path()).unwrap();
        assert!(text.contains("\\\"tick\\\":7"), "tamper target must exist");
        std::fs::write(store.snapshot_path(), text.replace("\\\"tick\\\":7", "\\\"tick\\\":9"))
            .unwrap();
        assert!(matches!(store.load_snapshot(), Err(RecoveryError::ChecksumMismatch { .. })));
    }

    #[test]
    fn a_snapshot_cannot_carry_an_allocation_the_hardware_would_refuse() {
        // 0b101 is no CAT mask and 255 % no MBA level. The envelope is
        // re-sealed around the edited payload, so only the decoder of the
        // allocation itself stands between the file and the controller.
        let snap = snapshot_from(3, 2, false);
        let held = snap.state.layouts[&1];
        let payload = serde_json::to_string(&snap)
            .unwrap()
            .replace(&serde_json::to_string(&held).unwrap(), r#"{"cores":1,"ways":5,"mba":255}"#);
        assert!(payload.contains("\"ways\":5"), "the edit must land");
        let envelope = SnapshotEnvelope {
            version: SNAPSHOT_VERSION,
            checksum: fnv1a64(payload.as_bytes()),
            payload,
        };
        match decode_snapshot(&serde_json::to_string(&envelope).unwrap()) {
            Err(RecoveryError::Corrupt(why)) => assert!(why.contains("way mask 0b101"), "{why}"),
            other => panic!("decoded an invalid allocation: {other:?}"),
        }
    }

    /// A journal that does not fold — here an allocation for a service no
    /// fact launched — counts as absent: the restart's log starts empty, and
    /// a new file starts with it instead of taking events behind a log with
    /// other sequence numbers. The old file is moved aside, byte for byte.
    #[test]
    fn a_journal_that_does_not_fold_is_set_aside_and_starts_over_with_the_log() {
        use osml_platform::Scheduler as _;
        let scratch = ScratchDir::new("recovery-unfolded");
        let store = RecoveryStore::open(scratch.path()).unwrap();
        let mut log = UnifiedLog::new();
        log.attach_journal(&store.unified_path()).unwrap();
        let post = osml_platform::Allocation::new(
            osml_platform::CoreSet::first_n(2),
            osml_platform::WayMask::first_n(2),
            osml_platform::MbaThrottle::unthrottled(),
        );
        let alloc = crate::golden::Decision::Alloc {
            kind: crate::golden::ActionKind::Place,
            provenance: crate::golden::Provenance::ModelA,
            pre: None,
            post,
            counts_as_action: true,
        };
        log.push(0, 0.0, Some(9), crate::golden::EventBody::Decision(alloc));
        drop(log);
        let unfolded = std::fs::read_to_string(store.unified_path()).unwrap();
        let (recovered, report) = crate::OsmlScheduler::recover(
            crate::Models::untrained(1),
            OsmlConfig::default(),
            &store,
            &mut osml_workloads::SimServer::deterministic(),
        );
        assert_eq!((report.journal_replayed, recovered.action_count()), (0, 0));
        let log = recovered.unified_log();
        assert_eq!(log.len(), 2, "the crash and the restart alone");
        assert_eq!(std::fs::read_to_string(store.unified_path()).unwrap(), log.to_jsonl());
        assert_eq!(std::fs::read_to_string(store.unfolded_path()).unwrap(), unfolded);
        assert!(!store.snapshot_path().exists(), "a cold restart writes no checkpoint");
    }

    /// A host journaling into `store` with one service submitted and
    /// `ticks` ticks run, checkpointed.
    fn journaled_host(store: &RecoveryStore, ticks: usize) -> Host<osml_workloads::SimServer> {
        let mut scheduler =
            crate::OsmlScheduler::new(crate::Models::untrained(1), OsmlConfig::default());
        scheduler.attach_unified_journal(&store.unified_path()).unwrap();
        let mut host = Host::new(osml_workloads::SimServer::deterministic(), scheduler);
        let spec =
            osml_workloads::LaunchSpec::at_percent_load(osml_workloads::Service::Moses, 30.0);
        let sub = Submission { workload: 0, spec, class: slo_class_of(spec.service) };
        assert!(matches!(host.submit(sub, crate::LaunchCause::Scripted), Seat::Live(_)));
        for _ in 0..ticks {
            host.step(|parked| parked);
        }
        host.checkpoint(store);
        host
    }

    /// Rewrites the journal's header as another log version would have
    /// written it; returns the new bytes.
    fn make_journal_foreign(store: &RecoveryStore) -> String {
        let text = std::fs::read_to_string(store.unified_path()).unwrap();
        let header = format!("\"unified_log_version\":{}", crate::golden::UNIFIED_LOG_VERSION);
        let foreign = text.replacen(&header, "\"unified_log_version\":99", 1);
        assert_ne!(foreign, text, "the header must name its version");
        std::fs::write(store.unified_path(), &foreign).unwrap();
        foreign
    }

    #[test]
    fn a_foreign_journal_behind_a_warm_checkpoint_survives_the_restart() {
        let scratch = ScratchDir::new("recovery-foreign-journal");
        let store = RecoveryStore::open(scratch.path()).unwrap();
        let mut host = journaled_host(&store, 3);
        assert!(store.load_snapshot().unwrap().unwrap().last_seq.is_some());
        let foreign = make_journal_foreign(&store);
        let report =
            host.kill_and_recover(crate::Models::untrained(1), OsmlConfig::default(), &store);
        assert_eq!((report.mode, report.journal_replayed), (RecoveryMode::Warm, 0));
        assert_eq!(std::fs::read_to_string(store.unfolded_path()).unwrap(), foreign);
        assert_eq!(
            std::fs::read_to_string(store.unified_path()).unwrap(),
            host.scheduler.unified_log().to_jsonl()
        );
    }

    /// The first restart sets aside a journal that does not fold and starts
    /// a new log from seq 0. The second must fold that new journal onto a
    /// checkpoint of it — whether the new log is shorter than the old
    /// checkpoint's position or longer — not onto the checkpoint the first
    /// restart started from.
    #[test]
    fn a_second_crash_folds_the_journal_the_first_restart_began() {
        let mut passed_old_checkpoint = Vec::new();
        for ticks_between in [1, 30] {
            let scratch = ScratchDir::new("recovery-two-crashes");
            let store = RecoveryStore::open(scratch.path()).unwrap();
            let mut host = journaled_host(&store, 3);
            let old_last_seq = store.load_snapshot().unwrap().unwrap().last_seq.unwrap();
            host.step(|parked| parked);
            make_journal_foreign(&store);
            host.kill_and_recover(crate::Models::untrained(1), OsmlConfig::default(), &store);
            let at_restart = host.scheduler.unified_log().len();
            for _ in 0..ticks_between {
                host.step(|parked| parked);
            }
            let before_kill = host.scheduler.unified_log().clone();
            let live = host.scheduler.live_replay_state(&host.machine);
            passed_old_checkpoint.push(before_kill.last_seq().unwrap() > old_last_seq);

            let report =
                host.kill_and_recover(crate::Models::untrained(1), OsmlConfig::default(), &store);
            assert_eq!(report.mode, RecoveryMode::Warm, "{ticks_between} ticks");
            assert_eq!(report.journal_replayed, before_kill.len() - at_restart);
            let restored = host.scheduler.live_replay_state(&host.machine);
            assert_eq!(restored, live, "{ticks_between} ticks");
            let log = host.scheduler.unified_log();
            assert_eq!(&log.events()[..before_kill.len()], before_kill.events());
            assert_eq!(std::fs::read_to_string(store.unified_path()).unwrap(), log.to_jsonl());
        }
        assert_eq!(passed_old_checkpoint, [false, true], "both shapes of the second crash");
    }

    /// A journal damaged mid-file whose readable prefix still folds is
    /// restored as that prefix, and the file is set aside and rewritten as
    /// the restored log — not appended to behind the damaged line, where no
    /// read would find what the restart goes on to write.
    #[test]
    fn a_journal_damaged_mid_file_is_set_aside_and_rewritten_as_the_log() {
        let scratch = ScratchDir::new("recovery-damaged-journal");
        let store = RecoveryStore::open(scratch.path()).unwrap();
        let mut host = journaled_host(&store, 3);
        let covered = host.scheduler.unified_log().len();
        for _ in 0..4 {
            host.step(|parked| parked);
        }
        // The header, the checkpoint's events, one event of the suffix, then
        // the damaged line, with whole lines behind it.
        let text = std::fs::read_to_string(store.unified_path()).unwrap();
        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
        let target = covered + 2;
        assert!(target + 1 < lines.len(), "lines must follow the damaged one");
        lines[target] = "{\"seq\":\n";
        let damaged = lines.concat();
        std::fs::write(store.unified_path(), &damaged).unwrap();

        let report =
            host.kill_and_recover(crate::Models::untrained(1), OsmlConfig::default(), &store);
        assert_eq!((report.mode, report.journal_replayed), (RecoveryMode::Warm, 1));
        assert_eq!(std::fs::read_to_string(store.unfolded_path()).unwrap(), damaged);
        let at_restart = host.scheduler.unified_log().len();
        assert_eq!(
            std::fs::read_to_string(store.unified_path()).unwrap(),
            host.scheduler.unified_log().to_jsonl()
        );

        // The second crash folds the journal the first restart began.
        for _ in 0..3 {
            host.step(|parked| parked);
        }
        let before_kill = host.scheduler.unified_log().clone();
        let live = host.scheduler.live_replay_state(&host.machine);
        let report =
            host.kill_and_recover(crate::Models::untrained(1), OsmlConfig::default(), &store);
        assert_eq!(report.mode, RecoveryMode::Warm);
        assert_eq!(report.journal_replayed, before_kill.len() - at_restart);
        assert_eq!(host.scheduler.live_replay_state(&host.machine), live);
        let log = host.scheduler.unified_log();
        assert_eq!(&log.events()[..before_kill.len()], before_kill.events());
        assert_eq!(std::fs::read_to_string(store.unified_path()).unwrap(), log.to_jsonl());
    }

    #[test]
    fn foreign_version_is_rejected() {
        let snap = snapshot_from(1, 1, false);
        // 4 is the last version that carried the legacy decision log, 5 the
        // last that carried a copy of the unified log.
        for foreign in [4, 5, 99] {
            let text = encode_snapshot(&snap).replacen(
                &format!("\"version\":{SNAPSHOT_VERSION}"),
                &format!("\"version\":{foreign}"),
                1,
            );
            assert!(matches!(
                decode_snapshot(&text),
                Err(RecoveryError::VersionMismatch { found, expected: SNAPSHOT_VERSION })
                    if found == foreign
            ));
        }
    }
}
