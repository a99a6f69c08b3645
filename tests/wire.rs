//! Every decoder of a file this program writes, against input nobody wrote
//! on purpose: arbitrary bytes, and the wire fixtures (`tests/fixtures/wire`)
//! with one byte changed. The contract (ROADMAP 4d): a typed error or a
//! valid value — never a panic, never a stack overflow — and a damaged file
//! that still decodes holds a value that survives its own round trip.

use osml::ml::dqn::CheckpointError;
use osml::ml::store::{ModelStore, StoreError};
use osml::platform::{Allocation, CoreSet, MbaThrottle, Substrate, WayMask};
use osml::scheduler::recovery::{decode_snapshot, encode_snapshot, fnv1a64};
use osml::scheduler::{
    Models, OsmlConfig, OsmlScheduler, RecoveryError, RecoveryMode, RecoveryReport, RecoveryStore,
    ScratchDir, UnifiedEvent, UnifiedLog,
};
use osml::workloads::{LaunchSpec, Service, SimServer};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// The snapshot fixture pair, as `(envelope, indented)`.
const SNAPSHOT_PAIR: (&str, &str) = ("snapshot.v6.json", "snapshot.v6.pretty.json");

/// An envelope of the last version that carried a copy of the log
/// (`SNAPSHOT_VERSION` 5), which this build refuses.
const FOREIGN_SNAPSHOT: &str = "snapshot.v5c.json";

fn wire(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire").join(name);
    std::fs::read_to_string(path).expect("wire fixture is readable")
}

/// `text` with the byte at `at % len` replaced (lossily re-read as UTF-8,
/// as a file with a flipped byte would be).
fn mutated(text: &str, at: usize, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = at % bytes.len();
    bytes[at] = byte;
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Half the draws come from the characters JSON is made of, so that random
/// input gets past the first token often enough to matter.
fn json_ish(raw: Vec<u16>) -> Vec<u8> {
    const ALPHABET: &[u8] = b"{}[]\",:\\ 0123456789.-+eEntrufalsu\n";
    raw.into_iter()
        .map(|x| if x < 256 { x as u8 } else { ALPHABET[usize::from(x) % ALPHABET.len()] })
        .collect()
}

/// A scratch store directory per test (tests run in parallel).
fn scratch_store(tag: &str) -> (PathBuf, ModelStore) {
    let dir = std::env::temp_dir().join(format!("osml-wire-{tag}-{}", std::process::id()));
    let store = ModelStore::open(&dir).expect("scratch store opens");
    (dir, store)
}

/// Decodes `text` every way an event line is decoded; a line that decodes
/// must re-encode to one that decodes to the same event.
fn check_event_line(text: &str) -> Result<(), String> {
    let _ = UnifiedLog::from_jsonl_tolerant(text);
    if let Ok(event) = serde_json::from_str::<UnifiedEvent>(text) {
        let again = serde_json::to_string(&event).expect("event encodes");
        if serde_json::from_str::<UnifiedEvent>(&again).as_ref() != Ok(&event) {
            return Err(format!("{text:?} decodes, but not to what {again:?} decodes to"));
        }
    }
    Ok(())
}

fn check_snapshot(text: &str) -> Result<(), String> {
    if let Ok(snapshot) = decode_snapshot(text) {
        match decode_snapshot(&encode_snapshot(&snapshot)) {
            Ok(again) if again == snapshot => {}
            other => return Err(format!("re-encoded snapshot decodes to {other:?}")),
        }
    }
    Ok(())
}

/// Puts `bytes` where the store keeps a model and an agent, loads both, runs
/// a forward pass through a model that loaded, and saves and reloads
/// whatever loaded.
fn check_store(store: &ModelStore, dir: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(dir.join("m.json"), bytes).expect("scratch file is writable");
    std::fs::write(dir.join("m.agent.json"), bytes).expect("scratch file is writable");
    if let Ok(mlp) = store.load("m") {
        // A model that loads can be run: the shapes were checked at load.
        let out = mlp.forward(&vec![0.5; mlp.input_size()]);
        if out.len() != mlp.output_size() {
            return Err(format!(
                "a {}-output model answered {} values",
                mlp.output_size(),
                out.len()
            ));
        }
        store.save("again", &mlp).expect("a loaded model saves");
        if store.load("again").ok().as_ref() != Some(&mlp) {
            return Err("a model that loaded does not survive save + load".into());
        }
    }
    if let Ok(agent) = store.load_agent("m") {
        store.save_agent("again", &agent).expect("a loaded agent saves");
        if store.load_agent("again").ok().as_ref() != Some(&agent) {
            return Err("an agent that loaded does not survive save + load".into());
        }
    }
    Ok(())
}

/// Restarts a controller from `envelope` alone, on `machine`.
fn recover_from(envelope: &str, machine: &mut SimServer) -> RecoveryReport {
    let dir = ScratchDir::new("wire-recover");
    let store = RecoveryStore::open(dir.path()).expect("scratch store opens");
    std::fs::write(store.snapshot_path(), envelope).expect("snapshot is writable");
    let (_, report) =
        OsmlScheduler::recover(Models::untrained(7), OsmlConfig::default(), &store, machine);
    report
}

/// A snapshot on disk whose config names keys this program no longer has
/// must still warm-restart the controller, not fall back to a cold start.
/// The machine it restarts on is empty, so every service it remembers is
/// dropped.
#[test]
fn a_snapshot_carrying_retired_keys_still_warm_restarts() {
    let text = wire(SNAPSHOT_PAIR.0);
    let snapshot = decode_snapshot(&text).expect("snapshot decodes");
    assert!(!snapshot.apps.is_empty(), "the fixture remembers services");
    // The same state as a build that still had `OsmlConfig::event_driven`
    // would have sealed it.
    let payload = serde_json::to_string(&snapshot).expect("snapshot encodes");
    let config_tail = "\"strict_layout\":true}";
    assert_eq!(payload.matches(config_tail).count(), 1);
    let payload = payload.replacen(config_tail, "\"strict_layout\":true,\"event_driven\":true}", 1);
    let retired = format!(
        "{{\"version\":6,\"checksum\":{},\"payload\":{}}}",
        fnv1a64(payload.as_bytes()),
        serde_json::to_string(&payload).expect("a string encodes")
    );
    assert_eq!(decode_snapshot(&retired).expect("the retired key is skipped"), snapshot);
    for text in [text, retired] {
        let report = recover_from(&text, &mut SimServer::deterministic());
        assert_eq!(report.mode, RecoveryMode::Warm);
        assert_eq!(report.dropped, snapshot.apps.len());
    }
}

/// A snapshot from the last version that carried a copy of the log is
/// refused by name, and the restart adopts every service the machine runs.
#[test]
fn a_v5_snapshot_is_refused_and_every_live_service_adopted() {
    let text = wire(FOREIGN_SNAPSHOT);
    assert!(matches!(
        decode_snapshot(&text),
        Err(RecoveryError::VersionMismatch { found: 5, expected: 6 })
    ));
    let mut machine = SimServer::deterministic();
    let services = [Service::Moses, Service::ImgDnn, Service::Xapian];
    for (i, service) in services.into_iter().enumerate() {
        let cores = CoreSet::from_cores(4 * i..4 * i + 4);
        let alloc = Allocation::new(
            cores,
            WayMask::contiguous(2 * i, 2).expect("fits"),
            MbaThrottle::unthrottled(),
        );
        machine.launch(LaunchSpec::at_percent_load(service, 20.0), alloc).expect("fits");
    }
    machine.advance(1.0);
    let report = recover_from(&text, &mut machine);
    let RecoveryMode::Cold { reason } = &report.mode else {
        panic!("a v5 snapshot must cold-start, got {:?}", report.mode);
    };
    assert!(reason.contains("version 5"), "{reason}");
    assert_eq!((report.restored, report.adopted, report.dropped), (0, services.len(), 0));
}

#[test]
fn nesting_past_the_limit_is_a_typed_error_everywhere() {
    let (dir, store) = scratch_store("deep");
    let unknown_field = |open: &str| {
        format!(
            "{{\"seq\":0,\"tick\":0,\"time_s\":0.0,\"app\":null,\"extra\":{}",
            open.repeat(200_000)
        )
    };
    for text in [
        "[".repeat(200_000),
        "{\"a\":".repeat(200_000),
        unknown_field("["),
        unknown_field("{\"a\":"),
    ] {
        assert!(serde_json::from_str::<UnifiedEvent>(&text).is_err());
        assert!(decode_snapshot(&text).is_err());
        check_store(&store, &dir, text.as_bytes()).unwrap();
        assert!(store.load("m").is_err() && store.load_agent("m").is_err());
    }
    // 128 levels of an unknown field are skipped; 129 are refused.
    let event = |depth: usize| {
        format!(
            "{{\"x\":{}{},\"seq\":0,\"tick\":0,\"time_s\":0.0,\"app\":null,\"body\":{{\"World\":\"TickElapsed\"}}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        )
    };
    assert!(
        serde_json::from_str::<UnifiedEvent>(&event(127)).is_ok(),
        "127 + the event's own level"
    );
    assert!(serde_json::from_str::<UnifiedEvent>(&event(128)).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(raw in proptest::collection::vec(0u16..512, 0..200)) {
        let bytes = json_ish(raw);
        let text = String::from_utf8_lossy(&bytes);
        check_event_line(&text).unwrap();
        check_snapshot(&text).unwrap();
        let (dir, store) = scratch_store("bytes");
        check_store(&store, &dir, &bytes).unwrap();
    }

    #[test]
    fn a_mutated_event_line_is_an_error_or_a_stable_value(
        line in 0usize..1_000,
        at in 0usize..1_000_000,
        byte in 0u16..256,
    ) {
        let text = wire("unified.jsonl");
        let lines: Vec<&str> = text.lines().collect();
        check_event_line(&mutated(lines[line % lines.len()], at, byte as u8)).unwrap();
    }

    #[test]
    fn a_mutated_log_yields_a_prefix_of_the_log(at in 0usize..1_000_000, byte in 0u16..256) {
        let text = wire("unified.jsonl");
        let (whole, _) = UnifiedLog::from_jsonl_tolerant(&text).expect("known version");
        if let Ok((log, _)) = UnifiedLog::from_jsonl_tolerant(&mutated(&text, at, byte as u8)) {
            // Everything before the damaged line is kept as it was; the
            // damaged line itself may survive as a different valid event.
            let intact = log.len().saturating_sub(1).min(whole.len());
            prop_assert_eq!(&log.events()[..intact], &whole.events()[..intact]);
        }
    }

    #[test]
    fn a_mutated_snapshot_is_an_error_or_a_stable_value(at in 0usize..1_000_000, byte in 0u16..256) {
        for envelope in [SNAPSHOT_PAIR.0, FOREIGN_SNAPSHOT] {
            check_snapshot(&mutated(&wire(envelope), at, byte as u8)).unwrap();
        }
        // The indented file has no checksum to stop a mutation early.
        let pretty = mutated(&wire(SNAPSHOT_PAIR.1), at, byte as u8);
        if let Ok(snapshot) = serde_json::from_str::<osml::scheduler::SchedulerSnapshot>(&pretty) {
            prop_assert_eq!(decode_snapshot(&encode_snapshot(&snapshot)).ok(), Some(snapshot));
        }
    }

    #[test]
    fn a_mutated_model_file_is_an_error_or_a_stable_value(at in 0usize..1_000_000, byte in 0u16..256) {
        let (dir, store) = scratch_store("mutated");
        for name in ["model.json", "agent.agent.json"] {
            check_store(&store, &dir, mutated(&wire(name), at, byte as u8).as_bytes()).unwrap();
        }
    }

    /// The experience pool keeps its tuples in flat rows of one width; only
    /// a file can hold a tuple of another. One pooled state made a float
    /// longer, a float shorter or empty must be refused by name and index at
    /// load — not panic, not be read at the wrong stride — and stay an error
    /// or a stable value under one more damaged byte anywhere.
    #[test]
    fn a_pooled_tuple_of_another_width_is_a_typed_error(
        array in 0usize..8,
        edit in 0usize..3,
        at in 0usize..1_000_000,
        byte in 0u16..256,
    ) {
        let text = wire("agent.agent.json");
        // The fixture pools four tuples: eight arrays, two per tuple.
        let mut arrays: Vec<usize> = ["\"state\":[", "\"next_state\":["]
            .iter()
            .flat_map(|key| text.match_indices(key).map(|(at, _)| at + key.len()))
            .collect();
        arrays.sort_unstable();
        prop_assert_eq!(arrays.len(), 8);
        let start = arrays[array];
        let end = start + text[start..].find(']').expect("the array closes");
        let resized = match edit {
            0 => format!("{},0.5", &text[start..end]),
            1 => text[start..end].split_once(',').expect("three floats").1.to_owned(),
            _ => String::new(),
        };
        let torn = format!("{}{resized}{}", &text[..start], &text[end..]);
        let (dir, store) = scratch_store("row");
        std::fs::write(dir.join("m.agent.json"), &torn).expect("scratch file is writable");
        match store.load_agent("m") {
            Err(StoreError::InvalidCheckpoint(CheckpointError::StateWidth { index })) => {
                prop_assert_eq!(index, array / 2);
            }
            other => panic!("expected a StateWidth error, got {other:?}"),
        }
        check_store(&store, &dir, mutated(&torn, at, byte as u8).as_bytes()).unwrap();
    }

    #[test]
    fn a_mutated_number_line_is_an_error_or_a_stable_value(
        line in 0usize..7,
        at in 0usize..1_000_000,
        byte in 0u16..256,
    ) {
        let text = wire("numbers.jsonl");
        let line = mutated(text.lines().nth(line).expect("seven lines"), at, byte as u8);
        macro_rules! stable {
            ($t:ty) => {
                if let Ok(value) = serde_json::from_str::<$t>(&line) {
                    let again = serde_json::to_string(&value).expect("encodes");
                    prop_assert_eq!(serde_json::from_str::<$t>(&again).ok(), Some(value), "{}", line);
                }
            };
        }
        stable!(Vec<u64>);
        stable!(Vec<i64>);
        stable!(Vec<Option<f64>>);
        stable!(Vec<f32>);
        stable!(String);
    }
}
