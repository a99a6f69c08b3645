//! Model persistence: save and load trained networks as versioned JSON.
//!
//! The paper trains for nine months and ships frozen TensorFlow graphs to
//! the scheduler host; the equivalent here is a [`ModelStore`] directory of
//! JSON-serialized [`Mlp`]s with a format-version guard, so a trained suite
//! survives process restarts and can be shipped between machines.

use crate::dqn::{CheckpointError, DqnCheckpoint};
use crate::Mlp;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

/// Format version written into every stored model; bumped on breaking
/// changes to the network serialization.
pub(crate) const STORE_VERSION: u32 = 1;

/// Errors from [`ModelStore`] operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not valid model JSON.
    Parse(serde_json::Error),
    /// The file was written by an incompatible store version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The model name is empty or contains a path separator — accepting it
    /// would let a caller-supplied name escape the store directory.
    InvalidName {
        /// The rejected name.
        name: String,
    },
    /// The model file parses, but a forward pass through it would index out
    /// of bounds: it has no layers, a weight buffer or bias does not match
    /// its layer's dimensions, or consecutive layers disagree on the width
    /// between them.
    InvalidModel {
        /// The first layer that fails (0 for a network with no layers).
        layer: usize,
    },
    /// The agent file parses, but its fields disagree with one another
    /// (shapes, pool cursor, action range): restoring it would panic or
    /// mis-train in some later tick.
    InvalidCheckpoint(CheckpointError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "model store i/o error: {e}"),
            StoreError::Parse(e) => write!(f, "model store parse error: {e}"),
            StoreError::VersionMismatch { found, expected } => {
                write!(f, "model store version {found} incompatible with expected {expected}")
            }
            StoreError::InvalidName { name } => {
                write!(f, "invalid model name {name:?}: must be non-empty, no path separators")
            }
            StoreError::InvalidModel { layer } => {
                write!(f, "invalid model: layer {layer}'s buffers do not match the network's shape")
            }
            StoreError::InvalidCheckpoint(e) => write!(f, "invalid agent checkpoint: {e}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Parse(e) => Some(e),
            StoreError::InvalidCheckpoint(e) => Some(e),
            StoreError::VersionMismatch { .. }
            | StoreError::InvalidName { .. }
            | StoreError::InvalidModel { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<serde_json::Error> for StoreError {
    fn from(e: serde_json::Error) -> Self {
        StoreError::Parse(e)
    }
}

#[derive(Serialize, Deserialize)]
struct StoredModel {
    version: u32,
    name: String,
    mlp: Mlp,
}

#[derive(Serialize, Deserialize)]
struct StoredAgent {
    version: u32,
    name: String,
    agent: DqnCheckpoint,
}

/// Checks a caller-supplied model name: non-empty, no path separators, no
/// parent-directory traversal.
fn validate_name(name: &str) -> Result<(), StoreError> {
    let traversal = name == "." || name == "..";
    if name.is_empty() || traversal || name.contains(['/', '\\']) {
        return Err(StoreError::InvalidName { name: name.to_owned() });
    }
    Ok(())
}

/// Writes `contents` to `path` crash-atomically: the bytes land in a temp
/// file in the same directory, which is then `rename`d over the target. A
/// kill at any instant leaves either the old file or the new one — never a
/// torn write that poisons the next startup. Shared by the store and by the
/// bench report writer (the results files feed the same restart path).
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// A directory of named, versioned model files.
///
/// # Example
///
/// ```
/// # use osml_ml::{Mlp, MlpConfig, store::ModelStore};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join("osml-store-doc");
/// let store = ModelStore::open(&dir)?;
/// let mlp = Mlp::new(&MlpConfig::paper_mlp(4, 2, 7));
/// store.save("model-a", &mlp)?;
/// let back = store.load("model-a")?;
/// assert_eq!(back.forward(&[0.1, 0.2, 0.3, 0.4]), mlp.forward(&[0.1, 0.2, 0.3, 0.4]));
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ModelStore {
    dir: PathBuf,
}

impl ModelStore {
    /// Opens (creating if needed) a store at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory cannot be created.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(ModelStore { dir: dir.as_ref().to_path_buf() })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.json"))
    }

    fn agent_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.agent.json"))
    }

    /// Saves `mlp` under `name`, overwriting any previous version. The write
    /// is crash-atomic (temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidName`] for an empty name or one with
    /// path separators, or [`StoreError::Io`] on write failure.
    pub fn save(&self, name: &str, mlp: &Mlp) -> Result<(), StoreError> {
        validate_name(name)?;
        let stored =
            StoredModel { version: STORE_VERSION, name: name.to_owned(), mlp: mlp.clone() };
        let json = serde_json::to_string(&stored)?;
        write_atomic(&self.path(name), &json)?;
        Ok(())
    }

    /// Loads the model stored under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidName`] for a malformed name,
    /// [`StoreError::Io`] if the file is missing,
    /// [`StoreError::Parse`] if it is corrupt,
    /// [`StoreError::VersionMismatch`] if it predates `STORE_VERSION`, or
    /// [`StoreError::InvalidModel`] if its layers could not be run.
    pub fn load(&self, name: &str) -> Result<Mlp, StoreError> {
        validate_name(name)?;
        let json = std::fs::read_to_string(self.path(name))?;
        let stored: StoredModel = serde_json::from_str(&json)?;
        if stored.version != STORE_VERSION {
            return Err(StoreError::VersionMismatch {
                found: stored.version,
                expected: STORE_VERSION,
            });
        }
        match stored.mlp.first_malformed_layer() {
            Some(layer) => Err(StoreError::InvalidModel { layer }),
            None => Ok(stored.mlp),
        }
    }

    /// Saves a complete DQN agent checkpoint (policy + target nets, replay
    /// ring, optimizer state, RNG position) under `name`, crash-atomically.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidName`] for a malformed name or
    /// [`StoreError::Io`] on write failure.
    pub fn save_agent(&self, name: &str, agent: &DqnCheckpoint) -> Result<(), StoreError> {
        validate_name(name)?;
        let stored =
            StoredAgent { version: STORE_VERSION, name: name.to_owned(), agent: agent.clone() };
        let json = serde_json::to_string(&stored)?;
        write_atomic(&self.agent_path(name), &json)?;
        Ok(())
    }

    /// Loads the agent checkpoint stored under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidName`] for a malformed name,
    /// [`StoreError::Io`] if the file is missing, [`StoreError::Parse`] if
    /// it is corrupt, [`StoreError::VersionMismatch`] if it predates
    /// `STORE_VERSION`, or [`StoreError::InvalidCheckpoint`] if it fails
    /// `DqnCheckpoint::validate`.
    pub fn load_agent(&self, name: &str) -> Result<DqnCheckpoint, StoreError> {
        validate_name(name)?;
        let json = std::fs::read_to_string(self.agent_path(name))?;
        let stored: StoredAgent = serde_json::from_str(&json)?;
        if stored.version != STORE_VERSION {
            return Err(StoreError::VersionMismatch {
                found: stored.version,
                expected: STORE_VERSION,
            });
        }
        stored.agent.validate().map_err(StoreError::InvalidCheckpoint)?;
        Ok(stored.agent)
    }

    /// Whether an agent checkpoint named `name` exists in the store.
    pub fn contains_agent(&self, name: &str) -> bool {
        self.agent_path(name).exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MlpConfig;

    fn temp_store(tag: &str) -> (ModelStore, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("osml-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (ModelStore::open(&dir).unwrap(), dir)
    }

    #[test]
    fn save_load_round_trip_preserves_weights() {
        let (store, dir) = temp_store("rt");
        let mlp = Mlp::new(&MlpConfig::paper_mlp(11, 5, 3));
        store.save("model-a", &mlp).unwrap();
        let back = store.load("model-a").unwrap();
        let x = vec![0.5; 11];
        assert_eq!(mlp.forward(&x), back.forward(&x));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_model_is_an_io_error() {
        let (store, dir) = temp_store("missing");
        assert!(matches!(store.load("nope"), Err(StoreError::Io(_))));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_file_is_a_parse_error() {
        let (store, dir) = temp_store("corrupt");
        std::fs::write(dir.join("bad.json"), "{not json").unwrap();
        assert!(matches!(store.load("bad"), Err(StoreError::Parse(_))));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (store, dir) = temp_store("ver");
        let mlp = Mlp::new(&MlpConfig::new(&[2, 2], 0));
        store.save("m", &mlp).unwrap();
        // Tamper with the version field.
        let path = dir.join("m.json");
        let text =
            std::fs::read_to_string(&path).unwrap().replace("\"version\":1", "\"version\":99");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            store.load("m"),
            Err(StoreError::VersionMismatch { found: 99, expected: 1 })
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_network_that_cannot_run_is_rejected_at_load() {
        let (store, dir) = temp_store("shape");
        store.save("m", &Mlp::new(&MlpConfig::new(&[3, 4, 2], 0))).unwrap();
        let path = dir.join("m.json");
        let good = std::fs::read_to_string(&path).unwrap();
        let layer_0 = r#"{"weights":{"rows":3,"cols":4,"data":["#;
        let layer_1 = r#"{"weights":{"rows":4,"cols":2,"data":["#;
        assert!(good.contains(layer_0) && good.contains(layer_1), "{good}");
        assert!(good.ends_with(r#""bias":[0.0,0.0]}]}}"#), "{good}");
        // One corrupted field at a time; each used to load and then panic
        // (or silently mis-slice) in the first forward pass.
        let rows_7 = r#"{"weights":{"rows":7,"cols":4,"data":["#;
        let cols_3 = r#"{"weights":{"rows":4,"cols":3,"data":["#;
        let cols_5 = r#"{"weights":{"rows":3,"cols":5,"data":["#;
        for (what, bad, layer) in [
            ("rows over a shorter buffer", good.replace(layer_0, rows_7), 0),
            ("cols over a shorter buffer", good.replace(layer_0, cols_5), 0),
            ("a buffer one weight too long", good.replace(r#""data":["#, r#""data":[0.5,"#), 0),
            (
                "a bias of the wrong length",
                good.replace(r#""bias":[0.0,0.0]"#, r#""bias":[0.0]"#),
                1,
            ),
            ("a next layer of another width", good.replace(layer_1, cols_3), 1),
            (
                "a product that overflows",
                good.replace(layer_0, &rows_7.replace('7', &u64::MAX.to_string())),
                0,
            ),
            ("no layers", r#"{"version":1,"name":"m","mlp":{"layers":[]}}"#.to_owned(), 0),
        ] {
            assert_ne!(bad, good, "{what}: the fixture no longer has the field");
            std::fs::write(&path, bad).unwrap();
            match store.load("m") {
                Err(StoreError::InvalidModel { layer: found }) => {
                    assert_eq!(found, layer, "{what}")
                }
                other => panic!("{what}: expected InvalidModel, got {other:?}"),
            }
        }
        std::fs::write(&path, good).unwrap();
        assert!(store.load("m").is_ok());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn invalid_names_are_rejected_before_touching_disk() {
        let (store, dir) = temp_store("badname");
        let mlp = Mlp::new(&MlpConfig::new(&[2, 2], 0));
        for name in ["", "../escape", "a/b", "a\\b", ".", ".."] {
            assert!(
                matches!(store.save(name, &mlp), Err(StoreError::InvalidName { .. })),
                "save must reject {name:?}"
            );
            assert!(
                matches!(store.load(name), Err(StoreError::InvalidName { .. })),
                "load must reject {name:?}"
            );
        }
        // Nothing escaped the (still empty) store directory.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let (store, dir) = temp_store("atomic");
        let mlp = Mlp::new(&MlpConfig::new(&[2, 2], 0));
        store.save("m", &mlp).unwrap();
        store.save("m", &mlp).unwrap(); // overwrite path also goes through rename
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        assert!(store.load("m").is_ok());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn agent_checkpoint_round_trips_through_the_store() {
        use crate::dqn::{Dqn, DqnConfig, Transition};
        let (store, dir) = temp_store("agent");
        let mut cfg = DqnConfig::paper(2, 3, 21);
        cfg.batch_size = 8;
        let mut agent = Dqn::new(cfg);
        for i in 0..16 {
            agent.observe(Transition {
                state: vec![i as f32, 0.0],
                action: i % 3,
                reward: (i % 2) as f32,
                next_state: vec![0.0, 0.0],
            });
            agent.train_step();
        }
        store.save_agent("model-c", &agent.checkpoint()).unwrap();
        assert!(store.contains_agent("model-c"));
        let mut restored = Dqn::restore(store.load_agent("model-c").unwrap());
        // Behavioural equivalence: identical Q-values AND an identical
        // exploration stream from the restored RNG position.
        assert_eq!(agent.q_values(&[0.5, 0.5]), restored.q_values(&[0.5, 0.5]));
        let a: Vec<usize> = (0..32).map(|i| agent.select_action(&[i as f32, 1.0])).collect();
        let b: Vec<usize> = (0..32).map(|i| restored.select_action(&[i as f32, 1.0])).collect();
        assert_eq!(a, b);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_agent_checkpoint_is_a_parse_error() {
        let (store, dir) = temp_store("agent-corrupt");
        std::fs::write(dir.join("c.agent.json"), "{torn").unwrap();
        assert!(matches!(store.load_agent("c"), Err(StoreError::Parse(_))));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
