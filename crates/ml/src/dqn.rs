//! Deep Q-Network machinery for Model-C (§IV-C of the paper).
//!
//! Model-C contains two neural networks — a **Policy Network** and a
//! structurally identical **Target Network** — plus an **Experience Pool**.
//! Each scheduling step the policy network scores every action
//! (`Q(action)`), the best-scoring action is executed (or, with 5 %
//! probability, a random one, to escape local optima), and the observed
//! `<Status, Action, Reward, Status'>` tuple lands in the pool. Online
//! training samples 200 tuples and minimizes
//! `(Reward + γ·max Q_target(Status', a') − Q_policy(Status, Action))²`,
//! after which the target network is refreshed.
//!
//! The action semantics (Δcores/Δways in [-3, 3]) and the reward function
//! live in `osml-models`; this module is a generic, deterministic DQN.

use crate::mlp::TrainScratch;
use crate::{Adam, AdamConfig, Matrix, Mlp, MlpConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Reader, Serialize, Writer};
use std::fmt;
use std::sync::Arc;

/// Configuration of a [`Dqn`] agent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DqnConfig {
    /// State vector width.
    pub state_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Hidden-layer widths (the paper uses `[30, 30, 30]`).
    pub hidden: Vec<usize>,
    /// Discount factor γ.
    pub gamma: f32,
    /// Exploration probability ε (the paper uses 0.05).
    pub epsilon: f64,
    /// Capacity of the experience pool (a ring buffer).
    pub replay_capacity: usize,
    /// Tuples sampled per online-training step (the paper uses 200).
    pub batch_size: usize,
    /// Policy-network updates between target-network syncs.
    pub target_sync_every: usize,
    /// Adam hyper-parameters for the policy network.
    pub adam: AdamConfig,
    /// Seed for initialization, exploration and replay sampling.
    pub seed: u64,
}

impl DqnConfig {
    /// Layer widths of the policy and target networks.
    fn layer_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![self.state_dim];
        sizes.extend_from_slice(&self.hidden);
        sizes.push(self.num_actions);
        sizes
    }

    /// The paper's Model-C configuration for the given state/action sizes.
    pub fn paper(state_dim: usize, num_actions: usize, seed: u64) -> Self {
        DqnConfig {
            state_dim,
            num_actions,
            hidden: vec![30, 30, 30],
            gamma: 0.9,
            epsilon: 0.05,
            replay_capacity: 10_000,
            batch_size: 200,
            target_sync_every: 20,
            adam: AdamConfig::default(),
            seed,
        }
    }
}

/// One experience tuple `<Status, Action, Reward, Status'>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// State before the action.
    pub state: Vec<f32>,
    /// Index of the action taken.
    pub action: usize,
    /// Reward observed.
    pub reward: f32,
    /// State after the action.
    pub next_state: Vec<f32>,
}

/// Tuples per chunk of the experience pool: the unit a clone shares and a
/// write un-shares (≈27 kB at Model-C's 12-float state).
const CHUNK_ROWS: usize = 256;

/// Up to [`CHUNK_ROWS`] consecutive tuples of the pool, without a `Vec` per
/// tuple: tuple `r` is `floats[r * stride..][..stride]` — state, next state,
/// reward, `stride = 2 · state_dim + 1` — and `actions[r]`.
#[derive(Debug, Clone, Default, PartialEq)]
struct Chunk {
    floats: Vec<f32>,
    actions: Vec<usize>,
}

/// One pooled tuple, borrowed from its chunk. Writes itself exactly as the
/// [`Transition`] it was pushed as.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row<'a> {
    state: &'a [f32],
    action: usize,
    reward: f32,
    next_state: &'a [f32],
}

impl Serialize for Row<'_> {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_object();
        w.key_literal("\"state\":");
        self.state.serialize(w);
        w.key_literal("\"action\":");
        self.action.serialize(w);
        w.key_literal("\"reward\":");
        self.reward.serialize(w);
        w.key_literal("\"next_state\":");
        self.next_state.serialize(w);
        w.end_object();
    }
}

/// The pool's tuples, in index order, chunked behind `Arc`s: a clone shares
/// every chunk with its source (one reference-count bump each), and a write
/// copies only the chunk it lands in, so a trained template cloned into a
/// fleet of controllers costs each of them the chunks its own observations
/// touched. On the wire it is the array of [`Transition`] objects it always
/// was.
#[derive(Debug, Clone, Default, PartialEq)]
struct Rows {
    /// Width of every state and next state; fixed by the first tuple.
    state_dim: usize,
    /// Tuples pushed or decoded.
    len: usize,
    chunks: Vec<Arc<Chunk>>,
    /// Decoding only: index of the first tuple whose state or next state was
    /// not `state_dim` wide. Nothing from that tuple on is kept (a flat row
    /// cannot hold it), so the chunks hold `misfit` tuples, not `len`;
    /// [`DqnCheckpoint::validate`] refuses such a pool by that index.
    misfit: Option<usize>,
}

impl Rows {
    fn get(&self, index: usize) -> Row<'_> {
        let chunk = &self.chunks[index / CHUNK_ROWS];
        let (dim, r) = (self.state_dim, index % CHUNK_ROWS);
        let stride = 2 * dim + 1;
        let floats = &chunk.floats[r * stride..][..stride];
        Row {
            state: &floats[..dim],
            action: chunk.actions[r],
            reward: floats[2 * dim],
            next_state: &floats[dim..2 * dim],
        }
    }

    /// Writes `t` at `index`: over the tuple there, or as the next one when
    /// `index == len`. Un-shares the one chunk it writes.
    ///
    /// # Panics
    ///
    /// Panics if `t`'s states are not as wide as the first tuple's, or if
    /// the pool was decoded past a misfit (its tuples are not all there).
    fn put(&mut self, index: usize, t: &Transition) {
        assert!(self.misfit.is_none() && index <= self.len, "write into an invalid pool");
        if self.len == 0 {
            self.state_dim = t.state.len();
        }
        let dim = self.state_dim;
        assert!(t.state.len() == dim && t.next_state.len() == dim, "state width mismatch");
        if index == self.chunks.len() * CHUNK_ROWS {
            self.chunks.push(Arc::default());
        }
        let chunk = Arc::make_mut(&mut self.chunks[index / CHUNK_ROWS]);
        if index == self.len {
            chunk.floats.extend_from_slice(&t.state);
            chunk.floats.extend_from_slice(&t.next_state);
            chunk.floats.push(t.reward);
            chunk.actions.push(t.action);
            self.len += 1;
        } else {
            let (r, stride) = (index % CHUNK_ROWS, 2 * dim + 1);
            let floats = &mut chunk.floats[r * stride..][..stride];
            floats[..dim].copy_from_slice(&t.state);
            floats[dim..2 * dim].copy_from_slice(&t.next_state);
            floats[2 * dim] = t.reward;
            chunk.actions[r] = t.action;
        }
    }
}

impl Serialize for Rows {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_array();
        // Decoded past a misfit, the chunks hold the tuples before it.
        for index in 0..self.misfit.unwrap_or(self.len) {
            w.element();
            self.get(index).serialize(w);
        }
        w.end_array();
    }
}

impl Deserialize for Rows {
    /// Streams the tuples into chunks, one [`Transition`] alive at a time.
    /// A tuple of another width than the first is not an error here: the
    /// file is still JSON of the right type, and what is wrong with it has a
    /// name in [`CheckpointError`] — see [`Rows::misfit`].
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let mut rows = Rows::default();
        let mut first = true;
        r.begin_array()?;
        while r.next_element(&mut first)? {
            let t = Transition::deserialize(r)?;
            let dim = if rows.len == 0 { t.state.len() } else { rows.state_dim };
            if rows.misfit.is_none() && t.state.len() == dim && t.next_state.len() == dim {
                rows.put(rows.len, &t);
            } else {
                rows.misfit.get_or_insert(rows.len);
                rows.len += 1;
            }
        }
        Ok(rows)
    }
}

/// The Experience Pool: a fixed-capacity ring buffer of transitions.
///
/// Cloning it is cheap and shares storage (see `Rows`); the clone and its
/// source then diverge tuple by tuple, each paying for what it writes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplayBuffer {
    capacity: usize,
    items: Rows,
    write: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        ReplayBuffer { capacity, items: Rows::default(), write: 0 }
    }

    /// Stores a transition, evicting the oldest once full.
    ///
    /// # Panics
    ///
    /// Panics if its states are not as wide as the first transition's, or
    /// if the pool was decoded from a file [`DqnCheckpoint::validate`]
    /// refuses for a tuple's width.
    pub(crate) fn push(&mut self, t: Transition) {
        let index = if self.items.len < self.capacity { self.items.len } else { self.write };
        self.items.put(index, &t);
        self.write = (self.write + 1) % self.capacity;
    }

    /// Number of stored transitions.
    pub(crate) fn len(&self) -> usize {
        self.items.len
    }
}

/// A complete serialized [`Dqn`] agent: both networks, the experience pool,
/// the optimizer moments and the exploration RNG stream position. Restoring
/// a checkpoint with [`Dqn::restore`] resumes training and action selection
/// exactly where the checkpointed agent left off — the restored agent is
/// behaviourally indistinguishable from one that never stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DqnCheckpoint {
    /// The agent's configuration.
    pub config: DqnConfig,
    /// The policy network.
    pub policy: Mlp,
    /// The target network (may lag the policy between syncs).
    pub target: Mlp,
    /// The experience pool, including its ring write cursor.
    pub replay: ReplayBuffer,
    /// Adam first/second moments and step counter.
    pub adam: Adam,
    /// Raw state of the exploration/sampling RNG.
    pub rng_state: [u64; 4],
    /// Policy updates performed so far (drives target-sync cadence).
    pub updates: usize,
}

/// Why a [`DqnCheckpoint`] is structurally invalid: which of the
/// cross-field conditions a running [`Dqn`] relies on it breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// A configured size is zero (state, action or hidden width, pool
    /// capacity, batch size, target-sync period): the networks could not be
    /// built, or no step would ever train or sync.
    ZeroSize {
        /// The offending configuration field.
        field: &'static str,
    },
    /// A configured value is outside its range: γ or ε outside `[0, 1]`
    /// (NaN included), or a batch larger than the pool, which never trains.
    OutOfRange {
        /// The offending configuration field.
        field: &'static str,
    },
    /// A network's layers do not have the shapes the configuration implies,
    /// or a weight matrix's buffer does not match its own dimensions.
    NetworkShape {
        /// `"policy"` or `"target"`.
        network: &'static str,
    },
    /// The experience pool's capacity differs from the configured one, it
    /// holds more tuples than its capacity, or its write cursor is not where
    /// a ring of that fill level has it.
    ReplayRing {
        /// Tuples stored.
        len: usize,
        /// The ring's write cursor.
        write: usize,
        /// The ring's own capacity.
        capacity: usize,
    },
    /// A pooled tuple's state or next-state width differs from `state_dim`.
    StateWidth {
        /// Index of the tuple in the pool.
        index: usize,
    },
    /// A pooled tuple's action is not below `num_actions`.
    ActionOutOfRange {
        /// Index of the tuple in the pool.
        index: usize,
        /// The stored action.
        action: usize,
    },
    /// Adam's moment vectors are not sized for the policy network (its
    /// `zip` would silently truncate the update), or its step counter is
    /// negative.
    OptimizerShape,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::ZeroSize { field } => write!(f, "config.{field} is zero"),
            CheckpointError::OutOfRange { field } => write!(f, "config.{field} is out of range"),
            CheckpointError::NetworkShape { network } => {
                write!(f, "{network} network's layer shapes differ from the configuration")
            }
            CheckpointError::ReplayRing { len, write, capacity } => write!(
                f,
                "experience pool is not a valid ring (len {len}, write {write}, capacity \
                 {capacity})"
            ),
            CheckpointError::StateWidth { index } => {
                write!(f, "pooled tuple {index} has a state of the wrong width")
            }
            CheckpointError::ActionOutOfRange { index, action } => {
                write!(f, "pooled tuple {index} holds out-of-range action {action}")
            }
            CheckpointError::OptimizerShape => {
                write!(f, "optimizer moments are not sized for the policy network")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl DqnCheckpoint {
    /// Checks the conditions *between* fields that deserialization cannot:
    /// any syntactically valid JSON decodes, but a [`Dqn`] indexes its
    /// networks, pool and moments by the configured sizes, so a checkpoint
    /// that disagrees with itself would panic (or, in Adam's `zip`, silently
    /// truncate) in the middle of some later tick. So would a configuration
    /// no step can run with: a NaN loss from an empty batch, a target that
    /// never syncs, a pool too small to train from, ε outside `gen_bool`'s
    /// domain, or a γ that turns every Q-value into NaN.
    ///
    /// # Errors
    ///
    /// Returns the first broken condition found.
    pub(crate) fn validate(&self) -> Result<(), CheckpointError> {
        let c = &self.config;
        for (field, size) in [
            ("state_dim", c.state_dim),
            ("num_actions", c.num_actions),
            ("replay_capacity", c.replay_capacity),
            ("hidden", c.hidden.iter().copied().min().unwrap_or(1)),
            ("batch_size", c.batch_size),
            ("target_sync_every", c.target_sync_every),
        ] {
            if size == 0 {
                return Err(CheckpointError::ZeroSize { field });
            }
        }
        for (field, in_range) in [
            ("gamma", (0.0..=1.0).contains(&c.gamma)),
            ("epsilon", (0.0..=1.0).contains(&c.epsilon)),
            ("batch_size", c.batch_size <= c.replay_capacity),
        ] {
            if !in_range {
                return Err(CheckpointError::OutOfRange { field });
            }
        }
        let sizes = c.layer_sizes();
        for (network, mlp) in [("policy", &self.policy), ("target", &self.target)] {
            if !mlp.has_layer_sizes(&sizes) {
                return Err(CheckpointError::NetworkShape { network });
            }
        }
        let ring = &self.replay;
        let (len, write, capacity) = (ring.items.len, ring.write, ring.capacity);
        let cursor_ok = if len < capacity { write == len } else { write < capacity };
        if capacity != c.replay_capacity || len > capacity || !cursor_ok {
            return Err(CheckpointError::ReplayRing { len, write, capacity });
        }
        for index in 0..len {
            // Every tuple before a misfit is as wide as tuple 0.
            if ring.items.state_dim != c.state_dim || ring.items.misfit == Some(index) {
                return Err(CheckpointError::StateWidth { index });
            }
            let action = ring.items.get(index).action;
            if action >= c.num_actions {
                return Err(CheckpointError::ActionOutOfRange { index, action });
            }
        }
        if !self.adam.is_sized_for(&self.policy) {
            return Err(CheckpointError::OptimizerShape);
        }
        Ok(())
    }
}

/// A Deep Q-Network agent: policy network, target network, experience pool.
///
/// # Example
///
/// ```
/// use osml_ml::dqn::{Dqn, DqnConfig, Transition};
///
/// let mut agent = Dqn::new(DqnConfig::paper(4, 3, 42));
/// let state = vec![0.1, 0.2, 0.3, 0.4];
/// let action = agent.select_action(&state);
/// assert!(action < 3);
/// agent.observe(Transition { state, action, reward: 1.0, next_state: vec![0.0; 4] });
/// ```
#[derive(Debug, Clone)]
pub struct Dqn {
    config: DqnConfig,
    policy: Mlp,
    target: Mlp,
    replay: ReplayBuffer,
    adam: Adam,
    rng: StdRng,
    updates: usize,
    workspace: TrainWorkspace,
}

/// Buffers of [`Dqn::train_step`], kept so that a warmed-up step allocates
/// nothing. Scratch, not state: every step overwrites all of it before
/// reading any, it is in no checkpoint, and a clone starts empty: like the
/// pool's chunks, a template agent cloned per world or per node costs the
/// clone nothing until the clone trains.
#[derive(Debug, Default)]
struct TrainWorkspace {
    states: Matrix,
    next_states: Matrix,
    /// `(action, reward)` of each sampled tuple, then `(action, ∂L/∂Q)`.
    taken: Vec<(usize, f32)>,
    target_a: Matrix,
    target_b: Matrix,
    policy: TrainScratch,
}

impl Clone for TrainWorkspace {
    fn clone(&self) -> Self {
        TrainWorkspace::default()
    }
}

impl Dqn {
    /// Creates an agent with freshly initialized, identical policy and
    /// target networks.
    pub fn new(config: DqnConfig) -> Self {
        let policy = Mlp::new(&MlpConfig::new(&config.layer_sizes(), config.seed));
        let target = policy.clone();
        let adam = Adam::new(&policy, config.adam);
        let replay = ReplayBuffer::new(config.replay_capacity);
        let rng = StdRng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);
        let workspace = TrainWorkspace::default();
        Dqn { config, policy, target, replay, adam, rng, updates: 0, workspace }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// Q-values of every action in `state`, from the policy network.
    pub(crate) fn q_values(&self, state: &[f32]) -> Vec<f32> {
        self.policy.forward(state)
    }

    /// The greedy (best-Q) action.
    pub(crate) fn best_action(&self, state: &[f32]) -> usize {
        argmax(&self.q_values(state))
    }

    /// ε-greedy action selection: the best action, or with probability ε a
    /// uniformly random one ("OSML can avoid falling into a local optimum",
    /// §IV-C).
    pub fn select_action(&mut self, state: &[f32]) -> usize {
        if self.rng.gen_bool(self.config.epsilon) {
            self.rng.gen_range(0..self.config.num_actions)
        } else {
            self.best_action(state)
        }
    }

    /// Adds a transition to the experience pool.
    pub fn observe(&mut self, t: Transition) {
        assert_eq!(t.state.len(), self.config.state_dim, "state width mismatch");
        assert_eq!(t.next_state.len(), self.config.state_dim, "state width mismatch");
        assert!(t.action < self.config.num_actions, "action out of range");
        self.replay.push(t);
    }

    /// Number of transitions currently pooled.
    pub fn pool_len(&self) -> usize {
        self.replay.len()
    }

    /// One online-training step: samples a batch, regresses the policy
    /// network toward the Bellman targets, and periodically syncs the target
    /// network. Returns the batch TD loss, or `None` if the pool holds fewer
    /// than a batch of transitions.
    ///
    /// The loss is MSE between the policy's Q-rows and labels that equal
    /// those Q-rows except at the taken action, where the label is
    /// `reward + γ · max Q_target(next)`. So the policy's one cached forward
    /// pass serves as both prediction and label, every other element
    /// contributes exactly `+0.0` to the loss and to the output delta, and
    /// the backward pass starts from the `(action, ∂L/∂Q)` pairs
    /// (`Mlp::backward_one_hot`) — the same f32 operations, in the same
    /// order, as running the dense MSE step over the full label matrix, as
    /// long as the Q-values are finite.
    pub fn train_step(&mut self) -> Option<f32> {
        if self.replay.len() < self.config.batch_size {
            return None;
        }
        let n = self.config.batch_size;
        let ws = &mut self.workspace;
        ws.states.reset(n, self.config.state_dim);
        ws.next_states.reset(n, self.config.state_dim);
        ws.taken.clear();
        // Uniform with replacement, one draw per row.
        let pooled = self.replay.len();
        for i in 0..n {
            let t = self.replay.items.get(self.rng.gen_range(0..pooled));
            ws.states.row_mut(i).copy_from_slice(t.state);
            ws.next_states.row_mut(i).copy_from_slice(t.next_state);
            ws.taken.push((t.action, t.reward));
        }
        self.policy.forward_cached(&ws.states, |_| false, &mut ws.policy);
        let q = ws.policy.output();
        let next_q =
            self.target.forward_batch_into(&ws.next_states, &mut ws.target_a, &mut ws.target_b);
        // MSE averages over every element of the n × actions prediction.
        let elements = (n * self.config.num_actions) as f32;
        let mut squared_error = 0.0f32;
        for (i, taken) in ws.taken.iter_mut().enumerate() {
            let (action, reward) = *taken;
            let max_next = next_q.row(i).iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let td_error = q[(i, action)] - (reward + self.config.gamma * max_next);
            squared_error += td_error * td_error;
            *taken = (action, 2.0 * td_error / elements);
        }
        let loss = squared_error / elements;
        self.policy.backward_one_hot(&ws.states, &ws.taken, &mut ws.policy);
        self.adam.step(&mut self.policy, &ws.policy.grads);
        self.updates += 1;
        if self.updates.is_multiple_of(self.config.target_sync_every) {
            self.sync_target();
        }
        Some(loss)
    }

    /// Copies the policy network into the target network.
    pub(crate) fn sync_target(&mut self) {
        self.target.clone_from(&self.policy);
    }

    /// Read access to the policy network (for persistence).
    pub fn policy(&self) -> &Mlp {
        &self.policy
    }

    /// Captures the agent's complete state for durable persistence.
    pub fn checkpoint(&self) -> DqnCheckpoint {
        DqnCheckpoint {
            config: self.config.clone(),
            policy: self.policy.clone(),
            target: self.target.clone(),
            replay: self.replay.clone(),
            adam: self.adam.clone(),
            rng_state: self.rng.state(),
            updates: self.updates,
        }
    }

    /// Rebuilds an agent from a [`DqnCheckpoint`].
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint fails `DqnCheckpoint::validate` — better
    /// here, by name, than as an index out of bounds in some later tick.
    /// [`ModelStore::load_agent`](crate::store::ModelStore::load_agent)
    /// returns the same condition as a typed error.
    pub fn restore(ck: DqnCheckpoint) -> Self {
        if let Err(e) = ck.validate() {
            panic!("invalid DQN checkpoint: {e}");
        }
        Dqn {
            rng: StdRng::from_state(ck.rng_state),
            config: ck.config,
            policy: ck.policy,
            target: ck.target,
            replay: ck.replay,
            adam: ck.adam,
            updates: ck.updates,
            workspace: TrainWorkspace::default(),
        }
    }
}

fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty action set")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Mse;
    use crate::store::{ModelStore, StoreError};
    use proptest::prelude::*;

    /// The experience pool as it was before it was chunked — one
    /// `Vec<Transition>`, two `Vec<f32>` per tuple, a deep copy per clone —
    /// kept as the reference the chunked pool is held to: same tuple at
    /// every index, same cursor, same sampling order, same bytes on the wire.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    struct VecRing {
        capacity: usize,
        items: Vec<Transition>,
        write: usize,
    }

    impl VecRing {
        fn new(capacity: usize) -> Self {
            VecRing { capacity, items: Vec::with_capacity(capacity), write: 0 }
        }

        fn push(&mut self, t: Transition) {
            if self.items.len() < self.capacity {
                self.items.push(t);
            } else {
                self.items[self.write] = t;
            }
            self.write = (self.write + 1) % self.capacity;
        }
    }

    /// Index by index, cursor, and byte for byte in both JSON forms.
    fn assert_pool_is_the_ring(pool: &ReplayBuffer, ring: &VecRing) {
        assert_eq!(
            (pool.len(), pool.write, pool.capacity),
            (ring.items.len(), ring.write, ring.capacity)
        );
        for (index, t) in ring.items.iter().enumerate() {
            let row = pool.items.get(index);
            let same = row.state == t.state
                && row.action == t.action
                && row.reward.to_bits() == t.reward.to_bits()
                && row.next_state == t.next_state;
            assert!(same, "tuple {index}: {row:?} vs {t:?}");
        }
        assert_eq!(serde_json::to_string(pool).unwrap(), serde_json::to_string(ring).unwrap());
        assert_eq!(
            serde_json::to_string_pretty(pool).unwrap(),
            serde_json::to_string_pretty(ring).unwrap()
        );
    }

    impl Dqn {
        /// `train_step` as it was before the step was fused and the pool
        /// chunked — a batch of `&Transition`s sampled from `ring` (which the
        /// caller keeps in step with `self`'s own pool), a forward for the
        /// labels, then the dense MSE `train_batch` over the full
        /// `n × actions` label matrix — kept as the reference the fused step
        /// is pinned to, bit for bit.
        fn train_step_reference(&mut self, ring: &VecRing) -> Option<f32> {
            if ring.items.len() < self.config.batch_size {
                return None;
            }
            let n = self.config.batch_size;
            let batch: Vec<&Transition> =
                (0..n).map(|_| &ring.items[self.rng.gen_range(0..ring.items.len())]).collect();
            let dim = self.config.state_dim;
            let mut states = Matrix::zeros(n, dim);
            let mut next_states = Matrix::zeros(n, dim);
            for (i, t) in batch.iter().enumerate() {
                states.row_mut(i).copy_from_slice(&t.state);
                next_states.row_mut(i).copy_from_slice(&t.next_state);
            }
            let mut labels = self.policy.forward_batch(&states);
            let next_q = self.target.forward_batch(&next_states);
            for (i, t) in batch.iter().enumerate() {
                let max_next = next_q.row(i).iter().copied().fold(f32::NEG_INFINITY, f32::max);
                labels[(i, t.action)] = t.reward + self.config.gamma * max_next;
            }
            let loss = self.policy.train_batch(&states, &labels, &Mse, &mut self.adam);
            self.updates += 1;
            if self.updates.is_multiple_of(self.config.target_sync_every) {
                self.target = self.policy.clone();
            }
            Some(loss)
        }
    }

    fn small_config(
        state_dim: usize,
        num_actions: usize,
        hidden: &[usize],
        batch_size: usize,
        target_sync_every: usize,
        seed: u64,
    ) -> DqnConfig {
        DqnConfig {
            hidden: hidden.to_vec(),
            batch_size,
            target_sync_every,
            replay_capacity: 3 * batch_size,
            ..DqnConfig::paper(state_dim, num_actions, seed)
        }
    }

    /// Drives one agent through the fused step and a twin through the
    /// reference for `steps` observe + train rounds, comparing every loss by
    /// bits and the complete checkpoint JSON (weights, moments, pool, RNG
    /// position; `-0.0` prints apart from `0.0`) at every target sync and at
    /// the end.
    ///
    /// The transition stream covers what the one-hot backward special-cases:
    /// states of both signs (so `x · 0.0` is `-0.0` as often as `+0.0`), one
    /// action taken 60 % of the time (two, three and four equal actions in a
    /// 4-row group), and — every third round, with γ = 0 — a reward equal to
    /// the policy's current Q-value, so that the tuple's TD error is exactly
    /// zero if it is sampled before the weights move.
    fn assert_fused_matches_reference(cfg: DqnConfig, steps: usize) {
        let mut fused = Dqn::new(cfg.clone());
        let mut reference = Dqn::new(cfg.clone());
        let mut ring = VecRing::new(cfg.replay_capacity);
        let mut lcg = cfg.seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut unit = || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (lcg >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut trained = 0usize;
        for round in 0..steps {
            let state: Vec<f32> = (0..cfg.state_dim).map(|_| 2.0 * unit() - 1.0).collect();
            let next_state: Vec<f32> = (0..cfg.state_dim).map(|_| 2.0 * unit() - 1.0).collect();
            let action = if unit() < 0.6 { 0 } else { (unit() * cfg.num_actions as f32) as usize };
            let reward = if round % 3 == 0 && cfg.gamma == 0.0 {
                fused.q_values(&state)[action]
            } else {
                4.0 * unit() - 2.0
            };
            let t = Transition { state, action, reward, next_state };
            fused.observe(t.clone());
            reference.observe(t.clone());
            ring.push(t);
            let (a, b) = (fused.train_step(), reference.train_step_reference(&ring));
            assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits), "round {round}: {a:?} vs {b:?}");
            trained += usize::from(a.is_some());
            if round + 1 == steps || fused.updates.is_multiple_of(cfg.target_sync_every) {
                assert_eq!(
                    serde_json::to_string(&fused.checkpoint()).unwrap(),
                    serde_json::to_string(&reference.checkpoint()).unwrap(),
                    "round {round}: checkpoints diverged"
                );
            }
        }
        assert_pool_is_the_ring(&fused.replay, &ring);
        assert!(trained >= steps - cfg.batch_size, "{trained} of {steps} rounds trained");
    }

    #[test]
    fn fused_step_is_bit_identical_to_the_dense_reference_at_pinned_shapes() {
        // (state, actions, hidden, batch, sync): batch % 4 and actions % 4
        // each over {0, 1, 2, 3}, with and without hidden layers, a sync
        // boundary every few steps.
        let shapes: [(usize, usize, &[usize], usize, usize); 6] = [
            (3, 4, &[], 8, 3),         // no hidden layer: the input is the raw state
            (2, 5, &[6, 5], 7, 3),     // batch % 4 = 3, actions % 4 = 1
            (4, 6, &[4], 10, 4),       // batch % 4 = 2, actions % 4 = 2
            (3, 7, &[5, 5, 5], 13, 5), // batch % 4 = 1, actions % 4 = 3
            (2, 1, &[3], 9, 2),        // one action: every group is four equal
            (1, 3, &[], 5, 1),         // no hidden layer, sync every step
        ];
        for (i, (state_dim, actions, hidden, batch, sync)) in shapes.into_iter().enumerate() {
            for gamma in [0.9, 0.0] {
                let mut cfg = small_config(state_dim, actions, hidden, batch, sync, 40 + i as u64);
                cfg.gamma = gamma;
                assert_fused_matches_reference(cfg, 300 + batch);
            }
        }
    }

    #[test]
    fn fused_step_is_bit_identical_to_the_dense_reference_at_the_paper_shape() {
        // 12 → 30 → 30 → 30 → 49, 200-tuple batches, sync every 20: 320
        // trained steps cross sixteen sync boundaries.
        let cfg = DqnConfig { replay_capacity: 600, ..DqnConfig::paper(12, 49, 9) };
        assert_fused_matches_reference(cfg, 520);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn fused_step_is_bit_identical_to_the_dense_reference(
            state_dim in 1usize..6,
            actions in 1usize..10,
            depth in 0usize..4,
            width in 1usize..8,
            batch in 1usize..14,
            sync in 1usize..6,
            seed in 0u64..1000,
            bandit in 0u8..2,
        ) {
            let hidden = vec![width; depth];
            let mut cfg = small_config(state_dim, actions, &hidden, batch, sync, seed);
            if bandit == 1 {
                cfg.gamma = 0.0;
            }
            assert_fused_matches_reference(cfg, 300 + batch);
        }
    }

    /// A fused agent on the chunked pool, and what it is held to: a twin
    /// stepping through the reference, sampling from the `Vec` ring.
    #[derive(Clone)]
    struct Twin {
        fused: Dqn,
        reference: Dqn,
        ring: VecRing,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Observation bursts (long and frequent enough to fill and wrap),
        /// clones, train steps and checkpoint round trips in any order, on
        /// either side of any clone.
        #[test]
        fn chunked_pool_is_the_vec_ring_under_any_interleaving(
            capacity in 0usize..6,
            words in proptest::collection::vec(0u64..u64::MAX, 8..48),
        ) {
            // Below one chunk, then around one and two chunk boundaries.
            let capacity = [5, 200, CHUNK_ROWS, 300, 2 * CHUNK_ROWS, 700][capacity];
            let cfg = DqnConfig {
                replay_capacity: capacity,
                ..small_config(2, 3, &[4], 4, 3, words[0] % 100)
            };
            let (fused, reference) = (Dqn::new(cfg.clone()), Dqn::new(cfg));
            let mut twins = vec![Twin { fused, reference, ring: VecRing::new(capacity) }];
            let mut stamp = 0.0f32;
            for word in words {
                let at = (word >> 8) as usize % twins.len();
                match word % 8 {
                    0..=3 => {
                        for _ in 0..(word >> 16) % 400 {
                            stamp += 1.0;
                            let t = Transition {
                                state: vec![stamp, -stamp],
                                action: stamp as usize % 3,
                                reward: stamp / 8.0,
                                next_state: vec![stamp + 0.5, 0.0],
                            };
                            twins[at].fused.observe(t.clone());
                            twins[at].reference.observe(t.clone());
                            twins[at].ring.push(t);
                        }
                    }
                    4 if twins.len() < 6 => {
                        let twin = twins[at].clone();
                        twins.push(twin);
                    }
                    4 | 5 => {
                        let twin = &mut twins[at];
                        let (a, b) =
                            (twin.fused.train_step(), twin.reference.train_step_reference(&twin.ring));
                        prop_assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits));
                    }
                    // Through the file format, or through the struct alone
                    // (whose pool still shares the agent's chunks).
                    6 => {
                        let json = serde_json::to_string(&twins[at].fused.checkpoint()).unwrap();
                        twins[at].fused = Dqn::restore(serde_json::from_str(&json).unwrap());
                    }
                    _ => twins[at].fused = Dqn::restore(twins[at].fused.checkpoint()),
                }
                let twin = &twins[at];
                assert_pool_is_the_ring(&twin.fused.replay, &twin.ring);
                prop_assert_eq!(
                    serde_json::to_string(&twin.fused.checkpoint()).unwrap(),
                    serde_json::to_string(&twin.reference.checkpoint()).unwrap()
                );
            }
            // No write through one twin showed in another.
            for twin in &twins {
                assert_pool_is_the_ring(&twin.fused.replay, &twin.ring);
            }
        }
    }

    #[test]
    fn a_clone_owns_only_the_chunks_it_wrote() {
        // Model-C's pool, full and wrapped to ten tuples short of its end.
        let tuple = |x: f32| Transition {
            state: vec![x; 12],
            action: 0,
            reward: x,
            next_state: vec![-x; 12],
        };
        let mut template = Dqn::new(DqnConfig::paper(12, 49, 3));
        for i in 0..19_990 {
            template.observe(tuple(i as f32));
        }
        assert_eq!((template.replay.len(), template.replay.write), (10_000, 9_990));
        let chunks = &template.replay.items.chunks;
        assert_eq!(chunks.len(), 10_000usize.div_ceil(CHUNK_ROWS));

        let mut fleet: Vec<Dqn> = (0..64).map(|_| template.clone()).collect();
        assert!(chunks.iter().all(|c| Arc::strong_count(c) == 65), "a clone copies no chunk");
        // Node n observes 4n tuples: none, a few in the last chunk, then
        // around the ring's end into the first.
        let written = |node: usize, chunk: usize| {
            (0..4 * node).any(|k| (9_990 + k) % 10_000 / CHUNK_ROWS == chunk)
        };
        for (n, node) in fleet.iter_mut().enumerate() {
            for k in 0..4 * n {
                node.observe(tuple(-1.0 - k as f32));
            }
        }
        for (c, shared) in chunks.iter().enumerate() {
            for (n, node) in fleet.iter().enumerate() {
                let own = &node.replay.items.chunks[c];
                assert_eq!(Arc::ptr_eq(own, shared), !written(n, c), "node {n}, chunk {c}");
                assert!(Arc::ptr_eq(own, shared) || Arc::strong_count(own) == 1);
            }
            let sharers = (0..64).filter(|&n| !written(n, c)).count();
            assert_eq!(Arc::strong_count(shared), 1 + sharers, "chunk {c}");
        }
        assert!((1..chunks.len() - 1).all(|c| Arc::strong_count(&chunks[c]) == 65));
        // The template saw none of it.
        assert_eq!(template.replay.items.get(9_990).reward, 9_990.0);
        assert_eq!(fleet[63].replay.items.get(9_990).reward, -1.0);
    }

    #[test]
    fn a_warmed_up_step_keeps_its_buffers() {
        let mut agent = Dqn::new(small_config(3, 5, &[6, 6], 8, 2, 1));
        for i in 0..8 {
            agent.observe(Transition {
                state: vec![i as f32, 0.5, -0.5],
                action: i % 5,
                reward: 1.0,
                next_state: vec![0.0; 3],
            });
        }
        agent.train_step();
        agent.train_step(); // update 2: the first target sync
        let buffers = |a: &Dqn| {
            let ws = &a.workspace;
            [
                ws.states.as_slice().as_ptr(),
                ws.next_states.as_slice().as_ptr(),
                ws.target_a.as_slice().as_ptr(),
                ws.target_b.as_slice().as_ptr(),
                ws.policy.output().as_slice().as_ptr(),
                ws.policy.grads.weights[0].as_slice().as_ptr(),
                ws.policy.grads.biases[2].as_ptr(),
                a.target.layers()[0].weights.as_slice().as_ptr(),
            ]
        };
        let warm = buffers(&agent);
        for _ in 0..4 {
            agent.train_step();
        }
        assert_eq!(buffers(&agent), warm, "a buffer was reallocated after warm-up");
        assert!(agent.clone().workspace.states.as_slice().is_empty(), "clones start cold");
    }

    /// A small trained agent's checkpoint and the store it is saved through.
    fn checkpoint_fixture(tag: &str) -> (DqnCheckpoint, ModelStore, std::path::PathBuf) {
        let mut agent =
            Dqn::new(DqnConfig { replay_capacity: 8, ..small_config(2, 3, &[4], 4, 2, 5) });
        for i in 0..6 {
            agent.observe(Transition {
                state: vec![i as f32, 1.0],
                action: i % 3,
                reward: 0.5,
                next_state: vec![0.0, 1.0],
            });
            agent.train_step();
        }
        let dir = std::env::temp_dir().join(format!("osml-dqn-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (agent.checkpoint(), ModelStore::open(&dir).unwrap(), dir)
    }

    #[test]
    fn structurally_invalid_checkpoints_are_typed_errors_at_load() {
        let (good, store, dir) = checkpoint_fixture("invalid");
        assert_eq!(good.validate(), Ok(()));
        store.save_agent("good", &good).unwrap();
        assert!(store.load_agent("good").is_ok());

        type Corrupt = fn(&mut DqnCheckpoint);
        type Expect = fn(&CheckpointError) -> bool;
        let cases: [(&str, Corrupt, Expect); 14] = [
            (
                "action",
                |ck| Arc::make_mut(&mut ck.replay.items.chunks[0]).actions[1] = 3,
                |e| matches!(e, CheckpointError::ActionOutOfRange { index: 1, action: 3 }),
            ),
            (
                // Tuples that agree with each other but not with the
                // networks: read at the configured stride they would be
                // garbage, not a panic.
                "pool-width",
                |ck| {
                    ck.replay = ReplayBuffer::new(8);
                    for _ in 0..6 {
                        ck.replay.push(Transition {
                            state: vec![0.0; 3],
                            action: 0,
                            reward: 0.0,
                            next_state: vec![0.0; 3],
                        });
                    }
                },
                |e| matches!(e, CheckpointError::StateWidth { index: 0 }),
            ),
            (
                "overfull",
                |ck| {
                    ck.config.replay_capacity = 5;
                    ck.replay.capacity = 5;
                },
                |e| matches!(e, CheckpointError::ReplayRing { len: 6, capacity: 5, .. }),
            ),
            (
                "cursor",
                |ck| ck.replay.write = 8,
                |e| matches!(e, CheckpointError::ReplayRing { write: 8, capacity: 8, .. }),
            ),
            (
                "capacity",
                |ck| ck.replay.capacity = 9,
                |e| matches!(e, CheckpointError::ReplayRing { capacity: 9, .. }),
            ),
            (
                "policy-shape",
                |ck| ck.policy = Mlp::new(&MlpConfig::new(&[2, 5, 3], 0)),
                |e| matches!(e, CheckpointError::NetworkShape { network: "policy" }),
            ),
            (
                "target-shape",
                |ck| ck.target = Mlp::new(&MlpConfig::new(&[2, 3], 0)),
                |e| matches!(e, CheckpointError::NetworkShape { network: "target" }),
            ),
            (
                "adam-moments",
                |ck| ck.adam = Adam::with_defaults(&Mlp::new(&MlpConfig::new(&[2, 4, 2], 0))),
                |e| matches!(e, CheckpointError::OptimizerShape),
            ),
            (
                "zero-actions",
                |ck| ck.config.num_actions = 0,
                |e| matches!(e, CheckpointError::ZeroSize { field: "num_actions" }),
            ),
            (
                "zero-batch",
                |ck| ck.config.batch_size = 0,
                |e| matches!(e, CheckpointError::ZeroSize { field: "batch_size" }),
            ),
            (
                "zero-sync",
                |ck| ck.config.target_sync_every = 0,
                |e| matches!(e, CheckpointError::ZeroSize { field: "target_sync_every" }),
            ),
            (
                "batch-over-pool",
                |ck| ck.config.batch_size = 9,
                |e| matches!(e, CheckpointError::OutOfRange { field: "batch_size" }),
            ),
            (
                "gamma",
                |ck| ck.config.gamma = 1.5,
                |e| matches!(e, CheckpointError::OutOfRange { field: "gamma" }),
            ),
            (
                "epsilon",
                |ck| ck.config.epsilon = 1.5,
                |e| matches!(e, CheckpointError::OutOfRange { field: "epsilon" }),
            ),
        ];
        for (name, corrupt, expected) in cases {
            let mut ck = good.clone();
            corrupt(&mut ck);
            store.save_agent(name, &ck).unwrap();
            match store.load_agent(name) {
                Err(StoreError::InvalidCheckpoint(e)) => assert!(expected(&e), "{name}: {e:?}"),
                other => panic!("{name}: expected InvalidCheckpoint, got {other:?}"),
            }
        }
        // A file cannot hold a NaN γ (the codec writes it as `null`, which
        // decodes to no float), but `Dqn::restore` takes any checkpoint.
        let nan_gamma = DqnCheckpoint {
            config: DqnConfig { gamma: f32::NAN, ..good.config.clone() },
            ..good.clone()
        };
        assert_eq!(nan_gamma.validate(), Err(CheckpointError::OutOfRange { field: "gamma" }));

        // Only a file can hold a tuple of another width than its
        // neighbours: the pool in memory has one stride. The misfit is named
        // by its index, unless an earlier tuple is wrong in another way.
        let text = std::fs::read_to_string(dir.join("good.agent.json")).unwrap();
        use CheckpointError::{ActionOutOfRange, StateWidth};
        const SHORT_THIRD: (&str, &str) = ("\"state\":[2.0,1.0]", "\"state\":[2.0]");
        type Edits = &'static [(&'static str, &'static str)];
        let rows: [(&str, Edits, Result<(), CheckpointError>); 7] = [
            (
                "long-state",
                &[("\"state\":[2.0,1.0]", "\"state\":[2.0,1.0,0.0]")],
                Err(StateWidth { index: 2 }),
            ),
            (
                "short-state",
                &[("\"state\":[5.0,1.0]", "\"state\":[5.0]")],
                Err(StateWidth { index: 5 }),
            ),
            (
                "no-next-state",
                &[("\"next_state\":[0.0,1.0]", "\"next_state\":[]")],
                Err(StateWidth { index: 0 }),
            ),
            (
                "wide-first",
                &[("\"state\":[0.0,1.0]", "\"state\":[0.0,1.0,2.0]")],
                Err(StateWidth { index: 0 }),
            ),
            ("same-width", &[("\"state\":[2.0,1.0]", "\"state\":[2.5,1.0]")], Ok(())),
            // An out-of-range action before the misfit is found first; one
            // after it is not reached.
            (
                "action-first",
                &[("[1.0,1.0],\"action\":1", "[1.0,1.0],\"action\":91"), SHORT_THIRD],
                Err(ActionOutOfRange { index: 1, action: 91 }),
            ),
            (
                "misfit-first",
                &[("[4.0,1.0],\"action\":1", "[4.0,1.0],\"action\":91"), SHORT_THIRD],
                Err(StateWidth { index: 2 }),
            ),
        ];
        for (name, edits, expected) in rows {
            let mut torn = text.clone();
            for (from, to) in edits {
                assert!(torn.contains(from), "{name}: the fixture has no {from}");
                torn = torn.replacen(from, to, 1);
            }
            std::fs::write(dir.join(format!("{name}.agent.json")), torn).unwrap();
            match (store.load_agent(name), expected) {
                (Ok(ck), Ok(())) => assert_eq!(ck.replay.len(), 6),
                (Err(StoreError::InvalidCheckpoint(e)), Err(expected)) => {
                    assert_eq!(e, expected, "{name}");
                }
                (other, expected) => panic!("{name}: expected {expected:?}, got {other:?}"),
            }
        }
        // A pool decoded past a misfit holds the tuples before it, and says
        // so on the wire rather than panic: three tuples, not six.
        let torn = serde_json::to_string(&good.replay).unwrap().replacen("[3.0,1.0]", "[]", 1);
        let pool: ReplayBuffer =
            serde_json::from_str(&torn).expect("a misfit is still JSON of the right type");
        assert_eq!((pool.len(), pool.items.misfit), (6, Some(3)));
        assert_eq!(serde_json::to_string(&pool).unwrap().matches("\"state\"").count(), 3);

        // Nor can anything but a file make a weight buffer disagree with its
        // own dimensions: drop the last weight of the policy's first layer.
        let data = text.find("\"data\":[").expect("a weight buffer") + "\"data\":[".len();
        let first_comma = data + text[data..].find(',').expect("more than one weight");
        let torn = format!("{}{}", &text[..data], &text[first_comma + 1..]);
        std::fs::write(dir.join("short-buffer.agent.json"), torn).unwrap();
        assert!(matches!(
            store.load_agent("short-buffer"),
            Err(StoreError::InvalidCheckpoint(CheckpointError::NetworkShape { network: "policy" }))
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid DQN checkpoint: pooled tuple 0 holds out-of-range action 7")]
    fn restore_refuses_an_invalid_checkpoint_by_name() {
        let (mut ck, _store, dir) = checkpoint_fixture("restore");
        std::fs::remove_dir_all(dir).unwrap();
        Arc::make_mut(&mut ck.replay.items.chunks[0]).actions[0] = 7;
        let _ = Dqn::restore(ck);
    }

    #[test]
    fn replay_buffer_is_a_ring() {
        let mut rb = ReplayBuffer::new(3);
        for i in 0..5 {
            rb.push(Transition {
                state: vec![i as f32],
                action: 0,
                reward: 0.0,
                next_state: vec![0.0],
            });
        }
        assert_eq!(rb.len(), 3);
        // Items 0 and 1 were evicted.
        let remaining: Vec<f32> = (0..3).map(|i| rb.items.get(i).state[0]).collect();
        assert!(remaining.contains(&2.0) && remaining.contains(&3.0) && remaining.contains(&4.0));
    }

    #[test]
    fn epsilon_zero_is_always_greedy() {
        let mut cfg = DqnConfig::paper(2, 4, 1);
        cfg.epsilon = 0.0;
        let mut agent = Dqn::new(cfg);
        let s = vec![0.5, -0.5];
        let greedy = agent.best_action(&s);
        for _ in 0..50 {
            assert_eq!(agent.select_action(&s), greedy);
        }
    }

    #[test]
    fn epsilon_one_explores_uniformly() {
        let mut cfg = DqnConfig::paper(2, 4, 2);
        cfg.epsilon = 1.0;
        let mut agent = Dqn::new(cfg);
        let s = vec![0.0, 0.0];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[agent.select_action(&s)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all actions should be explored: {seen:?}");
    }

    #[test]
    fn train_step_requires_a_full_batch() {
        let mut cfg = DqnConfig::paper(2, 2, 3);
        cfg.batch_size = 10;
        let mut agent = Dqn::new(cfg);
        assert_eq!(agent.train_step(), None);
        for i in 0..10 {
            agent.observe(Transition {
                state: vec![i as f32, 0.0],
                action: i % 2,
                reward: 0.0,
                next_state: vec![0.0, 0.0],
            });
        }
        assert!(agent.train_step().is_some());
    }

    #[test]
    fn dqn_learns_a_two_armed_bandit() {
        // Single state; action 1 pays 1.0, action 0 pays 0.0. The greedy
        // policy must converge to action 1.
        let mut cfg = DqnConfig::paper(1, 2, 7);
        cfg.batch_size = 32;
        cfg.gamma = 0.0; // bandit: no bootstrapping needed
        let mut agent = Dqn::new(cfg);
        let s = vec![1.0];
        for _ in 0..200 {
            let a = agent.select_action(&s);
            let r = if a == 1 { 1.0 } else { 0.0 };
            agent.observe(Transition {
                state: s.clone(),
                action: a,
                reward: r,
                next_state: s.clone(),
            });
            agent.train_step();
        }
        assert_eq!(agent.best_action(&s), 1, "q-values: {:?}", agent.q_values(&s));
    }

    #[test]
    fn dqn_propagates_reward_through_gamma() {
        // Two states: acting "right" (1) in state 0 leads to state 1 where
        // any action yields reward 1. With gamma > 0, state 0's Q for action
        // 1 must exceed action 0's (which self-loops with no reward).
        let mut cfg = DqnConfig::paper(1, 2, 11);
        cfg.batch_size = 32;
        cfg.gamma = 0.9;
        cfg.epsilon = 0.3;
        let mut agent = Dqn::new(cfg);
        let s0 = vec![0.0];
        let s1 = vec![1.0];
        for _ in 0..400 {
            // Transitions from s0.
            let a = agent.select_action(&s0);
            let (r, next) = if a == 1 { (0.0, s1.clone()) } else { (0.0, s0.clone()) };
            agent.observe(Transition { state: s0.clone(), action: a, reward: r, next_state: next });
            // Terminal-ish reward at s1 (both actions pay; self-loop).
            agent.observe(Transition {
                state: s1.clone(),
                action: 0,
                reward: 1.0,
                next_state: s1.clone(),
            });
            agent.train_step();
        }
        let q = agent.q_values(&s0);
        assert!(q[1] > q[0], "gamma must propagate future reward: {q:?}");
    }

    #[test]
    fn target_network_syncs_on_schedule() {
        let mut cfg = DqnConfig::paper(1, 2, 13);
        cfg.batch_size = 4;
        cfg.target_sync_every = 2;
        let mut agent = Dqn::new(cfg);
        for i in 0..8 {
            agent.observe(Transition {
                state: vec![i as f32],
                action: 0,
                reward: 1.0,
                next_state: vec![0.0],
            });
        }
        agent.train_step();
        assert_ne!(agent.policy.forward(&[1.0]), agent.target.forward(&[1.0]));
        agent.train_step(); // update 2: sync
        assert_eq!(agent.policy.forward(&[1.0]), agent.target.forward(&[1.0]));
    }

    #[test]
    #[should_panic(expected = "action out of range")]
    fn observe_validates_action() {
        let mut agent = Dqn::new(DqnConfig::paper(1, 2, 0));
        agent.observe(Transition {
            state: vec![0.0],
            action: 5,
            reward: 0.0,
            next_state: vec![0.0],
        });
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let run = |seed| {
            let mut agent = Dqn::new(DqnConfig::paper(2, 5, seed));
            (0..20).map(|i| agent.select_action(&[i as f32, 0.0])).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }
}
