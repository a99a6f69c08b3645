use crate::{features, Scratch};
use osml_ml::dqn::{Dqn, DqnCheckpoint, DqnConfig, Transition};
use osml_ml::Mlp;
use osml_platform::CounterSample;
use serde::{Deserialize, Serialize};

/// Each action component (Δcores and Δways) ranges over `[-3, 3]` (§IV-C:
/// `Action_Function: {<m, n> | m ∈ [-3,3], n ∈ [-3,3]}`).
pub(crate) const ACTION_RANGE: i32 = 3;

/// Number of discrete actions: 7 × 7 = 49.
pub const ACTIONS: usize = ((2 * ACTION_RANGE + 1) * (2 * ACTION_RANGE + 1)) as usize;

/// One scheduling action: allocate (+) or deprive (−) cores and LLC ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Action {
    /// Core delta `m`; positive allocates more cores.
    pub dcores: i32,
    /// Way delta `n`; positive allocates more ways.
    pub dways: i32,
}

impl Action {
    /// The do-nothing action.
    pub fn noop() -> Self {
        Action { dcores: 0, dways: 0 }
    }

    /// Decodes an action index (0..[`ACTIONS`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= ACTIONS`.
    pub fn from_index(index: usize) -> Self {
        assert!(index < ACTIONS, "action index {index} out of range");
        let side = (2 * ACTION_RANGE + 1) as usize;
        Action {
            dcores: (index / side) as i32 - ACTION_RANGE,
            dways: (index % side) as i32 - ACTION_RANGE,
        }
    }

    /// Encodes to an action index.
    ///
    /// # Panics
    ///
    /// Panics if either delta is outside `[-ACTION_RANGE, ACTION_RANGE]`.
    pub(crate) fn index(&self) -> usize {
        assert!(self.dcores.abs() <= ACTION_RANGE && self.dways.abs() <= ACTION_RANGE);
        let side = 2 * ACTION_RANGE + 1;
        ((self.dcores + ACTION_RANGE) * side + (self.dways + ACTION_RANGE)) as usize
    }

    /// Total resources this action commits (positive deltas only) — the
    /// `ΔCoreNum + ΔCacheWay` cost term of the reward function.
    pub(crate) fn resource_cost(&self) -> f64 {
        f64::from(self.dcores + self.dways)
    }
}

/// Inputs to the paper's Model-C reward function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct RewardInput {
    /// Latency before the action, ms.
    pub latency_before_ms: f64,
    /// Latency after the action, ms.
    pub latency_after_ms: f64,
    /// The action taken.
    pub action: Action,
}

/// The paper's reward function (§IV-C), verbatim:
///
/// ```text
/// lat↓:  R = +log(lat_prev − lat_cur) − (ΔCores + ΔWays)
/// lat↑:  R = −log(lat_cur − lat_prev) − (ΔCores + ΔWays)
/// lat=:  R = −(ΔCores + ΔWays)
/// ```
///
/// "This function gives higher rewards and expectations to the Action that
/// can lead to less resource usage and lower latency." The log argument is
/// in milliseconds; differences below 1 ms are clamped to 1 ms so the log
/// stays non-negative and finite.
pub(crate) fn reward(input: &RewardInput) -> f64 {
    let cost = input.action.resource_cost();
    let diff = input.latency_before_ms - input.latency_after_ms;
    if diff > 0.0 {
        diff.max(1.0).ln() - cost
    } else if diff < 0.0 {
        -((-diff).max(1.0).ln()) - cost
    } else {
        -cost
    }
}

/// **Model-C: handling the changes on the fly** (§IV-C).
///
/// An enhanced DQN whose policy/target networks are 3-hidden-layer MLPs of
/// 30 neurons. The state is a normalized counter sample plus latency; the 49
/// actions adjust cores/ways by up to ±3 each. Exploration is ε-greedy with
/// ε = 5 %.
#[derive(Debug, Clone)]
pub struct ModelC {
    dqn: Dqn,
}

impl ModelC {
    /// Creates an untrained Model-C.
    pub fn new(seed: u64) -> Self {
        ModelC { dqn: Dqn::new(DqnConfig::paper(features::MODEL_C_STATE, ACTIONS, seed)) }
    }

    /// ε-greedy action selection from a counter sample.
    pub fn select_action(&mut self, sample: &CounterSample) -> Action {
        Action::from_index(self.dqn.select_action(&state(sample)))
    }

    /// The highest-Q action among those satisfying `pred`, or `None` if no
    /// action qualifies. The OSML controller uses this to restrict Model-C
    /// to growth actions under a QoS violation (Algorithm 2) and to
    /// reclamation actions when resources are surplus (Algorithm 3).
    pub fn best_action_where(
        &self,
        sample: &CounterSample,
        scratch: &mut Scratch,
        mut pred: impl FnMut(Action) -> bool,
    ) -> Option<Action> {
        let q = scratch.run(self.dqn.policy(), |row| features::write_model_c_state(sample, row));
        (0..ACTIONS)
            .map(Action::from_index)
            .filter(|&a| pred(a))
            .max_by(|a, b| q[a.index()].total_cmp(&q[b.index()]))
    }

    /// Records an observed `<Status, Action, Reward, Status'>` tuple in the
    /// experience pool. The reward is computed with the paper's function.
    pub fn observe(
        &mut self,
        before: &CounterSample,
        action: Action,
        after: &CounterSample,
    ) -> f64 {
        let r = reward(&RewardInput {
            latency_before_ms: before.response_latency_ms,
            latency_after_ms: after.response_latency_ms,
            action,
        });
        self.dqn.observe(Transition {
            state: state(before),
            action: action.index(),
            reward: r as f32,
            next_state: state(after),
        });
        r
    }

    /// One online-training step (samples 200 tuples by default); `None`
    /// until the pool holds a full batch.
    pub fn train_step(&mut self) -> Option<f32> {
        self.dqn.train_step()
    }

    /// Number of pooled experience tuples.
    pub fn pool_len(&self) -> usize {
        self.dqn.pool_len()
    }

    /// Read access to the policy network (for persistence).
    pub fn policy(&self) -> &Mlp {
        self.dqn.policy()
    }

    /// Captures the complete agent state (both networks, experience pool,
    /// optimizer moments, RNG position) for durable persistence.
    pub fn checkpoint(&self) -> DqnCheckpoint {
        self.dqn.checkpoint()
    }

    /// Rebuilds a Model-C from a checkpoint captured by
    /// [`ModelC::checkpoint`]. The restored model resumes exploration and
    /// online training exactly where the checkpointed one stopped.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint disagrees with the Model-C state width or
    /// action count (a checkpoint from a different schema).
    pub fn restore(ck: DqnCheckpoint) -> Self {
        assert_eq!(ck.config.state_dim, features::MODEL_C_STATE, "state width is fixed");
        assert_eq!(ck.config.num_actions, ACTIONS, "action count is fixed");
        ModelC { dqn: Dqn::restore(ck) }
    }
}

/// Model-C's state row as the owned vector an experience tuple keeps.
fn state(sample: &CounterSample) -> Vec<f32> {
    let mut row = vec![0.0; features::MODEL_C_STATE];
    features::write_model_c_state(sample, &mut row);
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(latency_ms: f64) -> CounterSample {
        CounterSample {
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
            response_latency_ms: latency_ms,
        }
    }

    #[test]
    fn action_index_round_trips() {
        for i in 0..ACTIONS {
            let a = Action::from_index(i);
            assert_eq!(a.index(), i);
            assert!(a.dcores.abs() <= 3 && a.dways.abs() <= 3);
        }
        assert_eq!(Action::noop().index(), ACTIONS / 2);
    }

    #[test]
    fn action_space_is_49() {
        assert_eq!(ACTIONS, 49);
    }

    #[test]
    fn reward_prefers_latency_drop_with_few_resources() {
        // Big latency drop, no new resources: strongly positive.
        let gain_free = reward(&RewardInput {
            latency_before_ms: 1000.0,
            latency_after_ms: 10.0,
            action: Action { dcores: 0, dways: 0 },
        });
        assert!(gain_free > 6.0);
        // Same drop bought with 6 resources: less attractive.
        let gain_costly = reward(&RewardInput {
            latency_before_ms: 1000.0,
            latency_after_ms: 10.0,
            action: Action { dcores: 3, dways: 3 },
        });
        assert!(gain_costly < gain_free);
        // Latency regression is punished.
        let regress = reward(&RewardInput {
            latency_before_ms: 10.0,
            latency_after_ms: 1000.0,
            action: Action { dcores: 0, dways: 0 },
        });
        assert!(regress < 0.0);
        // Releasing resources at equal latency is rewarded.
        let reclaim = reward(&RewardInput {
            latency_before_ms: 10.0,
            latency_after_ms: 10.0,
            action: Action { dcores: -2, dways: -1 },
        });
        assert!((reclaim - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reward_handles_sub_millisecond_diffs() {
        let r = reward(&RewardInput {
            latency_before_ms: 10.0,
            latency_after_ms: 9.9999,
            action: Action::noop(),
        });
        assert!(r.is_finite());
        assert!(r >= 0.0, "a tiny improvement must not be negative: {r}");
    }

    #[test]
    fn observe_computes_paper_reward() {
        let mut c = ModelC::new(3);
        let r = c.observe(&sample(100.0), Action { dcores: 1, dways: 0 }, &sample(10.0));
        assert!((r - (90.0f64.ln() - 1.0)).abs() < 1e-9);
        assert_eq!(c.pool_len(), 1);
    }

    #[test]
    fn model_c_learns_to_stop_wasting_resources() {
        // Synthetic environment: latency is flat at 5 ms regardless of
        // action. The reward then reduces to -(dcores + dways), so the
        // greedy action must converge to strictly negative deltas (reclaim).
        // ε = 0.3 is a training-phase exploration boost for this synthetic
        // environment only (600 steps are too few for ε = 0.05 to cover the
        // action space). Deployed Model-C keeps the paper's ε = 0.05, pinned
        // by `paper_config_pins_the_deployment_epsilon` below.
        let mut c = ModelC {
            dqn: Dqn::new(DqnConfig {
                batch_size: 64,
                epsilon: 0.3,
                ..DqnConfig::paper(features::MODEL_C_STATE, ACTIONS, 11)
            }),
        };
        let s = sample(5.0);
        for _ in 0..600 {
            let a = c.select_action(&s);
            c.observe(&s, a, &s);
            c.train_step();
        }
        let best = c.best_action_where(&s, &mut Scratch::default(), |_| true).unwrap();
        assert!(
            best.dcores + best.dways < 0,
            "model-c should reclaim resources at stable latency, chose {best:?}"
        );
    }

    #[test]
    fn paper_config_pins_the_deployment_epsilon() {
        // §IV-C: deployed Model-C explores with ε = 0.05. Tests may boost ε
        // to speed up synthetic training runs, but the production default
        // must stay at the paper's value.
        let cfg = DqnConfig::paper(features::MODEL_C_STATE, ACTIONS, 1);
        assert_eq!(cfg.epsilon, 0.05);
        assert_eq!(ModelC::new(1).dqn.config().epsilon, 0.05);
    }
}
