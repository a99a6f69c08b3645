//! From-scratch neural-network machinery for the OSML reproduction.
//!
//! The paper trains its models with TensorFlow 1.13 on a GTX 1080; the
//! networks themselves are tiny (3 hidden layers of 40 neurons for
//! Model-A/B, 3 × 30 for Model-C's DQN), so this crate implements the exact
//! math in portable Rust instead:
//!
//! * [`Matrix`] — a minimal row-major `f32` matrix,
//! * [`Mlp`] — a multi-layer perceptron with ReLU hidden activations and a
//!   linear output layer, with full backpropagation,
//! * [`loss`] — MSE (Model-A, §IV-A) and the paper's zero-masked relative
//!   loss for Model-B (§IV-B): `L = 1/n Σ ((y/(y+C)) (s - y))²`,
//! * [`Adam`] — the Adam optimizer exactly as written in §IV-A, including
//!   the bias-correction step,
//! * [`Trainer`] — seeded mini-batch training with validation metrics,
//! * [`dqn`] — a Deep Q-Network (policy + target nets, experience replay,
//!   ε-greedy exploration) matching Model-C's structure (§IV-C),
//! * [`store`] — versioned on-disk persistence for trained networks,
//! * [`par`] — the scoped-thread work pool (`OSML_JOBS`) behind the
//!   parallel sweep/grid/training pipeline.
//!
//! Everything is deterministic given a seed.
//!
//! # Example
//!
//! ```
//! use osml_ml::{loss::Mse, Adam, Matrix, Mlp, MlpConfig};
//!
//! // Learn y = 2x on a tiny net.
//! let mut mlp = Mlp::new(&MlpConfig::paper_mlp(1, 1, 42));
//! let mut adam = Adam::with_defaults(&mlp);
//! let (mut x, mut y) = (Matrix::zeros(4, 1), Matrix::zeros(4, 1));
//! x.as_mut_slice().copy_from_slice(&[0.0, 0.5, 1.0, 1.5]);
//! y.as_mut_slice().copy_from_slice(&[0.0, 1.0, 2.0, 3.0]);
//! for _ in 0..3000 {
//!     mlp.train_batch(&x, &y, &Mse, &mut adam);
//! }
//! let pred = mlp.forward(&[1.25]);
//! assert!((pred[0] - 2.5).abs() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod dqn;
pub mod loss;
mod matrix;
mod mlp;
mod optimizer;
pub mod par;
pub mod store;
mod trainer;

pub use matrix::Matrix;
pub use mlp::{Mlp, MlpConfig};
pub use optimizer::Adam;
pub(crate) use optimizer::AdamConfig;
pub use trainer::{TrainReport, Trainer, TrainerConfig};
