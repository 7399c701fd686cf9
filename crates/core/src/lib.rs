//! # cdl-core — Conditional Deep Learning
//!
//! The primary contribution of Panda, Sengupta & Roy, *"Conditional Deep
//! Learning for Energy-Efficient and Enhanced Pattern Recognition"*, DATE
//! 2016, reimplemented as a Rust library.
//!
//! A **CDLN** (Conditional Deep Learning Network) wraps a trained baseline
//! CNN ("DLN") and attaches a small **linear classifier** to the output of
//! selected convolutional/pooling stages. At inference time the input flows
//! stage by stage:
//!
//! 1. run the next slice of the baseline network to the stage's tap point,
//! 2. evaluate the stage's linear classifier on the (flattened) features,
//! 3. let the **activation module** ([`confidence::ConfidencePolicy`])
//!    decide — if exactly one class is confident beyond the user threshold
//!    **δ**, classification *terminates here* and deeper layers are never
//!    executed; otherwise the next stage is activated.
//!
//! Training follows the paper's Algorithm 1 ([`builder`]): heads are trained
//! with the least-mean-square rule on the features of instances that reach
//! their stage, and a head is only *admitted* into the final network when its
//! measured **gain** `G_i = (γ_base − γ_i)·Cl_i − γ_head·(I_i − Cl_i)`
//! exceeds a threshold ε. Inference is Algorithm 2 ([`network::CdlNetwork`]).
//!
//! The architecture presets of the paper's Tables I & II live in [`arch`];
//! evaluation/statistics (per-digit OPS, exit histograms, energy) in
//! [`stats`]; the δ- and stage-count sweeps behind Figs. 9 & 10 in
//! [`sweep`]; δ calibration and the oracle bound in [`calibrate`]. All of
//! them read one δ-free [`batch::CascadeTrace`] per data set — δ is a
//! runtime knob, so asking about another δ never runs the network again.
//!
//! ## Example
//!
//! ```no_run
//! use cdl_core::arch;
//! use cdl_core::builder::{CdlBuilder, BuilderConfig};
//! use cdl_core::confidence::ConfidencePolicy;
//! use cdl_dataset::SyntheticMnist;
//! use cdl_nn::network::Network;
//! use cdl_nn::trainer::{train, TrainConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (train_set, test_set) = SyntheticMnist::default().generate_split(6000, 1000, 1);
//! // 1. train the baseline DLN (paper Table II)
//! let arch = arch::mnist_3c();
//! let mut dln = Network::from_spec(&arch.spec, 7)?;
//! train(&mut dln, &train_set, &TrainConfig::default())?;
//! // 2. Algorithm 1: train + admit linear classifiers
//! let cdln = CdlBuilder::new(arch, ConfidencePolicy::max_prob(0.6))
//!     .build(dln, &train_set, &BuilderConfig::default())?;
//! // 3. Algorithm 2: early-exit inference
//! let out = cdln.network().classify(&test_set.images[0])?;
//! println!("label {} at stage {}", out.label, out.exit_stage);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod arch;
pub mod batch;
pub mod builder;
pub mod calibrate;
pub mod confidence;
pub mod error;
pub mod head;
pub mod network;
pub mod persist;
pub mod stats;
pub mod sweep;

pub use arch::CdlArchitecture;
pub use batch::{BatchEvaluator, CascadeTrace, PartialEval, SheddableOutcome};
pub use builder::{BuilderConfig, CdlBuilder, TrainedCdl};
pub use confidence::{ConfidencePolicy, Decision, ExitOverride};
pub use error::CdlError;
pub use head::LinearClassifier;
pub use network::{CdlNetwork, CdlOutput};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CdlError>;
