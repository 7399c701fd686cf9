//! # cdl-nn
//!
//! A from-scratch convolutional neural network library — the "Deep Learning
//! convolutional Network (DLN)" substrate of the CDL (DATE 2016)
//! reproduction. It provides everything needed to train the paper's two
//! LeNet-style baselines (Tables I & II) with plain minibatch SGD:
//!
//! * [`layers`] — `Conv2d`, `MaxPool2d`, `Dense`, the sigmoid activation
//!   layer and `Flatten`, all implementing the [`Layer`] trait with exact
//!   backward passes;
//! * [`loss`] — mean-squared error against a one-hot target (the paper
//!   trains sigmoid nets with MSE, following R. Palm's toolbox);
//! * [`optim`] — SGD with momentum and step decay;
//! * [`network`] — a sequential [`Network`] container with per-layer
//!   activation capture (the hook the conditional stages attach to);
//! * [`trainer`] — epoch/minibatch training loop and accuracy;
//! * every layer reports categorised operation counts
//!   ([`cdl_hw::OpCount`]) so the energy model can cost any network.
//!
//! ## Example
//!
//! ```
//! use cdl_nn::network::Network;
//! use cdl_nn::spec::{LayerSpec, NetworkSpec};
//! use cdl_nn::activation::Activation;
//! use cdl_tensor::Tensor;
//!
//! // A tiny conv net for 8x8 single-channel inputs, 4 classes.
//! let spec = NetworkSpec::new(vec![
//!     LayerSpec::conv(1, 4, 3, Activation::Sigmoid),
//!     LayerSpec::maxpool(2),
//!     LayerSpec::flatten(),
//!     LayerSpec::dense(4 * 3 * 3, 4, Activation::Sigmoid),
//! ], &[1, 8, 8]);
//! let mut net = Network::from_spec(&spec, 42).unwrap();
//! let x = Tensor::zeros(&[1, 8, 8]);
//! let y = net.forward(&x).unwrap();
//! assert_eq!(y.dims(), &[4]);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod activation;
pub mod batch;
pub mod error;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod network;
pub mod optim;
pub mod spec;
pub mod trainer;

pub use activation::Activation;
pub use batch::BatchScratch;
pub use error::NnError;
pub use layer::Layer;
pub use network::Network;
pub use optim::Sgd;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, NnError>;
