//! # cdl-tensor
//!
//! A deliberately small, dependency-light tensor library providing exactly the
//! numeric primitives that the Conditional Deep Learning (CDL, DATE 2016)
//! reproduction needs:
//!
//! * a row-major, heap-allocated `f32` [`Tensor`] with a dynamic [`Shape`],
//! * elementwise arithmetic and reductions ([`ops`]),
//! * dense matrix–vector / matrix–matrix products ([`ops`]),
//! * the kernels of the batched hot paths ([`gemm`]; the batched
//!   convolution's entry is [`im2col`]): each written once over `[f32; 8]`
//!   lane arrays and compiled twice, baseline and AVX2, bit-identical by
//!   construction, the host deciding which runs ([`GemmKernel`]),
//! * *valid* 2-D multi-channel convolution / cross-correlation and their
//!   gradients ([`conv`]),
//! * max pooling with argmax bookkeeping for backprop ([`pool`]),
//! * the workspace's logistic function — an FMA-free polynomial `exp`,
//!   written once, compiled twice ([`math`]),
//! * weight initialisers (uniform, Xavier/Glorot, LeCun) ([`init`]).
//!
//! The layer zoo in `cdl-nn` is written against this crate; nothing here is
//! specific to CDL itself.
//!
//! ## Example
//!
//! ```
//! use cdl_tensor::{Tensor, conv};
//!
//! // one 3x3 input channel, one 2x2 kernel
//! let input = Tensor::from_vec(vec![1., 2., 3.,
//!                                   4., 5., 6.,
//!                                   7., 8., 9.], &[1, 3, 3]).unwrap();
//! let kernel = Tensor::from_vec(vec![1., 0.,
//!                                    0., 1.], &[1, 1, 2, 2]).unwrap();
//! let out = conv::conv2d_valid(&input, &kernel, &[0.0]).unwrap();
//! assert_eq!(out.shape().dims(), &[1, 2, 2]);
//! assert_eq!(out.data(), &[6., 8., 12., 14.]); // x[i][j] + x[i+1][j+1]
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod conv;
pub mod error;
pub mod gemm;
pub mod im2col;
pub mod init;
pub mod math;
pub mod ops;
pub mod pool;
pub mod rows;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use gemm::GemmKernel;
pub use rows::Rows;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
