//! # cdl-dataset
//!
//! Data substrate for the CDL (DATE 2016) reproduction.
//!
//! The paper evaluates on MNIST (60 000 training / 10 000 test images of
//! handwritten digits, 28×28 grayscale). The original IDX files are not
//! redistributable inside this repository, so this crate provides both:
//!
//! * [`idx`] — a loader for the original IDX (`ubyte`) format: if you
//!   place the four classic MNIST files in a directory, every experiment can
//!   run on the real data;
//! * [`generator`] — a **procedural synthetic MNIST**: per-digit stroke
//!   skeletons ([`strokes`]) rasterised with anti-aliasing ([`raster`]) under
//!   randomized distortions ([`distort`]) whose magnitude follows a
//!   *difficulty distribution* (most samples easy, a heavy-ish tail hard).
//!
//! The synthetic generator is what the CDL mechanism needs from MNIST: a
//! 10-class 28×28 task where classification difficulty varies widely across
//! inputs — clean samples are separable from early convolutional features
//! while heavily distorted ones require the full network. Digit shapes also
//! differ in intrinsic complexity (a `1` is two straight strokes, a `5`/`8`
//! is several curves), which reproduces the paper's per-digit ordering
//! (digit 1 easiest, digit 5 hardest).
//!
//! ## Example
//!
//! ```
//! use cdl_dataset::generator::{SyntheticConfig, SyntheticMnist};
//!
//! let gen = SyntheticMnist::new(SyntheticConfig::default());
//! let set = gen.generate(100, 42); // 100 images, seeded
//! assert_eq!(set.len(), 100);
//! assert_eq!(set.images[0].dims(), &[1, 28, 28]);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod ascii;
pub mod distort;
pub mod generator;
pub mod idx;
pub mod raster;
pub mod strokes;

pub use generator::{SyntheticConfig, SyntheticMnist};
