//! # cdl-bench
//!
//! Experiment harness regenerating **every table and figure** of the CDL
//! paper (Panda et al., DATE 2016). Each experiment is a module under
//! [`experiments`], and the one binary runs them all or the reports it is
//! given by name, so
//!
//! ```text
//! cargo run --release -p cdl-bench --bin run_all -- fig5_ops_per_digit
//! ```
//!
//! prints (and saves) the reproduction of Fig. 5, and so on (the
//! [`experiments`] module docs are the full index; `--bin run_all` with no
//! argument runs the whole evaluation in one go, and an unknown name lists
//! the fifteen reports).
//!
//! The [`pipeline`] module holds the shared train-once logic: baselines are
//! trained and heads built through Algorithm 1, then cached on disk
//! (`target/cdl-cache/`) so a later run for one figure doesn't retrain.
//!
//! ## Scale knobs (environment variables)
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `CDL_TRAIN_N` | 20000 | training-set size |
//! | `CDL_TEST_N` | 4000 | test-set size |
//! | `CDL_EPOCHS` | 10 | baseline training epochs |
//! | `CDL_DELTA` | 0.5 | confidence threshold δ |
//! | `CDL_SEED` | 42 | master data/init seed |
//! | `CDL_MNIST_DIR` | — | directory with real MNIST IDX files (optional) |
//! | `CDL_PROFILE` | `default` | synthetic data profile: `default` or `easy` |
//!
//! A value that does not parse, or another profile, is an error that names
//! the variable and its value: nothing falls back to a default silently.
//!
//! The paper's full scale is `CDL_TRAIN_N=60000 CDL_TEST_N=10000`.

pub mod experiments;
pub mod pipeline;

pub use pipeline::{ExperimentConfig, Prepared, PreparedPair};
