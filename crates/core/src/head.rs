//! Linear classifier heads — the "cascade of linear networks" added at each
//! convolutional layer.
//!
//! A head is a single dense layer (`features → classes`) trained with the
//! **least-mean-square (delta) rule** on sigmoid outputs, exactly the "linear
//! network of output neurons … trained with the target labels using the
//! least mean square rule" of the paper's Algorithm 1. Being tiny, heads
//! converge in a couple of passes over their stage's feature vectors.

use cdl_nn::activation::Activation;
use cdl_nn::loss::one_hot;
use cdl_tensor::{gemm::GemmKernel, init::Init, math, ops, Rows, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::CdlError;
use crate::Result;

/// Training hyper-parameters for the LMS rule.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LmsConfig {
    /// Passes over the stage's feature set.
    pub epochs: usize,
    /// LMS learning rate.
    pub lr: f32,
    /// Learning-rate multiplier per epoch.
    pub lr_decay: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for LmsConfig {
    fn default() -> Self {
        LmsConfig {
            epochs: 14,
            lr: 0.25,
            lr_decay: 0.85,
            seed: 0x1C,
        }
    }
}

/// A linear classifier head: `scores = W·x + b`, prediction through sigmoid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearClassifier {
    weight: Tensor, // [classes, features]
    bias: Tensor,   // [classes]
}

impl LinearClassifier {
    /// Creates a head with small random weights.
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadStage`] when either dimension is zero.
    pub fn new(features: usize, classes: usize, seed: u64) -> Result<Self> {
        if features == 0 || classes == 0 {
            return Err(CdlError::BadStage(format!(
                "linear classifier dims must be non-zero: features={features} classes={classes}"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(LinearClassifier {
            weight: Init::LecunUniform.build(&[classes, features], features, classes, &mut rng),
            bias: Tensor::zeros(&[classes]),
        })
    }

    /// Input feature count.
    pub fn features(&self) -> usize {
        self.weight.dims()[1]
    }

    /// Output class count.
    pub fn classes(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Raw affine scores for a feature vector (any rank; flattened).
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadStage`] on fan-in mismatch.
    pub fn scores(&self, features: &Tensor) -> Result<Tensor> {
        if features.len() != self.features() {
            return Err(CdlError::BadStage(format!(
                "head expects {} features, got {}",
                self.features(),
                features.len()
            )));
        }
        let flat = if features.rank() == 1 {
            features.clone()
        } else {
            features.flatten()
        };
        let mut y = ops::matvec(&self.weight, &flat)?;
        for (o, b) in y.data_mut().iter_mut().zip(self.bias.data()) {
            *o += b;
        }
        Ok(y)
    }

    /// Raw affine scores for a whole batch of feature rows — read where they
    /// lie, a block of an evaluator's arena or the caller's tensors — written
    /// into a preallocated buffer (`out` becomes `[batch, classes]`
    /// row-major) by `kernel`'s body of the batched affine.
    ///
    /// Bit-identical to calling [`LinearClassifier::scores`] per element
    /// on **both** [`GemmKernel`] arms — each accumulates per element in
    /// the same order (see `cdl_tensor::gemm`) — while performing no
    /// allocation beyond growing `out` on first use.
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadStage`] on any fan-in mismatch.
    pub fn scores_rows_into(
        &self,
        features: Rows<'_>,
        out: &mut Vec<f32>,
        kernel: GemmKernel,
    ) -> Result<()> {
        if !features.all_have_width(self.features()) {
            return Err(CdlError::BadStage(format!(
                "head expects {} features per image",
                self.features()
            )));
        }
        // every element is overwritten by the affine pass
        out.resize(features.len() * self.classes(), 0.0);
        ops::affine_rows_into(features, &self.weight, self.bias.data(), out, kernel)?;
        Ok(())
    }

    /// [`LinearClassifier::scores_rows_into`] over one feature tensor per
    /// image (a row-major tensor's buffer is its flattened feature vector).
    ///
    /// # Errors
    ///
    /// As [`LinearClassifier::scores_rows_into`].
    pub fn scores_batch_into(
        &self,
        features: &[Tensor],
        out: &mut Vec<f32>,
        kernel: GemmKernel,
    ) -> Result<()> {
        self.scores_rows_into(Rows::Tensors(features), out, kernel)
    }

    /// Sigmoid outputs (the paper's output-neuron activations).
    ///
    /// # Errors
    ///
    /// Same as [`LinearClassifier::scores`].
    pub fn outputs(&self, features: &Tensor) -> Result<Tensor> {
        let mut out = self.scores(features)?;
        math::sigmoid_slice(out.data_mut());
        Ok(out)
    }

    /// Predicted label.
    ///
    /// # Errors
    ///
    /// Same as [`LinearClassifier::scores`].
    pub fn predict(&self, features: &Tensor) -> Result<usize> {
        Ok(self
            .scores(features)?
            .argmax()
            .expect("classes >= 1 by construction"))
    }

    /// One LMS (delta-rule) update on a single sample:
    /// `W += lr · (t − σ(Wx+b)) σ'(·) xᵀ`.
    ///
    /// # Errors
    ///
    /// Propagates score errors; rejects out-of-range labels.
    pub fn lms_update(&mut self, features: &Tensor, label: usize, lr: f32) -> Result<f32> {
        let target = one_hot(label, self.classes()).map_err(CdlError::Nn)?;
        let out = self.outputs(features)?;
        let flat = if features.rank() == 1 {
            features.clone()
        } else {
            features.flatten()
        };
        // delta_j = (t_j - y_j) * y_j (1 - y_j)
        let mut err = 0.0f32;
        let classes = self.classes();
        let feats = self.features();
        for j in 0..classes {
            let y = out.data()[j];
            let e = target.data()[j] - y;
            err += e * e;
            let delta = lr * e * Activation::Sigmoid.derivative_from_output(y);
            if delta == 0.0 {
                continue;
            }
            let row = &mut self.weight.data_mut()[j * feats..(j + 1) * feats];
            for (w, &x) in row.iter_mut().zip(flat.data()) {
                *w += delta * x;
            }
            self.bias.data_mut()[j] += delta;
        }
        Ok(err / classes as f32)
    }

    /// Trains the head on a feature/label set with the LMS rule.
    ///
    /// Returns the mean squared error of the final epoch.
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadDataset`] for an empty or misaligned set.
    pub fn train_lms(
        &mut self,
        features: &[Tensor],
        labels: &[usize],
        cfg: &LmsConfig,
    ) -> Result<f32> {
        if features.is_empty() {
            return Err(CdlError::BadDataset("no features to train head on".into()));
        }
        if features.len() != labels.len() {
            return Err(CdlError::BadDataset(format!(
                "{} feature vectors vs {} labels",
                features.len(),
                labels.len()
            )));
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..features.len()).collect();
        let mut lr = cfg.lr;
        let mut last_mse = f32::INFINITY;
        for _ in 0..cfg.epochs.max(1) {
            order.shuffle(&mut rng);
            let mut mse_sum = 0.0f64;
            for &i in &order {
                mse_sum += self.lms_update(&features[i], labels[i], lr)? as f64;
            }
            last_mse = (mse_sum / features.len() as f64) as f32;
            lr *= cfg.lr_decay;
        }
        Ok(last_mse)
    }

    /// Accuracy of the head on a feature/label set.
    ///
    /// # Errors
    ///
    /// Propagates score errors.
    pub fn accuracy(&self, features: &[Tensor], labels: &[usize]) -> Result<f64> {
        if features.is_empty() {
            return Ok(0.0);
        }
        let mut correct = 0usize;
        for (f, &l) in features.iter().zip(labels) {
            if self.predict(f)? == l {
                correct += 1;
            }
        }
        Ok(correct as f64 / features.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Gaussian blobs: class c centred at unit vector e_c * 2.
    fn blobs(
        n: usize,
        classes: usize,
        dim: usize,
        spread: f32,
        seed: u64,
    ) -> (Vec<Tensor>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let c = rng.random_range(0..classes);
            let v: Vec<f32> = (0..dim)
                .map(|d| {
                    let centre = if d == c { 2.0 } else { 0.0 };
                    centre + rng.random_range(-spread..spread)
                })
                .collect();
            xs.push(Tensor::from_vec(v, &[dim]).unwrap());
            ys.push(c);
        }
        (xs, ys)
    }

    #[test]
    fn construction_validates() {
        assert!(LinearClassifier::new(0, 10, 1).is_err());
        assert!(LinearClassifier::new(10, 0, 1).is_err());
        let h = LinearClassifier::new(864, 10, 1).unwrap();
        assert_eq!(h.features(), 864);
        assert_eq!(h.classes(), 10);
        // the Eq. 1 "additional cost" of one evaluation
        assert_eq!(crate::network::head_op_count(&h).macs, 8640);
    }

    #[test]
    fn lms_learns_separable_blobs() {
        let (xs, ys) = blobs(300, 4, 8, 0.4, 3);
        let mut h = LinearClassifier::new(8, 4, 5).unwrap();
        let before = h.accuracy(&xs, &ys).unwrap();
        let mse = h.train_lms(&xs, &ys, &LmsConfig::default()).unwrap();
        let after = h.accuracy(&xs, &ys).unwrap();
        assert!(after > 0.95, "accuracy {before} -> {after}, mse {mse}");
        assert!(after > before);
    }

    #[test]
    fn lms_mse_decreases_over_training() {
        let (xs, ys) = blobs(200, 3, 6, 0.5, 9);
        let mut h1 = LinearClassifier::new(6, 3, 5).unwrap();
        let short = h1
            .train_lms(
                &xs,
                &ys,
                &LmsConfig {
                    epochs: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let mut h2 = LinearClassifier::new(6, 3, 5).unwrap();
        let long = h2
            .train_lms(
                &xs,
                &ys,
                &LmsConfig {
                    epochs: 10,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(long < short, "mse should fall: {short} -> {long}");
    }

    #[test]
    fn scores_validate_fan_in() {
        let h = LinearClassifier::new(8, 4, 1).unwrap();
        assert!(h.scores(&Tensor::zeros(&[7])).is_err());
        assert!(h.scores(&Tensor::zeros(&[8])).is_ok());
        // multi-rank features are flattened
        assert!(h.scores(&Tensor::zeros(&[2, 2, 2])).is_ok());
    }

    #[test]
    fn train_validates_dataset() {
        let mut h = LinearClassifier::new(4, 2, 1).unwrap();
        assert!(h.train_lms(&[], &[], &LmsConfig::default()).is_err());
        assert!(h
            .train_lms(&[Tensor::zeros(&[4])], &[0, 1], &LmsConfig::default())
            .is_err());
    }

    #[test]
    fn lms_update_rejects_bad_label() {
        let mut h = LinearClassifier::new(4, 2, 1).unwrap();
        assert!(h.lms_update(&Tensor::zeros(&[4]), 2, 0.1).is_err());
    }

    #[test]
    fn outputs_are_probability_like() {
        let h = LinearClassifier::new(4, 3, 2).unwrap();
        let out = h.outputs(&Tensor::ones(&[4])).unwrap();
        assert!(out.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn deterministic_training() {
        let (xs, ys) = blobs(100, 2, 4, 0.3, 1);
        let mut a = LinearClassifier::new(4, 2, 9).unwrap();
        let mut b = LinearClassifier::new(4, 2, 9).unwrap();
        a.train_lms(&xs, &ys, &LmsConfig::default()).unwrap();
        b.train_lms(&xs, &ys, &LmsConfig::default()).unwrap();
        assert_eq!(a.scores(&xs[0]).unwrap(), b.scores(&xs[0]).unwrap());
    }

    #[test]
    fn accuracy_on_empty_is_zero() {
        let h = LinearClassifier::new(4, 2, 1).unwrap();
        assert_eq!(h.accuracy(&[], &[]).unwrap(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let h = LinearClassifier::new(6, 3, 4).unwrap();
        let json = serde_json::to_string(&h).unwrap();
        let back: LinearClassifier = serde_json::from_str(&json).unwrap();
        let x = Tensor::ones(&[6]);
        assert_eq!(h.scores(&x).unwrap(), back.scores(&x).unwrap());
    }
}
