//! Minibatch training loop.

use cdl_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::loss::one_hot;
use crate::network::Network;
use crate::optim::Sgd;
use crate::Result;

/// A labelled classification dataset: one tensor and one integer label per
/// sample.
///
/// This is the exchange format between `cdl-dataset` and the training /
/// evaluation code; it deliberately stores samples individually (no batch
/// axis) to match the sample-at-a-time layer contract.
#[derive(Debug, Clone, Default)]
pub struct LabelledSet {
    /// Input tensors, one per sample.
    pub images: Vec<Tensor>,
    /// Class labels aligned with `images`.
    pub labels: Vec<usize>,
}

impl LabelledSet {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// `true` when the set has no samples.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Returns the first `n` samples (or fewer if the set is smaller).
    pub fn take(&self, n: usize) -> LabelledSet {
        LabelledSet {
            images: self.images.iter().take(n).cloned().collect(),
            labels: self.labels.iter().take(n).copied().collect(),
        }
    }
}

/// Hyper-parameters for [`train`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size (gradients averaged within a batch).
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Learning-rate multiplier applied after every epoch.
    pub lr_decay: f32,
    /// Shuffle seed (shuffling is always on, for SGD to make sense).
    pub seed: u64,
}

impl Default for TrainConfig {
    /// The configuration used for the paper-scale baselines: 1 epoch of
    /// MSE-trained sigmoid nets is already enough on MNIST-like data; the
    /// experiments use a handful of epochs.
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 0.5,
            momentum: 0.9,
            lr_decay: 0.7,
            seed: 0xCD1,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss across the epoch.
    pub mean_loss: f32,
    /// Training accuracy measured on the fly (predictions during forward
    /// passes of training, before the update — a slight underestimate).
    pub train_accuracy: f64,
}

/// Result of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
}

/// Trains `net` on `data` with minibatch SGD on the MSE loss.
///
/// Gradients are accumulated per batch with a `1/batch` scale and applied
/// once per batch. Returns per-epoch statistics.
///
/// # Errors
///
/// Returns [`NnError::BadDataset`] for an empty dataset and propagates layer
/// errors.
pub fn train(net: &mut Network, data: &LabelledSet, cfg: &TrainConfig) -> Result<TrainReport> {
    if data.is_empty() {
        return Err(NnError::BadDataset("empty training set".into()));
    }
    let classes = output_classes(net)?;
    let mut opt = Sgd::new(cfg.lr, cfg.momentum);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let batch = cfg.batch_size.max(1);
    let mut report = TrainReport { epochs: Vec::new() };

    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(data.len());
        for chunk in order.chunks(batch) {
            net.zero_grads();
            let scale = 1.0 / chunk.len() as f32;
            for &i in chunk {
                let x = &data.images[i];
                let label = data.labels[i];
                let target = one_hot(label, classes)?;
                let (lv, out) = net.train_sample(x, &target, scale)?;
                loss_sum += lv as f64;
                if let Some(pred) = out.argmax() {
                    pairs.push((label, pred));
                }
            }
            opt.step(net)?;
        }
        report.epochs.push(EpochStats {
            epoch,
            mean_loss: (loss_sum / data.len() as f64) as f32,
            train_accuracy: accuracy(pairs.iter().copied()),
        });
        opt.decay_lr(cfg.lr_decay);
    }
    Ok(report)
}

/// Evaluates classification accuracy of `net` on `data`.
///
/// # Errors
///
/// Propagates layer errors.
pub fn evaluate(net: &Network, data: &LabelledSet) -> Result<f64> {
    let mut pairs = Vec::with_capacity(data.len());
    for (x, &label) in data.images.iter().zip(&data.labels) {
        pairs.push((label, net.predict(x)?));
    }
    Ok(accuracy(pairs))
}

/// Fraction of `(true, predicted)` pairs that match; 0 for an empty
/// iterator.
fn accuracy(pairs: impl IntoIterator<Item = (usize, usize)>) -> f64 {
    let mut total = 0u64;
    let mut correct = 0u64;
    for (t, p) in pairs {
        total += 1;
        if t == p {
            correct += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

fn output_classes(net: &Network) -> Result<usize> {
    let out = net.spec().output_shape()?;
    if out.len() != 1 || out[0] == 0 {
        return Err(NnError::BadConfig(format!(
            "classifier network must end in a non-empty rank-1 output, got {out:?}"
        )));
    }
    Ok(out[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::spec::{LayerSpec, NetworkSpec};

    /// A linearly separable 2-class toy problem on 4-d inputs.
    fn toy_data(n: usize) -> LabelledSet {
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let label = rng.random_range(0..2usize);
            let center = if label == 0 { -1.0 } else { 1.0 };
            let v: Vec<f32> = (0..4)
                .map(|_| center + rng.random_range(-0.3..0.3))
                .collect();
            images.push(Tensor::from_vec(v, &[4]).unwrap());
            labels.push(label);
        }
        LabelledSet { images, labels }
    }

    fn toy_net(seed: u64) -> Network {
        let spec = NetworkSpec::new(vec![LayerSpec::dense(4, 2, Activation::Sigmoid)], &[4]);
        Network::from_spec(&spec, seed).unwrap()
    }

    #[test]
    fn take_is_bounded_by_the_set() {
        let s = toy_data(50);
        assert!(!s.is_empty());
        assert_eq!(s.take(10).len(), 10);
        assert_eq!(s.take(10_000).len(), 50);
    }

    #[test]
    fn training_learns_separable_problem() {
        let data = toy_data(200);
        let mut net = toy_net(2);
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 8,
            lr: 0.8,
            momentum: 0.5,
            ..TrainConfig::default()
        };
        let report = train(&mut net, &data, &cfg).unwrap();
        assert_eq!(report.epochs.len(), 5);
        let acc = evaluate(&net, &data).unwrap();
        assert!(acc > 0.95, "accuracy {acc} too low for separable data");
        // loss decreased over epochs
        assert!(report.epochs.last().unwrap().mean_loss < report.epochs[0].mean_loss);
    }

    #[test]
    fn accuracy_helper() {
        assert_eq!(accuracy(Vec::<(usize, usize)>::new()), 0.0);
        assert!((accuracy(vec![(1, 1), (2, 3)]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_rejected() {
        let mut net = toy_net(1);
        assert!(train(&mut net, &LabelledSet::default(), &TrainConfig::default()).is_err());
    }

    #[test]
    fn deterministic_given_seeds() {
        let data = toy_data(64);
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        let mut a = toy_net(3);
        let mut b = toy_net(3);
        train(&mut a, &data, &cfg).unwrap();
        train(&mut b, &data, &cfg).unwrap();
        let x = &data.images[0];
        assert_eq!(a.forward(x).unwrap(), b.forward(x).unwrap());
    }

    #[test]
    fn evaluate_on_empty_is_zero() {
        let net = toy_net(1);
        assert_eq!(evaluate(&net, &LabelledSet::default()).unwrap(), 0.0);
    }

    #[test]
    fn batch_size_zero_is_clamped() {
        let data = toy_data(16);
        let mut net = toy_net(4);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 0,
            ..TrainConfig::default()
        };
        assert!(train(&mut net, &data, &cfg).is_ok());
    }
}
