//! Optimizers.

use cdl_tensor::Tensor;

use crate::network::Network;
use crate::Result;

/// Minibatch SGD with classical momentum.
///
/// Velocity buffers are keyed by `(layer index, parameter index)` and created
/// lazily, so one optimizer can be reused across structurally identical
/// networks — the buffers are reset whenever shapes change.
#[derive(Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient in `[0, 1)`; 0 disables momentum.
    pub momentum: f32,
    velocities: std::collections::HashMap<(usize, usize), Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub(crate) fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocities: std::collections::HashMap::new(),
        }
    }

    /// Applies one update step using the gradients currently accumulated in
    /// the network, then leaves the gradients untouched (callers usually
    /// `zero_grads` right before the next accumulation).
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; returns `Result` for future-proofing
    /// against parameter bookkeeping errors.
    pub(crate) fn step(&mut self, net: &mut Network) -> Result<()> {
        for (li, layer) in net.layers_mut().iter_mut().enumerate() {
            for (pi, pg) in layer.params().into_iter().enumerate() {
                let key = (li, pi);
                if self.momentum > 0.0 {
                    let vel = self
                        .velocities
                        .entry(key)
                        .or_insert_with(|| Tensor::zeros(pg.param.dims()));
                    if vel.shape() != pg.param.shape() {
                        *vel = Tensor::zeros(pg.param.dims());
                    }
                    for (v, &g) in vel.data_mut().iter_mut().zip(pg.grad.data()) {
                        *v = self.momentum * *v - self.lr * g;
                    }
                    for (w, &v) in pg.param.data_mut().iter_mut().zip(vel.data()) {
                        *w += v;
                    }
                } else {
                    let lr = self.lr;
                    for (w, &g) in pg.param.data_mut().iter_mut().zip(pg.grad.data()) {
                        *w -= lr * g;
                    }
                }
            }
        }
        Ok(())
    }

    /// Multiplies the learning rate by `factor` (step decay).
    pub(crate) fn decay_lr(&mut self, factor: f32) {
        self.lr *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::loss::{mse, one_hot};
    use crate::spec::{LayerSpec, NetworkSpec};
    use cdl_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn net() -> Network {
        let spec = NetworkSpec::new(vec![LayerSpec::dense(4, 3, Activation::Identity)], &[4]);
        Network::from_spec(&spec, 17).unwrap()
    }

    fn loss_of(n: &Network, x: &Tensor, t: &Tensor) -> f32 {
        mse(&n.forward(x).unwrap(), t).unwrap()
    }

    /// One accumulate-and-step on a single sample.
    fn step(n: &mut Network, opt: &mut Sgd, x: &Tensor, t: &Tensor) {
        n.zero_grads();
        n.train_sample(x, t, 1.0).unwrap();
        opt.step(n).unwrap();
    }

    #[test]
    fn plain_sgd_descends() {
        let mut n = net();
        let x = Tensor::from_vec(vec![1.0, -0.5, 0.25, 2.0], &[4]).unwrap();
        let t = one_hot(1, 3).unwrap();
        let mut opt = Sgd::new(0.1, 0.0);
        let before = loss_of(&n, &x, &t);
        for _ in 0..20 {
            step(&mut n, &mut opt, &x, &t);
        }
        assert!(loss_of(&n, &x, &t) < before);
    }

    /// One small step along the accumulated gradient reduces the loss
    /// (descent property), for conv networks from many seeds and labels.
    #[test]
    fn sgd_step_descends() {
        let spec = NetworkSpec::new(
            vec![
                LayerSpec::conv(1, 2, 3, Activation::Sigmoid),
                LayerSpec::maxpool(2),
                LayerSpec::flatten(),
                LayerSpec::dense(2 * 3 * 3, 4, Activation::Identity),
            ],
            &[1, 8, 8],
        );
        for seed in 0..24u64 {
            let mut n = Network::from_spec(&spec, seed).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABC);
            let data: Vec<f32> = (0..64).map(|_| rng.random_range(0.0..1.0)).collect();
            let x = Tensor::from_vec(data, &[1, 8, 8]).unwrap();
            let t = one_hot(seed as usize % 4, 4).unwrap();
            let before = loss_of(&n, &x, &t);
            step(&mut n, &mut Sgd::new(0.01, 0.0), &x, &t);
            let after = loss_of(&n, &x, &t);
            assert!(
                after <= before + 1e-6,
                "seed {seed}: loss rose {before} -> {after}"
            );
        }
    }

    #[test]
    fn momentum_descends_and_differs_from_plain() {
        let x = Tensor::from_vec(vec![1.0, -0.5, 0.25, 2.0], &[4]).unwrap();
        let t = one_hot(1, 3).unwrap();
        let run = |momentum: f32| -> (f32, Tensor) {
            let mut n = net();
            let mut opt = Sgd::new(0.02, momentum);
            for _ in 0..30 {
                step(&mut n, &mut opt, &x, &t);
            }
            (loss_of(&n, &x, &t), n.forward(&x).unwrap())
        };
        let initial = loss_of(&net(), &x, &t);
        let (loss_momentum, out_momentum) = run(0.9);
        let (loss_plain, out_plain) = run(0.0);
        // both descend from the initial loss …
        assert!(loss_momentum < initial);
        assert!(loss_plain < initial);
        // … and momentum genuinely changes the trajectory
        assert_ne!(out_momentum, out_plain);
    }

    #[test]
    fn lr_decay_and_velocity_state() {
        let mut opt = Sgd::new(1.0, 0.9);
        opt.decay_lr(0.5);
        assert!((opt.lr - 0.5).abs() < 1e-9);
        let mut n = net();
        step(
            &mut n,
            &mut opt,
            &Tensor::ones(&[4]),
            &one_hot(0, 3).unwrap(),
        );
        assert!(!opt.velocities.is_empty());
    }

    #[test]
    fn zero_lr_is_a_no_op() {
        let mut n = net();
        let x = Tensor::ones(&[4]);
        let y_before = n.forward(&x).unwrap();
        step(&mut n, &mut Sgd::new(0.0, 0.0), &x, &one_hot(0, 3).unwrap());
        assert_eq!(n.forward(&x).unwrap(), y_before);
    }
}
