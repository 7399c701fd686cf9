//! Optimizers.

use cdl_tensor::Tensor;

use crate::network::Network;
use crate::Result;

/// Minibatch SGD with classical momentum and L2 weight decay.
///
/// Velocity buffers are keyed by `(layer index, parameter index)` and created
/// lazily, so one optimizer can be reused across structurally identical
/// networks (e.g. when retraining from scratch in an ablation loop) — the
/// buffers are reset whenever shapes change.
#[derive(Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient in `[0, 1)`; 0 disables momentum.
    pub momentum: f32,
    /// L2 weight-decay coefficient; 0 disables decay.
    pub weight_decay: f32,
    velocities: std::collections::HashMap<(usize, usize), Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub(crate) fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocities: std::collections::HashMap::new(),
        }
    }

    /// Plain SGD without momentum or decay.
    pub fn plain(lr: f32) -> Self {
        Sgd::new(lr, 0.0, 0.0)
    }

    /// Applies one update step using the gradients currently accumulated in
    /// the network, then leaves the gradients untouched (callers usually
    /// `zero_grads` right before the next accumulation).
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; returns `Result` for future-proofing
    /// against parameter bookkeeping errors.
    pub fn step(&mut self, net: &mut Network) -> Result<()> {
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
                    for ((v, &g), &w) in vel
                        .data_mut()
                        .iter_mut()
                        .zip(pg.grad.data())
                        .zip(pg.param.data())
                    {
                        *v = self.momentum * *v - self.lr * (g + self.weight_decay * w);
                    }
                    for (w, &v) in pg.param.data_mut().iter_mut().zip(vel.data()) {
                        *w += v;
                    }
                } else {
                    let lr = self.lr;
                    let wd = self.weight_decay;
                    for (w, &g) in pg.param.data_mut().iter_mut().zip(pg.grad.data()) {
                        *w -= lr * (g + wd * *w);
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
    use crate::loss::{one_hot, Loss};
    use crate::spec::{LayerSpec, NetworkSpec};
    use cdl_tensor::Tensor;

    fn net() -> Network {
        let spec = NetworkSpec::new(vec![LayerSpec::dense(4, 3, Activation::Identity)], &[4]);
        Network::from_spec(&spec, 17).unwrap()
    }

    fn loss_of(n: &Network, x: &Tensor, t: &Tensor) -> f32 {
        Loss::Mse.value(&n.forward(x).unwrap(), t).unwrap()
    }

    #[test]
    fn plain_sgd_descends() {
        let mut n = net();
        let x = Tensor::from_vec(vec![1.0, -0.5, 0.25, 2.0], &[4]).unwrap();
        let t = one_hot(1, 3).unwrap();
        let mut opt = Sgd::plain(0.1);
        let before = loss_of(&n, &x, &t);
        for _ in 0..20 {
            n.zero_grads();
            n.train_sample(&x, &t, Loss::Mse, 1.0).unwrap();
            opt.step(&mut n).unwrap();
        }
        assert!(loss_of(&n, &x, &t) < before);
    }

    #[test]
    fn momentum_descends_and_differs_from_plain() {
        let x = Tensor::from_vec(vec![1.0, -0.5, 0.25, 2.0], &[4]).unwrap();
        let t = one_hot(1, 3).unwrap();
        let run = |momentum: f32| -> (f32, Tensor) {
            let mut n = net();
            let mut opt = Sgd::new(0.02, momentum, 0.0);
            for _ in 0..30 {
                n.zero_grads();
                n.train_sample(&x, &t, Loss::Mse, 1.0).unwrap();
                opt.step(&mut n).unwrap();
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
    fn weight_decay_shrinks_weights() {
        let mut n = net();
        // no gradient signal at all: decay alone must shrink the norm
        let norm = |n: &mut Network| -> f32 {
            n.layers_mut()[0]
                .params()
                .iter()
                .map(|pg| pg.param.norm_sq())
                .sum()
        };
        let before = norm(&mut n);
        let mut opt = Sgd::new(0.1, 0.0, 0.1);
        n.zero_grads();
        for _ in 0..10 {
            opt.step(&mut n).unwrap();
        }
        assert!(norm(&mut n) < before);
    }

    #[test]
    fn lr_decay_and_velocity_state() {
        let mut opt = Sgd::new(1.0, 0.9, 0.0);
        opt.decay_lr(0.5);
        assert!((opt.lr - 0.5).abs() < 1e-9);
        let mut n = net();
        let x = Tensor::ones(&[4]);
        let t = one_hot(0, 3).unwrap();
        n.zero_grads();
        n.train_sample(&x, &t, Loss::Mse, 1.0).unwrap();
        opt.step(&mut n).unwrap();
        assert!(!opt.velocities.is_empty());
    }

    #[test]
    fn zero_lr_is_a_no_op() {
        let mut n = net();
        let x = Tensor::ones(&[4]);
        let t = one_hot(0, 3).unwrap();
        let y_before = n.forward(&x).unwrap();
        let mut opt = Sgd::plain(0.0);
        n.zero_grads();
        n.train_sample(&x, &t, Loss::Mse, 1.0).unwrap();
        opt.step(&mut n).unwrap();
        assert_eq!(n.forward(&x).unwrap(), y_before);
    }
}
