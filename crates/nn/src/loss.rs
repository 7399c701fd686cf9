//! Loss functions and their output-layer gradients.

use cdl_tensor::{ops, Tensor};
use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::Result;

/// A training objective.
///
/// * [`Loss::Mse`] — mean squared error against a one-hot target; this is
///   what the paper (following R. Palm's convolutional backprop toolbox)
///   uses for both the baseline DLN and the "least mean square rule" that
///   trains the linear classifiers.
/// * [`Loss::SoftmaxCrossEntropy`] — treats the network output as logits;
///   provided for ablations against the modern default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Loss {
    /// `L = 1/n Σ (y_i - t_i)²`.
    Mse,
    /// `L = -Σ t_i log softmax(y)_i`.
    SoftmaxCrossEntropy,
}

impl Loss {
    /// Scalar loss for one sample.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when output/target lengths differ or
    /// are empty.
    pub fn value(self, output: &Tensor, target: &Tensor) -> Result<f32> {
        check_pair(output, target)?;
        match self {
            Loss::Mse => {
                let n = output.len() as f32;
                let se: f32 = output
                    .data()
                    .iter()
                    .zip(target.data())
                    .map(|(&y, &t)| (y - t) * (y - t))
                    .sum();
                Ok(se / n)
            }
            Loss::SoftmaxCrossEntropy => {
                let p = ops::softmax(output);
                let mut loss = 0.0f32;
                for (&pi, &ti) in p.data().iter().zip(target.data()) {
                    if ti > 0.0 {
                        loss -= ti * pi.max(1e-12).ln();
                    }
                }
                Ok(loss)
            }
        }
    }

    /// Gradient of the loss w.r.t. the network output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when output/target lengths differ or
    /// are empty.
    pub(crate) fn gradient(self, output: &Tensor, target: &Tensor) -> Result<Tensor> {
        check_pair(output, target)?;
        match self {
            Loss::Mse => {
                let n = output.len() as f32;
                Ok(ops::zip_with(output, target, move |y, t| {
                    2.0 * (y - t) / n
                })?)
            }
            Loss::SoftmaxCrossEntropy => {
                let p = ops::softmax(output);
                Ok(ops::sub(&p, target)?)
            }
        }
    }
}

fn check_pair(output: &Tensor, target: &Tensor) -> Result<()> {
    if output.is_empty() {
        return Err(NnError::BadConfig("loss on empty output".into()));
    }
    if output.len() != target.len() {
        return Err(NnError::BadConfig(format!(
            "loss output/target length mismatch: {} vs {}",
            output.len(),
            target.len()
        )));
    }
    Ok(())
}

/// Builds a one-hot target vector of `classes` entries with `label` set hot.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] if `label >= classes`.
pub fn one_hot(label: usize, classes: usize) -> Result<Tensor> {
    if label >= classes {
        return Err(NnError::BadConfig(format!(
            "label {label} out of range for {classes} classes"
        )));
    }
    let mut t = Tensor::zeros(&[classes]);
    t.data_mut()[label] = 1.0;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n]).unwrap()
    }

    #[test]
    fn mse_perfect_prediction_is_zero() {
        let y = t(vec![0.0, 1.0, 0.0]);
        assert_eq!(Loss::Mse.value(&y, &y).unwrap(), 0.0);
        let g = Loss::Mse.gradient(&y, &y).unwrap();
        assert!(g.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_known_value() {
        let y = t(vec![1.0, 0.0]);
        let tgt = t(vec![0.0, 0.0]);
        assert!((Loss::Mse.value(&y, &tgt).unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ce_prefers_correct_class() {
        let tgt = one_hot(0, 3).unwrap();
        let good = t(vec![5.0, 0.0, 0.0]);
        let bad = t(vec![0.0, 5.0, 0.0]);
        let lg = Loss::SoftmaxCrossEntropy.value(&good, &tgt).unwrap();
        let lb = Loss::SoftmaxCrossEntropy.value(&bad, &tgt).unwrap();
        assert!(lg < lb);
    }

    /// Finite-difference check of both gradients.
    #[test]
    fn gradients_match_finite_difference() {
        let tgt = one_hot(1, 4).unwrap();
        for loss in [Loss::Mse, Loss::SoftmaxCrossEntropy] {
            let mut y = t(vec![0.3, -0.2, 0.8, 0.1]);
            let g = loss.gradient(&y, &tgt).unwrap();
            let eps = 1e-3;
            for i in 0..y.len() {
                let orig = y.data()[i];
                y.data_mut()[i] = orig + eps;
                let lp = loss.value(&y, &tgt).unwrap();
                y.data_mut()[i] = orig - eps;
                let lm = loss.value(&y, &tgt).unwrap();
                y.data_mut()[i] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - g.data()[i]).abs() < 1e-2,
                    "{loss:?}: i={i} fd={fd} g={}",
                    g.data()[i]
                );
            }
        }
    }

    #[test]
    fn validation() {
        let y = t(vec![1.0, 2.0]);
        let bad = t(vec![1.0]);
        assert!(Loss::Mse.value(&y, &bad).is_err());
        assert!(Loss::Mse.gradient(&y, &bad).is_err());
        assert!(Loss::Mse
            .value(&Tensor::default(), &Tensor::default())
            .is_err());
    }

    #[test]
    fn one_hot_works() {
        let t = one_hot(2, 4).unwrap();
        assert_eq!(t.data(), &[0.0, 0.0, 1.0, 0.0]);
        assert!(one_hot(4, 4).is_err());
    }

    #[test]
    fn ce_loss_is_never_negative() {
        let tgt = one_hot(0, 3).unwrap();
        for logits in [
            vec![0.0, 0.0, 0.0],
            vec![10.0, -10.0, 0.0],
            vec![-5.0, 5.0, 5.0],
        ] {
            let l = Loss::SoftmaxCrossEntropy.value(&t(logits), &tgt).unwrap();
            assert!(l >= 0.0);
        }
    }
}
