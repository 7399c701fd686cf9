//! The training objective and its output-layer gradient.
//!
//! Mean squared error against a one-hot target is what the paper
//! (following R. Palm's convolutional backprop toolbox) uses for both the
//! baseline DLN and the "least mean square rule" that trains the linear
//! classifiers, and the only loss here.

use cdl_tensor::{ops, Tensor};

use crate::error::NnError;
use crate::Result;

/// Mean squared error of one sample, `L = 1/n Σ (y_i - t_i)²`.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] when output/target lengths differ or are
/// empty.
pub(crate) fn mse(output: &Tensor, target: &Tensor) -> Result<f32> {
    check_pair(output, target)?;
    let n = output.len() as f32;
    let se: f32 = output
        .data()
        .iter()
        .zip(target.data())
        .map(|(&y, &t)| (y - t) * (y - t))
        .sum();
    Ok(se / n)
}

/// Gradient of [`mse`] w.r.t. the network output, `2 (y - t) / n`.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] when output/target lengths differ or are
/// empty.
pub(crate) fn mse_gradient(output: &Tensor, target: &Tensor) -> Result<Tensor> {
    check_pair(output, target)?;
    let n = output.len() as f32;
    Ok(ops::zip_with(output, target, move |y, t| {
        2.0 * (y - t) / n
    })?)
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
        assert_eq!(mse(&y, &y).unwrap(), 0.0);
        let g = mse_gradient(&y, &y).unwrap();
        assert!(g.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_known_value() {
        let y = t(vec![1.0, 0.0]);
        let tgt = t(vec![0.0, 0.0]);
        assert!((mse(&y, &tgt).unwrap() - 0.5).abs() < 1e-6);
    }

    /// Finite-difference check of the gradient.
    #[test]
    fn gradient_matches_finite_difference() {
        let tgt = one_hot(1, 4).unwrap();
        let mut y = t(vec![0.3, -0.2, 0.8, 0.1]);
        let g = mse_gradient(&y, &tgt).unwrap();
        let eps = 1e-3;
        for i in 0..y.len() {
            let orig = y.data()[i];
            y.data_mut()[i] = orig + eps;
            let lp = mse(&y, &tgt).unwrap();
            y.data_mut()[i] = orig - eps;
            let lm = mse(&y, &tgt).unwrap();
            y.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - g.data()[i]).abs() < 1e-2,
                "i={i} fd={fd} g={}",
                g.data()[i]
            );
        }
    }

    #[test]
    fn validation() {
        let y = t(vec![1.0, 2.0]);
        let bad = t(vec![1.0]);
        assert!(mse(&y, &bad).is_err());
        assert!(mse_gradient(&y, &bad).is_err());
        assert!(mse(&Tensor::default(), &Tensor::default()).is_err());
    }

    #[test]
    fn one_hot_works() {
        let t = one_hot(2, 4).unwrap();
        assert_eq!(t.data(), &[0.0, 0.0, 1.0, 0.0]);
        assert!(one_hot(4, 4).is_err());
    }
}
