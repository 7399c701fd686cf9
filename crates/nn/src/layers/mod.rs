//! Concrete [`crate::Layer`] implementations.

mod act;
mod conv;
mod dense;
mod flatten;
mod pool;

pub use act::ActivationLayer;
pub use conv::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::MaxPool2d;

#[cfg(test)]
mod tests {
    //! Backward-pass properties every layer meets on random geometry and
    //! data.

    use super::*;
    use crate::layer::Layer;
    use cdl_tensor::Tensor;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Numerically checks dL/dx of a layer against finite differences, where
    /// L = Σ output (so grad_out = ones).
    fn input_gradient_matches<L: Layer>(layer: &mut L, x: &Tensor, tol: f32) -> Result<(), String> {
        let y = layer
            .forward_train(x)
            .map_err(|e| format!("forward: {e}"))?;
        let gx = layer
            .backward(&Tensor::ones(y.dims()))
            .map_err(|e| format!("backward: {e}"))?;
        let mut xp = x.clone();
        let eps = 1e-2f32;
        for i in (0..x.len()).step_by((x.len() / 12).max(1)) {
            let orig = xp.data()[i];
            xp.data_mut()[i] = orig + eps;
            let lp = layer.forward(&xp).map_err(|e| e.to_string())?.sum();
            xp.data_mut()[i] = orig - eps;
            let lm = layer.forward(&xp).map_err(|e| e.to_string())?.sum();
            xp.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let analytic = gx.data()[i];
            if (fd - analytic).abs() > tol {
                return Err(format!("grad[{i}]: fd {fd} vs analytic {analytic}"));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Conv input gradients are exact for random geometry and data.
        #[test]
        fn conv_input_gradient_random_geometry(
            cin in 1usize..3,
            cout in 1usize..3,
            k in 2usize..4,
            size in 5usize..8,
            seed in 0u64..100,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut layer = Conv2d::new(cin, cout, k, &mut rng).unwrap();
            let data: Vec<f32> = (0..cin * size * size).map(|_| rng.random_range(-1.0..1.0)).collect();
            let x = Tensor::from_vec(data, &[cin, size, size]).unwrap();
            input_gradient_matches(&mut layer, &x, 0.05).map_err(TestCaseError::fail)?;
        }

        /// Dense input gradients are exact for random geometry and data.
        #[test]
        fn dense_input_gradient_random_geometry(
            fin in 1usize..24,
            fout in 1usize..8,
            seed in 0u64..100,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut layer = Dense::new(fin, fout, &mut rng).unwrap();
            let data: Vec<f32> = (0..fin).map(|_| rng.random_range(-1.0..1.0)).collect();
            let x = Tensor::from_vec(data, &[fin]).unwrap();
            input_gradient_matches(&mut layer, &x, 0.03).map_err(TestCaseError::fail)?;
        }

        /// Max-pool gradients conserve mass for random inputs.
        #[test]
        fn pool_gradients_random(size in 2usize..5, c in 1usize..4, seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<f32> = (0..c * size * 2 * size * 2).map(|_| rng.random_range(-2.0..2.0)).collect();
            let x = Tensor::from_vec(data, &[c, size * 2, size * 2]).unwrap();

            let mut maxp = MaxPool2d::new(2).unwrap();
            let y = maxp.forward_train(&x).unwrap();
            let g = maxp.backward(&Tensor::ones(y.dims())).unwrap();
            prop_assert!((g.sum() - y.len() as f32).abs() < 1e-3);
        }
    }
}
