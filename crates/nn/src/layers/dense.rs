//! Fully connected layer.

use cdl_hw::OpCount;
use cdl_tensor::{init::Init, ops, Tensor};
use rand::Rng;

use crate::batch::Block;
use crate::error::NnError;
use crate::layer::{Layer, ParamGrad};
use crate::Result;

/// A fully connected (dense) layer `y = W x + b`.
///
/// Serves as the paper's final `FC` output stage and, in `cdl-core`, as the
/// linear classifier attached to each convolutional stage. The nonlinearity
/// (if any) is a separate [`crate::layers::ActivationLayer`].
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: Tensor, // [out, in]
    bias: Tensor,   // [out]
    grad_weight: Tensor,
    grad_bias: Tensor,
    cache_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with LeCun-uniform initialised weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when either feature count is zero.
    pub fn new<R: Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::BadConfig(format!(
                "dense dims must be non-zero: in={in_features} out={out_features}"
            )));
        }
        Ok(Dense {
            in_features,
            out_features,
            weight: Init::LecunUniform.build(
                &[out_features, in_features],
                in_features,
                out_features,
                rng,
            ),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cache_input: None,
        })
    }

    fn check_features(&self, features: usize) -> Result<()> {
        if features != self.in_features {
            return Err(NnError::BadConfig(format!(
                "dense expects {} input features, got {features}",
                self.in_features
            )));
        }
        Ok(())
    }

    fn affine(&self, x: &Tensor) -> Result<Tensor> {
        let flat = if x.rank() == 1 {
            x.clone()
        } else {
            x.flatten()
        };
        let mut y = ops::matvec(&self.weight, &flat)?;
        for (o, b) in y.data_mut().iter_mut().zip(self.bias.data()) {
            *o += b;
        }
        Ok(y)
    }
}

impl Layer for Dense {
    fn name(&self) -> String {
        format!("dense {}->{}", self.in_features, self.out_features)
    }

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        self.check_features(x.len())?;
        self.affine(x)
    }

    fn forward_block(&self, block: &mut Block<'_>) -> Result<()> {
        self.check_features(block.width())?;
        // a row of the block is already its image's flattened feature
        // vector, so the whole batch is one GEMM over the rows as they lie
        // (bit-identical to per-sample affine_row on both arms)
        block.write(&[self.out_features], |src, _, dst, _, kernel| {
            Ok(ops::affine_rows_into(
                src,
                &self.weight,
                self.bias.data(),
                dst,
                kernel,
            )?)
        })
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        self.check_features(x.len())?;
        let y = self.affine(x)?;
        self.cache_input = Some(if x.rank() == 1 {
            x.clone()
        } else {
            x.flatten()
        });
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cache_input
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        if grad_out.len() != self.out_features {
            return Err(NnError::BadConfig(format!(
                "dense backward expects {} gradients, got {}",
                self.out_features,
                grad_out.len()
            )));
        }
        // dL/dW = g xᵀ ; dL/db = g ; dL/dx = Wᵀ g
        let gw = ops::outer(grad_out, x);
        ops::axpy(&mut self.grad_weight, 1.0, &gw)?;
        for (acc, &g) in self.grad_bias.data_mut().iter_mut().zip(grad_out.data()) {
            *acc += g;
        }
        Ok(ops::matvec_t(&self.weight, grad_out)?)
    }

    fn params(&mut self) -> Vec<ParamGrad<'_>> {
        vec![
            ParamGrad {
                param: &mut self.weight,
                grad: &mut self.grad_weight,
            },
            ParamGrad {
                param: &mut self.bias,
                grad: &mut self.grad_bias,
            },
        ]
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn param_snapshot(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.map_in_place(|_| 0.0);
        self.grad_bias.map_in_place(|_| 0.0);
    }

    fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>> {
        let n: usize = input.iter().product();
        if n != self.in_features {
            return Err(NnError::BadConfig(format!(
                "dense expects {} input features, got {n}",
                self.in_features
            )));
        }
        Ok(vec![self.out_features])
    }

    fn op_count(&self, input: &[usize]) -> Result<OpCount> {
        self.output_shape(input)?;
        let macs = (self.in_features * self.out_features) as u64;
        Ok(OpCount {
            macs,
            adds: self.out_features as u64, // bias
            compares: 0,
            activations: 0,
            mem_reads: self.weight.len() as u64 + self.in_features as u64,
            mem_writes: self.out_features as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn rejects_zero_dims() {
        assert!(Dense::new(0, 10, &mut rng()).is_err());
        assert!(Dense::new(10, 0, &mut rng()).is_err());
    }

    #[test]
    fn forward_is_affine() {
        let mut d = Dense::new(2, 2, &mut rng()).unwrap();
        // overwrite weights for a deterministic check
        d.weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        d.bias = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let y = d
            .forward(&Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap())
            .unwrap();
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn accepts_multi_rank_input_by_flattening() {
        let d = Dense::new(12, 10, &mut rng()).unwrap();
        let x = Tensor::ones(&[3, 2, 2]);
        assert_eq!(d.forward(&x).unwrap().dims(), &[10]);
        assert!(d.forward(&Tensor::ones(&[11])).is_err());
    }

    /// Full finite-difference check of all three gradients.
    #[test]
    fn gradient_check() {
        let mut d = Dense::new(3, 2, &mut rng()).unwrap();
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3]).unwrap();
        let y = d.forward_train(&x).unwrap();
        let g_out = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        d.zero_grads();
        let gx = d.backward(&g_out).unwrap();

        let loss = |d: &Dense, x: &Tensor| -> f32 {
            let y = d.forward(x).unwrap();
            // weighted sum loss matching g_out
            y.data()[0] - 2.0 * y.data()[1]
        };
        let eps = 1e-3;

        // weights
        for i in 0..d.weight.len() {
            let orig = d.weight.data()[i];
            d.weight.data_mut()[i] = orig + eps;
            let lp = loss(&d, &x);
            d.weight.data_mut()[i] = orig - eps;
            let lm = loss(&d, &x);
            d.weight.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - d.grad_weight.data()[i]).abs() < 1e-2);
        }
        // bias
        for i in 0..d.bias.len() {
            let orig = d.bias.data()[i];
            d.bias.data_mut()[i] = orig + eps;
            let lp = loss(&d, &x);
            d.bias.data_mut()[i] = orig - eps;
            let lm = loss(&d, &x);
            d.bias.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - d.grad_bias.data()[i]).abs() < 1e-2);
        }
        // input
        let mut xm = x.clone();
        for i in 0..xm.len() {
            let orig = xm.data()[i];
            xm.data_mut()[i] = orig + eps;
            let lp = loss(&d, &xm);
            xm.data_mut()[i] = orig - eps;
            let lm = loss(&d, &xm);
            xm.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 1e-2);
        }
        assert_eq!(y.dims(), &[2]);
    }

    #[test]
    fn backward_validates() {
        let mut d = Dense::new(3, 2, &mut rng()).unwrap();
        assert!(d.backward(&Tensor::ones(&[2])).is_err()); // no cache
        d.forward_train(&Tensor::ones(&[3])).unwrap();
        assert!(d.backward(&Tensor::ones(&[3])).is_err()); // wrong grad size
    }

    #[test]
    fn op_count_matches_paper_o1_head() {
        // MNIST_2C O1: 864 features -> 10 outputs = 8640 MACs
        let d = Dense::new(864, 10, &mut rng()).unwrap();
        let ops = d.op_count(&[6, 12, 12]).unwrap();
        assert_eq!(ops.macs, 8640);
        assert_eq!(ops.adds, 10);
    }

    #[test]
    fn param_count() {
        let d = Dense::new(864, 10, &mut rng()).unwrap();
        assert_eq!(d.param_count(), 8650);
    }
}
