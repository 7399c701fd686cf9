//! Valid 2-D convolution layer.

use cdl_hw::OpCount;
use cdl_tensor::{conv, init::Init, Tensor};
use rand::Rng;

use crate::activation::Activation;
use crate::batch::Block;
use crate::error::NnError;
use crate::layer::{Layer, ParamGrad};
use crate::Result;

/// A multi-channel *valid* convolution layer (`[C_in,H,W] → [C_out,H',W']`).
///
/// Matches the convolutional stages of the paper's baselines (Tables I & II):
/// square kernels, stride 1, no padding. The nonlinearity is a separate
/// [`crate::layers::ActivationLayer`] so the conditional stages can tap the
/// exact tensors they need.
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    kernels: Tensor,
    bias: Tensor,
    grad_kernels: Tensor,
    grad_bias: Tensor,
    cache_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a conv layer with `out_channels` square `kernel`×`kernel`
    /// filters over `in_channels` input maps, Xavier-initialised from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when any dimension is zero.
    pub(crate) fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 {
            return Err(NnError::BadConfig(format!(
                "conv dims must be non-zero: in={in_channels} out={out_channels} k={kernel}"
            )));
        }
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let dims = [out_channels, in_channels, kernel, kernel];
        Ok(Conv2d {
            in_channels,
            out_channels,
            kernel,
            kernels: Init::XavierUniform.build(&dims, fan_in, fan_out, rng),
            bias: Tensor::zeros(&[out_channels]),
            grad_kernels: Tensor::zeros(&dims),
            grad_bias: Tensor::zeros(&[out_channels]),
            cache_input: None,
        })
    }

    /// Height and width of the output maps for a `[C_in, H, W]` input shape.
    fn output_hw(&self, input: &[usize]) -> Result<(usize, usize)> {
        if input.len() != 3 {
            return Err(NnError::BadConfig(format!(
                "conv expects [C,H,W] input, got rank {}",
                input.len()
            )));
        }
        if input[0] != self.in_channels {
            return Err(NnError::BadConfig(format!(
                "conv expects {} input channels, got {}",
                self.in_channels, input[0]
            )));
        }
        Ok((
            conv::valid_out_size(input[1], self.kernel)?,
            conv::valid_out_size(input[2], self.kernel)?,
        ))
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv {k}x{k} {cin}->{cout} maps",
            k = self.kernel,
            cin = self.in_channels,
            cout = self.out_channels
        )
    }

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        Ok(conv::conv2d_valid(x, &self.kernels, self.bias.data())?)
    }

    fn forward_block(&self, block: &mut Block<'_>) -> Result<()> {
        let (oh, ow) = self.output_hw(block.dims())?;
        // alone, a convolution is its own group with the identity pool
        let (activation, window) = block.take_epilogue().unwrap_or((Activation::Identity, 1));
        let pooled = [self.out_channels, oh / window.max(1), ow / window.max(1)];
        block.write(&pooled, |src, dims, dst, conv, kernel| {
            Ok(cdl_tensor::im2col::conv2d_pool_block(
                src,
                dims,
                &self.kernels,
                self.bias.data(),
                window,
                |pooled| activation.apply_slice(kernel, pooled),
                dst,
                conv,
                kernel,
            )?)
        })
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let y = conv::conv2d_valid(x, &self.kernels, self.bias.data())?;
        self.cache_input = Some(x.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.backward_params(grad_out)?;
        let x = self
            .cache_input
            .as_ref()
            .expect("backward_params checked the cache");
        Ok(conv::conv2d_grad_input(x.dims(), &self.kernels, grad_out)?)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        let x = self
            .cache_input
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        let (gk, gb) = conv::conv2d_grad_kernels(x, self.kernels.dims(), grad_out)?;
        cdl_tensor::ops::axpy(&mut self.grad_kernels, 1.0, &gk)?;
        for (acc, g) in self.grad_bias.data_mut().iter_mut().zip(gb) {
            *acc += g;
        }
        Ok(())
    }

    fn params(&mut self) -> Vec<ParamGrad<'_>> {
        vec![
            ParamGrad {
                param: &mut self.kernels,
                grad: &mut self.grad_kernels,
            },
            ParamGrad {
                param: &mut self.bias,
                grad: &mut self.grad_bias,
            },
        ]
    }

    fn param_count(&self) -> usize {
        self.kernels.len() + self.bias.len()
    }

    fn param_snapshot(&self) -> Vec<Tensor> {
        vec![self.kernels.clone(), self.bias.clone()]
    }

    fn zero_grads(&mut self) {
        self.grad_kernels.map_in_place(|_| 0.0);
        self.grad_bias.map_in_place(|_| 0.0);
    }

    fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>> {
        let (oh, ow) = self.output_hw(input)?;
        Ok(vec![self.out_channels, oh, ow])
    }

    fn op_count(&self, input: &[usize]) -> Result<OpCount> {
        let out = self.output_shape(input)?;
        let (oh, ow) = (out[1], out[2]);
        let macs = conv::conv2d_macs(
            self.in_channels,
            input[1],
            input[2],
            self.out_channels,
            self.kernel,
            self.kernel,
        );
        let out_volume = (self.out_channels * oh * ow) as u64;
        let in_volume: u64 = input.iter().product::<usize>() as u64;
        Ok(OpCount {
            macs,
            adds: out_volume, // bias adds
            compares: 0,
            activations: 0,
            // weights + input activations are read; each output written once
            mem_reads: self.kernels.len() as u64 + in_volume,
            mem_writes: out_volume,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    #[test]
    fn rejects_zero_dims() {
        assert!(Conv2d::new(0, 6, 5, &mut rng()).is_err());
        assert!(Conv2d::new(1, 0, 5, &mut rng()).is_err());
        assert!(Conv2d::new(1, 6, 0, &mut rng()).is_err());
    }

    #[test]
    fn shapes_match_paper_table1() {
        // Table I: 28x28 input, C1 = 5x5 kernels, 6 maps -> 24x24
        let c1 = Conv2d::new(1, 6, 5, &mut rng()).unwrap();
        assert_eq!(c1.output_shape(&[1, 28, 28]).unwrap(), vec![6, 24, 24]);
        // C2: 12x12x6 -> 8x8x12 with 5x5 kernels
        let c2 = Conv2d::new(6, 12, 5, &mut rng()).unwrap();
        assert_eq!(c2.output_shape(&[6, 12, 12]).unwrap(), vec![12, 8, 8]);
    }

    #[test]
    fn output_shape_validates_input() {
        let c = Conv2d::new(3, 6, 3, &mut rng()).unwrap();
        assert!(c.output_shape(&[1, 28, 28]).is_err()); // wrong channels
        assert!(c.output_shape(&[28, 28]).is_err()); // wrong rank
        assert!(c.output_shape(&[3, 2, 2]).is_err()); // too small
    }

    #[test]
    fn forward_and_forward_train_agree() {
        let mut c = Conv2d::new(2, 3, 3, &mut rng()).unwrap();
        let x = Tensor::full(&[2, 5, 5], 0.3);
        let y1 = c.forward(&x).unwrap();
        let y2 = c.forward_train(&x).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn backward_requires_cache() {
        let mut c = Conv2d::new(1, 1, 2, &mut rng()).unwrap();
        let g = Tensor::ones(&[1, 2, 2]);
        assert!(matches!(
            c.backward(&g),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut c = Conv2d::new(1, 1, 2, &mut rng()).unwrap();
        let x = Tensor::ones(&[1, 3, 3]);
        let g = Tensor::ones(&[1, 2, 2]);
        c.forward_train(&x).unwrap();
        c.backward(&g).unwrap();
        let after_one: f32 = c.params()[0].grad.sum();
        c.forward_train(&x).unwrap();
        c.backward(&g).unwrap();
        let after_two: f32 = c.params()[0].grad.sum();
        assert!((after_two - 2.0 * after_one).abs() < 1e-4);
        c.zero_grads();
        assert_eq!(c.params()[0].grad.sum(), 0.0);
    }

    /// End-to-end finite-difference gradient check through the layer.
    #[test]
    fn layer_gradient_check() {
        let mut c = Conv2d::new(2, 2, 2, &mut rng()).unwrap();
        let x = Tensor::from_vec(
            (0..18).map(|i| (i as f32) * 0.1 - 0.9).collect(),
            &[2, 3, 3],
        )
        .unwrap();
        let y = c.forward_train(&x).unwrap();
        let grad_out = Tensor::ones(y.dims());
        c.zero_grads();
        let gx = c.backward(&grad_out).unwrap();

        // check dL/dkernels via finite differences on a few indices
        let eps = 1e-2;
        let analytic = c.grad_kernels.clone();
        for idx in [0usize, 3, 7, 15] {
            let orig = c.kernels.data()[idx];
            c.kernels.data_mut()[idx] = orig + eps;
            let lp = c.forward(&x).unwrap().sum();
            c.kernels.data_mut()[idx] = orig - eps;
            let lm = c.forward(&x).unwrap().sum();
            c.kernels.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic.data()[idx]).abs() < 1e-2,
                "idx {idx}: fd {fd} vs {}",
                analytic.data()[idx]
            );
        }
        // loss = sum of the outputs: dL/db is each map's cell count
        assert_eq!(c.grad_bias.data(), &[4.0, 4.0]);
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn op_count_matches_formula() {
        // Table I C1: 86_400 MACs (see cdl-tensor tests), 6*24*24 bias adds
        let c = Conv2d::new(1, 6, 5, &mut rng()).unwrap();
        let ops = c.op_count(&[1, 28, 28]).unwrap();
        assert_eq!(ops.macs, 86_400);
        assert_eq!(ops.adds, 6 * 24 * 24);
        assert_eq!(ops.mem_writes, 6 * 24 * 24);
        assert_eq!(ops.mem_reads as usize, 6 * 25 + 28 * 28);
    }

    #[test]
    fn param_count() {
        let c = Conv2d::new(3, 6, 5, &mut rng()).unwrap();
        assert_eq!(c.param_count(), 6 * 3 * 25 + 6);
    }
}
