//! Elementwise activation layer.

use cdl_hw::OpCount;
use cdl_tensor::Tensor;

use crate::activation::Activation;
use crate::batch::Block;
use crate::error::NnError;
use crate::layer::Layer;
use crate::Result;

/// Applies an [`Activation`] elementwise.
///
/// Caches its *output* during training — all supported activations have
/// derivatives expressible in the output, so this is the cheapest correct
/// cache.
#[derive(Debug)]
pub struct ActivationLayer {
    act: Activation,
    cache_output: Option<Tensor>,
}

impl ActivationLayer {
    /// Wraps an activation function as a layer.
    pub(crate) fn new(act: Activation) -> Self {
        ActivationLayer {
            act,
            cache_output: None,
        }
    }
}

impl Layer for ActivationLayer {
    fn name(&self) -> String {
        self.act.name().to_string()
    }

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let mut y = x.clone();
        self.act.apply_slice(y.data_mut());
        Ok(y)
    }

    fn forward_block(&self, block: &mut Block<'_>) -> Result<()> {
        self.act.apply_slice(block.data_mut());
        Ok(())
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let y = self.forward(x)?;
        self.cache_output = Some(y.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let y = self
            .cache_output
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        Ok(cdl_tensor::ops::zip_with(grad_out, y, |g, yv| {
            g * self.act.derivative_from_output(yv)
        })?)
    }

    fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>> {
        Ok(input.to_vec())
    }

    fn op_count(&self, input: &[usize]) -> Result<OpCount> {
        let n: u64 = input.iter().product::<usize>() as u64;
        if self.act == Activation::Identity {
            return Ok(OpCount::ZERO);
        }
        Ok(OpCount {
            activations: n,
            mem_reads: n,
            mem_writes: n,
            ..OpCount::ZERO
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_forward_values() {
        let l = ActivationLayer::new(Activation::Sigmoid);
        let y = l.forward(&Tensor::zeros(&[4])).unwrap();
        assert!(y.data().iter().all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    fn identity_is_free_and_transparent() {
        let l = ActivationLayer::new(Activation::Identity);
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
        assert_eq!(l.forward(&x).unwrap(), x);
        assert!(l.op_count(&[2]).unwrap().is_zero());
    }

    #[test]
    fn backward_chain_rule() {
        let mut l = ActivationLayer::new(Activation::Sigmoid);
        let x = Tensor::zeros(&[3]);
        let _ = l.forward_train(&x).unwrap();
        // at x=0, y=0.5, dy/dx = 0.25
        let g = l.backward(&Tensor::ones(&[3])).unwrap();
        assert!(g.data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn backward_requires_cache() {
        let mut l = ActivationLayer::new(Activation::Sigmoid);
        assert!(l.backward(&Tensor::ones(&[3])).is_err());
    }

    #[test]
    fn shape_is_preserved() {
        let l = ActivationLayer::new(Activation::Sigmoid);
        assert_eq!(l.output_shape(&[6, 12, 12]).unwrap(), vec![6, 12, 12]);
        let ops = l.op_count(&[6, 12, 12]).unwrap();
        assert_eq!(ops.activations, 864);
    }
}
