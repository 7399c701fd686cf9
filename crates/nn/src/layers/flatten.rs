//! Rank-flattening layer bridging conv stacks and dense heads.

use cdl_hw::OpCount;
use cdl_tensor::Tensor;

use crate::batch::Block;
use crate::error::NnError;
use crate::layer::Layer;
use crate::Result;

/// Flattens any input to rank 1, remembering the input shape so the
/// backward pass can restore it.
///
/// The paper concatenates "the CNN features … into a 1-D vector" before
/// feeding linear classifiers and the FC output layer; this layer is that
/// concatenation.
#[derive(Debug, Default)]
pub struct Flatten {
    cache_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub(crate) fn new() -> Self {
        Flatten { cache_shape: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> String {
        "flatten".to_string()
    }

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        Ok(x.flatten())
    }

    fn forward_block(&self, block: &mut Block<'_>) -> Result<()> {
        block.reshape(&[block.width()])
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        self.cache_shape = Some(x.dims().to_vec());
        Ok(x.flatten())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let shape = self
            .cache_shape
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        Ok(grad_out.reshape(shape)?)
    }

    fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>> {
        Ok(vec![input.iter().product()])
    }

    fn op_count(&self, _input: &[usize]) -> Result<OpCount> {
        // a pure re-interpretation of memory: free in hardware
        Ok(OpCount::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores() {
        let mut l = Flatten::new();
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 2, 2]).unwrap();
        let y = l.forward_train(&x).unwrap();
        assert_eq!(y.dims(), &[12]);
        let gx = l.backward(&Tensor::ones(&[12])).unwrap();
        assert_eq!(gx.dims(), &[3, 2, 2]);
    }

    #[test]
    fn backward_requires_cache() {
        let mut l = Flatten::new();
        assert!(l.backward(&Tensor::ones(&[4])).is_err());
    }

    #[test]
    fn output_shape_and_cost() {
        let l = Flatten::new();
        assert_eq!(l.output_shape(&[6, 12, 12]).unwrap(), vec![864]);
        assert!(l.op_count(&[6, 12, 12]).unwrap().is_zero());
    }

    #[test]
    fn backward_rejects_wrong_size() {
        let mut l = Flatten::new();
        l.forward_train(&Tensor::zeros(&[2, 2])).unwrap();
        assert!(l.backward(&Tensor::ones(&[5])).is_err());
    }
}
