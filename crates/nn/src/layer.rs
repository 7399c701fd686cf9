//! The [`Layer`] trait implemented by every network building block.

use cdl_hw::OpCount;
use cdl_tensor::Tensor;

use crate::batch::Block;
use crate::Result;

/// A mutable view of one parameter tensor and its accumulated gradient.
///
/// Returned by [`Layer::params`] so optimizers can update weights in place
/// without knowing layer internals.
#[derive(Debug)]
pub struct ParamGrad<'a> {
    /// The parameter tensor (updated in place by the optimizer).
    pub param: &'a mut Tensor,
    /// Gradient accumulated by `backward` calls since the last `zero_grads`.
    pub grad: &'a mut Tensor,
}

/// A differentiable network building block.
///
/// Layers operate on single samples (no batch axis); minibatching is done by
/// accumulating gradients across consecutive
/// [`forward_train`](Layer::forward_train)/[`backward`](Layer::backward)
/// pairs before an optimizer step. The networks in this reproduction are
/// LeNet-scale, where sample-at-a-time keeps every backward pass trivially
/// correct and still trains in seconds.
///
/// # Contract
///
/// * `forward` must be pure (no caching) so it can be called concurrently
///   during evaluation.
/// * `forward_train` caches whatever `backward` needs; `backward` consumes
///   the cache of the **most recent** `forward_train` and returns the
///   gradient w.r.t. that input while *accumulating* parameter gradients.
/// * `op_count` must describe the work done by `forward` for a given input
///   shape — it is the basis of the paper's OPS metric, an analytic model of
///   the paper's accelerator. The batched routes (`forward_block`, the fused
///   stage groups) are host optimisations and never change it.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Human-readable layer description, e.g. `"conv 5x5x1 -> 6 maps"`.
    fn name(&self) -> String;

    /// Inference-mode forward pass (no side effects).
    ///
    /// # Errors
    ///
    /// Shape/geometry errors from the underlying tensor ops.
    fn forward(&self, x: &Tensor) -> Result<Tensor>;

    /// Inference-mode forward pass over a whole batch, as one step of a
    /// [`Block`] (see [`crate::batch`]): read the block's per-image shape,
    /// then write the next block, edit this one in place, or relabel it.
    ///
    /// Must leave in the block exactly [`Layer::forward`]'s output for every
    /// image, for a batch of any size including one. The default body does
    /// literally that, image by image through tensors; layers with a
    /// genuinely batched form override it with a bit-identical one
    /// (convolution: the lanes-across-images and direct kernels; dense: one
    /// batched affine over the rows as they lie;
    /// activation: the slice in place; flatten: a relabel). A layer that
    /// opens a fusable stage group may find the group's `(activation,
    /// max-pool window)` in `Block::take_epilogue`; a layer that takes it
    /// must produce what itself, the activation layer and the pooling layer
    /// produce in sequence — which holds for a pool-first evaluation only
    /// because the network offers it only for an activation on the
    /// [`Activation::POOL_FIRST`](crate::activation::Activation::POOL_FIRST)
    /// list. Leaving it untaken (the default) makes the network run the
    /// three layers one by one.
    ///
    /// # Errors
    ///
    /// Shape/geometry errors from the underlying tensor ops.
    fn forward_block(&self, block: &mut Block<'_>) -> Result<()> {
        block.map_images(|x| self.forward(x))
    }

    /// Training-mode forward pass; caches intermediates for `backward`.
    ///
    /// # Errors
    ///
    /// Shape/geometry errors from the underlying tensor ops.
    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor>;

    /// Backpropagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer's input.
    ///
    /// # Errors
    ///
    /// [`crate::NnError::NoForwardCache`] when called before
    /// `forward_train`, or shape errors when `grad_out` is malformed.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Mutable access to parameters and their gradients (empty for
    /// parameter-free layers).
    fn params(&mut self) -> Vec<ParamGrad<'_>> {
        Vec::new()
    }

    /// Read-only snapshot of the parameter tensors, in the same order as
    /// [`Layer::params`] (empty for parameter-free layers).
    fn param_snapshot(&self) -> Vec<cdl_tensor::Tensor> {
        Vec::new()
    }

    /// Number of trainable scalar parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Clears accumulated gradients (no-op for parameter-free layers).
    fn zero_grads(&mut self) {}

    /// Output shape for a given input shape.
    ///
    /// # Errors
    ///
    /// Geometry errors when the input shape is incompatible.
    fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>>;

    /// Work performed by one `forward` call on the given input shape.
    ///
    /// # Errors
    ///
    /// Geometry errors when the input shape is incompatible.
    fn op_count(&self, input: &[usize]) -> Result<OpCount>;
}

#[cfg(test)]
mod tests {
    use super::*;

    // a minimal layer proving the trait is object safe and defaults work
    #[derive(Debug)]
    struct Noop;

    impl Layer for Noop {
        fn name(&self) -> String {
            "noop".into()
        }
        fn forward(&self, x: &Tensor) -> Result<Tensor> {
            Ok(x.clone())
        }
        fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
            Ok(x.clone())
        }
        fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
            Ok(grad_out.clone())
        }
        fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>> {
            Ok(input.to_vec())
        }
        fn op_count(&self, _input: &[usize]) -> Result<OpCount> {
            Ok(OpCount::ZERO)
        }
    }

    #[test]
    fn trait_is_object_safe_with_defaults() {
        let mut layer: Box<dyn Layer> = Box::new(Noop);
        assert_eq!(layer.name(), "noop");
        assert!(layer.params().is_empty());
        assert_eq!(layer.param_count(), 0);
        layer.zero_grads(); // default no-op must not panic
        let x = Tensor::ones(&[3]);
        assert_eq!(layer.forward(&x).unwrap(), x);
    }
}
