//! The [`Layer`] trait implemented by every network building block.

use cdl_hw::OpCount;
use cdl_tensor::Tensor;

use crate::activation::Activation;
use crate::batch::BatchScratch;
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
///   the paper's accelerator. The batched routes (`forward_batch`, the fused
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

    /// Inference-mode forward pass over a whole batch, reusing the shared
    /// scratch buffers (and running the GEMM microkernel they select — see
    /// [`crate::batch::BatchScratch::kernel`]).
    ///
    /// Must produce exactly [`Layer::forward`]'s output for every element,
    /// for a batch of any size including one. The default implementation
    /// simply loops; layers with a genuinely batched kernel (conv via the
    /// direct kernel or one im2col+GEMM, dense via one batched affine)
    /// override this with a bit-identical vectorised path.
    /// [`crate::network::Network::forward_batch_segment`] calls this for
    /// every layer that is not part of a fused stage group.
    ///
    /// # Errors
    ///
    /// Shape/geometry errors from the underlying tensor ops.
    fn forward_batch(&self, xs: &[Tensor], scratch: &mut BatchScratch) -> Result<Vec<Tensor>> {
        let _ = scratch;
        xs.iter().map(|x| self.forward(x)).collect()
    }

    /// The fused stage group `self → activation → max-pool(window)` over a
    /// whole batch, for layers that have one (convolutions): each image's
    /// raw output is max-pooled first and `activation` is applied to the
    /// pooled map only, one output tensor per image.
    ///
    /// Must produce exactly what [`Layer::forward`], the activation layer
    /// and the pooling layer produce in sequence — which holds only for an
    /// activation on the [`Activation::POOL_FIRST`] list; the caller
    /// ([`crate::network::Network`]'s stage plan) guarantees that. `None`
    /// (the default) means the layer has no fused form for this batch and
    /// the caller runs the three layers one by one.
    fn forward_batch_pooled(
        &self,
        xs: &[Tensor],
        activation: Activation,
        window: usize,
        scratch: &mut BatchScratch,
    ) -> Option<Result<Vec<Tensor>>> {
        let _ = (xs, activation, window, scratch);
        None
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
