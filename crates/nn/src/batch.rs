//! Batched inference support: shared scratch buffers, the host's GEMM
//! kernel, and how a batch moves through (slices of) a
//! [`crate::network::Network`].
//!
//! The pattern follows batched GPU evaluators (one persistent evaluator,
//! preallocated buffers, the plan — algorithm included — made once at
//! construction from the device, never handed in): a [`BatchScratch`] is
//! allocated once and threaded through every batched call, so steady-state
//! batch inference allocates only its output tensors, and the
//! [`GemmKernel`] it found at construction is the body every convolution,
//! batched affine and head runs.
//!
//! # Fused stage groups
//!
//! `Network::from_spec` finds, once, every run of runtime layers
//! `Conv2d → ActivationLayer → MaxPool2d` (the activation layer is absent
//! for `Identity`) whose activation is on
//! [`Activation::POOL_FIRST`](crate::activation::Activation::POOL_FIRST).
//! The plan is a list of layer indices with the activation and the window —
//! never a copy of weights — so training, `import_params` and a model
//! hot-swap cannot leave it stale. `Network::forward_batch_segment` runs
//! such a group as **one pass per image** whenever it lies wholly inside
//! the requested `(from, upto]`, which every cascade segment does since
//! taps sit after pools: convolve into the reused raw-map buffer of
//! `scratch.conv` (the per-image direct AVX2 kernel on the `Simd` arm with
//! `ow ≥ 8`, one im2col + GEMM over the batch otherwise), **max-pool the
//! raw pre-activations**, apply the activation to the pooled map only, and
//! emit that as the image's one output tensor
//! (`cdl_tensor::im2col::conv2d_pool_batch`).
//!
//! Pooling first is exact, not approximate. For a non-decreasing `f`,
//! `max(f(a), f(b)) = f(max(a, b))`; for the *bits* to agree under the
//! pool's scan (first element wins ties, NaN-aware) `f` must also map NaN
//! to NaN, give numerically equal outputs of distinct inputs identical
//! bits, and treat `-0.0` and `+0.0` alike. `activation`'s tests establish
//! this for each listed activation over every `f32`, and the plan consults
//! the same list. A 2×2 pool therefore evaluates a quarter of the
//! activations (864 instead of 3456 sigmoids for MNIST_2C's C1), and those
//! as one slice per image: the group hands the pooled map to
//! [`Activation::apply_slice`](crate::activation::Activation::apply_slice),
//! which for the sigmoid is `cdl_tensor::math::sigmoid_slice` — 8 AVX2
//! lanes of the same FMA-free polynomial `exp` the per-image
//! `Activation::apply` evaluates one cell at a time, equal bit for bit
//! (`cdl_tensor::math`'s sweep over all 2³² patterns). Both sides changed
//! together when the libm `expf` was retired; there is no second sigmoid.
//!
//! Everything else runs layer by layer through
//! [`Layer::forward_batch`](crate::layer::Layer::forward_batch), in the
//! layers' own order: a `MeanPool2d` stage, an activation that is not on
//! the list (`Relu`: `f32::max` drops a NaN), a segment that starts or
//! ends inside a group, a mixed-shape batch. Which route a layer takes is
//! decided by the layer sequence and the segment alone — there is no
//! switch. Both routes reproduce the per-image `forward` path **bit for
//! bit** on both [`GemmKernel`] arms and for every batch size, one
//! included (see `cdl_tensor::gemm` for why tiling never changes an
//! element's addition sequence); `tests/batch_equivalence.rs`, this
//! crate's proptests and the golden vectors of `tests/golden.rs` pin that
//! per arm.
//!
//! Fusion is a host-execution matter only: [`cdl_hw::OpCount`] remains the
//! paper's per-layer analytic model — a fused group still costs its conv
//! MACs, one activation per *unpooled* cell and the pool's compares — so
//! ops-reduction and energy figures do not move.

use cdl_tensor::gemm::GemmKernel;
use cdl_tensor::im2col::ConvScratch;

/// Reusable buffers plus the GEMM kernel for batched forward passes.
///
/// One instance serves a whole network: each layer resizes the buffers it
/// needs, and repeated batches at the same geometry never reallocate. The
/// kernel is fixed at construction — [`BatchScratch::new`] asks the host
/// ([`GemmKernel::detect`]: the AVX2 bodies where the CPU has them, the
/// portable ones otherwise); [`BatchScratch::with_kernel`] is the parity
/// suites' way to run the other arm — so every layer of every batch runs
/// the same body.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    /// im2col patch matrix + raw convolution output shared by all conv
    /// layers and fused stage groups.
    pub conv: ConvScratch,
    /// Row-major `[batch, out_features]` output block shared by all dense
    /// layers' batched affine.
    pub dense: Vec<f32>,
    /// The GEMM arm every batched conv/dense/head evaluation runs.
    pub kernel: GemmKernel,
}

impl BatchScratch {
    /// A fresh, empty scratch running the host's kernel
    /// ([`GemmKernel::detect`]); buffers grow on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// A fresh, empty scratch pinned to `kernel` — for parity suites that
    /// walk [`GemmKernel::ALL`]; nothing else has a reason to differ from
    /// [`BatchScratch::new`].
    pub fn with_kernel(kernel: GemmKernel) -> Self {
        BatchScratch {
            kernel,
            ..BatchScratch::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_kernel_is_the_detected_one() {
        assert_eq!(BatchScratch::new().kernel, GemmKernel::detect());
        assert_eq!(BatchScratch::default().kernel, GemmKernel::detect());
    }

    #[test]
    fn with_kernel_pins_the_choice() {
        for kernel in GemmKernel::ALL {
            let scratch = BatchScratch::with_kernel(kernel);
            assert_eq!(scratch.kernel, kernel);
            assert!(scratch.conv.patches.is_empty());
            assert!(scratch.dense.is_empty());
        }
    }
}
