//! The batched convolution entry. (No im2col lowering is left behind it;
//! the module keeps its name only because `benchmark/` imports
//! `cdl_tensor::im2col` — the rename rides with ROADMAP item 1.)
//!
//! [`conv2d_pool_block`] runs one `conv → max-pool → activation` stage over
//! a whole batch, from a [`Rows`] of `[c_in, h, w]` images (the caller's
//! tensors, or a block of an evaluator's arena) into a contiguous `[n, f]`
//! block — no tensor is built per image and nothing is lowered to a patch
//! matrix. Which kernel convolves is decided once per batch by
//! `BatchGeometry::x8_images`, from the geometry, the window and `n` alone:
//! blocks of eight images run the lanes-across-images kernel and single
//! images the per-image direct kernel (both in [`crate::gemm`]). Both pool
//! inside the kernel, before anything is stored — the x8 kernel from an
//! L1-resident strip per pooled row, the direct kernel in registers per
//! tile — so no raw conv map is written and there is no second pass over
//! one. The [`GemmKernel`] argument picks only which compilation of those
//! two kernels runs.
//!
//! Both are bit-identical to the per-image reference
//! [`crate::conv::conv2d_valid`] → activation →
//! [`crate::pool::maxpool2d_forward`].
//! [`conv2d_valid_batch`] is the tensors-in, tensors-out form of the same
//! path (identity window, no activation).

use crate::conv::{check_conv_bias, check_conv_operands, valid_out_size};
use crate::error::TensorError;
use crate::gemm::{self, GemmKernel, Target, X8Scratch};
use crate::rows::Rows;
use crate::tensor::Tensor;
use crate::Result;

/// Reusable buffers of [`conv2d_pool_block`], whichever kernel it runs.
/// Allocate once per evaluator, reuse per stage: they grow on first use and
/// are never shrunk, so repeated batches at the same (or a smaller)
/// geometry never reallocate. The direct kernel needs none: it pools in
/// registers and writes the caller's row.
#[derive(Debug, Default, Clone)]
pub struct ConvScratch {
    /// The lanes-across-images kernel's interleaved buffers.
    x8: X8Scratch,
    /// [`conv2d_valid_batch`]'s output block, before it is cut into tensors.
    block: Vec<f32>,
}

impl ConvScratch {
    /// Values the buffers can hold without growing — what "a later, smaller
    /// batch allocates nothing" is checked against.
    pub fn capacity(&self) -> usize {
        self.x8.capacity() + self.block.capacity()
    }
}

/// Validated geometry of one batched valid convolution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchGeometry {
    pub(crate) c_in: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) c_out: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
}

impl BatchGeometry {
    /// Checks the per-image shape `dims` against the kernel bank and the
    /// bias.
    pub(crate) fn check(dims: &[usize], kernels: &Tensor, bias: &[f32]) -> Result<Self> {
        let (c_in, h, w, c_out, kh, kw) = check_conv_operands(dims, kernels)?;
        check_conv_bias(c_out, bias)?;
        Ok(BatchGeometry {
            c_in,
            h,
            w,
            c_out,
            kh,
            kw,
            oh: valid_out_size(h, kh)?,
            ow: valid_out_size(w, kw)?,
        })
    }

    /// Output cells per map.
    fn cols_per(&self) -> usize {
        self.oh * self.ow
    }

    /// **The kernel choice**: how many of a batch's `n` images — its
    /// leading ones, in blocks of eight — run the lanes-across-images
    /// kernel; the rest run the per-image direct kernel. A pure function of
    /// the geometry, the pooling `window` and `n`, the same on every host
    /// and arm (the numbers are the AVX2 compilation's; `crate::gemm` has
    /// the baseline one's):
    ///
    /// * `ow < 8` or `window > 2`: all `n` — the direct kernel cannot take
    ///   the map or pool by the window (it pools by 1 or 2 in registers; no
    ///   network this workspace builds pools by more), so the `n % 8`
    ///   remainder is one zero-padded block (a lone image on 3C's C3 pays
    ///   eight images' work);
    /// * `ow % 8 == 0`: none — the direct kernel's lanes are already full
    ///   (2C's 24- and 8-wide maps measured ×0.89–1.08 under x8);
    /// * otherwise every **full** block of eight, the remainder per image: a
    ///   padded block loses to the direct kernel below about six images
    ///   (×0.58–0.71 at four, ×0.14–0.20 at one).
    pub(crate) fn x8_images(&self, n: usize, window: usize) -> usize {
        if self.ow < gemm::DIRECT_MIN_OW || window > 2 {
            n
        } else if self.ow.is_multiple_of(8) {
            0
        } else {
            n - n % 8
        }
    }
}

/// One `conv → activation → max-pool(window)` stage over a batch, with the
/// pooling moved **ahead of** the activation: image `i` of `src` (each
/// `dims = [c_in, h, w]`) is convolved and max-pooled in one kernel pass —
/// the raw pre-activations are pooled where they are computed and never
/// stored — `activation` is applied in place to the pooled values only,
/// and the result is row `i` of `dst`, a contiguous `[n, c_out·(oh/window)
/// ·(ow/window)]` block. `window = 1` with a no-op `activation` is the plain
/// batched convolution. Which kernel convolves is
/// `BatchGeometry::x8_images`'s decision (module docs): the direct kernel
/// pools by 1 or 2, the x8 kernel by any window.
///
/// The result equals pooling the activated maps **bit for bit** whenever
/// `activation` is elementwise — cell `i` of the slice it is handed depends
/// on cell `i` alone, whatever the slice's length or what its other cells
/// hold — and, as a function of one cell, commutes with [`crate::pool`]'s
/// scan: non-decreasing over the ordered non-NaN `f32`s, NaN in ⇒ NaN out,
/// numerically equal outputs of distinct inputs identical in bits, and
/// equal outputs for `-0.0` and `+0.0` (then the raw scan and the activated
/// scan pick the same element, or elements whose activations are the same
/// bits). Choosing such an activation is the caller's obligation; `cdl-nn`
/// keeps the list and the exhaustive test behind it. The accumulation order
/// per output element — bias first, then taps in channel-major `(c, ky, kx)`
/// order — is [`crate::conv::conv2d_valid`]'s on every kernel.
///
/// # Errors
///
/// The conditions of [`crate::conv::conv2d_valid`] on `dims`, `kernels` and
/// `bias`; [`TensorError::InvalidGeometry`] when `window` is zero or does
/// not tile the output maps; [`TensorError::ShapeMismatch`] when a row of
/// `src` is not `c_in·h·w` long or `dst` is not the output block — all
/// before anything is computed.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_pool_block(
    src: Rows<'_>,
    dims: &[usize],
    kernels: &Tensor,
    bias: &[f32],
    window: usize,
    activation: impl Fn(&mut [f32]),
    dst: &mut [f32],
    scratch: &mut ConvScratch,
    kernel: GemmKernel,
) -> Result<()> {
    let g = BatchGeometry::check(dims, kernels, bias)?;
    if window == 0 || !g.oh.is_multiple_of(window) || !g.ow.is_multiple_of(window) {
        return Err(TensorError::InvalidGeometry(format!(
            "pooling window {window} does not tile conv output {}x{}",
            g.oh, g.ow
        )));
    }
    let n = src.len();
    let f_out = g.c_out * g.cols_per() / (window * window);
    if !src.all_have_width(g.c_in * g.h * g.w) || dst.len() != n * f_out {
        return Err(TensorError::ShapeMismatch {
            left: dims.to_vec(),
            right: vec![n, dst.len()],
        });
    }
    if dst.is_empty() {
        return Ok(());
    }
    let target = Target::pick(kernel);
    let x8 = g.x8_images(n, window);
    for first in (0..x8).step_by(8) {
        let count = (x8 - first).min(8);
        gemm::conv2d_x8(
            target,
            &g,
            src,
            first,
            count,
            kernels.data(),
            bias,
            window,
            &activation,
            &mut scratch.x8,
            &mut dst[first * f_out..(first + count) * f_out],
        );
    }
    for (i, row) in dst.chunks_exact_mut(f_out).enumerate().skip(x8) {
        gemm::conv2d_direct(target, &g, src.row(i), kernels.data(), bias, window, row);
        activation(row);
    }
    Ok(())
}

/// Valid cross-correlation of a whole batch of tensors, one output tensor
/// per input: [`conv2d_pool_block`] with the identity window and no
/// activation, for callers that hold tensors on both sides (the benchmark's
/// `tensor.conv_*` rows, the parity suites). It hands the batch over eight
/// images at a time — the unit every kernel choice is made in, so the same
/// kernels run as for the whole batch — which keeps the block the outputs
/// are cut from small enough to still be in cache when they are.
/// **Bit-identical** to [`crate::conv::conv2d_valid`] per image for every
/// [`GemmKernel`].
///
/// # Errors
///
/// Same conditions as [`crate::conv::conv2d_valid`], plus
/// [`TensorError::ShapeMismatch`] when batch members disagree in shape.
pub fn conv2d_valid_batch(
    inputs: &[Tensor],
    kernels: &Tensor,
    bias: &[f32],
    scratch: &mut ConvScratch,
    kernel: GemmKernel,
) -> Result<Vec<Tensor>> {
    let Some(first) = inputs.first() else {
        return Ok(Vec::new());
    };
    if let Some(other) = inputs.iter().find(|t| t.shape() != first.shape()) {
        return Err(TensorError::ShapeMismatch {
            left: first.dims().to_vec(),
            right: other.dims().to_vec(),
        });
    }
    let g = BatchGeometry::check(first.dims(), kernels, bias)?;
    let dims = [g.c_out, g.oh, g.ow];
    let f_out = g.c_out * g.cols_per();
    let mut block = std::mem::take(&mut scratch.block);
    gemm::grow(&mut block, 8 * f_out);
    let mut outputs = Vec::with_capacity(inputs.len());
    let mut run = || -> Result<()> {
        for eight in inputs.chunks(8) {
            let rows = &mut block[..eight.len() * f_out];
            conv2d_pool_block(
                Rows::Tensors(eight),
                first.dims(),
                kernels,
                bias,
                1,
                |_| {},
                rows,
                scratch,
                kernel,
            )?;
            for row in rows.chunks_exact(f_out.max(1)) {
                outputs.push(Tensor::from_vec(row.to_vec(), &dims)?);
            }
        }
        Ok(())
    };
    let done = run();
    scratch.block = block;
    done.map(|()| outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_valid;
    use crate::math;
    use crate::pool;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    #[test]
    fn batch_is_bit_identical_to_direct() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for (n, c_in, c_out, k, size) in [
            // 2C's C1, ow = 24: the direct kernel, 3 aligned vectors a row,
            // 72 positions in 2×3 tiles, OC blocks 3+3
            (1usize, 1usize, 6usize, 5usize, 28usize),
            // 2C's C2, ow = 8: one vector a row, every pair straddles a row
            // end, OC 3+3+3+3
            (4, 6, 12, 5, 12),
            // ow = 5: narrow geometry — x8 for all nine, the last block
            // padded
            (9, 3, 4, 3, 7),
            // ow = 10 with c_out = 2: overlapped last vector at ox = 2 and
            // the OC=2 block
            (3, 2, 2, 3, 12),
            // ow = 9 with c_out = 7: OC blocks 3+3+1, 7 recomputed columns
            (2, 1, 7, 2, 10),
            // 3C's C1, ow = 26: vectors at ox = 0, 8, 16 and 18
            (2, 1, 3, 3, 28),
            // 3C's C2, ow = 10: vectors at ox = 0 and 2, 20 positions
            (2, 3, 6, 4, 13),
            // 19×19 maps: 3 vectors × 19 rows is an odd position count, so
            // the last tile runs 1 vector × 1 channel
            (1, 2, 1, 2, 20),
        ] {
            let inputs: Vec<Tensor> = (0..n)
                .map(|_| {
                    let d: Vec<f32> = (0..c_in * size * size)
                        .map(|_| rng.random_range(-1.0..1.0))
                        .collect();
                    t(d, &[c_in, size, size])
                })
                .collect();
            let k_data: Vec<f32> = (0..c_out * c_in * k * k)
                .map(|_| rng.random_range(-0.5..0.5))
                .collect();
            let kernels = t(k_data, &[c_out, c_in, k, k]);
            let bias: Vec<f32> = (0..c_out).map(|_| rng.random_range(-0.2..0.2)).collect();
            let mut scratch = ConvScratch::default();
            for gemm_kernel in GemmKernel::ALL {
                let batched =
                    conv2d_valid_batch(&inputs, &kernels, &bias, &mut scratch, gemm_kernel)
                        .unwrap();
                for (x, b) in inputs.iter().zip(&batched) {
                    let direct = conv2d_valid(x, &kernels, &bias).unwrap();
                    assert_eq!(direct.dims(), b.dims());
                    // bit-identical, not just close: every kernel replays
                    // the oracle's exact addition sequence, whichever
                    // compilation ran it
                    for (dv, bv) in direct.data().iter().zip(b.data()) {
                        assert_eq!(dv.to_bits(), bv.to_bits(), "kernel {gemm_kernel:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn batch_scratch_reuse_across_geometries() {
        let gemm_kernel = GemmKernel::default();
        let mut scratch = ConvScratch::default();
        let k1 = Tensor::ones(&[2, 1, 2, 2]);
        let a: Vec<Tensor> = (0..3).map(|i| Tensor::full(&[1, 5, 5], i as f32)).collect();
        let first = conv2d_valid_batch(&a, &k1, &[0.1, 0.2], &mut scratch, gemm_kernel).unwrap();
        // different geometry afterwards must be handled by the same scratch
        let k2 = Tensor::ones(&[1, 2, 3, 3]);
        let b: Vec<Tensor> = (0..2)
            .map(|i| Tensor::full(&[2, 8, 8], 0.5 + i as f32))
            .collect();
        let second = conv2d_valid_batch(&b, &k2, &[0.0], &mut scratch, gemm_kernel).unwrap();
        // then the original geometry again, bit-identically
        let again = conv2d_valid_batch(&a, &k1, &[0.1, 0.2], &mut scratch, gemm_kernel).unwrap();
        assert_eq!(first, again);
        assert_eq!(second[0].dims(), &[1, 6, 6]);
    }

    #[test]
    fn batch_validates_operands() {
        let gemm_kernel = GemmKernel::default();
        let mut scratch = ConvScratch::default();
        let k = Tensor::ones(&[1, 1, 2, 2]);
        // empty batch is fine
        assert!(
            conv2d_valid_batch(&[], &k, &[0.0], &mut scratch, gemm_kernel)
                .unwrap()
                .is_empty()
        );
        // mixed shapes rejected
        let mixed = vec![Tensor::ones(&[1, 4, 4]), Tensor::ones(&[1, 5, 5])];
        assert!(conv2d_valid_batch(&mixed, &k, &[0.0], &mut scratch, gemm_kernel).is_err());
        // wrong channel count rejected
        let xs = vec![Tensor::ones(&[2, 4, 4])];
        assert!(conv2d_valid_batch(&xs, &k, &[0.0], &mut scratch, gemm_kernel).is_err());
        // bad bias rejected
        let xs = vec![Tensor::ones(&[1, 4, 4])];
        assert!(conv2d_valid_batch(&xs, &k, &[0.0, 0.0], &mut scratch, gemm_kernel).is_err());
    }

    /// A batch through [`conv2d_pool_block`] as a fresh `[n, f]` block.
    fn pool_block(
        inputs: &[Tensor],
        kernels: &Tensor,
        bias: &[f32],
        window: usize,
        scratch: &mut ConvScratch,
        kernel: GemmKernel,
    ) -> Result<Vec<f32>> {
        let g = BatchGeometry::check(inputs[0].dims(), kernels, bias)?;
        let f_out = g.c_out * g.cols_per() / (window * window).max(1);
        let mut block = vec![f32::NAN; inputs.len() * f_out];
        conv2d_pool_block(
            Rows::Tensors(inputs),
            inputs[0].dims(),
            kernels,
            bias,
            window,
            |xs| math::sigmoid_slice(kernel, xs),
            &mut block,
            scratch,
            kernel,
        )?;
        Ok(block)
    }

    #[test]
    fn pool_block_matches_activate_then_pool() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for (n, c_in, c_out, k, size, window) in [
            // 2C's C1/P1 and C2/P2: `ow % 8 == 0`, the direct kernel for
            // every image
            (3usize, 1usize, 6usize, 5usize, 28usize, 2usize),
            (10, 6, 12, 5, 12, 2),
            // 3C's C1/P1 and C2/P2: one x8 block, then direct images
            (11, 1, 3, 3, 28, 2),
            (9, 3, 6, 4, 13, 2),
            // 3C's C3/P3, ow = 3: x8 for all, the last block padded
            (13, 6, 9, 3, 5, 1),
            // ow = 6: narrow maps, a lone padded block
            (4, 2, 3, 3, 8, 3),
            // a batch of one, and the identity window
            (1, 3, 4, 3, 5, 1),
            // window 3 over ow = 12 and ow = 24: x8 for every image, the
            // last block padded (the direct kernel pools only by 1 or 2)
            (10, 2, 3, 3, 14, 3),
            (3, 1, 2, 5, 28, 3),
        ] {
            let inputs: Vec<Tensor> = (0..n)
                .map(|_| {
                    let d: Vec<f32> = (0..c_in * size * size)
                        .map(|_| rng.random_range(-1.0..1.0))
                        .collect();
                    t(d, &[c_in, size, size])
                })
                .collect();
            let k_data: Vec<f32> = (0..c_out * c_in * k * k)
                .map(|_| rng.random_range(-0.5..0.5))
                .collect();
            let kernels = t(k_data, &[c_out, c_in, k, k]);
            let bias: Vec<f32> = (0..c_out).map(|_| rng.random_range(-0.2..0.2)).collect();
            let mut scratch = ConvScratch::default();
            for gemm_kernel in GemmKernel::ALL {
                let fused = pool_block(&inputs, &kernels, &bias, window, &mut scratch, gemm_kernel)
                    .unwrap();
                let f_out = fused.len() / n;
                for (x, f) in inputs.iter().zip(fused.chunks(f_out)) {
                    let activated = conv2d_valid(x, &kernels, &bias).unwrap().map(math::sigmoid);
                    let unfused = pool::maxpool2d_forward(&activated, window).unwrap();
                    assert_eq!(unfused.len(), f.len());
                    for (u, v) in unfused.data().iter().zip(f) {
                        assert_eq!(u.to_bits(), v.to_bits(), "kernel {gemm_kernel:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn pool_block_validates_before_it_computes() {
        let mut scratch = ConvScratch::default();
        let kernel = GemmKernel::default();
        let k = Tensor::ones(&[1, 1, 2, 2]);
        let xs = vec![Tensor::ones(&[1, 4, 4])]; // 3x3 output maps
        for window in [0usize, 2] {
            assert!(pool_block(&xs, &k, &[0.0], window, &mut scratch, kernel).is_err());
        }
        assert_eq!(
            pool_block(&xs, &k, &[0.0], 3, &mut scratch, kernel)
                .unwrap()
                .len(),
            1
        );
        // a row that is not [c_in, h, w], in tensors and in a block
        let mixed = vec![Tensor::ones(&[1, 4, 4]), Tensor::ones(&[1, 5, 5])];
        assert!(pool_block(&mixed, &k, &[0.0], 1, &mut scratch, kernel).is_err());
        let mut dst = vec![0.0f32; 9];
        let block = Rows::Block {
            data: &[0.0; 15],
            width: 15,
        };
        assert!(conv2d_pool_block(
            block,
            &[1, 4, 4],
            &k,
            &[0.0],
            1,
            |_| {},
            &mut dst,
            &mut scratch,
            kernel
        )
        .is_err());
        // a destination that is not the output block
        let mut short = vec![0.0f32; 8];
        assert!(conv2d_pool_block(
            Rows::Tensors(&xs),
            &[1, 4, 4],
            &k,
            &[0.0],
            1,
            |_| {},
            &mut short,
            &mut scratch,
            kernel
        )
        .is_err());
        // an empty batch is fine
        assert!(conv2d_pool_block(
            Rows::Tensors(&[]),
            &[1, 4, 4],
            &k,
            &[0.0],
            1,
            |_| {},
            &mut [],
            &mut scratch,
            kernel
        )
        .is_ok());
    }

    /// The kernel choice as the table it is: `x8_images(n, window)` per
    /// geometry class and pooling window.
    #[test]
    fn x8_kernel_choice_as_a_table() {
        let geometry = |side: usize, k: usize| {
            BatchGeometry::check(&[1, side, side], &Tensor::ones(&[1, 1, k, k]), &[0.0]).unwrap()
        };
        const ALL: [(usize, usize); 7] =
            [(0, 0), (1, 1), (7, 7), (8, 8), (9, 9), (16, 16), (257, 257)];
        const NONE: [(usize, usize); 7] =
            [(0, 0), (1, 0), (7, 0), (8, 0), (9, 0), (16, 0), (257, 0)];
        const FULL_BLOCKS: [(usize, usize); 7] =
            [(0, 0), (1, 0), (7, 0), (8, 8), (9, 8), (16, 16), (257, 256)];
        // (output width, window, [(n, images through x8)])
        let table = [
            // narrow: all of them, the remainder as a padded block
            (3, 1, ALL),
            (6, 2, ALL),
            (7, 1, ALL),
            // full direct lanes: none (2C's 24 and 8, pooled by 2)
            (8, 1, NONE),
            (8, 2, NONE),
            (24, 2, NONE),
            // ragged direct lanes: full blocks only (3C's 10 and 26)
            (10, 1, FULL_BLOCKS),
            (10, 2, FULL_BLOCKS),
            (26, 2, FULL_BLOCKS),
            // a window the direct kernel does not pool: all of them,
            // whatever the width
            (12, 3, ALL),
            (24, 3, ALL),
            (24, 4, ALL),
        ];
        for (ow, window, cases) in table {
            let g = geometry(ow + 2, 3);
            assert_eq!(g.ow, ow);
            for (n, x8) in cases {
                assert_eq!(g.x8_images(n, window), x8, "ow={ow} window={window} n={n}");
            }
        }
    }

    #[test]
    fn scratch_does_not_grow_for_a_smaller_batch() {
        let k = Tensor::ones(&[2, 1, 3, 3]);
        for kernel in GemmKernel::ALL {
            let mut scratch = ConvScratch::default();
            let big: Vec<Tensor> = (0..19)
                .map(|i| Tensor::full(&[1, 12, 12], i as f32))
                .collect();
            pool_block(&big, &k, &[0.1, 0.2], 2, &mut scratch, kernel).unwrap();
            let grown = scratch.capacity();
            assert!(grown > 0);
            pool_block(&big[..5], &k, &[0.1, 0.2], 2, &mut scratch, kernel).unwrap();
            pool_block(&big[..9], &k, &[0.1, 0.2], 2, &mut scratch, kernel).unwrap();
            assert_eq!(scratch.capacity(), grown, "{kernel:?}");
        }
    }
}
