//! im2col-based convolution: the classic lowering of convolution to one
//! dense matrix multiply, and the batched convolution entries built on it.
//!
//! [`conv2d_valid_batch`] convolves a whole batch against preallocated
//! scratch — per image through the fused direct AVX2 kernel where it
//! applies, otherwise as one `[C_out, C_in·k²] × [C_in·k², N·oH·oW]` GEMM
//! over the shared patch matrix — and is bit-identical to the per-image
//! reference [`crate::conv::conv2d_valid`] for every [`GemmKernel`].
//! [`conv2d_pool_batch`] runs the same convolution and finishes each image
//! with the max-pool → activation epilogue while its raw maps are still in
//! the scratch buffer, so a `conv → activation → max-pool` stage produces
//! one tensor per image instead of three.

use crate::conv::{check_conv_bias, check_conv_operands, valid_out_size};
use crate::error::TensorError;
use crate::gemm::{self, GemmKernel};
use crate::pool;
use crate::tensor::Tensor;
use crate::Result;

/// Lowers a `[C_in, H, W]` input into the im2col patch matrix
/// `[C_in·kH·kW, oH·oW]`: column `j` holds the receptive field of output
/// pixel `j`, flattened channel-major.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::InvalidGeometry`]
/// for malformed operands.
pub fn im2col(input: &Tensor, kh: usize, kw: usize) -> Result<Tensor> {
    if input.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.rank(),
        });
    }
    let (c_in, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let oh = valid_out_size(h, kh)?;
    let ow = valid_out_size(w, kw)?;
    let rows = c_in * kh * kw;
    let cols = oh * ow;
    let mut out = vec![0.0f32; rows * cols];
    im2col_into(input, kh, kw, &mut out, cols, 0)?;
    Tensor::from_vec(out, &[rows, cols])
}

/// Lowers one `[C_in, H, W]` input into a **column block** of a larger,
/// preallocated patch matrix.
///
/// `out` is the row-major buffer of a `[C_in·kH·kW, total_cols]` matrix;
/// this image's `oH·oW` patch columns are written starting at column
/// `col_offset`. Batched evaluation lowers every image of a batch into one
/// shared matrix (allocate once, reuse per stage) and runs a single GEMM.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::InvalidGeometry`]
/// for malformed operands or a buffer/offset that cannot hold the block.
pub fn im2col_into(
    input: &Tensor,
    kh: usize,
    kw: usize,
    out: &mut [f32],
    total_cols: usize,
    col_offset: usize,
) -> Result<()> {
    if input.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.rank(),
        });
    }
    let (c_in, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let oh = valid_out_size(h, kh)?;
    let ow = valid_out_size(w, kw)?;
    let rows = c_in * kh * kw;
    let cols = oh * ow;
    if col_offset + cols > total_cols || out.len() != rows * total_cols {
        return Err(TensorError::InvalidGeometry(format!(
            "im2col_into: {rows}x{cols} block at column {col_offset} does not fit a buffer of {} ({total_cols} total columns)",
            out.len()
        )));
    }
    let x = input.data();
    let in_plane = h * w;

    for c in 0..c_in {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (c * kh + ky) * kw + kx;
                let obase = row * total_cols + col_offset;
                for oy in 0..oh {
                    let xrow = c * in_plane + (oy + ky) * w + kx;
                    let orow = obase + oy * ow;
                    out[orow..orow + ow].copy_from_slice(&x[xrow..xrow + ow]);
                }
            }
        }
    }
    Ok(())
}

/// Reusable buffers for [`conv2d_valid_batch`] and [`conv2d_pool_batch`]:
/// the shared patch matrix and the raw convolution output. Allocate once
/// per evaluator, reuse per stage — repeated batches at the same geometry
/// never reallocate.
#[derive(Debug, Default, Clone)]
pub struct ConvScratch {
    /// The `[C_in·k², N·oH·oW]` im2col patch matrix of the current batch.
    pub patches: Vec<f32>,
    /// Raw convolution output: the `[C_out, N·oH·oW]` GEMM result of the
    /// current batch, or — on the direct path of [`conv2d_pool_batch`] —
    /// the `[C_out, oH, oW]` maps of the image being pooled.
    pub out: Vec<f32>,
}

/// Validated geometry of one batched convolution.
#[derive(Debug, Clone, Copy)]
struct BatchGeometry {
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
}

impl BatchGeometry {
    /// Checks operands, bias and that every input has the shape of the
    /// first; `None` for an empty batch.
    fn check(inputs: &[Tensor], kernels: &Tensor, bias: &[f32]) -> Result<Option<Self>> {
        let Some(first) = inputs.first() else {
            return Ok(None);
        };
        let (c_in, h, w, c_out, kh, kw) = check_conv_operands(first, kernels)?;
        check_conv_bias(c_out, bias)?;
        for t in inputs {
            if t.shape() != first.shape() {
                return Err(TensorError::ShapeMismatch {
                    left: first.dims().to_vec(),
                    right: t.dims().to_vec(),
                });
            }
        }
        Ok(Some(BatchGeometry {
            c_in,
            h,
            w,
            c_out,
            kh,
            kw,
            oh: valid_out_size(h, kh)?,
            ow: valid_out_size(w, kw)?,
        }))
    }

    /// Output cells per map.
    fn cols_per(&self) -> usize {
        self.oh * self.ow
    }

    /// Whether the per-image direct kernel runs this batch: the
    /// [`GemmKernel::Simd`] arm, on a host with AVX2, over maps at least
    /// one vector wide. A pure function of kernel, host and geometry, so
    /// it is asked once per batch; everything else lowers the whole batch
    /// ([`Self::lower_and_multiply`]).
    fn direct_applies(&self, kernel: GemmKernel) -> bool {
        kernel == GemmKernel::Simd && GemmKernel::simd_available() && self.ow >= gemm::DIRECT_MIN_OW
    }

    /// The per-image conv kernel of the [`GemmKernel::Simd`] arm: convolves
    /// `input` straight from its feature maps into every cell of `raw`
    /// (`[C_out, oH, oW]`) — no patch matrix. Call only when
    /// [`Self::direct_applies`]. Bit-identical to the lowered path (bias
    /// first, then taps in im2col patch-row order; see [`crate::gemm`]).
    fn direct(&self, input: &Tensor, kernels: &Tensor, bias: &[f32], raw: &mut [f32]) {
        gemm::conv2d_direct_simd(
            input.data(),
            self.c_in,
            self.h,
            self.w,
            kernels.data(),
            self.c_out,
            self.kh,
            self.kw,
            bias,
            raw,
            self.oh,
            self.ow,
        )
    }

    /// Lowers the whole batch into `scratch.patches` and runs one GEMM
    /// into `scratch.out` (`[C_out, N·oH·oW]`: image `i`'s map `m` starts
    /// at `m·N·oH·oW + i·oH·oW`). Accumulators are bias-seeded and `p`
    /// ascends per element — the exact addition sequence of the direct
    /// convolution, whichever microkernel runs it.
    fn lower_and_multiply(
        &self,
        inputs: &[Tensor],
        kernels: &Tensor,
        bias: &[f32],
        scratch: &mut ConvScratch,
        kernel: GemmKernel,
    ) -> Result<()> {
        let rows = self.c_in * self.kh * self.kw;
        let total_cols = inputs.len() * self.cols_per();
        // every cell is overwritten below (patches by the per-image
        // lowering, out by the bias fill), so stale contents from a
        // previous batch/geometry never need re-zeroing
        scratch.patches.resize(rows * total_cols, 0.0);
        for (i, input) in inputs.iter().enumerate() {
            im2col_into(
                input,
                self.kh,
                self.kw,
                &mut scratch.patches,
                total_cols,
                i * self.cols_per(),
            )?;
        }
        scratch.out.resize(self.c_out * total_cols, 0.0);
        gemm::gemm_nn(
            kernel,
            self.c_out,
            rows,
            total_cols,
            kernels.data(),
            &scratch.patches,
            bias,
            &mut scratch.out,
        );
        Ok(())
    }
}

/// Valid cross-correlation of a whole batch through one shared im2col
/// lowering and one GEMM over preallocated scratch, evaluated by
/// `kernel`'s body — except on the [`GemmKernel::Simd`] arm of an
/// AVX2 host with feature maps at least one vector wide (`ow >= 8`), which
/// convolves each image **directly from its feature maps** (fused AVX2
/// kernel, no patch matrix: full 8-lane vectors over the whole output
/// plane, the last of a row overlapping its neighbour when `ow` is not a
/// multiple of 8; see [`crate::gemm`]). Which route runs is decided once
/// per batch, from the kernel, the host and the geometry alone.
///
/// Every input must have the shape of `inputs[0]`. The accumulation order
/// per output element — bias first, then taps in channel-major `(c, ky, kx)`
/// order — is exactly [`crate::conv::conv2d_valid`]'s **on both arms**
/// (the GEMM bodies repartition the output plane — and the fused SIMD
/// kernel skips the lowering and computes some columns twice — but
/// neither changes an element's addition sequence; see [`crate::gemm`]),
/// so results are **bit-identical** to the per-image direct path.
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
    let Some(g) = BatchGeometry::check(inputs, kernels, bias)? else {
        return Ok(Vec::new());
    };
    let n = inputs.len();
    let cols_per = g.cols_per();
    let dims = [g.c_out, g.oh, g.ow];

    if g.direct_applies(kernel) {
        return inputs
            .iter()
            .map(|input| {
                let mut data = vec![0.0f32; g.c_out * cols_per];
                g.direct(input, kernels, bias, &mut data);
                Tensor::from_vec(data, &dims)
            })
            .collect();
    }

    g.lower_and_multiply(inputs, kernels, bias, scratch, kernel)?;
    let total_cols = n * cols_per;
    (0..n)
        .map(|i| {
            let mut data = Vec::with_capacity(g.c_out * cols_per);
            for m in 0..g.c_out {
                let base = m * total_cols + i * cols_per;
                data.extend_from_slice(&scratch.out[base..base + cols_per]);
            }
            Tensor::from_vec(data, &dims)
        })
        .collect()
}

/// One fused `conv → activation → max-pool(window)` stage over a batch,
/// with the pooling moved **ahead of** the activation: each image is
/// convolved exactly as [`conv2d_valid_batch`] would (same per-image
/// direct kernel on the Simd arm, same lowering + GEMM otherwise), its raw
/// pre-activation maps are max-pooled while still in `scratch`, and
/// `activation` is applied, in place and in one call, to the pooled
/// `[C_out, oH/window, oW/window]` map only — a `window²`-fold cut in
/// activation evaluations, a whole slice for a vectorised activation
/// ([`crate::math::sigmoid_slice`]) to work on, and one output tensor per
/// image.
///
/// The result equals pooling the activated maps **bit for bit** whenever
/// `activation` is elementwise — cell `i` of the slice depends on cell `i`
/// alone, whatever the slice's length — and, as a function of one cell,
/// commutes with [`crate::pool`]'s scan: non-decreasing over
/// the ordered non-NaN `f32`s, NaN in ⇒ NaN out, numerically equal
/// outputs of distinct inputs identical in bits, and equal outputs for
/// `-0.0` and `+0.0` (then the raw scan and the activated scan pick the
/// same element, or elements whose activations are the same bits).
/// Choosing such an activation is the caller's obligation; `cdl-nn` keeps
/// the list and the exhaustive test behind it.
///
/// # Errors
///
/// Same conditions as [`conv2d_valid_batch`], plus
/// [`TensorError::InvalidGeometry`] when `window` is zero or does not tile
/// the convolution's output maps.
pub fn conv2d_pool_batch(
    inputs: &[Tensor],
    kernels: &Tensor,
    bias: &[f32],
    window: usize,
    activation: impl Fn(&mut [f32]),
    scratch: &mut ConvScratch,
    kernel: GemmKernel,
) -> Result<Vec<Tensor>> {
    let Some(g) = BatchGeometry::check(inputs, kernels, bias)? else {
        return Ok(Vec::new());
    };
    if window == 0 || !g.oh.is_multiple_of(window) || !g.ow.is_multiple_of(window) {
        return Err(TensorError::InvalidGeometry(format!(
            "pooling window {window} does not tile conv output {}x{}",
            g.oh, g.ow
        )));
    }
    let n = inputs.len();
    let cols_per = g.cols_per();
    let dims = [g.c_out, g.oh / window, g.ow / window];
    let pooled = |raw: &[f32], plane_stride: usize| {
        let mut data = vec![0.0f32; dims.iter().product()];
        pool::maxpool2d_into(raw, (g.c_out, g.oh, g.ow), plane_stride, window, &mut data);
        activation(&mut data);
        Tensor::from_vec(data, &dims)
    };

    if g.direct_applies(kernel) {
        scratch.out.resize(g.c_out * cols_per, 0.0);
        return inputs
            .iter()
            .map(|input| {
                g.direct(input, kernels, bias, &mut scratch.out);
                pooled(&scratch.out, cols_per)
            })
            .collect();
    }

    g.lower_and_multiply(inputs, kernels, bias, scratch, kernel)?;
    (0..n)
        .map(|i| pooled(&scratch.out[i * cols_per..], n * cols_per))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_valid;
    use crate::math;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    #[test]
    fn im2col_known_layout() {
        // 1 channel 3x3, 2x2 kernel -> 4 rows x 4 cols
        let x = t((0..9).map(|v| v as f32).collect(), &[1, 3, 3]);
        let p = im2col(&x, 2, 2).unwrap();
        assert_eq!(p.dims(), &[4, 4]);
        // column 0 = receptive field of output (0,0): pixels 0,1,3,4
        let col = |j: usize| -> Vec<f32> { (0..4).map(|r| p.get(&[r, j]).unwrap()).collect() };
        assert_eq!(col(0), vec![0.0, 1.0, 3.0, 4.0]);
        // column 3 = output (1,1): pixels 4,5,7,8
        assert_eq!(col(3), vec![4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn validates_operands() {
        let x = Tensor::ones(&[2, 4, 4]);
        assert!(im2col(&Tensor::ones(&[4, 4]), 2, 2).is_err()); // rank
        assert!(im2col(&x, 5, 5).is_err()); // kernel too big
    }

    #[test]
    fn batch_is_bit_identical_to_direct() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for (n, c_in, c_out, k, size) in [
            // 2C's C1, ow = 24: direct Simd path, 3 aligned vectors a row,
            // 72 positions in 2×3 tiles, OC blocks 3+3
            (1usize, 1usize, 6usize, 5usize, 28usize),
            // 2C's C2, ow = 8: one vector a row, every pair straddles a row
            // end, OC 3+3+3+3
            (4, 6, 12, 5, 12),
            // ow = 5: narrow geometry — Simd lowers the batch instead
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
                    // bit-identical, not just close: the batched GEMM
                    // replays the direct path's exact addition sequence,
                    // whichever microkernel ran it
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

    #[test]
    fn pool_batch_matches_activate_then_pool() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for (n, c_in, c_out, k, size, window) in [
            // 2C's C1/P1 and C2/P2: the direct kernel on the Simd arm
            (3usize, 1usize, 6usize, 5usize, 28usize, 2usize),
            (2, 6, 12, 5, 12, 2),
            // ow = 6: narrow maps, every arm lowers the batch
            (4, 2, 3, 3, 8, 3),
            // a batch of one, and the identity window
            (1, 3, 4, 3, 5, 1),
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
                let fused = conv2d_pool_batch(
                    &inputs,
                    &kernels,
                    &bias,
                    window,
                    math::sigmoid_slice,
                    &mut scratch,
                    gemm_kernel,
                )
                .unwrap();
                for (x, f) in inputs.iter().zip(&fused) {
                    let activated = conv2d_valid(x, &kernels, &bias).unwrap().map(math::sigmoid);
                    let unfused = pool::maxpool2d_forward(&activated, window).unwrap();
                    assert_eq!(unfused.dims(), f.dims());
                    for (u, v) in unfused.data().iter().zip(f.data()) {
                        assert_eq!(u.to_bits(), v.to_bits(), "kernel {gemm_kernel:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn pool_batch_validates_window() {
        let mut scratch = ConvScratch::default();
        let k = Tensor::ones(&[1, 1, 2, 2]);
        let xs = vec![Tensor::ones(&[1, 4, 4])]; // 3x3 output maps
        for window in [0usize, 2] {
            assert!(conv2d_pool_batch(
                &xs,
                &k,
                &[0.0],
                window,
                |_| (),
                &mut scratch,
                GemmKernel::default()
            )
            .is_err());
        }
        let ok = conv2d_pool_batch(
            &xs,
            &k,
            &[0.0],
            3,
            |_| (),
            &mut scratch,
            GemmKernel::default(),
        )
        .unwrap();
        assert_eq!(ok[0].dims(), &[1, 1, 1]);
        assert!(conv2d_pool_batch(
            &[],
            &k,
            &[0.0],
            2,
            |_| (),
            &mut scratch,
            GemmKernel::default()
        )
        .unwrap()
        .is_empty());
    }

    #[test]
    fn im2col_into_validates_buffer() {
        let x = Tensor::ones(&[1, 3, 3]);
        let mut buf = vec![0.0f32; 4 * 4];
        // block does not fit at offset 1 of a 4-column matrix
        assert!(im2col_into(&x, 2, 2, &mut buf, 4, 1).is_err());
        // wrong buffer size
        let mut small = vec![0.0f32; 7];
        assert!(im2col_into(&x, 2, 2, &mut small, 4, 0).is_err());
        // valid at offset 0 matches im2col
        assert!(im2col_into(&x, 2, 2, &mut buf, 4, 0).is_ok());
        assert_eq!(buf, im2col(&x, 2, 2).unwrap().into_vec());
    }
}
