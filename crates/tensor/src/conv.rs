//! *Valid* 2-D multi-channel convolution (cross-correlation) and its
//! gradients.
//!
//! Conventions match the CNN literature as used by the paper's DLN baselines:
//!
//! * inputs are `[C_in, H, W]`,
//! * kernel banks are `[C_out, C_in, kH, kW]`,
//! * "convolution" here means **cross-correlation** (no kernel flip), which is
//!   what every deep-learning framework computes in the forward pass,
//! * only *valid* padding is supported — LeNet-style nets (Tables I & II of
//!   the paper) use shrinking feature maps and no zero padding.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

/// Output spatial size of a valid convolution/pooling: `in - k + 1`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] when the kernel exceeds the input
/// or is zero-sized.
pub fn valid_out_size(input: usize, kernel: usize) -> Result<usize> {
    if kernel == 0 {
        return Err(TensorError::InvalidGeometry("zero-sized kernel".into()));
    }
    if kernel > input {
        return Err(TensorError::InvalidGeometry(format!(
            "kernel {kernel} larger than input {input}"
        )));
    }
    Ok(input - kernel + 1)
}

pub(crate) fn check_conv_operands(
    input_dims: &[usize],
    kernels: &Tensor,
) -> Result<(usize, usize, usize, usize, usize, usize)> {
    if input_dims.len() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input_dims.len(),
        });
    }
    if kernels.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: kernels.rank(),
        });
    }
    let (c_in, h, w) = (input_dims[0], input_dims[1], input_dims[2]);
    let (c_out, kc, kh, kw) = (
        kernels.dims()[0],
        kernels.dims()[1],
        kernels.dims()[2],
        kernels.dims()[3],
    );
    if kc != c_in {
        return Err(TensorError::InvalidGeometry(format!(
            "kernel expects {kc} input channels, input has {c_in}"
        )));
    }
    Ok((c_in, h, w, c_out, kh, kw))
}

pub(crate) fn check_conv_bias(c_out: usize, bias: &[f32]) -> Result<()> {
    if bias.len() != c_out {
        return Err(TensorError::InvalidGeometry(format!(
            "bias has {} entries for {c_out} output maps",
            bias.len()
        )));
    }
    Ok(())
}

/// Forward valid cross-correlation.
///
/// `input` is `[C_in, H, W]`, `kernels` is `[C_out, C_in, kH, kW]`, `bias`
/// has one entry per output map. Returns `[C_out, H-kH+1, W-kW+1]`.
///
/// This is the **specification** every convolution kernel of the workspace
/// is held to, bit for bit: each output element is one chain, seeded with
/// its map's bias, that adds `x * k` — a rounded product, then a rounded
/// sum, never fused — once per tap in `(c, ky, kx)` ascending order. It
/// runs one output row at a time, in spans of 8 adjacent outputs (then at
/// most one span each of 4, 2 and 1): a span walks the taps once and
/// advances its outputs' chains side by side, so the chains' adds overlap
/// instead of waiting on each other. The spans only choose which chains
/// run together; no element's operations or their order change.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or [`TensorError::InvalidGeometry`]
/// for malformed operands, including a bias length that differs from
/// `C_out`.
pub fn conv2d_valid(input: &Tensor, kernels: &Tensor, bias: &[f32]) -> Result<Tensor> {
    let (c_in, h, w, c_out, kh, kw) = check_conv_operands(input.dims(), kernels)?;
    check_conv_bias(c_out, bias)?;
    let oh = valid_out_size(h, kh)?;
    let ow = valid_out_size(w, kw)?;

    let mut out = vec![0.0f32; c_out * oh * ow];
    let k_filter = c_in * kh * kw;
    for (m, (plane, &b)) in out.chunks_exact_mut(oh * ow).zip(bias).enumerate() {
        let map = OutputMap {
            x: input.data(),
            in_plane: h * w,
            w,
            taps: &kernels.data()[m * k_filter..][..k_filter],
            k_plane: kh * kw,
            kw,
            bias: b,
        };
        for (oy, row) in plane.chunks_exact_mut(ow).enumerate() {
            let mut ox = 0;
            while ow - ox >= 8 {
                map.span::<8>(oy, ox, row);
                ox += 8;
            }
            if ow - ox >= 4 {
                map.span::<4>(oy, ox, row);
                ox += 4;
            }
            if ow - ox >= 2 {
                map.span::<2>(oy, ox, row);
                ox += 2;
            }
            if ow - ox >= 1 {
                map.span::<1>(oy, ox, row);
            }
        }
    }
    Tensor::from_vec(out, &[c_out, oh, ow])
}

/// One output map of [`conv2d_valid`]: the input planes, the map's filter
/// (`[C_in, kH, kW]`, flat) and its bias.
struct OutputMap<'a> {
    x: &'a [f32],
    in_plane: usize,
    w: usize,
    taps: &'a [f32],
    k_plane: usize,
    kw: usize,
    bias: f32,
}

impl OutputMap<'_> {
    /// Writes the `N` outputs `row[ox..ox + N]` of output row `oy`: `N`
    /// chains seeded with the bias, each adding its `x * k` per tap in
    /// `(c, ky, kx)` order, all `N` one tap at a time.
    fn span<const N: usize>(&self, oy: usize, ox: usize, row: &mut [f32]) {
        let mut acc = [self.bias; N];
        for (c, filter) in self.taps.chunks_exact(self.k_plane).enumerate() {
            for (ky, krow) in filter.chunks_exact(self.kw).enumerate() {
                let xrow =
                    &self.x[c * self.in_plane + (oy + ky) * self.w + ox..][..self.kw - 1 + N];
                for (kx, &k) in krow.iter().enumerate() {
                    let xs: [f32; N] = xrow[kx..kx + N].try_into().expect("span is N wide");
                    for (a, x) in acc.iter_mut().zip(xs) {
                        *a += x * k;
                    }
                }
            }
        }
        row[ox..ox + N].copy_from_slice(&acc);
    }
}

/// Gradient of the loss w.r.t. the kernel bank and bias, given the upstream
/// gradient `grad_out` of shape `[C_out, oH, oW]`.
///
/// Returns `(grad_kernels [C_out, C_in, kH, kW], grad_bias [C_out])`.
///
/// # Errors
///
/// Propagates shape/geometry errors from the operand checks.
pub fn conv2d_grad_kernels(
    input: &Tensor,
    kernels_shape: &[usize],
    grad_out: &Tensor,
) -> Result<(Tensor, Vec<f32>)> {
    if input.rank() != 3 || grad_out.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: if input.rank() != 3 {
                input.rank()
            } else {
                grad_out.rank()
            },
        });
    }
    if kernels_shape.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: kernels_shape.len(),
        });
    }
    let (c_in, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let (c_out, kc, kh, kw) = (
        kernels_shape[0],
        kernels_shape[1],
        kernels_shape[2],
        kernels_shape[3],
    );
    if kc != c_in {
        return Err(TensorError::InvalidGeometry(format!(
            "kernel expects {kc} input channels, input has {c_in}"
        )));
    }
    let oh = valid_out_size(h, kh)?;
    let ow = valid_out_size(w, kw)?;
    if grad_out.dims() != [c_out, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: grad_out.dims().to_vec(),
            right: vec![c_out, oh, ow],
        });
    }

    let x = input.data();
    let g = grad_out.data();
    let mut gk = vec![0.0f32; c_out * c_in * kh * kw];
    let mut gb = vec![0.0f32; c_out];

    let in_plane = h * w;
    let out_plane = oh * ow;
    let k_plane = kh * kw;
    let k_filter = c_in * k_plane;

    for (m, gbm) in gb.iter_mut().enumerate() {
        let obase = m * out_plane;
        // bias gradient: sum of upstream gradient over the output map
        *gbm = g[obase..obase + out_plane].iter().sum();
        for c in 0..c_in {
            let xbase = c * in_plane;
            let kbase = m * k_filter + c * k_plane;
            for ky in 0..kh {
                for kx in 0..kw {
                    let mut acc = 0.0f32;
                    for oy in 0..oh {
                        let xrow = xbase + (oy + ky) * w + kx;
                        let grow = obase + oy * ow;
                        for ox in 0..ow {
                            acc += x[xrow + ox] * g[grow + ox];
                        }
                    }
                    gk[kbase + ky * kw + kx] = acc;
                }
            }
        }
    }
    Ok((Tensor::from_vec(gk, kernels_shape)?, gb))
}

/// Gradient of the loss w.r.t. the layer *input* — a "full" correlation of
/// the upstream gradient with the 180°-rotated kernels.
///
/// `grad_out` is `[C_out, oH, oW]`; returns `[C_in, H, W]` matching
/// `input_shape`.
///
/// # Errors
///
/// Propagates shape/geometry errors from the operand checks.
pub fn conv2d_grad_input(
    input_shape: &[usize],
    kernels: &Tensor,
    grad_out: &Tensor,
) -> Result<Tensor> {
    if input_shape.len() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input_shape.len(),
        });
    }
    if kernels.rank() != 4 || grad_out.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: kernels.rank(),
        });
    }
    let (c_in, h, w) = (input_shape[0], input_shape[1], input_shape[2]);
    let (c_out, kc, kh, kw) = (
        kernels.dims()[0],
        kernels.dims()[1],
        kernels.dims()[2],
        kernels.dims()[3],
    );
    if kc != c_in {
        return Err(TensorError::InvalidGeometry(format!(
            "kernel expects {kc} input channels, input shape has {c_in}"
        )));
    }
    let oh = valid_out_size(h, kh)?;
    let ow = valid_out_size(w, kw)?;
    if grad_out.dims() != [c_out, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: grad_out.dims().to_vec(),
            right: vec![c_out, oh, ow],
        });
    }

    let k = kernels.data();
    let g = grad_out.data();
    let mut gx = vec![0.0f32; c_in * h * w];

    let in_plane = h * w;
    let out_plane = oh * ow;
    let k_plane = kh * kw;
    let k_filter = c_in * k_plane;

    // dL/dx[c, y, x] = Σ_m Σ_ky Σ_kx  g[m, y-ky, x-kx] * k[m, c, ky, kx]
    // Iterate the forward pattern instead: scatter each g into gx.
    for m in 0..c_out {
        let obase = m * out_plane;
        for oy in 0..oh {
            for ox in 0..ow {
                let gv = g[obase + oy * ow + ox];
                if gv == 0.0 {
                    continue;
                }
                for c in 0..c_in {
                    let xbase = c * in_plane;
                    let kbase = m * k_filter + c * k_plane;
                    for ky in 0..kh {
                        let xrow = xbase + (oy + ky) * w + ox;
                        let krow = kbase + ky * kw;
                        for kx in 0..kw {
                            gx[xrow + kx] += gv * k[krow + kx];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(gx, input_shape)
}

/// Number of multiply-accumulate operations performed by
/// [`conv2d_valid`] for the given geometry.
///
/// This is the count that the paper's "OPS" efficiency metric is built on.
pub fn conv2d_macs(c_in: usize, h: usize, w: usize, c_out: usize, kh: usize, kw: usize) -> u64 {
    let oh = h.saturating_sub(kh) + 1;
    let ow = w.saturating_sub(kw) + 1;
    (c_out * oh * ow) as u64 * (c_in * kh * kw) as u64
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The specification's inputs: at `1 / rate` of the positions (none when
    /// `rate` is 0) a value from the edges of `f32` — NaNs with distinct
    /// payloads, signs and quiet bits, ±0, ±∞, subnormals, magnitudes whose
    /// products and sums overflow — and plain values in `[-2, 2)` elsewhere.
    pub(crate) fn spec_values(rng: &mut StdRng, len: usize, rate: u32) -> Vec<f32> {
        const EDGES: [f32; 16] = [
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc0_2345),
            f32::from_bits(0x7f80_0067),
            f32::from_bits(0xff9a_bcde),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 3.0,
            f32::MAX,
            f32::MIN,
            3.0e38,
            -1.0e19,
            1.0e-30,
            1.0,
        ];
        (0..len)
            .map(|_| {
                if rate > 0 && rng.random_range(0..rate) == 0 {
                    EDGES[rng.random_range(0..EDGES.len())]
                } else {
                    rng.random_range(-2.0..2.0)
                }
            })
            .collect()
    }

    /// The element-at-a-time loop [`conv2d_valid`] ran before its row
    /// form, kept verbatim as the literal statement of each element's
    /// chain.
    fn literal_conv(input: &Tensor, kernels: &Tensor, bias: &[f32]) -> Vec<f32> {
        let (c_in, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
        let (kh, kw) = (kernels.dims()[2], kernels.dims()[3]);
        let (oh, ow) = (h - kh + 1, w - kw + 1);
        let x = input.data();
        let k = kernels.data();
        let mut out = vec![0.0f32; bias.len() * oh * ow];
        let in_plane = h * w;
        let k_plane = kh * kw;
        let k_filter = c_in * k_plane;
        for (m, &b) in bias.iter().enumerate() {
            let kbase = m * k_filter;
            let obase = m * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    for c in 0..c_in {
                        let xbase = c * in_plane;
                        let kcbase = kbase + c * k_plane;
                        for ky in 0..kh {
                            let xrow = xbase + (oy + ky) * w + ox;
                            let krow = kcbase + ky * kw;
                            for kx in 0..kw {
                                acc += x[xrow + kx] * k[krow + kx];
                            }
                        }
                    }
                    out[obase + oy * ow + ox] = acc;
                }
            }
        }
        out
    }

    /// `got` against the literal chain's `want`: the same bits wherever
    /// `want` is a number, a NaN wherever it is a NaN. The payload of a NaN
    /// that arithmetic produces is not the source's to fix — Rust lets
    /// `a * b` and `a + b` return either input NaN's payload, quieted, and
    /// the compiler commutes both operations when it allocates registers —
    /// so on one build the literal loop and the row form return different
    /// payloads for the same NaN operands.
    pub(crate) fn assert_chain_bits(got: &[f32], want: &[f32], what: &dyn Fn(usize) -> String) {
        assert_eq!(got.len(), want.len(), "{}", what(0));
        for (i, (g, e)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == e.to_bits() || (g.is_nan() && e.is_nan()),
                "{}: {g} ({:#010x}) vs {e} ({:#010x})",
                what(i),
                g.to_bits(),
                e.to_bits()
            );
        }
    }

    /// The row form keeps every element's chain: equal to the literal loop
    /// ([`assert_chain_bits`]) over `c_in` 1..=3, `c_out` 1..=4, square
    /// kernels 1..=5 and every `h, w` from the kernel to 14 — every span
    /// width and every mix of spans on a row — on plain values and on edge
    /// values in inputs, kernels and biases.
    #[test]
    fn spec_conv_row_form_is_the_literal_chain() {
        let mut rng = StdRng::seed_from_u64(48);
        let mut checked = 0usize;
        for c_in in 1..=3 {
            for c_out in 1..=4 {
                for k in 1..=5 {
                    for h in k..=14 {
                        for w in k..=14 {
                            for rate in [0, 7] {
                                let x = t(spec_values(&mut rng, c_in * h * w, rate), &[c_in, h, w]);
                                let kernels = t(
                                    spec_values(&mut rng, c_out * c_in * k * k, rate),
                                    &[c_out, c_in, k, k],
                                );
                                let bias = spec_values(&mut rng, c_out, rate);
                                let got = conv2d_valid(&x, &kernels, &bias).unwrap();
                                let want = literal_conv(&x, &kernels, &bias);
                                assert_chain_bits(got.data(), &want, &|i| {
                                    format!(
                                        "c_in {c_in} c_out {c_out} k {k} h {h} w {w} \
                                         rate {rate} element {i}"
                                    )
                                });
                                checked += want.len();
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 1_000_000, "{checked} elements");
    }

    /// The taps are added in `(c, ky, kx)` order, pinned on exact values in
    /// every span width: with the bias 1 and the products `1e8, -1e8, 1, 1`
    /// the chain reads `1e8, 0, 1, 2`, while the reversed order rounds
    /// `3 - 1e8` to `-1e8` and ends at 0.
    #[test]
    fn spec_conv_adds_the_taps_in_order() {
        for ow in 1..=19 {
            let x = Tensor::ones(&[1, 2, ow + 1]);
            let k = t(vec![1.0e8, -1.0e8, 1.0, 1.0], &[1, 1, 2, 2]);
            let y = conv2d_valid(&x, &k, &[1.0]).unwrap();
            assert!(
                y.data().iter().all(|&v| v == 2.0),
                "ow {ow}: {:?}",
                y.data()
            );
        }
    }

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    #[test]
    fn out_size() {
        assert_eq!(valid_out_size(28, 5).unwrap(), 24);
        assert_eq!(valid_out_size(28, 3).unwrap(), 26);
        assert!(valid_out_size(3, 5).is_err());
        assert!(valid_out_size(3, 0).is_err());
    }

    #[test]
    fn single_channel_identity_kernel() {
        let x = t((0..9).map(|v| v as f32).collect(), &[1, 3, 3]);
        let k = t(vec![1.0], &[1, 1, 1, 1]);
        let y = conv2d_valid(&x, &k, &[0.0]).unwrap();
        assert_eq!(y.dims(), &[1, 3, 3]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn bias_is_added() {
        let x = t(vec![0.0; 9], &[1, 3, 3]);
        let k = t(vec![1.0; 4], &[1, 1, 2, 2]);
        let y = conv2d_valid(&x, &k, &[2.5]).unwrap();
        assert!(y.data().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn multi_channel_sums_channels() {
        // two channels of ones, kernel of ones 2x2 over both channels: each
        // output = 2 channels * 4 taps = 8
        let x = Tensor::ones(&[2, 3, 3]);
        let k = Tensor::ones(&[1, 2, 2, 2]);
        let y = conv2d_valid(&x, &k, &[0.0]).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert!(y.data().iter().all(|&v| v == 8.0));
    }

    #[test]
    fn multiple_output_maps_are_independent() {
        let x = t((0..9).map(|v| v as f32).collect(), &[1, 3, 3]);
        // map 0: identity 1x1 at weight 1; map 1: weight 2
        let k = t(vec![1.0, 2.0], &[2, 1, 1, 1]);
        let y = conv2d_valid(&x, &k, &[0.0, 1.0]).unwrap();
        assert_eq!(&y.data()[..9], x.data());
        for (o, i) in y.data()[9..].iter().zip(x.data()) {
            assert_eq!(*o, 2.0 * i + 1.0);
        }
    }

    #[test]
    fn rejects_channel_mismatch_and_bad_bias() {
        let x = Tensor::ones(&[2, 3, 3]);
        let k = Tensor::ones(&[1, 3, 2, 2]);
        assert!(conv2d_valid(&x, &k, &[0.0]).is_err());
        let k = Tensor::ones(&[1, 2, 2, 2]);
        assert!(conv2d_valid(&x, &k, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn rejects_bad_ranks() {
        let x = Tensor::ones(&[3, 3]);
        let k = Tensor::ones(&[1, 1, 2, 2]);
        assert!(conv2d_valid(&x, &k, &[0.0]).is_err());
        let x = Tensor::ones(&[1, 3, 3]);
        let k = Tensor::ones(&[1, 2, 2]);
        assert!(conv2d_valid(&x, &k, &[0.0]).is_err());
    }

    /// Finite-difference check of the kernel gradient.
    #[test]
    fn kernel_gradient_matches_finite_difference() {
        let x = t(
            (0..18).map(|v| (v as f32) * 0.1 - 0.9).collect(),
            &[2, 3, 3],
        );
        let mut k = t(
            (0..16).map(|v| (v as f32) * 0.05 - 0.4).collect(),
            &[2, 2, 2, 2],
        );
        let bias = [0.1f32, -0.2];
        // loss = sum(conv output)
        let y0 = conv2d_valid(&x, &k, &bias).unwrap();
        let grad_out = Tensor::ones(y0.dims());
        let (gk, gb) = conv2d_grad_kernels(&x, k.dims(), &grad_out).unwrap();

        let eps = 1e-3;
        for i in 0..k.len() {
            let orig = k.data()[i];
            k.data_mut()[i] = orig + eps;
            let lp = conv2d_valid(&x, &k, &bias).unwrap().sum();
            k.data_mut()[i] = orig - eps;
            let lm = conv2d_valid(&x, &k, &bias).unwrap().sum();
            k.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gk.data()[i]).abs() < 1e-2,
                "kernel grad {i}: fd={fd} analytic={}",
                gk.data()[i]
            );
        }
        // bias gradient: each output map has 2x2=4 cells, dL/db = 4
        assert_eq!(gb, vec![4.0, 4.0]);
    }

    /// Finite-difference check of the input gradient.
    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut x = t(
            (0..18).map(|v| (v as f32) * 0.07 - 0.5).collect(),
            &[2, 3, 3],
        );
        let k = t(
            (0..16).map(|v| (v as f32) * 0.03 - 0.2).collect(),
            &[2, 2, 2, 2],
        );
        let bias = [0.0f32, 0.0];
        let y0 = conv2d_valid(&x, &k, &bias).unwrap();
        let grad_out = Tensor::ones(y0.dims());
        let gx = conv2d_grad_input(x.dims(), &k, &grad_out).unwrap();

        let eps = 1e-3;
        for i in 0..x.len() {
            let orig = x.data()[i];
            x.data_mut()[i] = orig + eps;
            let lp = conv2d_valid(&x, &k, &bias).unwrap().sum();
            x.data_mut()[i] = orig - eps;
            let lm = conv2d_valid(&x, &k, &bias).unwrap().sum();
            x.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gx.data()[i]).abs() < 1e-2,
                "input grad {i}: fd={fd} analytic={}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn grad_input_shape_checked() {
        let k = Tensor::ones(&[1, 1, 2, 2]);
        let bad_grad = Tensor::ones(&[1, 3, 3]); // should be [1,2,2] for 3x3 input
        assert!(conv2d_grad_input(&[1, 3, 3], &k, &bad_grad).is_err());
    }

    #[test]
    fn macs_matches_paper_layer_c1() {
        // Table I, C1: 28x28 input, 6 maps of 5x5 -> 24x24 out
        // MACs = 6 * 24 * 24 * (1*5*5) = 86_400
        assert_eq!(conv2d_macs(1, 28, 28, 6, 5, 5), 86_400);
    }
}
