//! Max- and mean-pooling over `[C, H, W]` tensors, with the bookkeeping
//! needed to backpropagate through them.
//!
//! The paper's DLN baselines use non-overlapping pooling (window == stride),
//! which is what these helpers implement. A window of 1 is the identity and
//! is used to model the paper's size-preserving `P3` stage (Table II).

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

/// Result of a pooling forward pass.
///
/// `argmax` is only populated for max pooling; it stores, for every output
/// cell, the flat input offset of the winning element so the backward pass
/// can route gradients.
#[derive(Debug, Clone)]
pub struct PoolOutput {
    /// Pooled activations, `[C, H/k, W/k]`.
    pub output: Tensor,
    /// For max pooling: flat input offset of each output cell's maximum.
    pub argmax: Option<Vec<usize>>,
}

fn check_pool(input: &Tensor, window: usize) -> Result<(usize, usize, usize, usize, usize)> {
    if input.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.rank(),
        });
    }
    if window == 0 {
        return Err(TensorError::InvalidGeometry(
            "zero-sized pooling window".into(),
        ));
    }
    let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    if h % window != 0 || w % window != 0 {
        return Err(TensorError::InvalidGeometry(format!(
            "pooling window {window} does not tile input {h}x{w}"
        )));
    }
    Ok((c, h, w, h / window, w / window))
}

/// The max-pool scan every variant shares: writes each window's maximum to
/// `out` (`[C, oH, oW]`) and hands `found(cell, offset into x)` the place
/// it came from, so the argmax variant can record it and the values-only
/// variant pays nothing. A window is read row-major starting from its
/// first element, and a later element replaces the running best only when
/// it is **strictly greater** — so ties (including `-0.0` against `+0.0`)
/// keep the earlier element, a NaN in the first position wins the window
/// and a NaN anywhere else is skipped. Plane `ch` starts at
/// `x[ch * plane_stride]`, which lets callers pool one image's maps
/// straight out of a wider matrix.
///
/// `W` is the window when it is known at compile time (the loops over it
/// unroll) and 0 when `window` is to be used as given; [`maxpool_scan`]
/// picks.
#[inline(always)]
fn maxpool_scan_w<const W: usize>(
    x: &[f32],
    (c, h, w): (usize, usize, usize),
    plane_stride: usize,
    window: usize,
    out: &mut [f32],
    mut found: impl FnMut(usize, usize),
) {
    let window = if W == 0 { window } else { W };
    let (oh, ow) = (h / window, w / window);
    for ch in 0..c {
        for oy in 0..oh {
            let cell0 = (ch * oh + oy) * ow;
            let row0 = ch * plane_stride + oy * window * w;
            // the `window` input rows under this output row
            let rows = &x[row0..row0 + window * w];
            for (ox, cell) in out[cell0..cell0 + ow].iter_mut().enumerate() {
                let mut best_off = ox * window;
                let mut best = rows[best_off];
                for wy in 0..window {
                    for wx in 0..window {
                        let off = wy * w + ox * window + wx;
                        if rows[off] > best {
                            best = rows[off];
                            best_off = off;
                        }
                    }
                }
                *cell = best;
                found(cell0 + ox, row0 + best_off);
            }
        }
    }
}

/// [`maxpool_scan_w`], compiled for its size when the window is the
/// paper's 2×2.
#[inline(always)]
fn maxpool_scan(
    x: &[f32],
    dims: (usize, usize, usize),
    plane_stride: usize,
    window: usize,
    out: &mut [f32],
    found: impl FnMut(usize, usize),
) {
    match window {
        2 => maxpool_scan_w::<2>(x, dims, plane_stride, window, out, found),
        _ => maxpool_scan_w::<0>(x, dims, plane_stride, window, out, found),
    }
}

/// Non-overlapping max pooling with the argmax bookkeeping the backward
/// pass needs; inference uses [`maxpool2d_forward`].
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] when the window does not evenly
/// tile the input, and [`TensorError::RankMismatch`] for non-rank-3 inputs.
pub fn maxpool2d(input: &Tensor, window: usize) -> Result<PoolOutput> {
    let (c, h, w, oh, ow) = check_pool(input, window)?;
    let mut out = vec![0.0f32; c * oh * ow];
    let mut arg = vec![0usize; c * oh * ow];
    maxpool_scan(
        input.data(),
        (c, h, w),
        h * w,
        window,
        &mut out,
        |cell, off| arg[cell] = off,
    );
    Ok(PoolOutput {
        output: Tensor::from_vec(out, &[c, oh, ow])?,
        argmax: Some(arg),
    })
}

/// Non-overlapping max pooling, values only: [`maxpool2d`]'s output without
/// the argmax vector (same scan, so the same values bit for bit).
///
/// # Errors
///
/// Same conditions as [`maxpool2d`].
pub fn maxpool2d_forward(input: &Tensor, window: usize) -> Result<Tensor> {
    let (c, h, w, oh, ow) = check_pool(input, window)?;
    let mut out = vec![0.0f32; c * oh * ow];
    maxpool2d_into(input.data(), (c, h, w), h * w, window, &mut out);
    Tensor::from_vec(out, &[c, oh, ow])
}

/// Values-only max pooling of `c` raw `h`×`w` planes into `out`
/// (`[c, h/window, w/window]`, row-major). Plane `ch` starts at
/// `x[ch * plane_stride]`; `plane_stride == h * w` is a contiguous
/// `[c, h, w]` buffer.
///
/// # Panics
///
/// Panics when `window` is zero or does not tile `h`×`w`, when `out` is
/// not `c * (h/window) * (w/window)` long, or when `x` is too short for
/// the last plane (callers validate geometry first).
pub(crate) fn maxpool2d_into(
    x: &[f32],
    (c, h, w): (usize, usize, usize),
    plane_stride: usize,
    window: usize,
    out: &mut [f32],
) {
    assert!(
        window > 0 && h.is_multiple_of(window) && w.is_multiple_of(window),
        "maxpool2d_into: window {window} does not tile {h}x{w}"
    );
    assert_eq!(
        out.len(),
        c * (h / window) * (w / window),
        "maxpool2d_into: out must be [c, h/window, w/window]"
    );
    maxpool_scan(x, (c, h, w), plane_stride, window, out, |_, _| {});
}

/// Non-overlapping mean pooling.
///
/// # Errors
///
/// Same geometry conditions as [`maxpool2d`].
pub fn meanpool2d(input: &Tensor, window: usize) -> Result<PoolOutput> {
    let (c, h, w, oh, ow) = check_pool(input, window)?;
    let x = input.data();
    let mut out = vec![0.0f32; c * oh * ow];
    let in_plane = h * w;
    let norm = 1.0 / (window * window) as f32;

    for ch in 0..c {
        let xbase = ch * in_plane;
        let obase = ch * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for wy in 0..window {
                    let row = xbase + (oy * window + wy) * w + ox * window;
                    for wx in 0..window {
                        acc += x[row + wx];
                    }
                }
                out[obase + oy * ow + ox] = acc * norm;
            }
        }
    }
    Ok(PoolOutput {
        output: Tensor::from_vec(out, &[c, oh, ow])?,
        argmax: None,
    })
}

/// Backward pass for max pooling: routes each upstream gradient cell to the
/// input offset recorded in `argmax`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `grad_out` does not have one
/// gradient per argmax entry.
pub fn maxpool2d_backward(
    input_shape: &[usize],
    argmax: &[usize],
    grad_out: &Tensor,
) -> Result<Tensor> {
    if grad_out.len() != argmax.len() {
        return Err(TensorError::ShapeMismatch {
            left: vec![grad_out.len()],
            right: vec![argmax.len()],
        });
    }
    let mut gx = Tensor::zeros(input_shape);
    let data = gx.data_mut();
    for (&off, &g) in argmax.iter().zip(grad_out.data()) {
        if off >= data.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![off],
                shape: input_shape.to_vec(),
            });
        }
        data[off] += g;
    }
    Ok(gx)
}

/// Backward pass for mean pooling: spreads each upstream gradient uniformly
/// over its window.
///
/// # Errors
///
/// Returns geometry errors when `grad_out` is inconsistent with
/// `input_shape`/`window`.
pub fn meanpool2d_backward(
    input_shape: &[usize],
    window: usize,
    grad_out: &Tensor,
) -> Result<Tensor> {
    if input_shape.len() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input_shape.len(),
        });
    }
    if window == 0 {
        return Err(TensorError::InvalidGeometry(
            "zero-sized pooling window".into(),
        ));
    }
    let (c, h, w) = (input_shape[0], input_shape[1], input_shape[2]);
    if h % window != 0 || w % window != 0 {
        return Err(TensorError::InvalidGeometry(format!(
            "pooling window {window} does not tile input {h}x{w}"
        )));
    }
    let (oh, ow) = (h / window, w / window);
    if grad_out.dims() != [c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: grad_out.dims().to_vec(),
            right: vec![c, oh, ow],
        });
    }
    let norm = 1.0 / (window * window) as f32;
    let g = grad_out.data();
    let mut gx = vec![0.0f32; c * h * w];
    let in_plane = h * w;

    for ch in 0..c {
        let xbase = ch * in_plane;
        let obase = ch * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                let gv = g[obase + oy * ow + ox] * norm;
                for wy in 0..window {
                    let row = xbase + (oy * window + wy) * w + ox * window;
                    for wx in 0..window {
                        gx[row + wx] += gv;
                    }
                }
            }
        }
    }
    Tensor::from_vec(gx, input_shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    #[test]
    fn maxpool_basic() {
        let x = t(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, 0.0, 0.5, 0.25, //
                -2.0, -3.0, 0.75, 0.1,
            ],
            &[1, 4, 4],
        );
        let p = maxpool2d(&x, 2).unwrap();
        assert_eq!(p.output.dims(), &[1, 2, 2]);
        assert_eq!(p.output.data(), &[4.0, 8.0, 0.0, 0.75]);
        let arg = p.argmax.unwrap();
        assert_eq!(arg, vec![5, 7, 9, 14]);
    }

    #[test]
    fn forward_is_maxpool_without_argmax() {
        let x = t(
            (0..2 * 6 * 6)
                .map(|v| ((v * 37) % 23) as f32 - 11.0)
                .collect(),
            &[2, 6, 6],
        );
        for window in [1usize, 2, 3, 6] {
            let with_arg = maxpool2d(&x, window).unwrap();
            assert_eq!(maxpool2d_forward(&x, window).unwrap(), with_arg.output);
            // every cell is the largest value of its window, found where
            // the argmax says (the compiled-in and the run-time windows)
            let o = 6 / window;
            for (cell, (&v, &off)) in with_arg
                .output
                .data()
                .iter()
                .zip(with_arg.argmax.as_ref().unwrap())
                .enumerate()
            {
                let (ch, oy, ox) = (cell / (o * o), cell / o % o, cell % o);
                let naive = (0..window * window)
                    .map(|i| {
                        x.data()
                            [ch * 36 + (oy * window + i / window) * 6 + ox * window + i % window]
                    })
                    .fold(f32::MIN, f32::max);
                assert_eq!(v, naive, "window {window}, cell {cell}");
                assert_eq!(x.data()[off], v);
            }
        }
        assert!(maxpool2d_forward(&x, 4).is_err());
        assert!(maxpool2d_forward(&Tensor::zeros(&[4, 4]), 2).is_err());
    }

    #[test]
    fn scan_keeps_the_first_of_ties_and_a_leading_nan() {
        let pooled = |v: Vec<f32>| maxpool2d_forward(&t(v, &[1, 2, 2]), 2).unwrap().data()[0];
        // -0.0 == +0.0, so whichever comes first stays
        assert_eq!(
            pooled(vec![-0.0, 0.0, -1.0, -2.0]).to_bits(),
            (-0.0f32).to_bits()
        );
        assert_eq!(
            pooled(vec![0.0, -0.0, -1.0, -2.0]).to_bits(),
            0.0f32.to_bits()
        );
        // nothing compares greater than a NaN in first position …
        assert!(pooled(vec![f32::NAN, 5.0, 1.0, 2.0]).is_nan());
        // … and a NaN anywhere else never compares greater
        assert_eq!(pooled(vec![1.0, f32::NAN, 5.0, f32::NAN]), 5.0);
        assert_eq!(
            pooled(vec![1.0, f32::INFINITY, 5.0, f32::NEG_INFINITY]),
            f32::INFINITY
        );
    }

    #[test]
    fn into_pools_planes_out_of_a_wider_matrix() {
        // two 2x2 planes of one image embedded in rows of 10 columns,
        // starting at column 3 — the GEMM output layout of a batch
        let mut wide = [-9.0f32; 2 * 10];
        wide[3..7].copy_from_slice(&[1.0, 4.0, 2.0, 3.0]);
        wide[13..17].copy_from_slice(&[-1.0, -4.0, -2.0, -3.0]);
        let mut out = [0.0f32; 2];
        maxpool2d_into(&wide[3..], (2, 2, 2), 10, 2, &mut out);
        assert_eq!(out, [4.0, -1.0]);
    }

    #[test]
    fn meanpool_basic() {
        let x = t(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        let p = meanpool2d(&x, 2).unwrap();
        assert_eq!(p.output.data(), &[2.5]);
        assert!(p.argmax.is_none());
    }

    #[test]
    fn window_one_is_identity() {
        let x = t((0..8).map(|v| v as f32).collect(), &[2, 2, 2]);
        let pm = maxpool2d(&x, 1).unwrap();
        assert_eq!(pm.output, x);
        let pa = meanpool2d(&x, 1).unwrap();
        assert_eq!(pa.output, x);
    }

    #[test]
    fn rejects_non_tiling_window() {
        let x = Tensor::zeros(&[1, 3, 3]);
        assert!(maxpool2d(&x, 2).is_err());
        assert!(meanpool2d(&x, 2).is_err());
        assert!(maxpool2d(&x, 0).is_err());
    }

    #[test]
    fn rejects_bad_rank() {
        let x = Tensor::zeros(&[4, 4]);
        assert!(maxpool2d(&x, 2).is_err());
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = t(
            vec![
                1.0, 2.0, //
                3.0, 4.0,
            ],
            &[1, 2, 2],
        );
        let p = maxpool2d(&x, 2).unwrap();
        let g = t(vec![10.0], &[1, 1, 1]);
        let gx = maxpool2d_backward(x.dims(), p.argmax.as_ref().unwrap(), &g).unwrap();
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn meanpool_backward_spreads_uniformly() {
        let g = t(vec![8.0], &[1, 1, 1]);
        let gx = meanpool2d_backward(&[1, 2, 2], 2, &g).unwrap();
        assert_eq!(gx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    /// Finite-difference check of mean-pool backward.
    #[test]
    fn meanpool_gradient_matches_finite_difference() {
        let mut x = t((0..16).map(|v| v as f32 * 0.1).collect(), &[1, 4, 4]);
        let g_out = Tensor::ones(&[1, 2, 2]);
        let gx = meanpool2d_backward(x.dims(), 2, &g_out).unwrap();
        let eps = 1e-3;
        for i in 0..x.len() {
            let orig = x.data()[i];
            x.data_mut()[i] = orig + eps;
            let lp = meanpool2d(&x, 2).unwrap().output.sum();
            x.data_mut()[i] = orig - eps;
            let lm = meanpool2d(&x, 2).unwrap().output.sum();
            x.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_validates_lengths() {
        let g = Tensor::ones(&[1, 2, 2]);
        assert!(maxpool2d_backward(&[1, 4, 4], &[0, 1, 2], &g).is_err());
        assert!(meanpool2d_backward(&[1, 4, 4], 3, &g).is_err());
        assert!(meanpool2d_backward(&[1, 4, 4], 2, &Tensor::ones(&[1, 3, 3])).is_err());
    }
}
