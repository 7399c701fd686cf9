//! Elementwise arithmetic, reductions over axes, and dense linear algebra.
//!
//! All binary operations require exactly matching shapes — the networks in
//! this reproduction never need broadcasting, and omitting it removes a whole
//! class of silent-shape bugs.

use crate::error::TensorError;
use crate::gemm::{self, GemmKernel};
use crate::rows::Rows;
use crate::tensor::Tensor;
use crate::Result;

/// Applies `f` pairwise to two same-shaped tensors.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn zip_with(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            left: a.dims().to_vec(),
            right: b.dims().to_vec(),
        });
    }
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Tensor::from_vec(data, a.dims())
}

/// In-place AXPY: `acc += alpha * x`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn axpy(acc: &mut Tensor, alpha: f32, x: &Tensor) -> Result<()> {
    if acc.shape() != x.shape() {
        return Err(TensorError::ShapeMismatch {
            left: acc.dims().to_vec(),
            right: x.dims().to_vec(),
        });
    }
    for (a, &b) in acc.data_mut().iter_mut().zip(x.data()) {
        *a += alpha * b;
    }
    Ok(())
}

/// Matrix–vector product `W x` where `w` is `[rows, cols]` and `x` has `cols`
/// elements (any shape, read flat). Returns a rank-1 tensor of `rows`.
///
/// The **specification** of every affine kernel of the workspace (with the
/// bias added after it): each output is one chain that starts at `0.0` and
/// adds `w * x` — a rounded product, then a rounded sum, never fused — for
/// `p` ascending. Rows run in blocks of 8 (then at most one block each of
/// 4, 2 and 1) whose chains advance side by side over `p`, so their adds
/// overlap instead of waiting on each other; the blocks only choose which
/// chains run together.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `w` is not rank 2 and
/// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
pub fn matvec(w: &Tensor, x: &Tensor) -> Result<Tensor> {
    if w.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: w.rank(),
        });
    }
    let (rows, cols) = (w.dims()[0], w.dims()[1]);
    if x.len() != cols {
        return Err(TensorError::ShapeMismatch {
            left: w.dims().to_vec(),
            right: x.dims().to_vec(),
        });
    }
    let wd = w.data();
    let xd = x.data();
    let mut out = vec![0.0f32; rows];
    let mut r = 0;
    while rows - r >= 8 {
        matvec_block::<8>(wd, xd, r, &mut out);
        r += 8;
    }
    if rows - r >= 4 {
        matvec_block::<4>(wd, xd, r, &mut out);
        r += 4;
    }
    if rows - r >= 2 {
        matvec_block::<2>(wd, xd, r, &mut out);
        r += 2;
    }
    if rows - r >= 1 {
        matvec_block::<1>(wd, xd, r, &mut out);
    }
    Tensor::from_vec(out, &[rows])
}

/// Writes `out[first..first + N]` of [`matvec`]: `N` chains from `0.0`,
/// each adding its row's `w * x` for `p` ascending, all `N` one `p` at a
/// time.
fn matvec_block<const N: usize>(w: &[f32], x: &[f32], first: usize, out: &mut [f32]) {
    let cols = x.len();
    let rows: [&[f32]; N] = std::array::from_fn(|i| &w[(first + i) * cols..][..cols]);
    let mut acc = [0.0f32; N];
    for (p, &xv) in x.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(rows) {
            *a += row[p] * xv;
        }
    }
    out[first..first + N].copy_from_slice(&acc);
}

/// Transposed matrix–vector product `Wᵀ y` where `w` is `[rows, cols]` and
/// `y` has `rows` elements. Returns a rank-1 tensor of `cols`.
///
/// Used to backpropagate gradients through a dense layer without materialising
/// the transpose.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`] on
/// bad operands.
pub fn matvec_t(w: &Tensor, y: &Tensor) -> Result<Tensor> {
    if w.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: w.rank(),
        });
    }
    let (rows, cols) = (w.dims()[0], w.dims()[1]);
    if y.len() != rows {
        return Err(TensorError::ShapeMismatch {
            left: w.dims().to_vec(),
            right: y.dims().to_vec(),
        });
    }
    let wd = w.data();
    let yd = y.data();
    let mut out = vec![0.0f32; cols];
    for r in 0..rows {
        let yv = yd[r];
        if yv == 0.0 {
            continue;
        }
        let row = &wd[r * cols..(r + 1) * cols];
        for (o, &wv) in out.iter_mut().zip(row) {
            *o += wv * yv;
        }
    }
    Tensor::from_vec(out, &[cols])
}

/// Outer product `y xᵀ` returning a `[y.len(), x.len()]` matrix.
///
/// This is exactly the weight-gradient of a dense layer: `dL/dW = δ · aᵀ`.
pub fn outer(y: &Tensor, x: &Tensor) -> Tensor {
    let rows = y.len();
    let cols = x.len();
    let mut out = vec![0.0f32; rows * cols];
    for (r, &yv) in y.data().iter().enumerate() {
        if yv == 0.0 {
            continue;
        }
        let row = &mut out[r * cols..(r + 1) * cols];
        for (o, &xv) in row.iter_mut().zip(x.data()) {
            *o = yv * xv;
        }
    }
    Tensor::from_vec(out, &[rows, cols]).expect("outer: length is rows*cols by construction")
}

/// Batched affine map `out[i] = W·rows[i] + b` into a preallocated buffer,
/// evaluated by `gemm::gemm_nt_rows` (lanes across eight rows at a time) on
/// the compilation `kernel` picks.
///
/// `rows` are the flattened input vectors of a batch, read where they lie
/// (each of length `W.cols`), `w` is `[m, k]`, `bias` has `m` entries, and
/// `out` must hold `rows.len()·m` values (row-major, one output row per
/// input row). The per-element accumulation — `k` ascending, bias added
/// after the dot product — is exactly [`matvec`]-then-bias for **both** arms
/// of [`GemmKernel`], so results are bit-identical to the per-sample path
/// used by dense layers and classifier heads on every host (see
/// [`crate::gemm`]).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`] on
/// operand disagreement.
pub fn affine_rows_into(
    rows: Rows<'_>,
    w: &Tensor,
    bias: &[f32],
    out: &mut [f32],
    kernel: GemmKernel,
) -> Result<()> {
    if w.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: w.rank(),
        });
    }
    let (m, k) = (w.dims()[0], w.dims()[1]);
    if bias.len() != m || out.len() != rows.len() * m || !rows.all_have_width(k) {
        return Err(TensorError::ShapeMismatch {
            left: w.dims().to_vec(),
            right: vec![rows.len(), bias.len(), out.len()],
        });
    }
    gemm::gemm_nt_rows(kernel, k, rows, w.data(), bias, out);
    Ok(())
}

/// Numerically stable softmax of `x` into `out` — the definition;
/// [`softmax`] is this over a tensor. Subtracts the maximum before
/// exponentiating, so arbitrarily large logits do not overflow; sums the
/// exponentials in index order. Empty in, nothing written.
///
/// # Panics
///
/// Panics when `out` is not as long as `x`.
pub fn softmax_into(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "softmax_into: out must match x");
    let Some((&first, rest)) = x.split_first() else {
        return;
    };
    let m = rest.iter().fold(first, |m, &v| m.max(v));
    for (o, &v) in out.iter_mut().zip(x) {
        *o = (v - m).exp();
    }
    let z: f32 = out.iter().sum();
    for o in out {
        *o /= z;
    }
}

/// [`softmax_into`] over a flat tensor, as a new tensor of its shape. An
/// empty input yields an empty output.
pub fn softmax(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    softmax_into(x.data(), out.data_mut());
    out
}

/// Index of the maximum of `xs` (first occurrence; a later element replaces
/// the running best only when strictly greater); `None` when empty.
pub fn argmax(xs: &[f32]) -> Option<usize> {
    let mut best = 0usize;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    (!xs.is_empty()).then_some(best)
}

/// Shannon entropy (nats) of a probability vector.
///
/// Zero-probability entries contribute zero (the `p log p → 0` limit).
pub fn entropy(p: &[f32]) -> f32 {
    p.iter().filter(|&&v| v > 0.0).map(|&v| -v * v.ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::tests::{assert_chain_bits, spec_values};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-row-at-a-time loop [`matvec`] ran before its blocked form,
    /// kept verbatim as the literal statement of each output's chain.
    fn literal_matvec(w: &Tensor, x: &Tensor) -> Vec<f32> {
        let (rows, cols) = (w.dims()[0], w.dims()[1]);
        let wd = w.data();
        let xd = x.data();
        let mut out = vec![0.0f32; rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = &wd[r * cols..(r + 1) * cols];
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(xd) {
                acc += a * b;
            }
            *o = acc;
        }
        out
    }

    /// The row blocks keep every output's chain: equal to the literal loop
    /// (`conv::tests::assert_chain_bits`) over rows 1..=17 × cols 0..=40 —
    /// every mix of blocks — on plain values and on edge values in both
    /// operands.
    #[test]
    fn spec_matvec_blocks_are_the_literal_chain() {
        let mut rng = StdRng::seed_from_u64(48);
        for rows in 1..=17 {
            for cols in 0..=40 {
                for rate in [0, 5] {
                    let w = t(spec_values(&mut rng, rows * cols, rate), &[rows, cols]);
                    let x = t(spec_values(&mut rng, cols, rate), &[cols]);
                    let got = matvec(&w, &x).unwrap();
                    assert_chain_bits(got.data(), &literal_matvec(&w, &x), &|r| {
                        format!("rows {rows} cols {cols} rate {rate} row {r}")
                    });
                }
            }
        }
    }

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    #[test]
    fn zip_with_pairs_elements_and_checks_shapes() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let b = t(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(
            zip_with(&b, &a, |x, y| x - y).unwrap().data(),
            &[3.0, 3.0, 3.0]
        );
        let c = t(vec![1.0, 2.0], &[2, 1]);
        assert!(zip_with(&t(vec![1.0, 2.0], &[2]), &c, |x, y| x + y).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut acc = t(vec![1.0, 1.0], &[2]);
        let x = t(vec![2.0, 3.0], &[2]);
        axpy(&mut acc, 0.5, &x).unwrap();
        assert_eq!(acc.data(), &[2.0, 2.5]);
        assert!(axpy(&mut acc, 1.0, &t(vec![0.0], &[1])).is_err());
    }

    #[test]
    fn matvec_known_values() {
        // W = [[1,2],[3,4],[5,6]], x = [1,-1] => [-1,-1,-1]
        let w = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let x = t(vec![1.0, -1.0], &[2]);
        assert_eq!(matvec(&w, &x).unwrap().data(), &[-1.0, -1.0, -1.0]);
    }

    #[test]
    fn matvec_validates() {
        let w = t(vec![1.0, 2.0], &[2]);
        assert!(matvec(&w, &t(vec![1.0], &[1])).is_err()); // rank 1 w
        let w = t(vec![1.0, 2.0], &[1, 2]);
        assert!(matvec(&w, &t(vec![1.0], &[1])).is_err()); // bad inner dim
    }

    #[test]
    fn matvec_t_is_transpose() {
        let w = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let y = t(vec![1.0, 0.0, -1.0], &[3]);
        // Wt y = [1*1+5*(-1), 2*1+6*(-1)] = [-4, -4]
        assert_eq!(matvec_t(&w, &y).unwrap().data(), &[-4.0, -4.0]);
    }

    #[test]
    fn outer_matches_manual() {
        let y = t(vec![1.0, 2.0], &[2]);
        let x = t(vec![3.0, 4.0, 5.0], &[3]);
        let o = outer(&y, &x);
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn affine_rows_matches_matvec_bitwise() {
        let w = t(vec![0.3, -1.7, 0.05, 2.0, 4.0, -0.01], &[2, 3]);
        let bias = [0.125f32, -0.5];
        let rows_data = [
            vec![0.1f32, -0.9, 7.0],
            vec![0.0, 0.0, 0.0],
            vec![-3.0, 2.5, 0.125],
        ];
        let rows: Vec<&[f32]> = rows_data.iter().map(|r| r.as_slice()).collect();
        for kernel in crate::gemm::GemmKernel::ALL {
            let mut out = vec![0.0f32; rows.len() * 2];
            affine_rows_into(Rows::Slices(&rows), &w, &bias, &mut out, kernel).unwrap();
            for (i, row) in rows_data.iter().enumerate() {
                let x = t(row.clone(), &[3]);
                let mut y = matvec(&w, &x).unwrap();
                for (o, b) in y.data_mut().iter_mut().zip(&bias) {
                    *o += b;
                }
                for (a, b) in y.data().iter().zip(&out[i * 2..(i + 1) * 2]) {
                    assert_eq!(a.to_bits(), b.to_bits(), "kernel {kernel:?}");
                }
            }
        }
    }

    #[test]
    fn affine_rows_validates() {
        let kernel = crate::gemm::GemmKernel::default();
        let w = t(vec![1.0, 2.0], &[1, 2]);
        let row: &[f32] = &[1.0, 2.0];
        let mut out = vec![0.0f32; 1];
        assert!(affine_rows_into(Rows::Slices(&[row]), &w, &[0.0], &mut out, kernel).is_ok());
        // wrong bias length
        assert!(affine_rows_into(Rows::Slices(&[row]), &w, &[0.0, 0.0], &mut out, kernel).is_err());
        // wrong out length
        let mut bad_out = vec![0.0f32; 2];
        assert!(affine_rows_into(Rows::Slices(&[row]), &w, &[0.0], &mut bad_out, kernel).is_err());
        // wrong row length
        let short: &[f32] = &[1.0];
        assert!(affine_rows_into(Rows::Slices(&[short]), &w, &[0.0], &mut out, kernel).is_err());
        // rank-1 weight
        let w1 = t(vec![1.0, 2.0], &[2]);
        assert!(affine_rows_into(Rows::Slices(&[row]), &w1, &[0.0], &mut out, kernel).is_err());
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let x = t(vec![1000.0, 1001.0, 1002.0], &[3]);
        let p = softmax(&x);
        let s: f32 = p.data().iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(p.data().iter().all(|v| v.is_finite()));
        assert!(p.data()[2] > p.data()[1] && p.data()[1] > p.data()[0]);
    }

    #[test]
    fn softmax_uniform_for_equal_logits() {
        let p = softmax(&t(vec![0.5; 4], &[4]));
        for &v in p.data() {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_empty_is_empty() {
        let p = softmax(&Tensor::default());
        assert!(p.is_empty());
    }

    #[test]
    fn entropy_extremes() {
        // one-hot: zero entropy
        assert_eq!(entropy(&[1.0, 0.0, 0.0]), 0.0);
        // uniform over 4: ln 4
        let e = entropy(&[0.25; 4]);
        assert!((e - 4.0f32.ln()).abs() < 1e-6);
    }
}
