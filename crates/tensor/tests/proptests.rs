//! Property-based tests for the tensor crate's core invariants.

use cdl_tensor::gemm::{self, GemmKernel};
use cdl_tensor::im2col::{conv2d_valid_batch, ConvScratch};
use cdl_tensor::{conv, ops, pool, Rows, Tensor};
use proptest::prelude::*;

/// Strategy: a small tensor with shape `[c, h, w]` and bounded values.
fn small_chw() -> impl Strategy<Value = Tensor> {
    (1usize..4, 2usize..7, 2usize..7).prop_flat_map(|(c, h, w)| {
        proptest::collection::vec(-10.0f32..10.0, c * h * w)
            .prop_map(move |v| Tensor::from_vec(v, &[c, h, w]).unwrap())
    })
}

proptest! {
    /// softmax output is a probability distribution and preserves argmax.
    #[test]
    fn softmax_is_distribution(v in proptest::collection::vec(-30.0f32..30.0, 2..16)) {
        let n = v.len();
        let x = Tensor::from_vec(v, &[n]).unwrap();
        let p = ops::softmax(&x);
        let sum: f32 = p.data().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.data().iter().all(|&q| (0.0..=1.0).contains(&q)));
        prop_assert_eq!(p.argmax(), x.argmax());
    }

    /// Max pooling dominates every element of its window.
    #[test]
    fn maxpool_dominates_its_window(x in small_chw()) {
        let dims = x.dims().to_vec();
        let window = 1 + (dims[1].min(dims[2]) > 1) as usize;
        if !dims[1].is_multiple_of(window) || !dims[2].is_multiple_of(window) {
            return Ok(()); // geometry not tileable; covered by unit tests
        }
        let mx = pool::maxpool2d(&x, window).unwrap().output;
        let (oh, ow) = (dims[1] / window, dims[2] / window);
        for (i, &v) in x.data().iter().enumerate() {
            let (ch, y, xx) = (i / (dims[1] * dims[2]), i / dims[2] % dims[1], i % dims[2]);
            prop_assert!(mx.data()[(ch * oh + y / window) * ow + xx / window] >= v);
        }
    }

    /// Convolution is linear in the input: conv(αx) = α·conv(x) when bias=0.
    #[test]
    fn conv_is_linear(x in small_chw(), alpha in -3.0f32..3.0) {
        let c = x.dims()[0];
        let k = Tensor::full(&[2, c, 2, 2], 0.25);
        let bias = vec![0.0f32; 2];
        if x.dims()[1] < 2 || x.dims()[2] < 2 {
            return Ok(());
        }
        let y1 = conv::conv2d_valid(&x, &k, &bias).unwrap();
        let xs = x.map(|v| v * alpha);
        let y2 = conv::conv2d_valid(&xs, &k, &bias).unwrap();
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a * alpha - b).abs() < 1e-2);
        }
    }

    /// Max-pool backward conserves gradient mass.
    #[test]
    fn maxpool_backward_conserves_mass(x in small_chw()) {
        let dims = x.dims().to_vec();
        if !dims[1].is_multiple_of(2) || !dims[2].is_multiple_of(2) {
            return Ok(());
        }
        let p = pool::maxpool2d(&x, 2).unwrap();
        let g = Tensor::ones(p.output.dims());
        let gx = pool::maxpool2d_backward(&dims, &p.argmax, &g).unwrap();
        prop_assert!((gx.sum() - g.sum()).abs() < 1e-4);
    }

    /// reshape never changes the data, only the shape.
    #[test]
    fn reshape_preserves_buffer(v in proptest::collection::vec(-5.0f32..5.0, 12)) {
        let t = Tensor::from_vec(v, &[12]).unwrap();
        for dims in [[3usize, 4], [4, 3], [2, 6], [6, 2]] {
            let r = t.reshape(&dims).unwrap();
            prop_assert_eq!(r.data(), t.data());
        }
    }

    /// The batched convolution — the lanes-across-images kernel or the
    /// per-image direct kernel, whichever the geometry and the batch size
    /// select, on the compilation the arm selects — is bit-identical to
    /// the per-image direct path for every image of the batch, across
    /// random shapes.
    #[test]
    fn batched_conv_matches_direct(
        // past one block of eight: full x8 blocks, padded ones and the
        // per-image remainder all occur
        n in 1usize..12,
        cin in 1usize..4,
        cout in 1usize..5,
        k in 1usize..4,
        // up to ow = 12: the direct kernel's full (8) and ragged (9..=12)
        // vectors and the narrow maps only the x8 kernel takes
        extra in 0usize..12,
        seed in 0u64..500,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let size = k + extra; // guarantees a valid geometry
        let inputs: Vec<Tensor> = (0..n)
            .map(|_| {
                let d: Vec<f32> = (0..cin * size * size)
                    .map(|_| rng.random_range(-2.0..2.0))
                    .collect();
                Tensor::from_vec(d, &[cin, size, size]).unwrap()
            })
            .collect();
        let kd: Vec<f32> = (0..cout * cin * k * k).map(|_| rng.random_range(-1.0..1.0)).collect();
        let kernels = Tensor::from_vec(kd, &[cout, cin, k, k]).unwrap();
        let bias: Vec<f32> = (0..cout).map(|_| rng.random_range(-0.3..0.3)).collect();

        // batched scratch path: bit-identical to direct, per image, on
        // both arms
        let mut scratch = ConvScratch::default();
        for gemm_kernel in GemmKernel::ALL {
            let batched =
                conv2d_valid_batch(&inputs, &kernels, &bias, &mut scratch, gemm_kernel).unwrap();
            prop_assert_eq!(batched.len(), inputs.len());
            for (x, b) in inputs.iter().zip(&batched) {
                let direct = conv::conv2d_valid(x, &kernels, &bias).unwrap();
                prop_assert_eq!(direct.dims(), b.dims());
                for (dv, bv) in direct.data().iter().zip(b.data()) {
                    prop_assert_eq!(dv.to_bits(), bv.to_bits(), "kernel {:?}", gemm_kernel);
                }
            }
        }
    }

    /// Batched affine rows are bit-identical to matvec + bias per sample.
    #[test]
    fn affine_rows_matches_matvec(
        rows in 1usize..6,
        m in 1usize..5,
        kdim in 1usize..8,
        seed in 0u64..500,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w_data: Vec<f32> = (0..m * kdim).map(|_| rng.random_range(-2.0..2.0)).collect();
        let w = Tensor::from_vec(w_data, &[m, kdim]).unwrap();
        let bias: Vec<f32> = (0..m).map(|_| rng.random_range(-1.0..1.0)).collect();
        let samples: Vec<Vec<f32>> = (0..rows)
            .map(|_| (0..kdim).map(|_| rng.random_range(-2.0..2.0)).collect())
            .collect();
        let refs: Vec<&[f32]> = samples.iter().map(|s| s.as_slice()).collect();
        for gemm_kernel in GemmKernel::ALL {
            let mut out = vec![0.0f32; rows * m];
            ops::affine_rows_into(Rows::Slices(&refs), &w, &bias, &mut out, gemm_kernel).unwrap();
            for (i, s) in samples.iter().enumerate() {
                let x = Tensor::from_vec(s.clone(), &[kdim]).unwrap();
                let mut y = ops::matvec(&w, &x).unwrap();
                for (o, b) in y.data_mut().iter_mut().zip(&bias) {
                    *o += b;
                }
                for (a, b) in y.data().iter().zip(&out[i * m..(i + 1) * m]) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "kernel {:?}", gemm_kernel);
                }
            }
        }
    }

    /// Kernel parity, nt shape: every [`GemmKernel`] (including the AVX2
    /// `Simd` arm's packed-weight path and its ragged last block when
    /// m % 8 ≠ 0) is bit-identical to a naive per-element dot-then-bias
    /// loop across random (rows, m, k) — including ragged tile tails,
    /// k = 0 and single-sample/single-output extremes.
    #[test]
    fn gemm_nt_kernels_match_naive_dot_loop(
        rows in 1usize..10,
        m in 1usize..11,
        kdim in 0usize..30,
        seed in 0u64..1000,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let samples: Vec<Vec<f32>> = (0..rows)
            .map(|_| (0..kdim).map(|_| rng.random_range(-2.0..2.0)).collect())
            .collect();
        let refs: Vec<&[f32]> = samples.iter().map(|s| s.as_slice()).collect();
        let w: Vec<f32> = (0..m * kdim).map(|_| rng.random_range(-2.0..2.0)).collect();
        let bias: Vec<f32> = (0..m).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut expected = vec![0.0f32; rows * m];
        for (i, s) in samples.iter().enumerate() {
            for r in 0..m {
                let mut acc = 0.0f32;
                for p in 0..kdim {
                    acc += w[r * kdim + p] * s[p];
                }
                expected[i * m + r] = acc + bias[r];
            }
        }
        for gemm_kernel in GemmKernel::ALL {
            let mut out = vec![f32::NAN; rows * m];
            gemm::gemm_nt(gemm_kernel, kdim, &refs, &w, &bias, &mut out);
            for (got, want) in out.iter().zip(&expected) {
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "kernel {:?} at ({}, {}, {})", gemm_kernel, rows, m, kdim
                );
            }
        }
    }

    /// matvec agrees with an explicit double loop.
    #[test]
    fn matvec_matches_reference(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w_data: Vec<f32> = (0..rows * cols).map(|_| rng.random_range(-2.0..2.0)).collect();
        let x_data: Vec<f32> = (0..cols).map(|_| rng.random_range(-2.0..2.0)).collect();
        let w = Tensor::from_vec(w_data.clone(), &[rows, cols]).unwrap();
        let x = Tensor::from_vec(x_data.clone(), &[cols]).unwrap();
        let y = ops::matvec(&w, &x).unwrap();
        for r in 0..rows {
            let expect: f32 = (0..cols).map(|c| w_data[r * cols + c] * x_data[c]).sum();
            prop_assert!((y.data()[r] - expect).abs() < 1e-4);
        }
    }
}
