//! Property-based tests for the CNN substrate: agreement of the per-image
//! forward walks, and bit-identity of the batched segments and fused stage
//! groups with the per-image layers. The layers' gradient properties are
//! unit tests in `layers`.

use cdl_nn::activation::Activation;
use cdl_nn::batch::BatchScratch;
use cdl_nn::network::Network;
use cdl_nn::spec::{LayerSpec, NetworkSpec};
use cdl_tensor::{GemmKernel, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A value from the edges the pool-first reorder has to survive: signed
/// zeros, exact ties (small integers), magnitudes that saturate the sigmoid
/// to a plateau, subnormals, and — rarely — infinities and NaN.
fn edge_value(rng: &mut StdRng) -> f32 {
    match rng.random_range(0..400u32) {
        0 => f32::INFINITY,
        1 => f32::NEG_INFINITY,
        2 => f32::NAN,
        3..=40 => -0.0,
        41..=80 => 0.0,
        81..=110 => [-1.0e4, -120.0, -20.0, -1.0e-40, 1.0e-40, 20.0, 120.0, 1.0e4]
            [rng.random_range(0..8usize)],
        111..=300 => rng.random_range(-2i32..3) as f32,
        _ => rng.random_range(-1.5..1.5),
    }
}

fn edge_tensor(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    let data = (0..dims.iter().product())
        .map(|_| edge_value(rng))
        .collect();
    Tensor::from_vec(data, dims).unwrap()
}

/// Bit-for-bit equality, except that a NaN only has to be a NaN: which of
/// two NaN operands an addition forwards is not part of the contract.
fn same_bits(a: &Tensor, b: &Tensor) -> Result<(), String> {
    if a.dims() != b.dims() {
        return Err(format!("shape {:?} vs {:?}", a.dims(), b.dims()));
    }
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        if x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()) {
            return Err(format!(
                "cell {i}: {x:e} ({:#x}) vs {y:e} ({:#x})",
                x.to_bits(),
                y.to_bits()
            ));
        }
    }
    Ok(())
}

/// Every image of `xs` through `forward_batch_segment(from, upto]` under
/// every kernel, against the per-image layers.
fn segment_matches_per_image(
    net: &Network,
    xs: &[Tensor],
    from: Option<usize>,
    upto: usize,
) -> Result<(), String> {
    for kernel in GemmKernel::ALL {
        let mut scratch = BatchScratch::with_kernel(kernel);
        let batched = net
            .forward_batch_segment(xs, from, upto, &mut scratch)
            .map_err(|e| format!("batched ({from:?}, {upto}]: {e}"))?;
        for (x, b) in xs.iter().zip(&batched) {
            let single = net
                .forward_segment(x, from, upto)
                .map_err(|e| e.to_string())?;
            same_bits(&single, b)
                .map_err(|e| format!("kernel {kernel:?}, ({from:?}, {upto}]: {e}"))?;
        }
    }
    Ok(())
}

/// Each runtime layer's output for `x` (index `i` = output of layer `i`),
/// one single-layer segment at a time.
fn layer_outputs(net: &Network, x: &Tensor) -> Vec<Tensor> {
    let mut cur = x.clone();
    (0..net.layer_count())
        .map(|i| {
            cur = net.forward_segment(&cur, i.checked_sub(1), i).unwrap();
            cur.clone()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single-layer segments chained through the network end at `forward`,
    /// and segment runs from the input or from any split agree with them,
    /// for random inputs.
    #[test]
    fn forward_variants_agree(seed in 0u64..60) {
        let spec = NetworkSpec::new(
            vec![
                LayerSpec::conv(1, 3, 3, Activation::Sigmoid),
                LayerSpec::maxpool(2),
                LayerSpec::flatten(),
                LayerSpec::dense(3 * 3 * 3, 5, Activation::Sigmoid),
            ],
            &[1, 8, 8],
        );
        let net = Network::from_spec(&spec, seed).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..64).map(|_| rng.random_range(0.0..1.0)).collect();
        let x = Tensor::from_vec(data, &[1, 8, 8]).unwrap();
        let outs = layer_outputs(&net, &x);
        prop_assert_eq!(outs.last().unwrap(), &net.forward(&x).unwrap());
        for (i, out) in outs.iter().enumerate() {
            prop_assert_eq!(&net.forward_segment(&x, None, i).unwrap(), out);
        }
        // continuing from any split point reaches the same output
        for split in 0..net.layer_count() - 1 {
            let cont = net.forward_segment(&outs[split], Some(split), net.layer_count() - 1).unwrap();
            prop_assert_eq!(&cont, outs.last().unwrap());
        }
    }

    /// Parameter export/import is lossless for random networks.
    #[test]
    fn param_round_trip(seed_a in 0u64..40, seed_b in 40u64..80) {
        let spec = NetworkSpec::new(
            vec![
                LayerSpec::conv(1, 2, 3, Activation::Sigmoid),
                LayerSpec::flatten(),
                LayerSpec::dense(2 * 6 * 6, 3, Activation::Identity),
            ],
            &[1, 8, 8],
        );
        let mut a = Network::from_spec(&spec, seed_a).unwrap();
        let mut b = Network::from_spec(&spec, seed_b).unwrap();
        let x = Tensor::full(&[1, 8, 8], 0.37);
        b.import_params(&a.export_params()).unwrap();
        prop_assert_eq!(a.forward(&x).unwrap(), b.forward(&x).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `apply_slice` stores what `apply` returns, cell by cell, for every
    /// activation and every slice length around the 8-lane vector width.
    #[test]
    fn apply_slice_matches_apply(act in 0usize..2, len in 0usize..40, seed in 0u64..10_000) {
        let act = [Activation::Sigmoid, Activation::Identity][act];
        let mut rng = StdRng::seed_from_u64(seed);
        let x = edge_tensor(&mut rng, &[len]);
        let mut sliced = x.clone();
        act.apply_slice(sliced.data_mut());
        same_bits(&x.map(|v| act.apply(v)), &sliced).map_err(|e| TestCaseError::fail(format!("{act}: {e}")))?;
    }

    /// The fused `conv → activation → max-pool` group equals the three
    /// layers run per image, bit for bit, for every kernel, activation and
    /// window — on the paper's geometries (3C's 26→13, 10→5 and the 3→3
    /// identity pool, 2C's 24→12 and 8→4) and on narrow maps, batches of
    /// one included, with inputs and parameters drawn from the edge values.
    #[test]
    fn fused_stage_group_matches_per_image_layers(
        geometry in 0usize..8,
        act in 0usize..2,
        n in 1usize..4,
        seed in 0u64..10_000,
    ) {
        // (c_in, c_out, kernel, input side, window); conv output side is
        // side - kernel + 1 and must be a multiple of the window
        let (cin, cout, k, side, window) = [
            (1usize, 3usize, 3usize, 28usize, 2usize), // 26 -> 13
            (3, 6, 4, 13, 2),                          // 10 -> 5
            (6, 9, 3, 5, 1),                           // 3 -> 3, ow < 8
            (1, 6, 5, 28, 2),                          // 24 -> 12
            (6, 12, 5, 12, 2),                         // 8 -> 4
            (2, 4, 2, 10, 3),                          // 9 -> 3, column tail
            (2, 3, 3, 8, 3),                           // 6 -> 2, ow < 8
            (1, 2, 4, 15, 1),                          // 12 -> 12
        ][geometry];
        let act = [Activation::Sigmoid, Activation::Identity][act];
        let spec = NetworkSpec::new(
            vec![LayerSpec::conv(cin, cout, k, act), LayerSpec::maxpool(window)],
            &[cin, side, side],
        );
        let mut net = Network::from_spec(&spec, seed).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Tensor> = (0..n).map(|_| edge_tensor(&mut rng, &[cin, side, side])).collect();
        let last = net.layer_count() - 1;
        // trained-looking parameters first, then edge-valued ones imported
        // into the same network: the stage plan must not remember weights
        segment_matches_per_image(&net, &xs, None, last).map_err(TestCaseError::fail)?;
        let params = vec![edge_tensor(&mut rng, &[cout, cin, k, k]), edge_tensor(&mut rng, &[cout])];
        net.import_params(&params).unwrap();
        segment_matches_per_image(&net, &xs, None, last).map_err(TestCaseError::fail)?;
    }

    /// Every segment `(from, upto]` of a two-stage network — whole groups
    /// under both activations, segments that start or end inside a group
    /// (one that starts at a pool runs `MaxPool2d`'s own block form) —
    /// equals the per-image path on every kernel.
    #[test]
    fn every_segment_matches_per_image_layers(seed in 0u64..10_000) {
        let spec = NetworkSpec::new(
            vec![
                LayerSpec::conv(1, 3, 3, Activation::Sigmoid),
                LayerSpec::maxpool(2),
                LayerSpec::conv(3, 4, 2, Activation::Identity),
                LayerSpec::maxpool(2),
                LayerSpec::flatten(),
                LayerSpec::dense(4 * 4 * 4, 5, Activation::Sigmoid),
            ],
            &[1, 20, 20],
        );
        let net = Network::from_spec(&spec, seed).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Tensor> = (0..3)
            .map(|_| {
                let data = (0..400).map(|_| rng.random_range(-1.0..1.0)).collect();
                Tensor::from_vec(data, &[1, 20, 20]).unwrap()
            })
            .collect();
        let layers = net.layer_count();
        for upto in 0..layers {
            segment_matches_per_image(&net, &xs, None, upto).map_err(TestCaseError::fail)?;
            for from in 0..upto {
                let mid: Vec<Tensor> = xs.iter().map(|x| net.forward_segment(x, None, from).unwrap()).collect();
                segment_matches_per_image(&net, &mid, Some(from), upto).map_err(TestCaseError::fail)?;
            }
        }
    }
}
