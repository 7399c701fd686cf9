//! Cross-crate property-based tests.

use cdl::core::confidence::{ConfidencePolicy, ExitOverride};
use cdl::core::network::CdlNetwork;
use cdl::dataset::generator::{SyntheticConfig, SyntheticMnist};
use cdl::dataset::idx;
use cdl::hw::OpCount;
use cdl::nn::activation::Activation;
use cdl::nn::network::Network;
use cdl::nn::spec::{LayerSpec, NetworkSpec};
use cdl::serve::{ModelId, Router, ServerConfig, ShardSpec, SubmitOptions};
use cdl::tensor::Tensor;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

mod common;

/// Encodes images (each `[1, rows, cols]`, values in `[0, 1]`) as IDX bytes:
/// the big-endian header `magic, count, rows, cols`, then one byte a pixel.
fn idx_images(images: &[Tensor]) -> Vec<u8> {
    let dims = images.first().map_or(&[0, 0, 0][..], |t| t.dims());
    let mut out = Vec::new();
    for word in [
        idx::MAGIC_IMAGES,
        images.len() as u32,
        dims[1] as u32,
        dims[2] as u32,
    ] {
        out.extend_from_slice(&word.to_be_bytes());
    }
    for img in images {
        out.extend(
            img.data()
                .iter()
                .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8),
        );
    }
    out
}

/// Encodes labels as IDX bytes: the header `magic, count`, then one byte a label.
fn idx_labels(labels: &[usize]) -> Vec<u8> {
    let mut out = Vec::new();
    for word in [idx::MAGIC_LABELS, labels.len() as u32] {
        out.extend_from_slice(&word.to_be_bytes());
    }
    out.extend(labels.iter().map(|&l| l as u8));
    out
}

/// Two untrained CDLNs (MNIST_2C: 1 conditional stage, MNIST_3C: 2) —
/// routing equivalence does not need trained weights, and assembling once
/// keeps the proptest fast.
fn shard_pair() -> &'static (Arc<CdlNetwork>, Arc<CdlNetwork>) {
    static SHARED: OnceLock<(Arc<CdlNetwork>, Arc<CdlNetwork>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let build = |arch: cdl::core::arch::CdlArchitecture, seed: u64| {
            let base = Network::from_spec(&arch.spec, seed).unwrap();
            let feats = arch.tap_features().unwrap();
            let stages = arch
                .taps
                .iter()
                .zip(&feats)
                .map(|(t, &f)| {
                    (
                        t.spec_layer,
                        t.name.clone(),
                        cdl::core::head::LinearClassifier::new(f, 10, 1).unwrap(),
                    )
                })
                .collect();
            Arc::new(CdlNetwork::assemble(base, stages, ConfidencePolicy::max_prob(0.6)).unwrap())
        };
        (
            build(cdl::core::arch::mnist_2c(), 3),
            build(cdl::core::arch::mnist_3c(), 4),
        )
    })
}

/// Decodes a generated `(model, delta_code, stage_code)` triple into a
/// routing decision plus per-request overrides.
fn decode_route(model: usize, delta_code: usize, stage_code: usize) -> (ModelId, SubmitOptions) {
    let delta = match delta_code {
        0 => None,
        1 => Some(0.3),
        2 => Some(0.7),
        _ => Some(0.97),
    };
    let max_stage = match stage_code {
        0 => None,
        1 => Some(0),
        2 => Some(1),
        _ => Some(5), // ≥ stage_count: no-op cap
    };
    (
        ModelId::from_index(model),
        SubmitOptions {
            delta,
            max_stage,
            ..SubmitOptions::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every network built from a valid spec produces outputs whose shape
    /// matches the spec's declared chain, for random geometry.
    #[test]
    fn network_output_matches_spec_chain(
        maps in 1usize..5,
        kernel in 2usize..4,
        seed in 0u64..500,
    ) {
        let size = 12usize;
        let after_conv = size - kernel + 1;
        // pick a pool window that tiles
        let window = if after_conv.is_multiple_of(2) { 2 } else { 1 };
        let pooled = after_conv / window;
        let feats = maps * pooled * pooled;
        let spec = NetworkSpec::new(
            vec![
                LayerSpec::conv(1, maps, kernel, Activation::Sigmoid),
                LayerSpec::maxpool(window),
                LayerSpec::flatten(),
                LayerSpec::dense(feats, 4, Activation::Sigmoid),
            ],
            &[1, size, size],
        );
        let net = Network::from_spec(&spec, seed).unwrap();
        let chain = spec.shape_chain().unwrap();
        let x = Tensor::full(&[1, size, size], 0.5);
        // every spec layer's runtime output has the shape the spec predicts
        for (i, shape) in chain.iter().enumerate() {
            let out = net.forward_segment(&x, None, net.runtime_index_of(i).unwrap()).unwrap();
            prop_assert_eq!(out.dims(), shape.as_slice());
        }
        // op counts are positive and finite
        let total: OpCount = net.op_counts().unwrap().into_iter().sum();
        prop_assert!(total.compute_ops() > 0);
    }

    /// Generator images always round-trip through the IDX format within
    /// quantisation error.
    #[test]
    fn idx_round_trip_for_generated_images(n in 1usize..6, seed in 0u64..1000) {
        let set = SyntheticMnist::new(SyntheticConfig::default()).generate(n, seed);
        let parsed = idx::parse_images(&idx_images(&set.images)).unwrap();
        prop_assert_eq!(parsed.len(), n);
        for (a, b) in parsed.iter().zip(&set.images) {
            prop_assert_eq!(a.dims(), b.dims());
            for (x, y) in a.data().iter().zip(b.data()) {
                prop_assert!((x - y).abs() <= 0.5 / 255.0 + 1e-6);
            }
        }
        prop_assert_eq!(idx::parse_labels(&idx_labels(&set.labels)).unwrap(), set.labels);
    }

    /// The activation module is threshold-monotone for every policy type:
    /// if a score vector exits at threshold t2 > t1, it also exits at t1.
    #[test]
    fn confidence_policies_threshold_monotone(
        scores in proptest::collection::vec(-6.0f32..6.0, 2..12),
        t1 in 0.05f32..0.5,
        dt in 0.05f32..0.4,
    ) {
        let n = scores.len();
        let t = Tensor::from_vec(scores, &[n]).unwrap();
        let t2 = t1 + dt;
        for mk in [
            ConfidencePolicy::margin as fn(f32) -> ConfidencePolicy,
            ConfidencePolicy::max_prob,
            ConfidencePolicy::sigmoid_prob,
        ] {
            let strict = mk(t2).decide(&t).unwrap();
            let lenient = mk(t1).decide(&t).unwrap();
            // exception: the uniqueness criterion can make *lower* deltas
            // refuse to exit when several classes clear the bar — only the
            // margin policy is strictly monotone; for prob policies assert
            // agreement of the chosen label instead.
            prop_assert_eq!(strict.label, lenient.label);
            if matches!(mk(t1), ConfidencePolicy::Margin { .. }) && strict.exit {
                prop_assert!(lenient.exit);
            }
        }
    }

    /// Difficulty is the only knob: for a fixed digit and RNG stream the
    /// generated image is deterministic, and in [0,1] everywhere.
    #[test]
    fn generator_images_always_valid(digit in 0usize..10, difficulty in 0.0f32..1.0, seed in 0u64..300) {
        use rand::SeedableRng;
        let gen = SyntheticMnist::new(SyntheticConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = gen.sample_with_difficulty(digit, difficulty, &mut rng);
        prop_assert_eq!(s.image.dims(), &[1, 28, 28]);
        prop_assert!(s.image.data().iter().all(|v| (0.0..=1.0).contains(v)));
        prop_assert_eq!(s.label, digit);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(seed);
        let s2 = gen.sample_with_difficulty(digit, difficulty, &mut rng2);
        prop_assert_eq!(s.image, s2.image);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cross-crate kernel parity: one batch through a `BatchEvaluator`
    /// pinned to each `GemmKernel` arm yields bit-identical `CdlOutput`s
    /// (label, exit stage, confidence, op/energy accounting), all equal to
    /// per-image `classify` — the end-to-end pin of both GEMM bodies on
    /// whole cascades, not just isolated GEMMs.
    #[test]
    fn gemm_kernels_agree_end_to_end(
        n in 1usize..12,
        shade in 0usize..20,
        model in 0usize..2,
    ) {
        use cdl::core::batch::BatchEvaluator;
        use cdl::tensor::GemmKernel;
        let (m2c, m3c) = shard_pair();
        let net: &CdlNetwork = if model == 0 { m2c } else { m3c };
        let images: Vec<Tensor> = (0..n)
            .map(|i| Tensor::full(&[1, 28, 28], 0.03 * ((i + shade) % 30) as f32))
            .collect();
        let per_kernel: Vec<_> = GemmKernel::ALL
            .into_iter()
            .map(|kernel| {
                BatchEvaluator::with_kernel(net, kernel)
                    .classify_batch(&images)
                    .unwrap()
            })
            .collect();
        for (i, img) in images.iter().enumerate() {
            let single = net.classify(img).unwrap();
            for (outs, kernel) in per_kernel.iter().zip(GemmKernel::ALL) {
                prop_assert_eq!(&outs[i], &single, "image {} kernel {:?}", i, kernel);
            }
        }
    }

    /// Random routing sequences with random per-request overrides: every
    /// response is bit-identical to `classify_with_override` on the routed
    /// model (nothing dropped or mis-routed), the router-level routing
    /// histogram matches each shard's own admission count, the final
    /// snapshot obeys every conservation law, and the router total is the
    /// merge of the shard totals.
    #[test]
    fn router_never_drops_or_misroutes(
        routes in collection::vec((0usize..2, 0usize..4, 0usize..4, 1usize..12), 1..20),
    ) {
        let (m2c, m3c) = shard_pair();
        let config = ServerConfig {
            policy: cdl::serve::BatchPolicy::new(4),
            queue_capacity: 64,
            workers: 2,
            ..ServerConfig::default()
        };
        let router = Router::start(vec![
            ShardSpec::new("MNIST_2C", Arc::clone(m2c), config.clone()),
            ShardSpec::new("MNIST_3C", Arc::clone(m3c), config),
        ]).unwrap();

        let mut expected_routed = [0u64; 2];
        let pendings: Vec<_> = routes
            .iter()
            .map(|&(model, delta_code, stage_code, shade)| {
                let (id, opts) = decode_route(model, delta_code, stage_code);
                let image = Tensor::full(&[1, 28, 28], 0.05 * shade as f32);
                expected_routed[model] += 1;
                (id, opts, image.clone(), router.submit_with(id, image, opts).unwrap())
            })
            .collect();
        // every submission resolves with the routed model's per-image result
        let mut delivered = Vec::new();
        for (id, opts, image, pending) in pendings {
            let out = pending.wait().expect("no response dropped");
            let net: &CdlNetwork = if id.index() == 0 { m2c } else { m3c };
            let expected = net
                .classify_with_override(
                    &image,
                    ExitOverride { delta: opts.delta, max_stage: opts.max_stage },
                )
                .unwrap();
            prop_assert_eq!(&out, &expected, "misrouted or wrong override: {} {:?}", id, opts);
            delivered.push(out);
        }

        let metrics = router.shutdown();
        let total = metrics.total();
        let routed: Vec<u64> = metrics.shards.iter().map(|s| s.routed()).collect();
        prop_assert_eq!(routed, expected_routed.to_vec());
        prop_assert_eq!(total.completed, routes.len() as u64);
        prop_assert_eq!(total.failed, 0);
        prop_assert_eq!(total.cancelled, 0);
        // conservation per model, and the op ledger against the answers
        common::assert_settled_with(&metrics, &delivered);
        // the router total is the merge of the shard totals
        let mut of_shards = cdl::serve::ServerMetrics::default();
        for shard in &metrics.shards {
            prop_assert_eq!(shard.routed(), shard.total().submitted, "{}", &shard.model);
            of_shards.merge(&shard.total());
        }
        prop_assert!((total.energy_pj - of_shards.energy_pj).abs() < 1e-9);
        of_shards.energy_pj = total.energy_pj;
        prop_assert_eq!(total, of_shards);
    }
}
