//! Equivalence of batched and per-image inference.
//!
//! The `BatchEvaluator` must be a pure performance transformation: for every
//! image of a batch, the label, exit stage, confidence, op count, and
//! early-exit flag must be **bit-identical** to `CdlNetwork::classify` on
//! that image alone — across policies, batch compositions, repeated use of
//! one evaluator's scratch buffers, and **both `GemmKernel` arms** (on an
//! AVX2 host: the AVX2 bodies and the portable ones).

use cdl::core::arch;
use cdl::core::batch::BatchEvaluator;
use cdl::core::builder::{BuilderConfig, CdlBuilder};
use cdl::core::confidence::ConfidencePolicy;
use cdl::core::network::CdlNetwork;
use cdl::dataset::SyntheticMnist;
use cdl::nn::network::Network;
use cdl::nn::trainer::{train, LabelledSet, TrainConfig};
use cdl::tensor::GemmKernel;
use std::sync::OnceLock;

/// Trains once, shares across the three tests (training dominates runtime).
fn trained_cdln() -> &'static (CdlNetwork, LabelledSet) {
    static SHARED: OnceLock<(CdlNetwork, LabelledSet)> = OnceLock::new();
    SHARED.get_or_init(build_cdln)
}

fn build_cdln() -> (CdlNetwork, LabelledSet) {
    let (train_set, test_set) = SyntheticMnist::default().generate_split(500, 160, 29);
    let arch = arch::mnist_3c();
    let mut base = Network::from_spec(&arch.spec, 7).expect("valid paper architecture");
    train(
        &mut base,
        &train_set,
        &TrainConfig {
            epochs: 3,
            lr: 1.5,
            lr_decay: 0.95,
            ..TrainConfig::default()
        },
    )
    .expect("baseline training");
    let cdln = CdlBuilder::new(arch, ConfidencePolicy::sigmoid_prob(0.5))
        .build(
            base,
            &train_set,
            &BuilderConfig {
                force_admit_all: true,
                ..BuilderConfig::default()
            },
        )
        .expect("Algorithm 1")
        .into_network();
    (cdln, test_set)
}

#[test]
fn batched_inference_is_bit_identical_to_per_image() {
    let (cdln, test_set) = trained_cdln();
    // once per GemmKernel arm: both bodies must satisfy the exact same
    // bit-level pin
    for kernel in GemmKernel::ALL {
        let mut eval = BatchEvaluator::with_kernel(cdln, kernel);

        let batched = eval.classify_batch(&test_set.images).expect("batched pass");
        assert_eq!(batched.len(), test_set.len());

        let mut exit_histogram = vec![0usize; cdln.stage_count() + 1];
        for (image, out) in test_set.images.iter().zip(&batched) {
            let single = cdln.classify(image).expect("per-image pass");
            // CdlOutput derives PartialEq: label, exit_stage, confidence
            // (f32 equality, i.e. bit-identical scores), ops,
            // stages_activated, exited_early must all agree
            assert_eq!(*out, single, "kernel {kernel:?}");
            exit_histogram[out.exit_stage] += 1;
        }
        // the comparison is only meaningful if the cascade actually
        // branches: with trained heads and the paper's δ some images must
        // exit early and some must reach the final classifier
        assert!(
            exit_histogram[..cdln.stage_count()].iter().sum::<usize>() > 0,
            "no image exited early — equivalence test degenerated ({kernel:?}): {exit_histogram:?}"
        );
    }
}

#[test]
fn equivalence_holds_across_policies_and_scratch_reuse() {
    let (cdln, test_set) = trained_cdln();
    let images = &test_set.images[..64.min(test_set.len())];
    for kernel in GemmKernel::ALL {
        let mut eval = BatchEvaluator::with_kernel(cdln, kernel);
        for policy in [
            ConfidencePolicy::sigmoid_prob(0.5),
            ConfidencePolicy::sigmoid_prob(0.7),
            ConfidencePolicy::max_prob(0.6),
            ConfidencePolicy::margin(0.2),
            ConfidencePolicy::entropy(0.4),
        ] {
            let batched = eval
                .classify_batch_with_policy(images, policy)
                .expect("batched pass");
            for (image, out) in images.iter().zip(&batched) {
                let single = cdln.classify_with_policy(image, policy).expect("per-image");
                assert_eq!(*out, single, "policy {policy}, kernel {kernel:?}");
            }
        }
    }
}

#[test]
fn chunked_batches_agree_with_one_big_batch() {
    let (cdln, test_set) = trained_cdln();
    for kernel in GemmKernel::ALL {
        let mut eval = BatchEvaluator::with_kernel(cdln, kernel);
        let whole = eval.classify_batch(&test_set.images).expect("whole batch");
        for chunk_size in [1usize, 7, 50] {
            let mut chunked = Vec::with_capacity(test_set.len());
            for chunk in test_set.images.chunks(chunk_size) {
                chunked.extend(eval.classify_batch(chunk).expect("chunk"));
            }
            assert_eq!(whole, chunked, "chunk size {chunk_size}, kernel {kernel:?}");
        }
    }
}

/// A batch of one runs the selected kernel and the fused stage groups, not
/// a per-image detour: every image classified alone through a
/// `BatchEvaluator` equals `CdlNetwork::classify`, per `GemmKernel`.
#[test]
fn batch_of_one_is_bit_identical_to_per_image() {
    let (cdln, test_set) = trained_cdln();
    let images = &test_set.images[..48.min(test_set.len())];
    for kernel in GemmKernel::ALL {
        let mut eval = BatchEvaluator::with_kernel(cdln, kernel);
        for image in images {
            let batched = eval
                .classify_batch(std::slice::from_ref(image))
                .expect("batch of one");
            assert_eq!(batched.len(), 1);
            let single = cdln.classify(image).expect("per-image pass");
            assert_eq!(batched[0], single, "kernel {kernel:?}");
        }
    }
}
