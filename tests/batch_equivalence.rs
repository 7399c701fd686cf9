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
use cdl::tensor::{GemmKernel, Tensor};
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
            // δ-free: one pass stores every head's scores, the policy is
            // applied to the stored rows (the gated loop under each policy
            // kind is `cdl_core::batch`'s own unit test)
            let batched = eval
                .trace(images)
                .expect("batched pass")
                .outputs(|_| policy, None)
                .expect("replay");
            for (image, out) in images.iter().zip(&batched) {
                let single = cdln
                    .classify_with(image, |_| policy, None)
                    .expect("per-image");
                assert_eq!(*out, single, "policy {policy}, kernel {kernel:?}");
            }
        }
    }
}

/// The trace replays everything the per-image cascade can be asked: a
/// per-stage schedule (strict-then-lax, lax-then-strict, and one shorter
/// than the cascade), every depth cap with and without a δ override, and
/// the baseline's label — for a batch of one and for batches on either side
/// of the 8-image block edge, on both arms.
#[test]
fn trace_replays_schedules_depth_caps_and_the_baseline() {
    use cdl::core::confidence::ExitOverride;
    let (cdln, test_set) = trained_cdln();
    let sigmoid = ConfidencePolicy::sigmoid_prob;
    let schedules = [
        vec![sigmoid(0.8), sigmoid(0.4)],
        vec![sigmoid(0.4), sigmoid(0.8)],
        vec![ConfidencePolicy::margin(0.2)],
    ];
    for kernel in GemmKernel::ALL {
        let mut eval = BatchEvaluator::with_kernel(cdln, kernel);
        for n in [1usize, 7, 8, 9, 17, 64] {
            let images = &test_set.images[..n];
            let trace = eval.trace(images).expect("trace");
            assert_eq!(trace.stage_count(), cdln.stage_count());
            for schedule in &schedules {
                let replayed = trace
                    .outputs(|s| schedule[s.min(schedule.len() - 1)], None)
                    .expect("replay");
                assert_eq!(replayed.len(), n);
                for (image, out) in images.iter().zip(&replayed) {
                    let single = cdln
                        .classify_with(image, |s| schedule[s.min(schedule.len() - 1)], None)
                        .expect("oracle");
                    assert_eq!(*out, single, "{schedule:?}, n={n}, kernel {kernel:?}");
                }
            }
            for cap in 0..=cdln.stage_count() {
                for delta in [None, Some(0.9)] {
                    let ovr = ExitOverride {
                        delta,
                        max_stage: Some(cap),
                    };
                    let policy = ovr.effective_policy(cdln.policy());
                    let replayed = trace.outputs(|_| policy, ovr.max_stage).expect("replay");
                    for (image, out) in images.iter().zip(&replayed) {
                        let single = cdln.classify_with_override(image, ovr).expect("oracle");
                        assert_eq!(*out, single, "{ovr}, n={n}, kernel {kernel:?}");
                    }
                }
            }
            for (i, image) in images.iter().enumerate() {
                let (label, _) = cdln.classify_baseline(image).expect("baseline");
                assert_eq!(trace.baseline_label(i), label, "n={n}, kernel {kernel:?}");
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

/// The two committed benchmark models (MNIST_2C: 24- and 8-wide maps, the
/// direct kernel; MNIST_3C: 26-, 10- and 3-wide maps, the lanes-across-images
/// kernel and its remainders).
fn committed_models() -> [(&'static str, CdlNetwork); 2] {
    let load = |json: &str| {
        serde_json::from_str::<cdl::core::persist::SavedCdl>(json)
            .expect("committed model parses")
            .restore()
            .expect("committed model restores")
    };
    [
        (
            "mnist_2c",
            load(include_str!("../benchmark/models/mnist_2c.json")),
        ),
        (
            "mnist_3c",
            load(include_str!("../benchmark/models/mnist_3c.json")),
        ),
    ]
}

/// Releases the process-global forced-fallback hook even when an assert
/// unwinds (results are flip-immune, so tests running beside this one are
/// unaffected either way).
struct FallbackGuard;

impl Drop for FallbackGuard {
    fn drop(&mut self) {
        cdl::tensor::gemm::force_simd_fallback(false);
    }
}

/// A batch of `n` pool images of which exactly `reach[d - 1]` run `d` or
/// more stages past the first (so `reach[0]` survive the first gate,
/// `reach[1]` the second), spread through the batch rather than sorted, so
/// compaction has holes to close on both sides of every block edge. `depth`
/// is the oracle's `stages_activated - 1` per pool image.
fn compose(pool: &[Tensor], depth: &[usize], n: usize, reach: &[usize]) -> Vec<Tensor> {
    let mut taken = vec![0usize; reach.len() + 1];
    let mut pick = |d: usize| {
        let of_depth: Vec<usize> = (0..pool.len())
            .filter(|&i| {
                if d == reach.len() {
                    depth[i] >= d
                } else {
                    depth[i] == d
                }
            })
            .collect();
        assert!(!of_depth.is_empty(), "pool has no image of depth {d}");
        taken[d] += 1;
        pool[of_depth[(taken[d] - 1) % of_depth.len()]].clone()
    };
    // how many images of each exact depth (the deepest class is "or more")
    let mut want: Vec<usize> = Vec::new();
    want.push(n - reach[0]);
    for d in 0..reach.len() {
        want.push(reach[d] - reach.get(d + 1).copied().unwrap_or(0));
    }
    let mut batch: Vec<Option<Tensor>> = vec![None; n];
    // deepest first, each class strided through the free slots
    let mut slot = 0;
    for d in (0..want.len()).rev() {
        for _ in 0..want[d] {
            while batch[slot % n].is_some() {
                slot += 1;
            }
            batch[slot % n] = Some(pick(d));
            slot += 5;
        }
    }
    batch.into_iter().map(Option::unwrap).collect()
}

/// The evaluator across the 8-image block edge: both committed models at
/// batch sizes around one, two and many blocks, composed so that the
/// survivor counts after the first and the second gate land on 0, 1, 7, 8
/// and 9 — empty, lone, one short of a block, a block, one over — on both
/// arms with the forced-fallback hook off and on, every output against the
/// per-image oracle under the same override.
#[test]
fn survivor_counts_around_the_block_edge_are_bit_identical() {
    use cdl::core::confidence::ExitOverride;
    let pool = SyntheticMnist::default()
        .generate_split(0, 700, 41)
        .1
        .images;
    let _guard = FallbackGuard;
    for (name, net) in committed_models() {
        for ovr in [ExitOverride::NONE, ExitOverride::with_delta(0.93)] {
            let oracle: Vec<_> = pool
                .iter()
                .map(|x| net.classify_with_override(x, ovr).expect("oracle"))
                .collect();
            let depth: Vec<usize> = oracle
                .iter()
                .map(|o| o.stages_activated as usize - 1)
                .collect();
            let gates = net.stage_count();
            for n in [1usize, 7, 8, 9, 16, 17, 64, 257] {
                // survivor counts per gate, non-increasing, within `n`
                let counts: Vec<usize> = [0usize, 1, 7, 8, 9]
                    .into_iter()
                    .filter(|&s| s <= n)
                    .collect();
                let mut reaches: Vec<Vec<usize>> = counts.iter().map(|&s| vec![s]).collect();
                for _ in 1..gates {
                    reaches = reaches
                        .into_iter()
                        .flat_map(|r| {
                            let last = *r.last().unwrap();
                            counts
                                .iter()
                                .filter(move |&&s| s <= last)
                                .map(move |&s| [r.clone(), vec![s]].concat())
                                .collect::<Vec<_>>()
                        })
                        .collect();
                }
                for reach in reaches {
                    let batch = compose(&pool, &depth, n, &reach);
                    let want: Vec<_> = batch
                        .iter()
                        .map(|x| net.classify_with_override(x, ovr).expect("oracle"))
                        .collect();
                    for (gate, &survivors) in reach.iter().enumerate() {
                        let seen = want
                            .iter()
                            .filter(|o| o.stages_activated as usize > gate + 1)
                            .count();
                        assert_eq!(seen, survivors, "{name} n={n} {reach:?}: gate {gate}");
                    }
                    for kernel in GemmKernel::ALL {
                        for forced in [false, true] {
                            cdl::tensor::gemm::force_simd_fallback(forced);
                            let got = BatchEvaluator::with_kernel(&net, kernel)
                                .classify_batch_with_override(&batch, ovr)
                                .expect("batched pass");
                            assert_eq!(
                                got, want,
                                "{name} n={n} survivors {reach:?} {ovr} {kernel:?} forced={forced}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Inputs that sit **on** a gate: the trace knows each image's stage-0 and
/// stage-1 confidence `c`, so δ is set to `c` itself and to its two `f32`
/// neighbours — the exit flips between them — and the per-image oracle, the
/// gated batch path and the trace's replay must agree on exit stage, label
/// and confidence bits, for both committed models on both arms.
#[test]
fn marginal_inputs_exit_identically_on_every_path() {
    use cdl::core::confidence::ExitOverride;
    let pool = SyntheticMnist::default().generate_split(0, 96, 47).1.images;
    for (name, net) in committed_models() {
        for kernel in GemmKernel::ALL {
            let mut eval = BatchEvaluator::with_kernel(&net, kernel);
            let trace = eval.trace(&pool).expect("trace");
            let mut flips = 0usize;
            for stage in 0..net.stage_count() {
                // δ = 1 lets (next to) nothing exit by itself: the cap makes
                // every image that reaches `stage` report its confidence there
                let at_stage = trace
                    .outputs(|_| net.policy().with_threshold(1.0), Some(stage))
                    .expect("replay");
                let marginal = (0..pool.len()).filter(|&i| at_stage[i].exit_stage == stage);
                for i in marginal.take(24) {
                    let c = at_stage[i].confidence;
                    let mut exits = Vec::new();
                    for delta in [c.next_down(), c, c.next_up()] {
                        let ovr = ExitOverride::with_delta(delta);
                        if ovr.validate_for(net.policy()).is_err() {
                            continue; // c saturated at 1.0: no δ above it
                        }
                        let what = format!("{name} {kernel:?} stage {stage} input {i} δ={delta:e}");
                        let oracle = net.classify_with_override(&pool[i], ovr).expect("oracle");
                        let gated = eval
                            .classify_batch_with_override(&pool[i..i + 1], ovr)
                            .expect("gated batch");
                        let replayed = trace
                            .outputs(|_| net.policy().with_threshold(delta), None)
                            .expect("replay");
                        assert_eq!(gated[0], oracle, "{what}: gated batch");
                        assert_eq!(replayed[i], oracle, "{what}: trace");
                        assert_eq!(
                            replayed[i].confidence.to_bits(),
                            oracle.confidence.to_bits(),
                            "{what}"
                        );
                        exits.push(oracle.exit_stage);
                    }
                    flips += usize::from(exits.windows(2).any(|w| w[0] != w[1]));
                }
            }
            // the sample is only marginal if one ulp of δ moves exits
            assert!(flips >= 24, "{name} {kernel:?}: {flips} inputs flipped");
        }
    }
}

/// A shed hook evicting a run of inputs that straddles a block edge (rows
/// 6..=9 of 17 deep images) at every boundary: the evicted settle with the
/// work they did, the rest — now lying in different lanes of different
/// blocks than an unshed pass would put them in — stay bit-identical.
#[test]
fn shedding_across_a_block_edge_leaves_survivors_bit_identical() {
    use cdl::core::batch::SheddableOutcome;
    use cdl::core::confidence::ExitOverride;
    let pool = SyntheticMnist::default()
        .generate_split(0, 400, 43)
        .1
        .images;
    // never exit early: every image is offered at every boundary
    let ovr = ExitOverride::with_delta(1.0);
    let _guard = FallbackGuard;
    for (name, net) in committed_models() {
        let batch = &pool[..17];
        let want: Vec<_> = batch
            .iter()
            .map(|x| net.classify_with_override(x, ovr).expect("oracle"))
            .collect();
        for boundary in 1..=net.stage_count() {
            for kernel in GemmKernel::ALL {
                for forced in [false, true] {
                    cdl::tensor::gemm::force_simd_fallback(forced);
                    let got = BatchEvaluator::with_kernel(&net, kernel)
                        .classify_stream_sheddable(
                            batch,
                            &[ovr; 17],
                            &mut |_, _| {},
                            &mut |next_stage, idx| next_stage == boundary && (6..=9).contains(&idx),
                        )
                        .expect("sheddable pass");
                    for (i, outcome) in got.iter().enumerate() {
                        let what = format!(
                            "{name} boundary {boundary} input {i} {kernel:?} forced={forced}"
                        );
                        match outcome {
                            SheddableOutcome::Shed(partial) => {
                                assert!((6..=9).contains(&i), "{what}: shed");
                                assert_eq!(partial.stages_activated, boundary as u64, "{what}");
                            }
                            SheddableOutcome::Done(out) => {
                                assert!(!(6..=9).contains(&i), "{what}: not shed");
                                assert_eq!(*out, want[i], "{what}");
                            }
                        }
                    }
                }
            }
        }
    }
}
