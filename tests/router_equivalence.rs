//! Equivalence of sharded (router) and per-image inference.
//!
//! The sharded serving layer must be a pure scheduling transformation in
//! two extra dimensions beyond `serve_equivalence`: whatever **model** a
//! request is routed to and whatever **per-request δ/depth override** it
//! carries, its `CdlOutput` must be **bit-identical** to
//! `CdlNetwork::classify_with_override` with those options on that model —
//! for any interleaving of concurrent clients, any batch policy, and any
//! mix of overrides sharing a batch.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cdl::core::arch;
use cdl::core::builder::{BuilderConfig, CdlBuilder};
use cdl::core::confidence::{ConfidencePolicy, ExitOverride};
use cdl::core::network::CdlNetwork;
use cdl::dataset::SyntheticMnist;
use cdl::nn::network::Network;
use cdl::nn::trainer::{train, LabelledSet, TrainConfig};
use cdl::serve::{BatchPolicy, ModelId, Pending, Router, ServerConfig, ShardSpec, SubmitOptions};

mod common;

/// Trains MNIST_2C and MNIST_3C once, shares across tests (training
/// dominates runtime).
fn trained_pair() -> &'static (Arc<CdlNetwork>, Arc<CdlNetwork>, LabelledSet) {
    static SHARED: OnceLock<(Arc<CdlNetwork>, Arc<CdlNetwork>, LabelledSet)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let (train_set, test_set) = SyntheticMnist::default().generate_split(500, 160, 29);
        let build = |arch: cdl::core::arch::CdlArchitecture, seed: u64| {
            let mut base = Network::from_spec(&arch.spec, seed).expect("valid paper architecture");
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
            Arc::new(cdln)
        };
        (
            build(arch::mnist_2c(), 7),
            build(arch::mnist_3c(), 11),
            test_set,
        )
    })
}

/// The override mix a stream exercises: the default service level plus lax
/// and strict δ and hard depth caps, so batches routinely hold several
/// effective policies at once.
fn override_mix(i: usize) -> SubmitOptions {
    match i % 6 {
        0 | 1 => SubmitOptions::default(),
        2 => SubmitOptions::with_delta(0.35),
        3 => SubmitOptions::with_delta(0.95),
        4 => SubmitOptions::with_max_stage(0),
        _ => SubmitOptions {
            delta: Some(0.9),
            max_stage: Some(1),
            ..SubmitOptions::default()
        },
    }
}

/// Streams every test image through a two-shard router from `clients`
/// concurrent client threads — request `i` routed to shard `i % 2` with
/// override `override_mix(i)` — and pins each response bit-identical to the
/// per-image path on the routed model.
fn assert_router_equivalent(policy: BatchPolicy, clients: usize, workers: usize) {
    let (m2c, m3c, test_set) = trained_pair();
    let config = ServerConfig {
        policy,
        queue_capacity: 256,
        workers,
        ..ServerConfig::default()
    };
    let router = Router::start(vec![
        ShardSpec::new("MNIST_2C", Arc::clone(m2c), config.clone()),
        ShardSpec::new("MNIST_3C", Arc::clone(m3c), config),
    ])
    .expect("router start");
    let models = [
        router.model_id("MNIST_2C").unwrap(),
        router.model_id("MNIST_3C").unwrap(),
    ];

    let _bound = common::Watchdog::arm(Duration::from_secs(300), "routed clients");
    let outputs: Vec<(usize, cdl::core::network::CdlOutput)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let router = &router;
                let models = &models;
                scope.spawn(move || {
                    let mine: Vec<(usize, Pending)> = test_set
                        .images
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(clients)
                        .map(|(i, image)| {
                            let pending = router
                                .submit_with(models[i % 2], image.clone(), override_mix(i))
                                .unwrap();
                            (i, pending)
                        })
                        .collect();
                    mine.into_iter()
                        .map(|(i, pending)| (i, pending.wait().expect("response")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(outputs.len(), test_set.len());
    let mut early_exits = 0usize;
    for (i, out) in &outputs {
        let net: &CdlNetwork = if i % 2 == 0 { m2c } else { m3c };
        let opts = override_mix(*i);
        let expected = net
            .classify_with_override(
                &test_set.images[*i],
                ExitOverride {
                    delta: opts.delta,
                    max_stage: opts.max_stage,
                },
            )
            .expect("per-image pass");
        // CdlOutput derives PartialEq: label, exit_stage, confidence (f32
        // equality, i.e. bit-identical scores), ops, stages_activated and
        // exited_early must all agree — on the *routed* model with the
        // *carried* override
        assert_eq!(*out, expected, "request {i} under {policy:?} ({opts:?})");
        early_exits += usize::from(out.exited_early);
    }
    // the comparison is only meaningful if the cascade actually branches
    assert!(
        early_exits > 0 && early_exits < outputs.len(),
        "cascade degenerated: {early_exits}/{} early exits",
        outputs.len()
    );
    // depth-capped requests really were capped
    for (i, out) in &outputs {
        if override_mix(*i).max_stage == Some(0) {
            assert_eq!(out.exit_stage, 0, "request {i} escaped its depth cap");
        }
    }

    let metrics = router.shutdown();
    assert_eq!(metrics.total().completed as usize, test_set.len());
    assert_eq!(metrics.total().failed, 0);
    assert_eq!(metrics.total().queue_depth, 0);
    // routing histogram: even/odd split, and the router-side count agrees
    // with each shard's own admission count (nothing mis-routed or dropped)
    let half = (test_set.len() / 2) as u64;
    assert_eq!(metrics.routing_histogram(), vec![half, half]);
    for (shard, model) in metrics.shards.iter().zip(models) {
        assert_eq!(shard.routed(), shard.total().submitted, "{model}");
        assert_eq!(shard.total().completed, half);
        for replica in &shard.replicas {
            assert_eq!(replica.routed, replica.metrics.submitted, "{model}");
        }
    }
    // op accounting flows through per shard: each shard's cumulative count
    // equals the sum of its (bit-identical) per-request counts
    for (s, shard) in metrics.shards.iter().enumerate() {
        let expected_ops: u64 = outputs
            .iter()
            .filter(|(i, _)| i % 2 == s)
            .map(|(_, o)| o.ops.compute_ops())
            .sum();
        assert_eq!(shard.total().total_ops.compute_ops(), expected_ops);
        assert!(shard.total().energy_pj > 0.0);
    }
    assert_eq!(
        metrics.total().total_ops.compute_ops(),
        outputs
            .iter()
            .map(|(_, o)| o.ops.compute_ops())
            .sum::<u64>()
    );
}

#[test]
fn size_bound_policy_is_bit_identical_across_shards() {
    // batches dispatch only when full — each shard receives exactly half
    // the stream, which must tile into 8-request batches exactly or the
    // clients' wait() calls would hang before shutdown could flush
    let (_, _, test_set) = trained_pair();
    assert_eq!((test_set.len() / 2) % 8, 0);
    assert_router_equivalent(BatchPolicy::by_size(8), 3, 2);
}

#[test]
fn uncapped_policy_is_bit_identical_across_shards() {
    assert_router_equivalent(BatchPolicy::new(usize::MAX), 3, 2);
}

#[test]
fn capped_policy_is_bit_identical_across_shards() {
    assert_router_equivalent(BatchPolicy::new(8), 4, 2);
}

#[test]
fn default_policy_is_bit_identical_across_shards() {
    // the policy production runs: a free worker takes what is queued
    assert_router_equivalent(BatchPolicy::default(), 3, 2);
}

#[test]
fn single_request_batches_are_bit_identical_across_shards() {
    // degenerate policy: every request is its own batch
    assert_router_equivalent(BatchPolicy::new(1), 2, 2);
}

#[test]
fn a_batch_of_mixed_overrides_is_one_evaluated_batch() {
    // one worker holding out for four: the four requests are sealed as one
    // batch, and its four service levels share one evaluator pass
    let (_, m3c, test_set) = trained_pair();
    let config = ServerConfig {
        policy: BatchPolicy::by_size(4),
        workers: 1,
        ..ServerConfig::default()
    };
    let router = Router::start(vec![ShardSpec::new("MNIST_3C", Arc::clone(m3c), config)])
        .expect("router start");
    let model = router.model_id("MNIST_3C").unwrap();
    let options = [
        SubmitOptions::default(),
        SubmitOptions::with_delta(0.35),
        SubmitOptions::with_delta(0.9),
        SubmitOptions::with_max_stage(0),
    ];
    let pendings: Vec<Pending> = options
        .iter()
        .zip(&test_set.images)
        .map(|(&opts, image)| router.submit_with(model, image.clone(), opts).unwrap())
        .collect();
    for ((opts, image), pending) in options.iter().zip(&test_set.images).zip(pendings) {
        let expected = m3c
            .classify_with_override(image, opts.exit_override())
            .expect("per-image pass");
        assert_eq!(pending.wait().expect("response"), expected, "{opts:?}");
    }
    let total = router.shutdown().shards[0].total();
    assert_eq!(total.completed, 4);
    let batches: u64 = total.batch_size_histogram.iter().sum();
    assert_eq!(
        (batches, total.batch_size_histogram.get(4).copied()),
        (1, Some(1)),
        "one batch of four, not one per override: {:?}",
        total.batch_size_histogram
    );
}

#[test]
fn unknown_model_rejected_without_side_effects() {
    let (m2c, _, test_set) = trained_pair();
    let router = Router::start(vec![ShardSpec::new(
        "MNIST_2C",
        Arc::clone(m2c),
        ServerConfig::default(),
    )])
    .unwrap();
    let ghost = ModelId::from_index(1);
    assert!(matches!(
        router.submit(ghost, test_set.images[0].clone()),
        Err(cdl::serve::ServeError::UnknownModel(id)) if id == ghost
    ));
    let metrics = router.shutdown();
    assert_eq!(metrics.total().submitted, 0);
    assert_eq!(metrics.routing_histogram(), vec![0]);
}
