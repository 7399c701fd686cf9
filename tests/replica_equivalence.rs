//! Equivalence of replicated (replica-set) and per-image inference.
//!
//! Replication must be invisible in every answer: whatever replica a
//! [`PlacementPolicy`] places a request on, the response must stay
//! **bit-identical** to `CdlNetwork::classify_with_override` on the
//! routed model with the carried override — for every placement policy,
//! any interleaving of concurrent clients, and any override mix. What
//! replication *is* allowed to change is where work lands, so this suite
//! also pins the bookkeeping: per-replica `routed == submitted` in every
//! settled snapshot, placement histograms that sum to the shard's routed
//! count, and an exact round-robin split.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cdl::core::arch;
use cdl::core::builder::{BuilderConfig, CdlBuilder};
use cdl::core::confidence::{ConfidencePolicy, ExitOverride};
use cdl::core::network::CdlNetwork;
use cdl::dataset::SyntheticMnist;
use cdl::nn::network::Network;
use cdl::nn::trainer::{train, LabelledSet, TrainConfig};
use cdl::serve::{
    BatchPolicy, Pending, PlacementPolicy, ReplicaSpec, Router, RouterMetrics, ServerConfig,
    ShardSpec, SubmitOptions,
};

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

/// Default service level plus lax/strict δ and hard depth caps, so
/// replicas routinely batch several effective policies at once.
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

/// Streams every test image through a replicated two-model router from
/// `clients` concurrent threads — request `i` on model `i % 2` with
/// override `override_mix(i)` — pins bit-identity against the per-image
/// path, and returns the final metrics for placement-shape assertions.
fn assert_replicas_equivalent(placement: PlacementPolicy, clients: usize) -> RouterMetrics {
    let (m2c, m3c, test_set) = trained_pair();
    let config = ServerConfig {
        policy: BatchPolicy::new(8),
        queue_capacity: 256,
        workers: 1,
        ..ServerConfig::default()
    };
    let router = Router::start(vec![
        ShardSpec::new("MNIST_2C", Arc::clone(m2c), config.clone())
            .replicated(ReplicaSpec::new(3, placement)),
        ShardSpec::new("MNIST_3C", Arc::clone(m3c), config)
            .replicated(ReplicaSpec::new(2, placement)),
    ])
    .expect("router start");
    let models = [
        router.model_id("MNIST_2C").unwrap(),
        router.model_id("MNIST_3C").unwrap(),
    ];
    assert_eq!(router.replica_count(models[0]).unwrap(), 3);
    assert_eq!(router.replica_count(models[1]).unwrap(), 2);

    let _bound = common::Watchdog::arm(Duration::from_secs(300), "replica clients");
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
        // bit-identical WHICHEVER replica served it: label, exit_stage,
        // confidence, ops, stages_activated, exited_early all agree
        assert_eq!(*out, expected, "request {i} under {placement} placement");
        early_exits += usize::from(out.exited_early);
    }
    // the comparison is only meaningful if the cascade actually branches
    assert!(
        early_exits > 0 && early_exits < outputs.len(),
        "cascade degenerated: {early_exits}/{} early exits",
        outputs.len()
    );

    let metrics = router.shutdown();
    let half = (test_set.len() / 2) as u64;
    assert_eq!(metrics.total().completed as usize, test_set.len());
    assert_eq!(metrics.total().failed, 0);
    assert_eq!(metrics.total().cancelled, 0);
    assert_eq!(metrics.routing_histogram(), vec![half, half]);
    for shard in &metrics.shards {
        assert_eq!(shard.placement, placement);
        // the placement histogram partitions the shard's routed count…
        assert_eq!(
            shard.placement_histogram().iter().sum::<u64>(),
            shard.routed(),
            "{placement} histogram does not partition {}",
            shard.model
        );
        // …and in a settled snapshot every replica's router-side count
        // agrees exactly with its own admission count
        for (r, replica) in shard.replicas.iter().enumerate() {
            assert_eq!(
                replica.routed, replica.metrics.submitted,
                "{} replica {r} under {placement}",
                shard.model
            );
            assert_eq!(replica.metrics.cancelled, 0);
            assert_eq!(replica.metrics.queue_depth, 0);
        }
    }
    metrics
}

#[test]
fn round_robin_replicas_are_bit_identical_and_split_exactly() {
    let metrics = assert_replicas_equivalent(PlacementPolicy::RoundRobin, 4);
    // round-robin is deterministic about the split regardless of client
    // interleaving: each replica gets shard_routed / n ± 1
    for shard in &metrics.shards {
        let histogram = shard.placement_histogram();
        let n = histogram.len() as u64;
        let per = shard.routed() / n;
        for (r, &count) in histogram.iter().enumerate() {
            assert!(
                count == per || count == per + 1,
                "{} replica {r}: {count} routed, expected {per} or {}",
                shard.model,
                per + 1
            );
        }
    }
}

#[test]
fn least_loaded_replicas_are_bit_identical_and_all_exercised() {
    let metrics = assert_replicas_equivalent(PlacementPolicy::LeastLoaded, 4);
    // depth-driven placement makes no split promise at all — when queues
    // drain fast, ties legitimately pile onto replica 0 — but the
    // tie-break means replica 0 is always placed first
    for shard in &metrics.shards {
        assert!(
            shard.placement_histogram()[0] > 0,
            "{} replica 0 never placed",
            shard.model
        );
    }
}

#[test]
fn power_of_two_replicas_are_bit_identical_and_all_exercised() {
    let metrics = assert_replicas_equivalent(PlacementPolicy::PowerOfTwoChoices, 4);
    for shard in &metrics.shards {
        for (r, &count) in shard.placement_histogram().iter().enumerate() {
            assert!(count > 0, "{} replica {r} never placed", shard.model);
        }
    }
}
