//! Equivalence of streamed (server) and per-image inference.
//!
//! The serving layer must be a pure scheduling transformation: whatever
//! batches a request lands in — size-bound, deadline-bound or mixed
//! policies, concurrent clients, shutdown flushes — its `CdlOutput` (label,
//! exit stage, confidence, op count, stages, early-exit flag) must be
//! **bit-identical** to `CdlNetwork::classify` on the same image.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cdl::core::arch;
use cdl::core::builder::{BuilderConfig, CdlBuilder};
use cdl::core::confidence::ConfidencePolicy;
use cdl::core::network::CdlNetwork;
use cdl::dataset::SyntheticMnist;
use cdl::nn::network::Network;
use cdl::nn::trainer::{train, LabelledSet, TrainConfig};
use cdl::serve::{BatchPolicy, Pending, Server, ServerConfig};

mod common;

/// Trains once, shares across tests (training dominates runtime).
fn trained_cdln() -> &'static (Arc<CdlNetwork>, LabelledSet) {
    static SHARED: OnceLock<(Arc<CdlNetwork>, LabelledSet)> = OnceLock::new();
    SHARED.get_or_init(|| {
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
        (Arc::new(cdln), test_set)
    })
}

/// Streams every test image through a server with the given policy from
/// `clients` concurrent client threads and pins each response bit-identical
/// to the per-image path.
fn assert_server_equivalent(policy: BatchPolicy, clients: usize, workers: usize) {
    let (cdln, test_set) = trained_cdln();
    let server = Server::start(
        Arc::clone(cdln),
        ServerConfig {
            policy,
            queue_capacity: 256,
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("server start");

    let _bound = common::Watchdog::arm(Duration::from_secs(300), "serving clients");
    let outputs: Vec<(usize, cdl::core::network::CdlOutput)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = &server;
                scope.spawn(move || {
                    let mine: Vec<(usize, Pending)> = test_set
                        .images
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(clients)
                        .map(|(i, image)| (i, server.submit(image.clone()).unwrap()))
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
        let single = cdln.classify(&test_set.images[*i]).expect("per-image pass");
        // CdlOutput derives PartialEq: label, exit_stage, confidence (f32
        // equality, i.e. bit-identical scores), ops, stages_activated and
        // exited_early must all agree
        assert_eq!(*out, single, "request {i} under {policy:?}");
        early_exits += usize::from(out.exited_early);
    }
    // the comparison is only meaningful if the cascade actually branches
    assert!(
        early_exits > 0 && early_exits < outputs.len(),
        "cascade degenerated: {early_exits}/{} early exits",
        outputs.len()
    );

    let metrics = server.shutdown();
    assert_eq!(metrics.completed as usize, test_set.len());
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.queue_depth, 0);
    // op accounting flows through: the cumulative count equals the sum of
    // the (bit-identical) per-request counts
    let expected_ops: u64 = outputs.iter().map(|(_, o)| o.ops.compute_ops()).sum();
    assert_eq!(metrics.total_ops.compute_ops(), expected_ops);
    let batched: u64 = metrics
        .batch_size_histogram
        .iter()
        .enumerate()
        .map(|(size, &n)| size as u64 * n)
        .sum();
    assert_eq!(batched, metrics.completed);
    assert!(metrics.energy_pj > 0.0);
    assert_eq!(metrics.latency_histogram.count(), metrics.completed);
}

#[test]
fn size_bound_policy_is_bit_identical() {
    // batches dispatch only when full, so the clients'
    // wait() calls (which run before shutdown could flush a tail) only
    // terminate because the 160-image stream tiles into 16-request batches
    // exactly
    assert_eq!(trained_cdln().1.len() % 16, 0);
    assert_server_equivalent(BatchPolicy::by_size(16), 3, 2);
}

#[test]
fn uncapped_policy_is_bit_identical() {
    assert_server_equivalent(BatchPolicy::new(usize::MAX), 3, 2);
}

#[test]
fn capped_policy_is_bit_identical() {
    assert_server_equivalent(BatchPolicy::new(8), 4, 3);
}

#[test]
fn default_policy_is_bit_identical() {
    // the policy production runs: a free worker takes what is queued, so
    // batch sizes follow the race between three clients and two workers
    assert_server_equivalent(BatchPolicy::default(), 3, 2);
}

#[test]
fn single_request_batches_are_bit_identical() {
    // degenerate policy: every request is its own batch
    assert_server_equivalent(BatchPolicy::new(1), 2, 2);
}
