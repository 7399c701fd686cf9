//! Chaos suite: replica fault tolerance under scripted failures.
//!
//! Every test here injects a deterministic [`FaultPlan`] into one replica
//! of a set and pins the router's resilience contract:
//!
//! * **every submitted request settles** — bit-identical output, a
//!   retried success, or a typed error; never a hang;
//! * **health tracking** evicts a misbehaving replica
//!   (`Healthy → Degraded → Evicted`), readmits it through bounded canary
//!   probes (`Probing → Healthy`) once the fault clears, and never routes
//!   a request to an `Evicted` replica while siblings are live;
//! * **retries and hedges** spend redundancy at zero marginal evaluator
//!   cost — the losing side of a race is cancelled before evaluation —
//!   for requests arriving over TCP exactly as for in-process ones;
//! * **hot-swap** ([`Router::swap_model`]) loses nothing under concurrent
//!   load, and every response is consistent with the network that was
//!   current when its request was placed;
//! * a TCP admission **parked** on a full gate resumes at that gate's next
//!   release, which calls the waker the refusal left on it; no poll backs
//!   it up.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cdl::core::arch;
use cdl::core::network::CdlOutput;
use cdl::hw::OpCount;
use cdl::serve::{
    BatchPolicy, EdgeConfig, FaultKind, FaultPlan, HealthPolicy, Pending, PlacementPolicy,
    ReplicaHealth, ReplicaSpec, RetryPolicy, Router, ServeError, ServerConfig, ShardSpec,
    SubmitOptions, TcpClient, TcpServer,
};

mod common;
use common::{assert_settled, assert_settled_with, build_untrained, image};

fn config(policy: BatchPolicy, queue_capacity: usize) -> ServerConfig {
    ServerConfig {
        policy,
        queue_capacity,
        workers: 1,
        ..ServerConfig::default()
    }
}

/// The flagship sequence: a replica stalled mid-stream by a scripted
/// slowdown walks `Healthy → Degraded → Evicted` and — once the fault
/// window is exhausted — `→ Probing → Healthy`, while every request
/// submitted throughout settles bit-identically and the evicted replica
/// receives zero placements.
#[test]
fn stalled_replica_is_evicted_and_readmitted_with_no_lost_requests() {
    let net = build_untrained(arch::mnist_2c(), 5);
    // replica 1 delays each of its first 8 batches by 80ms — far over the
    // 60ms p99 limit; with by_size(1) each request is its own batch, so
    // the fault affects exactly its first 8 requests
    let router = Router::start(vec![ShardSpec::new(
        "m",
        Arc::clone(&net),
        config(BatchPolicy::by_size(1), 64),
    )
    .replicated(ReplicaSpec::new(3, PlacementPolicy::RoundRobin))
    .health(HealthPolicy {
        error_threshold: 0.5,
        latency_threshold: Some(Duration::from_millis(60)),
        latency_quantile: 0.99,
        min_samples: 4,
        evict_after: 2,
        probe_budget: 4,
        check_every: 0, // checks are driven manually for determinism
    })
    .fault_on(
        1,
        FaultPlan::scripted(vec![(
            0,
            FaultKind::SlowFactor {
                per_batch: Duration::from_millis(80),
                batches: 8,
            },
        )]),
    )])
    .unwrap();
    let model = router.model_id("m").unwrap();

    let mut all_outputs: Vec<(usize, CdlOutput)> = Vec::new();
    let mut run_wave = |n: usize| {
        let pendings: Vec<(usize, Pending)> = (0..n)
            .map(|i| (i, router.submit(model, image(i)).unwrap()))
            .collect();
        for (i, pending) in pendings {
            all_outputs.push((i, pending.wait().unwrap()));
        }
    };

    // wave 1: RR spreads 12 over 3 replicas; replica 1's four are slow
    run_wave(12);
    let states = router.check_health(model).unwrap();
    assert_eq!(
        states,
        [
            ReplicaHealth::Healthy,
            ReplicaHealth::Degraded,
            ReplicaHealth::Healthy
        ],
        "one bad window degrades"
    );

    // wave 2: still live while Degraded, still slow → second bad window
    run_wave(12);
    let states = router.check_health(model).unwrap();
    assert_eq!(states[1], ReplicaHealth::Evicted, "{states:?}");

    // wave 3: an evicted replica must receive nothing while siblings live
    let routed_before: Vec<u64> = router
        .shard_metrics(model)
        .unwrap()
        .replicas
        .iter()
        .map(|r| r.routed)
        .collect();
    run_wave(12);
    let routed_after: Vec<u64> = router
        .shard_metrics(model)
        .unwrap()
        .replicas
        .iter()
        .map(|r| r.routed)
        .collect();
    assert_eq!(
        routed_after[1], routed_before[1],
        "evicted replica was routed to"
    );
    assert_eq!(
        routed_after[0] + routed_after[2],
        routed_before[0] + routed_before[2] + 12
    );

    // the check on an evicted replica opens the canary window
    let states = router.check_health(model).unwrap();
    assert_eq!(states[1], ReplicaHealth::Probing, "{states:?}");

    // wave 4: the slowdown window (8 batches) is exhausted — the canary
    // probes run fast and the replica earns readmission
    run_wave(12);
    let states = router.check_health(model).unwrap();
    assert_eq!(
        states,
        [
            ReplicaHealth::Healthy,
            ReplicaHealth::Healthy,
            ReplicaHealth::Healthy
        ],
        "fault cleared, replica readmitted"
    );

    // every answer across all waves is bit-identical to the network
    for (i, out) in &all_outputs {
        assert_eq!(*out, net.classify(&image(*i)).unwrap(), "request {i}");
    }
    let metrics = router.shutdown();
    let shard = &metrics.shards[0];
    assert_eq!(
        shard.replicas[1].transitions, 4,
        "exactly Healthy→Degraded→Evicted→Probing→Healthy"
    );
    assert_eq!(shard.replicas[0].transitions, 0);
    assert_eq!(shard.replicas[2].transitions, 0);
    assert_eq!(metrics.total().completed, 48);
    assert_settled(&metrics);
}

/// A hedged request races a stalled primary: the hedge wins on the healthy
/// sibling, the caller gets the bit-identical answer fast, and the losing
/// attempt is cancelled before evaluation — zero evaluator ops spent.
#[test]
fn hedged_request_wins_on_a_healthy_replica_at_zero_loser_ops() {
    let net = build_untrained(arch::mnist_2c(), 5);
    let router = Router::start(vec![ShardSpec::new(
        "m",
        Arc::clone(&net),
        config(BatchPolicy::by_size(1), 8),
    )
    .replicated(ReplicaSpec::new(2, PlacementPolicy::RoundRobin))
    .retry(
        RetryPolicy::retries(0)
            .hedged(0.5)
            .hedge_floor(Duration::from_millis(30)),
    )
    // the primary placement (round-robin starts at replica 0) stalls its
    // first batch half a second — far past the 30ms hedge floor
    .fault_on(
        0,
        FaultPlan::scripted(vec![(0, FaultKind::Stall(Duration::from_millis(500)))]),
    )])
    .unwrap();
    let model = router.model_id("m").unwrap();
    let x = image(3);
    let started = Instant::now();
    let out = router.submit(model, x.clone()).unwrap().wait().unwrap();
    let elapsed = started.elapsed();
    assert_eq!(out, net.classify(&x).unwrap());
    assert!(
        elapsed < Duration::from_millis(400),
        "hedge did not win: {elapsed:?}"
    );
    let metrics = router.shutdown();
    let shard = &metrics.shards[0];
    assert_eq!(shard.hedges, 1, "exactly one hedged attempt");
    assert_eq!(shard.retries, 0);
    // the loser was admitted, then cancelled before its worker evaluated:
    // it cost a queue slot, never an op
    let loser = &shard.replicas[0].metrics;
    assert_eq!(loser.submitted, 1);
    assert_eq!(loser.cancelled, 1);
    assert_eq!(loser.completed, 0);
    assert_eq!(loser.total_ops, OpCount::ZERO, "loser burned evaluator ops");
    let winner = &shard.replicas[1].metrics;
    assert_eq!(winner.completed, 1);
    assert_settled_with(&metrics, [&out]);
}

/// Budgeted retries absorb an error burst: every request refused by the
/// bursting replica is relaunched on its sibling and settles successfully.
#[test]
fn retries_recover_from_an_error_burst() {
    let net = build_untrained(arch::mnist_2c(), 5);
    let router = Router::start(vec![ShardSpec::new(
        "m",
        Arc::clone(&net),
        config(BatchPolicy::new(usize::MAX), 64),
    )
    .replicated(ReplicaSpec::new(2, PlacementPolicy::RoundRobin))
    .retry(RetryPolicy::retries(2))
    .fault_on(0, FaultPlan::scripted(vec![(0, FaultKind::ErrorBurst(3))]))])
    .unwrap();
    let model = router.model_id("m").unwrap();
    // round-robin alternates 0,1,0,1,…: the first three placements on
    // replica 0 are refused (admissions #0–#2) and must be retried onto
    // replica 1; the fourth (admission #3) passes
    let pendings: Vec<(usize, Pending)> = (0..8)
        .map(|i| (i, router.submit(model, image(i)).unwrap()))
        .collect();
    let mut delivered = Vec::new();
    for (i, pending) in pendings {
        let out = pending.wait().unwrap();
        assert_eq!(
            out,
            net.classify(&image(i)).unwrap(),
            "request {i} settled wrong"
        );
        delivered.push(out);
    }
    let metrics = router.shutdown();
    let shard = &metrics.shards[0];
    assert_eq!(shard.retries, 3, "one retry per refused admission");
    assert_eq!(shard.hedges, 0);
    assert_eq!(shard.replicas[0].metrics.faults, 3);
    assert_eq!(shard.replicas[0].metrics.completed, 1);
    assert_eq!(shard.replicas[1].metrics.completed, 7);
    assert_eq!(metrics.total().completed, 8);
    // refused placements count as `faults`, outside `submitted`
    assert_settled_with(&metrics, &delivered);
}

/// The wire twin of [`retries_recover_from_an_error_burst`]: the same shard
/// behind a [`TcpServer`]. The edge admits through the same `Router::admit`
/// as in-process submitters, so the refused placements are retried onto
/// the healthy replica instead of coming back to the client as errors.
#[test]
fn retries_recover_from_an_error_burst_over_the_wire() {
    let net = build_untrained(arch::mnist_2c(), 5);
    let router = Arc::new(
        Router::start(vec![ShardSpec::new(
            "m",
            Arc::clone(&net),
            config(BatchPolicy::new(usize::MAX), 64),
        )
        .replicated(ReplicaSpec::new(2, PlacementPolicy::RoundRobin))
        .retry(RetryPolicy::retries(2))
        .fault_on(0, FaultPlan::scripted(vec![(0, FaultKind::ErrorBurst(3))]))])
        .unwrap(),
    );
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut client = TcpClient::connect(edge.local_addr()).unwrap();
    for i in 0..8 {
        let reply = client
            .call("m", &image(i), SubmitOptions::default())
            .unwrap();
        assert_eq!(
            reply.expect("a refused placement must be retried, not returned"),
            net.classify(&image(i)).unwrap(),
            "request {i} settled wrong"
        );
    }
    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    let shard = &metrics.shards[0];
    assert_eq!(shard.retries, 3, "one retry per refused admission");
    assert_eq!(shard.replicas[0].metrics.faults, 3);
    assert_eq!(metrics.total().completed, 8);
    assert_settled(&metrics);
}

/// Hot-swapping the model under concurrent load loses nothing: every
/// in-flight request settles with the output of whichever network was
/// current when it was placed, and post-swap traffic runs the new network.
#[test]
fn swap_model_under_load_loses_nothing() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 50;
    let net_a = build_untrained(arch::mnist_2c(), 5);
    let net_b = build_untrained(arch::mnist_2c(), 11);
    let expected: Vec<(CdlOutput, CdlOutput)> = (0..11)
        .map(|i| {
            (
                net_a.classify(&image(i)).unwrap(),
                net_b.classify(&image(i)).unwrap(),
            )
        })
        .collect();
    let router = Router::start(vec![ShardSpec::new(
        "m",
        Arc::clone(&net_a),
        config(BatchPolicy::new(usize::MAX), 64),
    )
    .replicated(ReplicaSpec::new(2, PlacementPolicy::RoundRobin))])
    .unwrap();
    let model = router.model_id("m").unwrap();

    let _bound = common::Watchdog::arm(Duration::from_secs(300), "hammers across a swap");
    let mut delivered: Vec<CdlOutput> = std::thread::scope(|scope| {
        let router = &router;
        let expected = &expected;
        let hammers: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let answer = |j| {
                        let i = t * PER_THREAD + j;
                        let out = router.submit(model, image(i)).unwrap().wait().unwrap();
                        let (a, b) = &expected[i % 11];
                        assert!(
                            out == *a || out == *b,
                            "request {i} matches neither network"
                        );
                        out
                    };
                    (0..PER_THREAD).map(answer).collect::<Vec<_>>()
                })
            })
            .collect();
        // swap mid-hammer — no drain, no pause
        std::thread::sleep(Duration::from_millis(10));
        router.swap_model(model, Arc::clone(&net_b)).unwrap();
        let answers = hammers.into_iter().flat_map(|h| h.join().unwrap());
        answers.collect()
    });

    // the swap completed before the hammers finished asserting membership;
    // from here every answer must be the new network's
    assert!(Arc::ptr_eq(&router.network(model).unwrap(), &net_b));
    let out = router.submit(model, image(7)).unwrap().wait().unwrap();
    assert_eq!(out, net_b.classify(&image(7)).unwrap());
    delivered.push(out);

    let metrics = router.shutdown();
    assert_eq!(
        metrics.total().completed,
        (THREADS * PER_THREAD) as u64 + 1,
        "a request was lost across the swap"
    );
    assert_eq!(metrics.total().failed, 0);
    // the retired pipelines' ledgers merged into the live ones: every
    // conservation law holds across the swap, op for op
    assert_settled_with(&metrics, &delivered);
}

/// CI chaos smoke: a *seeded* fault plan (error burst + slowdown drawn
/// from a seed) against a replicated shard with health checks and retries.
/// Every request settles successfully, and once the scripted faults are
/// exhausted the set converges back to all-`Healthy`.
#[test]
fn chaos_smoke_recovers_to_healthy() {
    let net = build_untrained(arch::mnist_2c(), 5);
    let router = Router::start(vec![ShardSpec::new(
        "m",
        Arc::clone(&net),
        config(BatchPolicy::new(usize::MAX), 64),
    )
    .replicated(ReplicaSpec::new(2, PlacementPolicy::RoundRobin))
    .health(HealthPolicy {
        error_threshold: 0.25,
        latency_threshold: None,
        min_samples: 4,
        evict_after: 2,
        probe_budget: 4,
        check_every: 0,
        ..HealthPolicy::default()
    })
    .retry(RetryPolicy::retries(2))
    .fault_on(
        0,
        FaultPlan::seeded(
            42,
            12,
            &[
                FaultKind::ErrorBurst(5),
                FaultKind::SlowFactor {
                    per_batch: Duration::from_millis(5),
                    batches: 4,
                },
            ],
        ),
    )])
    .unwrap();
    let model = router.model_id("m").unwrap();

    let mut submitted = 0usize;
    let mut recovered = false;
    for round in 0..12 {
        let pendings: Vec<(usize, Pending)> = (0..8)
            .map(|i| (i, router.submit(model, image(i)).unwrap()))
            .collect();
        submitted += pendings.len();
        for (i, pending) in pendings {
            // zero lost requests: every submit settles Ok (refusals are
            // absorbed by the retry budget) and bit-identical
            assert_eq!(
                pending.wait().unwrap(),
                net.classify(&image(i)).unwrap(),
                "round {round} request {i}"
            );
        }
        let states = router.check_health(model).unwrap();
        if round > 0 && states.iter().all(|&s| s == ReplicaHealth::Healthy) {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "replica set never converged back to Healthy");
    let metrics = router.shutdown();
    assert_eq!(metrics.total().completed, submitted as u64, "lost requests");
    assert_settled(&metrics);
}

/// A parked (gate-full) TCP admission resumes when the gate frees, not
/// when a poll interval elapses. The parked connection lives on a
/// *different* poller than the one whose completion frees the gate, so
/// only the waker the refusing gate kept can explain a prompt resume (the
/// edge has no poll to fall back on).
#[test]
fn parked_admission_resumes_on_gate_vacancy_without_polling() {
    let net = build_untrained(arch::mnist_2c(), 5);
    // capacity 1: the stalled first request monopolises the gate
    let router = Arc::new(
        Router::start(vec![ShardSpec::new(
            "m",
            Arc::clone(&net),
            config(BatchPolicy::by_size(1), 1),
        )
        .fault_on(
            0,
            FaultPlan::scripted(vec![(0, FaultKind::Stall(Duration::from_millis(300)))]),
        )])
        .unwrap(),
    );
    let edge = TcpServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&router),
        EdgeConfig { pollers: 2 }, // conn A → poller 0, conn B → poller 1
    )
    .unwrap();
    let addr = edge.local_addr();

    let _bound = common::Watchdog::arm(Duration::from_secs(300), "clients on a full gate");
    let (done_a, done_b) = std::thread::scope(|scope| {
        let a = scope.spawn(move || {
            let mut client = TcpClient::connect(addr).unwrap();
            client
                .call("m", &image(0), SubmitOptions::default())
                .unwrap()
                .unwrap();
            Instant::now()
        });
        let b = scope.spawn(move || {
            // let A win the only gate slot first
            std::thread::sleep(Duration::from_millis(50));
            let mut client = TcpClient::connect(addr).unwrap();
            client
                .call("m", &image(1), SubmitOptions::default())
                .unwrap()
                .unwrap();
            Instant::now()
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    // A settles at ~300ms (the stall); B's parked admission must ride the
    // wakeup of that release and finish within tens of ms of A — with the
    // wakeup lost, nothing else would ever retry B
    let gap = done_b.saturating_duration_since(done_a);
    assert!(
        gap < Duration::from_millis(100),
        "parked admission resumed by polling, not wakeup: {gap:?} behind"
    );
    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    assert_eq!(metrics.total().completed, 2);
}

/// Property sweep: random seeded error bursts × every placement policy.
/// Whatever the plan does, (a) a replica observed `Evicted` receives zero
/// placements while siblings are live, (b) every successful answer is
/// bit-identical, (c) settled bookkeeping holds per replica and the
/// placement histogram accounts for every routed request.
#[test]
fn placement_never_routes_to_an_evicted_replica() {
    for seed in 0..6u64 {
        for placement in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::PowerOfTwoChoices,
        ] {
            let net = build_untrained(arch::mnist_2c(), 5);
            let faulty = (seed % 3) as usize;
            let router = Router::start(vec![ShardSpec::new(
                "m",
                Arc::clone(&net),
                config(BatchPolicy::new(usize::MAX), 64),
            )
            .replicated(ReplicaSpec::new(3, placement))
            .health(HealthPolicy {
                error_threshold: 0.2,
                latency_threshold: None,
                min_samples: 2,
                evict_after: 1,
                probe_budget: 2,
                check_every: 0,
                ..HealthPolicy::default()
            })
            .fault_on(
                faulty,
                FaultPlan::seeded(
                    seed,
                    8,
                    &[FaultKind::ErrorBurst(6), FaultKind::ErrorBurst(4)],
                ),
            )])
            .unwrap();
            let model = router.model_id("m").unwrap();

            let mut ok = 0u64;
            let mut refused = 0u64;
            let mut drive = |n: usize| {
                let pendings: Vec<(usize, Result<Pending, ServeError>)> = (0..n)
                    .map(|i| (i, router.submit(model, image(i))))
                    .collect();
                for (i, submitted) in pendings {
                    match submitted {
                        Ok(pending) => {
                            assert_eq!(
                                pending.wait().unwrap(),
                                net.classify(&image(i)).unwrap(),
                                "seed {seed} {placement} request {i}"
                            );
                            ok += 1;
                        }
                        // no retry policy here: scripted refusals surface
                        // as typed Fault errors — settled, not lost
                        Err(ServeError::Fault(_)) => refused += 1,
                        Err(e) => panic!("unexpected refusal: {e}"),
                    }
                }
            };

            // several judged windows so Degraded replicas can be evicted
            for _ in 0..3 {
                drive(12);
                router.check_health(model).unwrap();
            }
            let states = router.replica_health(model).unwrap();
            let routed_before: Vec<u64> = router
                .shard_metrics(model)
                .unwrap()
                .replicas
                .iter()
                .map(|r| r.routed)
                .collect();
            // no health check runs during this wave, so the evicted set is
            // frozen: it must receive nothing
            drive(24);
            let shard = router.shard_metrics(model).unwrap();
            for (i, state) in states.iter().enumerate() {
                if *state == ReplicaHealth::Evicted {
                    assert_eq!(
                        shard.replicas[i].routed, routed_before[i],
                        "seed {seed} {placement}: evicted replica {i} was routed to"
                    );
                }
            }

            let metrics = router.shutdown();
            let shard = &metrics.shards[0];
            for replica in &shard.replicas {
                assert_eq!(
                    replica.routed, replica.metrics.submitted,
                    "seed {seed} {placement}"
                );
            }
            let histogram = shard.placement_histogram();
            assert_eq!(
                histogram.iter().sum::<u64>(),
                shard.replicas.iter().map(|r| r.routed).sum::<u64>(),
                "seed {seed} {placement}: placement histogram leaks requests"
            );
            assert_eq!(metrics.total().completed, ok);
            assert_eq!(metrics.total().faults, refused);
        }
    }
}
