//! Chaos suite: one server per model under scripted failures.
//!
//! Every test here injects a deterministic [`FaultPlan`] (a stalled or a
//! panicking worker) or swaps a model under load, and pins the failure
//! model of `cdl-serve`:
//!
//! * **every admitted request settles** — a bit-identical output or a typed
//!   error, never a hang; a worker's panic fails only its own batch, and
//!   the surviving workers serve the rest;
//! * **a failure stays inside its model**: a stalled worker holds back only
//!   its own batch, a stalled model only its own submitters, and a model
//!   whose last worker died refuses with `ShuttingDown` (in process and
//!   over the wire) while its neighbour serves on, until
//!   [`Router::swap_model`] starts it a fresh server;
//! * **hot-swap** ([`Router::swap_model`]) loses nothing under concurrent
//!   load, and every response is consistent with the network that was
//!   current when its request was admitted;
//! * a TCP admission **parked** on a full gate resumes at that gate's next
//!   release, which calls the waker the refusal left on it; no poll backs
//!   it up.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdl::core::arch;
use cdl::core::network::CdlOutput;
use cdl::serve::net::{self, codec};
use cdl::serve::{
    BatchPolicy, EdgeConfig, ErrorCode, FaultKind, FaultPlan, ModelId, Router, ServeError,
    ServerConfig, ShardSpec, SubmitOptions, TcpClient, TcpServer,
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

/// One worker that panics on its first batch, then takes nothing else.
fn dying() -> ServerConfig {
    ServerConfig {
        fault: FaultPlan::scripted(vec![(0, FaultKind::PanicOnce)]),
        ..config(BatchPolicy::by_size(1), 4)
    }
}

/// Kills the only worker of `model`'s server (configured by [`dying`]) with
/// the first request it is handed, then submits until the server refuses:
/// a request admitted while the dead worker's exit guard runs is an orphan
/// and settles `Disconnected`. Returns how many requests failed.
fn kill_only_worker(router: &Router, model: ModelId) -> u64 {
    let doomed = router.submit(model, image(0)).unwrap();
    assert_eq!(doomed.wait().unwrap_err(), ServeError::Disconnected);
    let mut orphans = Vec::new();
    loop {
        match router.submit(model, image(1)) {
            Ok(pending) => orphans.push(pending),
            Err(error) => {
                assert_eq!(error, ServeError::ShuttingDown);
                break;
            }
        }
        assert!(
            orphans.len() < 1000,
            "admissions keep parking on a dead server"
        );
        std::thread::yield_now();
    }
    let failed = 1 + orphans.len() as u64;
    for orphan in orphans {
        assert_eq!(orphan.wait().unwrap_err(), ServeError::Disconnected);
    }
    failed
}

/// Batches sealed by `model`'s server so far, for any cause.
fn sealed(router: &Router, model: ModelId) -> u64 {
    let m = router.metrics().shards[model.index()].total();
    m.batches_full + m.batches_ready + m.batches_flushed
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
    )])
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
    // the retired server's ledger merged into the live one: every
    // conservation law holds across the swap, op for op
    assert_settled_with(&metrics, &delivered);
}

/// CI chaos smoke on one server: a *seeded* plan (a stall and a worker
/// panic drawn from a seed) against one model served by two workers, behind
/// the router and over TCP. Every request settles: the panicking worker's
/// batch comes back `Disconnected`, every other reply is bit-identical, the
/// surviving worker serves every round after the panic, and the ledger
/// conserves requests and ops.
#[test]
fn chaos_smoke_settles_every_request_on_one_server() {
    const ROUNDS: usize = 12;
    const PER_ROUND: usize = 8;
    let net = build_untrained(arch::mnist_2c(), 5);
    let _bound = common::Watchdog::arm(Duration::from_secs(300), "seeded chaos over TCP");
    for seed in 0..4u64 {
        // both faults land among the first ROUNDS batches, and every round
        // is at least one batch: the panic fires
        let kinds = [
            FaultKind::Stall(Duration::from_millis(20)),
            FaultKind::PanicOnce,
        ];
        let config = ServerConfig {
            workers: 2,
            fault: FaultPlan::seeded(seed, ROUNDS as u64, &kinds),
            ..config(BatchPolicy::new(4), 64)
        };
        let router =
            Arc::new(Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)]).unwrap());
        let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
        let stream = TcpStream::connect(edge.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let (mut send, mut recv) = net::split(stream).unwrap();

        let mut delivered: Vec<CdlOutput> = Vec::new();
        let (mut disconnected, mut panicked_in) = (0u64, None);
        for round in 0..ROUNDS {
            for j in 0..PER_ROUND {
                let x = codec::tensor_payload(&image(round * PER_ROUND + j));
                let id = (round * PER_ROUND + j) as u64;
                send.queue(id, "m", &SubmitOptions::default(), None, &x)
                    .unwrap();
            }
            send.flush().unwrap();
            for _ in 0..PER_ROUND {
                let (id, reply) = recv.recv().unwrap().expect("a reply inside the time-out");
                match reply {
                    Ok(out) => {
                        let expected = net.classify(&image(id as usize)).unwrap();
                        assert_eq!(out, expected, "seed {seed} request {id}");
                        delivered.push(out);
                    }
                    Err(e) => {
                        assert_eq!(e.code, ErrorCode::Disconnected, "seed {seed}: {e:?}");
                        // one worker dies once: its batch fails in one round
                        assert!(
                            panicked_in.is_none_or(|r| r == round),
                            "seed {seed}: failures in rounds {panicked_in:?} and {round}"
                        );
                        panicked_in = Some(round);
                        disconnected += 1;
                    }
                }
            }
        }
        assert!(panicked_in.is_some(), "seed {seed}: the panic never fired");
        drop((send, recv));
        edge.shutdown();
        let metrics = Arc::try_unwrap(router).unwrap().shutdown();
        let total = metrics.total();
        assert_eq!(total.submitted, (ROUNDS * PER_ROUND) as u64, "seed {seed}");
        assert_eq!(total.failed, disconnected, "seed {seed}");
        assert_eq!(total.completed, delivered.len() as u64, "seed {seed}");
        assert_settled_with(&metrics, &delivered);
    }
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
    let stall = FaultKind::Stall(Duration::from_millis(300));
    let config = ServerConfig {
        fault: FaultPlan::scripted(vec![(0, stall)]),
        ..config(BatchPolicy::by_size(1), 1)
    };
    let router =
        Arc::new(Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)]).unwrap());
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

/// A worker stalled on one batch holds back only that batch: the other
/// worker of the same server serves every later request while the stall
/// lasts, and the stalled request still settles bit-identically.
#[test]
fn a_stalled_worker_holds_back_only_its_own_batch() {
    const REST: usize = 16;
    let stall = Duration::from_millis(500);
    let net = build_untrained(arch::mnist_2c(), 5);
    let config = ServerConfig {
        workers: 2,
        fault: FaultPlan::scripted(vec![(0, FaultKind::Stall(stall))]),
        ..config(BatchPolicy::by_size(1), 64)
    };
    let router = Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)]).unwrap();
    let model = router.model_id("m").unwrap();

    let _bound = common::Watchdog::arm(Duration::from_secs(300), "a stalled worker's sibling");
    let started = Instant::now();
    let stalled = router.submit(model, image(0)).unwrap();
    // batch 0 is request 0: it is sealed, and its stall begun, before
    // anything else is queued
    while sealed(&router, model) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (mut delivered, rest_done, (out, stalled_done)) = std::thread::scope(|scope| {
        let waiter = scope.spawn(|| (stalled.wait().unwrap(), Instant::now()));
        let rest: Vec<CdlOutput> = (1..=REST)
            .map(|i| {
                let out = router.submit(model, image(i)).unwrap().wait().unwrap();
                assert_eq!(out, net.classify(&image(i)).unwrap(), "request {i}");
                out
            })
            .collect();
        (rest, Instant::now(), waiter.join().unwrap())
    });
    assert!(
        rest_done < stalled_done,
        "the sibling worker did not serve through the stall"
    );
    assert!(stalled_done.duration_since(started) >= stall);
    assert_eq!(out, net.classify(&image(0)).unwrap());
    delivered.push(out);

    let metrics = router.shutdown();
    assert_eq!(metrics.total().completed, REST as u64 + 1);
    assert_eq!(metrics.total().failed, 0);
    assert_settled_with(&metrics, &delivered);
}

/// A worker's panic fails exactly the requests of the batch it was
/// evaluating — all of them `Disconnected`, none before or after — and the
/// surviving worker serves every later batch bit-identically.
#[test]
fn a_worker_panic_fails_only_its_own_batch() {
    const ROUNDS: usize = 5;
    const BATCH: usize = 4;
    const DOOMED: usize = 2;
    let net = build_untrained(arch::mnist_2c(), 5);
    let config = ServerConfig {
        workers: 2,
        fault: FaultPlan::scripted(vec![(DOOMED as u64, FaultKind::PanicOnce)]),
        ..config(BatchPolicy::by_size(BATCH), 64)
    };
    let router = Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)]).unwrap();
    let model = router.model_id("m").unwrap();

    let _bound = common::Watchdog::arm(Duration::from_secs(300), "rounds around a panic");
    let mut delivered = Vec::new();
    // each round's BATCH requests fill one batch: batch sequence == round
    for round in 0..ROUNDS {
        let pendings: Vec<_> = (0..BATCH)
            .map(|j| router.submit(model, image(round * BATCH + j)).unwrap())
            .collect();
        for (j, pending) in pendings.into_iter().enumerate() {
            let i = round * BATCH + j;
            match pending.wait() {
                Ok(out) => {
                    assert_ne!(round, DOOMED, "request {i} outlived its worker");
                    assert_eq!(out, net.classify(&image(i)).unwrap(), "request {i}");
                    delivered.push(out);
                }
                Err(error) => {
                    assert_eq!(round, DOOMED, "request {i} failed: {error:?}");
                    assert_eq!(error, ServeError::Disconnected);
                }
            }
        }
    }

    let metrics = router.shutdown();
    let total = metrics.total();
    assert_eq!(total.completed, ((ROUNDS - 1) * BATCH) as u64);
    assert_eq!(total.failed, BATCH as u64);
    assert_settled_with(&metrics, &delivered);
}

/// Once its last worker is dead, a server refuses every admission path with
/// `ShuttingDown`, and each refusal rolls back the router's routed count:
/// the model's ledger still closes, with every admission `failed`.
#[test]
fn a_dead_server_refuses_admissions_and_the_router_rolls_back_its_count() {
    let net = build_untrained(arch::mnist_2c(), 5);
    let router = Router::start(vec![ShardSpec::new("m", Arc::clone(&net), dying())]).unwrap();
    let model = router.model_id("m").unwrap();

    let _bound = common::Watchdog::arm(Duration::from_secs(300), "a dead server");
    let failed = kill_only_worker(&router, model);
    for i in 0..8 {
        let refused = router.try_submit_with(model, image(i), SubmitOptions::default());
        assert_eq!(refused.err(), Some(ServeError::ShuttingDown), "try {i}");
        let refused = router.submit(model, image(i));
        assert_eq!(refused.err(), Some(ServeError::ShuttingDown), "submit {i}");
    }
    let shard = &router.metrics().shards[model.index()];
    assert_eq!(
        shard.routed(),
        failed,
        "a refusal left a routed count behind"
    );

    let metrics = router.shutdown();
    let total = metrics.total();
    assert_eq!(
        (total.submitted, total.failed, total.completed),
        (failed, failed, 0)
    );
    assert_settled(&metrics);
}

/// A model whose last worker died does not disturb the model beside it:
/// the neighbour answers every request bit-identically between the dead
/// model's refusals, and its ledger books no failure.
#[test]
fn a_dead_model_does_not_disturb_its_neighbour() {
    const N: usize = 20;
    let dead_net = build_untrained(arch::mnist_2c(), 5);
    let live_net = build_untrained(arch::mnist_3c(), 9);
    let router = Router::start(vec![
        ShardSpec::new("dead", Arc::clone(&dead_net), dying()),
        ShardSpec::new(
            "live",
            Arc::clone(&live_net),
            config(BatchPolicy::default(), 64),
        ),
    ])
    .unwrap();
    let (dead, live) = (
        router.model_id("dead").unwrap(),
        router.model_id("live").unwrap(),
    );

    let _bound = common::Watchdog::arm(Duration::from_secs(300), "a dead model's neighbour");
    let failed = kill_only_worker(&router, dead);
    let delivered: Vec<CdlOutput> = (0..N)
        .map(|i| {
            let refused = router.submit(dead, image(i));
            assert_eq!(refused.err(), Some(ServeError::ShuttingDown), "request {i}");
            let out = router.submit(live, image(i)).unwrap().wait().unwrap();
            assert_eq!(out, live_net.classify(&image(i)).unwrap(), "request {i}");
            out
        })
        .collect();

    let metrics = router.shutdown();
    let (dead_total, live_total) = (metrics.shards[0].total(), metrics.shards[1].total());
    assert_eq!((dead_total.completed, dead_total.failed), (0, failed));
    assert_eq!((live_total.completed, live_total.failed), (N as u64, 0));
    assert_settled_with(&metrics, &delivered);
}

/// Over TCP, a request for a model whose last worker died gets a typed
/// `ShuttingDown` reply, and the connection that received it keeps serving
/// the other model bit-identically.
#[test]
fn a_dead_model_gets_typed_refusals_over_the_wire() {
    const N: usize = 12;
    let dead_net = build_untrained(arch::mnist_2c(), 5);
    let live_net = build_untrained(arch::mnist_3c(), 9);
    let router = Arc::new(
        Router::start(vec![
            ShardSpec::new("dead", Arc::clone(&dead_net), dying()),
            ShardSpec::new(
                "live",
                Arc::clone(&live_net),
                config(BatchPolicy::default(), 64),
            ),
        ])
        .unwrap(),
    );
    let dead = router.model_id("dead").unwrap();

    let _bound = common::Watchdog::arm(Duration::from_secs(300), "a dead model over TCP");
    let failed = kill_only_worker(&router, dead);
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut client = TcpClient::connect(edge.local_addr()).unwrap();
    let mut delivered = Vec::new();
    for i in 0..N {
        let refused = client
            .call("dead", &image(i), SubmitOptions::default())
            .unwrap()
            .unwrap_err();
        assert_eq!(refused.code, ErrorCode::ShuttingDown, "request {i}");
        let out = client
            .call("live", &image(i), SubmitOptions::default())
            .unwrap()
            .unwrap();
        assert_eq!(out, live_net.classify(&image(i)).unwrap(), "request {i}");
        delivered.push(out);
    }
    drop(client);
    edge.shutdown();

    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    let (dead_total, live_total) = (metrics.shards[0].total(), metrics.shards[1].total());
    assert_eq!((dead_total.submitted, dead_total.failed), (failed, failed));
    assert_eq!((live_total.completed, live_total.failed), (N as u64, 0));
    assert_settled_with(&metrics, &delivered);
}

/// `swap_model` revives a model whose last worker died: the fresh server
/// serves the new network, its plan's `PanicOnce` (a clone sharing the
/// batch counter) does not fire again, and the dead server's failures stay
/// in the model's ledger.
#[test]
fn swap_model_revives_a_model_whose_last_worker_died() {
    const N: usize = 12;
    let net_a = build_untrained(arch::mnist_2c(), 5);
    let net_b = build_untrained(arch::mnist_2c(), 11);
    let router = Router::start(vec![ShardSpec::new("m", Arc::clone(&net_a), dying())]).unwrap();
    let model = router.model_id("m").unwrap();

    let _bound = common::Watchdog::arm(Duration::from_secs(300), "a swap after a death");
    let failed = kill_only_worker(&router, model);
    router.swap_model(model, Arc::clone(&net_b)).unwrap();
    let delivered: Vec<CdlOutput> = (0..N)
        .map(|i| {
            let out = router.submit(model, image(i)).unwrap().wait().unwrap();
            assert_eq!(out, net_b.classify(&image(i)).unwrap(), "request {i}");
            out
        })
        .collect();

    let metrics = router.shutdown();
    let total = metrics.total();
    assert_eq!((total.completed, total.failed), (N as u64, failed));
    assert_eq!(total.submitted, N as u64 + failed);
    assert_settled_with(&metrics, &delivered);
}

/// Backpressure stays per model: while one model's only worker is stalled
/// and its one-slot gate is full, its own non-blocking admission bounces
/// `Full`, and the other model answers its whole stream before the stall
/// ends.
#[test]
fn a_stalled_model_holds_back_only_its_own_submitters() {
    const N: usize = 16;
    let stall = Duration::from_millis(500);
    let slow_net = build_untrained(arch::mnist_2c(), 5);
    let fast_net = build_untrained(arch::mnist_3c(), 9);
    let slow_config = ServerConfig {
        fault: FaultPlan::scripted(vec![(0, FaultKind::Stall(stall))]),
        ..config(BatchPolicy::by_size(1), 1)
    };
    let router = Router::start(vec![
        ShardSpec::new("slow", Arc::clone(&slow_net), slow_config),
        ShardSpec::new(
            "fast",
            Arc::clone(&fast_net),
            config(BatchPolicy::default(), 64),
        ),
    ])
    .unwrap();
    let (slow, fast) = (
        router.model_id("slow").unwrap(),
        router.model_id("fast").unwrap(),
    );

    let _bound = common::Watchdog::arm(Duration::from_secs(300), "a stalled model's neighbour");
    let started = Instant::now();
    let stalled = router.submit(slow, image(0)).unwrap();
    // the stalled request holds the slow model's only gate slot
    let bounced = router.try_submit_with(slow, image(1), SubmitOptions::default());
    assert_eq!(bounced.err(), Some(ServeError::Full));
    let mut delivered: Vec<CdlOutput> = (0..N)
        .map(|i| {
            let out = router.submit(fast, image(i)).unwrap().wait().unwrap();
            assert_eq!(out, fast_net.classify(&image(i)).unwrap(), "request {i}");
            out
        })
        .collect();
    let fast_done = started.elapsed();
    assert!(
        fast_done < stall,
        "the fast model waited on the slow one: {fast_done:?}"
    );
    let out = stalled.wait().unwrap();
    assert!(started.elapsed() >= stall);
    assert_eq!(out, slow_net.classify(&image(0)).unwrap());
    delivered.push(out);

    let metrics = router.shutdown();
    let (slow_total, fast_total) = (metrics.shards[0].total(), metrics.shards[1].total());
    assert_eq!((slow_total.completed, slow_total.rejected), (1, 1));
    assert_eq!((fast_total.completed, fast_total.rejected), (N as u64, 0));
    assert_settled_with(&metrics, &delivered);
}
