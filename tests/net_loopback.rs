//! TCP edge loopback: the wire protocol end to end.
//!
//! Everything the in-process serving layer guarantees must survive the
//! trip through `cdl::serve::net`: concurrent connections pipelining
//! requests against a **replicated** router get every response bit-exact
//! against `CdlNetwork::classify_with_override` (f32s travel as IEEE-754
//! bit patterns), malformed frames come back as typed errors without
//! taking the connection down unless the stream is desynchronised, and a
//! client that disconnects mid-request cancels only its own pending work
//! — the shard keeps serving everyone else.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdl::core::arch;
use cdl::core::confidence::ExitOverride;
use cdl::core::network::{CdlNetwork, CdlOutput};
use cdl::serve::net::{self, codec};
use cdl::serve::{
    BatchPolicy, ErrorCode, PlacementPolicy, ReplicaSpec, Router, ServerConfig, ShardSpec,
    SubmitOptions, TcpClient, TcpServer,
};
use cdl::tensor::Tensor;

mod common;
use common::{build_untrained, image};

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

fn expected(net: &CdlNetwork, x: &Tensor, opts: SubmitOptions) -> CdlOutput {
    net.classify_with_override(
        x,
        ExitOverride {
            delta: opts.delta,
            max_stage: opts.max_stage,
        },
    )
    .unwrap()
}

/// 4 connections × 64 pipelined requests against a replicated two-model
/// router: every response bit-exact on the routed model with the carried
/// override, every id answered exactly once, placement histograms
/// reported in the final metrics.
#[test]
fn pipelined_connections_are_bit_exact_against_replicas() {
    const CONNS: usize = 4;
    const PER_CONN: usize = 64;
    let m2c = build_untrained(arch::mnist_2c(), 5);
    let m3c = build_untrained(arch::mnist_3c(), 9);
    let config = ServerConfig {
        policy: BatchPolicy::new(8),
        queue_capacity: 256,
        workers: 1,
        ..ServerConfig::default()
    };
    let router = Arc::new(
        Router::start(vec![
            ShardSpec::new("MNIST_2C", Arc::clone(&m2c), config.clone())
                .replicated(ReplicaSpec::new(2, PlacementPolicy::RoundRobin)),
            ShardSpec::new("MNIST_3C", Arc::clone(&m3c), config)
                .replicated(ReplicaSpec::new(2, PlacementPolicy::PowerOfTwoChoices)),
        ])
        .unwrap(),
    );
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let addr = edge.local_addr();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let m2c = &m2c;
                let m3c = &m3c;
                scope.spawn(move || {
                    let nets = [m2c, m3c];
                    let stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let (mut send, mut recv) = net::split(stream).unwrap();
                    // pipeline the whole burst before reading anything
                    let mut sent = Vec::with_capacity(PER_CONN);
                    for j in 0..PER_CONN {
                        let i = c * PER_CONN + j;
                        let model = if i.is_multiple_of(2) {
                            "MNIST_2C"
                        } else {
                            "MNIST_3C"
                        };
                        let (id, x) = (j as u64, codec::tensor_payload(&image(i)));
                        send.queue(id, model, &override_mix(i), None, &x).unwrap();
                        send.flush().unwrap();
                        sent.push((id, i));
                    }
                    // responses may complete out of order across replicas
                    // and batches; match them up by id
                    let mut answered = vec![None; PER_CONN];
                    for _ in 0..PER_CONN {
                        let (id, result) =
                            recv.recv().unwrap().expect("a reply inside the time-out");
                        let slot = sent.iter().position(|&(s, _)| s == id).unwrap();
                        assert!(answered[slot].is_none(), "id {id} answered twice");
                        answered[slot] = Some(result.unwrap());
                    }
                    for ((_, i), out) in sent.iter().zip(answered) {
                        let net = nets[i % 2];
                        assert_eq!(
                            out.unwrap(),
                            expected(net, &image(*i), override_mix(*i)),
                            "request {i} over TCP"
                        );
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    });

    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    let total = (CONNS * PER_CONN) as u64;
    assert_eq!(metrics.total().completed, total);
    assert_eq!(metrics.total().failed, 0);
    assert_eq!(metrics.routing_histogram(), vec![total / 2, total / 2]);
    for shard in &metrics.shards {
        // the placement histogram is reported and partitions the traffic
        assert_eq!(
            shard.placement_histogram().iter().sum::<u64>(),
            shard.routed()
        );
        for replica in &shard.replicas {
            assert_eq!(replica.routed, replica.metrics.submitted);
        }
    }
    // one round-robin cursor per shard: the split is exact
    assert_eq!(
        metrics.shards[0].placement_histogram(),
        vec![total / 4, total / 4]
    );
}

/// Malformed bodies and unknown models come back as typed errors on the
/// same connection; a bogus length prefix (stream desync) gets a final
/// typed error and then hangs up.
#[test]
fn malformed_frames_get_typed_errors() {
    let net = build_untrained(arch::mnist_2c(), 5);
    let config = ServerConfig {
        policy: BatchPolicy::new(usize::MAX),
        queue_capacity: 16,
        workers: 1,
        ..ServerConfig::default()
    };
    let router =
        Arc::new(Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)]).unwrap());
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();

    let stream = TcpStream::connect(edge.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // the raw clone writes what the send half refuses to
    let mut raw = stream.try_clone().unwrap();
    let (mut send, mut replies) = net::split(stream).unwrap();
    let mut reply = || {
        replies
            .recv()
            .unwrap()
            .expect("a reply inside the time-out")
    };

    // a garbage body (too short to even carry a request id) is answered
    // with Malformed under the sentinel id…
    raw.write_all(&[0, 0, 0, 5, 1, 2, 3, 4, 5]).unwrap();
    let (id, result) = reply();
    assert_eq!(id, u64::MAX);
    assert_eq!(result.unwrap_err().code, ErrorCode::Malformed);

    // …and the connection SURVIVES: an unknown model on the same stream
    // still gets its typed error under the request's own id…
    let x = image(0);
    let payload = codec::tensor_payload(&x);
    send.queue(42, "NOPE", &SubmitOptions::default(), None, &payload)
        .unwrap();
    send.flush().unwrap();
    let (id, result) = reply();
    assert_eq!(id, 42);
    assert_eq!(result.unwrap_err().code, ErrorCode::UnknownModel);

    // …and a well-formed request after both errors is served bit-exactly
    send.queue(43, "m", &SubmitOptions::default(), None, &payload)
        .unwrap();
    send.flush().unwrap();
    let (id, result) = reply();
    assert_eq!(id, 43);
    let (got, want) = (result.expect("OK status"), net.classify(&x).unwrap());
    assert_eq!(
        got.confidence.to_bits(),
        want.confidence.to_bits(),
        "confidence travels as its exact bit pattern"
    );
    assert_eq!(got, want);

    // a zero length prefix, outside 1..=MAX_FRAME, desyncs the stream: one
    // last Malformed reply, then the server hangs up
    raw.write_all(&[0; 4]).unwrap();
    let (id, result) = reply();
    assert_eq!(id, u64::MAX);
    assert_eq!(result.unwrap_err().code, ErrorCode::Malformed);
    // `UnexpectedEof` is a close between replies: not one byte followed the
    // last reply (a close inside a reply is `InvalidData`)
    let hangup = replies.recv().expect_err("server hung up");
    assert_eq!(hangup.kind(), ErrorKind::UnexpectedEof, "{hangup}");

    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    assert_eq!(metrics.total().completed, 1);
    assert_eq!(metrics.total().failed, 0);
}

/// An unknown model named by the longest name the wire carries, in 3-byte
/// characters, gets its typed error — the echoed name cut at u16::MAX bytes
/// on a character boundary, not inside one — and the connection goes on
/// serving.
#[test]
fn an_unknown_multibyte_model_name_gets_a_typed_reply() {
    let net = build_untrained(arch::mnist_2c(), 5);
    let config = ServerConfig {
        policy: BatchPolicy::new(usize::MAX),
        queue_capacity: 16,
        workers: 1,
        ..ServerConfig::default()
    };
    let router =
        Arc::new(Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)]).unwrap());
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut client = TcpClient::connect(edge.local_addr()).unwrap();

    // 21 845 × `€` is 65 535 bytes; behind the message's prefix the cut at
    // u16::MAX bytes falls inside a character
    let name = "€".repeat(21_845);
    let x = image(0);
    let reply = client
        .call(&name, &x, SubmitOptions::default())
        .expect("a decodable reply")
        .unwrap_err();
    assert_eq!(reply.code, ErrorCode::UnknownModel);
    assert!(reply.message.len() > u16::MAX as usize - '€'.len_utf8());
    assert!(reply.message.ends_with('€'), "{}", &reply.message[..40]);

    let out = client.call("m", &x, SubmitOptions::default()).unwrap();
    assert_eq!(out.unwrap(), expected(&net, &x, SubmitOptions::default()));

    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    assert_eq!(metrics.total().completed, 1);
}

/// A desynchronised stream with requests still in flight hangs up
/// promptly: the bogus length prefix marks the connection dead, so the
/// writer CANCELS the pipelined pendings instead of waiting them out
/// against a peer the server is about to abandon. (Regression: the
/// reader used to return without marking the connection dead, so the
/// writer sat on the stalled pendings and the "hang up" never happened.)
#[test]
fn desync_with_pipelined_pendings_cancels_them_and_hangs_up() {
    let net = build_untrained(arch::mnist_2c(), 5);
    let router = Arc::new(
        Router::start(vec![ShardSpec::new(
            "stall",
            Arc::clone(&net),
            ServerConfig {
                // a size-bound batch that never fills: admitted requests
                // pin their Pendings on the queue indefinitely
                policy: BatchPolicy::by_size(1 << 20),
                queue_capacity: 16,
                workers: 1,
                ..ServerConfig::default()
            },
        )])
        .unwrap(),
    );
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();

    let stream = TcpStream::connect(edge.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut raw = stream.try_clone().unwrap();
    let (mut send, _replies) = net::split(stream).unwrap();
    let x = codec::tensor_payload(&image(0));
    for id in 0..3u64 {
        send.queue(id, "stall", &SubmitOptions::default(), None, &x)
            .unwrap();
    }
    send.flush().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while router.metrics().shards[0].total().submitted < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "submissions never landed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // desync the stream with a zero length prefix while all three requests
    // are still pending; the server hangs up without serving them and
    // without a byte of reply: EOF, promptly (the 30s read timeout would fire
    // if the writer were still waiting the pendings out)
    raw.write_all(&[0; 4]).unwrap();
    let mut rest = Vec::new();
    assert_eq!(
        raw.read_to_end(&mut rest).unwrap(),
        0,
        "server must hang up on desync, not wait out pipelined pendings"
    );

    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    let stall = metrics.shards[0].total();
    assert_eq!(stall.submitted, 3);
    assert_eq!(stall.cancelled, 3, "pipelined pendings were cancelled");
    assert_eq!(stall.completed, 0, "nothing was served past the desync");
    assert_eq!(metrics.total().queue_depth, 0);
}

/// A client that disconnects with requests still in flight cancels its
/// own pending work and nothing else: the stalled shard's bookkeeping
/// stays consistent and the other shard keeps serving new connections.
#[test]
fn disconnect_cancels_pending_work_without_poisoning_the_shard() {
    let stall_net = build_untrained(arch::mnist_2c(), 5);
    let fast_net = build_untrained(arch::mnist_3c(), 9);
    let base = ServerConfig {
        queue_capacity: 16,
        workers: 1,
        ..ServerConfig::default()
    };
    let router = Arc::new(
        Router::start(vec![
            // a size-bound batch that never fills: admitted requests sit
            // on the queue until cancelled or drained
            ShardSpec::new(
                "stall",
                Arc::clone(&stall_net),
                ServerConfig {
                    policy: BatchPolicy::by_size(1 << 20),
                    ..base.clone()
                },
            ),
            ShardSpec::new(
                "fast",
                Arc::clone(&fast_net),
                ServerConfig {
                    policy: BatchPolicy::new(usize::MAX),
                    ..base
                },
            ),
        ])
        .unwrap(),
    );
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let addr = edge.local_addr();

    // connection A pipelines 3 requests into the stalled shard and drops
    // without reading a single response
    let x = image(0);
    let (mut doomed, replies) = net::split(TcpStream::connect(addr).unwrap()).unwrap();
    let payload = codec::tensor_payload(&x);
    for id in 0..3 {
        doomed
            .queue(id, "stall", &SubmitOptions::default(), None, &payload)
            .unwrap();
        doomed.flush().unwrap();
    }
    // give the reader thread time to route all 3, then hang up
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while router.metrics().shards[0].total().submitted < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "submissions never landed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop((doomed, replies));

    // the shard is NOT poisoned: a fresh connection is served correctly
    // while the orphaned requests are being cancelled
    let mut healthy = TcpClient::connect(addr).unwrap();
    let out = healthy
        .call("fast", &x, SubmitOptions::default())
        .unwrap()
        .unwrap();
    assert_eq!(out, fast_net.classify(&x).unwrap());
    drop(healthy);

    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    let (stall_shard, fast_shard) = (&metrics.shards[0], &metrics.shards[1]);
    let (stall, fast) = (stall_shard.total(), fast_shard.total());
    assert_eq!(stall.submitted, 3);
    assert_eq!(stall_shard.routed(), 3, "routed/submitted stay in lockstep");
    assert_eq!(
        stall.cancelled, 3,
        "the dead connection's work was cancelled"
    );
    assert_eq!(stall.completed, 0);
    assert_eq!(fast.completed, 1);
    assert_eq!(fast.cancelled, 0);
    assert_eq!(metrics.total().queue_depth, 0);
}

/// The two halves of a fresh connection to `edge`; the receive half gives
/// up after `read_timeout`.
fn halves(edge: &TcpServer, read_timeout: Duration) -> (net::SendHalf, net::RecvHalf) {
    let stream = TcpStream::connect(edge.local_addr()).unwrap();
    stream.set_read_timeout(Some(read_timeout)).unwrap();
    net::split(stream).unwrap()
}

/// The load generator's pattern on the two halves: 512 requests under
/// caller-chosen ids, sent in one flush, their replies matched by id on the
/// receive half — each bit-exact against the per-image oracle — and an idle
/// receive half that gives up after its read time-out.
#[test]
fn the_halves_pipeline_one_flush_and_match_replies_by_id() {
    const N: usize = 512;
    let id_of = |i: usize| 0xC0DE_0000 + 3 * (N - i) as u64;
    let net = build_untrained(arch::mnist_2c(), 5);
    let config = ServerConfig {
        policy: BatchPolicy::new(32),
        workers: 2,
        ..ServerConfig::default()
    };
    let router =
        Arc::new(Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)]).unwrap());
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();

    let (mut send, mut recv) = halves(&edge, Duration::from_secs(30));
    let payloads: Vec<Vec<u8>> = (0..11).map(|i| codec::tensor_payload(&image(i))).collect();
    for i in 0..N {
        send.queue(id_of(i), "m", &override_mix(i), None, &payloads[i % 11])
            .unwrap();
    }
    send.flush().unwrap();
    let mut answered = vec![false; N];
    for _ in 0..N {
        let (id, result) = recv.recv().unwrap().expect("a reply inside the time-out");
        let i = (0..N)
            .find(|&i| id_of(i) == id)
            .expect("an id that was sent");
        assert!(!answered[i], "id {id} answered twice");
        answered[i] = true;
        let (got, want) = (result.unwrap(), expected(&net, &image(i), override_mix(i)));
        assert_eq!(
            got.confidence.to_bits(),
            want.confidence.to_bits(),
            "request {i}"
        );
        assert_eq!(got, want, "request {i}");
    }

    let (_idle_send, mut idle) = halves(&edge, Duration::from_millis(50));
    let started = Instant::now();
    assert!(idle.recv().unwrap().is_none(), "nothing was asked");
    assert!(started.elapsed() >= Duration::from_millis(40));

    drop((send, recv, idle));
    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    assert_eq!(metrics.total().completed, N as u64);
}

/// Replies off `recv` until `n` arrived, each inside `limit` of the last.
fn replies(recv: &mut net::RecvHalf, n: usize, limit: Duration) -> Vec<net::Reply> {
    let mut got = Vec::with_capacity(n);
    let mut deadline = Instant::now() + limit;
    while got.len() < n {
        match recv.recv().unwrap() {
            Some(reply) => {
                got.push(reply);
                deadline = Instant::now() + limit;
            }
            None => assert!(
                Instant::now() < deadline,
                "{} of {n} replies after {limit:?}",
                got.len()
            ),
        }
    }
    got
}

/// An idle router evaluates a wire request on the edge thread that read it:
/// requests sent one at a time are each a batch of one, sealed and run by
/// the edge with no worker woken, and every reply is bit-exact.
#[test]
fn an_idle_router_evaluates_sequential_wire_requests_on_the_edge() {
    const N: usize = 24;
    let m2c = build_untrained(arch::mnist_2c(), 5);
    let m3c = build_untrained(arch::mnist_3c(), 9);
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let router = Arc::new(
        Router::start(vec![
            ShardSpec::new("MNIST_2C", Arc::clone(&m2c), config.clone()),
            ShardSpec::new("MNIST_3C", Arc::clone(&m3c), config),
        ])
        .unwrap(),
    );
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let (mut send, mut recv) = halves(&edge, Duration::from_secs(30));
    for i in 0..N {
        let (name, net) = if i % 2 == 0 {
            ("MNIST_2C", &m2c)
        } else {
            ("MNIST_3C", &m3c)
        };
        let payload = codec::tensor_payload(&image(i));
        send.queue(i as u64, name, &override_mix(i), None, &payload)
            .unwrap();
        send.flush().unwrap();
        let (id, result) = recv.recv().unwrap().expect("a reply inside the time-out");
        assert_eq!(id, i as u64);
        let (got, want) = (result.unwrap(), expected(net, &image(i), override_mix(i)));
        assert_eq!(
            got.confidence.to_bits(),
            want.confidence.to_bits(),
            "request {i}"
        );
        assert_eq!(got, want, "request {i}");
    }
    drop((send, recv));
    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    common::assert_settled(&metrics);
    let total = metrics.total();
    assert_eq!(total.completed, N as u64);
    assert_eq!(total.batch_size_histogram, [0, N as u64], "batches of one");
    assert_eq!(
        total.batches_on_edge, N as u64,
        "every batch ran on the edge"
    );
}

/// An armed fault plan keeps every batch on the workers, even on an idle
/// router: the stall sleeps a worker, the scripted panic kills one — the
/// edge, which never ran a batch, keeps serving on the worker left.
#[test]
fn an_armed_fault_plan_keeps_every_batch_on_the_workers() {
    use cdl::serve::{FaultKind, FaultPlan};
    let net = build_untrained(arch::mnist_2c(), 5);
    let stall = Duration::from_millis(100);
    let config = ServerConfig {
        workers: 2,
        fault: FaultPlan::scripted(vec![
            (1, FaultKind::Stall(stall)),
            (3, FaultKind::PanicOnce),
        ]),
        ..ServerConfig::default()
    };
    let router =
        Arc::new(Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)]).unwrap());
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let (mut send, mut recv) = halves(&edge, Duration::from_secs(30));
    let payload = codec::tensor_payload(&image(0));
    let want = expected(&net, &image(0), SubmitOptions::default());
    for i in 0..6 {
        send.queue(i, "m", &SubmitOptions::default(), None, &payload)
            .unwrap();
        let started = Instant::now();
        send.flush().unwrap();
        let (id, result) = recv.recv().unwrap().expect("a reply inside the time-out");
        assert_eq!(id, i);
        match i {
            1 => {
                assert!(started.elapsed() >= stall, "batch 1 stalls its worker");
                assert_eq!(result.unwrap(), want);
            }
            3 => assert_eq!(
                result.unwrap_err().code,
                ErrorCode::Disconnected,
                "batch 3 kills its worker"
            ),
            _ => assert_eq!(result.unwrap(), want, "request {i}"),
        }
    }
    drop((send, recv));
    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    common::assert_settled(&metrics);
    let total = metrics.total();
    assert_eq!((total.completed, total.failed), (5, 1));
    assert_eq!(total.batches_on_edge, 0, "a batch ran on the edge");
}

/// Under `BatchPolicy::by_size(n)` the edge never takes a short queue: n − 1
/// pipelined requests wait, unevaluated, and the push of the n-th fills one
/// batch and wakes a worker, as every push that fills a batch does.
#[test]
fn under_by_size_the_edge_never_takes_a_short_queue() {
    const N: u64 = 4;
    let net = build_untrained(arch::mnist_2c(), 5);
    let config = ServerConfig {
        policy: BatchPolicy::by_size(N as usize),
        workers: 1,
        ..ServerConfig::default()
    };
    let router =
        Arc::new(Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)]).unwrap());
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let (mut send, mut recv) = halves(&edge, Duration::from_millis(200));
    let send_one = |send: &mut net::SendHalf, i: u64| {
        let payload = codec::tensor_payload(&image(i as usize));
        send.queue(i, "m", &SubmitOptions::default(), None, &payload)
            .unwrap();
        send.flush().unwrap();
    };
    for i in 0..N - 1 {
        send_one(&mut send, i);
    }
    assert!(
        recv.recv().unwrap().is_none(),
        "a short queue was evaluated"
    );
    let live = router.metrics().total();
    let sealed = live.batches_full + live.batches_ready + live.batches_flushed;
    assert_eq!((live.submitted, sealed), (N - 1, 0));
    send_one(&mut send, N - 1);
    for (id, result) in replies(&mut recv, N as usize, Duration::from_secs(30)) {
        let want = expected(&net, &image(id as usize), SubmitOptions::default());
        assert_eq!(result.unwrap(), want, "request {id}");
    }
    drop((send, recv));
    edge.shutdown();
    let total = Arc::try_unwrap(router).unwrap().shutdown().total();
    assert_eq!(
        total.batch_size_histogram,
        [0, 0, 0, 0, 1],
        "one full batch"
    );
    assert_eq!((total.batches_full, total.batches_on_edge), (1, 0));
}
