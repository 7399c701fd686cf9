//! Serve-path hardening regressions: co-batch poisoning and TCP-edge
//! liveness.
//!
//! Two bugs this suite pins down:
//!
//! 1. **Co-batch poisoning** — a single wrong-shaped tensor used to ride
//!    into a batch and fail *the whole batch* when the evaluator rejected
//!    it: innocent co-batched requests were settled with `Eval` errors.
//!    Inputs are now shape-checked at admission (typed
//!    [`ServeError::BadInput`] in-process, a `Malformed`-class reply on
//!    the wire), so no wrong-shaped tensor reaches a batch.
//! 2. **Reader wedge** — the TCP reader used to call the *blocking*
//!    router submit, which parks in the admission gate with no stop
//!    check: a connection pipelining past a full gate could never be shut
//!    down. Edge admission is now stop-aware (non-blocking submit plus a
//!    polled retry), so `TcpServer::shutdown` completes within a bound
//!    even with a wedged-pipeline connection.

use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use cdl::core::arch;
use cdl::serve::net::{self, codec};
use cdl::serve::{
    BatchPolicy, ErrorCode, Router, ServeError, ServerConfig, ShardSpec, SubmitOptions, TcpServer,
};
use cdl::tensor::Tensor;

mod common;
use common::{build_untrained, image};

/// In-process half of the poisoning regression: a wrong-shaped tensor is
/// refused at admission with a typed `BadInput`, before it can share a
/// batch with anyone — and the good requests around it stay bit-identical
/// to the per-image path.
#[test]
fn bad_input_cannot_poison_cobatched_requests_in_process() {
    let net = build_untrained(arch::mnist_2c(), 5);
    let router = Arc::new(
        Router::start(vec![ShardSpec::new(
            "m",
            Arc::clone(&net),
            ServerConfig {
                // batches of exactly two: the goods share one, and the
                // poison WOULD have been sealed in with `a` pre-fix
                policy: BatchPolicy::by_size(2),
                queue_capacity: 64,
                workers: 1,
                ..ServerConfig::default()
            },
        )])
        .unwrap(),
    );
    let model = router.model_id("m").unwrap();

    // good, poison, good — the batch seals on the second admission
    let a = router
        .submit_with(model, image(0), SubmitOptions::default())
        .unwrap();
    let poison = Tensor::full(&[2, 2], 0.5);
    let refused = router.submit_with(model, poison, SubmitOptions::default());
    assert!(
        matches!(refused, Err(ServeError::BadInput(_))),
        "wrong-shaped tensor must be refused at admission, got {refused:?}"
    );
    let b = router
        .submit_with(model, image(1), SubmitOptions::default())
        .unwrap();

    // the innocent requests are served bit-identically
    assert_eq!(a.wait().unwrap(), net.classify(&image(0)).unwrap());
    assert_eq!(b.wait().unwrap(), net.classify(&image(1)).unwrap());

    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    assert_eq!(
        metrics.total().submitted,
        2,
        "the poison was never admitted"
    );
    assert_eq!(metrics.total().completed, 2);
    assert_eq!(metrics.total().failed, 0, "no co-batched request failed");
    assert_eq!(
        metrics.total().batch_size_histogram[2],
        1,
        "the two good requests shared the batch the poison was kept out of"
    );
}

/// Wire half of the poisoning regression: over TCP the wrong-shaped
/// tensor comes back as a `Malformed`-class typed error under its own
/// request id, while pipelined good requests on the same connection are
/// served bit-exactly.
#[test]
fn bad_input_cannot_poison_cobatched_requests_over_tcp() {
    let net = build_untrained(arch::mnist_2c(), 5);
    let router = Arc::new(
        Router::start(vec![ShardSpec::new(
            "m",
            Arc::clone(&net),
            ServerConfig {
                policy: BatchPolicy::by_size(2),
                queue_capacity: 64,
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
    let (mut send, mut recv) = net::split(stream).unwrap();
    let poison = Tensor::full(&[2, 2], 0.5);
    let (good_a, poison_id, good_b) = (0, 1, 2);
    for (id, x) in [(good_a, image(0)), (poison_id, poison), (good_b, image(1))] {
        let payload = codec::tensor_payload(&x);
        send.queue(id, "m", &SubmitOptions::default(), None, &payload)
            .unwrap();
        send.flush().unwrap();
    }

    let mut outputs = std::collections::HashMap::new();
    for _ in 0..3 {
        let (id, result) = recv.recv().unwrap().expect("a reply inside the time-out");
        outputs.insert(id, result);
    }
    let err = outputs.remove(&poison_id).unwrap().unwrap_err();
    assert_eq!(err.code, ErrorCode::Malformed, "{err}");
    assert_eq!(
        outputs.remove(&good_a).unwrap().unwrap(),
        net.classify(&image(0)).unwrap()
    );
    assert_eq!(
        outputs.remove(&good_b).unwrap().unwrap(),
        net.classify(&image(1)).unwrap()
    );

    drop((send, recv));
    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    assert_eq!(metrics.total().completed, 2);
    assert_eq!(metrics.total().failed, 0);
    assert_eq!(
        metrics.total().batch_size_histogram[2],
        1,
        "the two good requests shared the batch the poison was kept out of"
    );
}

/// Reader-wedge regression: fill a tiny admission gate through TCP, keep
/// pipelining past capacity, drop the client, and require that
/// `TcpServer::shutdown` still completes within a bound. Pre-fix the
/// reader thread was parked in the gate's blocking acquire with no stop
/// check, and shutdown joined it forever.
#[test]
fn shutdown_completes_while_a_connection_is_wedged_on_a_full_gate() {
    let net = build_untrained(arch::mnist_2c(), 5);
    let router = Arc::new(
        Router::start(vec![ShardSpec::new(
            "stall",
            Arc::clone(&net),
            ServerConfig {
                // a size-bound batch that never fills: admitted requests
                // hold their gate slots indefinitely
                policy: BatchPolicy::by_size(1 << 20),
                queue_capacity: 2,
                workers: 1,
                ..ServerConfig::default()
            },
        )])
        .unwrap(),
    );
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();

    // pipeline well past the gate: requests 1–2 occupy it, request 3
    // wedges the reader in admission, 4–6 sit unread in the socket
    let (mut client, replies) = net::split(TcpStream::connect(edge.local_addr()).unwrap()).unwrap();
    let x = codec::tensor_payload(&image(0));
    for id in 0..6 {
        client
            .queue(id, "stall", &SubmitOptions::default(), None, &x)
            .unwrap();
        client.flush().unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while router.metrics().shards[0].total().submitted < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "the gate never filled"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop((client, replies));

    // shutdown must come back even though the reader is parked on a gate
    // that will never drain; run it on a scratch thread so a regression
    // fails the test instead of hanging it
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        edge.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("TcpServer::shutdown wedged behind a full admission gate");

    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    let stall = metrics.shards[0].total();
    assert_eq!(stall.submitted, 2, "only the gate's capacity was admitted");
    assert_eq!(stall.completed, 0);
    assert_eq!(stall.cancelled, 2, "orphaned admissions were cancelled");
    assert_eq!(metrics.total().queue_depth, 0);
}
