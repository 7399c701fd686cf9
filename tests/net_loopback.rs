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

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use cdl::core::arch::{self, CdlArchitecture};
use cdl::core::confidence::{ConfidencePolicy, ExitOverride};
use cdl::core::head::LinearClassifier;
use cdl::core::network::{CdlNetwork, CdlOutput};
use cdl::nn::network::Network;
use cdl::serve::{
    BatchPolicy, ErrorCode, PlacementPolicy, ReplicaSpec, Router, ServerConfig, ShardSpec,
    SubmitOptions, TcpClient, TcpServer,
};
use cdl::tensor::Tensor;

fn build_untrained(arch: CdlArchitecture, seed: u64) -> Arc<CdlNetwork> {
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
                LinearClassifier::new(f, 10, 1).unwrap(),
            )
        })
        .collect();
    Arc::new(CdlNetwork::assemble(base, stages, ConfidencePolicy::max_prob(0.6)).unwrap())
}

fn image(i: usize) -> Tensor {
    Tensor::full(&[1, 28, 28], 0.1 + 0.07 * (i as f32 % 11.0))
}

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
                    let mut client = TcpClient::connect(addr).unwrap();
                    // pipeline the whole burst before reading anything
                    let mut sent = Vec::with_capacity(PER_CONN);
                    for j in 0..PER_CONN {
                        let i = c * PER_CONN + j;
                        let model = if i.is_multiple_of(2) {
                            "MNIST_2C"
                        } else {
                            "MNIST_3C"
                        };
                        let id = client.submit(model, &image(i), override_mix(i)).unwrap();
                        sent.push((id, i));
                    }
                    // responses may complete out of order across replicas
                    // and batches; match them up by id
                    let mut answered = vec![None; PER_CONN];
                    for _ in 0..PER_CONN {
                        let (id, result) = client.recv().unwrap();
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

// -- raw-frame helpers: this test hand-rolls the wire format on purpose,
// pinning it independently of the client-side codec --

fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

fn raw_request(id: u64, model: &str, input: &Tensor) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&id.to_be_bytes());
    body.extend_from_slice(&(model.len() as u16).to_be_bytes());
    body.extend_from_slice(model.as_bytes());
    body.push(0); // no option flags
    body.push(input.dims().len() as u8);
    for &d in input.dims() {
        body.extend_from_slice(&(d as u32).to_be_bytes());
    }
    for &v in input.data() {
        body.extend_from_slice(&v.to_bits().to_be_bytes());
    }
    frame(&body)
}

struct RawResponse {
    id: u64,
    status: u8,
    rest: Vec<u8>,
}

fn read_raw_response(stream: &mut TcpStream) -> RawResponse {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_be_bytes(header) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    RawResponse {
        id: u64::from_be_bytes(body[..8].try_into().unwrap()),
        status: body[8],
        rest: body[9..].to_vec(),
    }
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

    let mut stream = TcpStream::connect(edge.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // a garbage body (too short to even carry a request id) is answered
    // with Malformed under the sentinel id…
    stream.write_all(&frame(&[1, 2, 3, 4, 5])).unwrap();
    let reply = read_raw_response(&mut stream);
    assert_eq!(reply.id, u64::MAX);
    assert_eq!(reply.status, ErrorCode::Malformed as u8);

    // …and the connection SURVIVES: an unknown model on the same stream
    // still gets its typed error under the request's own id…
    let x = image(0);
    stream.write_all(&raw_request(42, "NOPE", &x)).unwrap();
    let reply = read_raw_response(&mut stream);
    assert_eq!(reply.id, 42);
    assert_eq!(reply.status, ErrorCode::UnknownModel as u8);

    // …and a well-formed request after both errors is served bit-exactly
    stream.write_all(&raw_request(43, "m", &x)).unwrap();
    let reply = read_raw_response(&mut stream);
    assert_eq!(reply.id, 43);
    assert_eq!(reply.status, 0, "OK status");
    let want = net.classify(&x).unwrap();
    let rest = reply.rest;
    assert_eq!(
        u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize,
        want.label
    );
    assert_eq!(
        u32::from_be_bytes(rest[4..8].try_into().unwrap()) as usize,
        want.exit_stage
    );
    assert_eq!(
        u32::from_be_bytes(rest[8..12].try_into().unwrap()),
        want.confidence.to_bits(),
        "confidence travels as its exact bit pattern"
    );

    // a frame length outside 1..=MAX_FRAME desyncs the stream: one last
    // Malformed reply, then the server hangs up
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    let reply = read_raw_response(&mut stream);
    assert_eq!(reply.id, u64::MAX);
    assert_eq!(reply.status, ErrorCode::Malformed as u8);
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "server hung up");

    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    assert_eq!(metrics.total().completed, 1);
    assert_eq!(metrics.total().failed, 0);
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

    let mut stream = TcpStream::connect(edge.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let x = image(0);
    for id in 0..3u64 {
        stream.write_all(&raw_request(id, "stall", &x)).unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while router.metrics().shards[0].total().submitted < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "submissions never landed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // desync the stream while all three requests are still pending
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    // the server hangs up without serving them: EOF, promptly (the 30s
    // read timeout would fire if the writer were still waiting the
    // pendings out)
    let mut rest = Vec::new();
    assert_eq!(
        stream.read_to_end(&mut rest).unwrap(),
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
    let mut doomed = TcpClient::connect(addr).unwrap();
    for _ in 0..3 {
        doomed
            .submit("stall", &x, SubmitOptions::default())
            .unwrap();
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
    drop(doomed);

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
