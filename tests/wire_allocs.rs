//! What a request costs the heap on the wire path: N requests pipelined
//! through a warm `TcpServer` over both committed benchmark models, counted
//! by a process-wide allocator. The client's send half queues into a buffer
//! the warm-up bursts grew, from tensors encoded before the count starts,
//! and its receive half reads every reply into one fixed buffer, so each
//! counted allocation is the server's — edge, gate, queue, workers,
//! evaluator and reply path together.
//!
//! Five allocations per request are left: the decoded input (the dims list,
//! the tensor's shape and its data), the `Pending` / `Fulfiller` slot and
//! the boxed completion waker. The rest is per batch — the sealed batch, its
//! live members, their input and override lists, the evaluator's outcome
//! lists — about 0.3 per request at full batches of 32. Decoding into the batch's input arena is what would take
//! the first three. (The reply frame and the model name are written and
//! read in place, and completions reach the poller through one reused list.)
//!
//! A binary of its own: the counting allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cdl::core::persist::SavedCdl;
use cdl::dataset::SyntheticMnist;
use cdl::serve::net::{self, codec};
use cdl::serve::{BatchPolicy, Router, ServerConfig, ShardSpec, SubmitOptions, TcpServer};

/// Allocations (and reallocations) made by every thread of the process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the counter is a static atomic, so counting
// neither allocates nor depends on thread-local state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MODELS: [(&str, &str); 2] = [
    (
        "MNIST_2C",
        include_str!("../benchmark/models/mnist_2c.json"),
    ),
    (
        "MNIST_3C",
        include_str!("../benchmark/models/mnist_3c.json"),
    ),
];

/// Requests per counted burst, alternating the two models: 16 full batches
/// each.
const N: usize = 1024;
const BATCH: usize = 32;

/// Allocations per request the wire path may make (measured: 5.28, steady
/// from run to run, and unchanged since full gates keep the edge's waker
/// themselves; 5.43 while a worker split each batch into one list per
/// distinct override, 6.44 while every gate release snapshotted the vacancy
/// listeners into a `Vec`, 8.47 when each reply also had a body `Vec` of its
/// own and each decode a `String` for the model name).
const CEILING: f64 = 6.0;

#[test]
fn a_warm_wire_request_allocates_a_handful() {
    let shards = MODELS
        .iter()
        .map(|&(name, json)| {
            let net = serde_json::from_str::<SavedCdl>(json)
                .expect("committed model parses")
                .restore()
                .expect("committed model restores");
            // full batches only, so the per-batch share of the count does
            // not depend on how the workers' timing happened to cut them
            let config = ServerConfig {
                policy: BatchPolicy::by_size(BATCH),
                ..ServerConfig::default()
            };
            ShardSpec::new(name, Arc::new(net), config)
        })
        .collect();
    let router = Arc::new(Router::start(shards).expect("valid router"));
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).expect("bind loopback");
    let stream = TcpStream::connect(edge.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("a read time-out");
    let (mut send, mut recv) = net::split(stream).expect("split the connection");

    let images = SyntheticMnist::default().generate_split(0, N, 71).1.images;
    let payloads: Vec<Vec<u8>> = images.iter().map(codec::tensor_payload).collect();
    let mut burst = || {
        for (i, payload) in payloads.iter().enumerate() {
            send.queue(
                i as u64,
                MODELS[i % 2].0,
                &SubmitOptions::default(),
                None,
                payload,
            )
            .expect("an encodable request");
        }
        send.flush().expect("send the burst");
        for _ in 0..N {
            let (_, result) = recv
                .recv()
                .expect("read a reply")
                .expect("a reply inside the time-out");
            assert!(result.is_ok(), "an OK reply");
        }
    };
    // twice to warm: arenas, buffers and maps reach their high-water marks
    burst();
    burst();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    burst();
    let counted = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let per_request = counted as f64 / N as f64;
    println!("{counted} allocations for {N} wire requests: {per_request:.2} per request");
    assert!(
        per_request <= CEILING,
        "{per_request:.2} allocations per wire request (ceiling {CEILING})"
    );

    edge.shutdown();
    let metrics = Arc::try_unwrap(router)
        .expect("the edge is down")
        .shutdown();
    assert_eq!(metrics.total().completed, 3 * N as u64);
}
