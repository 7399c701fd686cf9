//! TCP edge soak: the event-loop connection model under connection count,
//! churn, and shutdown-under-load.
//!
//! The edge's scaling claim is structural — threads are O(pollers), not
//! O(connections) — so these tests pin it with the OS's own ledger (the
//! `cdl-*` named tasks under `/proc/self/task`): 256 idle connections add **zero**
//! threads beyond the fixed pool, and a connect/serve/disconnect churn
//! loop leaves the count exactly where it started (regression for the old
//! edge, which spawned reader+writer threads per connection and parked
//! their join handles in a vec that only drained at shutdown). Shutdown
//! with pipelined requests still in flight must return promptly, cancel
//! the orphaned work, and leave the router's bookkeeping consistent; and an
//! edge takes its file descriptors with it, however long the router lives.

use std::net::TcpStream;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use cdl::core::arch;
use cdl::serve::net::{self, codec};
use cdl::serve::{
    BatchPolicy, EdgeConfig, Router, ServerConfig, ShardSpec, SubmitOptions, TcpClient, TcpServer,
};

mod common;
use common::{build_untrained, image};

/// Thread-count assertions can't tolerate another test on this binary
/// spawning servers concurrently: every test in this file serialises on
/// one lock and measures its baseline inside it.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The serving stack's threads: the tasks of this process named `cdl-*`
/// (`cdl-edge-poller-*`, `cdl-edge-accept`, `cdl-serve-*` — every
/// thread the stack spawns is named, and one it
/// spawned anonymously would inherit such a name), plus the tasks named
/// like the calling thread: a new thread carries its spawner's name until
/// it first runs and renames itself, so these are the stack's threads that
/// have not started yet (and the caller, a constant). The process-wide
/// `Threads:` line would also count the libtest worker of the previous
/// test while it exits.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let own = std::fs::read_to_string("/proc/thread-self/comm").unwrap();
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("cdl-") || *name == own)
        .count()
}

/// Asserts that `count()` is `expected`, allowing it two seconds to get
/// there: a thread that has been joined can stay listed for a moment while
/// the kernel reaps it (and an fd open while another thread still holds its
/// last owner); a leaked one stays for good.
#[cfg(target_os = "linux")]
fn assert_settles_at(count: fn() -> usize, expected: usize, what: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while count() != expected && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(count(), expected, "{what}");
}

/// [`assert_settles_at`] over the stack's thread count.
#[cfg(target_os = "linux")]
fn assert_thread_count(expected: usize, what: &str) {
    assert_settles_at(thread_count, expected, what);
}

/// 256 idle connections on a 2-poller edge cost buffers, not threads:
/// the process thread count after opening all of them equals the count
/// right after bind, and sampled connections still serve correctly
/// (every poller's event loop is live, not just the first).
#[cfg(target_os = "linux")]
#[test]
fn idle_connections_cost_pollers_not_threads() {
    let _guard = serial();
    let net = build_untrained(arch::mnist_2c(), 11);
    let router =
        Arc::new(Router::start(vec![ShardSpec::new("m", net, ServerConfig::default())]).unwrap());
    let edge = TcpServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&router),
        EdgeConfig { pollers: 2 },
    )
    .unwrap();
    let with_edge = thread_count();

    let mut clients: Vec<TcpClient> = (0..256)
        .map(|_| TcpClient::connect(edge.local_addr()).unwrap())
        .collect();
    // liveness across the pool: every 32nd connection round-trips one
    // request (round-robin handoff lands these on both pollers)
    let mut served = 0;
    for i in (0..clients.len()).step_by(32) {
        let result = clients[i]
            .call("m", &image(i), SubmitOptions::default())
            .unwrap();
        assert!(result.is_ok(), "sampled connection {i} failed: {result:?}");
        served += 1;
    }
    assert_thread_count(
        with_edge,
        "idle connections must not spawn threads (O(pollers) edge)",
    );

    drop(clients);
    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    assert_eq!(metrics.total().completed, served);
    assert_eq!(metrics.total().queue_depth, 0);
}

/// Connect/serve/disconnect churn neither leaks threads nor join-handle
/// state: the thread count after 60 full client lifetimes equals the
/// post-bind baseline. (Regression: the old edge pushed two JoinHandles
/// per connection into `TcpServer.connections` and never drained it
/// until shutdown — a long-lived server leaked a vec entry and two
/// parked threads per past connection.)
#[cfg(target_os = "linux")]
#[test]
fn connection_churn_leaves_no_threads_behind() {
    let _guard = serial();
    let net = build_untrained(arch::mnist_2c(), 13);
    let router =
        Arc::new(Router::start(vec![ShardSpec::new("m", net, ServerConfig::default())]).unwrap());
    let edge = TcpServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&router),
        EdgeConfig { pollers: 1 },
    )
    .unwrap();
    let baseline = thread_count();

    for i in 0..60 {
        let mut client = TcpClient::connect(edge.local_addr()).unwrap();
        let result = client
            .call("m", &image(i), SubmitOptions::default())
            .unwrap();
        assert!(result.is_ok(), "churn iteration {i} failed: {result:?}");
        drop(client);
    }
    assert_thread_count(baseline, "connection churn must not leak threads");

    edge.shutdown();
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    assert_eq!(metrics.total().completed, 60);
    assert_eq!(
        metrics.total().cancelled,
        0,
        "clean disconnects cancel nothing"
    );
    assert_eq!(metrics.total().queue_depth, 0);
}

/// Open file descriptors of this process (the directory read holds one
/// itself: a constant).
#[cfg(target_os = "linux")]
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Edge after edge bound and shut down on one long-lived router returns the
/// process to the fd count it had before the first. (Regression: each poller
/// has a gate waker that owns its eventfd; while the router kept it for its
/// life, a past edge cost one open fd per poller and a dead callback on every
/// gate release. A gate holds the wakers parked on it weakly.)
#[cfg(target_os = "linux")]
#[test]
fn rebinding_the_edge_leaves_no_fds_behind() {
    let _guard = serial();
    let net = build_untrained(arch::mnist_2c(), 19);
    let router =
        Arc::new(Router::start(vec![ShardSpec::new("m", net, ServerConfig::default())]).unwrap());
    let before = fd_count();
    for i in 0..20 {
        let edge = TcpServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&router),
            EdgeConfig { pollers: 2 },
        )
        .unwrap();
        // a served request settles through the poller's completion waker
        let mut client = TcpClient::connect(edge.local_addr()).unwrap();
        let result = client
            .call("m", &image(i), SubmitOptions::default())
            .unwrap();
        assert!(result.is_ok(), "edge {i} failed: {result:?}");
        drop(client);
        edge.shutdown();
    }
    // the worker that served the last request may still be inside the
    // settle that called the last edge's completion waker, holding it (and
    // its eventfd) for a moment more
    assert_settles_at(fd_count, before, "a shut-down edge must close its fds");
    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    assert_eq!(metrics.total().completed, 20);
    assert_eq!(metrics.total().queue_depth, 0);
}

/// Shutting the edge down with pipelined requests still in flight
/// returns promptly (pollers drop their connections instead of waiting
/// the stalled work out), cancels exactly the orphaned requests, and —
/// on Linux — returns the process to its pre-bind thread count.
#[test]
fn shutdown_under_load_cancels_inflight_and_joins_the_pool() {
    let _guard = serial();
    let net = build_untrained(arch::mnist_2c(), 17);
    let router = Arc::new(
        Router::start(vec![ShardSpec::new(
            "stall",
            net,
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
    #[cfg(target_os = "linux")]
    let before_edge = thread_count();
    let edge = TcpServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&router),
        EdgeConfig { pollers: 2 },
    )
    .unwrap();

    let mut clients: Vec<_> = (0..2)
        .map(|_| net::split(TcpStream::connect(edge.local_addr()).unwrap()).unwrap())
        .collect();
    for (c, (send, _)) in clients.iter_mut().enumerate() {
        for i in 0..4 {
            let x = codec::tensor_payload(&image(4 * c + i));
            send.queue(i as u64, "stall", &SubmitOptions::default(), None, &x)
                .unwrap();
            send.flush().unwrap();
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while router.metrics().shards[0].total().submitted < 8 {
        assert!(
            std::time::Instant::now() < deadline,
            "submissions never landed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // must not hang on the 8 stalled pendings
    edge.shutdown();
    #[cfg(target_os = "linux")]
    assert_thread_count(
        before_edge,
        "shutdown must join the accept thread and every poller",
    );
    drop(clients);

    let metrics = Arc::try_unwrap(router).unwrap().shutdown();
    let stall = metrics.shards[0].total();
    assert_eq!(stall.submitted, 8);
    assert_eq!(stall.cancelled, 8, "orphaned inflight work cancelled");
    assert_eq!(stall.completed, 0);
    assert_eq!(metrics.total().queue_depth, 0);
}
