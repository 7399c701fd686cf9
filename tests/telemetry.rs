//! Telemetry integration suite: the observability layer's end-to-end
//! guarantees.
//!
//! * The log-bucketed histogram's quantiles stay within the documented
//!   [`MAX_RELATIVE_ERROR`] of the exact order statistic for arbitrary
//!   sample sets (proptest against a sort oracle), and merging sharded
//!   histograms is exactly equivalent to recording every sample into one.
//! * A two-model router's merged tail latencies
//!   ([`cdl::serve::RouterMetrics::total`]) agree with the merge oracle.
//! * A [`TraceId`] chosen by a TCP client rides the wire flag bit and
//!   comes back out of the server-side span drain with the full lifecycle
//!   recorded under that exact id — while responses stay bit-exact.
//! * Prometheus and Chrome-trace exports re-parse: cumulative buckets,
//!   label sets, and valid JSON with per-trace slices.
//! * Disabled telemetry is cheap enough to leave compiled into every
//!   hot path (absolute-bound smoke, not a comparative microbenchmark).

use std::sync::Arc;
use std::time::{Duration, Instant};

use cdl::core::arch;
use cdl::serve::net::{self, codec};
use cdl::serve::{
    BatchPolicy, EventKind, Router, ServerConfig, ShardSpec, SubmitOptions, TcpServer, Telemetry,
    TelemetryConfig, TraceId,
};
use cdl::telemetry::{LogHistogram, MAX_RELATIVE_ERROR};
use proptest::prelude::*;

mod common;
use common::{build_untrained, image};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles vs the exact sort oracle: for arbitrary sample
    /// sets and probe points, the estimate at the same nearest-rank
    /// position is within `MAX_RELATIVE_ERROR` (1/64) of the exact order
    /// statistic, and min/mean/max/count/sum are exact.
    #[test]
    fn quantiles_stay_within_the_error_bound(
        values in proptest::collection::vec(0u64..1_000_000_000_000, 1..300),
        qs in proptest::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut values = values;
        values.sort_unstable();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(h.min_value(), Some(values[0]));
        prop_assert_eq!(h.max_value(), Some(*values.last().unwrap()));
        prop_assert_eq!(
            h.mean(),
            Some(values.iter().sum::<u64>() / values.len() as u64)
        );
        for q in qs.iter().copied().chain([0.0, 0.5, 0.99, 0.999, 1.0]) {
            let est = h.quantile(q).unwrap();
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            prop_assert!(
                est.abs_diff(exact) as f64 <= exact as f64 * MAX_RELATIVE_ERROR,
                "q={q}: estimate {est} vs exact {exact} exceeds the 1/64 bound"
            );
        }
    }

    /// Merging per-shard histograms is *exactly* the histogram of the
    /// concatenated samples — same counts, sum, extremes, and every
    /// quantile bit-for-bit — regardless of how the samples are split or
    /// in which order the parts are folded together.
    #[test]
    fn merge_equals_single_histogram_oracle(
        values in proptest::collection::vec(0u64..1_000_000_000_000, 1..300),
        splits in proptest::collection::vec(0usize..4, 1..300),
    ) {
        let mut parts = [
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        ];
        let mut oracle = LogHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            parts[splits[i % splits.len()]].record(v);
            oracle.record(v);
        }
        // fold right-to-left so the merge order differs from record order
        let mut merged = LogHistogram::new();
        for part in parts.iter().rev() {
            merged.merge(part);
        }
        prop_assert_eq!(merged.count(), oracle.count());
        prop_assert_eq!(merged.sum(), oracle.sum());
        prop_assert_eq!(merged.min_value(), oracle.min_value());
        prop_assert_eq!(merged.max_value(), oracle.max_value());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
            prop_assert_eq!(merged.quantile(q), oracle.quantile(q), "q={}", q);
        }
    }
}

/// A two-model router's aggregate tail latencies are the merge of the
/// per-model histograms: `RouterMetrics::total()` quantiles match the
/// hand-merged oracle exactly, and the merged count covers every request.
#[test]
fn cross_model_merged_tails_match_the_oracle() {
    const REQUESTS: usize = 96;
    let config = ServerConfig {
        policy: BatchPolicy::new(8),
        queue_capacity: 256,
        workers: 1,
        ..ServerConfig::default()
    };
    let router = Router::start(vec![
        ShardSpec::new(
            "MNIST_2C",
            build_untrained(arch::mnist_2c(), 5),
            config.clone(),
        ),
        ShardSpec::new("MNIST_3C", build_untrained(arch::mnist_3c(), 9), config),
    ])
    .unwrap();
    let models = ["MNIST_2C", "MNIST_3C"].map(|name| router.model_id(name).unwrap());
    let pendings: Vec<_> = (0..REQUESTS)
        .map(|i| router.submit(models[i % 2], image(i)).unwrap())
        .collect();
    for p in pendings {
        p.wait().unwrap();
    }
    let metrics = router.shutdown();

    // oracle: fold the per-model histograms by hand
    let mut oracle = LogHistogram::new();
    for shard in &metrics.shards {
        oracle.merge(&shard.total().latency_histogram);
    }
    let routed: Vec<u64> = metrics.shards.iter().map(|s| s.routed()).collect();
    assert_eq!(routed, [REQUESTS as u64 / 2; 2]);
    let merged = metrics.total().latency_histogram;
    assert_eq!(merged.count(), REQUESTS as u64);
    assert_eq!(oracle.count(), REQUESTS as u64);
    for q in [0.5, 0.99, 0.999, 1.0] {
        assert_eq!(merged.quantile(q), oracle.quantile(q), "q={q}");
    }
    let q = |q: f64| merged.quantile(q).unwrap();
    assert!(q(0.5) <= q(0.99) && q(0.99) <= q(0.999));
}

/// A client-chosen trace id crosses the TCP edge on the wire flag bit:
/// the server records that request's lifecycle under exactly the id the
/// client picked (an untraced request on the same connection gets a
/// server-assigned id instead), and responses stay bit-exact.
#[test]
fn trace_ids_propagate_across_the_tcp_loopback() {
    let net = build_untrained(arch::mnist_3c(), 9);
    let config = ServerConfig {
        policy: BatchPolicy::new(4),
        queue_capacity: 64,
        workers: 1,
        telemetry: TelemetryConfig::enabled(),
        ..ServerConfig::default()
    };
    let router = Arc::new(
        Router::start(vec![ShardSpec::new("MNIST_3C", Arc::clone(&net), config)]).unwrap(),
    );
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let stream = std::net::TcpStream::connect(edge.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let (mut send, mut recv) = net::split(stream).unwrap();

    let trace = TraceId::next();
    let (traced_id, plain_id) = (0, 1);
    let options = SubmitOptions::default();
    let payload = |i| codec::tensor_payload(&image(i));
    send.queue(traced_id, "MNIST_3C", &options, Some(trace), &payload(0))
        .unwrap();
    send.queue(plain_id, "MNIST_3C", &options, None, &payload(1))
        .unwrap();
    send.flush().unwrap();
    let mut outputs = [None, None];
    for _ in 0..2 {
        let (id, result) = recv.recv().unwrap().expect("a reply inside the time-out");
        let slot = if id == traced_id {
            0
        } else {
            assert_eq!(id, plain_id);
            1
        };
        outputs[slot] = Some(result.unwrap());
    }
    for (i, out) in outputs.iter().enumerate() {
        let expected = net
            .classify_with_override(&image(i), Default::default())
            .unwrap();
        assert_eq!(out.as_ref().unwrap(), &expected, "request {i} over TCP");
    }

    // the traced request's whole lifecycle through its cascade exit is
    // recorded under the client's id by the time its reply arrives (the
    // reply event itself races the response frame, so it is optional
    // here); the untraced request was traced too — spans are on — but
    // under a server-assigned id, never under the client's
    let spans = router.drain_spans();
    let kinds: Vec<EventKind> = spans
        .iter()
        .filter(|e| e.trace == trace)
        .map(|e| e.kind)
        .collect();
    let other_ids: Vec<TraceId> = spans
        .iter()
        .filter(|e| e.trace != trace)
        .map(|e| e.trace)
        .collect();
    assert!(
        !other_ids.is_empty() && other_ids.iter().all(|&t| t == other_ids[0]),
        "the untraced request gets exactly one server-assigned id: {spans:?}"
    );
    for needed in [
        EventKind::Admit,
        EventKind::Enqueue,
        EventKind::BatchSeal,
        EventKind::Dispatch,
        EventKind::Stage(0),
    ] {
        assert!(kinds.contains(&needed), "missing {needed:?} in {kinds:?}");
    }
    assert!(
        kinds.iter().any(|k| matches!(k, EventKind::Exit(_))),
        "missing exit event in {kinds:?}"
    );
    edge.shutdown();
    match Arc::try_unwrap(router) {
        Ok(router) => drop(router.shutdown()),
        Err(_) => panic!("edge shutdown leaves the router unshared"),
    }
}

/// The Prometheus rendering of a live router snapshot re-parses: every
/// `_bucket{le=...}` series is cumulative, `_count` agrees with the
/// number of served requests, and the per-model label sets are present.
#[test]
fn prometheus_export_reparses_with_cumulative_buckets() {
    const REQUESTS: usize = 48;
    let config = ServerConfig {
        policy: BatchPolicy::new(8),
        queue_capacity: 64,
        workers: 1,
        ..ServerConfig::default()
    };
    let router = Router::start(vec![
        ShardSpec::new(
            "MNIST_2C",
            build_untrained(arch::mnist_2c(), 7),
            config.clone(),
        ),
        ShardSpec::new("MNIST_3C", build_untrained(arch::mnist_3c(), 8), config),
    ])
    .unwrap();
    let models = ["MNIST_2C", "MNIST_3C"].map(|name| router.model_id(name).unwrap());
    let pendings: Vec<_> = (0..REQUESTS)
        .map(|i| router.submit(models[i % 2], image(i)).unwrap())
        .collect();
    for p in pendings {
        p.wait().unwrap();
    }
    let text = router.telemetry_snapshot().render_prometheus();
    router.shutdown();

    for needle in [
        "# TYPE cdl_requests_completed_total counter",
        "# TYPE cdl_request_latency_ns histogram",
        "model=\"MNIST_2C\"",
        "model=\"MNIST_3C\"",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // completed counters over all models sum to the request count
    let completed: u64 = text
        .lines()
        .filter(|l| l.starts_with("cdl_requests_completed_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(completed, REQUESTS as u64);
    // each latency series: cumulative buckets ending at its _count value
    for model in ["MNIST_2C", "MNIST_3C"] {
        let series: Vec<u64> = text
            .lines()
            .filter(|l| {
                l.starts_with("cdl_request_latency_ns_bucket{")
                    && l.contains(&format!("model=\"{model}\""))
            })
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .collect();
        assert!(series.windows(2).all(|w| w[0] <= w[1]), "non-cumulative");
        let count_line = text
            .lines()
            .find(|l| {
                l.starts_with("cdl_request_latency_ns_count{")
                    && l.contains(&format!("model=\"{model}\""))
            })
            .unwrap();
        let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(series.last().copied(), Some(count), "model {model}");
    }
}

#[allow(non_snake_case)]
#[derive(serde::Deserialize)]
struct TraceDocProbe {
    traceEvents: Vec<TraceEventProbe>,
    displayTimeUnit: String,
}

// a field subset is enough: the vendored Deserialize derive looks fields
// up by name and ignores extra JSON keys
#[derive(serde::Deserialize)]
struct TraceEventProbe {
    name: String,
    ph: String,
    ts: f64,
    dur: f64,
    tid: u64,
}

/// A traced serving pass exports a Chrome trace that re-parses as JSON
/// with complete (`ph: "X"`) slices rowed by trace id, covering the four
/// lifecycle phases of every completed request.
#[test]
fn chrome_trace_export_reparses_from_a_live_server() {
    const REQUESTS: usize = 24;
    let net = build_untrained(arch::mnist_2c(), 11);
    let config = ServerConfig {
        policy: BatchPolicy::new(8),
        queue_capacity: 64,
        workers: 1,
        telemetry: TelemetryConfig::enabled(),
        ..ServerConfig::default()
    };
    let server = cdl::serve::Server::start(net, config).unwrap();
    let telemetry = server.telemetry().clone();
    let pendings: Vec<_> = (0..REQUESTS)
        .map(|i| server.submit(image(i)).unwrap())
        .collect();
    for p in pendings {
        p.wait().unwrap();
    }
    // drain after shutdown: the workers have joined, so every reply event
    // is in the rings and every timeline is complete
    server.shutdown();
    let snapshot = cdl::serve::TelemetrySnapshot {
        spans: telemetry.drain(),
        ..Default::default()
    };
    let json = snapshot.render_chrome_trace();

    let doc: TraceDocProbe = serde_json::from_str(&json).expect("chrome trace re-parses");
    assert_eq!(doc.displayTimeUnit, "ms");
    assert!(!doc.traceEvents.is_empty());
    let mut rows: Vec<u64> = Vec::new();
    for e in &doc.traceEvents {
        assert_eq!(e.ph, "X", "complete slices only");
        assert!(e.ts >= 0.0 && e.dur >= 0.0);
        assert!(!e.name.is_empty());
        if !rows.contains(&e.tid) {
            rows.push(e.tid);
        }
    }
    assert_eq!(rows.len(), REQUESTS, "one row per traced request");
    for phase in ["queue_wait", "batch_wait", "eval", "reply"] {
        let slices = doc.traceEvents.iter().filter(|e| e.name == phase).count();
        assert_eq!(slices, REQUESTS, "phase {phase} on every trace");
    }
}

/// Disabled telemetry must be cheap enough to stay compiled into the hot
/// path unconditionally: ten million no-op record/begin calls finish well
/// inside a generous absolute bound even on a loaded debug-mode CI box.
#[test]
fn disabled_telemetry_is_near_free() {
    let telemetry = Telemetry::disabled();
    let trace = TraceId::next();
    let started = Instant::now();
    for _ in 0..10_000_000u64 {
        assert!(telemetry.begin_trace().is_none());
        telemetry.record(trace, EventKind::Admit);
    }
    let elapsed = started.elapsed();
    assert!(telemetry.drain().is_empty());
    assert_eq!(telemetry.dropped(), 0);
    assert!(
        elapsed < Duration::from_secs(10),
        "20M disabled-path calls took {elapsed:?} — the off switch is not cheap"
    );
}
