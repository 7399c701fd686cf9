//! The program under test for the wire workloads, run as a child process:
//! `Router::start` with two single-replica shards on `ServerConfig::default()`
//! behind `TcpServer::bind` with `EdgeConfig::default()`.
//!
//! The parent talks to it over pipes: the child prints `READY <port>`, and
//! when its standard input ends it shuts the edge and the router down and
//! prints one JSON line with the final `Router::metrics()` totals (plus the
//! span phases when tracing is on).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cdl_hw::OpCount;
use cdl_serve::{
    EventKind, Router, RouterMetrics, ServerConfig, ShardSpec, SpanEvent, TcpServer,
    TelemetryConfig, TraceId,
};

use crate::json::{obj, render, Content};
use crate::prepare::{load_models, MODEL_NAMES};

/// The router every serving measurement uses; `spans` switches request
/// tracing on through the config, nothing else differs.
pub fn start_router(spans: bool) -> Router {
    let config = ServerConfig {
        telemetry: if spans {
            TelemetryConfig::enabled()
        } else {
            TelemetryConfig::default()
        },
        ..ServerConfig::default()
    };
    let shards = load_models()
        .into_iter()
        .zip(MODEL_NAMES)
        .map(|(net, name)| ShardSpec::new(name, net, config.clone()))
        .collect();
    Router::start(shards).expect("the benchmark's router configuration is valid")
}

/// Sums of the phases of every traced request that reached its reply, in
/// nanoseconds, built incrementally because the span rings hold only 4096
/// events per thread and must be drained while the run is going.
#[derive(Default)]
pub struct SpanTotals {
    open: HashMap<TraceId, [Option<u64>; 6]>,
    pub traces: u64,
    /// Admit→Enqueue, Enqueue→BatchSeal, BatchSeal→Dispatch, Dispatch→Exit,
    /// Exit→Reply.
    pub phase_ns: [u64; 5],
}

impl SpanTotals {
    pub fn absorb(&mut self, events: &[SpanEvent]) {
        for e in events {
            let slot = match e.kind {
                EventKind::Admit => 0,
                EventKind::Enqueue => 1,
                EventKind::BatchSeal => 2,
                EventKind::Dispatch => 3,
                EventKind::Exit(_) => 4,
                EventKind::Reply => 5,
                EventKind::Stage(_) | EventKind::Health { .. } => continue,
            };
            let marks = self.open.entry(e.trace).or_default();
            marks[slot] = Some(e.at_ns);
            if slot == 5 {
                let marks = self.open.remove(&e.trace).expect("entry was just touched");
                if let [Some(a), Some(q), Some(s), Some(d), Some(x), Some(r)] = marks {
                    self.traces += 1;
                    for (total, (from, to)) in
                        self.phase_ns
                            .iter_mut()
                            .zip([(a, q), (q, s), (s, d), (d, x), (x, r)])
                    {
                        *total += to.saturating_sub(from);
                    }
                }
            }
        }
        // requests that expired or were cancelled never reply: drop their
        // half-open entries once they are clearly stale
        if self.open.len() > 100_000 {
            self.open.clear();
        }
    }
}

/// The six op counts in the order the metrics line carries them.
pub fn ops_array(ops: OpCount) -> [u64; 6] {
    [
        ops.macs,
        ops.adds,
        ops.compares,
        ops.activations,
        ops.mem_reads,
        ops.mem_writes,
    ]
}

fn op_fields(ops: OpCount) -> Content {
    Content::Seq(ops_array(ops).map(Content::U64).to_vec())
}

/// The totals of one `Router::metrics()` snapshot as a flat JSON object.
pub fn metrics_json(m: &RouterMetrics, spans: &SpanTotals) -> Content {
    let replicas = || {
        m.shards
            .iter()
            .flat_map(|s| &s.replicas)
            .map(|r| &r.metrics)
    };
    let sum = |f: &dyn Fn(&cdl_serve::ServerMetrics) -> u64| replicas().map(f).sum::<u64>();
    let evaluated: u64 = replicas()
        .flat_map(|r| r.batch_size_histogram.iter().enumerate())
        .map(|(size, &count)| size as u64 * count)
        .sum();
    let latency = m.latency_histogram();
    let n = |v: u64| Content::U64(v);
    obj([
        ("submitted", n(m.submitted())),
        ("rejected", n(m.rejected())),
        ("completed", n(m.completed())),
        ("cancelled", n(m.cancelled())),
        ("failed", n(m.failed())),
        ("expired", n(m.expired())),
        ("shed", n(m.shed())),
        ("queue_depth", n(m.queue_depth() as u64)),
        ("batches", n(m.batches())),
        ("batches_full", n(sum(&|r| r.batches_full))),
        ("batch_members", n(evaluated)),
        ("retries", n(m.shards.iter().map(|s| s.retries).sum())),
        ("hedges", n(m.shards.iter().map(|s| s.hedges).sum())),
        ("total_ops", op_fields(m.total_ops())),
        ("expired_partial_ops", op_fields(m.expired_partial_ops())),
        ("latency_count", n(latency.count())),
        ("latency_sum_ns", n(latency.sum())),
        ("span_traces", n(spans.traces)),
        (
            "span_phase_ns",
            Content::Seq(spans.phase_ns.map(Content::U64).to_vec()),
        ),
    ])
}

/// Entry point of the `serve` subcommand.
pub fn run(spans: bool) {
    let router = Arc::new(start_router(spans));
    let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router)).expect("bind loopback");
    let totals = Arc::new(Mutex::new(SpanTotals::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let drainer = spans.then(|| {
        let (router, totals, stop) = (Arc::clone(&router), Arc::clone(&totals), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let events = router.drain_spans();
                totals.lock().expect("span totals lock").absorb(&events);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    });

    let mut out = std::io::stdout().lock();
    writeln!(out, "READY {}", edge.local_addr().port()).expect("parent reads stdout");
    out.flush().expect("parent reads stdout");
    // block until the parent closes the pipe (or dies)
    let _ = std::io::stdin().lock().read_to_end(&mut Vec::new());

    edge.shutdown();
    stop.store(true, Ordering::SeqCst);
    if let Some(handle) = drainer {
        handle.join().expect("span drainer");
    }
    let mut totals = totals.lock().expect("span totals lock");
    totals.absorb(&router.drain_spans());
    let router = Arc::try_unwrap(router).expect("edge and drainer released the router");
    let final_metrics = router.shutdown();
    writeln!(out, "{}", render(&metrics_json(&final_metrics, &totals)))
        .expect("parent reads stdout");
}
