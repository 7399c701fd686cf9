//! Exposition and analysis over collected telemetry: Prometheus text
//! exposition, Chrome trace-event JSON, and per-phase latency breakdowns
//! reconstructed from drained [`SpanEvent`]s.

use std::collections::HashMap;
use std::time::Duration;

use serde::Serialize;

use crate::histogram::LogHistogram;
use crate::span::{EventKind, SpanEvent, TraceId};

/// One counter or gauge sample with optional labels.
#[derive(Debug, Clone)]
pub struct CounterMetric {
    /// Metric name (Prometheus conventions: `snake_case`, `_total` suffix
    /// for monotonic counters, none for gauges).
    pub name: String,
    /// `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: u64,
}

/// One histogram series with optional labels.
#[derive(Debug, Clone)]
pub struct HistogramMetric {
    /// Metric name.
    pub name: String,
    /// `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// The underlying log-bucketed histogram.
    pub histogram: LogHistogram,
}

/// A point-in-time collection of telemetry, renderable as Prometheus text
/// exposition or as a Chrome trace-event JSON document.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Counter samples (monotonic: they only ever go up).
    pub counters: Vec<CounterMetric>,
    /// Gauge samples (point-in-time levels that also go down, e.g. a queue
    /// depth or a state code).
    pub gauges: Vec<CounterMetric>,
    /// Histogram series.
    pub histograms: Vec<HistogramMetric>,
    /// Lifecycle span events drained from the collector.
    pub spans: Vec<SpanEvent>,
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl TelemetrySnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a counter sample (rendered under `# TYPE … counter`).
    pub fn push_counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.counters.push(CounterMetric {
            name: name.to_string(),
            labels: owned_labels(labels),
            value,
        });
    }

    /// Append a gauge sample (rendered under `# TYPE … gauge`).
    pub fn push_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.gauges.push(CounterMetric {
            name: name.to_string(),
            labels: owned_labels(labels),
            value,
        });
    }

    /// Append a histogram series.
    pub fn push_histogram(&mut self, name: &str, labels: &[(&str, &str)], histogram: LogHistogram) {
        self.histograms.push(HistogramMetric {
            name: name.to_string(),
            labels: owned_labels(labels),
            histogram,
        });
    }

    /// Render the counters, gauges and histograms in the Prometheus text
    /// exposition format (`# TYPE` headers, cumulative `_bucket{le=...}`
    /// series plus `_sum`/`_count` per histogram).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for (kind, samples) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            for c in samples {
                if !typed.contains(&c.name.as_str()) {
                    typed.push(&c.name);
                    out.push_str(&format!("# TYPE {} {kind}\n", c.name));
                }
                out.push_str(&c.name);
                render_labels(&mut out, &c.labels, None);
                out.push_str(&format!(" {}\n", c.value));
            }
        }
        for h in &self.histograms {
            if !typed.contains(&h.name.as_str()) {
                typed.push(&h.name);
                out.push_str(&format!("# TYPE {} histogram\n", h.name));
            }
            let mut cumulative = 0u64;
            for (le, count) in h.histogram.nonzero_buckets() {
                cumulative += count;
                out.push_str(&format!("{}_bucket", h.name));
                render_labels(&mut out, &h.labels, Some(("le", &le.to_string())));
                out.push_str(&format!(" {cumulative}\n"));
            }
            out.push_str(&format!("{}_bucket", h.name));
            render_labels(&mut out, &h.labels, Some(("le", "+Inf")));
            out.push_str(&format!(" {}\n", h.histogram.count()));
            out.push_str(&format!("{}_sum", h.name));
            render_labels(&mut out, &h.labels, None);
            out.push_str(&format!(" {}\n", h.histogram.sum()));
            out.push_str(&format!("{}_count", h.name));
            render_labels(&mut out, &h.labels, None);
            out.push_str(&format!(" {}\n", h.histogram.count()));
        }
        out
    }

    /// Render the span events as a Chrome trace-event JSON document
    /// (loadable in `chrome://tracing` or Perfetto). Each trace becomes a
    /// row (`tid` = trace id) of complete (`ph: "X"`) slices: the four
    /// lifecycle phases plus one slice per cascade stage.
    pub fn render_chrome_trace(&self) -> String {
        let mut events = Vec::new();
        for t in trace_timelines(&self.spans) {
            let tid = t.trace.raw();
            let mut slice = |name: &str, from_ns: u64, to_ns: u64| {
                events.push(ChromeEvent {
                    name: name.to_string(),
                    cat: "request".to_string(),
                    ph: "X".to_string(),
                    ts: from_ns as f64 / 1e3,
                    dur: to_ns.saturating_sub(from_ns) as f64 / 1e3,
                    pid: 1,
                    tid,
                })
            };
            if let (Some(a), Some(s)) = (t.admit_ns, t.seal_ns) {
                slice("queue_wait", a, s);
            }
            if let (Some(s), Some(d)) = (t.seal_ns, t.dispatch_ns) {
                slice("batch_wait", s, d);
            }
            if let (Some(d), Some(e)) = (t.dispatch_ns, t.exit_ns) {
                slice("eval", d, e);
            }
            if let (Some(e), Some(r)) = (t.exit_ns, t.reply_ns) {
                slice("reply", e, r);
            }
            for w in t.stages.windows(2) {
                slice(&format!("stage {}", w[0].0), w[0].1, w[1].1);
            }
            if let (Some(&(stage, at)), Some(end)) = (t.stages.last(), t.exit_ns) {
                slice(&format!("stage {stage}"), at, end);
            }
        }
        let doc = ChromeTrace {
            traceEvents: events,
            displayTimeUnit: "ms".to_string(),
        };
        serde_json::to_string(&doc).expect("chrome trace serialization is infallible")
    }
}

#[allow(non_snake_case)]
#[derive(Debug, Serialize)]
struct ChromeTrace {
    traceEvents: Vec<ChromeEvent>,
    displayTimeUnit: String,
}

#[derive(Debug, Serialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    /// Start, microseconds (Chrome trace convention).
    ts: f64,
    /// Duration, microseconds.
    dur: f64,
    pid: u64,
    tid: u64,
}

/// One request's lifecycle reconstructed from its events.
#[derive(Debug, Clone)]
pub struct TraceTimeline {
    /// The trace these timestamps belong to.
    pub trace: TraceId,
    /// [`EventKind::Admit`] timestamp.
    pub admit_ns: Option<u64>,
    /// [`EventKind::Enqueue`] timestamp.
    pub enqueue_ns: Option<u64>,
    /// [`EventKind::BatchSeal`] timestamp.
    pub seal_ns: Option<u64>,
    /// [`EventKind::Dispatch`] timestamp.
    pub dispatch_ns: Option<u64>,
    /// [`EventKind::Exit`] timestamp.
    pub exit_ns: Option<u64>,
    /// [`EventKind::Reply`] timestamp.
    pub reply_ns: Option<u64>,
    /// `(stage, timestamp)` per [`EventKind::Stage`], in stage order.
    pub stages: Vec<(u32, u64)>,
}

/// Group drained events by trace id and reconstruct each request's
/// timeline, in first-seen order.
pub(crate) fn trace_timelines(events: &[SpanEvent]) -> Vec<TraceTimeline> {
    let mut order: Vec<TraceId> = Vec::new();
    let mut by_trace: HashMap<TraceId, TraceTimeline> = HashMap::new();
    for e in events {
        let t = by_trace.entry(e.trace).or_insert_with(|| {
            order.push(e.trace);
            TraceTimeline {
                trace: e.trace,
                admit_ns: None,
                enqueue_ns: None,
                seal_ns: None,
                dispatch_ns: None,
                exit_ns: None,
                reply_ns: None,
                stages: Vec::new(),
            }
        });
        match e.kind {
            EventKind::Admit => t.admit_ns = Some(e.at_ns),
            EventKind::Enqueue => t.enqueue_ns = Some(e.at_ns),
            EventKind::BatchSeal => t.seal_ns = Some(e.at_ns),
            EventKind::Dispatch => t.dispatch_ns = Some(e.at_ns),
            EventKind::Exit(_) => t.exit_ns = Some(e.at_ns),
            EventKind::Reply => t.reply_ns = Some(e.at_ns),
            EventKind::Stage(s) => t.stages.push((s, e.at_ns)),
            // replica-scoped, not part of any request's lifecycle
            EventKind::Health { .. } => {}
        }
    }
    let mut timelines: Vec<TraceTimeline> = order
        .into_iter()
        .map(|id| by_trace.remove(&id).unwrap())
        .collect();
    for t in &mut timelines {
        t.stages.sort_by_key(|&(s, _)| s);
    }
    timelines
}

/// Mean time spent in each lifecycle phase, averaged over every trace
/// whose events cover the full admit → reply path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Number of complete traces the means are computed over.
    pub traces: u64,
    /// Admission → batch seal (waiting on the queue for a batch to form).
    pub queue_wait: Duration,
    /// Batch seal → worker dispatch: both marks are made by the one worker
    /// that seals and evaluates the batch, just before its one evaluator
    /// pass, so this is ≈ 0.
    pub batch_wait: Duration,
    /// Dispatch → cascade exit (actual evaluation).
    pub eval: Duration,
    /// Cascade exit → result handed to the waiter.
    pub reply: Duration,
}

impl PhaseBreakdown {
    /// Compute the breakdown from drained events. Traces missing any of
    /// the four phase boundaries are skipped (e.g. still in flight at
    /// drain time).
    pub fn from_events(events: &[SpanEvent]) -> PhaseBreakdown {
        let mut traces = 0u64;
        let (mut queue, mut batch, mut eval, mut reply) = (0u64, 0u64, 0u64, 0u64);
        for t in trace_timelines(events) {
            let (Some(a), Some(s), Some(d), Some(e), Some(r)) =
                (t.admit_ns, t.seal_ns, t.dispatch_ns, t.exit_ns, t.reply_ns)
            else {
                continue;
            };
            traces += 1;
            queue += s.saturating_sub(a);
            batch += d.saturating_sub(s);
            eval += e.saturating_sub(d);
            reply += r.saturating_sub(e);
        }
        if traces == 0 {
            return PhaseBreakdown::default();
        }
        PhaseBreakdown {
            traces,
            queue_wait: Duration::from_nanos(queue / traces),
            batch_wait: Duration::from_nanos(batch / traces),
            eval: Duration::from_nanos(eval / traces),
            reply: Duration::from_nanos(reply / traces),
        }
    }
}

impl std::fmt::Display for PhaseBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} traced request(s): queue wait {:?} / batch wait {:?} / eval {:?} / reply {:?}",
            self.traces, self.queue_wait, self.batch_wait, self.eval, self.reply
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{EventKind, TraceId};

    fn event(trace: TraceId, kind: EventKind, at_ns: u64) -> SpanEvent {
        SpanEvent { trace, kind, at_ns }
    }

    fn full_trace(trace: TraceId, base: u64) -> Vec<SpanEvent> {
        vec![
            event(trace, EventKind::Admit, base),
            event(trace, EventKind::Enqueue, base + 10),
            event(trace, EventKind::BatchSeal, base + 100),
            event(trace, EventKind::Dispatch, base + 150),
            event(trace, EventKind::Stage(0), base + 200),
            event(trace, EventKind::Stage(1), base + 300),
            event(trace, EventKind::Exit(1), base + 400),
            event(trace, EventKind::Reply, base + 450),
        ]
    }

    #[test]
    fn phase_breakdown_averages_complete_traces() {
        let a = TraceId::next();
        let b = TraceId::next();
        let incomplete = TraceId::next();
        let mut events = full_trace(a, 0);
        events.extend(full_trace(b, 1000));
        events.push(event(incomplete, EventKind::Admit, 5000));
        let breakdown = PhaseBreakdown::from_events(&events);
        assert_eq!(breakdown.traces, 2);
        assert_eq!(breakdown.queue_wait, Duration::from_nanos(100));
        assert_eq!(breakdown.batch_wait, Duration::from_nanos(50));
        assert_eq!(breakdown.eval, Duration::from_nanos(250));
        assert_eq!(breakdown.reply, Duration::from_nanos(50));
        let text = breakdown.to_string();
        assert!(
            text.contains("queue wait"),
            "display mentions phases: {text}"
        );
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let mut snap = TelemetrySnapshot::new();
        snap.push_counter("cdl_requests_completed_total", &[("model", "m2c")], 42);
        snap.push_counter("cdl_requests_completed_total", &[("model", "m3c")], 7);
        snap.push_gauge("cdl_queue_depth", &[("model", "m2c")], 3);
        let mut h = LogHistogram::new();
        for v in [100u64, 200, 400, 100_000] {
            h.record(v);
        }
        snap.push_histogram("cdl_request_latency_ns", &[], h);
        let text = snap.render_prometheus();
        assert_eq!(
            text.matches("# TYPE cdl_requests_completed_total counter")
                .count(),
            1,
            "one TYPE line per metric name:\n{text}"
        );
        assert!(text.contains("cdl_requests_completed_total{model=\"m2c\"} 42"));
        // a level that goes down is typed gauge, never counter
        assert!(text.contains("# TYPE cdl_queue_depth gauge\ncdl_queue_depth{model=\"m2c\"} 3\n"));
        assert!(!text.contains("# TYPE cdl_queue_depth counter"));
        assert!(text.contains("# TYPE cdl_request_latency_ns histogram"));
        assert!(text.contains("cdl_request_latency_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("cdl_request_latency_ns_count 4"));
        assert!(text.contains("cdl_request_latency_ns_sum 100700"));
        // cumulative bucket counts never decrease
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=\"")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-cumulative bucket line: {line}");
            last = v;
        }
    }

    #[allow(non_snake_case)]
    #[derive(serde::Deserialize)]
    struct TraceDocProbe {
        traceEvents: Vec<TraceEventProbe>,
        displayTimeUnit: String,
    }

    // a field subset is enough: the vendored Deserialize derive looks
    // fields up by name and ignores extra JSON keys
    #[derive(serde::Deserialize)]
    struct TraceEventProbe {
        name: String,
        ph: String,
        ts: f64,
        dur: f64,
        tid: u64,
    }

    #[test]
    fn chrome_trace_is_valid_json_with_slices() {
        let trace = TraceId::next();
        let snap = TelemetrySnapshot {
            spans: full_trace(trace, 0),
            ..TelemetrySnapshot::default()
        };
        let json = snap.render_chrome_trace();
        let doc: TraceDocProbe = serde_json::from_str(&json).expect("chrome trace re-parses");
        assert_eq!(doc.displayTimeUnit, "ms");
        // 4 phase slices + 2 stage slices
        assert_eq!(doc.traceEvents.len(), 6);
        for e in &doc.traceEvents {
            assert_eq!(e.ph, "X", "complete slices only");
            assert_eq!(e.tid, trace.raw());
            assert!(e.ts >= 0.0 && e.dur >= 0.0);
            assert!(!e.name.is_empty());
        }
        let names: Vec<&str> = doc.traceEvents.iter().map(|e| e.name.as_str()).collect();
        for expected in [
            "queue_wait",
            "batch_wait",
            "eval",
            "reply",
            "stage 0",
            "stage 1",
        ] {
            assert!(
                names.contains(&expected),
                "missing slice {expected}: {names:?}"
            );
        }
    }
}
