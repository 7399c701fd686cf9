//! `cdl-telemetry`: low-overhead structured tracing and mergeable
//! tail-latency telemetry for the CDL serving stack.
//!
//! The serving pipeline (admission gate → queue → batch-sealing workers →
//! model routing → TCP edge) needs two kinds of visibility that plain
//! end-state aggregates cannot give: *mergeable* latency distributions, so
//! model- and router-level tails are real percentiles instead of
//! unaggregatable per-server numbers, and *per-request lifecycle spans*,
//! so a slow request can be attributed to queueing vs batching vs
//! evaluation vs reply delivery. Both are built to stay compiled into
//! production paths.
//!
//! # Pillar 1: mergeable log-bucketed histograms
//!
//! [`LogHistogram`] is an HDR-style log-linear bucketed histogram over
//! `u64` samples (latencies in nanoseconds, by convention):
//!
//! - **Bucket scheme.** Values `0..64` get exact single-value buckets.
//!   Above that, each power-of-two range `[2^h, 2^(h+1))` is split into
//!   32 linear sub-buckets (`SUB_BITS = 5`), for at most 1920 buckets
//!   (~15 KiB) over the whole `u64` range. Indexing is a branch, a
//!   leading-zeros count, and a shift — O(1), no allocation.
//! - **Error bound.** A bucket at exponent `exp` spans `w = 2^exp` values
//!   starting at `lo ≥ 32·w`; quantiles report the bucket midpoint, which
//!   is within `w/2` of any member, so the relative error is at most
//!   `(w/2) / (32·w) = 1/64 ≈ 1.6%` ([`MAX_RELATIVE_ERROR`]). Lifetime
//!   `count`/`sum`/`min`/`max` are tracked exactly, quantile estimates
//!   are clamped to the exact extremes, and `q = 0`/`q = 1` are exact.
//! - **Mergeability.** [`LogHistogram::merge`] adds bucket counts
//!   pointwise: associative, commutative, and *lossless* — merging
//!   per-server histograms yields exactly the histogram that one global
//!   recorder would have produced, so p99.9 across servers is a
//!   true order statistic of the union, not an average of averages.
//! - **Snapshot cost.** A quantile ([`LogHistogram::quantile`]) walks the
//!   buckets once: O(1920) regardless of sample count, replacing the serve
//!   layer's old sort-a-65k-ring-per-snapshot scheme.
//!
//! # Pillar 2: per-request lifecycle spans
//!
//! A request's life is a sequence of [`SpanEvent`]s — [`EventKind::Admit`]
//! (admission slot acquired), [`EventKind::Enqueue`], [`EventKind::BatchSeal`],
//! [`EventKind::Dispatch`], one [`EventKind::Stage`] per conditional
//! cascade stage evaluated, [`EventKind::Exit`] with the exit stage, and
//! [`EventKind::Reply`] — each stamped with nanoseconds since the owning
//! [`Telemetry`]'s epoch and tagged with a process-unique non-zero
//! [`TraceId`]. The id travels across the TCP edge in a flag-gated frame
//! header extension, so one trace covers the wire hop.
//!
//! Recording goes to a lock-free single-producer/single-consumer ring
//! buffer private to each `(thread, Telemetry)` pair; [`Telemetry::drain`]
//! collects every ring under one registry lock. Rings are bounded: if a
//! collector falls behind, events are dropped and counted
//! ([`Telemetry::dropped`]), never blocking the serving path.
//!
//! # What tracing costs
//!
//! - **Spans off** (the default): [`Telemetry::record`] is one branch on a
//!   plain bool behind an `Arc`; [`Telemetry::begin_trace`] is the same
//!   branch returning `None`. No atomics, no timestamps, no allocation —
//!   cheap enough to leave in release binaries unconditionally.
//! - **Spans on**: one `Instant::elapsed` read, a thread-local lookup,
//!   and a ring push (one release store) per event; roughly seven events
//!   per request end to end. Every request is traced: there is no
//!   sampling, [`TelemetryConfig::spans`] is the whole switchboard.
//!
//! # Export
//!
//! [`TelemetrySnapshot`] carries counters, histogram series, and drained
//! spans, and renders both ways: [`TelemetrySnapshot::render_prometheus`]
//! (text exposition: `# TYPE` headers, cumulative `_bucket{le=...}`
//! series, `_sum`/`_count`) and [`TelemetrySnapshot::render_chrome_trace`]
//! (trace-event JSON loadable in `chrome://tracing` or Perfetto — one row
//! per trace with queue/batch/eval/reply and per-stage slices).
//! [`PhaseBreakdown`] reduces drained spans to mean per-phase waits for
//! plain-text reports.
//!
//! ```
//! use cdl_telemetry::{EventKind, LogHistogram, Telemetry, TelemetryConfig};
//!
//! // mergeable tails: two servers' histograms roll up losslessly
//! let (mut a, mut b) = (LogHistogram::new(), LogHistogram::new());
//! for ns in 0..1000u64 {
//!     if ns % 2 == 0 { a.record(ns) } else { b.record(ns) }
//! }
//! let mut merged = a.clone();
//! merged.merge(&b);
//! assert_eq!(merged.count(), 1000);
//! assert_eq!(merged.quantile(1.0), Some(999)); // exact extremes
//!
//! // lifecycle spans: record, drain, attribute
//! let telemetry = Telemetry::new(TelemetryConfig::enabled());
//! let trace = telemetry.begin_trace().expect("spans are on");
//! telemetry.record(trace, EventKind::Admit);
//! telemetry.record(trace, EventKind::Reply);
//! assert_eq!(telemetry.drain().len(), 2);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod export;
mod histogram;
mod span;

pub use export::{CounterMetric, HistogramMetric, PhaseBreakdown, TelemetrySnapshot};
pub use histogram::{LogHistogram, MAX_RELATIVE_ERROR};
pub use span::{EventKind, SpanEvent, Telemetry, TelemetryConfig, TraceId};
