//! Per-request lifecycle spans: trace ids, timestamped events, the
//! thread-local lock-free rings they are recorded into, and the
//! [`Telemetry`] handle that owns configuration and draining.
//!
//! The design goals, in order: (1) recording must be cheap enough to stay
//! compiled into production paths (one relaxed atomic load and a slot
//! write on the hot path, a single branch when spans are off); (2) no
//! locks on the producer side — each `(thread, Telemetry)` pair owns a
//! private single-producer/single-consumer ring; (3) bounded memory —
//! rings drop (and count) events rather than grow when a collector falls
//! behind.

use std::cell::{RefCell, UnsafeCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Capacity of each per-thread event ring. At 24 bytes per event this is
/// ~96 KiB per recording thread; a drain every few thousand requests keeps
/// rings far from full.
const RING_CAPACITY: usize = 4096;

/// Process-global trace-id source. Starts at 1: id 0 is reserved as "no
/// trace" on the wire, so [`TraceId`] can guarantee non-zero.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Process-global [`Telemetry`] instance ids, used to key the per-thread
/// ring registry (one thread may record into several instances — e.g. a
/// client thread submitting to several servers).
static NEXT_TELEMETRY_ID: AtomicU64 = AtomicU64::new(1);

/// A non-zero request trace id, unique within the process and carried
/// across the TCP edge so one trace covers the wire hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// Allocate the next process-unique trace id.
    pub fn next() -> TraceId {
        TraceId(NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// Reconstruct a trace id received off the wire. Zero means "no
    /// trace" and yields `None`.
    pub fn from_raw(raw: u64) -> Option<TraceId> {
        (raw != 0).then_some(TraceId(raw))
    }

    /// The raw wire representation.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace#{:x}", self.0)
    }
}

/// A point in a request's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Admission-gate slot acquired; the request enters the system.
    Admit,
    /// Pushed onto the server's queue.
    Enqueue,
    /// The batch containing this request was sealed (size/deadline/flush)
    /// by the worker that took it, and the request is going to be evaluated.
    BatchSeal,
    /// That worker began evaluating the request's group of the batch.
    Dispatch,
    /// The cascade evaluated conditional stage `n` for this request.
    Stage(u32),
    /// The request exited the cascade at stage `n`.
    Exit(u32),
    /// The result was handed back to the waiter.
    Reply,
    /// Recorded by nothing: the serving layer has no replica health any
    /// more. Held while the measurement harness matches on it (ROADMAP
    /// 1(g)); timeline reconstruction ignores it.
    Health {
        /// A former state code.
        from: u8,
        /// A former state code.
        to: u8,
    },
}

/// One timestamped lifecycle event. `at_ns` is nanoseconds since the
/// owning [`Telemetry`]'s epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// The request this event belongs to.
    pub trace: TraceId,
    /// What happened.
    pub kind: EventKind,
    /// When it happened, in nanoseconds since the owning [`Telemetry`]'s epoch.
    pub at_ns: u64,
}

/// A single-producer/single-consumer ring of [`SpanEvent`]s.
///
/// The owning thread is the only producer; drains are serialized by the
/// registry lock in [`Telemetry::drain`], making the consumer side
/// effectively single as well. Slots are plain `UnsafeCell`s initialized
/// with a dummy event (the type is `Copy`, so no `MaybeUninit` dance):
/// the producer publishes a slot with a release store of `head`, the
/// consumer acquires `head` before reading, so every slot read is
/// ordered after the write that filled it.
struct SpanRing {
    slots: Box<[UnsafeCell<SpanEvent>]>,
    /// Total events ever pushed; slot `i` lives at `i % capacity`.
    head: AtomicUsize,
    /// Total events ever popped.
    tail: AtomicUsize,
    /// Events discarded because the ring was full.
    dropped: AtomicU64,
}

// SAFETY: the SPSC protocol above is the only access pattern — the
// producer writes slots in `(tail, tail + capacity]` exclusive of the
// consumer's range, with release/acquire pairs on `head`/`tail` ordering
// the slot accesses.
unsafe impl Send for SpanRing {}
unsafe impl Sync for SpanRing {}

impl SpanRing {
    fn new() -> Self {
        let dummy = SpanEvent {
            trace: TraceId(u64::MAX),
            kind: EventKind::Admit,
            at_ns: 0,
        };
        Self {
            slots: (0..RING_CAPACITY).map(|_| UnsafeCell::new(dummy)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Producer side: returns `false` (and counts a drop) when full.
    fn push(&self, event: SpanEvent) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head - tail == RING_CAPACITY {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // SAFETY: `head - tail < capacity`, so slot `head % capacity` is
        // outside the consumer's unread range; the release store below
        // publishes the write.
        unsafe { *self.slots[head % RING_CAPACITY].get() = event };
        self.head.store(head + 1, Ordering::Release);
        true
    }

    /// Consumer side (callers hold the registry lock): drain everything
    /// currently published into `out`.
    fn pop_all(&self, out: &mut Vec<SpanEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Relaxed);
        out.reserve(head - tail);
        for i in tail..head {
            // SAFETY: `i < head` was published by a release store after
            // the slot write; the acquire load above ordered it.
            out.push(unsafe { *self.slots[i % RING_CAPACITY].get() });
        }
        self.tail.store(head, Ordering::Release);
    }
}

thread_local! {
    /// Per-thread registry of rings, keyed by [`Telemetry`] instance id.
    /// Linear scan: a thread talks to a handful of *live* instances at
    /// most — registering a ring drops those whose domain is gone.
    static THREAD_RINGS: RefCell<Vec<(u64, Arc<SpanRing>)>> = const { RefCell::new(Vec::new()) };
}

/// Runtime telemetry switchboard: whether lifecycle spans are recorded.
/// The [`Default`] is spans off, the production setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Record per-request lifecycle spans. When `false`, every recording
    /// call is a single branch — safe to leave compiled into production.
    pub spans: bool,
}

impl TelemetryConfig {
    /// Spans on, every trace recorded — the right setting for tests and
    /// offline trace capture.
    pub fn enabled() -> Self {
        Self { spans: true }
    }
}

struct TelemetryInner {
    id: u64,
    config: TelemetryConfig,
    epoch: Instant,
    /// Every ring ever registered by a recording thread — the drain side.
    /// Also serializes drains (SPSC consumer exclusivity).
    rings: Mutex<Vec<Arc<SpanRing>>>,
}

/// A cheaply clonable handle owning one telemetry domain: its config, its
/// time epoch, and the collected span rings. A server (or a client-side
/// harness) holds one; every recording thread lazily registers a private
/// ring with it on first use.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("config", &self.inner.config)
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// A telemetry domain with the given configuration.
    pub fn new(config: TelemetryConfig) -> Self {
        Self {
            inner: Arc::new(TelemetryInner {
                id: NEXT_TELEMETRY_ID.fetch_add(1, Ordering::Relaxed),
                config,
                epoch: Instant::now(),
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A domain with spans off: `begin_trace` returns `None` and `record`
    /// is a single branch.
    pub fn disabled() -> Self {
        Self::new(TelemetryConfig::default())
    }

    /// Start a trace for a new request: a fresh id iff spans are on.
    /// `None` means "record nothing for this request" — callers thread the
    /// `Option` through and every downstream record becomes free.
    pub fn begin_trace(&self) -> Option<TraceId> {
        self.inner.config.spans.then(TraceId::next)
    }

    /// Adopt a trace id that arrived from elsewhere (the TCP edge):
    /// returns it iff this domain records spans.
    pub fn adopt(&self, trace: TraceId) -> Option<TraceId> {
        self.inner.config.spans.then_some(trace)
    }

    /// Record a lifecycle event on the calling thread's ring. O(1),
    /// lock-free; a single branch when spans are off.
    pub fn record(&self, trace: TraceId, kind: EventKind) {
        if !self.inner.config.spans {
            return;
        }
        let event = SpanEvent {
            trace,
            kind,
            at_ns: u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
        };
        THREAD_RINGS.with(|rings| {
            let mut rings = rings.borrow_mut();
            if let Some((_, ring)) = rings.iter().find(|(id, _)| *id == self.inner.id) {
                ring.push(event);
                return;
            }
            // a domain that was dropped released its half of every ring it
            // collected: what this thread alone still holds is garbage
            // (every server is a new domain, so each `swap_model` would
            // otherwise leave ~96 KiB behind per recording thread)
            rings.retain(|(_, ring)| Arc::strong_count(ring) > 1);
            let ring = Arc::new(SpanRing::new());
            self.inner.rings.lock().unwrap().push(Arc::clone(&ring));
            ring.push(event);
            rings.push((self.inner.id, ring));
        });
    }

    /// Drain every thread's ring, returning all events recorded since the
    /// last drain sorted by timestamp.
    pub fn drain(&self) -> Vec<SpanEvent> {
        let rings = self.inner.rings.lock().unwrap();
        let mut out = Vec::new();
        for ring in rings.iter() {
            ring.pop_all(&mut out);
        }
        out.sort_by_key(|e| e.at_ns);
        out
    }

    /// Total events discarded because a ring filled up between drains.
    pub fn dropped(&self) -> u64 {
        let rings = self.inner.rings.lock().unwrap();
        rings
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert_ne!(a, b);
        assert_ne!(a.raw(), 0);
        assert_eq!(TraceId::from_raw(0), None);
        assert_eq!(TraceId::from_raw(a.raw()), Some(a));
    }

    #[test]
    fn disabled_domain_records_nothing() {
        let t = Telemetry::disabled();
        assert!(t.begin_trace().is_none());
        t.record(TraceId::next(), EventKind::Admit);
        assert!(t.drain().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn events_round_trip_through_the_ring_in_order() {
        let t = Telemetry::new(TelemetryConfig::enabled());
        let trace = t.begin_trace().expect("spans are on");
        t.record(trace, EventKind::Admit);
        t.record(trace, EventKind::BatchSeal);
        t.record(trace, EventKind::Stage(0));
        t.record(trace, EventKind::Exit(1));
        let events = t.drain();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(events[0].kind, EventKind::Admit);
        assert_eq!(events[3].kind, EventKind::Exit(1));
        assert!(events.iter().all(|e| e.trace == trace));
        assert!(t.drain().is_empty(), "second drain sees nothing new");
    }

    #[test]
    fn cross_thread_events_are_all_collected() {
        let t = Telemetry::new(TelemetryConfig::enabled());
        let threads = 4;
        let per_thread = 100;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let t = t.clone();
                scope.spawn(move || {
                    let trace = t.begin_trace().unwrap();
                    for s in 0..per_thread {
                        t.record(trace, EventKind::Stage(s as u32));
                    }
                });
            }
        });
        let events = t.drain();
        assert_eq!(events.len(), threads * per_thread);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_and_counts_instead_of_blocking() {
        let t = Telemetry::new(TelemetryConfig::enabled());
        let trace = t.begin_trace().unwrap();
        for _ in 0..(RING_CAPACITY + 100) {
            t.record(trace, EventKind::Reply);
        }
        assert_eq!(t.drain().len(), RING_CAPACITY);
        assert_eq!(t.dropped(), 100);
        // the ring is usable again after the drain
        t.record(trace, EventKind::Reply);
        assert_eq!(t.drain().len(), 1);
    }

    #[test]
    fn a_thread_keeps_rings_only_for_live_domains() {
        let registered = || THREAD_RINGS.with(|rings| rings.borrow().len());
        let keeper = Telemetry::new(TelemetryConfig::enabled());
        keeper.record(TraceId::next(), EventKind::Admit);
        assert_eq!(registered(), 1);
        // every server is a domain of its own: a few dozen come and go
        for _ in 0..40 {
            let short_lived = Telemetry::new(TelemetryConfig::enabled());
            short_lived.record(TraceId::next(), EventKind::Admit);
            assert_eq!(short_lived.drain().len(), 1);
            assert!(registered() <= 2, "{} rings for two domains", registered());
        }
        // the next registration collects the last dead one; the live
        // domain's ring, events included, is untouched
        let other = Telemetry::new(TelemetryConfig::enabled());
        other.record(TraceId::next(), EventKind::Admit);
        assert_eq!(registered(), 2);
        keeper.record(TraceId::next(), EventKind::Reply);
        assert_eq!(keeper.drain().len(), 2);
        assert_eq!(other.drain().len(), 1);
    }
}
