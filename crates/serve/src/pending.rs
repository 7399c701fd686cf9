//! One-shot response handles: the future-like half a caller holds while the
//! server works on its request.
//!
//! A settle wakes only what waits: the slot's condvar if a blocking wait
//! recorded itself on it, the registered waker if the TCP edge left one.
//! std's futex condvar makes a `FUTEX_WAKE` syscall on every notify, waiter
//! or not, and on the wire path nobody blocks on the condvar.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use cdl_core::network::CdlOutput;
use cdl_telemetry::TraceId;

use crate::error::{ServeError, ServeResult};

/// Lifecycle of one request's response slot.
#[derive(Debug)]
enum SlotState {
    /// Submitted, not yet evaluated.
    Waiting,
    /// Result available, not yet claimed by the waiter.
    Done(ServeResult<CdlOutput>),
    /// The caller dropped its [`Pending`] before the result arrived; the
    /// pipeline will skip evaluating this request.
    Cancelled,
    /// Result handed to the waiter.
    Claimed,
}

/// One-shot settle notification: registered by a readiness-driven waiter
/// (the TCP edge's pollers), invoked by whichever thread settles the slot.
type WakeFn = Box<dyn FnOnce() + Send>;

/// State guarded by the slot's mutex: the lifecycle plus the optional
/// waker, kept under one lock so a waker registration can never race a
/// settle into a missed wake.
struct SlotInner {
    state: SlotState,
    waker: Option<WakeFn>,
    /// A [`Pending::wait`] / [`Pending::wait_timeout`] has parked on the
    /// slot's condvar. Set under this lock before each wait, so a settle that
    /// reads it `false` knows nobody can be parked and skips the notify.
    waited: bool,
}

impl std::fmt::Debug for SlotInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotInner")
            .field("state", &self.state)
            .field("waker", &self.waker.is_some())
            .field("waited", &self.waited)
            .finish()
    }
}

/// The shared slot between one [`Pending`] and one [`Fulfiller`].
#[derive(Debug)]
struct Slot {
    inner: Mutex<SlotInner>,
    ready: Condvar,
}

/// Creates a connected response pair: the caller keeps the [`Pending`], the
/// server pipeline carries the [`Fulfiller`] alongside the input tensor.
/// `trace` is the request's telemetry trace id, if any — surfaced
/// on [`Pending::trace`] so callers can correlate their handle with the
/// drained span events.
pub(crate) fn pending_pair(trace: Option<TraceId>) -> (Pending, Fulfiller) {
    let slot = Arc::new(Slot {
        inner: Mutex::new(SlotInner {
            state: SlotState::Waiting,
            waker: None,
            waited: false,
        }),
        ready: Condvar::new(),
    });
    (
        Pending {
            slot: Arc::clone(&slot),
            trace,
        },
        Fulfiller {
            slot,
            settled: false,
        },
    )
}

/// A pending classification: a one-shot, future-like handle to the
/// [`cdl_core::network::CdlOutput`] the server will produce.
///
/// Dropping a `Pending` before the result arrives **cancels** the request:
/// the workers skip it without spending any evaluator operations on
/// it (it is counted in [`crate::ServerMetrics::cancelled`]).
#[derive(Debug)]
pub struct Pending {
    slot: Arc<Slot>,
    trace: Option<TraceId>,
}

impl Pending {
    /// The telemetry trace id this request is being recorded under —
    /// `Some` only when the server's [`cdl_telemetry::TelemetryConfig`]
    /// has spans on. Use it to pick this request's events out of a
    /// [`cdl_telemetry::Telemetry`] drain.
    pub fn trace(&self) -> Option<TraceId> {
        self.trace
    }

    /// Registers a one-shot callback fired when the slot settles (result
    /// delivered or the pipeline dropped the request). Fired **at most
    /// once**, from whichever thread settles, outside the slot's lock; if
    /// the slot is already settled it fires immediately on this thread.
    /// A later registration replaces an unfired earlier one.
    ///
    /// This is the readiness hook the event-loop edge uses: the callback
    /// enqueues a completion and wakes the owning poller.
    pub(crate) fn set_waker(&self, wake: impl FnOnce() + Send + 'static) {
        let mut inner = self.slot.inner.lock().unwrap();
        match inner.state {
            SlotState::Waiting => inner.waker = Some(Box::new(wake)),
            SlotState::Done(_) => {
                inner.waker = None;
                drop(inner);
                wake();
            }
            // cancelled or claimed: no result will arrive / it was already
            // taken — nothing to wake for
            SlotState::Cancelled | SlotState::Claimed => {}
        }
    }

    /// Non-blocking claim: takes the result if the slot has settled,
    /// `None` if it is still pending. After a `Some`, the handle is spent
    /// (drop it; [`Pending::wait`] may no longer be called).
    pub(crate) fn try_claim(&self) -> Option<ServeResult<CdlOutput>> {
        let mut inner = self.slot.inner.lock().unwrap();
        if matches!(inner.state, SlotState::Done(_)) {
            match std::mem::replace(&mut inner.state, SlotState::Claimed) {
                SlotState::Done(result) => Some(result),
                _ => unreachable!("state checked Done under the same lock"),
            }
        } else {
            None
        }
    }

    /// Blocks until the server produced this request's result.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Eval`] when the evaluator failed on the batch
    /// containing this request, [`ServeError::Disconnected`] when the
    /// pipeline dropped it without evaluating.
    pub fn wait(self) -> ServeResult<CdlOutput> {
        let mut inner = self.slot.inner.lock().unwrap();
        while matches!(inner.state, SlotState::Waiting) {
            inner.waited = true;
            inner = self.slot.ready.wait(inner).unwrap();
        }
        match std::mem::replace(&mut inner.state, SlotState::Claimed) {
            SlotState::Done(result) => result,
            other => unreachable!("pending woke in non-terminal state {other:?}"),
        }
    }

    /// Like [`Pending::wait`] with a timeout: `Ok(result)` when the result
    /// arrived in time, `Err(self)` (the handle back, still live) when it
    /// did not.
    ///
    /// # Errors
    ///
    /// Returns the handle itself on timeout so the caller can keep waiting.
    pub fn wait_timeout(self, timeout: Duration) -> Result<ServeResult<CdlOutput>, Pending> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.slot.inner.lock().unwrap();
        while matches!(inner.state, SlotState::Waiting) {
            let now = std::time::Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now) else {
                drop(inner);
                return Err(self);
            };
            inner.waited = true;
            let (guard, timed_out) = self.slot.ready.wait_timeout(inner, remaining).unwrap();
            inner = guard;
            if timed_out.timed_out() && matches!(inner.state, SlotState::Waiting) {
                drop(inner);
                return Err(self);
            }
        }
        match std::mem::replace(&mut inner.state, SlotState::Claimed) {
            SlotState::Done(result) => Ok(result),
            other => unreachable!("pending woke in non-terminal state {other:?}"),
        }
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        let mut inner = self.slot.inner.lock().unwrap();
        if matches!(inner.state, SlotState::Waiting) {
            inner.state = SlotState::Cancelled;
        }
        // a registered waker can never fire after the handle is gone;
        // take it under the lock and drop its captures outside
        let waker = inner.waker.take();
        drop(inner);
        drop(waker);
    }
}

/// The pipeline's half of a response pair. Settling it exactly once (or
/// dropping it, which settles with [`ServeError::Disconnected`]) guarantees
/// no [`Pending`] waits forever.
#[derive(Debug)]
pub(crate) struct Fulfiller {
    slot: Arc<Slot>,
    settled: bool,
}

impl Fulfiller {
    /// `true` when the caller dropped its handle: skip evaluation.
    pub(crate) fn is_cancelled(&self) -> bool {
        matches!(self.slot.inner.lock().unwrap().state, SlotState::Cancelled)
    }

    /// Delivers the result (ignored if the caller cancelled meanwhile) and
    /// wakes the waiter: the condvar only if a wait parked on it, the
    /// registered waker if there is one.
    pub(crate) fn settle(mut self, result: ServeResult<CdlOutput>) {
        self.settle_inner(result);
    }

    fn settle_inner(&mut self, result: ServeResult<CdlOutput>) {
        if self.settled {
            return;
        }
        self.settled = true;
        let mut inner = self.slot.inner.lock().unwrap();
        let waker = if matches!(inner.state, SlotState::Waiting) {
            inner.state = SlotState::Done(result);
            if inner.waited {
                self.slot.ready.notify_all();
            }
            inner.waker.take()
        } else {
            None
        };
        drop(inner);
        // fire outside the lock: the waker may grab poller-side locks of
        // its own, and must never deadlock against a concurrent wait()
        if let Some(wake) = waker {
            wake();
        }
    }
}

impl Drop for Fulfiller {
    fn drop(&mut self) {
        self.settle_inner(Err(ServeError::Disconnected));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdl_hw::OpCount;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn output(label: usize) -> CdlOutput {
        CdlOutput {
            label,
            exit_stage: 0,
            confidence: 1.0,
            ops: OpCount::ZERO,
            stages_activated: 1,
            exited_early: true,
        }
    }

    #[test]
    fn settle_then_wait() {
        let (pending, fulfiller) = pending_pair(None);
        fulfiller.settle(Ok(output(3)));
        assert_eq!(pending.wait().unwrap().label, 3);
    }

    #[test]
    fn wait_blocks_until_settled_from_another_thread() {
        let (pending, fulfiller) = pending_pair(None);
        let handle = std::thread::spawn(move || pending.wait());
        std::thread::sleep(Duration::from_millis(10));
        fulfiller.settle(Ok(output(7)));
        assert_eq!(handle.join().unwrap().unwrap().label, 7);
    }

    #[test]
    fn wait_timeout_returns_handle_then_result() {
        let (pending, fulfiller) = pending_pair(None);
        let pending = pending
            .wait_timeout(Duration::from_millis(5))
            .expect_err("not settled yet");
        fulfiller.settle(Ok(output(1)));
        let result = pending
            .wait_timeout(Duration::from_millis(5))
            .expect("settled");
        assert_eq!(result.unwrap().label, 1);
    }

    #[test]
    fn a_wait_timeout_parked_before_the_settle_is_woken_by_it() {
        const TIMEOUT: Duration = Duration::from_secs(20);
        let (pending, fulfiller) = pending_pair(None);
        let slot = Arc::clone(&pending.slot);
        let waiter = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let label = match pending.wait_timeout(TIMEOUT) {
                Ok(result) => result.map(|out| out.label),
                Err(_) => panic!("a settled slot timed out"),
            };
            (label, start.elapsed())
        });
        // the waiter records itself under the slot's lock and parks in the
        // condvar wait that releases it: once the flag reads true, it is parked
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !slot.inner.lock().unwrap().waited {
            assert!(
                std::time::Instant::now() < deadline,
                "the waiter never recorded itself"
            );
            std::thread::yield_now();
        }
        fulfiller.settle(Ok(output(4)));
        let (label, took) = waiter.join().unwrap();
        assert_eq!(label, Ok(4));
        assert!(
            took < TIMEOUT / 2,
            "woken by the settle, not by its timeout: {took:?}"
        );
    }

    #[test]
    fn dropping_pending_cancels() {
        let (pending, fulfiller) = pending_pair(None);
        assert!(!fulfiller.is_cancelled());
        drop(pending);
        assert!(fulfiller.is_cancelled());
        // settling a cancelled slot is a quiet no-op
        fulfiller.settle(Ok(output(0)));
    }

    #[test]
    fn dropping_fulfiller_disconnects_waiter() {
        let (pending, fulfiller) = pending_pair(None);
        drop(fulfiller);
        assert_eq!(pending.wait(), Err(ServeError::Disconnected));
    }

    #[test]
    fn waker_fires_once_on_settle_and_result_is_claimable() {
        let fired = Arc::new(AtomicUsize::new(0));
        let (pending, fulfiller) = pending_pair(None);
        let f = Arc::clone(&fired);
        pending.set_waker(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert!(pending.try_claim().is_none(), "nothing to claim yet");
        fulfiller.settle(Ok(output(5)));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(pending.try_claim().unwrap().unwrap().label, 5);
        assert!(pending.try_claim().is_none(), "one-shot claim");
    }

    #[test]
    fn waker_set_after_settle_fires_immediately() {
        let fired = Arc::new(AtomicUsize::new(0));
        let (pending, fulfiller) = pending_pair(None);
        fulfiller.settle(Ok(output(2)));
        let f = Arc::clone(&fired);
        pending.set_waker(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(pending.try_claim().unwrap().unwrap().label, 2);
    }

    #[test]
    fn waker_fires_when_fulfiller_is_dropped() {
        let fired = Arc::new(AtomicUsize::new(0));
        let (pending, fulfiller) = pending_pair(None);
        let f = Arc::clone(&fired);
        pending.set_waker(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        drop(fulfiller);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(pending.try_claim().unwrap(), Err(ServeError::Disconnected));
    }

    #[test]
    fn cancelling_discards_the_waker_silently() {
        let fired = Arc::new(AtomicUsize::new(0));
        let (pending, fulfiller) = pending_pair(None);
        let f = Arc::clone(&fired);
        pending.set_waker(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        drop(pending); // cancel: discards the waker without firing
        fulfiller.settle(Ok(output(9)));
        assert_eq!(fired.load(Ordering::SeqCst), 0);
    }
}
