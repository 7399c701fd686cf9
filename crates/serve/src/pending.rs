//! One-shot response handles: the future-like half a caller holds while the
//! server works on its request.
//!
//! A settle wakes one way: through the slot's waker, if one is registered.
//! The TCP edge registers a push onto its poller's completion list; a
//! blocking [`Pending::wait`] registers its own thread's `unpark`.

use std::sync::{Arc, Mutex};

use cdl_core::network::CdlOutput;

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
/// (the TCP edge's pollers) or a blocking wait, invoked by whichever thread
/// settles the slot.
type WakeFn = Box<dyn FnOnce() + Send>;

/// The slot one [`Pending`] and one [`Fulfiller`] share, behind one mutex:
/// the lifecycle plus the optional waker, kept under one lock so a waker
/// registration can never race a settle into a missed wake.
struct Slot {
    state: SlotState,
    waker: Option<WakeFn>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("state", &self.state)
            .field("waker", &self.waker.is_some())
            .finish()
    }
}

/// Creates a connected response pair: the caller keeps the [`Pending`], the
/// server pipeline carries the [`Fulfiller`] alongside the input tensor.
pub(crate) fn pending_pair() -> (Pending, Fulfiller) {
    let slot = Arc::new(Mutex::new(Slot {
        state: SlotState::Waiting,
        waker: None,
    }));
    (
        Pending {
            slot: Arc::clone(&slot),
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
    slot: Arc<Mutex<Slot>>,
}

impl Pending {
    /// Registers a one-shot callback fired when the slot settles (result
    /// delivered or the pipeline dropped the request). Fired **at most
    /// once**, from whichever thread settles, outside the slot's lock; if
    /// the slot is already settled it fires immediately on this thread.
    /// A later registration replaces an unfired earlier one.
    ///
    /// This is the readiness hook the event-loop edge uses (the callback
    /// enqueues a completion and wakes the owning poller), and the one a
    /// blocking [`Pending::wait`] parks behind.
    pub(crate) fn set_waker(&self, wake: impl FnOnce() + Send + 'static) {
        let mut slot = self.slot.lock().unwrap();
        match slot.state {
            SlotState::Waiting => slot.waker = Some(Box::new(wake)),
            SlotState::Done(_) => {
                slot.waker = None;
                drop(slot);
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
        let mut slot = self.slot.lock().unwrap();
        match std::mem::replace(&mut slot.state, SlotState::Claimed) {
            SlotState::Done(result) => Some(result),
            other => {
                slot.state = other;
                None
            }
        }
    }

    /// Blocks until the server produced this request's result: registers
    /// this thread's `unpark` as the slot's waker, then parks until the
    /// claim succeeds.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Eval`] when the evaluator failed on the batch
    /// containing this request, [`ServeError::Disconnected`] when the
    /// pipeline dropped it without evaluating.
    pub fn wait(self) -> ServeResult<CdlOutput> {
        let thread = std::thread::current();
        self.set_waker(move || thread.unpark());
        loop {
            if let Some(result) = self.try_claim() {
                return result;
            }
            std::thread::park();
        }
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        let mut slot = self.slot.lock().unwrap();
        if matches!(slot.state, SlotState::Waiting) {
            slot.state = SlotState::Cancelled;
        }
        // a registered waker can never fire after the handle is gone;
        // take it under the lock and drop its captures outside
        let waker = slot.waker.take();
        drop(slot);
        drop(waker);
    }
}

/// The pipeline's half of a response pair. Settling it exactly once (or
/// dropping it, which settles with [`ServeError::Disconnected`]) guarantees
/// no [`Pending`] waits forever.
#[derive(Debug)]
pub(crate) struct Fulfiller {
    slot: Arc<Mutex<Slot>>,
    settled: bool,
}

impl Fulfiller {
    /// `true` when the caller dropped its handle: skip evaluation.
    pub(crate) fn is_cancelled(&self) -> bool {
        matches!(self.slot.lock().unwrap().state, SlotState::Cancelled)
    }

    /// Delivers the result (ignored if the caller cancelled meanwhile) and
    /// fires the registered waker, if there is one.
    pub(crate) fn settle(mut self, result: ServeResult<CdlOutput>) {
        self.settle_inner(result);
    }

    fn settle_inner(&mut self, result: ServeResult<CdlOutput>) {
        if self.settled {
            return;
        }
        self.settled = true;
        let mut slot = self.slot.lock().unwrap();
        let waker = if matches!(slot.state, SlotState::Waiting) {
            slot.state = SlotState::Done(result);
            slot.waker.take()
        } else {
            None
        };
        drop(slot);
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
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

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
        let (pending, fulfiller) = pending_pair();
        fulfiller.settle(Ok(output(3)));
        assert_eq!(pending.wait().unwrap().label, 3);
    }

    #[test]
    fn wait_blocks_until_settled_from_another_thread() {
        let (pending, fulfiller) = pending_pair();
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            tx.send(pending.wait().map(|out| out.label)).unwrap();
        });
        std::thread::sleep(Duration::from_millis(10));
        fulfiller.settle(Ok(output(7)));
        // bounded: a settle that skipped the waker fails here, not hangs
        let label = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("woken by the settle");
        assert_eq!(label, Ok(7));
        waiter.join().unwrap();
    }

    #[test]
    fn a_wait_parked_before_the_settle_is_woken_by_it() {
        let (pending, fulfiller) = pending_pair();
        let slot = Arc::clone(&pending.slot);
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            tx.send(pending.wait().map(|out| out.label)).unwrap();
        });
        // the waiter registers its waker before its first claim: once the
        // waker is in, a settle must reach it whether or not it has parked yet
        let deadline = Instant::now() + Duration::from_secs(10);
        while slot.lock().unwrap().waker.is_none() {
            assert!(
                Instant::now() < deadline,
                "the waiter never recorded itself"
            );
            std::thread::yield_now();
        }
        fulfiller.settle(Ok(output(4)));
        // a settle that skipped the waker would leave the waiter parked
        let label = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("woken by the settle");
        assert_eq!(label, Ok(4));
        waiter.join().unwrap();
    }

    #[test]
    fn dropping_pending_cancels() {
        let (pending, fulfiller) = pending_pair();
        assert!(!fulfiller.is_cancelled());
        drop(pending);
        assert!(fulfiller.is_cancelled());
        // settling a cancelled slot is a quiet no-op
        fulfiller.settle(Ok(output(0)));
    }

    #[test]
    fn dropping_fulfiller_disconnects_waiter() {
        let (pending, fulfiller) = pending_pair();
        drop(fulfiller);
        assert_eq!(pending.wait(), Err(ServeError::Disconnected));
    }

    #[test]
    fn waker_fires_once_on_settle_and_result_is_claimable() {
        let fired = Arc::new(AtomicUsize::new(0));
        let (pending, fulfiller) = pending_pair();
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
        let (pending, fulfiller) = pending_pair();
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
        let (pending, fulfiller) = pending_pair();
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
        let (pending, fulfiller) = pending_pair();
        let f = Arc::clone(&fired);
        pending.set_waker(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        drop(pending); // cancel: discards the waker without firing
        fulfiller.settle(Ok(output(9)));
        assert_eq!(fired.load(Ordering::SeqCst), 0);
    }
}
