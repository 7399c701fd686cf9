//! The retry / hedge race of one request, and the timer thread that fires
//! hedges: [`admit`] is [`Router::admit`](super::Router::admit) under a
//! [`RetryPolicy`]. Where an attempt lands is `Shard::attempt`'s business
//! (placement); this module says *whether* another one is launched, and
//! which replica it must avoid.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cdl_telemetry::LogHistogram;

use super::Shard;
use crate::config::RetryPolicy;
use crate::error::{Refused, ServeError};
use crate::pending::{pending_pair, Fulfiller, Pending};
use crate::server::{Admission, Request};

/// How many hedged submissions share one cached hedge-delay computation
/// (merging every replica's latency histogram is too heavy per request).
const HEDGE_REFRESH: u64 = 128;

/// Admits `request` on `shard` as a race under `policy`: the first attempt
/// under `admission`, retryable refusals and failures relaunched on another
/// replica against the retry budget, and — when the policy hedges — a
/// second attempt armed on `timer`.
pub(super) fn admit(
    shard: &Arc<Shard>,
    policy: &RetryPolicy,
    timer: Option<&HedgeTimer>,
    request: Request,
    admission: Admission,
) -> Result<Pending, Refused> {
    let (pending, fulfiller) = pending_pair();
    let ctx = Arc::new(RaceCtx {
        shard: Arc::clone(shard),
        request,
        state: Mutex::new(RaceState {
            fulfiller: Some(fulfiller),
            retries_left: policy.max_retries,
            attempts: Vec::new(),
            next_id: 0,
        }),
    });
    if let Err(error) = RaceCtx::launch_until_inflight(&ctx, None, admission) {
        // no attempt registered and the hedge timer not yet armed:
        // the context is uniquely owned, so the original tensor (each
        // attempt took a clone) goes back to the caller
        let input = Arc::try_unwrap(ctx).ok().map(|ctx| ctx.request.input);
        return Err(Refused { error, input });
    }
    if let (Some(_), Some(timer)) = (policy.hedge_quantile, timer) {
        let delay = shard.hedge_delay(policy);
        timer.schedule(
            Instant::now() + delay,
            Box::new(move || RaceCtx::fire_hedge(&ctx)),
        );
    }
    Ok(pending)
}

impl Shard {
    /// The delay before a hedged second attempt: the shard's merged
    /// latency histogram at the policy's hedge quantile, floored at
    /// `hedge_floor`, cached across [`HEDGE_REFRESH`] submissions.
    fn hedge_delay(&self, policy: &RetryPolicy) -> Duration {
        let Some(quantile) = policy.hedge_quantile else {
            return policy.hedge_floor;
        };
        if self
            .hedge_calls
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(HEDGE_REFRESH)
        {
            let mut merged = LogHistogram::new();
            for replica in &self.replicas {
                if let Some(server) = replica.server() {
                    merged.merge(&server.metrics().latency_histogram);
                }
            }
            let delay = merged
                .quantile_duration(quantile)
                .unwrap_or(Duration::ZERO)
                .max(policy.hedge_floor);
            self.hedge_delay_ns
                .store(delay.as_nanos() as u64, Ordering::Relaxed);
        }
        Duration::from_nanos(self.hedge_delay_ns.load(Ordering::Relaxed))
    }
}

/// Whether a failed attempt may be relaunched on another replica. Typed
/// refusals (`Full` is the exception below, `Shed`, quota, validation) are
/// backpressure or caller errors — retrying them would amplify overload or
/// just fail again. `Full` *is* retryable: a sibling replica may have
/// queue headroom even when the placed one does not.
fn retryable(error: &ServeError) -> bool {
    matches!(
        error,
        ServeError::Eval(_) | ServeError::Disconnected | ServeError::Fault(_) | ServeError::Full
    )
}

/// One in-flight attempt of a retried/hedged request.
struct Attempt {
    id: u64,
    replica: usize,
    /// Shared so the slot can both be claimed on completion and dropped
    /// (→ cancelled at zero evaluator ops) when a sibling attempt wins.
    pending: Arc<Pending>,
}

/// Mutable half of one retried/hedged request's race.
struct RaceState {
    /// Taken exactly once, by whichever attempt settles the caller.
    fulfiller: Option<Fulfiller>,
    retries_left: u32,
    attempts: Vec<Attempt>,
    next_id: u64,
}

impl RaceState {
    /// Unsettled, and the caller still holds its [`Pending`]. Nothing is
    /// relaunched for a caller that hung up (a disconnected wire client
    /// must not keep spawning attempts).
    fn caller_waiting(&self) -> bool {
        self.fulfiller.as_ref().is_some_and(|f| !f.is_cancelled())
    }
}

/// One retried/hedged request: the request (cloned per attempt) plus the
/// race between its attempts. First completion wins the [`Fulfiller`];
/// losing attempts are dropped, which cancels them before any evaluator
/// ops are spent on them.
struct RaceCtx {
    shard: Arc<Shard>,
    request: Request,
    state: Mutex<RaceState>,
}

impl RaceCtx {
    /// Launches one attempt, and relaunches ([`RaceCtx::retry`]) until one
    /// is in flight or the chain dies. `admission` only holds for this
    /// first attempt — relaunches, which also run from completion
    /// callbacks, must never block a worker on a full admission gate.
    fn launch_until_inflight(
        ctx: &Arc<RaceCtx>,
        exclude: Option<usize>,
        admission: Admission,
    ) -> Result<(), ServeError> {
        match Self::one_attempt(ctx, exclude, admission) {
            Ok(()) => Ok(()),
            Err((at, error)) => Self::retry(ctx, at, error),
        }
    }

    /// An attempt on replica `at` failed with `error`, synchronously or
    /// from its completion: relaunch elsewhere while the error is
    /// retryable, the budget lasts and the caller still waits. `Err` is
    /// the failure the chain died with.
    fn retry(ctx: &Arc<RaceCtx>, mut at: usize, mut error: ServeError) -> Result<(), ServeError> {
        loop {
            let budgeted = retryable(&error) && {
                let mut state = ctx.state.lock().unwrap();
                let budgeted = state.caller_waiting() && state.retries_left > 0;
                if budgeted {
                    state.retries_left -= 1;
                }
                budgeted
            };
            if !budgeted {
                return Err(error);
            }
            ctx.shard.retries.fetch_add(1, Ordering::Relaxed);
            match Self::one_attempt(ctx, Some(at), Admission::Try) {
                Ok(()) => return Ok(()),
                Err(refusal) => (at, error) = refusal,
            }
        }
    }

    /// Places and submits one attempt. `Err` carries the refusing replica
    /// so the caller can exclude it from the relaunch.
    fn one_attempt(
        ctx: &Arc<RaceCtx>,
        exclude: Option<usize>,
        admission: Admission,
    ) -> Result<(), (usize, ServeError)> {
        let (index, admitted) = ctx.shard.attempt(exclude, ctx.request.clone(), admission);
        let pending = Arc::new(admitted.map_err(|refused| (index, refused.error))?);
        let id = {
            let mut state = ctx.state.lock().unwrap();
            if state.fulfiller.is_none() {
                // a sibling settled while this attempt was admitting:
                // dropping the handle cancels it at zero evaluator ops
                drop(state);
                return Ok(());
            }
            let id = state.next_id;
            state.next_id += 1;
            state.attempts.push(Attempt {
                id,
                replica: index,
                pending: Arc::clone(&pending),
            });
            id
        };
        // outside the state lock: an already-settled slot fires the waker
        // synchronously, and the waker re-enters the state lock
        let waker_ctx = Arc::clone(ctx);
        pending.set_waker(move || Self::on_ready(&waker_ctx, id));
        Ok(())
    }

    /// Completion callback of one attempt: settle the caller on success,
    /// [`RaceCtx::retry`] on failure.
    fn on_ready(ctx: &Arc<RaceCtx>, id: u64) {
        let mut state = ctx.state.lock().unwrap();
        let Some(position) = state.attempts.iter().position(|a| a.id == id) else {
            return; // already drained by a winning sibling
        };
        let Some(result) = state.attempts[position].pending.try_claim() else {
            return;
        };
        let attempt = state.attempts.remove(position);
        match result {
            Ok(output) => {
                let Some(fulfiller) = state.fulfiller.take() else {
                    return;
                };
                let losers: Vec<Attempt> = state.attempts.drain(..).collect();
                drop(state);
                fulfiller.settle(Ok(output));
                // dropping the losers' handles cancels them: the workers
                // skip cancelled slots without evaluating
                drop(losers);
            }
            Err(error) => {
                drop(state);
                if let Err(final_error) = Self::retry(ctx, attempt.replica, error) {
                    Self::no_attempt_left(ctx, final_error);
                }
            }
        }
    }

    /// A launch chain died with `error`: settle the caller with it unless
    /// a sibling attempt is still racing (its own outcome will settle).
    fn no_attempt_left(ctx: &Arc<RaceCtx>, error: ServeError) {
        let mut state = ctx.state.lock().unwrap();
        if state.attempts.is_empty() {
            if let Some(fulfiller) = state.fulfiller.take() {
                drop(state);
                fulfiller.settle(Err(error));
            }
        }
    }

    /// Hedge-timer callback: launch the hedged second attempt if the
    /// primary is still unsettled.
    fn fire_hedge(ctx: &Arc<RaceCtx>) {
        let primary = {
            let state = ctx.state.lock().unwrap();
            if !state.caller_waiting() || state.attempts.is_empty() {
                return; // settled, hung up, or no primary left to hedge against
            }
            state.attempts[0].replica
        };
        ctx.shard.hedges.fetch_add(1, Ordering::Relaxed);
        if let Err(error) = Self::launch_until_inflight(ctx, Some(primary), Admission::Try) {
            Self::no_attempt_left(ctx, error);
        }
    }
}

/// A timer queue entry: the instant to fire at and the callback.
type TimerEntry = (Instant, Box<dyn FnOnce() + Send>);

struct TimerQueue {
    entries: Vec<TimerEntry>,
    stopped: bool,
}

struct TimerShared {
    queue: Mutex<TimerQueue>,
    cv: Condvar,
}

/// One shared timer thread firing hedged second attempts — started only
/// when some shard actually hedges, joined on router shutdown/drop.
pub(super) struct HedgeTimer {
    shared: Arc<TimerShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HedgeTimer {
    pub(super) fn start() -> HedgeTimer {
        let shared = Arc::new(TimerShared {
            queue: Mutex::new(TimerQueue {
                entries: Vec::new(),
                stopped: false,
            }),
            cv: Condvar::new(),
        });
        let run_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("cdl-hedge-timer".into())
            .spawn(move || Self::run(&run_shared))
            .expect("spawn hedge timer thread");
        HedgeTimer {
            shared,
            thread: Some(thread),
        }
    }

    fn schedule(&self, at: Instant, fire: Box<dyn FnOnce() + Send>) {
        let mut queue = self.shared.queue.lock().unwrap();
        if queue.stopped {
            return;
        }
        queue.entries.push((at, fire));
        self.shared.cv.notify_one();
    }

    fn run(shared: &TimerShared) {
        let mut queue = shared.queue.lock().unwrap();
        loop {
            if queue.stopped {
                return;
            }
            let now = Instant::now();
            let mut due = Vec::new();
            let mut i = 0;
            while i < queue.entries.len() {
                if queue.entries[i].0 <= now {
                    due.push(queue.entries.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            if !due.is_empty() {
                // fire outside the lock: callbacks submit requests and may
                // schedule further timers
                drop(queue);
                for fire in due {
                    fire();
                }
                queue = shared.queue.lock().unwrap();
                continue;
            }
            queue = match queue.entries.iter().map(|e| e.0).min() {
                None => shared.cv.wait(queue).unwrap(),
                Some(next) => {
                    let wait = next.saturating_duration_since(now);
                    shared.cv.wait_timeout(queue, wait).unwrap().0
                }
            };
        }
    }
}

impl Drop for HedgeTimer {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.stopped = true;
            queue.entries.clear();
            self.shared.cv.notify_one();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatchPolicy, ServerConfig, SubmitOptions};
    use crate::router::tests::{build_untrained, images};
    use crate::router::{Router, ShardSpec};
    use cdl_core::arch;

    #[test]
    fn nothing_is_relaunched_for_a_caller_that_hung_up() {
        use crate::fault::{FaultKind, FaultPlan};
        // one replica whose first batch kills its worker; the never-full
        // batch holds everything admitted until shutdown flushes it
        let spec = ShardSpec::new(
            "m",
            build_untrained(arch::mnist_2c(), 5),
            ServerConfig {
                policy: BatchPolicy::by_size(1 << 20),
                queue_capacity: 8,
                workers: 1,
                fault: FaultPlan::builder().at(0, FaultKind::PanicOnce).build(),
                ..ServerConfig::default()
            },
        )
        .retry(RetryPolicy::retries(2));
        let router = Router::start(vec![spec]).unwrap();
        let model = router.model_id("m").unwrap();
        let shard = Arc::clone(&router.shards[0]);
        // the caller hangs up with its attempt still queued
        drop(router.submit(model, images(1).remove(0)).unwrap());
        // a hedge timer firing now finds nobody to hedge for
        let (pending, fulfiller) = pending_pair();
        let ctx = Arc::new(RaceCtx {
            shard: Arc::clone(&shard),
            request: Request::new(images(1).remove(0), SubmitOptions::default()),
            state: Mutex::new(RaceState {
                fulfiller: Some(fulfiller),
                retries_left: 0,
                attempts: Vec::new(),
                next_id: 0,
            }),
        });
        RaceCtx::launch_until_inflight(&ctx, None, Admission::Try).unwrap();
        drop(pending);
        RaceCtx::fire_hedge(&ctx);
        assert_eq!(shard.hedges.load(Ordering::Relaxed), 0);
        // the flush dispatches both attempts as one batch, the worker
        // panics, and each settles Disconnected — retryable, budget left,
        // but nobody is waiting: no retry may be spent
        let metrics = router.shutdown();
        assert_eq!(metrics.shards[0].retries, 0);
        assert_eq!(metrics.total().completed, 0);
    }
}
