//! Retry of one request: [`admit`] is [`Router::admit`](super::Router::admit)
//! under a [`RetryPolicy`]. At most one attempt is in flight; a retryable
//! refusal or failure is relaunched on another replica while the budget
//! lasts and the caller still waits. Where an attempt lands is
//! `Shard::attempt`'s business (placement); this module says *whether*
//! another one is launched, and which replica it must avoid.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::Shard;
use crate::config::RetryPolicy;
use crate::error::{Refused, ServeError};
use crate::pending::{pending_pair, Fulfiller, Pending};
use crate::server::{Admission, Request};

/// Admits `request` on `shard` under `policy`: the first attempt under
/// `admission`, a retryable refusal relaunched at once ([`Retry::relaunch`]),
/// a failure after admission relaunched from its completion
/// ([`Retry::follow`]). A refusal that outlasts the budget hands the
/// caller's tensor back.
pub(super) fn admit(
    shard: &Arc<Shard>,
    policy: &RetryPolicy,
    request: Request,
    admission: Admission,
) -> Result<Pending, Refused> {
    let (pending, caller) = pending_pair();
    let mut retry = Retry {
        shard: Arc::clone(shard),
        request,
        retries_left: policy.max_retries,
    };
    // the relaunches never block (a `Block` first attempt relaunches with
    // `Try`), but a `Park` chain stays `Park`: the `Full` it may end on
    // left the waker on its gate
    let relaunch = match admission {
        Admission::Block => Admission::Try,
        other => other,
    };
    let launched = match shard.attempt(None, retry.request.clone(), admission) {
        (at, Ok(attempt)) => Ok((at, attempt)),
        (at, Err(refused)) => retry.relaunch(&caller, at, refused.error, relaunch),
    };
    match launched {
        Ok((at, attempt)) => retry.follow(caller, at, attempt),
        // every attempt took a clone: the original goes back to the caller
        Err(error) => return Err(Refused::returning(error, retry.request.input)),
    }
    Ok(pending)
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

/// One retried request: the request (cloned per attempt) and its budget.
/// The caller's [`Fulfiller`] travels with it from attempt to attempt, and
/// the one attempt in flight is held by the caller's slot
/// ([`Fulfiller::follow`]), so a caller that hangs up cancels it.
struct Retry {
    shard: Arc<Shard>,
    request: Request,
    retries_left: u32,
}

impl Retry {
    /// The attempt on replica `at` failed with `error`, at admission or
    /// from its completion: relaunch elsewhere under `admission` while the
    /// error is retryable, the budget lasts and the caller still waits.
    /// `Ok` is the attempt now in flight and its replica, `Err` the failure
    /// the chain died with.
    fn relaunch(
        &mut self,
        caller: &Fulfiller,
        mut at: usize,
        mut error: ServeError,
        admission: Admission,
    ) -> Result<(usize, Pending), ServeError> {
        while retryable(&error) && self.retries_left > 0 && !caller.is_cancelled() {
            self.retries_left -= 1;
            self.shard.retries.fetch_add(1, Ordering::Relaxed);
            let (next, admitted) = self
                .shard
                .attempt(Some(at), self.request.clone(), admission);
            match admitted {
                Ok(attempt) => return Ok((next, attempt)),
                Err(refused) => (at, error) = (next, refused.error),
            }
        }
        Err(error)
    }

    /// Settles `caller` from `attempt`, in flight on replica `at`, or —
    /// when it fails — from a relaunch under `Try` (a completion must never
    /// block the worker that delivers it).
    fn follow(mut self, caller: Fulfiller, at: usize, attempt: Pending) {
        caller.follow(attempt, move |caller, result| match result {
            Ok(output) => caller.settle(Ok(output)),
            Err(error) => match self.relaunch(&caller, at, error, Admission::Try) {
                Ok((at, attempt)) => self.follow(caller, at, attempt),
                Err(error) => caller.settle(Err(error)),
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatchPolicy, ServerConfig, SubmitOptions};
    use crate::router::tests::{build_untrained, images};
    use crate::router::{Router, ShardSpec};
    use cdl_core::arch;
    use cdl_hw::OpCount;

    /// One replica whose never-full batch holds everything admitted until
    /// shutdown flushes it, under `retry`.
    fn held_router(retry: Option<RetryPolicy>, fault: crate::fault::FaultPlan) -> Router {
        let mut spec = ShardSpec::new(
            "m",
            build_untrained(arch::mnist_2c(), 5),
            ServerConfig {
                policy: BatchPolicy::by_size(1 << 20),
                queue_capacity: 8,
                workers: 1,
                fault,
                ..ServerConfig::default()
            },
        );
        spec.retry = retry;
        Router::start(vec![spec]).unwrap()
    }

    #[test]
    fn a_caller_that_hangs_up_cancels_its_attempt_at_zero_ops() {
        for retry in [None, Some(RetryPolicy::retries(1))] {
            let router = held_router(retry, crate::fault::FaultPlan::default());
            let model = router.model_id("m").unwrap();
            // the caller hangs up with its attempt still queued
            drop(router.submit(model, images(1).remove(0)).unwrap());
            let total = router.shutdown().total();
            assert_eq!((total.cancelled, total.completed), (1, 0), "{retry:?}");
            assert_eq!(total.total_ops, OpCount::ZERO, "{retry:?}");
        }
    }

    #[test]
    fn nothing_is_relaunched_for_a_caller_that_hung_up() {
        use crate::fault::{FaultKind, FaultPlan};
        // the first batch kills the worker: what it holds settles
        // Disconnected — retryable, budget left, but nobody is waiting
        let plan = FaultPlan::scripted(vec![(0, FaultKind::PanicOnce)]);
        let router = held_router(Some(RetryPolicy::retries(2)), plan);
        let model = router.model_id("m").unwrap();
        let shard = Arc::clone(&router.shards[0]);
        drop(router.submit(model, images(1).remove(0)).unwrap());
        // a failure reaching a caller that hung up spends no retry
        let (pending, caller) = pending_pair();
        drop(pending);
        let mut retry = Retry {
            shard: Arc::clone(&shard),
            request: Request::new(images(1).remove(0), SubmitOptions::default()),
            retries_left: 2,
        };
        let error = ServeError::Disconnected;
        let relaunched = retry.relaunch(&caller, 0, error.clone(), Admission::Try);
        assert_eq!(relaunched.err(), Some(error));
        assert_eq!(shard.retries.load(Ordering::Relaxed), 0);
        let metrics = router.shutdown();
        assert_eq!(metrics.shards[0].retries, 0);
        assert_eq!(metrics.total().completed, 0);
    }
}
