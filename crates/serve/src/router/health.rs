//! The per-replica health state machine ([`ReplicaHealth`]) as one pure
//! function, [`step`], over a check [`Window`] of three numbers.
//! `Shard::check_replica` cuts the window from two ledger snapshots, calls
//! it and applies the result; no clock is read (checks are counted in
//! placements).

use std::time::Duration;

use crate::config::{HealthPolicy, ReplicaHealth};
use crate::metrics::ServerMetrics;

/// What one replica's check remembers between checks: its ledger at the
/// last *judged* check, so the next check judges only the delta.
/// Inconclusive checks (see [`step`]) leave the baseline in place and keep
/// accumulating.
#[derive(Default)]
pub(super) struct HealthWindow {
    pub(super) baseline: ServerMetrics,
    /// Consecutive unhealthy checks (1 on `Healthy → Degraded`).
    pub(super) bad_streak: u32,
}

/// What a check judges: a replica's outcomes since its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Window {
    /// Settled outcomes: completions plus `errors`.
    pub(super) settled: u64,
    /// Failed and injected-fault outcomes.
    pub(super) errors: u64,
    /// The completions' latency at the policy's `latency_quantile`.
    pub(super) tail: Option<Duration>,
}

impl Window {
    /// The delta of `now` over `baseline` (windowed via
    /// [`cdl_telemetry::LogHistogram::subtracted`]).
    pub(super) fn since(baseline: &ServerMetrics, now: &ServerMetrics, quantile: f64) -> Window {
        let errors =
            now.failed.saturating_sub(baseline.failed) + now.faults.saturating_sub(baseline.faults);
        let latency = now
            .latency_histogram
            .subtracted(&baseline.latency_histogram);
        Window {
            settled: now.completed.saturating_sub(baseline.completed) + errors,
            errors,
            tail: latency.quantile_duration(quantile),
        }
    }
}

/// The whole transition table: the state to move to (a transition iff it
/// differs) and the streak to remember, the baseline then moving to the
/// snapshot the window was cut from — or `None`, an inconclusive check:
/// fewer than `min_samples` settled outcomes (`min_samples.min(probe_budget)`
/// while `Probing`, so a small probe budget can still readmit) judge
/// nothing and keep accumulating. An `Evicted` replica saw no traffic, so
/// its check opens the canary window whatever `window` holds. Otherwise the
/// window is bad when its error rate exceeds `error_threshold` or its tail
/// exceeds `latency_threshold`; a bad window extends the streak and evicts
/// at `evict_after` (a `Probing` replica at once), a good one returns the
/// replica to `Healthy`.
pub(super) fn step(
    state: ReplicaHealth,
    bad_streak: u32,
    window: Window,
    policy: &HealthPolicy,
) -> Option<(ReplicaHealth, u32)> {
    use ReplicaHealth::{Degraded, Evicted, Healthy, Probing};
    let needed = match state {
        Evicted => return Some((Probing, 0)),
        Probing => policy.min_samples.min(policy.probe_budget),
        Healthy | Degraded => policy.min_samples,
    };
    if window.settled < needed {
        return None;
    }
    let error_rate = window.errors as f64 / window.settled as f64;
    let slow = matches!(
        (policy.latency_threshold, window.tail),
        (Some(limit), Some(tail)) if tail > limit
    );
    let bad = error_rate > policy.error_threshold || slow;
    let bad_streak = if bad { bad_streak + 1 } else { 0 };
    let next = match (state, bad) {
        (_, false) => Healthy,
        (Probing, true) => Evicted,
        (_, true) if bad_streak >= policy.evict_after => Evicted,
        (_, true) => Degraded,
    };
    Some((next, bad_streak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ReplicaHealth::{Degraded, Evicted, Healthy, Probing};

    #[test]
    fn the_transition_table() {
        let base = HealthPolicy {
            error_threshold: 0.5,
            latency_threshold: Some(Duration::from_millis(100)),
            latency_quantile: 0.99,
            min_samples: 4,
            evict_after: 2,
            probe_budget: 2,
            check_every: 0,
        };
        let evict_after = |n| HealthPolicy {
            evict_after: n,
            ..base.clone()
        };
        let no_latency = HealthPolicy {
            latency_threshold: None,
            ..base.clone()
        };
        let no_errors = HealthPolicy {
            error_threshold: 1.0,
            ..base.clone()
        };
        let wide_probe = HealthPolicy {
            probe_budget: 8,
            ..base.clone()
        };
        // a window: settled outcomes, errors among them, tail in ms
        let w = |settled, errors, tail_ms: u64| Window {
            settled,
            errors,
            tail: (tail_ms > 0).then(|| Duration::from_millis(tail_ms)),
        };
        let to = |next, bad_streak: u32| Some((next, bad_streak));
        let rows = [
            // Healthy: a good window keeps it, a bad one opens the streak
            (Healthy, 0, w(4, 0, 10), &base, to(Healthy, 0)),
            (Healthy, 0, w(4, 3, 10), &base, to(Degraded, 1)),
            (Healthy, 0, w(40, 20, 10), &base, to(Healthy, 0)), // a rate *at* the threshold is good
            (Healthy, 0, w(40, 21, 10), &base, to(Degraded, 1)),
            (Healthy, 0, w(4, 3, 10), &evict_after(1), to(Evicted, 1)), // no confirmation asked
            (Healthy, 0, w(4, 3, 10), &evict_after(3), to(Degraded, 1)),
            // Degraded: recovery, confirmation, or a longer streak
            (Degraded, 1, w(4, 0, 10), &base, to(Healthy, 0)),
            (Degraded, 1, w(4, 3, 10), &base, to(Evicted, 2)),
            (Degraded, 1, w(4, 3, 10), &evict_after(1), to(Evicted, 2)),
            (Degraded, 1, w(4, 3, 10), &evict_after(3), to(Degraded, 2)),
            (Degraded, 2, w(4, 3, 10), &evict_after(3), to(Evicted, 3)),
            (Degraded, 2, w(4, 0, 10), &evict_after(3), to(Healthy, 0)),
            // Evicted: nothing to judge, the check opens the canary window
            (Evicted, 2, w(0, 0, 0), &base, to(Probing, 0)),
            (Evicted, 2, w(9, 9, 500), &base, to(Probing, 0)),
            (Evicted, 1, w(9, 0, 10), &evict_after(1), to(Probing, 0)),
            // Probing: readmitted on a good canary window, evicted at once
            // on a bad one whatever `evict_after` says
            (Probing, 0, w(2, 0, 10), &base, to(Healthy, 0)),
            (Probing, 0, w(2, 2, 10), &base, to(Evicted, 1)),
            (Probing, 0, w(4, 3, 10), &evict_after(3), to(Evicted, 1)),
            (Probing, 0, w(2, 0, 150), &base, to(Evicted, 1)),
            // inconclusive: under `min_samples`, nothing is judged …
            (Healthy, 0, w(3, 3, 500), &base, None),
            (Degraded, 1, w(3, 3, 500), &base, None),
            (Healthy, 0, w(0, 0, 0), &base, None),
            // … and a Probing replica is judged on
            // `min_samples.min(probe_budget)`, whichever is smaller
            (Probing, 0, w(1, 1, 10), &base, None),
            (Probing, 0, w(2, 0, 10), &wide_probe, None),
            (Probing, 0, w(3, 3, 10), &wide_probe, None),
            (Probing, 0, w(4, 0, 10), &wide_probe, to(Healthy, 0)),
            // the latency signal: strictly over the limit, off when `None`,
            // silent when nothing completed
            (Healthy, 0, w(4, 0, 150), &base, to(Degraded, 1)),
            (Healthy, 0, w(4, 0, 100), &base, to(Healthy, 0)),
            (Healthy, 0, w(4, 0, 150), &no_latency, to(Healthy, 0)),
            (Degraded, 1, w(4, 0, 150), &base, to(Evicted, 2)),
            (Healthy, 0, w(4, 4, 0), &base, to(Degraded, 1)),
            // `error_threshold = 1.0` never trips on errors; latency still does
            (Healthy, 0, w(4, 4, 0), &no_errors, to(Healthy, 0)),
            (Degraded, 1, w(4, 4, 10), &no_errors, to(Healthy, 0)),
            (Healthy, 0, w(4, 4, 150), &no_errors, to(Degraded, 1)),
        ];
        for (state, streak, window, policy, want) in rows {
            assert_eq!(
                step(state, streak, window, policy),
                want,
                "{state} with streak {streak} on {window:?}, evict_after {}",
                policy.evict_after
            );
        }
    }

    #[test]
    fn a_window_is_the_delta_of_two_ledgers() {
        let ledger = |completed, failed, faults, latencies_ms: &[u64]| {
            let mut m = ServerMetrics {
                completed,
                failed,
                faults,
                ..ServerMetrics::default()
            };
            for &ms in latencies_ms {
                m.latency_histogram.record(ms * 1_000_000);
            }
            m
        };
        let baseline = ledger(10, 1, 2, &[5, 5, 5]);
        let now = ledger(14, 2, 4, &[5, 5, 5, 200, 200]);
        let window = Window::since(&baseline, &now, 0.99);
        assert_eq!((window.settled, window.errors), (7, 3));
        // only the two completions since the baseline are in the tail
        let tail = window.tail.expect("two completions in the window");
        assert!(tail >= Duration::from_millis(190), "{tail:?}");
        // nothing new: an empty window, not a wrapped one
        let idle = Window::since(&now, &now, 0.99);
        assert_eq!(
            idle,
            Window {
                settled: 0,
                errors: 0,
                tail: None
            }
        );
        // a ledger behind its baseline (a swapped-in pipeline judged against
        // a stale one) saturates to empty instead of wrapping
        assert_eq!(Window::since(&now, &baseline, 0.99).settled, 0);
    }
}
