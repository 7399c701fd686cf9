//! Deterministic, replica-scoped fault injection for chaos testing.
//!
//! A [`FaultPlan`] scripts failures against one serving pipeline ahead of
//! time, addressed by *sequence numbers* instead of wall-clock time so a
//! chaos test replays identically on any machine: admission faults fire on
//! the N-th admission attempt, worker faults on the N-th dispatched batch.
//! Plans are scripted explicitly ([`FaultPlan::scripted`]) or drawn from a
//! seed ([`FaultPlan::seeded`] — xoshiro256\*\*, the same determinism
//! discipline `cdl-load` uses for arrival schedules).
//!
//! The plan is wired into a server through
//! [`crate::ServerConfig::fault`] (or per replica through
//! [`crate::ShardSpec::fault_on`]) and consulted at two hook points:
//!
//! * **admission** — after option/shape validation, before the gate: an
//!   active [`FaultKind::ErrorBurst`] refuses the request with a typed
//!   [`crate::ServeError::Fault`], the shape of a replica spewing errors.
//! * **worker, before each batch** — [`FaultKind::Stall`] and
//!   [`FaultKind::SlowFactor`] sleep the worker (inflating the latency
//!   tail exactly like a wedged or degraded evaluator would), and
//!   [`FaultKind::PanicOnce`] panics the worker thread (its in-flight
//!   batch settles `Disconnected`, booked `failed`).
//!
//! The default plan is **unarmed**: every hook is then a single branch on
//! an `Option` — the same disabled-path cost model as telemetry — so the
//! hooks stay compiled into production builds.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ServeError;

/// One scripted fault, anchored at a sequence number by
/// [`FaultPlan::scripted`] (admission sequence for [`FaultKind::ErrorBurst`],
/// batch sequence for the worker-side kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker sleeps this long, once, before evaluating the anchor
    /// batch — a single long stall that backs up everything queued behind
    /// it.
    Stall(Duration),
    /// The next `n` admissions (starting at the anchor) are refused with
    /// [`ServeError::Fault`] — a replica spewing errors.
    ErrorBurst(u64),
    /// Each of the `batches` batches starting at the anchor is delayed by
    /// `per_batch` before evaluation — a degraded-but-alive replica.
    SlowFactor {
        /// Extra delay injected before each affected batch.
        per_batch: Duration,
        /// Number of consecutive batches affected.
        batches: u64,
    },
    /// The worker thread processing the anchor batch panics, once. Its
    /// batch settles [`ServeError::Disconnected`] (booked `failed`); the
    /// rest of the pool keeps serving, and a server that has lost its last
    /// worker refuses admissions with [`ServeError::ShuttingDown`].
    PanicOnce,
}

/// The script behind an armed plan: the two sequence counters plus the
/// scripted faults, shared by every worker of the server the plan is
/// installed on.
#[derive(Debug)]
struct Script {
    /// Admission-hook invocations so far.
    admissions: u64,
    /// Worker-hook invocations (dispatched batches) so far.
    batches: u64,
    /// `(anchor sequence, fault)`; a one-shot fault fires once because its
    /// sequence number passes once.
    faults: Vec<(u64, FaultKind)>,
}

/// What the worker hook asks of the worker before a batch; the default asks
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Disruption {
    /// Sleep this long before evaluating (stall + slowdown, combined).
    pub(crate) sleep: Option<Duration>,
    /// Panic the worker thread (after any sleep).
    pub(crate) panic: bool,
}

/// A scripted, deterministic set of faults for one serving pipeline. See
/// the [module docs](self) for semantics and hook points.
///
/// Cloning shares the trigger state: every clone (e.g. the one each worker
/// thread sees through the server config) draws from the same sequence
/// counters, so a plan describes one pipeline's failure script, not a
/// per-thread one. The [`Default`] plan is unarmed and free.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<Mutex<Script>>>,
}

impl FaultPlan {
    /// An explicit plan: each `(at, kind)` scripts `kind` at sequence number
    /// `at` (admission sequence for [`FaultKind::ErrorBurst`], batch
    /// sequence otherwise; both count from 0). With no faults this is the
    /// unarmed plan.
    pub fn scripted(faults: Vec<(u64, FaultKind)>) -> FaultPlan {
        FaultPlan {
            inner: (!faults.is_empty()).then(|| {
                Arc::new(Mutex::new(Script {
                    admissions: 0,
                    batches: 0,
                    faults,
                }))
            }),
        }
    }

    /// A seeded plan: each fault in `kinds` is anchored at a trigger
    /// sequence drawn uniformly from `[0, horizon)` by xoshiro256\*\*
    /// seeded with `seed`. The same `(seed, horizon, kinds)` always
    /// produces the same plan — the chaos-suite reproducibility contract.
    pub fn seeded(seed: u64, horizon: u64, kinds: &[FaultKind]) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let anchors = kinds
            .iter()
            .map(|&kind| (rng.next_u64() % horizon.max(1), kind));
        FaultPlan::scripted(anchors.collect())
    }

    /// Whether the plan scripts anything: an armed plan's batches run on the
    /// workers only, where its stalls and panics belong.
    pub(crate) fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Admission hook: called once per submission after validation,
    /// before the gate. Returns the injected refusal, if this admission
    /// falls in an [`FaultKind::ErrorBurst`] window.
    pub(crate) fn on_admission(&self) -> Option<ServeError> {
        let inner = self.inner.as_ref()?; // unarmed: one branch, done
        let mut script = inner.lock().unwrap();
        let seq = script.admissions;
        script.admissions += 1;
        let refused = script.faults.iter().any(
            |&(at, kind)| matches!(kind, FaultKind::ErrorBurst(n) if seq >= at && seq - at < n),
        );
        refused.then(|| ServeError::Fault(format!("scripted error burst refused admission #{seq}")))
    }

    /// Worker hook: called once per dispatched batch, before evaluation.
    pub(crate) fn before_batch(&self) -> Disruption {
        let Some(inner) = self.inner.as_ref() else {
            return Disruption::default(); // unarmed: one branch, done
        };
        let mut script = inner.lock().unwrap();
        let seq = script.batches;
        script.batches += 1;
        let mut sleep = Duration::ZERO;
        let mut panic = false;
        for &(at, kind) in &script.faults {
            match kind {
                FaultKind::Stall(d) if seq == at => sleep += d,
                FaultKind::SlowFactor { per_batch, batches } if seq >= at && seq - at < batches => {
                    sleep += per_batch
                }
                FaultKind::PanicOnce if seq == at => panic = true,
                _ => {}
            }
        }
        Disruption {
            sleep: (sleep > Duration::ZERO).then_some(sleep),
            panic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_injects_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.inner.is_none());
        for _ in 0..100 {
            assert!(plan.on_admission().is_none());
            assert_eq!(plan.before_batch(), Disruption::default());
        }
        assert!(FaultPlan::scripted(Vec::new()).inner.is_none());
    }

    #[test]
    fn error_burst_refuses_exactly_its_window() {
        let plan = FaultPlan::scripted(vec![(2, FaultKind::ErrorBurst(3))]);
        assert!(plan.inner.is_some());
        let refused: Vec<bool> = (0..8).map(|_| plan.on_admission().is_some()).collect();
        assert_eq!(
            refused,
            [false, false, true, true, true, false, false, false]
        );
    }

    #[test]
    fn worker_faults_fire_on_their_batch_sequence() {
        let plan = FaultPlan::scripted(vec![
            (1, FaultKind::Stall(Duration::from_millis(50))),
            (
                3,
                FaultKind::SlowFactor {
                    per_batch: Duration::from_millis(5),
                    batches: 2,
                },
            ),
            (6, FaultKind::PanicOnce),
        ]);
        let hits: Vec<Disruption> = (0..8).map(|_| plan.before_batch()).collect();
        assert_eq!(hits[0], Disruption::default());
        assert_eq!(hits[1].sleep, Some(Duration::from_millis(50)));
        assert!(!hits[1].panic);
        assert_eq!(hits[2], Disruption::default());
        assert_eq!(hits[3].sleep, Some(Duration::from_millis(5)));
        assert_eq!(hits[4].sleep, Some(Duration::from_millis(5)));
        assert_eq!(hits[5], Disruption::default());
        assert!(hits[6].panic);
        assert!(hits[6].sleep.is_none());
        assert_eq!(hits[7], Disruption::default());
    }

    #[test]
    fn clones_share_one_trigger_sequence() {
        let plan = FaultPlan::scripted(vec![(0, FaultKind::ErrorBurst(2))]);
        let clone = plan.clone();
        assert!(plan.on_admission().is_some()); // admission #0
        assert!(clone.on_admission().is_some()); // admission #1 — shared counter
        assert!(plan.on_admission().is_none()); // #2: window over
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let kinds = [
            FaultKind::ErrorBurst(2),
            FaultKind::Stall(Duration::from_millis(10)),
        ];
        let outcomes = |plan: &FaultPlan| -> (Vec<bool>, Vec<Disruption>) {
            (
                (0..32).map(|_| plan.on_admission().is_some()).collect(),
                (0..32).map(|_| plan.before_batch()).collect(),
            )
        };
        let a = outcomes(&FaultPlan::seeded(7, 16, &kinds));
        let b = outcomes(&FaultPlan::seeded(7, 16, &kinds));
        assert_eq!(a, b, "same seed must replay the same plan");
        assert!(a.0.iter().filter(|&&hit| hit).count() == 2);
        assert!(a.1.iter().any(|d| d.sleep.is_some()));
        let mut differs = false;
        for seed in 0..64 {
            if outcomes(&FaultPlan::seeded(seed, 16, &kinds)) != a {
                differs = true;
                break;
            }
        }
        assert!(differs, "some seed must draw different trigger points");
    }
}
