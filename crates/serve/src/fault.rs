//! Deterministic, server-scoped fault injection for chaos testing.
//!
//! A [`FaultPlan`] scripts failures against one server ahead of time,
//! addressed by the *sequence number* of the dispatched batch instead of
//! wall-clock time, so a chaos test replays identically on any machine.
//! Plans are scripted explicitly ([`FaultPlan::scripted`]) or drawn from a
//! seed ([`FaultPlan::seeded`] — xoshiro256\*\*, the same determinism
//! discipline `cdl-load` uses for arrival schedules).
//!
//! The plan is wired into a server through [`crate::ServerConfig::fault`]
//! and consulted at one hook point, the worker before each batch:
//! [`FaultKind::Stall`] sleeps the worker (inflating the latency tail
//! exactly like a wedged evaluator would), and [`FaultKind::PanicOnce`]
//! panics the worker thread (its in-flight batch settles `Disconnected`,
//! booked `failed`). An armed plan also keeps every batch on the workers:
//! the TCP edge evaluates no batch of a server whose plan is armed.
//!
//! The default plan is **unarmed**: the hook is then a single branch on an
//! `Option` — the same disabled-path cost model as telemetry — so it stays
//! compiled into production builds.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scripted fault, anchored at a batch sequence number by
/// [`FaultPlan::scripted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker sleeps this long, once, before evaluating the anchor
    /// batch — a single long stall that backs up everything queued behind
    /// it.
    Stall(Duration),
    /// The worker thread processing the anchor batch panics, once. Its
    /// batch settles [`crate::ServeError::Disconnected`] (booked `failed`);
    /// the rest of the pool keeps serving, and a server that has lost its
    /// last worker refuses admissions with
    /// [`crate::ServeError::ShuttingDown`].
    PanicOnce,
}

/// The script behind an armed plan: the batch counter plus the scripted
/// faults, shared by every worker of the server the plan is installed on.
#[derive(Debug)]
struct Script {
    /// Worker-hook invocations (dispatched batches) so far.
    batches: u64,
    /// `(anchor sequence, fault)`; each fault fires once because its
    /// sequence number passes once.
    faults: Vec<(u64, FaultKind)>,
}

/// What the worker hook asks of the worker before a batch; the default asks
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Disruption {
    /// Sleep this long before evaluating.
    pub(crate) sleep: Option<Duration>,
    /// Panic the worker thread (after any sleep).
    pub(crate) panic: bool,
}

/// A scripted, deterministic set of faults for one server. See the
/// [module docs](self) for semantics and the hook point.
///
/// Cloning shares the trigger state: every clone (e.g. the one each worker
/// thread sees through the server config) draws from the same batch
/// counter, so a plan describes one server's failure script, not a
/// per-thread one. The [`Default`] plan is unarmed and free.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<Mutex<Script>>>,
}

impl FaultPlan {
    /// An explicit plan: each `(at, kind)` scripts `kind` at batch sequence
    /// number `at` (counting from 0). With no faults this is the unarmed
    /// plan.
    pub fn scripted(faults: Vec<(u64, FaultKind)>) -> FaultPlan {
        FaultPlan {
            inner: (!faults.is_empty())
                .then(|| Arc::new(Mutex::new(Script { batches: 0, faults }))),
        }
    }

    /// A seeded plan: each fault in `kinds` is anchored at a batch sequence
    /// drawn uniformly from `[0, horizon)` by xoshiro256\*\* seeded with
    /// `seed`. The same `(seed, horizon, kinds)` always produces the same
    /// plan — the chaos-suite reproducibility contract.
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
        for &(_, kind) in script.faults.iter().filter(|&&(at, _)| at == seq) {
            match kind {
                FaultKind::Stall(d) => sleep += d,
                FaultKind::PanicOnce => panic = true,
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
        assert!(!plan.is_armed());
        for _ in 0..100 {
            assert_eq!(plan.before_batch(), Disruption::default());
        }
        assert!(!FaultPlan::scripted(Vec::new()).is_armed());
    }

    #[test]
    fn worker_faults_fire_on_their_batch_sequence() {
        let plan = FaultPlan::scripted(vec![
            (1, FaultKind::Stall(Duration::from_millis(50))),
            (3, FaultKind::Stall(Duration::from_millis(5))),
            (3, FaultKind::Stall(Duration::from_millis(5))),
            (6, FaultKind::PanicOnce),
        ]);
        assert!(plan.is_armed());
        let hits: Vec<Disruption> = (0..8).map(|_| plan.before_batch()).collect();
        assert_eq!(hits[0], Disruption::default());
        assert_eq!(hits[1].sleep, Some(Duration::from_millis(50)));
        assert!(!hits[1].panic);
        assert_eq!(hits[2], Disruption::default());
        // two faults on one batch add up
        assert_eq!(hits[3].sleep, Some(Duration::from_millis(10)));
        assert_eq!(hits[4], Disruption::default());
        assert_eq!(hits[5], Disruption::default());
        assert!(hits[6].panic);
        assert!(hits[6].sleep.is_none());
        assert_eq!(hits[7], Disruption::default());
    }

    #[test]
    fn clones_share_one_trigger_sequence() {
        let plan = FaultPlan::scripted(vec![(1, FaultKind::PanicOnce)]);
        let clone = plan.clone();
        assert!(!plan.before_batch().panic); // batch #0
        assert!(clone.before_batch().panic); // batch #1 — shared counter
        assert!(!plan.before_batch().panic); // #2: fired once
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let kinds = [
            FaultKind::PanicOnce,
            FaultKind::Stall(Duration::from_millis(10)),
        ];
        let outcomes = |plan: &FaultPlan| -> Vec<Disruption> {
            (0..32).map(|_| plan.before_batch()).collect()
        };
        let a = outcomes(&FaultPlan::seeded(7, 16, &kinds));
        let b = outcomes(&FaultPlan::seeded(7, 16, &kinds));
        assert_eq!(a, b, "same seed must replay the same plan");
        assert_eq!(a.iter().filter(|d| d.panic).count(), 1);
        assert_eq!(a.iter().filter(|d| d.sleep.is_some()).count(), 1);
        let differs = (0..64).any(|seed| outcomes(&FaultPlan::seeded(seed, 16, &kinds)) != a);
        assert!(differs, "some seed must draw different trigger points");
    }
}
