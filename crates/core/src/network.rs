//! The Conditional Deep Learning Network — Algorithm 2 (testing).

use cdl_hw::OpCount;
use cdl_nn::network::Network;
use cdl_tensor::Tensor;

use crate::confidence::{ConfidencePolicy, ExitOverride};
use crate::error::CdlError;
use crate::head::LinearClassifier;
use crate::Result;

/// One conditional stage: a tap into the baseline network plus its linear
/// classifier.
#[derive(Debug)]
pub struct CdlStage {
    /// Paper-style stage name (`"O1"`, `"O2"`, …).
    pub name: String,
    /// Runtime-layer index (in the baseline network) whose output this
    /// stage taps.
    pub tap_runtime: usize,
    /// The stage's linear classifier.
    pub head: LinearClassifier,
    /// Baseline ops executed to get from the previous tap (exclusive) to
    /// this tap (inclusive).
    pub ops_from_prev: OpCount,
    /// Ops of one head evaluation.
    pub head_ops: OpCount,
}

/// Result of classifying one input with the CDLN.
#[derive(Debug, Clone, PartialEq)]
pub struct CdlOutput {
    /// Predicted class label.
    pub label: usize,
    /// Stage index where classification terminated: `0..stage_count()` for
    /// a linear-classifier exit, `stage_count()` for the final (FC) output.
    pub exit_stage: usize,
    /// Confidence reported by the deciding stage (softmax max-probability of
    /// the final output when no stage exited).
    pub confidence: f32,
    /// Operations actually executed for this input (baseline slices + all
    /// evaluated heads).
    pub ops: OpCount,
    /// Number of hardware stages activated (baseline segments + final),
    /// used for the per-stage control-energy charge.
    pub stages_activated: u64,
    /// `true` when a linear classifier terminated classification before the
    /// final output layer.
    pub exited_early: bool,
}

/// A trained baseline network with conditional stages — the CDLN.
///
/// Constructed by [`crate::builder::CdlBuilder`] (Algorithm 1) or directly
/// via [`CdlNetwork::assemble`] when the heads are already trained.
/// [`CdlNetwork::classify`] implements the paper's Algorithm 2.
#[derive(Debug)]
pub struct CdlNetwork {
    base: Network,
    stages: Vec<CdlStage>,
    policy: ConfidencePolicy,
    /// Ops from the last tap (exclusive) through the final layer.
    final_ops: OpCount,
    /// Ops of one full baseline forward pass (no heads).
    baseline_ops: OpCount,
}

impl CdlNetwork {
    /// Assembles a CDLN from a trained baseline and trained stage heads.
    ///
    /// `stages` pairs each tap's *spec-layer* index with its name and head;
    /// taps must be strictly increasing and leave at least one deeper layer.
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadStage`] for inconsistent taps or head fan-ins,
    /// [`CdlError::BadPolicy`] for an invalid policy.
    pub fn assemble(
        base: Network,
        stages: Vec<(usize, String, LinearClassifier)>,
        policy: ConfidencePolicy,
    ) -> Result<Self> {
        policy.validate()?;
        if base.layer_count() == 0 {
            return Err(CdlError::BadStage(
                "the baseline network has no layers".into(),
            ));
        }
        let per_layer = base.op_counts().map_err(CdlError::Nn)?;
        let baseline_ops: OpCount = per_layer.iter().copied().sum();
        let shape_chain = base.spec().shape_chain().map_err(CdlError::Nn)?;

        let mut built = Vec::with_capacity(stages.len());
        let mut prev_runtime: Option<usize> = None;
        let mut prev_spec: Option<usize> = None;
        for (spec_idx, name, head) in stages {
            if spec_idx + 1 >= base.spec().layers.len() {
                return Err(CdlError::BadStage(format!(
                    "stage {name}: tap at spec layer {spec_idx} leaves nothing to gate"
                )));
            }
            if let Some(p) = prev_spec {
                if spec_idx <= p {
                    return Err(CdlError::BadStage(format!(
                        "stage {name}: tap {spec_idx} not after previous tap {p}"
                    )));
                }
            }
            let features: usize = shape_chain[spec_idx].iter().product();
            if head.features() != features {
                return Err(CdlError::BadStage(format!(
                    "stage {name}: head expects {} features but tap provides {features}",
                    head.features()
                )));
            }
            let tap_runtime = base.runtime_index_of(spec_idx).map_err(CdlError::Nn)?;
            let seg_start = prev_runtime.map_or(0, |p| p + 1);
            let ops_from_prev: OpCount = per_layer[seg_start..=tap_runtime].iter().copied().sum();
            let head_ops = head_op_count(&head);
            built.push(CdlStage {
                name,
                tap_runtime,
                head,
                ops_from_prev,
                head_ops,
            });
            prev_runtime = Some(tap_runtime);
            prev_spec = Some(spec_idx);
        }
        let final_start = prev_runtime.map_or(0, |p| p + 1);
        let final_ops: OpCount = per_layer[final_start..].iter().copied().sum();
        Ok(CdlNetwork {
            base,
            stages: built,
            policy,
            final_ops,
            baseline_ops,
        })
    }

    /// The wrapped baseline network.
    pub fn base(&self) -> &Network {
        &self.base
    }

    /// The conditional stages in order.
    pub fn stages(&self) -> &[CdlStage] {
        &self.stages
    }

    /// Number of conditional stages (exit points before the final layer).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The active termination policy.
    pub fn policy(&self) -> ConfidencePolicy {
        self.policy
    }

    /// Replaces the termination policy (the paper's runtime-adjustable δ).
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadPolicy`] for invalid parameters.
    pub fn set_policy(&mut self, policy: ConfidencePolicy) -> Result<()> {
        policy.validate()?;
        self.policy = policy;
        Ok(())
    }

    /// Ops of one full baseline forward pass (the paper's normalisation
    /// denominator).
    pub fn baseline_ops(&self) -> OpCount {
        self.baseline_ops
    }

    /// Ops from the last tap (exclusive) through the final layer — the cost
    /// an input pays after passing every gate (used by the batched
    /// evaluator's op accounting).
    pub(crate) fn final_ops(&self) -> OpCount {
        self.final_ops
    }

    /// Worst-case CDLN ops (all stages evaluated, no exit): baseline plus
    /// every head.
    pub fn worst_case_ops(&self) -> OpCount {
        let heads: OpCount = self.stages.iter().map(|s| s.head_ops).sum();
        self.baseline_ops + heads
    }

    /// Classifies an input with the configured policy (Algorithm 2).
    ///
    /// # Errors
    ///
    /// Propagates layer/head evaluation errors.
    pub fn classify(&self, x: &Tensor) -> Result<CdlOutput> {
        self.classify_with(x, |_| self.policy, None)
    }

    /// Classifies with per-request [`ExitOverride`]s applied to the
    /// configured policy — the reference semantics of the serving layer's
    /// per-request δ/`max_stage` knobs (the batched and sharded paths are
    /// pinned bit-identical to this).
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadPolicy`] when the overridden δ is out of
    /// range; propagates layer/head evaluation errors.
    pub fn classify_with_override(&self, x: &Tensor, ovr: ExitOverride) -> Result<CdlOutput> {
        let policy = ovr.effective_policy(self.policy);
        self.classify_with(x, |_| policy, ovr.max_stage)
    }

    /// The cascade with stage `s` gated by `policy_for(s)` and its depth
    /// capped at `max_stage`, as [`ExitOverride::max_stage`] does: reaching
    /// conditional stage `max_stage` terminates there with that head's
    /// decision (the label/confidence bits the gate computed), whatever the
    /// gate said. A uniform policy is `|_| policy`. A per-stage schedule —
    /// an extension beyond the paper's single global δ, stricter early
    /// stages and laxer late ones — is
    /// `|s| schedule[s.min(schedule.len() - 1)]`.
    /// [`crate::batch::CascadeTrace::outputs`] replays the same pair.
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadPolicy`] when a stage's policy is out of
    /// range, before anything is evaluated; propagates layer/head
    /// evaluation errors.
    pub fn classify_with(
        &self,
        x: &Tensor,
        policy_for: impl Fn(usize) -> ConfidencePolicy,
        max_stage: Option<usize>,
    ) -> Result<CdlOutput> {
        for stage in 0..self.stages.len() {
            policy_for(stage).validate()?;
        }
        let mut cur = x.clone();
        let mut prev_tap: Option<usize> = None;
        let mut ops = OpCount::ZERO;
        for (idx, stage) in self.stages.iter().enumerate() {
            cur = self
                .base
                .forward_segment(&cur, prev_tap, stage.tap_runtime)
                .map_err(CdlError::Nn)?;
            ops += stage.ops_from_prev + stage.head_ops;
            let scores = stage.head.scores(&cur)?;
            let decision = policy_for(idx).decide(&scores)?;
            if decision.exit || max_stage.is_some_and(|cap| idx >= cap) {
                return Ok(CdlOutput {
                    label: decision.label,
                    exit_stage: idx,
                    confidence: decision.confidence,
                    ops,
                    stages_activated: idx as u64 + 1,
                    exited_early: true,
                });
            }
            prev_tap = Some(stage.tap_runtime);
        }
        // final stage: run the remaining baseline layers
        let out = self
            .base
            .forward_segment(&cur, prev_tap, self.base.layer_count() - 1)
            .map_err(CdlError::Nn)?;
        ops += self.final_ops;
        let label = out
            .argmax()
            .ok_or_else(|| CdlError::BadStage("baseline produced empty output".into()))?;
        let probs = cdl_tensor::ops::softmax(&out);
        Ok(CdlOutput {
            label,
            exit_stage: self.stages.len(),
            confidence: probs.data()[label],
            ops,
            stages_activated: self.stages.len() as u64 + 1,
            exited_early: false,
        })
    }

    /// Classification outcome of the *baseline* network alone (no heads),
    /// with its op count — the comparison point for every experiment.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn classify_baseline(&self, x: &Tensor) -> Result<(usize, OpCount)> {
        let label = self.base.predict(x).map_err(CdlError::Nn)?;
        Ok((label, self.baseline_ops))
    }
}

/// Op count of one head evaluation (dense affine + score readout).
pub fn head_op_count(head: &LinearClassifier) -> OpCount {
    let f = head.features() as u64;
    let c = head.classes() as u64;
    OpCount {
        macs: f * c,
        adds: c,
        compares: c.saturating_sub(1), // argmax / threshold scan
        activations: c,                // sigmoid outputs
        mem_reads: f * c + f,
        mem_writes: c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::mnist_3c;
    use cdl_nn::network::Network as NnNetwork;

    fn build_untrained() -> CdlNetwork {
        let arch = mnist_3c();
        let base = NnNetwork::from_spec(&arch.spec, 3).unwrap();
        let feats = arch.tap_features().unwrap();
        let stages = arch
            .taps
            .iter()
            .zip(&feats)
            .map(|(t, &f)| {
                (
                    t.spec_layer,
                    t.name.clone(),
                    LinearClassifier::new(f, 10, 1).unwrap(),
                )
            })
            .collect();
        CdlNetwork::assemble(base, stages, ConfidencePolicy::max_prob(0.6)).unwrap()
    }

    #[test]
    fn an_empty_baseline_is_rejected() {
        let spec = cdl_nn::spec::NetworkSpec::new(vec![], &[1, 28, 28]);
        let base = NnNetwork::from_spec(&spec, 0).unwrap();
        let policy = ConfidencePolicy::max_prob(0.5);
        assert!(CdlNetwork::assemble(base, vec![], policy).is_err());
    }

    #[test]
    fn assembles_with_correct_op_partition() {
        let cdl = build_untrained();
        assert_eq!(cdl.stage_count(), 2);
        // the baseline segments must partition the full baseline ops
        let seg_sum: OpCount = cdl
            .stages()
            .iter()
            .map(|s| s.ops_from_prev)
            .sum::<OpCount>()
            + cdl.final_ops;
        assert_eq!(seg_sum, cdl.baseline_ops());
        // worst case = baseline + heads
        let heads: OpCount = cdl.stages().iter().map(|s| s.head_ops).sum();
        assert_eq!(cdl.worst_case_ops(), cdl.baseline_ops() + heads);
    }

    #[test]
    fn classify_runs_and_counts_ops() {
        let cdl = build_untrained();
        let x = Tensor::full(&[1, 28, 28], 0.4);
        let out = cdl.classify(&x).unwrap();
        assert!(out.label < 10);
        assert!(out.exit_stage <= 2);
        assert!(out.ops.compute_ops() > 0);
        // ops never exceed the worst case and never fall below stage 1 cost
        assert!(out.ops.compute_ops() <= cdl.worst_case_ops().compute_ops());
        let min = cdl.stages()[0].ops_from_prev + cdl.stages()[0].head_ops;
        assert!(out.ops.compute_ops() >= min.compute_ops());
    }

    #[test]
    fn lenient_policy_exits_earlier_than_strict() {
        let cdl = build_untrained();
        let x = Tensor::full(&[1, 28, 28], 0.4);
        let lenient = cdl
            .classify_with(&x, |_| ConfidencePolicy::margin(1e-6), None)
            .unwrap();
        // delta ~1.0 with untrained heads never exits early
        let strict = cdl
            .classify_with(&x, |_| ConfidencePolicy::max_prob(0.999), None)
            .unwrap();
        assert!(lenient.exit_stage <= strict.exit_stage);
        assert!(lenient.ops.compute_ops() <= strict.ops.compute_ops());
        assert_eq!(strict.exit_stage, 2); // reaches FC
        assert_eq!(strict.stages_activated, 3);
    }

    #[test]
    fn early_exit_skips_deep_ops() {
        let cdl = build_untrained();
        let x = Tensor::full(&[1, 28, 28], 0.4);
        // a vanishing margin threshold exits at the first stage for any
        // non-tied score vector (max-prob with small δ would NOT: several
        // classes exceed δ and the uniqueness criterion keeps cascading)
        let early = cdl
            .classify_with(&x, |_| ConfidencePolicy::margin(1e-6), None)
            .unwrap();
        let full = cdl
            .classify_with(&x, |_| ConfidencePolicy::max_prob(0.999), None)
            .unwrap();
        assert_eq!(early.exit_stage, 0);
        assert!(early.exited_early);
        assert!(!full.exited_early);
        // exiting at O1 must cost less than half of the full pass here
        assert!(early.ops.compute_ops() * 2 < full.ops.compute_ops());
    }

    #[test]
    fn assemble_validates_stage_config() {
        let arch = mnist_3c();
        let base = NnNetwork::from_spec(&arch.spec, 3).unwrap();
        // wrong fan-in head
        let bad = vec![(
            1usize,
            "O1".to_string(),
            LinearClassifier::new(99, 10, 1).unwrap(),
        )];
        assert!(matches!(
            CdlNetwork::assemble(base, bad, ConfidencePolicy::max_prob(0.5)),
            Err(CdlError::BadStage(_))
        ));
        // unordered taps
        let base = NnNetwork::from_spec(&arch.spec, 3).unwrap();
        let bad = vec![
            (
                3usize,
                "O2".to_string(),
                LinearClassifier::new(150, 10, 1).unwrap(),
            ),
            (
                1usize,
                "O1".to_string(),
                LinearClassifier::new(507, 10, 1).unwrap(),
            ),
        ];
        assert!(CdlNetwork::assemble(base, bad, ConfidencePolicy::max_prob(0.5)).is_err());
        // invalid policy
        let base = NnNetwork::from_spec(&arch.spec, 3).unwrap();
        assert!(CdlNetwork::assemble(base, vec![], ConfidencePolicy::max_prob(0.0)).is_err());
    }

    #[test]
    fn no_stage_cdl_equals_baseline() {
        let arch = mnist_3c();
        let base = NnNetwork::from_spec(&arch.spec, 3).unwrap();
        let cdl = CdlNetwork::assemble(base, vec![], ConfidencePolicy::max_prob(0.5)).unwrap();
        let x = Tensor::full(&[1, 28, 28], 0.3);
        let out = cdl.classify(&x).unwrap();
        let (base_label, base_ops) = cdl.classify_baseline(&x).unwrap();
        assert_eq!(out.label, base_label);
        assert_eq!(out.ops, base_ops);
        assert_eq!(out.exit_stage, 0);
        assert_eq!(out.stages_activated, 1);
    }

    #[test]
    fn set_policy_validates() {
        let mut cdl = build_untrained();
        assert!(cdl.set_policy(ConfidencePolicy::max_prob(0.8)).is_ok());
        assert_eq!(cdl.policy(), ConfidencePolicy::max_prob(0.8));
        assert!(cdl.set_policy(ConfidencePolicy::max_prob(0.0)).is_err());
    }

    #[test]
    fn schedule_can_gate_stages_differently() {
        let cdl = build_untrained();
        let x = Tensor::full(&[1, 28, 28], 0.4);
        // stage 0 impossible (margin 1.0 ~ never), stage 1 trivial
        let strict = ConfidencePolicy::margin(1.0);
        let trivial = ConfidencePolicy::margin(1e-6);
        let out = cdl
            .classify_with(&x, |s| [strict, trivial][s], None)
            .unwrap();
        assert_eq!(out.exit_stage, 1, "must pass stage 0 and exit at stage 1");
        // reversed: exits at stage 0
        let out = cdl
            .classify_with(&x, |s| [trivial, strict][s], None)
            .unwrap();
        assert_eq!(out.exit_stage, 0);
    }

    #[test]
    fn override_none_matches_classify() {
        let cdl = build_untrained();
        let x = Tensor::full(&[1, 28, 28], 0.4);
        let plain = cdl.classify(&x).unwrap();
        let ovr = cdl.classify_with_override(&x, ExitOverride::NONE).unwrap();
        assert_eq!(plain, ovr);
        // a cap at/after the final stage also changes nothing
        let capped = cdl
            .classify_with_override(
                &x,
                ExitOverride {
                    max_stage: Some(cdl.stage_count()),
                    ..ExitOverride::NONE
                },
            )
            .unwrap();
        assert_eq!(plain, capped);
    }

    #[test]
    fn delta_override_matches_explicit_policy() {
        let cdl = build_untrained();
        let x = Tensor::full(&[1, 28, 28], 0.4);
        for delta in [0.3, 0.6, 0.999] {
            let ovr = cdl
                .classify_with_override(&x, ExitOverride::with_delta(delta))
                .unwrap();
            let explicit = cdl
                .classify_with(&x, |_| cdl.policy().with_threshold(delta), None)
                .unwrap();
            assert_eq!(ovr, explicit, "delta {delta}");
        }
        // invalid δ is rejected before any evaluation
        assert!(cdl
            .classify_with_override(&x, ExitOverride::with_delta(0.0))
            .is_err());
    }

    #[test]
    fn max_stage_caps_the_cascade() {
        let cdl = build_untrained();
        let x = Tensor::full(&[1, 28, 28], 0.4);
        // δ ≈ 1 never exits on its own → the cap must terminate stage s
        let strict = ExitOverride {
            delta: Some(0.999),
            max_stage: None,
        };
        let uncapped = cdl.classify_with_override(&x, strict).unwrap();
        assert_eq!(uncapped.exit_stage, cdl.stage_count());
        for cap in 0..cdl.stage_count() {
            let out = cdl
                .classify_with_override(
                    &x,
                    ExitOverride {
                        delta: Some(0.999),
                        max_stage: Some(cap),
                    },
                )
                .unwrap();
            assert_eq!(out.exit_stage, cap);
            assert!(out.exited_early);
            assert_eq!(out.stages_activated, cap as u64 + 1);
            assert!(out.ops.compute_ops() < uncapped.ops.compute_ops());
        }
    }

    #[test]
    fn exit_override_helpers() {
        let p = ConfidencePolicy::max_prob(0.6);
        assert_eq!(ExitOverride::NONE.effective_policy(p), p);
        assert_eq!(
            ExitOverride::with_delta(0.9).effective_policy(p),
            ConfidencePolicy::max_prob(0.9)
        );
        assert!(ExitOverride::with_delta(2.0).validate_for(p).is_err());
        assert!(ExitOverride::with_delta(0.9).validate_for(p).is_ok());
        assert_eq!(ExitOverride::NONE.to_string(), "default");
        assert!(ExitOverride::with_delta(0.5).to_string().contains("0.5"));
    }

    #[test]
    fn head_op_count_formula() {
        let h = LinearClassifier::new(507, 10, 1).unwrap();
        let ops = head_op_count(&h);
        assert_eq!(ops.macs, 5070);
        assert_eq!(ops.adds, 10);
        assert_eq!(ops.compares, 9);
        assert_eq!(ops.activations, 10);
    }
}
