//! The activation module: confidence measures and termination policies.
//!
//! The paper's activation module inspects the linear classifier's output and
//! terminates classification when it is confident. Its two criteria
//! (Section II):
//!
//! 1. if no class label reaches sufficient confidence — or **more than one**
//!    label does — the input is hard: pass it to the next stage;
//! 2. if *exactly one* label is sufficiently confident, terminate and emit
//!    that label.
//!
//! The confidence measure itself is left open in the paper ("class
//! probabilities or distance from the decision boundary"); this module
//! provides the three standard choices as a [`ConfidencePolicy`].

use cdl_tensor::{math, ops, Tensor};
use serde::{Deserialize, Serialize};

use crate::error::CdlError;
use crate::Result;

/// What the activation module decided for one stage output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Class with the highest score.
    pub label: usize,
    /// The confidence value the policy compared against its threshold.
    pub confidence: f32,
    /// `true` → terminate at this stage; `false` → activate the next stage.
    pub exit: bool,
}

/// A termination policy for the activation module.
///
/// All policies convert raw scores to softmax probabilities first, so heads
/// may output arbitrary (even unbounded) score ranges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConfidencePolicy {
    /// The paper's reading: each output neuron's **sigmoid** activation is
    /// that class's confidence; terminate when *exactly one* class is
    /// confident beyond `delta`. Sigmoid confidences are per-class (they
    /// don't compete through a softmax), so δ values in the paper's 0.5–0.7
    /// range leave a meaningful fraction of inputs unresolved at early
    /// stages.
    SigmoidProb {
        /// Termination threshold δ ∈ (0, 1].
        delta: f32,
    },
    /// Softmax variant: terminate when the top softmax probability reaches
    /// `delta` **and** no second class does (with `delta > 0.5` the
    /// uniqueness condition is implied; for smaller `delta` it is checked
    /// explicitly).
    MaxProb {
        /// Termination threshold δ ∈ (0, 1].
        delta: f32,
    },
    /// Terminate when `p(top) - p(second)` reaches `margin` — the "distance
    /// from the decision boundary" reading.
    Margin {
        /// Probability-margin threshold ∈ (0, 1].
        margin: f32,
    },
    /// Terminate when the entropy of the probability vector is at most
    /// `max_nats` — a global uncertainty reading.
    Entropy {
        /// Maximum entropy (nats) considered "confident".
        max_nats: f32,
    },
}

impl ConfidencePolicy {
    /// Paper-faithful per-class sigmoid-confidence policy.
    pub fn sigmoid_prob(delta: f32) -> Self {
        ConfidencePolicy::SigmoidProb { delta }
    }

    /// Max-softmax-probability policy with threshold `delta`.
    pub fn max_prob(delta: f32) -> Self {
        ConfidencePolicy::MaxProb { delta }
    }

    /// Margin policy.
    pub fn margin(margin: f32) -> Self {
        ConfidencePolicy::Margin { margin }
    }

    /// Entropy policy.
    pub fn entropy(max_nats: f32) -> Self {
        ConfidencePolicy::Entropy { max_nats }
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadPolicy`] for out-of-range thresholds.
    pub fn validate(&self) -> Result<()> {
        match *self {
            ConfidencePolicy::SigmoidProb { delta } | ConfidencePolicy::MaxProb { delta } => {
                if !(0.0..=1.0).contains(&delta) || delta == 0.0 {
                    return Err(CdlError::BadPolicy(format!(
                        "confidence delta must be in (0, 1], got {delta}"
                    )));
                }
            }
            ConfidencePolicy::Margin { margin } => {
                if !(0.0..=1.0).contains(&margin) || margin == 0.0 {
                    return Err(CdlError::BadPolicy(format!(
                        "margin must be in (0, 1], got {margin}"
                    )));
                }
            }
            ConfidencePolicy::Entropy { max_nats } => {
                if !max_nats.is_finite() || max_nats < 0.0 {
                    return Err(CdlError::BadPolicy(format!(
                        "entropy bound must be finite and >= 0, got {max_nats}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Returns the policy's scalar threshold (the δ knob of Fig. 10).
    pub fn threshold(&self) -> f32 {
        match *self {
            ConfidencePolicy::SigmoidProb { delta } | ConfidencePolicy::MaxProb { delta } => delta,
            ConfidencePolicy::Margin { margin } => margin,
            ConfidencePolicy::Entropy { max_nats } => max_nats,
        }
    }

    /// Returns a copy with the threshold replaced (for δ sweeps).
    pub fn with_threshold(&self, t: f32) -> Self {
        match *self {
            ConfidencePolicy::SigmoidProb { .. } => ConfidencePolicy::SigmoidProb { delta: t },
            ConfidencePolicy::MaxProb { .. } => ConfidencePolicy::MaxProb { delta: t },
            ConfidencePolicy::Margin { .. } => ConfidencePolicy::Margin { margin: t },
            ConfidencePolicy::Entropy { .. } => ConfidencePolicy::Entropy { max_nats: t },
        }
    }

    /// Evaluates the activation module on raw head scores.
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadPolicy`] for an empty score vector.
    pub fn decide(&self, scores: &Tensor) -> Result<Decision> {
        self.decide_row(scores.data(), &mut Vec::new())
    }

    /// [`ConfidencePolicy::decide`] on a bare score row — a row of a batch's
    /// head-score block — with `probs` as the softmax policies' work buffer
    /// (resized as needed; a batched caller passes the same one for every
    /// row, so no tensor and no allocation is made per image). Same decision
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadPolicy`] for an empty score vector.
    pub fn decide_row(&self, scores: &[f32], probs: &mut Vec<f32>) -> Result<Decision> {
        if scores.is_empty() {
            return Err(CdlError::BadPolicy("empty score vector".into()));
        }
        if let ConfidencePolicy::SigmoidProb { delta } = *self {
            // per-class sigmoid confidences: no normalisation across classes,
            // and no probability buffer — one pass keeps the arg-max (first
            // occurrence, as `Tensor::argmax`) and counts the confident classes
            let mut confidences = scores.iter().map(|&s| math::sigmoid(s));
            let mut c_top = confidences.next().expect("non-empty scores");
            let mut label = 0;
            let mut confident = usize::from(c_top >= delta);
            for (i, c) in confidences.enumerate() {
                if c > c_top {
                    label = i + 1;
                    c_top = c;
                }
                confident += usize::from(c >= delta);
            }
            return Ok(Decision {
                label,
                confidence: c_top,
                exit: confident == 1 && c_top >= delta,
            });
        }
        probs.resize(scores.len(), 0.0);
        ops::softmax_into(scores, probs);
        let label = ops::argmax(probs).expect("non-empty probs");
        let p_top = probs[label];
        let p_second = probs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != label)
            .map(|(_, &p)| p)
            .fold(0.0f32, f32::max);

        let (confidence, exit) = match *self {
            ConfidencePolicy::SigmoidProb { .. } => unreachable!("handled above"),
            ConfidencePolicy::MaxProb { delta } => {
                // paper criterion: exactly one label confident beyond delta
                let unique = p_second < delta;
                (p_top, p_top >= delta && unique)
            }
            ConfidencePolicy::Margin { margin } => {
                let m = p_top - p_second;
                (m, m >= margin)
            }
            ConfidencePolicy::Entropy { max_nats } => {
                let h = ops::entropy(probs);
                // report "confidence" as negative entropy mapped to [0,1]
                let conf = 1.0 - h / (probs.len() as f32).ln().max(f32::EPSILON);
                (conf, h <= max_nats)
            }
        };
        Ok(Decision {
            label,
            confidence,
            exit,
        })
    }
}

/// Per-request overrides of the network's termination behaviour — the
/// runtime-adjustable knobs of the paper's Fig. 10 accuracy/energy
/// trade-off, applicable to a single classification without touching the
/// network's configured [`ConfidencePolicy`].
///
/// * `delta` replaces the policy's scalar threshold (via
///   [`ConfidencePolicy::with_threshold`]): a lax δ exits earlier and
///   spends less energy, a strict δ cascades deeper for accuracy.
/// * `max_stage` caps the cascade: an input that reaches conditional stage
///   `max_stage` (0-based) terminates there **unconditionally**, with that
///   stage's head decision, regardless of confidence — an anytime-inference
///   bound on per-request cost. Values `>= stage_count()` have no effect
///   (the final layer stays reachable).
///
/// The default (`ExitOverride::NONE`) changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ExitOverride {
    /// Replacement threshold for the policy's δ knob (`None` = keep the
    /// network's configured threshold).
    pub delta: Option<f32>,
    /// Deepest conditional stage this input may cascade to (`None` = no
    /// cap). Reaching this stage forces termination there.
    pub max_stage: Option<usize>,
}

impl ExitOverride {
    /// The no-op override: configured policy, uncapped cascade.
    pub const NONE: ExitOverride = ExitOverride {
        delta: None,
        max_stage: None,
    };

    /// Overrides only the threshold δ.
    pub fn with_delta(delta: f32) -> Self {
        ExitOverride {
            delta: Some(delta),
            max_stage: None,
        }
    }

    /// Caps only the cascade depth.
    pub fn with_max_stage(max_stage: usize) -> Self {
        ExitOverride {
            delta: None,
            max_stage: Some(max_stage),
        }
    }

    /// `true` when this override changes nothing.
    pub fn is_none(&self) -> bool {
        self.delta.is_none() && self.max_stage.is_none()
    }

    /// The policy actually gating a request: `base` with this override's
    /// δ substituted (when set).
    pub fn effective_policy(&self, base: ConfidencePolicy) -> ConfidencePolicy {
        match self.delta {
            Some(d) => base.with_threshold(d),
            None => base,
        }
    }

    /// Validates the override against the policy it would modify.
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadPolicy`] when the substituted δ is out of
    /// range for `base`'s policy type.
    pub fn validate_for(&self, base: ConfidencePolicy) -> Result<()> {
        self.effective_policy(base).validate()
    }
}

impl std::fmt::Display for ExitOverride {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.delta, self.max_stage) {
            (None, None) => write!(f, "default"),
            (Some(d), None) => write!(f, "δ={d}"),
            (None, Some(s)) => write!(f, "max_stage={s}"),
            (Some(d), Some(s)) => write!(f, "δ={d}, max_stage={s}"),
        }
    }
}

impl std::fmt::Display for ConfidencePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfidencePolicy::SigmoidProb { delta } => write!(f, "sigmoid-prob(δ={delta})"),
            ConfidencePolicy::MaxProb { delta } => write!(f, "max-prob(δ={delta})"),
            ConfidencePolicy::Margin { margin } => write!(f, "margin(δ={margin})"),
            ConfidencePolicy::Entropy { max_nats } => write!(f, "entropy(≤{max_nats} nats)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n]).unwrap()
    }

    #[test]
    fn confident_single_label_exits() {
        let p = ConfidencePolicy::max_prob(0.6);
        let d = p.decide(&scores(vec![8.0, 0.0, 0.0, 0.0])).unwrap();
        assert!(d.exit);
        assert_eq!(d.label, 0);
        assert!(d.confidence > 0.9);
    }

    #[test]
    fn unconfident_passes_to_next_stage() {
        let p = ConfidencePolicy::max_prob(0.6);
        let d = p.decide(&scores(vec![0.1, 0.0, 0.05, 0.08])).unwrap();
        assert!(!d.exit);
    }

    #[test]
    fn two_confident_labels_pass_even_at_low_delta() {
        // the paper's second criterion: multiple labels above threshold ⇒ hard
        let p = ConfidencePolicy::max_prob(0.4);
        // two nearly equal top classes: both ~0.48
        let d = p.decide(&scores(vec![5.0, 4.9, -5.0, -5.0])).unwrap();
        assert!(
            !d.exit,
            "confidence {} should not exit when two labels exceed delta",
            d.confidence
        );
    }

    /// The one-pass `SigmoidProb` arm decides what the probability-tensor
    /// formulation did: arg-max by first occurrence, `>= delta` count over
    /// every class — ties, a saturated pair and a leading NaN included.
    #[test]
    fn sigmoid_prob_matches_the_tensor_formulation() {
        for delta in [0.5f32, 0.6, 1.0] {
            for v in [
                vec![3.0, -2.0, -4.0],
                vec![-1.0, 2.5, 2.5, 0.0],
                vec![0.3, 0.2, 0.1],
                vec![40.0, -3.0, 40.0],
                vec![f32::NAN, 5.0, -5.0],
                vec![-5.0, f32::NAN, 5.0],
                vec![0.0],
            ] {
                let s = scores(v);
                let sig = s.map(math::sigmoid);
                let label = sig.argmax().unwrap();
                let c_top = sig.data()[label];
                let confident = sig.data().iter().filter(|&&c| c >= delta).count();
                let d = ConfidencePolicy::sigmoid_prob(delta).decide(&s).unwrap();
                assert_eq!(d.label, label, "{s:?}");
                assert_eq!(d.confidence.to_bits(), c_top.to_bits(), "{s:?}");
                assert_eq!(d.exit, confident == 1 && c_top >= delta, "{s:?}");
            }
        }
    }

    #[test]
    fn margin_policy_measures_gap() {
        let p = ConfidencePolicy::margin(0.3);
        let close = p.decide(&scores(vec![2.0, 1.9, -3.0])).unwrap();
        assert!(!close.exit);
        let far = p.decide(&scores(vec![5.0, 0.0, -3.0])).unwrap();
        assert!(far.exit);
        assert!(far.confidence > close.confidence);
    }

    #[test]
    fn entropy_policy() {
        let p = ConfidencePolicy::entropy(0.3);
        let peaked = p.decide(&scores(vec![10.0, 0.0, 0.0])).unwrap();
        assert!(peaked.exit);
        let flat = p.decide(&scores(vec![0.0, 0.0, 0.0])).unwrap();
        assert!(!flat.exit);
        assert!(flat.confidence < peaked.confidence);
    }

    #[test]
    fn higher_delta_is_stricter() {
        // paper Fig. 4: raising the activation value keeps more inputs in
        // the cascade
        let s = scores(vec![2.0, 0.5, 0.0, -1.0]);
        let lenient = ConfidencePolicy::max_prob(0.5).decide(&s).unwrap();
        let strict = ConfidencePolicy::max_prob(0.95).decide(&s).unwrap();
        assert!(lenient.exit);
        assert!(!strict.exit);
    }

    #[test]
    fn validation() {
        assert!(ConfidencePolicy::max_prob(0.5).validate().is_ok());
        assert!(ConfidencePolicy::max_prob(0.0).validate().is_err());
        assert!(ConfidencePolicy::max_prob(1.5).validate().is_err());
        assert!(ConfidencePolicy::margin(-0.1).validate().is_err());
        assert!(ConfidencePolicy::entropy(f32::NAN).validate().is_err());
        assert!(ConfidencePolicy::entropy(0.5).validate().is_ok());
    }

    #[test]
    fn threshold_round_trip() {
        let p = ConfidencePolicy::max_prob(0.5);
        let q = p.with_threshold(0.8);
        assert_eq!(q.threshold(), 0.8);
        assert!(matches!(q, ConfidencePolicy::MaxProb { .. }));
        let m = ConfidencePolicy::margin(0.2).with_threshold(0.4);
        assert!(matches!(m, ConfidencePolicy::Margin { margin } if margin == 0.4));
    }

    #[test]
    fn empty_scores_rejected() {
        assert!(ConfidencePolicy::max_prob(0.5)
            .decide(&Tensor::default())
            .is_err());
    }

    #[test]
    fn display_mentions_delta() {
        assert!(ConfidencePolicy::max_prob(0.5).to_string().contains("0.5"));
    }
}
