//! Threshold calibration and oracle analysis.
//!
//! The paper leaves δ as a user knob ("adjusted during runtime to achieve
//! the best tradeoff"). This module automates the choice:
//!
//! * [`calibrate_delta`] — given a labelled *validation* set and an accuracy
//!   budget (maximum accuracy the deployment may give up relative to the
//!   baseline), sweep δ and return the cheapest setting that stays within
//!   budget;
//! * [`oracle_bound`] — the savings upper bound: an omniscient activation
//!   module that exits at the first stage whose head is *correct*. Real
//!   policies can't beat this; the gap to it measures how much the
//!   confidence estimate (rather than the heads) is leaving on the table.

use cdl_hw::EnergyModel;
use cdl_nn::trainer::LabelledSet;
use serde::{Deserialize, Serialize};

use crate::batch::BatchEvaluator;
use crate::error::CdlError;
use crate::network::CdlNetwork;
use crate::stats::replay;
use crate::Result;

/// Outcome of a δ calibration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Calibration {
    /// The chosen threshold.
    pub delta: f32,
    /// Validation accuracy at the chosen δ.
    pub accuracy: f64,
    /// Mean ops per input normalised by the baseline, at the chosen δ.
    pub normalized_ops: f64,
    /// Baseline accuracy on the validation set (the budget's reference).
    pub baseline_accuracy: f64,
}

/// Picks the cheapest δ on `grid` whose validation accuracy is at least
/// `baseline accuracy − max_accuracy_drop`. Falls back to the most accurate
/// grid point when no point satisfies the budget. The network runs once
/// ([`BatchEvaluator::trace`]); each grid point is a [`replay`] of that
/// trace.
///
/// # Errors
///
/// Returns [`CdlError::BadDataset`] for an empty set or grid,
/// [`CdlError::BadPolicy`] for a grid point out of range, and propagates
/// evaluation errors.
pub fn calibrate_delta(
    cdl: &CdlNetwork,
    validation: &LabelledSet,
    grid: &[f32],
    max_accuracy_drop: f64,
) -> Result<Calibration> {
    if validation.is_empty() {
        return Err(CdlError::BadDataset("empty validation set".into()));
    }
    if grid.is_empty() {
        return Err(CdlError::BadDataset("empty delta grid".into()));
    }
    let trace = BatchEvaluator::new(cdl).trace(&validation.images)?;
    // accuracy and ops do not depend on the energy model `replay` also wants
    let energy_model = EnergyModel::cmos_45nm();
    let candidates = grid
        .iter()
        .map(|&delta| {
            let policy = cdl.policy().with_threshold(delta);
            let report = replay(&trace, &validation.labels, |_| policy, &energy_model)?;
            Ok(Calibration {
                delta,
                accuracy: report.accuracy,
                normalized_ops: report.normalized_ops,
                baseline_accuracy: report.baseline_accuracy,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let budget = candidates[0].baseline_accuracy - max_accuracy_drop;
    let within_budget = candidates
        .iter()
        .filter(|c| c.accuracy >= budget)
        .min_by(|a, b| a.normalized_ops.total_cmp(&b.normalized_ops))
        .cloned();
    Ok(within_budget.unwrap_or_else(|| {
        candidates
            .into_iter()
            .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy))
            .expect("grid is non-empty")
    }))
}

/// Upper bound on the CDLN's savings/accuracy with an omniscient activation
/// module.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OracleBound {
    /// Accuracy achievable when every input exits at the first stage (or
    /// final layer) that classifies it correctly.
    pub accuracy: f64,
    /// Mean ops per input under the oracle, normalised by the baseline.
    pub normalized_ops: f64,
    /// Fraction of inputs no stage nor the final layer classifies correctly.
    pub unclassifiable: f64,
}

/// Computes the oracle early-exit bound on a labelled set: one
/// [`BatchEvaluator::trace`], read head by head.
///
/// # Errors
///
/// Returns [`CdlError::BadDataset`] for an empty set; propagates evaluation
/// errors.
pub fn oracle_bound(cdl: &CdlNetwork, set: &LabelledSet) -> Result<OracleBound> {
    if set.is_empty() {
        return Err(CdlError::BadDataset("empty evaluation set".into()));
    }
    let trace = BatchEvaluator::new(cdl).trace(&set.images)?;
    let stages = trace.stage_count();
    let mut correct = 0usize;
    let mut unclassifiable = 0usize;
    let mut ops_sum = 0.0f64;
    for (i, &label) in set.labels.iter().enumerate() {
        // the first head that is right, else the final layer — for which the
        // oracle pays the full cascade
        let exit = (0..stages)
            .find(|&stage| trace.stage_label(stage, i) == label)
            .unwrap_or(stages);
        ops_sum += trace.exit_ops[exit].compute_ops() as f64;
        if exit < stages || trace.baseline_label(i) == label {
            correct += 1;
        } else {
            unclassifiable += 1;
        }
    }
    let n = set.len() as f64;
    Ok(OracleBound {
        accuracy: correct as f64 / n,
        normalized_ops: ops_sum / n / trace.baseline_ops.compute_ops() as f64,
        unclassifiable: unclassifiable as f64 / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::mnist_3c;
    use crate::builder::{BuilderConfig, CdlBuilder};
    use crate::confidence::ConfidencePolicy;
    use cdl_dataset::SyntheticMnist;
    use cdl_nn::network::Network;
    use cdl_nn::trainer::{train, TrainConfig};
    use std::sync::OnceLock;

    fn fixture() -> &'static (CdlNetwork, LabelledSet) {
        static FIX: OnceLock<(CdlNetwork, LabelledSet)> = OnceLock::new();
        FIX.get_or_init(|| {
            let (train_set, test_set) = SyntheticMnist::default().generate_split(2200, 400, 55);
            let arch = mnist_3c();
            let mut base = Network::from_spec(&arch.spec, 5).unwrap();
            train(
                &mut base,
                &train_set,
                &TrainConfig {
                    epochs: 25,
                    lr: 1.5,
                    lr_decay: 0.95,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
            let cdl = CdlBuilder::new(arch, ConfidencePolicy::sigmoid_prob(0.5))
                .build(
                    base,
                    &train_set,
                    &BuilderConfig {
                        force_admit_all: true,
                        ..BuilderConfig::default()
                    },
                )
                .unwrap()
                .into_network();
            (cdl, test_set)
        })
    }

    #[test]
    fn calibration_respects_budget() {
        let (cdl, val) = fixture();
        let grid = [0.2f32, 0.35, 0.5, 0.65, 0.8];
        // generous budget: any accuracy is fine → must pick the cheapest
        let lax = calibrate_delta(cdl, val, &grid, 1.0).unwrap();
        let all: Vec<Calibration> = grid
            .iter()
            .map(|&d| {
                let policy = cdl.policy().with_threshold(d);
                let mut ops_sum = 0.0;
                let mut correct = 0usize;
                for (img, &label) in val.images.iter().zip(&val.labels) {
                    let o = cdl.classify_with_policy(img, policy).unwrap();
                    ops_sum += o.ops.compute_ops() as f64;
                    correct += (o.label == label) as usize;
                }
                Calibration {
                    delta: d,
                    accuracy: correct as f64 / val.len() as f64,
                    normalized_ops: ops_sum
                        / val.len() as f64
                        / cdl.baseline_ops().compute_ops() as f64,
                    baseline_accuracy: 0.0,
                }
            })
            .collect();
        let cheapest = all
            .iter()
            .min_by(|a, b| a.normalized_ops.total_cmp(&b.normalized_ops))
            .unwrap();
        assert_eq!(lax.delta, cheapest.delta);

        // zero budget: must choose an accuracy >= every cheaper point's
        let strict = calibrate_delta(cdl, val, &grid, 0.0).unwrap();
        assert!(strict.accuracy >= lax.accuracy - 1e-12);
    }

    #[test]
    fn calibration_validates_inputs() {
        let (cdl, val) = fixture();
        assert!(calibrate_delta(cdl, &LabelledSet::default(), &[0.5], 0.0).is_err());
        assert!(calibrate_delta(cdl, val, &[], 0.0).is_err());
    }

    #[test]
    fn oracle_dominates_any_policy() {
        let (cdl, test) = fixture();
        let oracle = oracle_bound(cdl, test).unwrap();
        // the oracle's accuracy upper-bounds the real policy's
        let report = crate::stats::evaluate(cdl, test, &cdl_hw::EnergyModel::cmos_45nm()).unwrap();
        assert!(
            oracle.accuracy >= report.accuracy - 1e-12,
            "oracle {} vs policy {}",
            oracle.accuracy,
            report.accuracy
        );
        // and its cost lower-bounds what a correct-exit policy could pay
        assert!(oracle.normalized_ops > 0.0);
        assert!(oracle.normalized_ops <= report.normalized_ops + 1e-9);
        assert!((0.0..=1.0).contains(&oracle.unclassifiable));
    }

    #[test]
    fn oracle_rejects_empty() {
        let (cdl, _) = fixture();
        assert!(oracle_bound(cdl, &LabelledSet::default()).is_err());
    }
}
