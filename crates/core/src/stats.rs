//! Evaluation statistics: per-digit OPS, energy, accuracy, exit histograms.
//!
//! This module computes everything the paper's result figures need from one
//! pass over a test set: Fig. 5 (normalized OPS per digit), Fig. 6 / Fig. 8
//! (normalized energy, difficulty ordering, FC activation fractions),
//! Table III (accuracy) and the exit histograms behind Fig. 9.

use cdl_hw::EnergyModel;
use cdl_nn::trainer::LabelledSet;
use serde::{Deserialize, Serialize};

use crate::batch::{BatchEvaluator, CascadeTrace};
use crate::confidence::ConfidencePolicy;
use crate::error::CdlError;
use crate::network::CdlNetwork;
use crate::Result;

/// Per-class statistics from one evaluation pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DigitStats {
    /// The class label.
    pub digit: usize,
    /// Number of test instances of this class.
    pub count: usize,
    /// CDLN accuracy on this class.
    pub accuracy: f64,
    /// Mean CDLN compute ops per instance.
    pub avg_ops: f64,
    /// Mean ops normalised by the baseline ops (the paper's "normalized
    /// #OPS"; < 1 means the CDLN is cheaper).
    pub normalized_ops: f64,
    /// Mean CDLN energy per instance, pJ.
    pub avg_energy_pj: f64,
    /// Energy normalised by baseline energy.
    pub normalized_energy: f64,
    /// Exit counts per stage (`len = stage_count + 1`; last entry = final
    /// output layer).
    pub exit_histogram: Vec<usize>,
    /// Fraction of instances that reached the final output layer (the
    /// paper's "FC activated for x% of instances").
    pub fc_fraction: f64,
}

/// Whole-test-set statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalReport {
    /// CDLN accuracy over the whole set.
    pub accuracy: f64,
    /// Baseline DLN accuracy over the whole set (same underlying network,
    /// heads ignored).
    pub baseline_accuracy: f64,
    /// Mean normalized ops over the whole set.
    pub normalized_ops: f64,
    /// Mean normalized energy over the whole set.
    pub normalized_energy: f64,
    /// Ops of one baseline pass.
    pub baseline_ops: u64,
    /// Energy of one baseline pass, pJ.
    pub baseline_energy_pj: f64,
    /// Exit counts per stage over the whole set.
    pub exit_histogram: Vec<usize>,
    /// Per-class breakdown, indexed by digit.
    pub digits: Vec<DigitStats>,
}

impl EvalReport {
    /// The paper's headline "x× improvement in average OPS/input".
    pub fn ops_improvement(&self) -> f64 {
        if self.normalized_ops > 0.0 {
            1.0 / self.normalized_ops
        } else {
            f64::INFINITY
        }
    }

    /// The paper's "x× improvement in energy".
    pub fn energy_improvement(&self) -> f64 {
        if self.normalized_energy > 0.0 {
            1.0 / self.normalized_energy
        } else {
            f64::INFINITY
        }
    }

    /// Fraction of all instances that reached the final output layer.
    pub fn fc_fraction(&self) -> f64 {
        let total: usize = self.exit_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        *self.exit_histogram.last().unwrap_or(&0) as f64 / total as f64
    }

    /// Digits sorted by decreasing energy benefit (Fig. 8's x-axis order).
    pub fn digits_by_energy_benefit(&self) -> Vec<usize> {
        let mut order: Vec<usize> = self.digits.iter().map(|d| d.digit).collect();
        order.sort_by(|&a, &b| {
            let ea = self
                .digits
                .iter()
                .find(|d| d.digit == a)
                .map_or(1.0, |d| d.normalized_energy);
            let eb = self
                .digits
                .iter()
                .find(|d| d.digit == b)
                .map_or(1.0, |d| d.normalized_energy);
            ea.partial_cmp(&eb).unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }
}

/// Evaluates a CDLN on a test set, producing every statistic the paper's
/// figures use: one [`BatchEvaluator::trace`] of the set, replayed under the
/// network's configured policy (see [`replay`]).
///
/// # Errors
///
/// Returns [`CdlError::BadDataset`] for an empty set and propagates
/// classification errors.
pub fn evaluate(
    cdl: &CdlNetwork,
    test: &LabelledSet,
    energy_model: &EnergyModel,
) -> Result<EvalReport> {
    let trace = BatchEvaluator::new(cdl).trace(&test.images)?;
    replay(&trace, &test.labels, |_| cdl.policy(), energy_model)
}

/// The statistics of one replay of `trace` — the cascade gated by
/// `policy_for(stage)` at each stage, as [`CascadeTrace::outputs`] takes it
/// — against the inputs' `labels`. It is the one place accuracy, ops, energy
/// and exit shares are accumulated: [`evaluate`], the δ sweep, δ calibration
/// and the policy ablations all ask it, each about the same trace, so a
/// question about another δ never runs the network. Per-image results — and
/// therefore every statistic — are bit-identical to a per-image
/// [`CdlNetwork::classify_with`] loop over the same `policy_for` (the
/// equivalence the batch test-suite pins down).
///
/// Energy is computed with `energy_model`; the baseline is charged a single
/// control stage (one monolithic design), the CDLN one control charge per
/// activated stage.
///
/// # Errors
///
/// Returns [`CdlError::BadPolicy`] for an out-of-range policy and
/// [`CdlError::BadDataset`] for an empty set or a label list of another
/// length than the trace.
pub fn replay(
    trace: &CascadeTrace,
    labels: &[usize],
    policy_for: impl Fn(usize) -> ConfidencePolicy,
    energy_model: &EnergyModel,
) -> Result<EvalReport> {
    let outputs = trace.outputs(policy_for, None)?;
    if labels.is_empty() || labels.len() != outputs.len() {
        return Err(CdlError::BadDataset(format!(
            "{} labels for {} traced inputs: need one each, and at least one",
            labels.len(),
            outputs.len()
        )));
    }
    let classes = labels.iter().max().map_or(1, |&m| m + 1);
    let stage_slots = trace.stage_count() + 1;
    let baseline_ops = trace.baseline_ops;
    let baseline_energy = energy_model.total_pj(&baseline_ops, 1);

    #[derive(Default, Clone)]
    struct Acc {
        count: usize,
        correct: usize,
        ops_sum: f64,
        energy_sum: f64,
        exits: Vec<usize>,
    }
    let mut per_digit = vec![
        Acc {
            exits: vec![0; stage_slots],
            ..Default::default()
        };
        classes
    ];
    let mut baseline_correct = 0usize;
    for (i, (out, &label)) in outputs.iter().zip(labels).enumerate() {
        let energy = energy_model.total_pj(&out.ops, out.stages_activated);
        let acc = &mut per_digit[label];
        acc.count += 1;
        acc.ops_sum += out.ops.compute_ops() as f64;
        acc.energy_sum += energy;
        acc.exits[out.exit_stage] += 1;
        if out.label == label {
            acc.correct += 1;
        }
        if trace.baseline_label(i) == label {
            baseline_correct += 1;
        }
    }

    let base_ops_f = baseline_ops.compute_ops() as f64;
    let mut digits = Vec::new();
    let mut exit_histogram = vec![0usize; stage_slots];
    let mut ops_total = 0.0;
    let mut energy_total = 0.0;
    let mut correct_total = 0usize;
    for (digit, acc) in per_digit.iter().enumerate() {
        if acc.count == 0 {
            continue;
        }
        for (h, &e) in exit_histogram.iter_mut().zip(&acc.exits) {
            *h += e;
        }
        ops_total += acc.ops_sum;
        energy_total += acc.energy_sum;
        correct_total += acc.correct;
        let n = acc.count as f64;
        digits.push(DigitStats {
            digit,
            count: acc.count,
            accuracy: acc.correct as f64 / n,
            avg_ops: acc.ops_sum / n,
            normalized_ops: acc.ops_sum / n / base_ops_f,
            avg_energy_pj: acc.energy_sum / n,
            normalized_energy: acc.energy_sum / n / baseline_energy,
            exit_histogram: acc.exits.clone(),
            fc_fraction: acc.exits[stage_slots - 1] as f64 / n,
        });
    }
    let n = labels.len() as f64;
    Ok(EvalReport {
        accuracy: correct_total as f64 / n,
        baseline_accuracy: baseline_correct as f64 / n,
        normalized_ops: ops_total / n / base_ops_f,
        normalized_energy: energy_total / n / baseline_energy,
        baseline_ops: baseline_ops.compute_ops(),
        baseline_energy_pj: baseline_energy,
        exit_histogram,
        digits,
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
    use cdl_nn::trainer::{train as train_dln, TrainConfig};

    /// Baseline parameters + data, computed once and shared across tests.
    fn fixture_data() -> &'static (Vec<cdl_tensor::Tensor>, LabelledSet, LabelledSet) {
        use std::sync::OnceLock;
        static FIXTURE: OnceLock<(Vec<cdl_tensor::Tensor>, LabelledSet, LabelledSet)> =
            OnceLock::new();
        FIXTURE.get_or_init(|| {
            let gen = SyntheticMnist::default();
            let (train_set, test_set) = gen.generate_split(2500, 400, 21);
            let arch = mnist_3c();
            let mut base = Network::from_spec(&arch.spec, 5).unwrap();
            train_dln(
                &mut base,
                &train_set,
                &TrainConfig {
                    epochs: 6,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
            (base.export_params(), train_set, test_set)
        })
    }

    fn trained_cdl() -> (CdlNetwork, LabelledSet) {
        let (params, train_set, test_set) = fixture_data();
        let arch = mnist_3c();
        let mut base = Network::from_spec(&arch.spec, 5).unwrap();
        base.import_params(params).unwrap();
        // force-admit both stages so the fixture exercises early exits even
        // when the briefly-trained baseline would fail the gain check
        let cfg = BuilderConfig {
            force_admit_all: true,
            ..BuilderConfig::default()
        };
        let cdl = CdlBuilder::new(arch, ConfidencePolicy::max_prob(0.5))
            .build(base, train_set, &cfg)
            .unwrap()
            .into_network();
        (cdl, test_set.clone())
    }

    #[test]
    fn evaluation_produces_consistent_report() {
        let (cdl, test_set) = trained_cdl();
        let model = EnergyModel::cmos_45nm();
        let report = evaluate(&cdl, &test_set, &model).unwrap();

        // histogram accounts for every instance
        let total: usize = report.exit_histogram.iter().sum();
        assert_eq!(total, test_set.len());

        // per-digit counts sum to the set size
        let digit_total: usize = report.digits.iter().map(|d| d.count).sum();
        assert_eq!(digit_total, test_set.len());

        // normalized ops must lie in (0, worst-case/baseline]
        let worst = cdl.worst_case_ops().compute_ops() as f64 / report.baseline_ops as f64;
        assert!(report.normalized_ops > 0.0);
        assert!(report.normalized_ops <= worst + 1e-9);

        // early exits must actually save ops on a trained CDLN
        assert!(
            report.normalized_ops < 1.0,
            "normalized ops {} not < 1",
            report.normalized_ops
        );
        assert!(report.ops_improvement() > 1.0);

        // energy improvement exists but is compressed vs ops improvement
        assert!(report.energy_improvement() > 1.0);
        assert!(report.energy_improvement() <= report.ops_improvement() + 0.2);

        // accuracies are probabilities
        assert!((0.0..=1.0).contains(&report.accuracy));
        assert!((0.0..=1.0).contains(&report.baseline_accuracy));
        for d in &report.digits {
            assert!((0.0..=1.0).contains(&d.accuracy));
            assert!((0.0..=1.0).contains(&d.fc_fraction));
        }
    }

    #[test]
    fn digits_by_energy_benefit_sorted() {
        let (cdl, test_set) = trained_cdl();
        let report = evaluate(&cdl, &test_set, &EnergyModel::cmos_45nm()).unwrap();
        let order = report.digits_by_energy_benefit();
        assert_eq!(order.len(), report.digits.len());
        let energies: Vec<f64> = order
            .iter()
            .map(|&d| {
                report
                    .digits
                    .iter()
                    .find(|s| s.digit == d)
                    .unwrap()
                    .normalized_energy
            })
            .collect();
        for pair in energies.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12);
        }
    }

    #[test]
    fn batched_evaluate_matches_per_image_reference() {
        let (cdl, test_set) = trained_cdl();
        let model = EnergyModel::cmos_45nm();
        let report = evaluate(&cdl, &test_set, &model).unwrap();

        // per-image reference for the integer-derived statistics
        let mut exit_histogram = vec![0usize; cdl.stage_count() + 1];
        let mut correct = 0usize;
        let mut baseline_correct = 0usize;
        let mut ops_sum = 0.0f64;
        for (img, &label) in test_set.images.iter().zip(&test_set.labels) {
            let out = cdl.classify(img).unwrap();
            exit_histogram[out.exit_stage] += 1;
            ops_sum += out.ops.compute_ops() as f64;
            if out.label == label {
                correct += 1;
            }
            let (base_label, _) = cdl.classify_baseline(img).unwrap();
            if base_label == label {
                baseline_correct += 1;
            }
        }
        let n = test_set.len() as f64;
        assert_eq!(report.exit_histogram, exit_histogram);
        assert_eq!(report.accuracy, correct as f64 / n);
        assert_eq!(report.baseline_accuracy, baseline_correct as f64 / n);
        let reference = ops_sum / n / cdl.baseline_ops().compute_ops() as f64;
        assert!((report.normalized_ops - reference).abs() < 1e-12);
    }

    #[test]
    fn empty_set_rejected() {
        let (cdl, _) = trained_cdl();
        assert!(evaluate(&cdl, &LabelledSet::default(), &EnergyModel::cmos_45nm()).is_err());
    }

    #[test]
    fn fc_fraction_consistency() {
        let (cdl, test_set) = trained_cdl();
        let report = evaluate(&cdl, &test_set, &EnergyModel::cmos_45nm()).unwrap();
        let total: usize = report.exit_histogram.iter().sum();
        let fc = *report.exit_histogram.last().unwrap();
        assert!((report.fc_fraction() - fc as f64 / total as f64).abs() < 1e-12);
    }
}
