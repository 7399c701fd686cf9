//! Parameter sweeps: the δ knob (Fig. 10) and the stage count (Figs. 7 & 9).

use cdl_hw::EnergyModel;
use cdl_nn::network::Network;
use cdl_nn::trainer::LabelledSet;
use serde::{Deserialize, Serialize};

use crate::arch::CdlArchitecture;
use crate::batch::BatchEvaluator;
use crate::builder::{BuilderConfig, CdlBuilder};
use crate::confidence::ConfidencePolicy;
use crate::error::CdlError;
use crate::network::CdlNetwork;
use crate::stats::{evaluate, replay};
use crate::Result;

/// One point of a δ sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeltaPoint {
    /// The threshold δ.
    pub delta: f32,
    /// CDLN accuracy at this δ.
    pub accuracy: f64,
    /// Mean ops normalised by the baseline.
    pub normalized_ops: f64,
    /// Fraction of instances reaching the final output layer.
    pub fc_fraction: f64,
}

/// Sweeps the confidence threshold δ on an already-built CDLN (Fig. 10).
///
/// The heads stay fixed — only the activation module's threshold changes,
/// exactly the paper's "δ can be adjusted during runtime" — so the network
/// runs once ([`BatchEvaluator::trace`]) and every point is a
/// [`replay`] of that trace; `cdl` and its configured policy are only read.
///
/// # Errors
///
/// Returns [`CdlError::BadDataset`] for an empty test set or empty δ list,
/// [`CdlError::BadPolicy`] for a δ out of range (at any point of the list),
/// and propagates evaluation errors.
pub fn delta_sweep(
    cdl: &CdlNetwork,
    test: &LabelledSet,
    deltas: &[f32],
    energy_model: &EnergyModel,
) -> Result<Vec<DeltaPoint>> {
    if deltas.is_empty() {
        return Err(CdlError::BadDataset("empty delta list".into()));
    }
    let trace = BatchEvaluator::new(cdl).trace(&test.images)?;
    deltas
        .iter()
        .map(|&delta| {
            let policy = cdl.policy().with_threshold(delta);
            let report = replay(&trace, &test.labels, |_| policy, energy_model)?;
            Ok(DeltaPoint {
                delta,
                accuracy: report.accuracy,
                normalized_ops: report.normalized_ops,
                fc_fraction: report.fc_fraction(),
            })
        })
        .collect()
}

/// One point of a stage-count sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StagePoint {
    /// Number of linear-classifier stages in this configuration.
    pub stages: usize,
    /// Stage names, e.g. `["O1", "O2"]`.
    pub names: Vec<String>,
    /// CDLN accuracy.
    pub accuracy: f64,
    /// Baseline accuracy (identical across points; kept for convenience).
    pub baseline_accuracy: f64,
    /// Mean normalized ops.
    pub normalized_ops: f64,
    /// Fraction of instances reaching the final output layer.
    pub fc_fraction: f64,
}

/// Sweeps the number of output stages (Figs. 7 & 9): for `n = 0 ..= taps`,
/// trains heads on the first `n` candidate taps (force-admitted) and
/// evaluates the resulting CDLN.
///
/// The baseline is re-used across points via parameter export/import, so
/// every configuration wraps an *identical* trained DLN.
///
/// # Errors
///
/// Propagates build/evaluation errors.
pub fn stage_count_sweep(
    arch: &CdlArchitecture,
    base: &Network,
    train_set: &LabelledSet,
    test_set: &LabelledSet,
    policy: ConfidencePolicy,
    cfg: &BuilderConfig,
    energy_model: &EnergyModel,
) -> Result<Vec<StagePoint>> {
    arch.validate()?;
    let params = base.export_params();
    let mut points = Vec::with_capacity(arch.taps.len() + 1);
    for n in 0..=arch.taps.len() {
        let sub_arch = arch.with_first_taps(n);
        let mut clone = Network::from_spec(&arch.spec, 0).map_err(CdlError::Nn)?;
        clone.import_params(&params).map_err(CdlError::Nn)?;
        let force = BuilderConfig {
            force_admit_all: true,
            ..cfg.clone()
        };
        let trained = CdlBuilder::new(sub_arch.clone(), policy).build(clone, train_set, &force)?;
        let report = evaluate(trained.network(), test_set, energy_model)?;
        points.push(StagePoint {
            stages: n,
            names: sub_arch.taps.iter().map(|t| t.name.clone()).collect(),
            accuracy: report.accuracy,
            baseline_accuracy: report.baseline_accuracy,
            normalized_ops: report.normalized_ops,
            fc_fraction: report.fc_fraction(),
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::mnist_3c_full;
    use cdl_dataset::SyntheticMnist;
    use cdl_nn::trainer::{train as train_dln, TrainConfig};

    fn fixture() -> (CdlArchitecture, Network, LabelledSet, LabelledSet) {
        let gen = SyntheticMnist::default();
        let (train_set, test_set) = gen.generate_split(800, 250, 33);
        let arch = mnist_3c_full();
        let mut base = Network::from_spec(&arch.spec, 9).unwrap();
        train_dln(
            &mut base,
            &train_set,
            &TrainConfig {
                epochs: 4,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        (arch, base, train_set, test_set)
    }

    #[test]
    fn delta_sweep_is_monotone_in_ops() {
        let (arch, base, train_set, test_set) = fixture();
        let cdl = CdlBuilder::new(arch, ConfidencePolicy::max_prob(0.5))
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
        let deltas = [0.3f32, 0.5, 0.7, 0.9];
        let points = delta_sweep(&cdl, &test_set, &deltas, &EnergyModel::cmos_45nm()).unwrap();
        assert_eq!(points.len(), 4);
        // raising delta keeps more inputs in the cascade → ops rise (paper
        // phrases it with the complementary convention; see bench fig10)
        for pair in points.windows(2) {
            assert!(
                pair[1].normalized_ops >= pair[0].normalized_ops - 1e-9,
                "ops not monotone: {points:?}"
            );
            assert!(pair[1].fc_fraction >= pair[0].fc_fraction - 1e-9);
        }
        // the network's own policy is never touched
        assert_eq!(cdl.policy(), ConfidencePolicy::max_prob(0.5));
    }

    /// A sweep that fails part-way has still only read the network: there
    /// is no installed δ to be left behind by the early return.
    #[test]
    fn an_invalid_delta_mid_grid_is_an_error_and_leaves_the_policy_alone() {
        let (arch, base, train_set, test_set) = fixture();
        let cdl = CdlBuilder::new(arch, ConfidencePolicy::max_prob(0.5))
            .build(base, &train_set, &BuilderConfig::default())
            .unwrap()
            .into_network();
        let swept = delta_sweep(&cdl, &test_set, &[0.3, 0.0], &EnergyModel::cmos_45nm());
        assert!(matches!(swept, Err(CdlError::BadPolicy(_))), "{swept:?}");
        assert_eq!(cdl.policy(), ConfidencePolicy::max_prob(0.5));
    }

    #[test]
    fn delta_sweep_rejects_empty() {
        let (arch, base, train_set, test_set) = fixture();
        let cdl = CdlBuilder::new(arch, ConfidencePolicy::max_prob(0.5))
            .build(base, &train_set, &BuilderConfig::default())
            .unwrap()
            .into_network();
        assert!(delta_sweep(&cdl, &test_set, &[], &EnergyModel::cmos_45nm()).is_err());
    }

    #[test]
    fn stage_sweep_covers_zero_to_all() {
        let (arch, base, train_set, test_set) = fixture();
        let points = stage_count_sweep(
            &arch,
            &base,
            &train_set,
            &test_set,
            ConfidencePolicy::max_prob(0.55),
            &BuilderConfig::default(),
            &EnergyModel::cmos_45nm(),
        )
        .unwrap();
        assert_eq!(points.len(), 4); // 0..=3 stages
        assert_eq!(points[0].stages, 0);
        assert_eq!(points[3].names, vec!["O1", "O2", "O3"]);
        // zero stages = pure baseline: normalized ops exactly 1
        assert!((points[0].normalized_ops - 1.0).abs() < 1e-9);
        assert!((points[0].fc_fraction - 1.0).abs() < 1e-12);
        // with stages, ops drop below baseline
        assert!(points[2].normalized_ops < 1.0);
        // fc fraction decreases as stages are added
        for pair in points.windows(2) {
            assert!(pair[1].fc_fraction <= pair[0].fc_fraction + 1e-9);
        }
        // baseline accuracy identical across points
        for p in &points {
            assert!((p.baseline_accuracy - points[0].baseline_accuracy).abs() < 1e-12);
        }
    }
}
