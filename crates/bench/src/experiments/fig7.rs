//! Fig. 7 — accuracy as output layers are added one at a time to the
//! 8-layer net (O1-FC, O1-O2-FC, O1-O2-O3-FC).
//!
//! Paper: accuracy rises monotonically from the 97.55 % baseline to 98.92 %
//! with all three heads, and the fraction of inputs misclassified by the
//! final layer progressively decreases.

use cdl_core::arch::mnist_3c_full;
use cdl_core::builder::BuilderConfig;
use cdl_core::sweep::{stage_count_sweep, StagePoint};
use cdl_hw::EnergyModel;

use crate::pipeline::{BenchError, ExperimentConfig, PreparedPair};

/// Runs the stage-count accuracy study on the 8-layer net.
///
/// # Errors
///
/// Propagates sweep errors.
pub fn run(pair: &PreparedPair, cfg: &ExperimentConfig) -> Result<Vec<StagePoint>, BenchError> {
    let arch = mnist_3c_full();
    let base = pair.net_3c.fresh_base()?;
    Ok(stage_count_sweep(
        &arch,
        &base,
        &pair.train_set,
        &pair.test_set,
        cfg.policy(),
        &BuilderConfig::default(),
        &EnergyModel::cmos_45nm(),
    )?)
}

/// Renders the accuracy-vs-stage-count table.
pub fn render(points: &[StagePoint]) -> String {
    let mut out =
        String::from("=== Fig. 7: accuracy vs number of output layers (8-layer net) ===\n\n");
    out.push_str(&format!(
        "{:<16} {:>10} {:>12} {:>14}\n",
        "configuration", "accuracy", "norm. acc.", "FC miscls. share"
    ));
    let baseline = points.first().map(|p| p.baseline_accuracy).unwrap_or(0.0);
    for p in points {
        let label = if p.stages == 0 {
            "baseline (FC)".to_string()
        } else {
            format!("{}-FC", p.names.join("-"))
        };
        out.push_str(&format!(
            "{:<16} {:>9.2}% {:>12.4} {:>13.1}%\n",
            label,
            p.accuracy * 100.0,
            p.accuracy / baseline.max(1e-12),
            p.fc_fraction * 100.0,
        ));
    }
    out.push_str(
        "\npaper shape: each added head raises accuracy over the 97.55% baseline\n\
         (+0.1% with O1 alone, +1.4% with O1-O2-O3) while the share of inputs that\n\
         still reach the final layer shrinks.\n",
    );
    out
}
