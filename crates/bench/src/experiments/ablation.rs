//! Ablations beyond the paper's figures (saved by `--bin run_all` as
//! `ablation_*.txt` / `analysis_oracle.txt`):
//!
//! * **confidence policy** — the paper leaves the confidence measure open
//!   ("class probabilities or distance from the decision boundary"); this
//!   ablation compares the per-class sigmoid reading, softmax max-prob,
//!   margin and entropy policies at matched thresholds;
//! * **head training budget** — LMS epochs vs CDLN accuracy/ops, probing
//!   the paper's claim that the linear classifiers converge quickly.

use cdl_core::batch::BatchEvaluator;
use cdl_core::builder::{BuilderConfig, CdlBuilder};
use cdl_core::confidence::ConfidencePolicy;
use cdl_core::head::LmsConfig;
use cdl_core::stats::{evaluate, replay};
use cdl_hw::EnergyModel;

use crate::pipeline::{BenchError, ExperimentConfig, PreparedPair};

/// One table row per `(name, per-stage schedule)`: the 8-layer CDLN's test
/// set is traced once and each schedule is a [`replay`] of that trace (a
/// schedule shorter than the cascade reuses its last entry, the
/// `policy_for` that `CdlNetwork::classify_with` takes for a schedule).
fn policy_rows(
    pair: &PreparedPair,
    width: usize,
    rows: &[(String, Vec<ConfidencePolicy>)],
) -> Result<String, BenchError> {
    let trace = BatchEvaluator::new(&pair.net_3c.cdl).trace(&pair.test_set.images)?;
    let model = EnergyModel::cmos_45nm();
    let mut out = String::new();
    for (name, schedule) in rows {
        let report = replay(
            &trace,
            &pair.test_set.labels,
            |stage| schedule[stage.min(schedule.len() - 1)],
            &model,
        )?;
        out.push_str(&format!(
            "{:<width$} {:>9.2}% {:>12.3} {:>9.1}%\n",
            name,
            report.accuracy * 100.0,
            report.normalized_ops,
            report.fc_fraction() * 100.0,
        ));
    }
    Ok(out)
}

/// Compares termination policies on the prepared 8-layer CDLN.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn confidence_policies(pair: &PreparedPair) -> Result<String, BenchError> {
    let mut out = String::from("=== Ablation: confidence policy (8-layer CDLN) ===\n\n");
    out.push_str(&format!(
        "{:<28} {:>10} {:>12} {:>10}\n",
        "policy", "accuracy", "norm. #OPS", "FC frac."
    ));
    let policies = [
        ConfidencePolicy::sigmoid_prob(0.5),
        ConfidencePolicy::sigmoid_prob(0.7),
        ConfidencePolicy::max_prob(0.5),
        ConfidencePolicy::max_prob(0.7),
        ConfidencePolicy::margin(0.3),
        ConfidencePolicy::margin(0.6),
        ConfidencePolicy::entropy(0.5),
        ConfidencePolicy::entropy(0.2),
    ];
    let rows: Vec<_> = policies.map(|p| (p.to_string(), vec![p])).into();
    out.push_str(&policy_rows(pair, 28, &rows)?);
    out.push_str(
        "\nshape to check: all policies trace the same frontier; the per-class sigmoid\n\
         reading (the paper's) and margin give the best accuracy at comparable ops.\n",
    );
    Ok(out)
}

/// Compares a uniform δ against per-stage δ schedules (an extension beyond
/// the paper's single knob): stricter early stages trade a few ops for
/// fewer confident-but-wrong O1 exits.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn policy_schedules(pair: &PreparedPair) -> Result<String, BenchError> {
    let mut out = String::from("=== Ablation: per-stage δ schedules (8-layer CDLN) ===\n\n");
    out.push_str(&format!(
        "{:<32} {:>10} {:>12} {:>10}\n",
        "schedule", "accuracy", "norm. #OPS", "FC frac."
    ));
    let schedule = |name: &str, deltas: &[f32]| {
        let policies = deltas.iter().map(|&d| ConfidencePolicy::sigmoid_prob(d));
        (name.to_string(), policies.collect())
    };
    let rows = [
        schedule("uniform δ=0.5", &[0.5]),
        schedule("strict early (0.8, 0.4)", &[0.8, 0.4]),
        schedule("lax early (0.4, 0.8)", &[0.4, 0.8]),
        schedule("very strict O1 (0.95, 0.5)", &[0.95, 0.5]),
    ];
    out.push_str(&policy_rows(pair, 32, &rows)?);
    out.push_str(
        "\nshape to check: per-stage schedules trace points between the uniform-δ\n\
         extremes — a strictly-gated O1 buys accuracy at moderate extra ops.\n",
    );
    Ok(out)
}

/// Oracle upper bound: how much of the achievable savings/accuracy does the
/// real confidence policy capture?
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn oracle(pair: &PreparedPair) -> Result<String, BenchError> {
    let model = EnergyModel::cmos_45nm();
    let cdl = &pair.net_3c.cdl;
    let bound = cdl_core::calibrate::oracle_bound(cdl, &pair.test_set)?;
    let actual = evaluate(cdl, &pair.test_set, &model)?;
    let mut out = String::from("=== Analysis: oracle early-exit bound (8-layer CDLN) ===\n\n");
    out.push_str(&format!(
        "{:<26} {:>10} {:>12}\n",
        "", "accuracy", "norm. #OPS"
    ));
    out.push_str(&format!(
        "{:<26} {:>9.2}% {:>12.3}\n",
        "baseline DLN",
        actual.baseline_accuracy * 100.0,
        1.0
    ));
    out.push_str(&format!(
        "{:<26} {:>9.2}% {:>12.3}\n",
        format!("CDLN ({})", cdl.policy()),
        actual.accuracy * 100.0,
        actual.normalized_ops
    ));
    out.push_str(&format!(
        "{:<26} {:>9.2}% {:>12.3}\n",
        "oracle exit (upper bound)",
        bound.accuracy * 100.0,
        bound.normalized_ops
    ));
    out.push_str(&format!(
        "\ninputs no head nor FC classifies correctly: {:.1}%\n\
         confidence-policy gap to the oracle: {:.1}pp accuracy, {:.3} normalized ops —\n\
         the headroom a better confidence estimate (not better heads) could still claim.\n",
        bound.unclassifiable * 100.0,
        (bound.accuracy - actual.accuracy) * 100.0,
        actual.normalized_ops - bound.normalized_ops,
    ));
    Ok(out)
}

/// Sweeps the LMS training budget for the heads.
///
/// # Errors
///
/// Propagates build/evaluation errors.
pub fn head_training(pair: &PreparedPair, cfg: &ExperimentConfig) -> Result<String, BenchError> {
    let model = EnergyModel::cmos_45nm();
    let mut out = String::from("=== Ablation: head LMS training budget (8-layer CDLN) ===\n\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>12} {:>12}\n",
        "LMS epochs", "accuracy", "norm. #OPS", "head-1 acc"
    ));
    for epochs in [1usize, 2, 4, 8, 14, 24] {
        let base = pair.net_3c.fresh_base()?;
        let builder_cfg = BuilderConfig {
            lms: LmsConfig {
                epochs,
                ..LmsConfig::default()
            },
            force_admit_all: true,
            ..BuilderConfig::default()
        };
        let trained = CdlBuilder::new(pair.net_3c.arch.clone(), cfg.policy()).build(
            base,
            &pair.train_set,
            &builder_cfg,
        )?;
        let report = evaluate(trained.network(), &pair.test_set, &model)?;
        out.push_str(&format!(
            "{:<12} {:>9.2}% {:>12.3} {:>11.3}\n",
            epochs,
            report.accuracy * 100.0,
            report.normalized_ops,
            trained
                .reports()
                .first()
                .map(|r| r.head_accuracy)
                .unwrap_or(0.0),
        ));
    }
    out.push_str(
        "\nshape to check: accuracy saturates after a handful of LMS epochs — the\n\
         paper's 'linear classifiers converge to the global minima in short time'.\n",
    );
    Ok(out)
}
