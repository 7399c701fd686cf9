//! Fig. 9 — normalized #OPS as output stages are added one at a time
//! (8-layer net): the break-even point in the stage count.
//!
//! Paper: the fraction of inputs reaching FC drops 42 % → 5 % with two
//! stages (O1-O2-FC) and #OPS bottoms out around 0.45×; a third stage only
//! shaves the FC fraction to 3 %, which no longer pays for its own cost, so
//! #OPS rises — the break-even the Algorithm 1 gain test encodes.

use cdl_core::sweep::StagePoint;

/// Renders the OPS-vs-stage-count table from the shared Fig. 7 sweep.
pub fn render(points: &[StagePoint]) -> String {
    let mut out = String::from(
        "=== Fig. 9: normalized #OPS vs number of output stages (8-layer net) ===\n\n",
    );
    out.push_str(&format!(
        "{:<16} {:>12} {:>16}\n",
        "configuration", "norm. #OPS", "frac. reaching FC"
    ));
    for p in points {
        let label = if p.stages == 0 {
            "FC only".to_string()
        } else {
            format!("{}-FC", p.names.join("-"))
        };
        out.push_str(&format!(
            "{:<16} {:>12.3} {:>15.1}%\n",
            label,
            p.normalized_ops,
            p.fc_fraction * 100.0,
        ));
    }
    if let Some(best) = points
        .iter()
        .min_by(|a, b| a.normalized_ops.total_cmp(&b.normalized_ops))
    {
        out.push_str(&format!(
            "\nbreak-even configuration: {} stage(s), normalized #OPS {:.3} (paper: 0.45 at O1-O2-FC)\n",
            best.stages, best.normalized_ops,
        ));
    }
    out.push_str(
        "shape to check: #OPS falls steeply with the first stages, then flattens or\n\
         rises once a stage's own cost outweighs the little traffic it can still divert.\n",
    );
    out
}
