//! Plain-text report formatting for energy/op analyses.
//!
//! The experiment binaries in `cdl-bench` print tables in the same style as
//! the paper's figures; this module holds the shared formatting helpers so
//! the output of every experiment looks consistent.

use crate::energy::EnergyBreakdown;
use crate::ops::OpCount;

/// One row of a cost report (a layer, a stage, or a whole network).
#[derive(Debug, Clone)]
struct CostRow {
    /// Row label, e.g. `"C1 (conv 5x5, 6 maps)"`.
    label: String,
    /// Operation counts for the row.
    ops: OpCount,
    /// Energy for the row.
    energy: EnergyBreakdown,
}

/// A formatted multi-row cost table.
#[derive(Debug, Clone, Default)]
pub struct CostReport {
    rows: Vec<CostRow>,
}

impl CostReport {
    /// An empty report.
    pub fn new() -> Self {
        CostReport { rows: Vec::new() }
    }

    /// Appends a row.
    pub fn push(&mut self, label: impl Into<String>, ops: OpCount, energy: EnergyBreakdown) {
        self.rows.push(CostRow {
            label: label.into(),
            ops,
            energy,
        });
    }

    /// Sum of all rows.
    pub fn total(&self) -> (OpCount, EnergyBreakdown) {
        let ops = self.rows.iter().map(|r| r.ops).sum();
        let energy = self.rows.iter().map(|r| r.energy).sum();
        (ops, energy)
    }

    /// Renders the report as an aligned plain-text table with a totals row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(std::iter::once("TOTAL".len()))
            .max()
            .unwrap_or(5)
            .max(5);
        out.push_str(&format!(
            "{:<label_w$}  {:>12}  {:>12}  {:>12}  {:>12}\n",
            "layer", "ops", "mem words", "energy (nJ)", "share"
        ));
        let (tot_ops, tot_e) = self.total();
        let tot_pj = tot_e.total_pj().max(f64::MIN_POSITIVE);
        for r in &self.rows {
            out.push_str(&format!(
                "{:<label_w$}  {:>12}  {:>12}  {:>12.3}  {:>11.1}%\n",
                r.label,
                r.ops.compute_ops(),
                r.ops.mem_words(),
                r.energy.total_pj() / 1000.0,
                100.0 * r.energy.total_pj() / tot_pj,
            ));
        }
        out.push_str(&format!(
            "{:<label_w$}  {:>12}  {:>12}  {:>12.3}  {:>11.1}%\n",
            "TOTAL",
            tot_ops.compute_ops(),
            tot_ops.mem_words(),
            tot_e.total_pj() / 1000.0,
            100.0,
        ));
        out
    }
}

/// Renders a horizontal ASCII bar chart (used by the figure binaries).
///
/// `rows` pairs labels with values; bars are scaled so the maximum value
/// spans `width` characters.
pub fn bar_chart(rows: &[(String, f64)], width: usize) -> String {
    let max = rows.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (label, value) in rows {
        let bar_len = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_w$}  {:<width$}  {value:.3}\n",
            "#".repeat(bar_len)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyModel;

    #[test]
    fn empty_report() {
        let r = CostReport::new();
        let (ops, e) = r.total();
        assert!(ops.is_zero());
        assert_eq!(e.total_pj(), 0.0);
        // rendering an empty report must not panic
        assert!(r.render().contains("TOTAL"));
    }

    #[test]
    fn totals_accumulate() {
        let m = EnergyModel::cmos_45nm();
        let mut r = CostReport::new();
        let o1 = OpCount::from_macs(100);
        let o2 = OpCount::from_macs(300);
        r.push("C1", o1, m.energy(&o1, 1));
        r.push("C2", o2, m.energy(&o2, 1));
        let (ops, e) = r.total();
        assert_eq!(ops.macs, 400);
        assert!(e.total_pj() > 0.0);
    }

    #[test]
    fn render_aligns_and_shows_shares() {
        let m = EnergyModel::ideal(Default::default());
        let mut r = CostReport::new();
        r.push(
            "conv1",
            OpCount::from_macs(75),
            m.energy(&OpCount::from_macs(75), 0),
        );
        r.push(
            "conv2",
            OpCount::from_macs(25),
            m.energy(&OpCount::from_macs(25), 0),
        );
        let s = r.render();
        assert!(s.contains("conv1"));
        assert!(s.contains("75.0%"));
        assert!(s.contains("25.0%"));
        assert!(s.lines().count() == 4); // header + 2 rows + total
    }

    #[test]
    fn bar_chart_scales_to_width() {
        let rows = vec![("a".to_string(), 1.0), ("bb".to_string(), 2.0)];
        let chart = bar_chart(&rows, 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains(&"#".repeat(10)));
        assert!(lines[0].contains(&"#".repeat(5)));
    }

    #[test]
    fn bar_chart_all_zero() {
        let rows = vec![("x".to_string(), 0.0)];
        let chart = bar_chart(&rows, 10);
        assert!(chart.contains("0.000"));
    }
}
