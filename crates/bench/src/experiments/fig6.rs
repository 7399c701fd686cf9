//! Fig. 6 — normalized energy benefits of the CDLNs on the 45nm hardware
//! model.
//!
//! Paper: 1.71× (MNIST_2C) and 1.84× (MNIST_3C) average energy reduction —
//! slightly below the OPS reductions because of non-compute overheads.

use cdl_hw::report::bar_chart;

use crate::experiments::fig5::Fig5;

/// Renders per-digit normalized energy from the same evaluation pass as
/// Fig. 5 (the paper derives Fig. 6 from the Fig. 5 run, so do we).
pub fn render(fig: &Fig5) -> String {
    let mut out =
        String::from("=== Fig. 6: normalized energy per digit (45nm analytical model) ===\n\n");
    for (name, paper, report) in [
        ("MNIST_2C", "1.71x", &fig.report_2c),
        ("MNIST_3C", "1.84x", &fig.report_3c),
    ] {
        out.push_str(&format!("{name}:\n"));
        let rows: Vec<(String, f64)> = report
            .digits
            .iter()
            .map(|d| (format!("digit {}", d.digit), d.normalized_energy))
            .collect();
        out.push_str(&bar_chart(&rows, 40));
        out.push_str(&format!(
            "  avg energy improvement {:.2}x (paper: {paper}); ops improvement {:.2}x → energy gap {:.2}\n",
            report.energy_improvement(),
            report.ops_improvement(),
            report.ops_improvement() - report.energy_improvement(),
        ));
        out.push_str(&format!(
            "  baseline energy {:.1} nJ/classification; CDLN average {:.1} nJ\n\n",
            report.baseline_energy_pj / 1e3,
            report.baseline_energy_pj * report.normalized_energy / 1e3,
        ));
    }
    out.push_str(
        "note: energy improvement < OPS improvement because per-stage control energy,\n\
         head weight traffic and leakage do not shrink with skipped MACs — the same\n\
         effect the paper reports (1.91x OPS vs 1.84x energy on MNIST_3C).\n",
    );
    out
}
