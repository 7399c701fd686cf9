//! Runs the paper evaluation: Tables I–IV and Figs. 5–10 plus the
//! ablations, printing every report and saving it under
//! `target/cdl-results/`.
//!
//! `run_all [report-name …]` runs and saves only the named reports (the
//! names are [`REPORTS`], the file stems under the results directory) and
//! trains only what they need; with no argument it runs all of them.
//!
//! Scale via `CDL_TRAIN_N` / `CDL_TEST_N` / `CDL_EPOCHS` / `CDL_DELTA`
//! (see the crate docs); trained models are cached in `target/cdl-cache/`.

use cdl_bench::experiments::{
    ablation, fig10, fig5, fig6, fig7, fig8, fig9, save_report, table12, table3, table4,
};
use cdl_bench::pipeline::{prepare_pair, BenchError, ExperimentConfig};

/// Every report, in the order a full run prints them.
const REPORTS: [&str; 15] = [
    "table1_2_arch",
    "fig5_ops_per_digit",
    "fig6_energy_per_digit",
    "table3_accuracy",
    "fig8_difficulty",
    "fig7_accuracy_vs_stages",
    "fig9_ops_vs_stages",
    "fig10_delta_sweep",
    "table4_examples",
    "ablation_confidence",
    "ablation_schedules",
    "analysis_oracle",
    "ablation_head_training",
    "table3_accuracy_easy",
    "fig7_fig9_easy",
];

/// Runs of [`REPORTS`] computed from one shared input, so that input is
/// prepared only if one of them is asked for: the main pair of trained
/// models, the Fig. 5 evaluation, the Fig. 7 stage sweep, the easy pair.
const ON_PAIR: std::ops::Range<usize> = 1..13;
const ON_FIG5: std::ops::Range<usize> = 1..5;
const ON_FIG7: std::ops::Range<usize> = 5..7;
const ON_EASY_PAIR: std::ops::Range<usize> = 13..15;

type Failure = Box<dyn std::error::Error + Send + Sync>;

fn main() -> Result<(), Failure> {
    let named: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = named.iter().find(|n| !REPORTS.contains(&n.as_str())) {
        return Err(format!(
            "no report {unknown:?}; the reports are: {}",
            REPORTS.join(" ")
        )
        .into());
    }
    let wanted = |name: &str| named.is_empty() || named.iter().any(|n| n == name);
    let any_wanted = |run: std::ops::Range<usize>| REPORTS[run].iter().any(|name| wanted(name));
    // prints and saves `render()` if `name` was asked for
    let report = |name: &str, render: &dyn Fn() -> Result<String, BenchError>| {
        if wanted(name) {
            let rendered = render()?;
            println!("{rendered}");
            save_report(name, &rendered)?;
        }
        Ok::<(), BenchError>(())
    };

    let cfg = ExperimentConfig::from_env();
    eprintln!(
        "config: train_n={} test_n={} epochs={} delta={} seed={}",
        cfg.train_n, cfg.test_n, cfg.epochs, cfg.delta, cfg.seed
    );

    report("table1_2_arch", &table12::run)?;

    if any_wanted(ON_PAIR) {
        let pair = prepare_pair(&cfg)?;
        if any_wanted(ON_FIG5) {
            let fig = fig5::run(&pair)?;
            report("fig5_ops_per_digit", &|| Ok(fig5::render(&fig)))?;
            report("fig6_energy_per_digit", &|| Ok(fig6::render(&fig)))?;
            report("table3_accuracy", &|| Ok(table3::render(&fig)))?;
            report("fig8_difficulty", &|| Ok(fig8::render(&fig)))?;
        }
        if any_wanted(ON_FIG7) {
            let points = fig7::run(&pair, &cfg)?;
            report("fig7_accuracy_vs_stages", &|| Ok(fig7::render(&points)))?;
            report("fig9_ops_vs_stages", &|| Ok(fig9::render(&points)))?;
        }
        report("fig10_delta_sweep", &|| {
            Ok(fig10::render(&fig10::run(&pair)?))
        })?;
        report("table4_examples", &|| table4::run(&pair))?;
        report("ablation_confidence", &|| {
            ablation::confidence_policies(&pair)
        })?;
        report("ablation_schedules", &|| ablation::policy_schedules(&pair))?;
        report("analysis_oracle", &|| ablation::oracle(&pair))?;
        report("ablation_head_training", &|| {
            ablation::head_training(&pair, &cfg)
        })?;
    }

    // Table III also in the easy-majority regime (MNIST-like separability,
    // modestly trained baseline — the paper's accuracy-gain conditions).
    if any_wanted(ON_EASY_PAIR) {
        let easy_cfg = ExperimentConfig {
            profile: "easy".to_string(),
            epochs: 6,
            ..cfg.clone()
        };
        let easy_pair = prepare_pair(&easy_cfg)?;
        let heading = "(easy-majority dataset profile, 6-epoch baselines)\n\n";
        report("table3_accuracy_easy", &|| {
            let fig = fig5::run(&easy_pair)?;
            let (table, ops) = (table3::render(&fig), fig5::render(&fig));
            Ok(format!("{heading}{table}{ops}"))
        })?;
        report("fig7_fig9_easy", &|| {
            let points = fig7::run(&easy_pair, &easy_cfg)?;
            let (accuracy, ops) = (fig7::render(&points), fig9::render(&points));
            Ok(format!("{heading}{accuracy}\n{ops}"))
        })?;
    }

    eprintln!(
        "reports saved under {}",
        cdl_bench::experiments::results_dir().display()
    );
    Ok(())
}
