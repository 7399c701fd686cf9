//! Runs the full paper evaluation: Tables I–IV and Figs. 5–10 plus the two
//! ablations, printing every report and saving them under
//! `target/cdl-results/`.
//!
//! Scale via `CDL_TRAIN_N` / `CDL_TEST_N` / `CDL_EPOCHS` / `CDL_DELTA`
//! (see the crate docs); trained models are cached in `target/cdl-cache/`.

use cdl_bench::experiments::{
    ablation, fig10, fig5, fig6, fig7, fig8, fig9, save_report, table12, table3, table4,
};
use cdl_bench::pipeline::{prepare_pair, ExperimentConfig};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let cfg = ExperimentConfig::from_env();
    eprintln!(
        "config: train_n={} test_n={} epochs={} delta={} seed={}",
        cfg.train_n, cfg.test_n, cfg.epochs, cfg.delta, cfg.seed
    );

    let arch_report = table12::run()?;
    println!("{arch_report}");
    save_report("table1_2_arch", &arch_report)?;

    let pair = prepare_pair(&cfg)?;

    let fig5_result = fig5::run(&pair)?;
    for (name, render) in [
        ("fig5_ops_per_digit", fig5::render(&fig5_result)),
        ("fig6_energy_per_digit", fig6::render(&fig5_result)),
        ("table3_accuracy", table3::render(&fig5_result)),
        ("fig8_difficulty", fig8::render(&fig5_result)),
    ] {
        println!("{render}");
        save_report(name, &render)?;
    }

    let stage_points = fig7::run(&pair, &cfg)?;
    for (name, render) in [
        ("fig7_accuracy_vs_stages", fig7::render(&stage_points)),
        ("fig9_ops_vs_stages", fig9::render(&stage_points)),
    ] {
        println!("{render}");
        save_report(name, &render)?;
    }

    let delta_points = fig10::run(&pair)?;
    let render = fig10::render(&delta_points);
    println!("{render}");
    save_report("fig10_delta_sweep", &render)?;

    let gallery = table4::run(&pair)?;
    println!("{gallery}");
    save_report("table4_examples", &gallery)?;

    let conf = ablation::confidence_policies(&pair)?;
    println!("{conf}");
    save_report("ablation_confidence", &conf)?;

    let sched = ablation::policy_schedules(&pair)?;
    println!("{sched}");
    save_report("ablation_schedules", &sched)?;

    let oracle = ablation::oracle(&pair)?;
    println!("{oracle}");
    save_report("analysis_oracle", &oracle)?;

    let heads = ablation::head_training(&pair, &cfg)?;
    println!("{heads}");
    save_report("ablation_head_training", &heads)?;

    // Table III also in the easy-majority regime (MNIST-like separability,
    // modestly trained baseline — the paper's accuracy-gain conditions).
    let easy_cfg = ExperimentConfig {
        profile: "easy".to_string(),
        epochs: 6,
        ..cfg.clone()
    };
    let easy_pair = prepare_pair(&easy_cfg)?;
    let easy_fig5 = fig5::run(&easy_pair)?;
    let mut easy_table = String::from("(easy-majority dataset profile, 6-epoch baselines)\n\n");
    easy_table.push_str(&table3::render(&easy_fig5));
    easy_table.push_str(&fig5::render(&easy_fig5));
    println!("{easy_table}");
    save_report("table3_accuracy_easy", &easy_table)?;

    let easy_stages = fig7::run(&easy_pair, &easy_cfg)?;
    let mut easy_stage_report =
        String::from("(easy-majority dataset profile, 6-epoch baselines)\n\n");
    easy_stage_report.push_str(&fig7::render(&easy_stages));
    easy_stage_report.push('\n');
    easy_stage_report.push_str(&fig9::render(&easy_stages));
    println!("{easy_stage_report}");
    save_report("fig7_fig9_easy", &easy_stage_report)?;

    eprintln!(
        "all reports saved under {}",
        cdl_bench::experiments::results_dir().display()
    );
    Ok(())
}
