//! The repo's benchmark. See README.md; `cdl-benchmark help` lists the
//! commands.

mod json;
mod layers;
mod loadgen;
mod prepare;
mod procfs;
mod report;
mod serve;
mod spec;
mod stats;
mod wire;
mod workloads;

use std::process::ExitCode;

use json::{obj, Content};
use prepare::Scale;
use workloads::{Outcome, Params, Workload};

const USAGE: &str = "\
cdl-benchmark run --seed <S> [--seconds <T>] [--repeat <N>] [--smoke] [--out <file>]
    prepare, run every workload untraced (N times) and once traced, check
    every output, print every metric, write the result file
cdl-benchmark --workload <name> --seed <S> --seconds <T> --trace <0|1> [--smoke]
    one workload; the last line is the result as one JSON object
cdl-benchmark compare <a.json> <b.json>
    both sets' medians, quartiles and counts per metric x workload, judged
    against the recorded bounds
cdl-benchmark spec
    print BENCHMARK.json as the metric tables in src/spec.rs define it
cdl-benchmark train-models <dir>
    retrain the committed models (models/*.json) with the recorded recipe";

/// The measured span of one run, `run_seconds` in BENCHMARK.json.
const RUN_SECONDS: f64 = 28.0;
/// `--smoke`: 256-image pool and short spans, for tests and CI.
const SMOKE_SECONDS: f64 = 0.6;

/// `--name value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name} {v}: not a valid number"))
            })
            .transpose()
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn report_outcome(workload: Workload, traced: bool, outcome: &Outcome) {
    let title = format!(
        "{} ({}): attempted {}, failed {}",
        workload.name(),
        if traced { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    report::print_metrics(&title, &outcome.metrics);
    for complaint in &outcome.complaints {
        println!("  FAILED: {complaint}");
    }
    for reason in &outcome.noisy {
        println!("  noisy: {reason}");
    }
}

/// `--seed`, `--seconds` and `--smoke` as the parameters of a run.
fn params(args: &Args, traced: bool) -> Result<Params, String> {
    let smoke = args.flag("--smoke");
    let default_seconds = if smoke { SMOKE_SECONDS } else { RUN_SECONDS };
    Ok(Params {
        seed: args.number("--seed")?.ok_or("--seed is required")?,
        seconds: args.number("--seconds")?.unwrap_or(default_seconds),
        scale: if smoke { Scale::SMOKE } else { Scale::FULL },
        traced,
    })
}

/// One workload, as the driver runs it.
fn driver(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let params = params(args, args.number::<u8>("--trace")?.unwrap_or(0) != 0)?;
    let outcome = workloads::run(workload, &params).map_err(|e| format!("{name}: {e}"))?;
    report_outcome(workload, params.traced, &outcome);
    println!(
        "{}",
        report::driver_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What `run` keeps of one child run.
struct ChildRun {
    /// `{metric: value}` for the result file.
    metrics: Content,
    failed: u64,
    noisy: bool,
}

/// Runs one workload in a process of its own — exactly what the driver
/// does, so peak memory and heap state never carry over from one workload
/// to the next — passes its report through and parses its result line.
fn run_child(workload: Workload, args: &Args, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command.args(["--workload", workload.name()]);
    command.args(["--trace", if traced { "1" } else { "0" }]);
    for name in ["--seed", "--seconds"] {
        if let Some(value) = args.value(name) {
            command.args([name, value]);
        }
    }
    if args.flag("--smoke") {
        command.arg("--smoke");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{}: no result line", workload.name()))?;
    println!("{report}");
    let result = json::parse(line).map_err(|e| format!("{}: {e}", workload.name()))?;
    let values = json::get(&result, "metrics")
        .and_then(Content::as_map)
        .ok_or_else(|| format!("{}: result without metrics", workload.name()))?
        .iter()
        .map(|(name, entry)| (name.clone(), Content::F64(json::number(entry, "value"))));
    Ok(ChildRun {
        metrics: obj(values),
        failed: json::number(&result, "failed") as u64,
        noisy: report.lines().any(|l| l.starts_with("  noisy: ")),
    })
}

/// The one command: every workload untraced, then one traced pass each.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let plain = params(args, false)?;
    let repeat: usize = args.number("--repeat")?.unwrap_or(1);
    let mut failed = 0;
    let mut runs = Vec::new();
    for _ in 0..repeat {
        let mut run = Vec::new();
        for workload in Workload::ALL {
            let mut child = run_child(workload, args, false)?;
            if child.noisy {
                println!("  repeating the noisy run once");
                failed += child.failed;
                child = run_child(workload, args, false)?;
            }
            failed += child.failed;
            run.push((workload.name(), child.metrics));
        }
        runs.push(obj(run));
    }
    let mut per_layer = Vec::new();
    for workload in Workload::ALL {
        let child = run_child(workload, args, true)?;
        failed += child.failed;
        per_layer.push((workload.name(), child.metrics));
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let file = obj([
        ("seed", Content::U64(plain.seed)),
        ("seconds", Content::F64(plain.seconds)),
        ("smoke", Content::Bool(args.flag("--smoke"))),
        ("cores", Content::U64(cores as u64)),
        ("runs", Content::Seq(runs)),
        ("per_layer", obj(per_layer)),
    ]);
    let out = args.value("--out").map_or_else(
        || format!("target/results-seed{}.json", plain.seed),
        str::to_string,
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, json::render_pretty(&file)).map_err(|e| format!("{out}: {e}"))?;
    println!("results written to {out}; {failed} failed operations");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare needs two result files".into());
    };
    let load = |path: &String| -> Result<Content, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(if report::compare(&load(a)?, &load(b)?) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("serve") => {
            serve::run(argv.get(1).is_some_and(|s| s == "1"));
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => run_all(&Args(argv[1..].to_vec())),
        Some("compare") => compare(&argv[1..]),
        Some("spec") => {
            print!("{}", report::benchmark_json(RUN_SECONDS as u64));
            Ok(ExitCode::SUCCESS)
        }
        Some("train-models") => match argv.get(1) {
            Some(dir) => prepare::train_models(std::path::Path::new(dir))
                .map(|()| ExitCode::SUCCESS)
                .map_err(|e| e.to_string()),
            None => Err("train-models needs a directory".into()),
        },
        Some(_) if argv.iter().any(|a| a == "--workload") => driver(&Args(argv)),
        _ => {
            println!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("cdl-benchmark: {e}");
        ExitCode::FAILURE
    })
}
