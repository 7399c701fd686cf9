//! Result files and their comparison.
//!
//! A result file holds the runs of one `run` command:
//! `{"seed", "seconds", "smoke", "cores", "runs": [{workload: {metric:
//! value}}], "per_layer": {workload: {metric: value}}}`. `compare` reads two
//! of them as two sets of samples.

use crate::json::{self, obj, Content};
use crate::layers::Metrics;
use crate::spec;
use crate::stats::{median, quartiles};

/// Looks metrics up in the `spec` tables: `(unit, what it should move)`;
/// end-to-end metrics move nothing but themselves.
struct Glossary(Vec<spec::LayerMetric>);

impl Glossary {
    fn new() -> Glossary {
        Glossary(spec::per_layer())
    }

    fn describe(&self, name: &str) -> (&'static str, &str) {
        if let Some(e) = spec::END_TO_END.iter().find(|e| e.0 == name) {
            return (e.1, "");
        }
        self.0
            .iter()
            .find(|l| l.name == name)
            .map_or(("", ""), |l| (l.unit, l.moves.as_str()))
    }
}

/// The last line of a driver-mode run: exactly `correct`, `attempted`,
/// `failed` and `metrics` (each with its value and unit).
pub fn driver_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let glossary = Glossary::new();
    let metrics = obj(metrics.iter().map(|(name, value)| {
        let entry = obj([
            ("value", Content::F64(*value)),
            ("unit", Content::Str(glossary.describe(name).0.to_string())),
        ]);
        (name.clone(), entry)
    }));
    json::render(&obj([
        ("correct", Content::Bool(failed == 0)),
        ("attempted", Content::U64(attempted)),
        ("failed", Content::U64(failed)),
        ("metrics", metrics),
    ]))
}

/// Prints `metrics` by name with value and unit and, for a per-layer
/// metric, the end-to-end metric it should move.
pub fn print_metrics(title: &str, metrics: &Metrics) {
    let glossary = Glossary::new();
    println!("{title}");
    for (name, value) in metrics {
        let (unit, moves) = glossary.describe(name);
        let arrow = if moves.is_empty() { "" } else { "  -> " };
        println!("  {name:<38} {value:>14.4} {unit:<8}{arrow}{moves}");
    }
}

/// `BENCHMARK.json` as `spec` defines it.
pub fn benchmark_json(run_seconds: u64) -> String {
    let text = |s: &str| Content::Str(s.to_string());
    let workloads = spec::WORKLOADS
        .iter()
        .take(spec::DRIVER_WORKLOADS)
        .map(|(name, why)| obj([("name", text(name)), ("why", text(why))]));
    let end_to_end = spec::END_TO_END.iter().map(|(name, unit, better, bound)| {
        obj([
            ("name", text(name)),
            ("unit", text(unit)),
            ("better", text(better)),
            ("bound", Content::F64(*bound)),
        ])
    });
    let per_layer = spec::per_layer().into_iter().map(|l| {
        obj([
            ("name", Content::Str(l.name)),
            ("unit", text(l.unit)),
            ("better", text(l.better)),
        ])
    });
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    json::render_pretty(&obj([
        ("command", Content::Seq(command.map(text).to_vec())),
        ("paths", Content::Seq(vec![text("benchmark")])),
        ("run_seconds", Content::U64(run_seconds)),
        ("workloads", Content::Seq(workloads.collect())),
        ("end_to_end", Content::Seq(end_to_end.collect())),
        ("per_layer", Content::Seq(per_layer.collect())),
    ]))
}

/// The samples of `metric` on `workload` across a file's runs.
fn samples(file: &Content, workload: &str, metric: &str) -> Vec<f64> {
    json::get(file, "runs")
        .and_then(Content::as_seq)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| json::get(json::get(run, workload)?, metric).and_then(json::as_f64))
        .collect()
}

/// `q1 median q3 (n)` of a sample set; the spread needs two samples.
struct Summary {
    median: f64,
    quartiles: Option<(f64, f64)>,
    n: usize,
}

fn summarise(values: &[f64]) -> Option<Summary> {
    Some(Summary {
        median: median(values)?,
        quartiles: quartiles(values).map(|(q1, _, q3)| (q1, q3)),
        n: values.len(),
    })
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        self.quartiles
            .map_or(0.0, |(q1, q3)| (q3 - q1) / self.median.abs().max(1e-12))
    }

    fn show(&self) -> String {
        match self.quartiles {
            Some((q1, q3)) => format!("{:.4} [{q1:.4} {q3:.4}] n={}", self.median, self.n),
            None => format!("{:.4} n={}", self.median, self.n),
        }
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Pass,
    Fail,
    /// The run-to-run spread exceeds the bound, so the comparison cannot
    /// tell a regression from noise.
    Unresolved,
}

/// Judges set `b` against set `a` for one metric: `b`'s median may be worse
/// than `a`'s by at most `bound` (a share of `a`'s median).
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Option<Verdict> {
    let (sa, sb) = (summarise(a)?, summarise(b)?);
    if sa.spread() > bound || sb.spread() > bound {
        return Some(Verdict::Unresolved);
    }
    let worse_by = if higher_is_better {
        sa.median - sb.median
    } else {
        sb.median - sa.median
    };
    Some(if worse_by > bound * sa.median.abs() {
        Verdict::Fail
    } else {
        Verdict::Pass
    })
}

/// `compare <a.json> <b.json>`: per metric × workload both medians with
/// quartiles and sample counts, and the verdict against the recorded bound.
/// Returns whether nothing failed.
pub fn compare(a: &Content, b: &Content) -> bool {
    let mut all_pass = true;
    println!(
        "{:<16} {:<20} {:<38} {:<38} {:>6}  verdict",
        "workload", "metric", "a: median [q1 q3] n", "b: median [q1 q3] n", "bound"
    );
    for (workload, _) in spec::WORKLOADS {
        for (metric, _, better, bound) in spec::END_TO_END {
            let (va, vb) = (samples(a, workload, metric), samples(b, workload, metric));
            let (Some(sa), Some(sb)) = (summarise(&va), summarise(&vb)) else {
                continue;
            };
            let verdict =
                judge(&va, &vb, better == "higher", bound).expect("both sets have samples");
            all_pass &= verdict != Verdict::Fail;
            println!(
                "{workload:<16} {metric:<20} {:<38} {:<38} {bound:>6.2}  {}",
                sa.show(),
                sb.show(),
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Fail => "FAIL",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    all_pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_passes_inside_the_bound_fails_beyond_it() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&a, &[96.0, 97.0, 95.0], true, 0.05),
            Some(Verdict::Pass)
        );
        assert_eq!(
            judge(&a, &[90.0, 91.0, 89.0], true, 0.05),
            Some(Verdict::Fail)
        );
        // lower is better: growing is the regression
        assert_eq!(
            judge(&a, &[110.0, 111.0, 109.0], false, 0.05),
            Some(Verdict::Fail)
        );
        assert_eq!(
            judge(&a, &[90.0, 91.0, 89.0], false, 0.05),
            Some(Verdict::Pass)
        );
        assert_eq!(judge(&a, &[], true, 0.05), None);
    }

    #[test]
    fn judge_reports_unresolved_when_the_spread_exceeds_the_bound() {
        // quartiles of [80, 100, 120] are 80 and 120: spread 0.4 > 0.05
        assert_eq!(
            judge(&[80.0, 100.0, 120.0], &[100.0, 100.0, 100.0], true, 0.05),
            Some(Verdict::Unresolved)
        );
        // a single sample has no spread: it is compared as it is
        assert_eq!(judge(&[100.0], &[99.0], true, 0.05), Some(Verdict::Pass));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(10, 0, &vec![("setup_s".to_string(), 1.25)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1.25,"unit":"s"}}}"#
        );
        assert!(driver_line(10, 1, &Vec::new()).starts_with(r#"{"correct":false"#));
    }

    #[test]
    fn samples_are_read_across_runs() {
        let file =
            json::parse(r#"{"runs":[{"w":{"m":1.5}},{"w":{"m":2.5}},{"other":{"m":9}}]}"#).unwrap();
        assert_eq!(samples(&file, "w", "m"), vec![1.5, 2.5]);
        assert!(samples(&file, "w", "absent").is_empty());
    }
}
