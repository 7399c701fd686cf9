//! Runs the built benchmark end to end in its small configuration: every
//! workload untraced and traced, the server as a child process.

use std::process::Command;
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_cdl-benchmark");

#[test]
fn smoke_runs_every_workload_and_the_traced_pass() {
    let out = std::env::temp_dir().join(format!("cdl-benchmark-smoke-{}.json", std::process::id()));
    let began = Instant::now();
    let run = Command::new(EXE)
        .args(["run", "--seed", "3", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark runs");
    let wall = began.elapsed();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(wall < Duration::from_secs(25), "smoke took {wall:?}");
    let results = std::fs::read_to_string(&out).expect("the result file was written");
    std::fs::remove_file(&out).ok();
    for workload in [
        "offline_natural",
        "offline_hard",
        "wire_closed",
        "wire_steady",
        "wire_overload",
    ] {
        assert!(
            stdout.contains(&format!("{workload} (untraced): attempted")),
            "{stdout}"
        );
        assert!(
            stdout.contains(&format!("{workload} (traced): attempted")),
            "{stdout}"
        );
        assert!(results.contains(workload));
    }
    assert!(stdout.contains("0 failed operations"), "{stdout}");
    for metric in [
        "setup_s",
        "items_per_s_2c",
        "p50_ms",
        "server.batch_form_wait_us",
        "tensor.conv_c1_2c_ns_per_img",
    ] {
        assert!(
            results.contains(metric),
            "{metric} missing from the result file"
        );
    }
}

#[test]
fn driver_mode_ends_with_one_json_object() {
    let run = Command::new(EXE)
        .args([
            "--workload",
            "wire_steady",
            "--seed",
            "4",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .output()
        .expect("the benchmark runs");
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with(r#"{"correct":true,"attempted":"#),
        "{last}"
    );
    assert!(
        last.contains(r#""failed":0,"metrics":{"setup_s":{"value":"#),
        "{last}"
    );
    assert!(last.ends_with("}}}"), "{last}");
}

#[test]
fn unknown_workload_is_an_error() {
    let run = Command::new(EXE)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark runs");
    assert!(!run.status.success());
    assert!(String::from_utf8_lossy(&run.stderr).contains("unknown workload nope"));
}
