//! The `--quick` smoke: every workload at 256 devices with sub-second
//! windows, untraced and traced, must pass the oracle with zero failures
//! and print every metric `BENCHMARK.json` lists.

use std::process::{Command, Output};

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");
const WORKLOADS: [&str; 4] = [
    "verify_fresh",
    "verify_replay",
    "enroll_churn",
    "intake_scan",
];

/// Metric names listed in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<&'static str> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("name closes")])
        .collect()
}

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_divot_benchmark"))
        .args(args)
        .env_remove("DIVOT_THREADS")
        .env_remove("DIVOT_SERIAL")
        .output()
        .expect("run divot_benchmark")
}

fn assert_passes_and_prints(out: &Output, metrics: &[&str]) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    for w in WORKLOADS {
        for m in metrics {
            assert!(
                stdout.contains(&format!("\n{w}.{m} = ")),
                "{w}.{m} missing:\n{stdout}"
            );
        }
        assert!(
            stdout.contains(&format!("\n{w}.failed_frac = 0 fraction")),
            "{w} failed ops:\n{stdout}\n{stderr}"
        );
    }
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with('{') && last.contains("\"correct\": true"),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
}

#[test]
fn quick_run_of_every_workload_is_correct_and_prints_every_end_to_end_metric() {
    let out = benchmark(&["--quick", "--seconds", "1"]);
    assert_passes_and_prints(&out, &listed("end_to_end"));
}

#[test]
fn quick_traced_run_prints_every_per_layer_metric_and_writes_spans() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-spans");
    let out = benchmark(&[
        "--quick",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--spans",
        dir.to_str().expect("utf-8 path"),
    ]);
    assert_passes_and_prints(&out, &listed("per_layer"));
    for w in WORKLOADS {
        let spans = std::fs::read_to_string(dir.join(format!("divot-spans-{w}.jsonl")))
            .expect("span file written");
        assert!(spans.lines().count() > 100, "{w}: too few spans");
        assert!(spans
            .lines()
            .all(|l| l.contains("\"parent\": ") && l.contains("\"end_ns\": ")));
    }
}

#[test]
fn refuses_to_run_with_thread_or_serial_overrides() {
    let out = Command::new(env!("CARGO_BIN_EXE_divot_benchmark"))
        .args(["--workload", "verify_fresh", "--quick"])
        .env("DIVOT_THREADS", "1")
        .output()
        .expect("run divot_benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
    let out = benchmark(&["--workload", "verify_fresh", "--quick", "--serial"]);
    assert_eq!(out.status.code(), Some(2));
}
