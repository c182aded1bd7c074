//! The benchmark's own test: every workload runs in smoke mode, untraced
//! and traced. Each run must print every metric `BENCHMARK.json` names,
//! with its unit, as the last line of its output, and run every output
//! check of its workload without a failure.

use serde_json::Value;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper-testbed", "fleet-800", "arrival-chaos"];

/// The output checks each workload must run on every op.
fn expected_checks(workload: &str) -> &'static [&'static str] {
    match workload {
        "paper-testbed" => &[
            "DEEP placements reproduce Table III",
            "DEEP energy <= exclusive Hub and regional",
            "repair covers every microservice",
            "finite positive Td and energy",
        ],
        "fleet-800" => &[
            "schedule passes the sampled equilibrium check",
            "repair covers every microservice",
            "finite positive Td and energy",
        ],
        "arrival-chaos" => &[
            "every arrival is admitted and executed",
            "jobs complete FIFO",
            "admitted >= arrived",
            "finite positive Td and energy",
        ],
        other => panic!("unknown workload {other}"),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one BENCHMARK.json list.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    let Value::Seq(items) = bench.field(list).expect("metric list present") else {
        panic!("{list} is a list");
    };
    items
        .iter()
        .map(|m| {
            let name = m.field("name").and_then(Value::as_str).expect("metric name");
            let unit = m.field("unit").and_then(Value::as_str).expect("metric unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_deep-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--smoke"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("non-empty output").to_string();
    let result = serde_json::from_str(&last).expect("last line is one JSON object");
    (stdout, result)
}

#[test]
fn every_workload_prints_every_metric_and_runs_every_check() {
    let bench = benchmark_json();
    let names: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    let Value::Seq(declared_workloads) = bench.field("workloads").unwrap() else { panic!() };
    let declared_names: Vec<String> = declared_workloads
        .iter()
        .map(|w| w.field("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(declared_names, names, "BENCHMARK.json names the workloads this binary runs");

    for workload in WORKLOADS {
        for (trace, list) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let (stdout, result) = run(workload, trace);
            assert!(result.field("correct").unwrap().as_bool().unwrap(), "{stdout}");
            let attempted = result.field("attempted").unwrap().as_u64().unwrap();
            let failed = result.field("failed").unwrap().as_u64().unwrap();
            assert!(attempted >= 1 && failed <= attempted, "{stdout}");
            let Value::Map(metrics) = result.field("metrics").unwrap() else { panic!() };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.field("value").unwrap().as_f64().unwrap();
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                    (name.clone(), m.field("unit").unwrap().as_str().unwrap().to_string())
                })
                .collect();
            assert_eq!(printed, declared(&bench, list), "{workload} trace {trace}");
            for check in expected_checks(workload) {
                assert!(
                    stdout.lines().any(|l| l.starts_with("check ok") && l.ends_with(check)),
                    "{workload}: check `{check}` did not run or failed:\n{stdout}"
                );
            }
            assert!(!stdout.contains("check FAILED"), "{stdout}");
            assert_eq!(failed, 0, "{stdout}");
            if workload == "arrival-chaos" {
                // The delete-tag defect is replayed and reported on its
                // own line, outside the op count.
                assert!(
                    stdout.lines().any(|l| l.starts_with("known_defect delete-tag: ")),
                    "delete-tag replays are reported:\n{stdout}"
                );
            }
        }
    }
}
