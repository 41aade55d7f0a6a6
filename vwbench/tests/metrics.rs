//! Runs every workload at a tiny size in both trace modes and checks
//! the result line against `BENCHMARK.json`: every metric it names is
//! emitted with its unit, and no op failed.

use std::path::Path;
use std::process::Command;
use vw_sdk::pim_report::json::JsonValue;

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(spec: &JsonValue, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(JsonValue::as_str)
                    .expect(key)
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_vwbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("vwbench runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    JsonValue::parse(last).expect("the result line is JSON")
}

fn check_workload(workload: &str) {
    let spec = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(workload, trace);
        let keys: Vec<&str> = result
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            result.get("correct").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
        assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
        let metrics = result.get("metrics").expect("metrics");
        let declared = declared(&spec, list);
        assert_eq!(metrics.as_object().map(<[_]>::len), Some(declared.len()));
        for (name, unit) in &declared {
            let metric = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
            assert_eq!(
                metric.get("unit").and_then(JsonValue::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            let value = metric.get("value").and_then(JsonValue::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
            if list == "end_to_end" {
                assert!(value > Some(0.0), "{workload}: {name} is {value:?}");
            }
        }
    }
}

#[test]
fn plan_dse_emits_every_metric() {
    check_workload("plan-dse");
}

#[test]
fn sim_batch_emits_every_metric() {
    check_workload("sim-batch");
}

#[test]
fn serve_mixed_emits_every_metric() {
    check_workload("serve-mixed");
}

#[test]
fn every_declared_workload_is_known() {
    let spec = benchmark_json();
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(names, ["plan-dse", "sim-batch", "serve-mixed"]);
}
