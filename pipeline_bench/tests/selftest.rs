//! Benchmark self-test: `BENCHMARK.json` parses with the repository's own
//! JSON reader, and a smoke-sized run of every workload, untraced and
//! traced, emits exactly the declared metrics with their units, all
//! finite, with no failed operation.
//!
//! Run from the repository root:
//! `cargo test --release --manifest-path pipeline_bench/Cargo.toml`

use std::path::Path;
use std::process::Command;

use mixq_telemetry::json::{self, Json};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to pipeline_bench/");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string field {key} in {v:?}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("missing section {section}"))
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_round_trips() {
    let bench = benchmark_json();
    let keys: Vec<&str> = bench
        .as_object()
        .expect("top-level object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let mut names: Vec<String> = declared(&bench, "end_to_end")
        .into_iter()
        .chain(declared(&bench, "per_layer"))
        .map(|(n, _)| n)
        .collect();
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "metric names are unique");

    let bounds: Vec<(String, f64)> = bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            let b = m.get("bound").and_then(Json::as_f64).expect("bound");
            (str_field(m, "name").to_string(), b)
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| n == "setup_s")
        .expect("setup_s is an end-to-end metric")
        .1;
    for (name, b) in &bounds {
        assert!(
            *b > 0.0 && *b <= 0.25,
            "{name}: bound {b} outside (0, 0.25]"
        );
        assert!(*b <= setup, "{name}: bound {b} above setup_s's {setup}");
    }
}

#[test]
fn smoke_runs_emit_every_declared_metric() {
    let bench = benchmark_json();
    let workloads = bench
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    for w in workloads {
        let name = str_field(w, "name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_mixq-pipeline-bench"))
                .args(["--workload", name, "--seed", "1", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("result line is JSON");
            let ctx = format!("{name} trace {trace}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{ctx}");
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{ctx}"
            );
            let attempted = result.get("attempted").and_then(Json::as_f64);
            assert!(attempted.is_some_and(|a| a >= 1.0), "{ctx}");

            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics object");
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    let value = v.get("value").and_then(Json::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{ctx}: {k} = {v:?}");
                    (k.clone(), str_field(v, "unit").to_string())
                })
                .collect();
            let mut want = declared(&bench, section);
            want.sort();
            got.sort();
            assert_eq!(got, want, "{ctx}: emitted metrics differ from {section}");
            if trace == "1" {
                let error_rate = metrics
                    .iter()
                    .find(|(k, _)| k == "error_rate")
                    .and_then(|(_, v)| v.get("value"))
                    .and_then(Json::as_f64);
                assert_eq!(error_rate, Some(0.0), "{ctx}: error_rate");
            }
        }
    }
}
