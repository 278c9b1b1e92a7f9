//! A tiny-size run of every workload, untraced and traced: each must pass
//! its checks and print every metric `BENCHMARK.json` names for its mode,
//! with that metric's unit.

use rta_model::json::{self, Value};
use std::process::Command;
use std::sync::Mutex;

/// The workloads time themselves and check their own timings, so the
/// tests run them one at a time rather than on parallel test threads.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn catalogue(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|metric| {
            let field = |key| metric.get(key).and_then(Value::as_str).map(String::from);
            (
                field("name").expect("a name"),
                field("unit").expect("a unit"),
            )
        })
        .collect()
}

fn assert_prints_every_metric(workload: &str) {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
            .args(["--trace", trace, "--out-dir", env!("CARGO_TARGET_TMPDIR")])
            .output()
            .expect("the benchmark binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload} --trace {trace} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let result = json::parse(stdout.lines().last().expect("a result line"))
            .expect("the last line is one JSON object");
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        let expected = catalogue(list);
        assert_eq!(metrics.len(), expected.len(), "{workload} --trace {trace}");
        for (name, unit) in expected {
            let metric = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
            assert_eq!(
                metric.get("unit").and_then(Value::as_str),
                Some(unit.as_str())
            );
            assert!(
                matches!(metric.get("value"), Some(Value::UInt(_) | Value::Float(_))),
                "{workload}: {name} has no numeric value"
            );
        }
    }
}

#[test]
fn sweep_m16_prints_every_metric() {
    assert_prints_every_metric("sweep-m16");
}

#[test]
fn validate_m4_prints_every_metric() {
    assert_prints_every_metric("validate-m4");
}

#[test]
fn serve_mix_prints_every_metric() {
    assert_prints_every_metric("serve-mix");
}
