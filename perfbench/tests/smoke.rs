//! Smoke test of the benchmark itself at `Tiny` scale: every run passes its
//! checks, prints every declared metric with its declared unit (and sample
//! counts next to timings), and two runs of one seed agree exactly on
//! quality metrics, op counts and eviction/resume counts.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use adp_serve::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["census-step", "imdb-batch", "served-churn"];

/// Metrics that must repeat exactly between two runs of one seed.
const DETERMINISTIC: &[&str] = &[
    "test_accuracy",
    "label_accuracy",
    "label_coverage",
    "ok_ops_share",
    "sampling.calls",
    "querying.calls",
    "querying.lf_yield",
    "labelpick.calls",
    "labelpick.lfs_mean",
    "labelpick.selected_mean",
    "wal.appends",
    "wal.bytes",
    "tier.evictions",
    "tier.resumes",
    "tier.hit_ratio",
];

struct Run {
    /// The final JSON line.
    result: Json,
    /// Every `# metric` line: name → (value, unit, sample count).
    metrics: BTreeMap<String, (String, String, Option<String>)>,
    /// Every `# phase` line.
    phases: Vec<String>,
}

fn run(workload: &str, trace: &str) -> Run {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_adp-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--scale", "tiny", "--scratch"])
        .arg(&scratch)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    let mut metrics = BTreeMap::new();
    let mut phases = vec![];
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("# metric ") {
            // name = value unit [(n=N)]
            let (name, rest) = rest.split_once(" = ").expect("name = value");
            let mut parts = rest.split(' ');
            let value = parts.next().expect("value").to_string();
            let unit = parts
                .next()
                .expect("every metric prints its unit")
                .to_string();
            let samples = parts.next().map(str::to_string);
            metrics.insert(name.to_string(), (value, unit, samples));
        } else if line.starts_with("# phase ") {
            phases.push(line.to_string());
        }
    }
    Run {
        result,
        metrics,
        phases,
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn result_metrics(run: &Run) -> Vec<(String, String)> {
    let Some(Json::Obj(fields)) = run.result.get("metrics") else {
        panic!("result has a metrics object");
    };
    fields
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_and_repeats_exactly() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let timed = run(workload, "0");
        let traced = run(workload, "1");
        let again = run(workload, "1");
        for r in [&timed, &traced, &again] {
            assert_eq!(
                r.result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}"
            );
            assert!(r.result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            assert_eq!(r.result.get("failed").and_then(Json::as_u64), Some(0));
            assert_eq!(r.phases.len(), 3, "setup, loop and evaluate phases");
        }
        assert_eq!(result_metrics(&timed), end_to_end, "{workload} --trace 0");
        assert_eq!(result_metrics(&traced), per_layer, "{workload} --trace 1");
        for (name, unit) in end_to_end.iter().chain(&per_layer) {
            let (_, printed_unit, samples) = &traced.metrics[name];
            assert_eq!(printed_unit, unit, "{workload} {name}");
            if unit == "s" || unit == "ms" {
                let real = traced.metrics[name].0 != "0";
                assert!(!real || samples.is_some(), "{workload} {name} without n");
            }
        }
        for name in DETERMINISTIC {
            assert_eq!(
                traced.metrics[*name].0, again.metrics[*name].0,
                "{workload} {name} differs between same-seed runs"
            );
        }
        assert_eq!(traced.phases, again.phases, "{workload} op counts");
    }
}
