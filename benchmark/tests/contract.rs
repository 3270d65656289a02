//! The benchmark's own rules: `BENCHMARK.json` is well formed,
//! and a smoke run of every workload prints every metric it lists, each
//! with its unit, and passes its own output checks.

use dbp_obs::json::{parse, Json};
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?} in {v:?}"))
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn metrics(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{list} is an array"))
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn benchmark_json_is_well_formed() {
    let doc = benchmark_json();
    let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let mut names: Vec<String> = workloads
        .iter()
        .map(|w| str_of(w, "name").to_string())
        .collect();
    for w in workloads {
        let why = str_of(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    let e2e = metrics(&doc, "end_to_end");
    let layers = metrics(&doc, "per_layer");
    assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
    names.extend(e2e.iter().chain(&layers).map(|(n, _)| n.clone()));
    for n in &names {
        assert!(is_name(n), "bad name {n:?}");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");
    for (_, unit) in e2e.iter().chain(&layers) {
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?}"
        );
    }
    for m in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
        assert!(matches!(str_of(m, "better"), "lower" | "higher"));
    }
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
}

/// Runs the benchmark in smoke mode and returns its JSON result lines,
/// one per workload.
fn smoke(mode: &str) -> Vec<Json> {
    let out = Command::new(env!("CARGO_BIN_EXE_dbp-benchmark"))
        .args([mode, "--smoke", "--seed", "3"])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{mode} --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| parse(l).expect("result lines parse"))
        .collect()
}

fn assert_reports(results: &[Json], expected: &[(String, String)], workloads: usize) {
    assert_eq!(results.len(), workloads, "one result line per workload");
    for r in results {
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
        assert!(r.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0));
        let m = r.get("metrics").unwrap();
        let Json::Obj(pairs) = m else {
            panic!("metrics is an object")
        };
        assert_eq!(pairs.len(), expected.len(), "exactly the listed metrics");
        for (name, unit) in expected {
            let entry = m.get(name).unwrap_or_else(|| panic!("{name} not printed"));
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(unit.as_str())
            );
            assert!(
                entry.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no numeric value"
            );
        }
    }
}

#[test]
fn smoke_runs_print_every_metric_with_its_unit() {
    let doc = benchmark_json();
    let workloads = doc.get("workloads").and_then(Json::as_array).unwrap().len();
    assert_reports(&smoke("run"), &metrics(&doc, "end_to_end"), workloads);
    assert_reports(&smoke("trace"), &metrics(&doc, "per_layer"), workloads);
}
