//! Golden-run regression for the vector stack: the vector roster on a
//! small fixed correlated-workload grid must reproduce
//! `results/golden_vector.json` bit-exactly.
//!
//! The vector sibling of `golden_grid`: every deterministic vector
//! layer feeds the per-cell numbers — the correlated workload
//! generator, per-axis parameter fitting, the vector engine, the
//! indexed fit queries, and the packers themselves. Intentional
//! changes are blessed by regenerating the file:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_vector
//! git diff results/golden_vector.json   # review the drift, then commit
//! ```

use clairvoyant_dbp::core::{VecClairvoyance, VecStreamingSession};
use clairvoyant_dbp::obs::json::{self, Json};
use clairvoyant_dbp::workloads::random::DurationDist;
use clairvoyant_dbp::workloads::vector::{CorrelatedVectorWorkload, VectorWorkload};
use dbp_bench::registry::{vector_packer, AlgoParams, VECTOR_ALGOS};
use std::path::PathBuf;

const N: usize = 80;
const SEEDS: [u64; 3] = [1, 2, 3];
/// One grid per dimensionality: the 2-axis and 4-axis recipes exercise
/// the indexed scan's axis filtering differently.
const DIMS: [usize; 2] = [2, 4];

struct Cell {
    label: String,
    usage: u128,
    bins: u64,
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("golden_vector.json")
}

/// Evaluates the whole grid serially (thread count must never matter
/// for the numbers; the determinism suites prove that separately).
fn evaluate_grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for &dims in &DIMS {
        for &seed in &SEEDS {
            let means = [0.3, 0.2, 0.45, 0.15];
            let inst = CorrelatedVectorWorkload::new(N, &means[..dims], 0.5, 0.6)
                .expect("valid vector workload")
                .with_durations(DurationDist::uniform(1, 40).expect("valid uniform"))
                .with_arrival_span(N as i64)
                .generate_seeded(seed);
            let params = AlgoParams::from_vec_instance(&inst);
            for algo in VECTOR_ALGOS {
                let mode = if matches!(*algo, "cbdt" | "cbd") {
                    VecClairvoyance::Clairvoyant
                } else {
                    VecClairvoyance::NonClairvoyant
                };
                let mut packer = vector_packer(algo, params);
                let run = VecStreamingSession::run(mode, &inst, packer.as_mut())
                    .expect("roster run on a clean instance");
                inst.validate_packing(&run.packing)
                    .expect("roster packing is per-axis feasible");
                cells.push(Cell {
                    label: format!("{algo}/dims{dims}/seed{seed}"),
                    usage: run.usage,
                    bins: run.bins_opened() as u64,
                });
            }
        }
    }
    cells
}

fn render(cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"dbp-tests/golden-vector-v1\",\n");
    out.push_str(&format!(
        "  \"workload\": {{ \"generator\": \"corr-vec\", \"n\": {N}, \"dims\": [2, 4], \
         \"rho\": 0.6, \"seeds\": [1, 2, 3] }},\n"
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"cell\": \"{}\", \"usage\": {}, \"bins\": {} }}{}\n",
            c.label,
            c.usage,
            c.bins,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn num_u128(j: &Json) -> Option<u128> {
    match j {
        Json::Num(s) => s.parse().ok(),
        _ => None,
    }
}

fn parse_golden(text: &str) -> Vec<Cell> {
    let root = json::parse(text).expect("golden_vector.json parses");
    assert_eq!(
        root.get("schema").and_then(Json::as_str),
        Some("dbp-tests/golden-vector-v1"),
        "unknown golden schema"
    );
    let Some(Json::Arr(rows)) = root.get("cells") else {
        panic!("golden_vector.json has no cells array");
    };
    rows.iter()
        .map(|row| Cell {
            label: row
                .get("cell")
                .and_then(Json::as_str)
                .expect("cell label")
                .to_string(),
            usage: row.get("usage").and_then(num_u128).expect("cell usage"),
            bins: row.get("bins").and_then(Json::as_u64).expect("cell bins"),
        })
        .collect()
}

#[test]
fn vector_roster_matches_the_golden_grid() {
    let current = evaluate_grid();
    let path = golden_path();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, render(&current)).expect("write golden file");
        eprintln!("regenerated {} ({} cells)", path.display(), current.len());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(first run? bless it with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    let golden = parse_golden(&text);

    // Diff cell by cell, labelled, and report every drift at once — a
    // roster-wide change should read as one story, not die on cell 1.
    let mut diffs = Vec::new();
    let current_by_label: std::collections::HashMap<&str, &Cell> =
        current.iter().map(|c| (c.label.as_str(), c)).collect();
    for g in &golden {
        match current_by_label.get(g.label.as_str()) {
            None => diffs.push(format!(
                "{}: in golden file but no longer evaluated",
                g.label
            )),
            Some(c) if c.usage != g.usage || c.bins != g.bins => diffs.push(format!(
                "{}: usage {} -> {}, bins {} -> {}",
                g.label, g.usage, c.usage, g.bins, c.bins
            )),
            Some(_) => {}
        }
    }
    let golden_labels: std::collections::HashSet<&str> =
        golden.iter().map(|c| c.label.as_str()).collect();
    for c in &current {
        if !golden_labels.contains(c.label.as_str()) {
            diffs.push(format!("{}: new cell not in golden file", c.label));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} cells drifted from results/golden_vector.json:\n  {}\n\
         If intentional, regenerate with UPDATE_GOLDEN=1 and commit the diff.",
        diffs.len(),
        diffs.join("\n  ")
    );

    // The file itself must be the canonical rendering (catches hand
    // edits and stale formatting, keeping regeneration reviewable).
    assert_eq!(
        text,
        render(&current),
        "golden_vector.json is not canonically rendered; regenerate with UPDATE_GOLDEN=1"
    );
}
