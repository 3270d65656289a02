//! Engine throughput benchmark: stream million-item workloads through
//! the full online rosters and record the trajectory in
//! `BENCH_engine.json`.
//!
//! Unlike the Criterion micro-benches (which time small closed loops),
//! this measures the *engine* end to end the way an integrator runs it:
//! one [`StreamingSession`](dbp_core::StreamingSession) per cell fed
//! arrivals one at a time, timing the whole stream including departure
//! processing, and tracking peak open bins plus a live-memory RSS proxy
//! (sampled every 1024 arrivals). Recipes, the timed pass and the file
//! come from [`dbp_bench::check`], the module `dbp bench --check`
//! re-times cells with; cells fan out across cores via
//! [`dbp_bench::run_grid`].
//!
//! The scalar roster streams Poisson arrivals; the vector roster streams
//! the 3-axis correlated `corr-vec` workload. Each cell records its
//! `dims` (1 for scalar cells). Best Fit also streams two scalar
//! variants of the deep fleet: `@ties` (catalog sizes 1/16, 1/8, 1/4,
//! 1/2, so bins share exact levels; with its linear foil) and `@wide`
//! (rate 40, ~12k open bins).
//!
//! Usage: `cargo run --release -p dbp-bench --bin bench_engine [-- flags]`
//!
//! * `--short`  — ~100k items per workload instead of ~1M (the CI smoke
//!   configuration).
//! * `--serial` — one cell at a time, for minimum-noise timings.
//! * `--out P`  — write the JSON report to `P` (default
//!   `BENCH_engine.json` in the working directory, i.e. the repo root).
//!
//! The JSON is a measurement artifact: regenerate it with a release build
//! from the repo root after engine changes (see `docs/performance.md`).

use dbp_bench::check::{
    host_parallelism, run_cells, BaselineCell, RecordArgs, Recording, Workloads, ENGINE_SCHEMA,
};
use dbp_bench::registry::{ONLINE_ALGOS, VECTOR_ALGOS};

fn main() {
    let args = RecordArgs::from_env(ENGINE_SCHEMA, true);

    // Each roster runs on its default workload. Deep-fleet cells (mean-1000
    // durations, so every algorithm sustains 1000+ open bins; the vector
    // fleet runs one arrival per tick, hundreds of bins) re-run the scalar
    // roster and the vector headline rules, and the foil cells re-run the
    // two headline rules on each deep fleet with the O(fleet) open-bin
    // walk, so the indexed speedup is measured inside the artifact rather
    // than against a stale baseline. Best Fit's level index also meets
    // exact-level ties (with its foil) and a 12k-bin fleet (too wide for a
    // linear walk to finish in reasonable time).
    let headline: &[&str] = &["first-fit", "best-fit"];
    let best: &[&str] = &["best-fit"];
    let best_fleets: &[(&[&str], &str, &str)] = &[
        (best, "ties", "indexed"),
        (best, "ties", "linear"),
        (best, "wide", "indexed"),
    ];
    let mut cells = Vec::new();
    for (dims, roster, deep_roster, extra) in [
        (1, ONLINE_ALGOS, ONLINE_ALGOS, best_fleets),
        (3, VECTOR_ALGOS, headline, &[]),
    ] {
        let variants = [
            (roster, "default", "indexed"),
            (deep_roster, "deep", "indexed"),
            (headline, "deep", "linear"),
        ];
        for &(algos, workload, scan) in variants.iter().chain(extra) {
            cells.extend(algos.iter().map(|algo| BaselineCell {
                workload: Some(workload.into()),
                scan: Some(scan.into()),
                dims,
                ..BaselineCell::new(algo)
            }));
        }
    }
    let workloads = Workloads::build(ENGINE_SCHEMA, args.mode, &cells).expect("engine recipes");
    workloads.announce("engine benchmark", args.mode);

    let workers = if args.serial {
        1
    } else {
        host_parallelism().min(cells.len())
    };
    let rows = run_cells(ENGINE_SCHEMA, &workloads, cells, workers);
    for (cell, run) in &rows {
        // The whole point of a deep cell: the fleet really is deep.
        // (The tie-heavy catalog's items are smaller: ~1,000 bins.)
        let floor = match (cell.workload_key(), cell.dims) {
            ("default", _) => 0,
            ("wide", _) => 10_000,
            ("ties", _) => 900,
            (_, 1) => 1000,
            _ => 300,
        };
        assert!(
            args.mode == "short" || run.peak_open_bins >= floor,
            "{} peaked at only {} open bins",
            cell.label(),
            run.peak_open_bins
        );
    }
    Recording {
        schema: ENGINE_SCHEMA,
        mode: args.mode,
        workloads: &workloads,
        facts: vec![("parallel_workers", workers.to_string())],
        rows,
    }
    .write(&args.out);
}
