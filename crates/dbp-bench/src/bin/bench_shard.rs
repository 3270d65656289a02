//! Sharded-streaming throughput benchmark: stream a million-item deep
//! Poisson workload through `ShardedSession` fleets of 1, 2, 4, and 8
//! shards and record the trajectory in `BENCH_shard.json`.
//!
//! The workload (the shard recipe of [`dbp_bench::check::scalar_workload`])
//! is chosen so placement cost is dominated by open-bin scans: long
//! exponential durations keep a deep fleet of hundreds of open bins.
//! Sharding then wins even on one core: each shard's scan covers only
//! its own K-times-smaller fleet. Every cell is one timed pass of
//! [`dbp_bench::check::run_cell`], the runner `dbp bench --check`
//! re-times it with. `host_parallelism` is recorded, and when a fleet
//! asks for more worker threads than the host has cores the run warns on
//! stderr and tags the JSON `"degraded_parallelism": true`, so
//! single-core results are never mistaken for parallel speedup.
//!
//! Usage: `cargo run --release -p dbp-bench --bin bench_shard [-- flags]`
//!
//! * `--short`  — ~100k items instead of ~1M (the CI smoke configuration).
//! * `--serial` — one worker thread per fleet regardless of shard count.
//! * `--out P`  — write the JSON report to `P` (default
//!   `BENCH_shard.json` in the working directory, i.e. the repo root).
//!
//! The JSON is a measurement artifact: regenerate it with a release
//! build from the repo root after engine or shard changes (see
//! `docs/performance.md`).

use dbp_bench::check::{
    host_parallelism, per_algo, run_cells, BaselineCell, RecordArgs, Recording, Workloads,
    SHARD_SCHEMA,
};

/// Scan-heavy subset of the roster: best-fit is the pure O(fleet) scan,
/// first-fit the early-exit scan, cbdt the per-class scan.
const ALGOS: &[&str] = &["best-fit", "first-fit", "cbdt"];
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];

fn main() {
    let args = RecordArgs::from_env(SHARD_SCHEMA, true);
    let cells: Vec<BaselineCell> = ALGOS
        .iter()
        .flat_map(|algo| {
            SHARD_COUNTS.iter().map(|&shards| BaselineCell {
                shards,
                workers: if args.serial { 1 } else { shards },
                ..BaselineCell::new(algo)
            })
        })
        .collect();
    let workloads = Workloads::build(SHARD_SCHEMA, args.mode, &cells).expect("shard recipe");
    workloads.announce("shard benchmark", args.mode);

    // Provenance guard: if any fleet asks for more workers than the host
    // has cores, the threads time-slice one core and the speedup column
    // measures scan-depth division, not parallelism. Say so loudly and
    // tag the JSON so downstream readers can't mistake the numbers.
    let max_workers = cells.iter().map(|c| c.workers).max().unwrap_or(1);
    let host = host_parallelism();
    let degraded_parallelism = max_workers > host;
    if degraded_parallelism {
        eprintln!(
            "WARNING: up to {max_workers} worker threads on a \
             {host}-core host — worker threads exceed cores, so \
             multi-shard rows measure scan-depth division, NOT parallel \
             speedup. The JSON report is tagged \"degraded_parallelism\": true.\n"
        );
    }

    // One fleet at a time: each spawns its own workers.
    let mut recording = Recording {
        schema: SHARD_SCHEMA,
        mode: args.mode,
        workloads: &workloads,
        facts: Vec::new(),
        rows: run_cells(SHARD_SCHEMA, &workloads, cells, 1),
    };
    // Throughput of the 8-shard fleet relative to the 1-shard baseline,
    // per algorithm (the trajectory's acceptance metric).
    let speedup_8v1 = |algo: &str| {
        let at = |k: usize| {
            recording
                .find(|c| c.algo == algo && c.shards == k)
                .map_or(f64::NAN, |r| r.items_per_sec())
        };
        at(8) / at(1)
    };
    for algo in ALGOS {
        println!(
            "{algo}: 8-shard speedup over 1-shard = {:.2}x",
            speedup_8v1(algo)
        );
    }
    println!();
    recording.facts = vec![
        ("degraded_parallelism", degraded_parallelism.to_string()),
        ("speedup_8v1", per_algo(ALGOS, 3, speedup_8v1)),
    ];
    recording.write(&args.out);
}
