//! Engine throughput benchmark: stream million-item workloads through
//! the full online rosters and record the trajectory in
//! `BENCH_engine.json`.
//!
//! Unlike the Criterion micro-benches (which time small closed loops),
//! this measures the *engine* end to end the way an integrator runs it:
//! one [`StreamingSession`](dbp_core::StreamingSession) per cell fed
//! arrivals one at a time, timing the whole stream including departure
//! processing, and tracking peak open bins plus a live-memory RSS proxy
//! (sampled every 1024 arrivals). Every cell streams through
//! [`BenchInstance::run_cell`], the loop `dbp bench --check` re-times
//! it with. Cells fan out across cores via [`dbp_bench::run_grid`].
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
    scalar_workload, vector_baseline_instance, BaselineCell, BenchInstance, ENGINE_SCHEMA, SEED,
};
use dbp_bench::registry::{ONLINE_ALGOS, VECTOR_ALGOS};
use dbp_bench::report::Table;
use dbp_bench::{run_grid, GridCell};
use dbp_workloads::Workload;

fn usage_exit() -> ! {
    eprintln!("usage: bench_engine [--short] [--serial] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let mut short = false;
    let mut serial = false;
    let mut out_path = String::from("BENCH_engine.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--short" => short = true,
            "--serial" => serial = true,
            "--out" => out_path = args.next().unwrap_or_else(|| usage_exit()),
            _ => usage_exit(),
        }
    }
    let mode = if short { "short" } else { "full" };

    // Poisson arrivals at 4 items/tick: the horizon sets the expected
    // item count. The full horizon targets comfortably over one million
    // items (40σ above the line for this rate), per the perf trajectory's
    // acceptance floor. The deep-fleet variant keeps the arrivals but
    // holds items for mean-1000 exponential durations, so every algorithm
    // sustains a fleet of 1000+ open bins: the cell that catches
    // scan-depth cliffs, where a linear open-bin walk collapses while the
    // indexed fit queries stay flat.
    let workload = scalar_workload(ENGINE_SCHEMA, mode, "default").expect("default workload");
    let deep_workload = scalar_workload(ENGINE_SCHEMA, mode, "deep").expect("deep workload");
    // The blanket `VectorWorkload` impl gives every scalar workload a
    // second `generate_seeded`.
    let inst = BenchInstance::Scalar(Workload::generate_seeded(&workload, SEED));
    let deep_inst = BenchInstance::Scalar(Workload::generate_seeded(&deep_workload, SEED));
    let ties_workload = scalar_workload(ENGINE_SCHEMA, mode, "ties").expect("ties workload");
    let ties_inst = BenchInstance::Scalar(Workload::generate_seeded(&ties_workload, SEED));
    let wide_workload = scalar_workload(ENGINE_SCHEMA, mode, "wide").expect("wide workload");
    let wide_inst = BenchInstance::Scalar(Workload::generate_seeded(&wide_workload, SEED));
    // The vector deep fleet runs one arrival per tick, so hundreds of
    // bins stay open and a linear walk pays for every one of them.
    let vec_inst = BenchInstance::Vector(
        vector_baseline_instance(mode, "default").expect("default vector workload"),
    );
    let vec_deep_inst = BenchInstance::Vector(
        vector_baseline_instance(mode, "deep").expect("deep vector workload"),
    );
    println!(
        "engine benchmark ({mode}): {} items from {} seed {SEED}\n  deep-fleet cells: {} items from {}\n  \
         tie-heavy cells: {} items; wide-fleet cells: {} items from {}\n  \
         vector cells: {} items, {} axes; deep-fleet vector cells: {} items\n",
        inst.item_count(),
        workload.name(),
        deep_inst.item_count(),
        deep_workload.name(),
        ties_inst.item_count(),
        wide_inst.item_count(),
        wide_workload.name(),
        vec_inst.item_count(),
        vec_inst.dims(),
        vec_deep_inst.item_count(),
    );
    if !short {
        assert!(
            inst.item_count() >= 1_000_000 && vec_inst.item_count() >= 1_000_000,
            "full mode must stream at least one million items"
        );
    }

    // Each roster runs on its default workload; deep-fleet cells re-run
    // the scalar roster and the vector headline rules, and the foil cells
    // re-run the two headline rules on each deep fleet with the O(fleet)
    // open-bin walk, so the indexed speedup is measured inside the
    // artifact rather than against a stale baseline. Best Fit's level
    // index also meets exact-level ties (with its foil) and a 12k-bin
    // fleet (too wide for a linear walk to finish in reasonable time).
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
        (vec_inst.dims(), VECTOR_ALGOS, headline, &[]),
    ] {
        let variants = [
            (roster, "default", "indexed"),
            (deep_roster, "deep", "indexed"),
            (headline, "deep", "linear"),
        ];
        for &(algos, workload, scan) in variants.iter().chain(extra) {
            cells.extend(algos.iter().map(|algo| {
                let cell = BaselineCell {
                    algo: algo.to_string(),
                    shards: 1,
                    workers: 1,
                    telemetry: None,
                    workload: Some(workload.into()),
                    scan: Some(scan.into()),
                    dims,
                    items_per_sec: 0.0,
                };
                GridCell {
                    label: cell.label(),
                    input: cell,
                }
            }));
        }
    }
    let n_cells = cells.len();
    let workers = if serial {
        1
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n_cells)
    };
    let results = run_grid(cells, Some(workers), |cell: &BaselineCell| {
        let inst = match (cell.workload_key(), cell.dims) {
            ("default", 1) => &inst,
            ("deep", 1) => &deep_inst,
            ("ties", 1) => &ties_inst,
            ("wide", 1) => &wide_inst,
            ("default", _) => &vec_inst,
            _ => &vec_deep_inst,
        };
        let run = inst
            .run_cell(&cell.algo, cell.linear_scan())
            .expect("benchmark stream is valid");
        // The whole point of a deep cell: the fleet really is deep.
        // (The tie-heavy catalog's items are smaller: ~1,000 bins.)
        let floor = match (cell.workload_key(), cell.dims) {
            ("wide", _) => 10_000,
            ("ties", _) => 900,
            (_, 1) => 1000,
            _ => 300,
        };
        if cell.workload_key() != "default" && !short {
            assert!(
                run.peak_open_bins >= floor,
                "{} peaked at only {} open bins",
                cell.label(),
                run.peak_open_bins
            );
        }
        (cell.clone(), inst.item_count(), run)
    });

    let mut table = Table::new(&[
        "cell",
        "items/s",
        "elapsed_s",
        "peak_open",
        "peak_live_KiB",
        "bins",
        "usage",
    ]);
    for r in &results {
        let (_, items, o) = &r.output;
        table.row(&[
            r.label.clone(),
            format!("{:.0}", *items as f64 / o.elapsed_s),
            format!("{:.3}", o.elapsed_s),
            o.peak_open_bins.to_string(),
            format!("{}", o.peak_live_bytes / 1024),
            o.bins_opened.to_string(),
            o.usage.to_string(),
        ]);
    }
    table.print();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"schema\": \"{ENGINE_SCHEMA}\",\n"));
    json.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    json.push_str(&format!(
        "  \"workload\": {{ \"generator\": \"{}\", \"seed\": {SEED}, \"items\": {} }},\n",
        workload.name(),
        inst.item_count()
    ));
    json.push_str(&format!(
        "  \"deep_workload\": {{ \"generator\": \"{}\", \"seed\": {SEED}, \"items\": {} }},\n",
        deep_workload.name(),
        deep_inst.item_count()
    ));
    json.push_str(&format!(
        "  \"ties_workload\": {{ \"generator\": \"{}\", \"sizes\": \"1/16,1/8,1/4,1/2\", \"seed\": {SEED}, \"items\": {} }},\n",
        ties_workload.name(),
        ties_inst.item_count()
    ));
    json.push_str(&format!(
        "  \"wide_workload\": {{ \"generator\": \"{}\", \"seed\": {SEED}, \"items\": {} }},\n",
        wide_workload.name(),
        wide_inst.item_count()
    ));
    json.push_str(&format!(
        "  \"vector_workload\": {{ \"generator\": \"corr-vec\", \"dims\": {}, \"seed\": {SEED}, \"items\": {} }},\n",
        vec_inst.dims(),
        vec_inst.item_count()
    ));
    json.push_str(&format!(
        "  \"vector_deep_workload\": {{ \"generator\": \"corr-vec/deep\", \"dims\": {}, \"seed\": {SEED}, \"items\": {} }},\n",
        vec_deep_inst.dims(),
        vec_deep_inst.item_count()
    ));
    json.push_str(&format!("  \"parallel_workers\": {workers},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let (cell, items, o) = &r.output;
        json.push_str(&format!(
            "    {{ \"algo\": \"{}\", \"workload\": \"{}\", \"scan\": \"{}\", \"dims\": {}, \
             \"items\": {items}, \"elapsed_s\": {:.6}, \
             \"items_per_sec\": {:.0}, \"peak_open_bins\": {}, \
             \"peak_live_bytes\": {}, \"bins_opened\": {}, \"usage\": {} }}{}\n",
            cell.algo,
            cell.workload_key(),
            if cell.linear_scan() {
                "linear"
            } else {
                "indexed"
            },
            cell.dims,
            o.elapsed_s,
            *items as f64 / o.elapsed_s,
            o.peak_open_bins,
            o.peak_live_bytes,
            o.bins_opened,
            o.usage,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("\nwrote {out_path}");
    println!("OK");
}
