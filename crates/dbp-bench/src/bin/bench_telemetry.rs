//! Telemetry-overhead benchmark: stream a million-item Poisson workload
//! through each algorithm twice — bare session vs. session with a
//! sampled [`TelemetryRecorder`](dbp_telemetry::TelemetryRecorder)
//! attached — and record the throughput delta in `BENCH_telemetry.json`.
//!
//! With the default recorder, work histograms stride deterministically
//! (1-in-16 placements/closes) and the `Instant::now()` reads that
//! dominate observation cost are paid on one arrival in 64. The
//! committed file's overhead is stated in `docs/performance.md`; no gate
//! checks the ratio. The emitted file doubles as the perf-gate baseline
//! for `dbp bench --check BENCH_telemetry.json`, and every cell is timed
//! by [`dbp_bench::check::run_cell`], the runner the gate re-times it
//! with.
//!
//! Usage: `cargo run --release -p dbp-bench --bin bench_telemetry [-- flags]`
//!
//! * `--short` — ~100k items instead of ~1M (the CI smoke configuration).
//! * `--out P` — write the JSON report to `P` (default
//!   `BENCH_telemetry.json` in the working directory, i.e. the repo root).
//!
//! Cells run serially, interleaving off/on per algorithm so each pair
//! shares its thermal and cache environment, and every cell is run
//! best-of-15 (minimum elapsed wins) after one unmeasured warmup round,
//! to shed scheduler noise — single-CPU CI runners and containers see
//! ±10% swings on individual cells, and only the paired minima
//! converge. The JSON is a measurement artifact: regenerate it with a
//! release build from the repo root after engine or telemetry changes
//! (see `docs/performance.md`).

use dbp_bench::check::{
    per_algo, run_cell, BaselineCell, CellRun, RecordArgs, Recording, Workloads, TELEMETRY_SCHEMA,
};

/// The scan-cost spectrum: first-fit is the cheapest per-arrival loop
/// (where observer overhead shows up most), best-fit the heaviest scan,
/// cbdt the paper's flagship.
const ALGOS: &[&str] = &["first-fit", "best-fit", "cbdt"];
/// Measured rounds per algorithm, after one warm-up round.
const ROUNDS: usize = 15;

fn main() {
    let args = RecordArgs::from_env(TELEMETRY_SCHEMA, false);
    let cells: Vec<BaselineCell> = ALGOS
        .iter()
        .flat_map(|algo| {
            ["off", "sampled"].map(|t| BaselineCell {
                telemetry: Some(t.into()),
                ..BaselineCell::new(algo)
            })
        })
        .collect();
    let workloads = Workloads::build(TELEMETRY_SCHEMA, args.mode, &cells).expect("default recipe");
    workloads.announce("telemetry benchmark", args.mode);

    // Best-of-N with off/sampled alternating within each round: keep the
    // round with the smallest elapsed time per cell. Minimum (not mean)
    // is the right folding for throughput — noise from the scheduler and
    // frequency scaling only ever adds time. Round 0 is an unmeasured
    // warmup (cold caches and page-ins would otherwise penalise whichever
    // cell runs first).
    let mut rows = Vec::new();
    for pair in cells.chunks(2) {
        let mut best: [Option<CellRun>; 2] = [None, None];
        for round in 0..=ROUNDS {
            for (cell, best) in pair.iter().zip(&mut best) {
                let run = run_cell(TELEMETRY_SCHEMA, workloads.instance(cell), cell)
                    .expect("benchmark stream is valid");
                if round > 0 && best.is_none_or(|b| run.elapsed_s < b.elapsed_s) {
                    *best = Some(run);
                }
            }
        }
        let [off, sampled] = best.map(|b| b.expect("at least one round ran"));
        // The observed stream must be the same stream: identical packings.
        assert_eq!(
            (off.bins_opened, off.usage),
            (sampled.bins_opened, sampled.usage),
            "{}: telemetry changed the packing",
            pair[0].algo
        );
        rows.extend(pair.iter().cloned().zip([off, sampled]));
    }

    let mut recording = Recording {
        schema: TELEMETRY_SCHEMA,
        mode: args.mode,
        workloads: &workloads,
        facts: Vec::new(),
        rows,
    };
    // Overhead of the sampled recorder relative to the bare session, per
    // algorithm.
    let overhead_pct = |algo: &str| {
        let at = |t: &str| {
            recording
                .find(|c| c.algo == algo && c.telemetry.as_deref() == Some(t))
                .map_or(f64::NAN, |r| r.items_per_sec())
        };
        (at("off") - at("sampled")) / at("off") * 100.0
    };
    for algo in ALGOS {
        println!(
            "{algo}: sampled-telemetry overhead = {:.2}%",
            overhead_pct(algo)
        );
    }
    println!();
    recording.facts = vec![("overhead_pct", per_algo(ALGOS, 2, overhead_pct))];
    recording.write(&args.out);
}
