//! Telemetry-overhead benchmark: stream a million-item Poisson workload
//! through each algorithm twice — bare session vs. session with a
//! sampled [`TelemetryRecorder`] attached — and record the throughput
//! delta in `BENCH_telemetry.json`.
//!
//! With the default recorder, work histograms stride deterministically
//! (1-in-16 placements/closes) and the `Instant::now()` reads that
//! dominate observation cost are paid on one arrival in 64. Two full
//! runs on a 2-vCPU host (cells run serially) measured 5.2–5.4%
//! overhead for first-fit, 4.5–5.0% for best-fit and 6.9–7.5% for
//! cbdt; no gate checks the ratio. The emitted file
//! doubles as the perf-gate baseline for
//! `dbp bench --check BENCH_telemetry.json`.
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

use dbp_bench::registry::{online_packer, AlgoParams};
use dbp_bench::report::Table;
use dbp_core::stream::StreamingSession;
use dbp_core::ClairvoyanceMode;
use dbp_telemetry::TelemetryRecorder;
use dbp_workloads::random::PoissonWorkload;
use dbp_workloads::Workload;
use std::time::Instant;

const SEED: u64 = 1;
/// The scan-cost spectrum: first-fit is the cheapest per-arrival loop
/// (where observer overhead shows up most), best-fit the heaviest scan,
/// cbdt the paper's flagship.
const ALGOS: &[&str] = &["first-fit", "best-fit", "cbdt"];

struct CellReport {
    algo: String,
    telemetry: &'static str,
    items: usize,
    elapsed_s: f64,
    items_per_sec: f64,
    bins_opened: usize,
    usage: u128,
}

fn usage_exit() -> ! {
    eprintln!("usage: bench_telemetry [--short] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let mut short = false;
    let mut out_path = String::from("BENCH_telemetry.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--short" => short = true,
            "--out" => out_path = args.next().unwrap_or_else(|| usage_exit()),
            _ => usage_exit(),
        }
    }

    let horizon = if short { 26_000 } else { 260_000 };
    let workload = PoissonWorkload::new(4.0, horizon);
    let inst = workload.generate_seeded(SEED);
    let params = AlgoParams::from_instance(&inst);
    let mode = if short { "short" } else { "full" };
    let host_parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "telemetry benchmark ({mode}): {} items from {} seed {SEED}, host parallelism {host_parallelism}\n",
        inst.len(),
        workload.name(),
    );
    if !short {
        assert!(
            inst.len() >= 1_000_000,
            "full mode must stream at least one million items"
        );
    }

    const ROUNDS: usize = 15;
    let mut results: Vec<CellReport> = Vec::new();
    for algo in ALGOS {
        // Best-of-N with off/sampled alternating within each round: keep
        // the round with the smallest elapsed time per variant. Minimum
        // (not mean) is the right folding for throughput — noise from
        // the scheduler and frequency scaling only ever adds time.
        // Round 0 is an unmeasured warmup (cold caches and page-ins
        // would otherwise penalise whichever cell runs first).
        let mut best_off: Option<CellReport> = None;
        let mut best_sampled: Option<CellReport> = None;
        for round in 0..=ROUNDS {
            for telemetry in ["off", "sampled"] {
                let mut packer = online_packer(algo, params);
                let (elapsed_s, totals) = if telemetry == "off" {
                    let mut session =
                        StreamingSession::new(ClairvoyanceMode::Clairvoyant, packer.as_mut());
                    let started = Instant::now();
                    for item in inst.items() {
                        session.arrive(item).expect("benchmark stream is valid");
                    }
                    let totals = session.finish().expect("stream drains cleanly");
                    (started.elapsed().as_secs_f64(), totals)
                } else {
                    let mut session = StreamingSession::with_observer(
                        ClairvoyanceMode::Clairvoyant,
                        packer.as_mut(),
                        TelemetryRecorder::new(),
                    );
                    let started = Instant::now();
                    for item in inst.items() {
                        session.arrive(item).expect("benchmark stream is valid");
                    }
                    let totals = session.finish().expect("stream drains cleanly");
                    (started.elapsed().as_secs_f64(), totals)
                };
                let cell = CellReport {
                    algo: (*algo).to_string(),
                    telemetry,
                    items: inst.len(),
                    elapsed_s,
                    items_per_sec: inst.len() as f64 / elapsed_s,
                    bins_opened: totals.bins_opened,
                    usage: totals.usage,
                };
                if round == 0 {
                    continue; // warmup round: run, but don't score
                }
                let best = if telemetry == "off" {
                    &mut best_off
                } else {
                    &mut best_sampled
                };
                if best.as_ref().is_none_or(|b| cell.elapsed_s < b.elapsed_s) {
                    *best = Some(cell);
                }
            }
        }
        results.push(best_off.expect("at least one round ran"));
        results.push(best_sampled.expect("at least one round ran"));
    }

    let mut table = Table::new(&["algo", "telemetry", "items/s", "elapsed_s", "bins", "usage"]);
    for r in &results {
        table.row(&[
            r.algo.clone(),
            r.telemetry.to_string(),
            format!("{:.0}", r.items_per_sec),
            format!("{:.3}", r.elapsed_s),
            r.bins_opened.to_string(),
            r.usage.to_string(),
        ]);
    }
    table.print();

    // Overhead of the sampled recorder relative to the bare session, per
    // algorithm.
    let overhead_pct = |algo: &str| -> f64 {
        let at = |telemetry: &str| {
            results
                .iter()
                .find(|r| r.algo == algo && r.telemetry == telemetry)
                .map(|r| r.items_per_sec)
                .unwrap_or(f64::NAN)
        };
        (at("off") - at("sampled")) / at("off") * 100.0
    };
    println!();
    for algo in ALGOS {
        println!(
            "{algo}: sampled-telemetry overhead = {:.2}%",
            overhead_pct(algo)
        );
    }

    // The observed stream must be the same stream: identical packings.
    for algo in ALGOS {
        let pair: Vec<&CellReport> = results.iter().filter(|r| r.algo == *algo).collect();
        assert_eq!(
            (pair[0].bins_opened, pair[0].usage),
            (pair[1].bins_opened, pair[1].usage),
            "{algo}: telemetry changed the packing"
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"dbp-bench/telemetry-v1\",\n");
    json.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    json.push_str(&format!(
        "  \"workload\": {{ \"generator\": \"{}\", \"seed\": {SEED}, \"items\": {} }},\n",
        workload.name(),
        inst.len()
    ));
    json.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    json.push_str("  \"overhead_pct\": {");
    for (i, algo) in ALGOS.iter().enumerate() {
        json.push_str(&format!(
            " \"{algo}\": {:.2}{}",
            overhead_pct(algo),
            if i + 1 < ALGOS.len() { "," } else { " " }
        ));
    }
    json.push_str("},\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"algo\": \"{}\", \"telemetry\": \"{}\", \"items\": {}, \
             \"elapsed_s\": {:.6}, \"items_per_sec\": {:.0}, \"bins_opened\": {}, \
             \"usage\": {} }}{}\n",
            r.algo,
            r.telemetry,
            r.items,
            r.elapsed_s,
            r.items_per_sec,
            r.bins_opened,
            r.usage,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("\nwrote {out_path}");
    println!("OK");
}
