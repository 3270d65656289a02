//! Experiment E13 — MinUsageTime vs classical DBP objectives (§2).
//!
//! The paper's related work contrasts its objective with Coffman et al.'s
//! classical Dynamic Bin Packing, which minimizes the *maximum number of
//! concurrently open bins* and "does not consider the duration of bin
//! usage". This experiment makes the divergence concrete: the same
//! algorithms ranked under both objectives, plus a construction where the
//! usage-optimal and peak-optimal packings genuinely differ — evidence
//! that optimizing the classical objective can be a poor proxy for
//! renting cost, the paper's §2 point.

use dbp_bench::registry::{needs_departures, online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_bench::report::{f3, Table};
use dbp_core::accounting::lower_bounds;
use dbp_core::online::ClairvoyanceMode;
use dbp_core::OnlineEngine;
use dbp_workloads::scenarios::CloudGamingWorkload;
use dbp_workloads::Workload;

fn main() {
    both_objectives_on_real_trace();
    divergence_construction();
}

fn both_objectives_on_real_trace() {
    println!("E13a — both objectives on a gaming trace (n=1000)\n");
    let inst = CloudGamingWorkload::new(1_000, 20_000).generate_seeded(7);
    let lb = lower_bounds(&inst).best().max(1);
    let params = AlgoParams::from_instance(&inst);
    let mut table = Table::new(&["algo", "usage_ratio(MinUsageTime)", "peak_bins(classical)"]);
    let mut rows: Vec<(String, f64, i64)> = Vec::new();
    for algo in ONLINE_ALGOS {
        let mut p = online_packer(algo, params);
        let mode = if needs_departures(algo) {
            ClairvoyanceMode::Clairvoyant
        } else {
            ClairvoyanceMode::NonClairvoyant
        };
        let run = OnlineEngine::new(mode).run(&inst, p.as_mut()).expect("run");
        run.packing.validate(&inst).expect("valid");
        let usage_ratio = run.usage as f64 / lb as f64;
        let peak = run.fleet_series().max();
        table.row(&[algo.to_string(), f3(usage_ratio), peak.to_string()]);
        rows.push((algo.to_string(), usage_ratio, peak));
    }
    table.print();

    // The rankings under the two objectives need not agree.
    let mut by_usage = rows.clone();
    by_usage.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut by_peak = rows.clone();
    by_peak.sort_by_key(|r| r.2);
    println!(
        "\nbest by usage: {} | best by peak bins: {}{}",
        by_usage[0].0,
        by_peak[0].0,
        if by_usage[0].0 == by_peak[0].0 {
            " (agree on this trace)"
        } else {
            " (objectives disagree!)"
        }
    );
}

/// A construction where minimizing peak bins hurts usage time: one long
/// thin item per wave can share a single bin with everything (peak 1 is
/// impossible anyway), but packing *for* peak (always reuse) strands the
/// bin open, while packing for usage splits by departure.
fn divergence_construction() {
    println!("\nE13b — objectives genuinely diverge (tail-trap shape)\n");
    let inst = dbp_workloads::adversarial::ff_tail_trap(8, 2000, 10);
    let params = AlgoParams::from_instance(&inst);
    let mut table = Table::new(&["algo", "usage", "peak_bins"]);
    let mut measured = Vec::new();
    for algo in ["first-fit", "cbdt"] {
        let mut p = online_packer(algo, params);
        let mode = if algo == "cbdt" {
            ClairvoyanceMode::Clairvoyant
        } else {
            ClairvoyanceMode::NonClairvoyant
        };
        let run = OnlineEngine::new(mode).run(&inst, p.as_mut()).expect("run");
        let peak = run.fleet_series().max();
        table.row(&[algo.to_string(), run.usage.to_string(), peak.to_string()]);
        measured.push((algo, run.usage, peak));
    }
    table.print();
    // FF has minimal peak (k bins, same as CBDT needs at burst) yet ~8x
    // the usage — classical DBP's objective is blind to this difference.
    let (ff, cbdt) = (&measured[0], &measured[1]);
    assert!(ff.1 > 4 * cbdt.1, "usage must diverge sharply");
    assert!(
        (ff.2 - cbdt.2).abs() <= ff.2 / 2,
        "peaks stay comparable while usage diverges"
    );
    println!(
        "\nFF and CBDT need comparable peak fleets ({} vs {}), but FF pays {}x\nthe usage — the classical objective cannot see the difference (§2).",
        ff.2,
        cbdt.2,
        ff.1 / cbdt.1
    );
}
