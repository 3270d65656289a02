//! Experiment E9 — end-to-end cloud renting cost (the paper's motivating
//! application, §1).
//!
//! The cluster simulator runs every online scheduler on the cloud-gaming
//! and recurring-analytics traces under both billing models: per-tick
//! (the exact MinUsageTime objective) and per-hour round-up (AWS-style).
//! Reported: cost, servers acquired, peak fleet size, utilization, and the
//! usage ratio against LB3. This is the table an operator would read to
//! choose a scheduler.

use dbp_bench::registry::{clairvoyance_for, online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_bench::report::{f3, Table};
use dbp_sim::{simulate, Billing};
use dbp_workloads::scenarios::{AnalyticsWorkload, CloudGamingWorkload};
use dbp_workloads::Workload;

fn main() {
    // One tick = one second; hour = 3600 ticks.
    let traces: Vec<(&str, dbp_core::Instance)> = vec![
        (
            "cloud-gaming",
            CloudGamingWorkload::new(1500, 6 * 3600).generate_seeded(42),
        ),
        (
            "analytics",
            AnalyticsWorkload::new(60, 3600, 8).generate_seeded(42),
        ),
    ];

    for (tname, inst) in &traces {
        println!(
            "E9 — {tname}: n={}, span={} s, mu={:.1}\n",
            inst.len(),
            inst.span(),
            inst.mu().unwrap_or(1.0)
        );
        let params = AlgoParams::from_instance(inst);
        let mut table = Table::new(&[
            "scheduler",
            "server_hours_cost",
            "per_tick_cost",
            "servers",
            "peak",
            "utilization",
            "ratio_vs_lb",
        ]);
        let hourly = Billing::PerHour {
            ticks_per_hour: 3600,
            price: 1.0,
        };
        for algo in ONLINE_ALGOS {
            let mut packer = online_packer(algo, params);
            let mode = clairvoyance_for(algo);
            let rep = simulate(inst, packer.as_mut(), mode.clone(), hourly).expect("sim");
            let mut p2 = online_packer(algo, params);
            let per_tick = simulate(inst, p2.as_mut(), mode, dbp_sim::unit_billing())
                .expect("sim")
                .cost;
            table.row(&[
                algo.to_string(),
                f3(rep.cost),
                f3(per_tick),
                rep.servers_acquired.to_string(),
                rep.peak_servers.to_string(),
                f3(rep.utilization),
                f3(rep.ratio_vs_lb),
            ]);
        }
        table.print();
        println!();
    }
    println!("(clairvoyant schedulers use known session-end times, as the paper's\n cloud-gaming motivation assumes; Any Fit baselines run non-clairvoyantly)");
}
