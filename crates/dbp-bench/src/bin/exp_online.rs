//! Experiment E2 — empirical competitive ratios of every online algorithm
//! across a `μ` sweep: the measured analogue of Figure 8's ordering.
//!
//! For each `μ ∈ {1, 2, 4, …, 128}`, instances with exactly that duration
//! ratio are generated ([`MuSweepWorkload`]); every roster algorithm runs
//! under the appropriate clairvoyance (classification strategies get true
//! departures; Any Fit variants don't need them), and mean usage ratios
//! against LB3 are reported. Expected shape: plain First Fit degrades as
//! `μ` grows while CBDT/CBD/combined stay flat — and each algorithm stays
//! below its theorem bound.

use dbp_bench::registry::{online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_bench::report::{f3, Table};
use dbp_bench::{measure_online, run_grid, GridCell};
use dbp_core::online::ClairvoyanceMode;
use dbp_theory::{cbd_best_known, cbdt_best_known, ff_non_clairvoyant};
use dbp_workloads::random::{MuSweepWorkload, SizeDist};
use dbp_workloads::Workload;

const SEEDS: u64 = 5;

fn main() {
    println!("E2 — online competitive ratios vs LB3 across mu (n=400, {SEEDS} seeds)\n");
    let mus: Vec<f64> = vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

    let mut cells = Vec::new();
    for &mu in &mus {
        for algo in ONLINE_ALGOS {
            for seed in 0..SEEDS {
                cells.push(GridCell {
                    label: format!("{algo}/mu{mu}/seed{seed}"),
                    input: (algo.to_string(), mu, seed),
                });
            }
        }
    }
    let results = run_grid(cells, None, |(algo, mu, seed)| {
        let w =
            MuSweepWorkload::new(400, 20, *mu).with_sizes(SizeDist::Uniform { lo: 0.05, hi: 0.6 });
        let inst = w.generate_seeded(*seed);
        let params = AlgoParams::from_instance(&inst);
        let mut packer = online_packer(algo, params);
        let m = measure_online(&inst, packer.as_mut(), ClairvoyanceMode::Clairvoyant, false)
            .expect("measure");
        (m.ratio_vs_lb3, m.counters)
    });

    let mean = |algo: &str, mu: f64| -> f64 {
        let rs: Vec<f64> = results
            .iter()
            .filter(|r| r.label.starts_with(&format!("{algo}/mu{mu}/")))
            .map(|r| r.output.0)
            .collect();
        rs.iter().sum::<f64>() / rs.len() as f64
    };

    let mut header: Vec<&str> = vec!["mu"];
    header.extend(ONLINE_ALGOS);
    header.extend(["bound_ff", "bound_cbdt", "bound_cbd"]);
    let mut table = Table::new(&header);
    for &mu in &mus {
        let mut row = vec![f3(mu)];
        for algo in ONLINE_ALGOS {
            row.push(f3(mean(algo, mu)));
        }
        row.push(f3(ff_non_clairvoyant(mu)));
        row.push(f3(cbdt_best_known(mu)));
        row.push(f3(cbd_best_known(mu).0));
        table.row(&row);
    }
    table.print();

    // Shape checks: every measured ratio below its theorem bound; at large
    // mu the classified strategies beat plain FF on these adversarial-free
    // random workloads or at least stay within their flat bounds.
    for &mu in &mus {
        assert!(
            mean("first-fit", mu) <= ff_non_clairvoyant(mu) + 1e-9,
            "FF bound violated at mu={mu}"
        );
        assert!(
            mean("cbdt", mu) <= cbdt_best_known(mu) + 1e-9,
            "CBDT bound violated at mu={mu}"
        );
        assert!(
            mean("cbd", mu) <= cbd_best_known(mu).0 + 1e-9,
            "CBD bound violated at mu={mu}"
        );
    }
    println!("\nchecks: every measured mean ratio below its theorem bound ... OK");

    // Observability cross-section: aggregate run counters per algorithm
    // over the whole grid — scan depth is the cost side of the ratios
    // above (`dbp prof` samples decision latency).
    let mut ctable = Table::new(&["algo", "items", "reuse_frac", "mean_scan"]);
    for algo in ONLINE_ALGOS {
        let parts: Vec<dbp_obs::CountersSnapshot> = results
            .iter()
            .filter(|r| r.label.starts_with(&format!("{algo}/")))
            .map(|r| r.output.1)
            .collect();
        let total = dbp_obs::CountersSnapshot::merged(&parts);
        ctable.row(&[
            algo.to_string(),
            total.items_packed.to_string(),
            f3(total.reuse_fraction()),
            f3(total.mean_candidates()),
        ]);
        assert_eq!(
            total.bins_opened, total.bins_closed,
            "every opened bin must close ({algo})"
        );
    }
    println!("\nrun counters (whole grid):");
    ctable.print();

    // Trace-replay oracle: one representative run per algorithm must
    // reconstruct bit-for-bit from its own event stream.
    for algo in ONLINE_ALGOS {
        let w =
            MuSweepWorkload::new(400, 20, 16.0).with_sizes(SizeDist::Uniform { lo: 0.05, hi: 0.6 });
        let inst = w.generate_seeded(0);
        let params = AlgoParams::from_instance(&inst);
        let mut packer = online_packer(algo, params);
        let mut log = dbp_core::observe::EventLog::new();
        let run = dbp_core::OnlineEngine::clairvoyant()
            .run_observed(&inst, packer.as_mut(), &mut log)
            .expect("observed run");
        let replay = dbp_obs::replay_events(&log.events).expect("replay");
        replay.verify().expect("replay verifies");
        assert_eq!(replay.run.usage, run.usage, "replayed usage ({algo})");
        assert_eq!(
            replay.run.packing, run.packing,
            "replayed bin assignments ({algo})"
        );
    }
    println!(
        "checks: traces replay bit-for-bit for all {} algorithms ... OK",
        ONLINE_ALGOS.len()
    );
}
