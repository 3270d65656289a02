//! Experiment E11 — separations within the Any Fit family, reproducing
//! the qualitative landscape the paper quotes from prior work (§1):
//!
//! * Best Fit is *unboundedly* worse than First Fit (Li et al.) — shown on
//!   the [`best_fit_cascade`] where BF's ratio grows linearly in the
//!   gadget count `k` while FF stays near 1.
//! * Every Any Fit algorithm suffers `Ω(k)` on the staircase (the `μ+1`
//!   lower-bound shape) — but classify-by-departure-time dismantles it.
//! * Next Fit's bound `2μ+1` (Kamali & López-Ortiz) vs First Fit's `μ+4`
//!   (Tang et al.) on random and adversarial inputs.

use dbp_bench::registry::{clairvoyance_for, online_packer, AlgoParams};
use dbp_bench::report::{f3, Table};
use dbp_bench::{measure_online, ONLINE_ALGOS};
use dbp_core::online::ClairvoyanceMode;
use dbp_workloads::adversarial::{any_fit_staircase, best_fit_cascade, ff_tail_trap};

fn main() {
    cascade_scaling();
    family_on_adversarial();
}

/// BF's ratio grows with the cascade depth k; FF stays flat.
fn cascade_scaling() {
    println!("E11a — Best Fit cascade: ratio vs gadget count k (long=4000, short=10)\n");
    let mut table = Table::new(&["k", "best_fit_ratio", "first_fit_ratio"]);
    let mut prev_bf = 0.0;
    for k in [2usize, 4, 8, 12, 16] {
        let inst = best_fit_cascade(k, 10, 4000);
        let params = AlgoParams::from_instance(&inst);
        let mut bf = online_packer("best-fit", params);
        let mut ff = online_packer("first-fit", params);
        let m_bf = measure_online(&inst, bf.as_mut(), ClairvoyanceMode::NonClairvoyant, false)
            .expect("measure");
        let m_ff = measure_online(&inst, ff.as_mut(), ClairvoyanceMode::NonClairvoyant, false)
            .expect("measure");
        table.row(&[k.to_string(), f3(m_bf.ratio_vs_lb3), f3(m_ff.ratio_vs_lb3)]);
        assert!(m_bf.ratio_vs_lb3 > prev_bf, "BF ratio must grow with k");
        assert!(m_ff.ratio_vs_lb3 < 1.5, "FF must stay near-optimal");
        prev_bf = m_bf.ratio_vs_lb3;
    }
    table.print();
    println!("\nchecks: BF ratio strictly increasing in k; FF < 1.5 throughout ... OK\n");
}

/// The whole roster on the three adversarial families.
fn family_on_adversarial() {
    println!("E11b — full roster on the adversarial families (ratio vs LB3)\n");
    let families: Vec<(&str, dbp_core::Instance)> = vec![
        ("tail-trap(k=8)", ff_tail_trap(8, 2000, 10)),
        ("staircase(k=8)", any_fit_staircase(8, 10, 2000)),
        ("bf-cascade(k=8)", best_fit_cascade(8, 10, 2000)),
    ];
    let mut header = vec!["algo".to_string()];
    header.extend(families.iter().map(|(n, _)| n.to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);
    for algo in ONLINE_ALGOS {
        let mut row = vec![algo.to_string()];
        for (_, inst) in &families {
            let params = AlgoParams::from_instance(inst);
            let mut p = online_packer(algo, params);
            let mode = clairvoyance_for(algo);
            let m = measure_online(inst, p.as_mut(), mode, false).expect("measure");
            row.push(f3(m.ratio_vs_lb3));
        }
        table.row(&row);
    }
    table.print();
    println!(
        "\n(the clairvoyant classification strategies neutralize every family;\n the Any Fit baselines each have a family that defeats them)"
    );
}
