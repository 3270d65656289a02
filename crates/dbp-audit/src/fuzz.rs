//! The differential fuzzer: a seeded stream of random and adversarial
//! instances, each driven through the full roster with every invariant
//! checked, panic-isolated at two levels.
//!
//! Case generation is a pure function of `(seed, case_index)`: every
//! failure reproduces from the two numbers alone (see
//! `docs/auditing.md`). The outer sweep runs on
//! [`dbp_bench::grid::run_grid_checked`], so a case whose *generation*
//! panics still only poisons its own cell; inside a case, each
//! (algorithm, instance) audit is additionally wrapped in
//! [`isolated`], so one misbehaving packer cannot hide the others'
//! results.

use crate::diff::{audit_offline_algo, audit_online_algo};
use crate::invariants::{exact_baselines, CheckId, ExactLimits, Violation};
use crate::shrink::{shrink_instance, ShrinkBudget};
use dbp_algos::registry::{OFFLINE_ALGOS, ONLINE_ALGOS};
use dbp_bench::grid::{run_grid_checked, GridCell};
use dbp_core::Instance;
use dbp_workloads::adversarial::{
    any_fit_staircase, best_fit_cascade, ff_tail_trap, short_long_pairs,
};
use dbp_workloads::random::{
    DurationDist, MuSweepWorkload, PoissonWorkload, SizeDist, UniformWorkload,
};
use dbp_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fuzzer configuration.
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Number of generated cases.
    pub cases: u64,
    /// Master seed; all case randomness derives from it.
    pub seed: u64,
    /// Upper bound on generated instance size (random families).
    pub max_items: usize,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Exact-oracle item-count ceilings.
    pub limits: ExactLimits,
    /// Also audit the offline roster.
    pub offline: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            cases: 100,
            seed: 0,
            max_items: 24,
            threads: None,
            limits: ExactLimits::default(),
            offline: true,
        }
    }
}

/// One failed (case, algorithm) audit.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The case index (regenerate with [`case_instance`]).
    pub case: u64,
    /// The generator family label.
    pub family: String,
    /// The failing algorithm (roster name).
    pub algo: String,
    /// Everything that went wrong.
    pub violations: Vec<Violation>,
}

/// Sweep outcome.
#[derive(Clone, Debug, Default)]
pub struct AuditSummary {
    /// Cases executed.
    pub cases: u64,
    /// (case × algorithm) audits executed.
    pub cells: usize,
    /// All failures, in case order.
    pub failures: Vec<Failure>,
}

impl AuditSummary {
    /// Whether the sweep was violation-free.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Total violation count across failures.
    pub fn violations(&self) -> usize {
        self.failures.iter().map(|f| f.violations.len()).sum()
    }
}

/// splitmix64 — derives stream-independent sub-seeds.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the instance for `(seed, case_idx)` — a deterministic mix of
/// eight families cycling with the case index. Returns the family label
/// with the instance.
pub fn case_instance(seed: u64, case_idx: u64, max_items: usize) -> (String, Instance) {
    if case_idx == 0 {
        // The empty instance is a permanent member of the sweep.
        return (
            "empty".into(),
            Instance::from_items(Vec::new()).expect("empty instance"),
        );
    }
    let s = mix(seed ^ mix(case_idx));
    let max_items = max_items.max(6);
    let n = 6 + (s % (max_items as u64 - 5)) as usize;
    match case_idx % 8 {
        1 => (
            format!("uniform(n={n})"),
            UniformWorkload::new(n).generate_seeded(s),
        ),
        2 => {
            let w = UniformWorkload::new(n)
                .with_sizes(SizeDist::bimodal(0.7, 0.12, 0.85).expect("valid bimodal"));
            (format!("bimodal(n={n})"), w.generate_seeded(s))
        }
        3 => {
            let w = PoissonWorkload::new(0.4, (n as i64 * 8).max(20)).with_durations(
                DurationDist::exponential(30.0, 1, 400).expect("valid exponential"),
            );
            ("poisson".into(), w.generate_seeded(s))
        }
        4 => {
            let mu = [1.0, 2.0, 8.0, 64.0][(s >> 8) as usize % 4];
            let w = MuSweepWorkload::new(n.max(2), 1 + (s % 7) as i64, mu);
            (format!("mu-sweep(mu={mu})"), w.generate_seeded(s))
        }
        5 => {
            // Tiny instances with chunky sizes: full exact-oracle coverage.
            let n = 2 + (s % 7) as usize; // 2..=8
            let w = UniformWorkload {
                n,
                sizes: SizeDist::uniform(0.3, 1.0).expect("valid uniform"),
                durations: DurationDist::uniform(1, 15).expect("valid uniform"),
                arrival_span: 10,
            };
            (format!("tiny-exact(n={n})"), w.generate_seeded(s))
        }
        6 => {
            let k = 2 + (s % 7) as usize; // 2..=8
            match (s >> 16) % 4 {
                0 => (
                    format!("ff-tail-trap(k={k})"),
                    ff_tail_trap(k, 200 + (s % 800) as i64, 5 + (s % 10) as i64),
                ),
                1 => (
                    format!("staircase(k={k})"),
                    any_fit_staircase(k, 1 + (s % 5) as i64, 200 + (s % 300) as i64),
                ),
                2 => (
                    format!("bf-cascade(k={k})"),
                    best_fit_cascade(k, 1 + (s % 5) as i64, 200 + (s % 300) as i64),
                ),
                _ => (
                    format!("short-long(k={k})"),
                    short_long_pairs(k, 5 + (s % 10) as i64, 100 + (s % 200) as i64),
                ),
            }
        }
        7 => {
            let w = UniformWorkload::new(n).with_sizes(
                SizeDist::catalog(&[1.0 / 3.0, 0.25, 0.5, 2.0 / 3.0, 1.0]).expect("valid catalog"),
            );
            (format!("catalog(n={n})"), w.generate_seeded(s))
        }
        _ => {
            // Dense near-half sizes on a cramped timeline: bin-boundary
            // pressure with exact oracles still affordable.
            let n = 3 + (s % 6) as usize; // 3..=8
            let w = UniformWorkload {
                n,
                sizes: SizeDist::uniform(0.34, 0.67).expect("valid uniform"),
                durations: DurationDist::uniform(1, 6).expect("valid uniform"),
                arrival_span: 4,
            };
            (format!("dense-half(n={n})"), w.generate_seeded(s))
        }
    }
}

/// Runs `f` with panics caught; `Err` carries the panic message.
pub fn isolated<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    })
}

/// Audits one instance against the roster, each algorithm isolated.
/// Returns `(algo, violations)` pairs — empty `violations` means pass.
pub fn audit_instance(
    inst: &Instance,
    limits: ExactLimits,
    offline: bool,
) -> Vec<(String, Vec<Violation>)> {
    let exact = match isolated(|| exact_baselines(inst, limits)) {
        Ok(e) => e,
        Err(msg) => {
            return vec![(
                "exact-oracles".into(),
                vec![Violation::new(
                    CheckId::Panic,
                    format!("exact baselines panicked: {msg}"),
                )],
            )]
        }
    };
    let mut out = Vec::new();
    for algo in ONLINE_ALGOS {
        let v = match isolated(|| audit_online_algo(inst, algo, &exact)) {
            Ok(v) => v,
            Err(msg) => vec![Violation::new(CheckId::Panic, format!("{algo}: {msg}"))],
        };
        out.push((algo.to_string(), v));
    }
    if offline {
        for algo in OFFLINE_ALGOS {
            let v = match isolated(|| audit_offline_algo(inst, algo, &exact)) {
                Ok(v) => v,
                Err(msg) => vec![Violation::new(CheckId::Panic, format!("{algo}: {msg}"))],
            };
            out.push((algo.to_string(), v));
        }
    }
    out
}

/// Runs the full sweep. Panics anywhere — generation, engines, oracles —
/// are contained to their cell and reported as [`CheckId::Panic`]
/// failures; the sweep always completes.
pub fn run_audit(cfg: &AuditConfig) -> AuditSummary {
    let limits = cfg.limits;
    let (seed, max_items, offline) = (cfg.seed, cfg.max_items, cfg.offline);
    run_sweep(cfg.cases, cfg.threads, move |case_idx| {
        let (family, inst) = case_instance(seed, case_idx, max_items);
        (family, audit_instance(&inst, limits, offline))
    })
}

/// The sweep loop every audit family shares: runs cases `0..cases` on
/// the panic-isolated grid, where `audit_case` generates one case and
/// returns its family label with each cell's violations. A case whose
/// generation or audit panics is reported as one [`CheckId::Panic`]
/// failure and the sweep carries on.
pub fn run_sweep<F>(cases: u64, threads: Option<usize>, audit_case: F) -> AuditSummary
where
    F: Fn(u64) -> (String, Vec<(String, Vec<Violation>)>) + Sync,
{
    let cells: Vec<GridCell<u64>> = (0..cases)
        .map(|i| GridCell {
            label: format!("case{i}"),
            input: i,
        })
        .collect();
    let results = run_grid_checked(cells, threads, |&case_idx| audit_case(case_idx));

    let mut summary = AuditSummary {
        cases,
        ..Default::default()
    };
    for (case_idx, res) in results.into_iter().enumerate() {
        match res.output {
            Ok((family, per_algo)) => {
                summary.cells += per_algo.len();
                for (algo, violations) in per_algo {
                    if !violations.is_empty() {
                        summary.failures.push(Failure {
                            case: case_idx as u64,
                            family: family.clone(),
                            algo,
                            violations,
                        });
                    }
                }
            }
            Err(p) => summary.failures.push(Failure {
                case: case_idx as u64,
                family: "<generation>".into(),
                algo: "<cell>".into(),
                violations: vec![Violation::new(CheckId::Panic, p.message)],
            }),
        }
    }
    summary
}

/// Shrinks a roster failure to a minimal instance that still fails the
/// same algorithm (any violation or panic counts), panic-isolated.
pub fn shrink_roster_failure(
    inst: &Instance,
    algo: &str,
    limits: ExactLimits,
    budget: ShrinkBudget,
) -> Instance {
    let offline = OFFLINE_ALGOS.contains(&algo);
    let algo = algo.to_string();
    shrink_instance(
        inst,
        move |candidate| {
            let exact = match isolated(|| exact_baselines(candidate, limits)) {
                Ok(e) => e,
                Err(_) => return true,
            };
            match isolated(|| {
                if offline {
                    audit_offline_algo(candidate, &algo, &exact)
                } else {
                    audit_online_algo(candidate, &algo, &exact)
                }
            }) {
                Ok(v) => !v.is_empty(),
                Err(_) => true,
            }
        },
        budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_generation_is_deterministic_and_varied() {
        let mut families = std::collections::HashSet::new();
        for case in 0..16 {
            let (fam_a, inst_a) = case_instance(3, case, 24);
            let (fam_b, inst_b) = case_instance(3, case, 24);
            assert_eq!(fam_a, fam_b);
            assert_eq!(inst_a, inst_b);
            families.insert(fam_a.split('(').next().unwrap().to_string());
        }
        assert!(families.len() >= 6, "family mix too narrow: {families:?}");
        let (_, other_seed) = case_instance(4, 1, 24);
        assert_ne!(case_instance(3, 1, 24).1, other_seed);
    }

    #[test]
    fn small_sweep_is_clean() {
        let cfg = AuditConfig {
            cases: 24,
            seed: 1,
            ..Default::default()
        };
        let summary = run_audit(&cfg);
        assert_eq!(summary.cases, 24);
        assert!(summary.cells >= 24 * ONLINE_ALGOS.len());
        assert!(
            summary.ok(),
            "violations on a clean roster: {:?}",
            summary.failures
        );
    }

    #[test]
    fn isolated_catches_and_renders_panics() {
        assert_eq!(isolated(|| 7).unwrap(), 7);
        let _quiet = crate::QuietPanics::new();
        let msg = isolated(|| -> i32 { panic!("kaboom {}", 3) }).unwrap_err();
        assert!(msg.contains("kaboom 3"));
    }
}
