//! The chaos audit family: seeded fault-injected sweeps over the online
//! roster, checking the resilience layer's three promises on every case:
//!
//! 1. **No job lost silently** — [`ChaosReport::verify`]'s exactly-once
//!    accounting ([`CheckId::ChaosAccounting`]).
//! 2. **Capacity never exceeded post-recovery** — the effective-interval
//!    capacity sweep ([`CheckId::ChaosCapacity`]).
//! 3. **Resumed runs are bit-identical** — a mid-stream checkpoint,
//!    round-tripped through the JSON encoding and restored into a fresh
//!    packer, must finish exactly like the uninterrupted session
//!    ([`CheckId::Resume`]).
//!
//! Cases reuse [`crate::fuzz::case_instance`], so a chaos failure
//! reproduces from `(seed, case)` exactly like a plain audit failure;
//! the fault plan, recovery policy, fleet cap, and admission policy are
//! all derived from the same two numbers.

use crate::diff::clairvoyance_for;
use crate::fuzz::{case_instance, isolated, mix, run_sweep};
use crate::invariants::{CheckId, Violation};
use crate::shrink::{shrink_instance, ShrinkBudget};
use crate::AuditSummary;
use dbp_bench::registry::{online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_core::{DbpError, Instance, StreamingSession};
use dbp_resilience::chaos::{run_chaos, ChaosConfig, ChaosReport};
use dbp_resilience::checkpoint::{snapshot_from_json, snapshot_to_json};
use dbp_resilience::fault::{AdmissionPolicy, FaultPlan, RecoveryPolicy};

/// Chaos-sweep configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChaosAuditConfig {
    /// Number of generated cases.
    pub cases: u64,
    /// Master seed; instances, fault plans, and policies derive from it.
    pub seed: u64,
    /// Upper bound on generated instance size.
    pub max_items: usize,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
}

impl Default for ChaosAuditConfig {
    fn default() -> Self {
        ChaosAuditConfig {
            cases: 50,
            seed: 0,
            max_items: 24,
            threads: None,
        }
    }
}

/// The deterministic chaos configuration for `(seed, case_idx)` on a
/// given instance: fault count, recovery policy, fleet cap, and
/// admission policy all rotate with the case.
pub fn case_chaos_config(seed: u64, case_idx: u64, inst: &Instance) -> ChaosConfig {
    let s = mix(seed ^ mix(case_idx).rotate_left(17));
    let horizon = inst.last_departure().unwrap_or(1).max(1);
    let plan = FaultPlan::seeded(s, horizon, (s % 5) as usize);
    let policy = match (s >> 8) % 3 {
        0 => RecoveryPolicy::Immediate,
        1 => RecoveryPolicy::Backoff {
            base: 1 + ((s >> 16) % 4) as i64,
            cap: 32,
            max_retries: 1 + ((s >> 24) % 3) as u32,
        },
        _ => RecoveryPolicy::DropAfter {
            max_retries: ((s >> 16) % 3) as u32,
        },
    };
    let fleet_cap = match (s >> 32) % 3 {
        0 => None,
        1 => Some(1 + ((s >> 40) % 4) as usize),
        _ => Some(2 + ((s >> 40) % 8) as usize),
    };
    let admission = if (s >> 48).is_multiple_of(2) {
        AdmissionPolicy::Queue
    } else {
        AdmissionPolicy::Reject
    };
    ChaosConfig {
        plan,
        policy,
        fleet_cap,
        admission,
    }
}

fn classify(err: &DbpError) -> CheckId {
    match err {
        DbpError::CapacityExceeded { .. } => CheckId::ChaosCapacity,
        DbpError::PackingCoverage { .. } => CheckId::ChaosAccounting,
        _ => CheckId::EngineError,
    }
}

/// Runs one algorithm's chaos audit on one instance: the fault-injected
/// run plus its oracle, and a mid-stream checkpoint/resume bit-identity
/// check on the fault-free stream.
pub fn audit_chaos_algo(inst: &Instance, algo: &str, cfg: &ChaosConfig) -> Vec<Violation> {
    let params = AlgoParams::from_instance(inst);
    let mut out = Vec::new();

    let mut packer = online_packer(algo, params);
    match run_chaos(inst, &mut *packer, clairvoyance_for(algo), cfg) {
        Ok(report) => {
            if let Err(e) = report.verify(inst) {
                out.push(Violation::new(classify(&e), format!("{algo}: {e}")));
            }
            out.extend(check_ledger_sums(algo, &report));
        }
        Err(e) => out.push(Violation::new(
            CheckId::EngineError,
            format!("{algo}: chaos run failed: {e}"),
        )),
    }

    out.extend(check_resume(inst, algo, params));
    out
}

/// Cross-checks the report's scalar counters against its own ledger.
fn check_ledger_sums(algo: &str, report: &ChaosReport) -> Vec<Violation> {
    let c = report.retry_counters();
    let total = c.jobs_completed + c.jobs_retried + c.jobs_dropped + c.jobs_rejected;
    if total != report.outcomes.len() as u64 {
        return vec![Violation::new(
            CheckId::ChaosAccounting,
            format!(
                "{algo}: outcome counters sum to {total} for {} jobs",
                report.outcomes.len()
            ),
        )];
    }
    Vec::new()
}

/// The resume invariant: checkpoint after half the arrivals (through the
/// JSON encoding) and finish in a fresh session — bit-identical run.
fn check_resume(inst: &Instance, algo: &str, params: AlgoParams) -> Vec<Violation> {
    let mut items = inst.items().to_vec();
    items.sort_by_key(|i| (i.arrival(), i.id()));

    let run_full = (|| {
        let mut p = online_packer(algo, params);
        let mut s = StreamingSession::new(clairvoyance_for(algo), &mut *p);
        for item in &items {
            s.arrive(item)?;
        }
        s.finish()
    })();
    let full = match run_full {
        Ok(r) => r,
        Err(e) => {
            return vec![Violation::new(
                CheckId::EngineError,
                format!("{algo}: streaming run failed: {e}"),
            )]
        }
    };

    let cut = items.len() / 2;
    let resumed = (|| {
        let mut p = online_packer(algo, params);
        let mut s = StreamingSession::new(clairvoyance_for(algo), &mut *p);
        for item in &items[..cut] {
            s.arrive(item)?;
        }
        let snap = snapshot_from_json(&snapshot_to_json(&s.snapshot()))?;
        drop(s);
        let mut p2 = online_packer(algo, params);
        let mut s2 = StreamingSession::restore(clairvoyance_for(algo), &mut *p2, &snap)?;
        for item in &items[cut..] {
            s2.arrive(item)?;
        }
        s2.finish()
    })();
    match resumed {
        Ok(r) if r == full => Vec::new(),
        Ok(_) => vec![Violation::new(
            CheckId::Resume,
            format!("{algo}: resumed run diverged from uninterrupted run at cut {cut}"),
        )],
        Err(e) => vec![Violation::new(
            CheckId::Resume,
            format!("{algo}: checkpoint/resume failed at cut {cut}: {e}"),
        )],
    }
}

/// Audits one instance against the online roster under one chaos
/// configuration, each algorithm panic-isolated.
pub fn audit_chaos_instance(inst: &Instance, cfg: &ChaosConfig) -> Vec<(String, Vec<Violation>)> {
    ONLINE_ALGOS
        .iter()
        .map(|algo| {
            let v = match isolated(|| audit_chaos_algo(inst, algo, cfg)) {
                Ok(v) => v,
                Err(msg) => vec![Violation::new(CheckId::Panic, format!("{algo}: {msg}"))],
            };
            (algo.to_string(), v)
        })
        .collect()
}

/// Runs the chaos sweep. Same containment guarantees as
/// [`crate::fuzz::run_audit`]: any panic is confined to its cell.
pub fn run_chaos_audit(cfg: &ChaosAuditConfig) -> AuditSummary {
    let (seed, max_items) = (cfg.seed, cfg.max_items);
    run_sweep(cfg.cases, cfg.threads, move |case_idx| {
        let (family, inst) = case_instance(seed, case_idx, max_items);
        let chaos = case_chaos_config(seed, case_idx, &inst);
        (
            format!("chaos:{family}"),
            audit_chaos_instance(&inst, &chaos),
        )
    })
}

/// Shrinks a chaos failure to a minimal instance that still fails the
/// same algorithm under the *same* `(seed, case)`-derived chaos
/// configuration (re-derived per candidate so the fault plan tracks the
/// shrinking horizon).
pub fn shrink_chaos_failure(
    inst: &Instance,
    algo: &str,
    seed: u64,
    case_idx: u64,
    budget: ShrinkBudget,
) -> Instance {
    let algo = algo.to_string();
    shrink_instance(
        inst,
        move |candidate| {
            let chaos = case_chaos_config(seed, case_idx, candidate);
            match isolated(|| audit_chaos_algo(candidate, &algo, &chaos)) {
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
    fn chaos_configs_are_deterministic_and_varied() {
        let (_, inst) = case_instance(3, 2, 24);
        let a = case_chaos_config(3, 2, &inst);
        let b = case_chaos_config(3, 2, &inst);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.fleet_cap, b.fleet_cap);
        assert_eq!(a.admission, b.admission);
        // Across cases, the knobs actually move.
        let mut caps = std::collections::HashSet::new();
        for case in 0..24 {
            let (_, inst) = case_instance(3, case, 24);
            caps.insert(case_chaos_config(3, case, &inst).fleet_cap);
        }
        assert!(caps.len() >= 2, "fleet caps never varied");
    }

    #[test]
    fn small_chaos_sweep_is_clean() {
        let cfg = ChaosAuditConfig {
            cases: 12,
            seed: 5,
            ..Default::default()
        };
        let summary = run_chaos_audit(&cfg);
        assert_eq!(summary.cases, 12);
        assert_eq!(summary.cells, 12 * ONLINE_ALGOS.len());
        assert!(
            summary.ok(),
            "chaos violations on a clean roster: {:?}",
            summary.failures
        );
    }

    #[test]
    fn shrink_preserves_a_chaos_failure_predicate() {
        // Shrinking against an always-true predicate must terminate and
        // return a (possibly empty) sub-instance; with the real predicate
        // on a clean roster there is nothing to shrink. Use a synthetic
        // predicate: "at least 2 items" — the shrinker should land near 2.
        let (_, inst) = case_instance(1, 3, 24);
        if inst.len() < 3 {
            return;
        }
        let shrunk = shrink_instance(&inst, |c| c.len() >= 2, ShrinkBudget::default());
        assert_eq!(shrunk.len(), 2);
    }
}
