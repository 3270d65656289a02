//! The invariant checker: everything a `(Instance, OnlineRun | Packing)`
//! pair must satisfy, checked exactly.
//!
//! The checks, in dependency order:
//!
//! 1. **Coverage** — every instance item placed exactly once, nothing
//!    else placed ([`Packing::validate`]). Placement is a single static
//!    assignment, so passing coverage also certifies **no migration**.
//! 2. **Capacity** — no bin exceeds unit capacity at any load segment
//!    (exact sweep, also via [`Packing::validate`]).
//! 3. **Bin usage** — each bin's recorded lifetime equals the span of its
//!    members' intervals, and its open/close stamps are the members' hull.
//! 4. **Usage accounting** — the run's claimed total equals both the sum
//!    of per-bin lifetimes and the packing's recomputed `Σ span(R_k)`.
//! 5. **Bound chain** — `d(R) ≤ LB3`, `span ≤ LB3` (Proposition 3
//!    dominates 1 and 2), and `max(bounds) ≤ usage`. On instances small
//!    enough for the exact oracles, the full chain
//!    `LB3 ≤ OPT_total ≤ min_usage ≤ usage` is checked. (The issue's
//!    shorthand `d(R) ≤ span` is *not* an invariant — two full-size items
//!    sharing an interval have `d(R) = 2·span` — so the checker pins each
//!    bound below LB3 instead, which Proposition 3 does guarantee.)
//! 6. **Theorem ceilings** — for the roster's `cbdt` and `cbd` entries,
//!    `usage ≤ bound(μ, Δ) · OPT_total` (Theorems 4 and 5), checked when
//!    `OPT_total` is exactly computable.

use dbp_algos::registry::AlgoParams;
use dbp_core::accounting::lower_bounds;
use dbp_core::interval::span_of;
use dbp_core::online::OnlineRun;
use dbp_core::{DbpError, Instance, Item, ItemId, Packing};
use std::collections::HashMap;
use std::fmt;

/// Which invariant family a violation falls under. The string forms are
/// stable: they name checks in fixtures and CLI output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckId {
    /// Item coverage / no-migration (each item placed exactly once).
    Coverage,
    /// Bin capacity at every load segment.
    Capacity,
    /// Per-bin lifetime = span of member intervals.
    BinUsage,
    /// Claimed total usage = Σ per-bin spans.
    UsageAccounting,
    /// The Proposition 1–3 / exact-oracle bound chain.
    BoundChain,
    /// A Theorem 4/5 competitive-ratio ceiling.
    TheoremCeiling,
    /// Two execution paths disagreed (batch vs stream vs replay vs
    /// reference engine).
    Differential,
    /// The engine rejected the algorithm's decision or the run errored.
    EngineError,
    /// The cell panicked (caught; the sweep continued).
    Panic,
    /// Chaos accounting: a job was lost, double-counted, or its ledger
    /// contradicts its recorded outcome.
    ChaosAccounting,
    /// Chaos capacity: a bin exceeded capacity after fault recovery.
    ChaosCapacity,
    /// A checkpoint/resume differed from the uninterrupted run.
    Resume,
    /// Sharded accounting: an item was lost, duplicated, or the merged
    /// totals contradict the per-shard slices.
    ShardAccounting,
    /// A sharded run diverged from its per-shard plain-session reference
    /// (or a single-shard run from the unsharded session).
    ShardMerge,
    /// Telemetry work histograms differed between two replays of the
    /// same deterministic stream.
    TelemetryReplay,
    /// Fleet-merged telemetry work histograms differed across worker
    /// counts, or the histogram merge disagreed with the unsplit stream.
    TelemetryMerge,
    /// A vector run breached per-axis capacity (or coverage) on some
    /// load segment of some axis.
    VectorCapacity,
    /// A vector run's usage fell below the max-axis `⌈S_d(t)⌉` lower
    /// bound (the per-axis Proposition 3 maximum).
    VectorLowerBound,
}

impl CheckId {
    /// Stable identifier used in fixtures and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckId::Coverage => "coverage",
            CheckId::Capacity => "capacity",
            CheckId::BinUsage => "bin-usage",
            CheckId::UsageAccounting => "usage-accounting",
            CheckId::BoundChain => "bound-chain",
            CheckId::TheoremCeiling => "theorem-ceiling",
            CheckId::Differential => "differential",
            CheckId::EngineError => "engine-error",
            CheckId::Panic => "panic",
            CheckId::ChaosAccounting => "chaos-accounting",
            CheckId::ChaosCapacity => "chaos-capacity",
            CheckId::Resume => "resume",
            CheckId::ShardAccounting => "shard-accounting",
            CheckId::ShardMerge => "shard-merge",
            CheckId::TelemetryReplay => "telemetry-replay",
            CheckId::TelemetryMerge => "telemetry-merge",
            CheckId::VectorCapacity => "vector-capacity",
            CheckId::VectorLowerBound => "vector-lower-bound",
        }
    }

    /// Parses the stable identifier back (fixture loading).
    pub fn parse(s: &str) -> Option<CheckId> {
        [
            CheckId::Coverage,
            CheckId::Capacity,
            CheckId::BinUsage,
            CheckId::UsageAccounting,
            CheckId::BoundChain,
            CheckId::TheoremCeiling,
            CheckId::Differential,
            CheckId::EngineError,
            CheckId::Panic,
            CheckId::ChaosAccounting,
            CheckId::ChaosCapacity,
            CheckId::Resume,
            CheckId::ShardAccounting,
            CheckId::ShardMerge,
            CheckId::TelemetryReplay,
            CheckId::TelemetryMerge,
            CheckId::VectorCapacity,
            CheckId::VectorLowerBound,
        ]
        .into_iter()
        .find(|c| c.as_str() == s)
    }
}

impl fmt::Display for CheckId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One violated invariant, with enough detail to act on.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Which invariant failed.
    pub check: CheckId,
    /// Human-readable specifics (values, bin ids, times).
    pub detail: String,
}

impl Violation {
    /// Convenience constructor.
    pub fn new(check: CheckId, detail: impl Into<String>) -> Violation {
        Violation {
            check,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// Item-count ceilings for the exponential exact oracles.
#[derive(Clone, Copy, Debug)]
pub struct ExactLimits {
    /// Max items for [`dbp_algos::exact::opt_total`] (per-segment
    /// branch-and-bound).
    pub opt_total_max: usize,
    /// Max items for [`dbp_algos::exact::min_usage_packing`] (exhaustive
    /// assignment DFS).
    pub min_usage_max: usize,
}

impl Default for ExactLimits {
    fn default() -> Self {
        ExactLimits {
            opt_total_max: 14,
            min_usage_max: 9,
        }
    }
}

/// Exact baselines for one instance, computed once and shared by every
/// algorithm audited on it. `None` means the instance was too large for
/// that oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactBaselines {
    /// `OPT_total(R)` — the §3.2 repacking adversary.
    pub opt_total: Option<u128>,
    /// The exact no-migration optimum (the true MinUsageTime OPT).
    pub min_usage: Option<u128>,
}

/// Computes the affordable exact baselines for an instance.
pub fn exact_baselines(inst: &Instance, limits: ExactLimits) -> ExactBaselines {
    let n = inst.len();
    ExactBaselines {
        opt_total: (n <= limits.opt_total_max).then(|| dbp_algos::exact::opt_total(inst)),
        min_usage: (n <= limits.min_usage_max).then(|| dbp_algos::exact::min_usage_packing(inst).0),
    }
}

fn coverage_violation(e: &DbpError) -> Violation {
    let check = match e {
        DbpError::CapacityExceeded { .. } => CheckId::Capacity,
        _ => CheckId::Coverage,
    };
    Violation::new(check, e.to_string())
}

/// Checks a bare packing (offline algorithms): coverage, capacity, usage
/// accounting against `claimed_usage` when given, and the bound chain.
pub fn check_packing(
    inst: &Instance,
    packing: &Packing,
    claimed_usage: Option<u128>,
    exact: &ExactBaselines,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if let Err(e) = packing.validate(inst) {
        out.push(coverage_violation(&e));
        // A broken placement makes usage numbers meaningless; stop here.
        return out;
    }
    let total = packing.total_usage(inst);
    if let Some(claimed) = claimed_usage {
        if claimed != total {
            out.push(Violation::new(
                CheckId::UsageAccounting,
                format!("claimed usage {claimed} != recomputed Σ span(R_k) = {total}"),
            ));
        }
    }
    check_bound_chain(inst, total, exact, &mut out);
    out
}

/// Checks an online run: everything [`check_packing`] checks, plus the
/// per-bin lifetime records against the packing they claim to describe.
pub fn check_run(inst: &Instance, run: &OnlineRun, exact: &ExactBaselines) -> Vec<Violation> {
    let mut out = check_packing(inst, &run.packing, Some(run.usage), exact);

    let index: HashMap<ItemId, &Item> = inst.items().iter().map(|r| (r.id(), r)).collect();
    let mut from_records: u128 = 0;
    for rec in &run.bins {
        from_records += rec.usage();
        // Record membership must equal the packing's bin, in placement order.
        let placed = run.packing.bin(rec.id);
        if placed != rec.items.as_slice() {
            out.push(Violation::new(
                CheckId::BinUsage,
                format!(
                    "bin {} record lists items {:?} but packing holds {:?}",
                    rec.id.0, rec.items, placed
                ),
            ));
            continue;
        }
        let members: Vec<&Item> = match rec.items.iter().map(|id| index.get(id).copied()).collect()
        {
            Some(m) => m,
            None => continue, // unknown item already reported as Coverage
        };
        let span = span_of(members.iter().map(|m| m.interval())) as u128;
        if rec.usage() != span {
            out.push(Violation::new(
                CheckId::BinUsage,
                format!(
                    "bin {} lifetime {} != span of members {}",
                    rec.id.0,
                    rec.usage(),
                    span
                ),
            ));
        }
        let hull_open = members.iter().map(|m| m.arrival()).min();
        let hull_close = members.iter().map(|m| m.departure()).max();
        if hull_open != Some(rec.opened_at) || hull_close != Some(rec.closed_at) {
            out.push(Violation::new(
                CheckId::BinUsage,
                format!(
                    "bin {} open/close [{}, {}) != member hull [{:?}, {:?})",
                    rec.id.0, rec.opened_at, rec.closed_at, hull_open, hull_close
                ),
            ));
        }
    }
    if from_records != run.usage {
        out.push(Violation::new(
            CheckId::UsageAccounting,
            format!(
                "Σ bin-record lifetimes {} != claimed usage {}",
                from_records, run.usage
            ),
        ));
    }
    out
}

/// The Proposition 1–3 ordering and, when exact oracles are affordable,
/// the full `LB3 ≤ OPT_total ≤ min_usage ≤ usage` chain.
pub fn check_bound_chain(
    inst: &Instance,
    usage: u128,
    exact: &ExactBaselines,
    out: &mut Vec<Violation>,
) {
    let lb = lower_bounds(inst);
    if lb.demand.ticks_ceil() > lb.lb3 {
        out.push(Violation::new(
            CheckId::BoundChain,
            format!(
                "demand {} exceeds LB3 {} (Prop 3 must dominate Prop 1)",
                lb.demand.ticks_ceil(),
                lb.lb3
            ),
        ));
    }
    if lb.span > lb.lb3 {
        out.push(Violation::new(
            CheckId::BoundChain,
            format!(
                "span {} exceeds LB3 {} (Prop 3 must dominate Prop 2)",
                lb.span, lb.lb3
            ),
        ));
    }
    let mut floor = lb.best();
    let mut floor_name = "max(LB1..LB3)";
    if let Some(opt) = exact.opt_total {
        if lb.lb3 > opt {
            out.push(Violation::new(
                CheckId::BoundChain,
                format!("LB3 {} exceeds OPT_total {}", lb.lb3, opt),
            ));
        }
        floor = floor.max(opt);
        floor_name = "OPT_total";
        if let Some(mu) = exact.min_usage {
            if opt > mu {
                out.push(Violation::new(
                    CheckId::BoundChain,
                    format!("OPT_total {opt} exceeds no-migration optimum {mu}"),
                ));
            }
        }
    }
    if let Some(min_usage) = exact.min_usage {
        floor = floor.max(min_usage);
        floor_name = "min_usage";
    }
    if usage < floor {
        out.push(Violation::new(
            CheckId::BoundChain,
            format!("usage {usage} is below the {floor_name} lower bound {floor}"),
        ));
    }
}

/// The Theorem 4/5 competitive-ratio ceiling for a roster algorithm with
/// parameters derived from the instance the way the registry derives them,
/// or `None` when no proven ceiling applies.
pub fn theorem_ceiling(algo: &str, inst: &Instance) -> Option<(f64, &'static str)> {
    if inst.is_empty() {
        return None;
    }
    let params = AlgoParams::from_instance(inst);
    match algo {
        "cbdt" => {
            // Mirror ClassifyByDepartureTime::with_known_durations exactly:
            // ρ = round(√μ·Δ) clamped to ≥ 1, then the general Theorem 4
            // form ρ/Δ + μΔ/ρ + 3 (the rounded ρ makes the optimized
            // 2√μ + 3 form slightly off).
            let rho = ((params.mu.sqrt() * params.delta as f64).round() as i64).max(1);
            Some((
                dbp_theory::ratios::cbdt_bound(rho as f64, params.delta as f64, params.mu),
                "Theorem 4",
            ))
        }
        "cbd" => {
            // with_known_durations picks n = argmin μ^{1/n} + n + 3 and
            // α = μ^{1/n}; cbd_best_known computes the same minimum.
            Some((dbp_theory::ratios::cbd_best_known(params.mu).0, "Theorem 5"))
        }
        _ => None,
    }
}

/// Checks `usage ≤ ceiling · OPT_total` for algorithms with a proven
/// ceiling, when `OPT_total` is exactly known.
pub fn check_theorem_ceiling(
    algo: &str,
    inst: &Instance,
    usage: u128,
    exact: &ExactBaselines,
    out: &mut Vec<Violation>,
) {
    let (Some((ceiling, theorem)), Some(opt)) = (theorem_ceiling(algo, inst), exact.opt_total)
    else {
        return;
    };
    if opt == 0 {
        return;
    }
    // A hair of relative slack for the f64 products; the theorems
    // themselves are strict.
    let allowed = ceiling * opt as f64 * (1.0 + 1e-9);
    if usage as f64 > allowed {
        out.push(Violation::new(
            CheckId::TheoremCeiling,
            format!(
                "{algo} usage {usage} exceeds {theorem} ceiling {ceiling:.4} × OPT_total {opt} = {allowed:.2}"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::OnlineEngine;

    fn inst() -> Instance {
        Instance::from_triples(&[(0.6, 0, 10), (0.6, 2, 12), (0.3, 5, 7), (0.9, 20, 30)])
    }

    #[test]
    fn clean_run_has_no_violations() {
        let inst = inst();
        let exact = exact_baselines(&inst, ExactLimits::default());
        assert!(exact.opt_total.is_some() && exact.min_usage.is_some());
        let mut ff = dbp_algos::online::AnyFit::first_fit();
        let run = OnlineEngine::non_clairvoyant().run(&inst, &mut ff).unwrap();
        let v = check_run(&inst, &run, &exact);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn lying_about_usage_is_caught() {
        let inst = inst();
        let exact = ExactBaselines::default();
        let mut ff = dbp_algos::online::AnyFit::first_fit();
        let mut run = OnlineEngine::non_clairvoyant().run(&inst, &mut ff).unwrap();
        run.usage += 1;
        let v = check_run(&inst, &run, &exact);
        assert!(v.iter().any(|v| v.check == CheckId::UsageAccounting));
    }

    #[test]
    fn usage_below_lower_bound_is_caught() {
        let inst = inst();
        let exact = exact_baselines(&inst, ExactLimits::default());
        let mut out = Vec::new();
        check_bound_chain(&inst, 1, &exact, &mut out);
        assert!(out.iter().any(|v| v.check == CheckId::BoundChain));
    }

    #[test]
    fn overfull_packing_is_caught_as_capacity() {
        let inst = Instance::from_triples(&[(0.7, 0, 10), (0.7, 0, 10)]);
        let packing = Packing::from_bins(vec![vec![ItemId(0), ItemId(1)]]);
        let v = check_packing(&inst, &packing, None, &ExactBaselines::default());
        assert!(v.iter().any(|v| v.check == CheckId::Capacity));
    }

    #[test]
    fn check_id_round_trips() {
        for c in [
            CheckId::Coverage,
            CheckId::Capacity,
            CheckId::BinUsage,
            CheckId::UsageAccounting,
            CheckId::BoundChain,
            CheckId::TheoremCeiling,
            CheckId::Differential,
            CheckId::EngineError,
            CheckId::Panic,
            CheckId::ChaosAccounting,
            CheckId::ChaosCapacity,
            CheckId::Resume,
            CheckId::ShardAccounting,
            CheckId::ShardMerge,
            CheckId::TelemetryReplay,
            CheckId::TelemetryMerge,
            CheckId::VectorCapacity,
            CheckId::VectorLowerBound,
        ] {
            assert_eq!(CheckId::parse(c.as_str()), Some(c));
        }
        assert_eq!(CheckId::parse("nope"), None);
    }

    #[test]
    fn theorem_ceilings_exist_only_for_classify_algos() {
        let inst = inst();
        assert!(theorem_ceiling("cbdt", &inst).is_some());
        assert!(theorem_ceiling("cbd", &inst).is_some());
        assert!(theorem_ceiling("first-fit", &inst).is_none());
        assert!(theorem_ceiling("combined", &inst).is_none());
    }
}
