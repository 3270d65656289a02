//! The vector audit family: seeded sweeps driving the dynamic *vector*
//! bin packing roster against its ground-truth oracles.
//!
//! Per `(instance, algorithm)` cell the audit checks:
//!
//! 1. **Indexed ≡ linear** — the indexed fit-query packer must produce
//!    the exact [`OnlineRun`] of its `with_linear_scan()` foil
//!    ([`CheckId::Differential`]).
//! 2. **Per-axis feasibility** — the run's packing passes
//!    [`VecInstance::validate_packing`]: capacity on *every* axis of
//!    every load segment, coverage, no migration. Capacity breaches are
//!    classified as [`CheckId::VectorCapacity`].
//! 3. **The max-axis lower bound** — usage is at least
//!    `max_d ∫⌈S_d(t)⌉ dt` (the Proposition 3 bound axis-wise;
//!    [`CheckId::VectorLowerBound`]).
//! 4. **Usage accounting** — total usage equals the sum of per-bin
//!    lifetimes ([`CheckId::UsageAccounting`]).
//! 5. **dim-1 ≡ scalar** — at one dimension, a roster name that is also
//!    in the scalar roster (the same packer) must reproduce its scalar
//!    run bit for bit ([`CheckId::Differential`]).
//!
//! One extra cell per instance, `batch-foil`, replays the streaming
//! stack against the original batch [`dbp_multidim::pack_online`]
//! reference under every [`Classification`] it supports (the streaming
//! side uses the unclamped constructors, matching the foil's unclamped
//! category math).
//!
//! The sweep runs on the shared loop ([`run_sweep`]). Failures shrink
//! with the scalar audit's shrinker, which is generic over the instance
//! type ([`shrink_instance`]: drop chunks, shorten durations, left-shift
//! arrivals, round every axis to eighths), and persist as vector
//! [`crate::fixture::Fixture`]s with per-axis raw sizes, so
//! counterexamples replay bit-identically.

use crate::fuzz::{case_instance, isolated, mix, run_sweep};
use crate::invariants::{CheckId, Violation};
use crate::shrink::{shrink_instance, ShrinkBudget};
use crate::AuditSummary;
use dbp_algos::online::{AnyFit, ClassifyByDepartureTime, ClassifyByDuration};
use dbp_algos::registry::{
    clairvoyance_for, online_packer, vector_packer, vector_packer_linear, AlgoParams, ONLINE_ALGOS,
    VECTOR_ALGOS,
};
use dbp_core::{
    DbpError, OnlineEngine, OnlineRun, VecClairvoyance, VecInstance, VecOnlinePacker,
    VecStreamingSession, MAX_DIMS,
};
use dbp_multidim::{pack_online, Classification, MultiInstance};
use dbp_workloads::random::DurationDist;
use dbp_workloads::vector::{project_axis, CorrelatedVectorWorkload, VectorWorkload};

/// Vector-sweep configuration.
#[derive(Clone, Copy, Debug)]
pub struct VectorAuditConfig {
    /// Number of generated cases.
    pub cases: u64,
    /// Master seed; instances derive from it.
    pub seed: u64,
    /// Upper bound on generated instance size.
    pub max_items: usize,
    /// Generated dimensionality rotates through `1..=max_dims`
    /// (clamped to [`MAX_DIMS`]).
    pub max_dims: usize,
    /// Worker threads for the sweep grid (`None` = available
    /// parallelism).
    pub threads: Option<usize>,
}

impl Default for VectorAuditConfig {
    fn default() -> Self {
        VectorAuditConfig {
            cases: 50,
            seed: 0,
            max_items: 24,
            max_dims: MAX_DIMS,
            threads: None,
        }
    }
}

/// Generates the vector instance for `(seed, case_idx)`: dimensionality
/// rotates through `1..=max_dims` and three families alternate — the
/// full scalar [`case_instance`] rotation lifted axis-wise (adversarial
/// instances included), correlated multi-resource demands across the `ρ`
/// range, and a tight near-capacity family that stresses per-axis
/// boundaries. Returns the family label with the instance.
pub fn case_vec_instance(
    seed: u64,
    case_idx: u64,
    max_items: usize,
    max_dims: usize,
) -> (String, VecInstance) {
    if case_idx == 0 {
        return (
            "vec-empty".into(),
            VecInstance::from_items(Vec::new()).expect("empty instance"),
        );
    }
    let s = mix(seed ^ mix(case_idx).rotate_left(17));
    let dims = 1 + (s % max_dims.clamp(1, MAX_DIMS) as u64) as usize;
    let n = 6 + (s % (max_items.max(7) as u64 - 5)) as usize;
    match case_idx % 3 {
        1 => {
            let (family, inst) = case_instance(seed, case_idx, max_items);
            (
                format!("lift{dims}:{family}"),
                VecInstance::lift(&inst, dims),
            )
        }
        2 => {
            let rho = [-0.9, -0.5, 0.0, 0.5, 0.9][((s >> 8) % 5) as usize];
            let menu = [0.35, 0.2, 0.45, 0.15];
            let w = CorrelatedVectorWorkload::new(n, &menu[..dims], 0.5, rho)
                .expect("valid correlated family")
                .with_durations(DurationDist::uniform(1, 30).expect("valid uniform"))
                .with_arrival_span(50);
            (format!("corr(dims={dims},rho={rho})"), w.generate_seeded(s))
        }
        _ => {
            // Near-half demands on every axis: per-axis bin boundaries
            // get hit constantly, anti-correlated so axes disagree about
            // which bin is full.
            let menu = [0.5, 0.45, 0.55, 0.4];
            let w = CorrelatedVectorWorkload::new(n, &menu[..dims], 0.3, -0.9)
                .expect("valid tight family")
                .with_durations(DurationDist::uniform(1, 8).expect("valid uniform"))
                .with_arrival_span(12);
            (format!("tight(dims={dims})"), w.generate_seeded(s))
        }
    }
}

/// Shared invariants on one finished run: per-axis validity, the
/// max-axis lower bound, and usage accounting.
fn check_vec_run(inst: &VecInstance, algo: &str, run: &OnlineRun, out: &mut Vec<Violation>) {
    if let Err(e) = inst.validate_packing(&run.packing) {
        let check = match e {
            DbpError::CapacityExceeded { .. } => CheckId::VectorCapacity,
            _ => CheckId::Coverage,
        };
        out.push(Violation::new(check, format!("{algo}: {e}")));
    }
    let lb = inst.vector_lower_bound();
    if run.usage < lb {
        out.push(Violation::new(
            CheckId::VectorLowerBound,
            format!("{algo}: usage {} below the max-axis bound {lb}", run.usage),
        ));
    }
    let record_sum: u128 = run
        .bins
        .iter()
        .map(|b| (b.closed_at - b.opened_at).max(0) as u128)
        .sum();
    if record_sum != run.usage {
        out.push(Violation::new(
            CheckId::UsageAccounting,
            format!(
                "{algo}: bin records sum to {record_sum}, run reports {}",
                run.usage
            ),
        ));
    }
}

/// Runs one vector algorithm's audit on one instance: indexed vs linear,
/// per-axis validity, the lower bound, accounting, and (at one
/// dimension) the dim-1-vs-scalar differential.
pub fn audit_vector_algo(inst: &VecInstance, algo: &str) -> Vec<Violation> {
    let params = AlgoParams::from_instance(inst);
    let mut out = Vec::new();

    let mut indexed = vector_packer(algo, params);
    let run = match VecStreamingSession::run(clairvoyance_for(algo), inst, indexed.as_mut()) {
        Ok(r) => r,
        Err(e) => {
            return vec![Violation::new(
                CheckId::EngineError,
                format!("{algo}: streaming run failed: {e}"),
            )]
        }
    };

    let mut linear = vector_packer_linear(algo, params);
    match VecStreamingSession::run(clairvoyance_for(algo), inst, linear.as_mut()) {
        Ok(foil) => {
            if foil != run {
                out.push(Violation::new(
                    CheckId::Differential,
                    format!("{algo}: indexed run diverges from the linear-scan foil"),
                ));
            }
        }
        Err(e) => out.push(Violation::new(
            CheckId::EngineError,
            format!("{algo}: linear-scan foil failed: {e}"),
        )),
    }

    check_vec_run(inst, algo, &run, &mut out);

    if inst.dims() == 1 && ONLINE_ALGOS.contains(&algo) {
        match project_axis(inst, 0) {
            Ok(scalar) => {
                let mut sp = online_packer(algo, AlgoParams::from_instance(&scalar));
                match OnlineEngine::new(clairvoyance_for(algo)).run(&scalar, sp.as_mut()) {
                    Ok(sref) if sref == run => {}
                    Ok(_) => out.push(Violation::new(
                        CheckId::Differential,
                        format!("{algo}: dim-1 run diverges from the scalar run"),
                    )),
                    Err(e) => out.push(Violation::new(
                        CheckId::EngineError,
                        format!("{algo}: scalar run failed: {e}"),
                    )),
                }
            }
            Err(e) => out.push(Violation::new(
                CheckId::EngineError,
                format!("{algo}: axis-0 projection failed: {e}"),
            )),
        }
    }
    out
}

/// Per-bin item ids in opening order — the batch foil's result shape.
fn bin_ids(run: &OnlineRun) -> Vec<Vec<u32>> {
    run.bins
        .iter()
        .map(|b| b.items.iter().map(|r| r.0).collect())
        .collect()
}

/// Replays the streaming stack against the batch [`pack_online`]
/// reference under every [`Classification`] it supports. The streaming
/// side uses the *unclamped* constructors — the batch foil never clamps
/// duration categories.
pub fn audit_batch_foil(inst: &VecInstance) -> Vec<Violation> {
    let multi = MultiInstance::from_vector(inst);
    let mut out = Vec::new();
    let cases: Vec<(Classification, Box<dyn VecOnlinePacker>)> = vec![
        (Classification::None, Box::new(AnyFit::first_fit())),
        (
            Classification::ByDepartureTime { rho: 7 },
            Box::new(ClassifyByDepartureTime::new(7)),
        ),
        (
            Classification::ByDuration {
                base: 1,
                alpha: 2.0,
            },
            Box::new(ClassifyByDuration::new(1, 2.0)),
        ),
    ];
    for (classify, mut packer) in cases {
        let batch = pack_online(&multi, classify);
        let streamed =
            match VecStreamingSession::run(VecClairvoyance::Clairvoyant, inst, packer.as_mut()) {
                Ok(r) => r,
                Err(e) => {
                    out.push(Violation::new(
                        CheckId::EngineError,
                        format!("batch-foil {classify:?}: streaming run failed: {e}"),
                    ));
                    continue;
                }
            };
        if bin_ids(&streamed) != batch.bins {
            out.push(Violation::new(
                CheckId::Differential,
                format!("batch-foil {classify:?}: bin contents diverge"),
            ));
        }
        if streamed.usage != batch.usage {
            out.push(Violation::new(
                CheckId::Differential,
                format!(
                    "batch-foil {classify:?}: streaming usage {} vs batch {}",
                    streamed.usage, batch.usage
                ),
            ));
        }
    }
    out
}

/// Audits one instance against the vector roster plus the batch-foil
/// cell, each algorithm panic-isolated.
pub fn audit_vector_instance(inst: &VecInstance) -> Vec<(String, Vec<Violation>)> {
    let mut out = Vec::new();
    for algo in VECTOR_ALGOS {
        let v = match isolated(|| audit_vector_algo(inst, algo)) {
            Ok(v) => v,
            Err(msg) => vec![Violation::new(CheckId::Panic, format!("{algo}: {msg}"))],
        };
        out.push((algo.to_string(), v));
    }
    let v = match isolated(|| audit_batch_foil(inst)) {
        Ok(v) => v,
        Err(msg) => vec![Violation::new(CheckId::Panic, format!("batch-foil: {msg}"))],
    };
    out.push(("batch-foil".into(), v));
    out
}

/// Runs the vector sweep. Same containment guarantees as
/// [`crate::fuzz::run_audit`]: any panic is confined to its cell.
pub fn run_vector_audit(cfg: &VectorAuditConfig) -> AuditSummary {
    let (seed, max_items, max_dims) = (cfg.seed, cfg.max_items, cfg.max_dims);
    run_sweep(cfg.cases, cfg.threads, move |case_idx| {
        let (family, inst) = case_vec_instance(seed, case_idx, max_items, max_dims);
        (family, audit_vector_instance(&inst))
    })
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Shrinks a vector roster failure to a minimal instance that still
/// fails the same algorithm (any violation or panic counts).
pub fn shrink_vector_failure(inst: &VecInstance, algo: &str, budget: ShrinkBudget) -> VecInstance {
    let algo = algo.to_string();
    shrink_instance(
        inst,
        move |candidate| match isolated(|| {
            if algo == "batch-foil" {
                audit_batch_foil(candidate)
            } else {
                audit_vector_algo(candidate, &algo)
            }
        }) {
            Ok(v) => !v.is_empty(),
            Err(_) => true,
        },
        budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::AxisBlindFirstFit;
    use crate::fixture::Fixture;
    use dbp_core::{Size, SizeVec, VecItem};

    #[test]
    fn case_vec_generation_is_deterministic_and_varied() {
        let mut families = std::collections::HashSet::new();
        let mut dims = std::collections::HashSet::new();
        for case in 0..18 {
            let (fam_a, inst_a) = case_vec_instance(3, case, 24, MAX_DIMS);
            let (fam_b, inst_b) = case_vec_instance(3, case, 24, MAX_DIMS);
            assert_eq!(fam_a, fam_b);
            assert_eq!(inst_a, inst_b);
            families.insert(fam_a.split('(').next().unwrap().to_string());
            dims.insert(inst_a.dims());
        }
        assert!(families.len() >= 3, "family mix too narrow: {families:?}");
        assert!(dims.len() >= 3, "dimensionality never varied: {dims:?}");
        let (_, other_seed) = case_vec_instance(4, 2, 24, MAX_DIMS);
        assert_ne!(case_vec_instance(3, 2, 24, MAX_DIMS).1, other_seed);
        // Capped dimensionality never exceeds the cap.
        for case in 1..12 {
            assert!(case_vec_instance(3, case, 24, 2).1.dims() <= 2);
        }
    }

    #[test]
    fn small_vector_sweep_is_clean() {
        let cfg = VectorAuditConfig {
            cases: 10,
            seed: 5,
            ..Default::default()
        };
        let summary = run_vector_audit(&cfg);
        assert_eq!(summary.cases, 10);
        assert_eq!(summary.cells, 10 * (VECTOR_ALGOS.len() + 1));
        assert!(
            summary.ok(),
            "vector violations on a clean roster: {:?}",
            summary.failures
        );
    }

    /// The pipeline proof: the axis-blind packer is *caught* as a
    /// violation, the witness *shrinks* to its two-item core, and the
    /// fixture *round-trips* through JSON bit-identically.
    #[test]
    fn axis_blind_packer_is_caught_shrunk_and_persisted() {
        // Pad a real failure with decoys the shrinker must strip.
        let mut items = vec![
            VecItem::new(0, SizeVec::from_f64s(&[0.2, 0.8]), 3, 40),
            VecItem::new(1, SizeVec::from_f64s(&[0.2, 0.8]), 5, 39),
        ];
        for i in 2..14 {
            items.push(VecItem::new(
                i,
                SizeVec::from_f64s(&[0.11, 0.07]),
                i as i64 * 7,
                i as i64 * 7 + 3,
            ));
        }
        let inst = VecInstance::from_items(items).unwrap();

        let fails = |candidate: &VecInstance| {
            VecStreamingSession::run(
                VecClairvoyance::NonClairvoyant,
                candidate,
                &mut AxisBlindFirstFit,
            )
            .is_err()
        };
        assert!(fails(&inst), "axis-blind bug must be caught");

        let small = shrink_instance(&inst, fails, ShrinkBudget::default());
        assert!(fails(&small), "shrunk instance must still fail");
        assert!(small.len() <= 2, "got {} items: {small:?}", small.len());

        let fixture = Fixture::from_instance(
            "axis-blind-ff",
            "faulty-axis-blind-ff",
            CheckId::EngineError.as_str(),
            0,
            0,
            "injected axis-blind fault",
            &small,
        );
        let parsed = Fixture::parse(&fixture.to_json()).unwrap();
        assert_eq!(parsed, fixture);
        let replayed: VecInstance = parsed.instance().unwrap();
        assert_eq!(&replayed, &small, "fixture replay must be bit-identical");
        assert!(fails(&replayed));
    }

    #[test]
    fn shrinker_rounds_axes_and_renumbers() {
        // Awkward sizes on both axes; failure = "any item's axis 1
        // demand is at least half". The shrinker should land on one item
        // with clean eighths.
        let items = vec![
            VecItem::new(7, SizeVec::from_f64s(&[0.137, 0.613]), 9, 25),
            VecItem::new(11, SizeVec::from_f64s(&[0.211, 0.083]), 2, 30),
        ];
        let inst = VecInstance::from_items(items).unwrap();
        let fails = |c: &VecInstance| {
            c.items()
                .iter()
                .any(|r| r.size().axis(1).raw() * 2 >= Size::SCALE)
        };
        let small = shrink_instance(&inst, fails, ShrinkBudget::default());
        assert!(fails(&small));
        assert_eq!(small.len(), 1);
        assert_eq!(small.items()[0].id().0, 0, "ids renumbered");
        assert!(small.items()[0].arrival() == 0);
        assert!(
            small.items()[0]
                .size()
                .axes()
                .iter()
                .all(|s| s.raw() % (Size::SCALE / 8) == 0),
            "axes rounded to eighths: {:?}",
            small.items()[0].size()
        );
    }
}
