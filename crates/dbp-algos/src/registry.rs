//! Algorithm registry: build packers by name so experiments share one
//! roster and CLI flags stay stable.

use crate::offline::{
    ArrivalFirstFit, DemandDescendingFirstFit, DualColoring, DurationAscendingFirstFit,
    DurationDescendingFirstFit, LargeItemRule,
};
use crate::online::{
    AnyFit, ClassifyByDepartureTime, ClassifyByDuration, CombinedClassify, DotProductFit,
    HybridFirstFit, MaxNormFit,
};
use dbp_core::{OfflinePacker, OnlinePacker, VecOnlinePacker};

/// Instance-derived parameters a packer constructor may need.
#[derive(Clone, Copy, Debug)]
pub struct AlgoParams {
    /// Minimum item duration `Δ` in ticks.
    pub delta: i64,
    /// Max/min duration ratio `μ`.
    pub mu: f64,
}

impl AlgoParams {
    /// Extracts `Δ` and `μ` from an instance (defaults for empty ones).
    pub fn from_instance(inst: &dbp_core::Instance) -> Self {
        AlgoParams {
            delta: inst.min_duration().unwrap_or(1),
            mu: inst.mu().unwrap_or(1.0),
        }
    }

    /// Extracts `Δ` and `μ` from a vector instance — the classification
    /// strategies depend only on time structure, so the derivation is
    /// dimension-blind.
    pub fn from_vec_instance(inst: &dbp_core::VecInstance) -> Self {
        AlgoParams {
            delta: inst.min_duration().unwrap_or(1),
            mu: inst.mu().unwrap_or(1.0),
        }
    }
}

/// The canonical online roster used by the E2/E5/E9 sweeps.
pub const ONLINE_ALGOS: &[&str] = &[
    "first-fit",
    "best-fit",
    "worst-fit",
    "next-fit",
    "hybrid-ff",
    "cbdt",
    "cbd",
    "combined",
];

/// Whether the named online algorithm reads departure times (the
/// classification strategies). Such a packer cannot run on a
/// non-clairvoyant session: callers refuse the combination up front.
pub fn needs_departures(name: &str) -> bool {
    matches!(name, "cbdt" | "cbd" | "combined")
}

/// The canonical offline roster used by the E1 sweep. The last two are
/// sort-order ablations of DDFF with no proven bounds.
pub const OFFLINE_ALGOS: &[&str] = &[
    "ddff",
    "dual-coloring",
    "dual-coloring-1pb",
    "arrival-ff",
    "duration-ascending-ff",
    "demand-descending-ff",
];

/// Builds an online packer by roster name. Classification strategies use
/// their Theorem 4/5 optimal parameters derived from `params`.
///
/// # Panics
/// On an unknown name.
pub fn online_packer(name: &str, params: AlgoParams) -> Box<dyn OnlinePacker + Send> {
    match name {
        "first-fit" => Box::new(AnyFit::first_fit()),
        "best-fit" => Box::new(AnyFit::best_fit()),
        "worst-fit" => Box::new(AnyFit::worst_fit()),
        "next-fit" => Box::new(AnyFit::next_fit()),
        "hybrid-ff" => Box::new(HybridFirstFit::default()),
        "cbdt" => Box::new(ClassifyByDepartureTime::with_known_durations(
            params.delta,
            params.mu,
        )),
        "cbd" => Box::new(ClassifyByDuration::with_known_durations(
            params.delta,
            params.mu,
        )),
        "combined" => Box::new(CombinedClassify::with_known_durations(
            params.delta,
            params.mu,
        )),
        other => panic!("unknown online algorithm {other:?}"),
    }
}

/// Builds the linear-scan variant of a roster packer: the same algorithm
/// with the same parameters, but answering every placement by the seed's
/// O(category) open-bin walk instead of the indexed fit queries. The two
/// variants are decision-identical by construction; this factory exists
/// so the audit harness (and the indexed-vs-linear CI smoke) can prove
/// it on every run rather than trust it.
///
/// # Panics
/// On an unknown name.
pub fn online_packer_linear(name: &str, params: AlgoParams) -> Box<dyn OnlinePacker + Send> {
    match name {
        "first-fit" => Box::new(AnyFit::first_fit().with_linear_scan()),
        "best-fit" => Box::new(AnyFit::best_fit().with_linear_scan()),
        "worst-fit" => Box::new(AnyFit::worst_fit().with_linear_scan()),
        "next-fit" => Box::new(AnyFit::next_fit().with_linear_scan()),
        "hybrid-ff" => Box::new(HybridFirstFit::default().with_linear_scan()),
        "cbdt" => Box::new(
            ClassifyByDepartureTime::with_known_durations(params.delta, params.mu)
                .with_linear_scan(),
        ),
        "cbd" => Box::new(
            ClassifyByDuration::with_known_durations(params.delta, params.mu).with_linear_scan(),
        ),
        "combined" => Box::new(
            CombinedClassify::with_known_durations(params.delta, params.mu).with_linear_scan(),
        ),
        other => panic!("unknown online algorithm {other:?}"),
    }
}

/// The canonical vector online roster: the Any-Fit family and both
/// classification strategies — the same packers as the scalar roster,
/// under all-axes feasibility — plus the two vector-native heuristics
/// (Murhekar et al. 2023).
pub const VECTOR_ALGOS: &[&str] = &[
    "first-fit",
    "best-fit",
    "worst-fit",
    "next-fit",
    "cbdt",
    "cbd",
    "dot-product",
    "max-norm",
];

/// Builds a vector online packer by roster name. Classification
/// strategies use their Theorem 4/5 optimal parameters derived from
/// `params`, exactly like [`online_packer`].
///
/// # Panics
/// On an unknown name.
pub fn vector_packer(name: &str, params: AlgoParams) -> Box<dyn VecOnlinePacker + Send> {
    match name {
        "first-fit" => Box::new(AnyFit::first_fit()),
        "best-fit" => Box::new(AnyFit::best_fit()),
        "worst-fit" => Box::new(AnyFit::worst_fit()),
        "next-fit" => Box::new(AnyFit::next_fit()),
        "cbdt" => Box::new(ClassifyByDepartureTime::with_known_durations(
            params.delta,
            params.mu,
        )),
        "cbd" => Box::new(ClassifyByDuration::with_known_durations(
            params.delta,
            params.mu,
        )),
        "dot-product" => Box::new(DotProductFit::new()),
        "max-norm" => Box::new(MaxNormFit::new()),
        other => panic!("unknown vector algorithm {other:?}"),
    }
}

/// Builds the linear-scan foil of a vector roster packer (decision-
/// identical by construction; see [`online_packer_linear`]). For the
/// vector-native heuristics the scan is linear in both modes, so the
/// foil is the packer itself.
///
/// # Panics
/// On an unknown name.
pub fn vector_packer_linear(name: &str, params: AlgoParams) -> Box<dyn VecOnlinePacker + Send> {
    match name {
        "first-fit" => Box::new(AnyFit::first_fit().with_linear_scan()),
        "best-fit" => Box::new(AnyFit::best_fit().with_linear_scan()),
        "worst-fit" => Box::new(AnyFit::worst_fit().with_linear_scan()),
        "next-fit" => Box::new(AnyFit::next_fit().with_linear_scan()),
        "cbdt" => Box::new(
            ClassifyByDepartureTime::with_known_durations(params.delta, params.mu)
                .with_linear_scan(),
        ),
        "cbd" => Box::new(
            ClassifyByDuration::with_known_durations(params.delta, params.mu).with_linear_scan(),
        ),
        "dot-product" => Box::new(DotProductFit::new().with_linear_scan()),
        "max-norm" => Box::new(MaxNormFit::new().with_linear_scan()),
        other => panic!("unknown vector algorithm {other:?}"),
    }
}

/// Builds an offline packer by roster name.
///
/// # Panics
/// On an unknown name.
pub fn offline_packer(name: &str) -> Box<dyn OfflinePacker + Send> {
    match name {
        "ddff" => Box::new(DurationDescendingFirstFit::new()),
        "dual-coloring" => Box::new(DualColoring::new()),
        "dual-coloring-1pb" => Box::new(DualColoring::with_large_rule(LargeItemRule::OnePerBin)),
        "arrival-ff" => Box::new(ArrivalFirstFit::new()),
        "duration-ascending-ff" => Box::new(DurationAscendingFirstFit),
        "demand-descending-ff" => Box::new(DemandDescendingFirstFit),
        other => panic!("unknown offline algorithm {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::Instance;

    #[test]
    fn roster_constructs() {
        let inst = Instance::from_triples(&[(0.5, 0, 10), (0.5, 2, 40)]);
        let p = AlgoParams::from_instance(&inst);
        for name in ONLINE_ALGOS {
            let packer = online_packer(name, p);
            assert!(!packer.name().is_empty());
            // The linear foil reports the same display name: it is the
            // same algorithm, only the scan machinery differs.
            let linear = online_packer_linear(name, p);
            assert_eq!(linear.name(), packer.name());
        }
        for name in OFFLINE_ALGOS {
            let packer = offline_packer(name);
            assert!(!packer.name().is_empty());
        }
        for name in VECTOR_ALGOS {
            let packer = vector_packer(name, p);
            assert!(!packer.name().is_empty());
            let linear = vector_packer_linear(name, p);
            assert_eq!(linear.name(), packer.name());
        }
    }

    #[test]
    #[should_panic(expected = "unknown online algorithm")]
    fn unknown_name_panics() {
        let _ = online_packer("nope", AlgoParams { delta: 1, mu: 1.0 });
    }
}
