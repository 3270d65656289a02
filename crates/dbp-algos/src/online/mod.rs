//! Online packers: the Any Fit family and the paper's classification
//! strategies.
//!
//! The Any-Fit family ([`AnyFit`]) and the two classification strategies
//! ([`ClassifyByDepartureTime`], [`ClassifyByDuration`]) implement
//! [`dbp_core::OnlinePacker`] for every [`Demand`] type: one body packs
//! scalar sizes and demand vectors alike, and at one dimension the
//! vector run is the scalar run. The dot-product and max-norm rules are
//! vector-only (see [`DotProductFit`], [`MaxNormFit`]).

mod any_fit;
mod cbd;
mod cbdt;
mod combined;
mod hybrid_ff;
mod sliding;
mod vector;

pub use any_fit::{AnyFit, FitRule};
pub use cbd::ClassifyByDuration;
pub use cbdt::ClassifyByDepartureTime;
pub use combined::CombinedClassify;
pub use hybrid_ff::HybridFirstFit;
pub use sliding::SlidingDepartureWindow;
pub use vector::{DotProductFit, MaxNormFit};

use dbp_core::online::{Decision, ItemView, OpenBins};
use dbp_core::{Demand, Scalarization};

/// How a roster packer consults the open set.
///
/// Every roster packer answers placement queries through the
/// [`OpenBins`] fit index by default — O(log category) per decision —
/// and keeps the seed's linear walk selectable as a differential foil.
/// The two paths are decision-identical by construction (the index keys
/// encode the linear tie-breaks; see the `dbp-core::openbins` module
/// docs) and that equivalence is enforced by the dbp-audit harness and
/// the indexed-vs-linear proptests. Only the reported
/// `last_scanned` differs: the linear walk counts bins visited, the
/// index counts nodes probed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScanMode {
    /// Indexed O(log category) fit queries (the default).
    #[default]
    Indexed,
    /// The original O(category) linear scan, kept for differential
    /// proofs and scan-depth ablations.
    Linear,
}

/// First Fit restricted to bins carrying `tag`: place in the earliest-opened
/// feasible bin of that tag, else open a new bin with that tag.
///
/// All classification strategies in the paper apply First Fit within each
/// item category; this helper is their shared packing rule. It scans via
/// [`OpenBins::iter_tag`], so cost is O(category size), not O(fleet).
///
/// Returns the decision together with the number of candidate bins
/// inspected (the chosen bin included), which callers surface through
/// `OnlinePacker::last_scanned` so the engine's `candidates_scanned`
/// work metric reports the algorithm's *real* scan — the category walk —
/// rather than a whole-fleet proxy.
pub(crate) fn first_fit_tagged<D: Demand>(
    tag: u64,
    size: D,
    open_bins: &OpenBins<D>,
) -> (Decision, usize) {
    let mut scanned = 0;
    for b in open_bins.iter_tag(tag) {
        scanned += 1;
        if b.fits(size) {
            return (Decision::Existing(b.id()), scanned);
        }
    }
    (Decision::New { tag }, scanned)
}

/// [`first_fit_tagged`] dispatched by [`ScanMode`]: the indexed path
/// answers from [`OpenBins::first_fit`] and reports the index nodes
/// probed; the linear path is the seed's category walk. Both choose the
/// same bin on every input.
pub(crate) fn first_fit_tagged_in<D: Demand>(
    mode: ScanMode,
    tag: u64,
    size: D,
    open_bins: &OpenBins<D>,
) -> (Decision, usize) {
    match mode {
        ScanMode::Linear => first_fit_tagged(tag, size, open_bins),
        ScanMode::Indexed => {
            let (hit, probes) = open_bins.first_fit(tag, size);
            let decision = hit.map(Decision::Existing).unwrap_or(Decision::New { tag });
            (decision, probes)
        }
    }
}

/// Applies a [`FitRule`] among bins carrying `tag`, returning the decision
/// and the number of candidates inspected (see [`first_fit_tagged`]).
///
/// Candidates come from [`OpenBins::iter_tag`] in opening order, which
/// preserves the classical tie-breaks: Best Fit resolves level ties to
/// the *latest* opened (`max_by_key` keeps the last maximum), Worst Fit
/// to the *earliest* (`min_by_key` keeps the first minimum), and Next
/// Fit looks only at the newest bin of the tag. Vector levels rank by
/// `scal`; a scalar level is its own key. Best/Worst Fit examine the
/// whole category, Next Fit exactly one bin — the returned counts
/// reflect that.
pub(crate) fn rule_tagged<D: Demand>(
    rule: FitRule,
    scal: Scalarization,
    tag: u64,
    item: &ItemView<D>,
    open_bins: &OpenBins<D>,
) -> (Decision, usize) {
    let candidates = open_bins.iter_tag(tag);
    let mut scanned = 0;
    match rule {
        FitRule::First => first_fit_tagged(tag, item.size, open_bins),
        FitRule::Best => {
            let decision = candidates
                .inspect(|_| scanned += 1)
                .filter(|b| b.fits(item.size))
                .max_by_key(|b| b.level().key(scal))
                .map(|b| Decision::Existing(b.id()))
                .unwrap_or(Decision::New { tag });
            (decision, scanned)
        }
        FitRule::Worst => {
            let decision = candidates
                .inspect(|_| scanned += 1)
                .filter(|b| b.fits(item.size))
                .min_by_key(|b| b.level().key(scal))
                .map(|b| Decision::Existing(b.id()))
                .unwrap_or(Decision::New { tag });
            (decision, scanned)
        }
        FitRule::Next => {
            let mut candidates = candidates;
            let decision = candidates
                .next_back()
                .inspect(|_| scanned = 1)
                .filter(|b| b.fits(item.size))
                .map(|b| Decision::Existing(b.id()))
                .unwrap_or(Decision::New { tag });
            (decision, scanned)
        }
    }
}

/// [`rule_tagged`] dispatched by [`ScanMode`].
///
/// The indexed paths answer from the [`OpenBins`] fit queries, whose
/// keys encode the same tie-breaks the linear fold applies: Best Fit
/// takes the fullest feasible entry of the `(level, opening-order)` set
/// with level ties to the latest opened, Worst Fit the emptiest with
/// ties to the earliest. Next Fit reads the tag's newest bin in O(1)
/// either way, so the two modes share that arm.
pub(crate) fn rule_tagged_in<D: Demand>(
    mode: ScanMode,
    rule: FitRule,
    scal: Scalarization,
    tag: u64,
    item: &ItemView<D>,
    open_bins: &OpenBins<D>,
) -> (Decision, usize) {
    if mode == ScanMode::Linear || rule == FitRule::Next {
        return rule_tagged(rule, scal, tag, item, open_bins);
    }
    let (hit, probes) = match rule {
        FitRule::First => open_bins.first_fit(tag, item.size),
        FitRule::Best => open_bins.best_fit_by(tag, item.size, scal),
        FitRule::Worst => open_bins.worst_fit_by(tag, item.size, scal),
        FitRule::Next => unreachable!("handled by the linear arm"),
    };
    let decision = hit.map(Decision::Existing).unwrap_or(Decision::New { tag });
    (decision, probes)
}
