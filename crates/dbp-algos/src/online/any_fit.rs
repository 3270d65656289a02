//! The Any Fit family: First, Best, Worst, Next Fit.
//!
//! These are the classical non-clairvoyant baselines analyzed by Li et al.
//! (First/Best Fit; Any Fit lower bound `μ+1`), Kamali & López-Ortiz (Next
//! Fit, `2μ+1`), and Tang et al. (First Fit, `μ+4`). They never consult
//! departure times, so they run identically under clairvoyant and
//! non-clairvoyant engines.
//!
//! The rules pack any [`Demand`] type. Under vector demands an item fits
//! a bin only on every axis, and Best/Worst Fit rank levels by a
//! [`Scalarization`] (sum of axis levels by default); for one axis every
//! scalarization is the level itself.

use super::{rule_tagged_in, ScanMode};
use dbp_core::online::{Decision, ItemView, OnlinePacker, OpenBins};
use dbp_core::{Demand, Scalarization};

/// Which open bin an [`AnyFit`] packer prefers among those that fit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FitRule {
    /// Earliest-opened feasible bin (First Fit).
    First,
    /// Highest-level feasible bin, ties to earliest opened (Best Fit).
    Best,
    /// Lowest-level feasible bin, ties to earliest opened (Worst Fit).
    Worst,
    /// Only the most recently opened bin is considered (Next Fit).
    Next,
}

impl FitRule {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FitRule::First => "first-fit",
            FitRule::Best => "best-fit",
            FitRule::Worst => "worst-fit",
            FitRule::Next => "next-fit",
        }
    }
}

/// An Any Fit packer: opens a new bin only when no open bin fits
/// (except [`FitRule::Next`], which only ever looks at the newest bin,
/// matching Kamali & López-Ortiz's Next Fit for DBP).
/// # Example
///
/// ```
/// use dbp_algos::online::AnyFit;
/// use dbp_core::{Instance, OnlineEngine};
///
/// let jobs = Instance::from_triples(&[(0.5, 0, 10), (0.5, 2, 8)]);
/// let run = OnlineEngine::non_clairvoyant()
///     .run(&jobs, &mut AnyFit::first_fit())
///     .unwrap();
/// assert_eq!(run.bins_opened(), 1); // both halves share one bin
/// assert_eq!(run.usage, 10);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct AnyFit {
    rule: FitRule,
    scal: Scalarization,
    mode: ScanMode,
    scanned: usize,
}

impl AnyFit {
    /// Creates a packer with the given preference rule (sum
    /// scalarization).
    pub fn new(rule: FitRule) -> Self {
        AnyFit {
            rule,
            scal: Scalarization::default(),
            mode: ScanMode::default(),
            scanned: 0,
        }
    }

    /// Switches to the seed's linear open-bin walk — same decisions,
    /// O(category) per placement — for differential proofs and
    /// scan-depth ablations.
    pub fn with_linear_scan(mut self) -> Self {
        self.mode = ScanMode::Linear;
        self
    }

    /// Selects how Best/Worst Fit collapse a vector level to a rank (no
    /// effect on one axis).
    pub fn with_scalarization(mut self, scal: Scalarization) -> Self {
        self.scal = scal;
        self
    }

    /// Display name: the rule, plus the scalarization when it is not the
    /// default.
    pub fn name(&self) -> String {
        match self.scal {
            Scalarization::Sum => self.rule.name().to_string(),
            s => format!("{}[{}]", self.rule.name(), s.name()),
        }
    }

    /// First Fit — the best-known online algorithm in the non-clairvoyant
    /// setting (competitive ratio ≤ μ+4, Tang et al.).
    pub fn first_fit() -> Self {
        Self::new(FitRule::First)
    }

    /// Best Fit — unbounded competitive ratio for MinUsageTime DBP.
    pub fn best_fit() -> Self {
        Self::new(FitRule::Best)
    }

    /// Worst Fit.
    pub fn worst_fit() -> Self {
        Self::new(FitRule::Worst)
    }

    /// Next Fit — competitive ratio ≤ 2μ+1.
    pub fn next_fit() -> Self {
        Self::new(FitRule::Next)
    }
}

impl<D: Demand> OnlinePacker<D> for AnyFit {
    fn name(&self) -> String {
        AnyFit::name(self)
    }

    fn place(&mut self, item: &ItemView<D>, open_bins: &OpenBins<D>) -> Decision {
        let (decision, scanned) =
            rule_tagged_in(self.mode, self.rule, self.scal, 0, item, open_bins);
        self.scanned = scanned;
        decision
    }

    fn last_scanned(&self) -> Option<usize> {
        Some(self.scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::{Instance, OnlineEngine};

    fn run(rule: FitRule, inst: &Instance) -> dbp_core::OnlineRun {
        let mut p = AnyFit::new(rule);
        let out = OnlineEngine::non_clairvoyant().run(inst, &mut p).unwrap();
        out.packing.validate(inst).unwrap();
        out
    }

    #[test]
    fn first_fit_prefers_earliest_opened() {
        // Two bins get opened; a third small item fits both, goes to bin 0.
        let inst = Instance::from_triples(&[(0.6, 0, 100), (0.6, 1, 100), (0.3, 2, 100)]);
        let out = run(FitRule::First, &inst);
        assert_eq!(out.bins_opened(), 2);
        assert_eq!(out.packing.bin(dbp_core::BinId(0)).len(), 2);
    }

    #[test]
    fn best_fit_prefers_fullest() {
        // Bin 0 at 0.3, bin 1 at 0.6; a 0.3 item goes to bin 1 (fuller).
        let inst = Instance::from_triples(&[
            (0.3, 0, 100),
            (0.8, 1, 100), // forces a second bin
            (0.1, 2, 3),   // departs, leaving bin 1 at 0.8 — too full below
            (0.3, 5, 100),
        ]);
        // At t=5: bin0 level 0.3 (+0.1 departed), bin1 level 0.8.
        // 0.3 fits neither? 0.8+0.3 = 1.1 > 1, so only bin 0 fits → bin 0.
        let out = run(FitRule::Best, &inst);
        assert_eq!(out.bins_opened(), 2);

        // Clearer case: levels 0.3 and 0.5, item 0.3 → bin with 0.5.
        let inst2 = Instance::from_triples(&[
            (0.3, 0, 100),
            (0.7, 0, 4),   // shares bin 0 (level 1.0)
            (0.5, 1, 100), // must open bin 1
            (0.3, 6, 100), // levels now: bin0=0.3, bin1=0.5 → best fit = bin1
        ]);
        let out2 = run(FitRule::Best, &inst2);
        assert_eq!(out2.bins_opened(), 2);
        let b1 = out2.packing.bin(dbp_core::BinId(1));
        assert!(b1.contains(&dbp_core::ItemId(3)));
    }

    #[test]
    fn worst_fit_prefers_emptiest() {
        let inst = Instance::from_triples(&[
            (0.3, 0, 100),
            (0.7, 0, 4),
            (0.5, 1, 100),
            (0.3, 6, 100), // levels: bin0=0.3, bin1=0.5 → worst fit = bin0
        ]);
        let out = run(FitRule::Worst, &inst);
        let b0 = out.packing.bin(dbp_core::BinId(0));
        assert!(b0.contains(&dbp_core::ItemId(3)));
    }

    #[test]
    fn next_fit_ignores_older_bins() {
        // Bin 0 has room, but Next Fit only checks the newest bin.
        let inst = Instance::from_triples(&[
            (0.2, 0, 100),
            (0.9, 1, 100), // doesn't fit bin 0 → opens bin 1
            (0.2, 2, 100), // fits bin 0, but newest is bin 1 (0.9) → bin 2
        ]);
        let out = run(FitRule::Next, &inst);
        assert_eq!(out.bins_opened(), 3);
    }

    #[test]
    fn any_fit_property_never_opens_when_newest_fits() {
        // Sanity: when everything fits in one bin, all rules use one bin.
        let inst =
            Instance::from_triples(&[(0.2, 0, 10), (0.2, 1, 10), (0.2, 2, 10), (0.2, 3, 10)]);
        for rule in [FitRule::First, FitRule::Best, FitRule::Worst, FitRule::Next] {
            assert_eq!(run(rule, &inst).bins_opened(), 1, "{:?}", rule);
        }
    }
}
