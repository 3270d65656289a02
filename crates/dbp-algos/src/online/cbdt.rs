//! Classify-by-departure-time First Fit (§5.2).
//!
//! Time is split into intervals of length `ρ`; items are classified by the
//! interval their *departure* falls in, and each category is packed by First
//! Fit separately. Items in one bin then depart at around the same time, so
//! the bin closes promptly after its first departures — avoiding the
//! long-tail low-level bins that hurt plain First Fit.
//!
//! Theorem 4: the competitive ratio is at most `ρ/Δ + μΔ/ρ + 3`; with
//! `ρ = √μ·Δ` (durations known) this becomes `2√μ + 3`.

use super::{first_fit_tagged_in, ScanMode};
use dbp_core::error::DbpError;
use dbp_core::interval::Time;
use dbp_core::online::{Decision, ItemView, OnlinePacker, OpenBins, PackerState};
use dbp_core::Demand;

/// Classify-by-departure-time First Fit with interval length `ρ` (ticks).
///
/// Category boundaries are anchored at the first arrival the packer
/// observes, matching the paper's convention that the first item arrives at
/// time 0 and the first category is departures in `(0, ρ]`. Packs any
/// [`Demand`] type: categories depend only on time, feasibility inside a
/// category is the demand type's.
/// # Example
///
/// ```
/// use dbp_algos::online::ClassifyByDepartureTime;
/// use dbp_core::{Instance, OnlineEngine};
///
/// // Two items departing ~together share; a late-departing one doesn't.
/// let jobs = Instance::from_triples(&[
///     (0.3, 0, 9),
///     (0.3, 1, 10),
///     (0.3, 2, 95),
/// ]);
/// let mut packer = ClassifyByDepartureTime::new(10);
/// let run = OnlineEngine::clairvoyant().run(&jobs, &mut packer).unwrap();
/// assert_eq!(run.bins_opened(), 2);
/// ```
///
#[derive(Clone, Debug)]
pub struct ClassifyByDepartureTime {
    rho: i64,
    epoch: Option<Time>,
    mode: ScanMode,
    scanned: usize,
}

impl ClassifyByDepartureTime {
    /// Creates the packer with interval length `ρ ≥ 1`.
    ///
    /// # Panics
    /// If `rho < 1`.
    pub fn new(rho: i64) -> Self {
        assert!(rho >= 1, "rho must be at least one tick");
        ClassifyByDepartureTime {
            rho,
            epoch: None,
            mode: ScanMode::default(),
            scanned: 0,
        }
    }

    /// Switches to the seed's linear category walk — same decisions,
    /// O(category) per placement — for differential proofs.
    pub fn with_linear_scan(mut self) -> Self {
        self.mode = ScanMode::Linear;
        self
    }

    /// The optimal parameter when `Δ` and `μ` are known: `ρ = √μ·Δ`
    /// (rounded to the nearest tick, at least 1), giving competitive ratio
    /// `2√μ + 3` (Theorem 4).
    pub fn with_known_durations(min_duration: i64, mu: f64) -> Self {
        let rho = ((mu.sqrt() * min_duration as f64).round() as i64).max(1);
        Self::new(rho)
    }

    /// The configured `ρ`.
    pub fn rho(&self) -> i64 {
        self.rho
    }

    /// Display name including `ρ`.
    pub fn name(&self) -> String {
        format!("cbdt(rho={})", self.rho)
    }

    /// The departure-time category of an item departing at `dep`, with
    /// category `i` covering departures in `(epoch + (i−1)ρ, epoch + iρ]`.
    fn category(&self, dep: Time) -> u64 {
        let epoch = self.epoch.expect("category queried before first arrival");
        departure_class(dep, epoch, self.rho)
    }
}

/// `⌈(dep − epoch) / ρ⌉`, the departure class of an item departing at
/// `dep`. The offset is at least 1 when `epoch` is the session's first
/// arrival, since `dep > arrival ≥ epoch`; an epoch restored from a
/// checkpoint that is not (one after `dep`, or far enough from it to
/// overflow the subtraction) puts the item in class 1.
pub(crate) fn departure_class(dep: Time, epoch: Time, rho: i64) -> u64 {
    let off = dep.saturating_sub(epoch).max(1);
    ((off - 1) / rho + 1) as u64
}

impl<D: Demand> OnlinePacker<D> for ClassifyByDepartureTime {
    fn name(&self) -> String {
        ClassifyByDepartureTime::name(self)
    }

    fn reset(&mut self) {
        self.epoch = None;
    }

    fn place(&mut self, item: &ItemView<D>, open_bins: &OpenBins<D>) -> Decision {
        if self.epoch.is_none() {
            self.epoch = Some(item.arrival);
        }
        let dep = item
            .departure
            .expect("ClassifyByDepartureTime requires a clairvoyant engine");
        let tag = self.category(dep);
        let (decision, scanned) = first_fit_tagged_in(self.mode, tag, item.size, open_bins);
        self.scanned = scanned;
        decision
    }

    fn last_scanned(&self) -> Option<usize> {
        Some(self.scanned)
    }

    fn save_state(&self) -> PackerState {
        let mut st = PackerState::new();
        if let Some(e) = self.epoch {
            st.set("epoch", e);
        }
        st
    }

    fn restore_state(&mut self, state: &PackerState) -> Result<(), DbpError> {
        self.epoch = state.get("epoch");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::{Instance, OnlineEngine};

    #[test]
    fn categories_are_departure_buckets() {
        let mut p = ClassifyByDepartureTime::new(10);
        p.epoch = Some(0);
        assert_eq!(p.category(1), 1);
        assert_eq!(p.category(10), 1);
        assert_eq!(p.category(11), 2);
        assert_eq!(p.category(20), 2);
        assert_eq!(p.category(21), 3);
    }

    #[test]
    fn a_restored_epoch_past_the_departure_gives_class_one() {
        let mut p = ClassifyByDepartureTime::new(10);
        p.epoch = Some(100);
        assert_eq!(p.category(50), 1);
        p.epoch = Some(Time::MIN);
        assert_eq!(p.category(Time::MAX), (Time::MAX - 1) as u64 / 10 + 1);
        p.epoch = Some(Time::MAX);
        assert_eq!(p.category(Time::MIN), 1);
    }

    #[test]
    fn epoch_anchored_at_first_arrival() {
        let mut p = ClassifyByDepartureTime::new(10);
        p.epoch = Some(100);
        assert_eq!(p.category(101), 1);
        assert_eq!(p.category(110), 1);
        assert_eq!(p.category(111), 2);
    }

    #[test]
    fn same_category_shares_bins_different_categories_do_not() {
        // Two items with similar departures share; a distant-departure item
        // does not, even though it would fit.
        let inst = Instance::from_triples(&[
            (0.3, 0, 9),  // category 1 (dep ≤ 10)
            (0.3, 1, 10), // category 1
            (0.3, 2, 95), // category 10
        ]);
        let mut p = ClassifyByDepartureTime::new(10);
        let run = OnlineEngine::clairvoyant().run(&inst, &mut p).unwrap();
        run.packing.validate(&inst).unwrap();
        assert_eq!(run.bins_opened(), 2);
        assert_eq!(run.packing.bin(dbp_core::BinId(0)).len(), 2);
    }

    #[test]
    fn avoids_long_tail_bins() {
        // The classic FF failure: alternating (tiny, long) and (filler,
        // short) items fill each bin exactly, leaving every bin held open
        // for the full horizon by one tiny item. CBDT groups the tinies
        // (same departure window) into one bin.
        let tiny = 1.0 / 16.0;
        let filler = 15.0 / 16.0;
        let mut triples = Vec::new();
        for _ in 0..5 {
            triples.push((tiny, 0i64, 100i64));
            triples.push((filler, 0i64, 1i64));
        }
        let inst = Instance::from_triples(&triples);
        let mut cbdt = ClassifyByDepartureTime::new(10);
        let run_cbdt = OnlineEngine::clairvoyant().run(&inst, &mut cbdt).unwrap();
        run_cbdt.packing.validate(&inst).unwrap();
        let mut ff = crate::online::AnyFit::first_fit();
        let run_ff = OnlineEngine::clairvoyant().run(&inst, &mut ff).unwrap();
        // FF: 5 bins × 100 ticks; CBDT: one 100-tick bin + 5 filler bins.
        assert_eq!(run_ff.usage, 500);
        assert_eq!(run_cbdt.usage, 105);
    }

    #[test]
    fn with_known_durations_sets_sqrt_mu_rho() {
        let p = ClassifyByDepartureTime::with_known_durations(10, 16.0);
        assert_eq!(p.rho(), 40);
    }

    #[test]
    fn reset_clears_epoch() {
        let inst = Instance::from_triples(&[(0.5, 50, 60)]);
        let mut p = ClassifyByDepartureTime::new(10);
        let engine = OnlineEngine::clairvoyant();
        engine.run(&inst, &mut p).unwrap();
        // Re-run with an earlier first arrival: must not panic or misuse
        // the stale epoch.
        let inst2 = Instance::from_triples(&[(0.5, 0, 10)]);
        engine.run(&inst2, &mut p).unwrap();
    }

    #[test]
    #[should_panic(expected = "clairvoyant")]
    fn requires_clairvoyance() {
        let inst = Instance::from_triples(&[(0.5, 0, 10)]);
        let mut p = ClassifyByDepartureTime::new(10);
        let _ = OnlineEngine::non_clairvoyant().run(&inst, &mut p);
    }
}
