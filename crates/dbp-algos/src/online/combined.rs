//! The combined classification strategy sketched in §5.4/§6.
//!
//! The paper observes that classify-by-departure-time wins for small `μ`
//! and classify-by-duration wins for large `μ`, and proposes (as future
//! work) to *first* classify by duration — reducing the intra-category
//! duration ratio to `α` — and *then* classify each duration category by
//! departure time. Within a duration category the effective `μ` is at most
//! `α`, so the departure-interval length can be chosen as `ρᵢ = √α · bᵢ`
//! where `bᵢ` is the category's minimum duration.
//!
//! This module implements exactly that composition. Tags combine the two
//! class indices into one `u64` (duration class in the high 32 bits).

use super::{first_fit_tagged_in, ScanMode};
use dbp_core::error::DbpError;
use dbp_core::interval::Time;
use dbp_core::online::{Decision, ItemView, OnlinePacker, OpenBins, PackerState};

use super::cbd::ClassifyByDuration;
use super::cbdt::departure_class;

/// Duration-then-departure-time classified First Fit.
#[derive(Clone, Debug)]
pub struct CombinedClassify {
    duration: ClassifyByDuration,
    epoch: Option<Time>,
    mode: ScanMode,
    scanned: usize,
}

impl CombinedClassify {
    /// Creates the combined packer from a duration classification
    /// (`base`, `alpha`); departure-interval lengths per duration category
    /// are derived as `ρᵢ = √α · (category minimum duration)`.
    pub fn new(base: i64, alpha: f64) -> Self {
        CombinedClassify {
            duration: ClassifyByDuration::new(base, alpha),
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

    /// Known-durations configuration mirroring
    /// [`ClassifyByDuration::with_known_durations`].
    pub fn with_known_durations(min_duration: i64, mu: f64) -> Self {
        let inner = ClassifyByDuration::with_known_durations(min_duration, mu);
        CombinedClassify {
            epoch: None,
            duration: inner,
            mode: ScanMode::default(),
            scanned: 0,
        }
    }

    /// The ρ used inside duration category `cat` (whose minimum duration is
    /// `b·α^(cat)`): `√α` times that minimum, at least one tick.
    fn rho_for(&self, dur_cat_lower: f64) -> i64 {
        ((self.duration.alpha().sqrt() * dur_cat_lower).round() as i64).max(1)
    }
}

impl OnlinePacker for CombinedClassify {
    fn name(&self) -> String {
        format!(
            "combined(b={},alpha={:.3})",
            self.duration.base(),
            self.duration.alpha()
        )
    }

    fn reset(&mut self) {
        self.epoch = None;
    }

    fn place(&mut self, item: &ItemView, open_bins: &OpenBins) -> Decision {
        if self.epoch.is_none() {
            self.epoch = Some(item.arrival);
        }
        let dep = item
            .departure
            .expect("CombinedClassify requires a clairvoyant engine");
        let dur = dep - item.arrival;
        let dur_tag = self.duration.category(dur);
        // Lower boundary of this duration category: b·α^i where the stored
        // tag is i + 2^32.
        let i = dur_tag as i64 - (1 << 32);
        let lower = self.duration.base() as f64 * self.duration.alpha().powi(i as i32);
        let rho = self.rho_for(lower);
        let dep_tag = departure_class(dep, self.epoch.unwrap(), rho);
        // Duration class in high 32 bits, departure class (mod 2^32) low.
        let tag = (dur_tag << 32) | (dep_tag & 0xFFFF_FFFF);
        let (decision, scanned) = first_fit_tagged_in(self.mode, tag, item.size, open_bins);
        self.scanned = scanned;
        decision
    }

    fn last_scanned(&self) -> Option<usize> {
        Some(self.scanned)
    }

    fn save_state(&self) -> PackerState {
        // The duration classifier is pure configuration; only the
        // departure-class epoch is run state.
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
    fn separates_by_both_dimensions() {
        // Four items: two short-now, one short-later, one long-now.
        let inst = Instance::from_triples(&[
            (0.2, 0, 10),    // short, departs early
            (0.2, 1, 10),    // short, departs early — shares
            (0.2, 0, 1000),  // long — different duration class
            (0.2, 500, 510), // short, departs late — different departure class
        ]);
        let mut p = CombinedClassify::new(8, 2.0);
        let run = OnlineEngine::clairvoyant().run(&inst, &mut p).unwrap();
        run.packing.validate(&inst).unwrap();
        assert_eq!(run.bins_opened(), 3);
        assert_eq!(run.packing.bin(dbp_core::BinId(0)).len(), 2);
    }

    #[test]
    fn valid_on_mixed_workload() {
        let inst = Instance::from_triples(&[
            (0.5, 0, 7),
            (0.4, 2, 30),
            (0.6, 3, 9),
            (0.2, 5, 200),
            (0.9, 8, 20),
            (0.3, 12, 19),
            (0.3, 14, 300),
        ]);
        let mut p = CombinedClassify::with_known_durations(6, 50.0);
        let run = OnlineEngine::clairvoyant().run(&inst, &mut p).unwrap();
        run.packing.validate(&inst).unwrap();
        assert_eq!(run.usage, run.packing.total_usage(&inst));
    }
}
