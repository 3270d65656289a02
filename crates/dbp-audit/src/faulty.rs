//! Deliberately broken packers: the audit subsystem's own test fixtures.
//!
//! These exist to prove the pipeline end to end — a real bug must be
//! *caught* (as a violation, not a crash), *shrunk* to a minimal witness,
//! and *persisted* as a replayable fixture, all without aborting the
//! surrounding sweep. They are exported (not `#[cfg(test)]`) so the CLI's
//! `audit --self-test` can run the same proof on demand, but they must
//! never appear in the real roster.

use dbp_core::online::{Decision, ItemView, OpenBins};
use dbp_core::{OnlinePacker, SizeVec};

/// First Fit with the capacity check ignored: places into the first open
/// bin with *any* headroom, even when the item does not fit. The engine
/// rejects the overfull placement ([`dbp_core::DbpError::BadDecision`]),
/// which the audit reports as an engine-error violation. Minimal witness:
/// two overlapping items whose sizes sum past capacity.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverfullFirstFit;

impl OnlinePacker for OverfullFirstFit {
    fn name(&self) -> String {
        "faulty-overfull-ff".into()
    }

    fn place(&mut self, _item: &ItemView, open_bins: &OpenBins) -> Decision {
        for b in open_bins {
            if b.level() < dbp_core::Size::CAPACITY {
                return Decision::Existing(b.id());
            }
        }
        Decision::New { tag: 0 }
    }
}

/// Vector First Fit that checks feasibility on **axis 0 only** — the
/// classic scalar-brained bug a vector packer can have. With two or more
/// dimensions it happily overfills any later axis; the engine rejects the
/// placement ([`dbp_core::DbpError::BadDecision`]), which the vector
/// audit reports as an engine-error violation. Minimal witness: two
/// overlapping items light on axis 0 and heavy on axis 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct AxisBlindFirstFit;

impl OnlinePacker<SizeVec> for AxisBlindFirstFit {
    fn name(&self) -> String {
        "faulty-axis-blind-ff".into()
    }

    fn place(&mut self, item: &ItemView<SizeVec>, open_bins: &OpenBins<SizeVec>) -> Decision {
        for b in open_bins {
            if item.size.axis(0) <= b.gap().axis(0) {
                return Decision::Existing(b.id());
            }
        }
        Decision::New { tag: 0 }
    }
}

/// Panics on its `n`-th placement (1-based): exercises panic isolation in
/// the sweep and in the shrinker's predicate. Minimal witness: `n` items.
#[derive(Clone, Copy, Debug)]
pub struct PanicOnNth {
    n: usize,
    placed: usize,
}

impl PanicOnNth {
    /// Panics when asked to place the `n`-th item (`n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        PanicOnNth { n, placed: 0 }
    }
}

impl OnlinePacker for PanicOnNth {
    fn name(&self) -> String {
        format!("faulty-panic-on-{}", self.n)
    }

    fn reset(&mut self) {
        self.placed = 0;
    }

    fn place(&mut self, item: &ItemView, _open_bins: &OpenBins) -> Decision {
        self.placed += 1;
        if self.placed >= self.n {
            panic!("injected fault: refusing to place item {}", item.id);
        }
        Decision::New { tag: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::{
        DbpError, Instance, OnlineEngine, VecClairvoyance, VecInstance, VecItem,
        VecStreamingSession,
    };

    #[test]
    fn axis_blind_ff_is_rejected_by_the_engine() {
        // Axis 0 has room, axis 1 does not: the blind packer reuses the
        // bin and the engine refuses.
        let items = vec![
            VecItem::new(0, SizeVec::from_f64s(&[0.2, 0.8]), 0, 10),
            VecItem::new(1, SizeVec::from_f64s(&[0.2, 0.8]), 1, 9),
        ];
        let inst = VecInstance::from_items(items).unwrap();
        let err = VecStreamingSession::run(
            VecClairvoyance::NonClairvoyant,
            &inst,
            &mut AxisBlindFirstFit,
        )
        .unwrap_err();
        assert!(matches!(err, DbpError::BadDecision { .. }));
    }

    #[test]
    fn overfull_ff_is_rejected_by_the_engine() {
        let inst = Instance::from_triples(&[(0.7, 0, 10), (0.7, 1, 9)]);
        let err = OnlineEngine::non_clairvoyant()
            .run(&inst, &mut OverfullFirstFit)
            .unwrap_err();
        assert!(matches!(err, DbpError::BadDecision { .. }));
    }

    #[test]
    fn panic_on_nth_fires_exactly_at_n() {
        let inst = Instance::from_triples(&[(0.2, 0, 5), (0.2, 1, 6), (0.2, 2, 7)]);
        let _quiet = crate::QuietPanics::new();
        let result = crate::fuzz::isolated(|| {
            OnlineEngine::non_clairvoyant().run(&inst, &mut PanicOnNth::new(3))
        });
        let msg = result.unwrap_err();
        assert!(msg.contains("injected fault"));
        // n larger than the instance never fires.
        let ok = OnlineEngine::non_clairvoyant()
            .run(&inst, &mut PanicOnNth::new(4))
            .unwrap();
        assert_eq!(ok.packing.num_bins(), 3);
    }
}
