//! Event counts over a packing run.
//!
//! [`Counters`] is the cheapest real observer: a handful of integer adds
//! per event, and no clock reads (it keeps the default
//! [`PackObserver::wants_timing`], which declines). It is what
//! `dbp-bench` attaches to every measurement so that
//! [`CountersSnapshot`] can ride along in `Measurement` and `SimReport`
//! without meaningfully perturbing timings. Every field is a pure
//! function of the event stream, so two runs of one stream count the
//! same and shards merge by a plain sum. Decision latency is sampled by
//! `dbp-telemetry`'s recorder, not counted here.

use dbp_core::observe::{FitDecision, PackEvent, PackObserver};

/// Accumulates counters from the event stream.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    snap: CountersSnapshot,
}

impl Counters {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The totals so far.
    pub fn snapshot(&self) -> CountersSnapshot {
        self.snap
    }
}

impl PackObserver for Counters {
    #[inline]
    fn on_event(&mut self, event: &PackEvent) {
        let s = &mut self.snap;
        match event {
            PackEvent::ItemArrived { .. } => s.items_packed += 1,
            PackEvent::EstimateUsed { .. } => s.estimates_used += 1,
            PackEvent::PlacementDecided {
                fit_rule,
                candidates_scanned,
                ..
            } => {
                if *fit_rule == FitDecision::Reused {
                    s.placements_reused += 1;
                }
                s.candidates_scanned += *candidates_scanned as u64;
            }
            PackEvent::BinOpened { .. } => s.bins_opened += 1,
            PackEvent::BinClosed { .. } => s.bins_closed += 1,
            PackEvent::BinFailed { .. } => s.bins_failed += 1,
            PackEvent::ArrivalShed { .. } => s.arrivals_shed += 1,
            PackEvent::LevelChanged { .. } => {}
        }
    }
}

/// A point-in-time copy of the run counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Items fed to the packer.
    pub items_packed: u64,
    /// Placements that reused an open bin.
    pub placements_reused: u64,
    /// Bins opened.
    pub bins_opened: u64,
    /// Bins closed.
    pub bins_closed: u64,
    /// Total open bins inspected across all placement decisions (scan
    /// depth for reuses, rejections for opens).
    pub candidates_scanned: u64,
    /// Departure estimates substituted under noisy clairvoyance.
    pub estimates_used: u64,
    /// Bins killed by fault injection.
    pub bins_failed: u64,
    /// Arrivals shed by admission control.
    pub arrivals_shed: u64,
}

impl CountersSnapshot {
    /// Mean open bins scanned per placement (0 with no placements).
    pub fn mean_candidates(&self) -> f64 {
        if self.items_packed == 0 {
            0.0
        } else {
            self.candidates_scanned as f64 / self.items_packed as f64
        }
    }

    /// Fraction of placements that reused an open bin.
    pub fn reuse_fraction(&self) -> f64 {
        if self.items_packed == 0 {
            0.0
        } else {
            self.placements_reused as f64 / self.items_packed as f64
        }
    }

    /// Sums event counts across independent sessions (e.g. the shards of a
    /// `dbp-shard` fleet) into fleet-wide totals, field by field.
    pub fn merged(parts: &[CountersSnapshot]) -> CountersSnapshot {
        let mut out = CountersSnapshot::default();
        for p in parts {
            out.items_packed += p.items_packed;
            out.placements_reused += p.placements_reused;
            out.bins_opened += p.bins_opened;
            out.bins_closed += p.bins_closed;
            out.candidates_scanned += p.candidates_scanned;
            out.estimates_used += p.estimates_used;
            out.bins_failed += p.bins_failed;
            out.arrivals_shed += p.arrivals_shed;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::{BinId, ItemId, Size};

    #[test]
    fn counts_add_up() {
        let mut c = Counters::new();
        c.on_event(&PackEvent::ItemArrived {
            id: ItemId(0),
            size: Size::HALF,
            at: 0,
            departure: 9,
            visible_departure: Some(9),
        });
        c.on_event(&PackEvent::BinOpened {
            bin: BinId(0),
            at: 0,
            tag: 0,
        });
        c.on_event(&PackEvent::PlacementDecided {
            id: ItemId(0),
            bin: BinId(0),
            fit_rule: FitDecision::OpenedNew,
            candidates_scanned: 3,
        });
        c.on_event(&PackEvent::ItemArrived {
            id: ItemId(1),
            size: Size::HALF,
            at: 1,
            departure: 9,
            visible_departure: Some(9),
        });
        c.on_event(&PackEvent::PlacementDecided {
            id: ItemId(1),
            bin: BinId(0),
            fit_rule: FitDecision::Reused,
            candidates_scanned: 1,
        });
        c.on_event(&PackEvent::BinClosed {
            bin: BinId(0),
            at: 9,
            opened_at: 0,
            items: 2,
        });
        let s = c.snapshot();
        assert_eq!(s.items_packed, 2);
        assert_eq!(s.bins_opened, 1);
        assert_eq!(s.bins_closed, 1);
        assert_eq!(s.placements_reused, 1);
        assert_eq!(s.candidates_scanned, 4);
        assert!((s.mean_candidates() - 2.0).abs() < 1e-9);
        assert!((s.reuse_fraction() - 0.5).abs() < 1e-9);
    }

    /// Every derived mean must be exactly 0.0 — never NaN — when no
    /// placements happened, including on a merge of zero parts.
    #[test]
    fn means_are_zero_not_nan_with_no_placements() {
        for s in [CountersSnapshot::default(), CountersSnapshot::merged(&[])] {
            assert_eq!(s.items_packed, 0);
            assert_eq!(s.mean_candidates(), 0.0);
            assert_eq!(s.reuse_fraction(), 0.0);
        }
        // Non-placement activity alone must not poison the means either.
        let shed_only = CountersSnapshot {
            arrivals_shed: 5,
            bins_failed: 2,
            ..CountersSnapshot::default()
        };
        assert_eq!(shed_only.mean_candidates(), 0.0);
        assert_eq!(shed_only.reuse_fraction(), 0.0);
    }

    /// `merged` is a plain field-by-field sum: a one-part merge is the
    /// part, and the sum does not depend on the order of the parts.
    #[test]
    fn merged_is_a_plain_sum() {
        let a = CountersSnapshot {
            items_packed: 10,
            placements_reused: 4,
            bins_opened: 6,
            bins_closed: 5,
            candidates_scanned: 30,
            estimates_used: 1,
            bins_failed: 1,
            arrivals_shed: 2,
        };
        let b = CountersSnapshot {
            items_packed: 2,
            candidates_scanned: 6,
            ..CountersSnapshot::default()
        };
        let m = CountersSnapshot::merged(&[a, b]);
        assert_eq!(
            m,
            CountersSnapshot {
                items_packed: 12,
                candidates_scanned: 36,
                ..a
            }
        );
        assert_eq!(m, CountersSnapshot::merged(&[b, a]));
        assert!((m.mean_candidates() - 3.0).abs() < 1e-9);
        assert_eq!(CountersSnapshot::merged(&[a]), a);
    }
}
