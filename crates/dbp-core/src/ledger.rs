//! The one duplicate-id check, kept where jobs enter the system: the
//! `dbp-shard` and `dbp-serve` coordinators. Sessions keep no id history.

use std::collections::HashSet;

/// Decided job ids: every id below the watermark, plus the exact set of
/// those at or above it (O(1) while ids arrive roughly in order).
#[derive(Clone, Debug, Default)]
pub struct IdLedger {
    watermark: u32,
    above: HashSet<u32>,
}

impl IdLedger {
    /// A ledger with no id decided.
    pub fn new() -> IdLedger {
        IdLedger::default()
    }

    /// Every id below `watermark` and in `above` decided. Any list
    /// restores: ids below the watermark are dropped, contiguous ones
    /// absorbed.
    pub fn restore(watermark: u32, above: &[u32]) -> IdLedger {
        let above = above.iter().copied().filter(|&id| id >= watermark);
        let mut ledger = IdLedger {
            watermark,
            above: above.collect(),
        };
        ledger.advance();
        ledger
    }

    /// Whether `id` was decided.
    pub fn contains(&self, id: u32) -> bool {
        id < self.watermark || self.above.contains(&id)
    }

    /// Records `id` as decided; `false` if it already was.
    pub fn insert(&mut self, id: u32) -> bool {
        if id < self.watermark || !self.above.insert(id) {
            return false;
        }
        self.advance();
        true
    }

    /// Every id below this is decided.
    pub fn watermark(&self) -> u32 {
        self.watermark
    }

    /// The decided ids at or above the watermark, sorted.
    pub fn above(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.above.iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Moves the watermark over contiguous decided ids; `u32::MAX` stays
    /// in the set, as absorbing it would need `u32::MAX + 1`.
    fn advance(&mut self) {
        while self.watermark < u32::MAX && self.above.remove(&self.watermark) {
            self.watermark += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_ids_leave_no_overflow() {
        let mut ids = IdLedger::new();
        for id in 0..10_000 {
            assert!(ids.insert(id));
            assert_eq!((ids.watermark(), ids.above()), (id + 1, vec![]));
        }
        assert!(!ids.insert(7) && ids.contains(7) && !ids.contains(10_000));
    }

    #[test]
    fn out_of_order_ids_drain_into_watermark() {
        // Ids arrive pairwise swapped (1,0,3,2,…): the overflow set holds
        // at most the one id ahead of the watermark and drains as soon as
        // the gap fills.
        let mut ids = IdLedger::new();
        for pair in 0..500u32 {
            let (hi, lo) = (2 * pair + 1, 2 * pair);
            assert!(ids.insert(hi));
            assert_eq!((ids.watermark(), ids.above()), (lo, vec![hi]));
            assert!(!ids.insert(hi), "a pending id is a duplicate");
            assert!(ids.insert(lo));
            assert_eq!((ids.watermark(), ids.above()), (hi + 1, vec![]));
        }
    }

    #[test]
    fn the_largest_id_stays_above_a_full_watermark() {
        let mut ids = IdLedger::restore(u32::MAX, &[]);
        assert!(ids.insert(u32::MAX));
        assert_eq!((ids.watermark(), ids.above()), (u32::MAX, vec![u32::MAX]));
        assert!(!ids.insert(u32::MAX));
        assert!(!ids.insert(5));
    }

    #[test]
    fn restore_drops_stale_entries_and_drains_contiguous_ones() {
        let ids = IdLedger::restore(3, &[9, 4, 3, 1, 5]);
        assert_eq!((ids.watermark(), ids.above()), (6, vec![9]));
        let ids = IdLedger::restore(u32::MAX - 1, &[u32::MAX, u32::MAX - 1, u32::MAX]);
        assert_eq!((ids.watermark(), ids.above()), (u32::MAX, vec![u32::MAX]));
    }
}
