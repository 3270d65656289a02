//! Items: the jobs to be packed.

use crate::demand::Demand;
use crate::error::DbpError;
use crate::interval::{Interval, Time};
use crate::size::Size;
use crate::sizevec::SizeVec;
use std::fmt;

/// Identifier of an item, unique within an [`crate::Instance`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u32);

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A job/item `r`: a size `s(r) ∈ (0, 1]` active over `I(r) = [arrival,
/// departure)`. The size is a [`Demand`]: a scalar [`Size`] by default,
/// or a [`SizeVec`] with every axis in `(0, 1]` for vector packing.
///
/// Items are immutable once constructed; algorithms never mutate items, only
/// assign them to bins.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Item<D = Size> {
    id: ItemId,
    size: D,
    interval: Interval,
}

impl<D: Demand> Item<D> {
    /// Constructs an item, panicking on invalid size or interval.
    ///
    /// Use [`Item::try_new`] for fallible construction from untrusted input.
    #[track_caller]
    pub fn new(id: u32, size: D, arrival: Time, departure: Time) -> Item<D> {
        Item::try_new(id, size, arrival, departure).expect("invalid item")
    }

    /// Fallible construction: requires `0 < size ≤ 1` (on every axis)
    /// and `arrival < departure`.
    pub fn try_new(id: u32, size: D, arrival: Time, departure: Time) -> Result<Item<D>, DbpError> {
        if !size.is_valid_item_size() {
            return Err(DbpError::InvalidSize {
                what: format!("item {id} has size {size} outside (0, 1]"),
            });
        }
        Ok(Item {
            id: ItemId(id),
            size,
            interval: Interval::new(arrival, departure)?,
        })
    }

    /// The item id.
    #[inline]
    pub fn id(&self) -> ItemId {
        self.id
    }

    /// The item size `s(r)`.
    #[inline]
    pub fn size(&self) -> D {
        self.size
    }

    /// The active interval `I(r)`.
    #[inline]
    pub fn interval(&self) -> Interval {
        self.interval
    }

    /// Arrival time `I(r)⁻`.
    #[inline]
    pub fn arrival(&self) -> Time {
        self.interval.start()
    }

    /// Departure time `I(r)⁺`.
    #[inline]
    pub fn departure(&self) -> Time {
        self.interval.end()
    }

    /// Duration `l(I(r))`.
    #[inline]
    pub fn duration(&self) -> i64 {
        self.interval.len()
    }

    /// Whether the item is active at time `t`.
    #[inline]
    pub fn active_at(&self, t: Time) -> bool {
        self.interval.contains(t)
    }

    /// A copy with a different id (used when merging instances).
    pub fn with_id(&self, id: u32) -> Item<D> {
        Item {
            id: ItemId(id),
            ..*self
        }
    }

    /// A copy with a different departure time (used by the noisy-clairvoyance
    /// simulator to build *estimated* items).
    pub fn with_departure(&self, departure: Time) -> Result<Item<D>, DbpError> {
        Ok(Item {
            interval: Interval::new(self.arrival(), departure)?,
            ..*self
        })
    }
}

impl Item {
    /// Time–space demand `s(r)·l(I(r))` in raw-size × tick units.
    #[inline]
    pub fn demand(&self) -> u128 {
        self.size.demand_over(self.duration())
    }
}

impl Item<SizeVec> {
    /// Lifts a scalar [`Item`] to `dims` axes by replicating its size —
    /// the embedding used by the dim-1 equivalence proofs and the CLI's
    /// `--dims` plumbing.
    #[track_caller]
    pub fn lift(item: &Item, dims: usize) -> Item<SizeVec> {
        Item {
            id: item.id,
            size: SizeVec::splat(dims, item.size),
            interval: item.interval,
        }
    }
}

impl<D: fmt::Debug> fmt::Debug for Item<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(s={:?}, I={})", self.id, self.size, self.interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Item::try_new(0, Size::ZERO, 0, 1).is_err());
        assert!(Item::try_new(0, Size::CAPACITY + Size::EPSILON, 0, 1).is_err());
        assert!(Item::try_new(0, Size::HALF, 5, 5).is_err());
        assert!(Item::try_new(0, Size::HALF, 5, 6).is_ok());
        assert!(matches!(
            Item::try_new(0, Size::HALF, i64::MIN, i64::MAX),
            Err(DbpError::IntervalOverflow { .. })
        ));
    }

    #[test]
    fn accessors() {
        let r = Item::new(7, Size::from_f64(0.25), 10, 30);
        assert_eq!(r.id(), ItemId(7));
        assert_eq!(r.arrival(), 10);
        assert_eq!(r.departure(), 30);
        assert_eq!(r.duration(), 20);
        assert_eq!(r.demand(), Size::from_f64(0.25).raw() as u128 * 20);
        assert!(r.active_at(10));
        assert!(r.active_at(29));
        assert!(!r.active_at(30));
    }

    #[test]
    fn with_departure_revalidates() {
        let r = Item::new(0, Size::HALF, 10, 30);
        assert_eq!(r.with_departure(40).unwrap().duration(), 30);
        assert!(r.with_departure(10).is_err());
    }

    #[test]
    fn vec_item_validation() {
        assert!(Item::try_new(0, SizeVec::from_f64s(&[0.5, 0.5]), 0, 10).is_ok());
        let zero_axis = SizeVec::new(&[Size::HALF, Size::ZERO]);
        assert!(matches!(
            Item::try_new(1, zero_axis, 0, 10),
            Err(DbpError::InvalidSize { .. })
        ));
        assert!(matches!(
            Item::try_new(2, SizeVec::from_f64s(&[0.5]), 10, 10),
            Err(DbpError::EmptyInterval { .. })
        ));
        assert!(matches!(
            Item::try_new(3, SizeVec::from_f64s(&[0.5]), i64::MIN, i64::MAX),
            Err(DbpError::IntervalOverflow { .. })
        ));
    }
}
