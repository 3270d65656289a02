//! Problem instances: an item list `R` plus derived quantities.

use crate::error::DbpError;
use crate::interval::{span_of, Interval, Time};
use crate::item::{Item, ItemId};
use crate::size::Size;
use std::collections::HashSet;

/// An immutable list of items `R` with unique ids.
///
/// Construction validates the items (unique ids, sizes in `(0,1]`,
/// non-empty intervals). Items are stored sorted by `(arrival, id)` — the
/// order in which an online algorithm sees them. The shortest and
/// longest durations (`Δ`, `μΔ`) are found once, when the instance is
/// built, so reading them (and `μ`) costs nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    items: Vec<Item>,
    /// `(Δ, μΔ)`; `None` when there are no items.
    durations: Option<(i64, i64)>,
}

/// The shortest and longest of `durations`, in one pass; `None` when
/// there are none.
pub(crate) fn duration_range(durations: impl Iterator<Item = i64>) -> Option<(i64, i64)> {
    durations.fold(None, |range, d| match range {
        None => Some((d, d)),
        Some((lo, hi)) => Some((lo.min(d), hi.max(d))),
    })
}

impl Instance {
    /// Builds an instance from items, sorting them by arrival time
    /// (ties broken by id, matching "input order" for simultaneous
    /// arrivals).
    pub fn from_items(items: Vec<Item>) -> Result<Instance, DbpError> {
        let mut seen = HashSet::with_capacity(items.len());
        for it in &items {
            if !seen.insert(it.id()) {
                return Err(DbpError::DuplicateItemId { id: it.id().0 });
            }
        }
        let mut items = items;
        items.sort_by_key(|r| (r.arrival(), r.id()));
        let durations = duration_range(items.iter().map(Item::duration));
        Ok(Instance { items, durations })
    }

    /// Convenience builder from `(size_fraction, arrival, departure)`
    /// triples; ids are assigned 0..n in input order. Panics on invalid
    /// data — intended for tests and examples.
    #[track_caller]
    pub fn from_triples(triples: &[(f64, Time, Time)]) -> Instance {
        Instance::try_from_triples(triples).expect("invalid triples")
    }

    /// Fallible [`Instance::from_triples`]: the same dense id
    /// assignment, but index overflow and construction failures come
    /// back as typed errors instead of a panic or — worse — a silent
    /// `as u32` wrap into already-used ids.
    pub fn try_from_triples(triples: &[(f64, Time, Time)]) -> Result<Instance, DbpError> {
        let mut items = Vec::with_capacity(triples.len());
        for (i, &(s, a, d)) in triples.iter().enumerate() {
            items.push(Item::try_new(
                Instance::id_for_index(i)?,
                Size::from_f64(s),
                a,
                d,
            )?);
        }
        Instance::from_items(items)
    }

    /// Checked dense-index → item-id conversion: index `i` becomes id
    /// `i`, and indexes past `u32::MAX` are a typed error rather than a
    /// truncating cast (which would collide with id `i mod 2³²` and be
    /// refused as a duplicate).
    pub fn id_for_index(i: usize) -> Result<u32, DbpError> {
        u32::try_from(i).map_err(|_| DbpError::InvalidParameter {
            what: format!("item index {i} exceeds the u32 id space"),
        })
    }

    /// The items, sorted by `(arrival, id)`.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items `|R|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the instance has no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Looks up an item by id (O(n); build an index for hot paths).
    pub fn item(&self, id: ItemId) -> Option<&Item> {
        self.items.iter().find(|r| r.id() == id)
    }

    /// The span `span(R)`: measure of the union of active intervals
    /// (Proposition 2 lower bound).
    pub fn span(&self) -> i64 {
        span_of(self.items.iter().map(|r| r.interval()))
    }

    /// Total time–space demand `d(R) = Σ s(r)·l(I(r))` in raw-size × tick
    /// units (Proposition 1 lower bound, scaled by `Size::SCALE`).
    pub fn demand(&self) -> u128 {
        self.items.iter().map(|r| r.demand()).sum()
    }

    /// Minimum item duration `Δ`; `None` for an empty instance.
    pub fn min_duration(&self) -> Option<i64> {
        self.durations.map(|(min, _)| min)
    }

    /// Maximum item duration `μΔ`; `None` for an empty instance.
    pub fn max_duration(&self) -> Option<i64> {
        self.durations.map(|(_, max)| max)
    }

    /// The max/min duration ratio `μ ≥ 1`; `None` for an empty instance.
    pub fn mu(&self) -> Option<f64> {
        Some(self.max_duration()? as f64 / self.min_duration()? as f64)
    }

    /// Earliest arrival; `None` if empty.
    pub fn first_arrival(&self) -> Option<Time> {
        self.items.first().map(|r| r.arrival())
    }

    /// Latest departure; `None` if empty.
    pub fn last_departure(&self) -> Option<Time> {
        self.items.iter().map(|r| r.departure()).max()
    }

    /// The convex hull of all active intervals; `None` if empty.
    pub fn horizon(&self) -> Option<Interval> {
        Interval::new(self.first_arrival()?, self.last_departure()?).ok()
    }

    /// Splits into (small, large) item lists at the `1/2` threshold used by
    /// Dual Coloring (§4.2). Small items have `s(r) ≤ 1/2`.
    pub fn split_small_large(&self) -> (Vec<Item>, Vec<Item>) {
        self.items.iter().partition(|r| r.size().is_small())
    }

    /// A new instance with every interval shifted by `delta` ticks.
    /// A shift that pushes an endpoint out of the `i64` range is refused
    /// with [`DbpError::IntervalOverflow`].
    pub fn shifted(&self, delta: i64) -> Result<Instance, DbpError> {
        let items = self
            .items
            .iter()
            .map(|r| {
                let iv = r.interval().shifted(delta)?;
                Item::try_new(r.id().0, r.size(), iv.start(), iv.end())
            })
            .collect::<Result<_, _>>()?;
        Ok(Instance {
            items,
            durations: self.durations,
        })
    }

    /// Merges instances, reassigning ids to keep them unique. Panics if
    /// the combined item count exceeds the `u32` id space.
    pub fn concat(parts: &[Instance]) -> Instance {
        let mut items = Vec::new();
        let mut next = 0usize;
        for p in parts {
            for r in &p.items {
                let id = Instance::id_for_index(next).expect("concat exceeds the u32 id space");
                items.push(r.with_id(id));
                next += 1;
            }
        }
        Instance::from_items(items).expect("concat preserves validity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Instance {
        Instance::from_triples(&[(0.5, 0, 10), (0.25, 5, 8), (0.75, 20, 24)])
    }

    #[test]
    fn sorted_by_arrival() {
        let inst = Instance::from_triples(&[(0.5, 10, 20), (0.5, 0, 5)]);
        assert_eq!(inst.items()[0].arrival(), 0);
        assert_eq!(inst.items()[1].arrival(), 10);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let items = vec![
            Item::new(1, Size::HALF, 0, 5),
            Item::new(1, Size::HALF, 5, 9),
        ];
        assert!(matches!(
            Instance::from_items(items),
            Err(DbpError::DuplicateItemId { id: 1 })
        ));
    }

    #[test]
    fn span_demand_mu() {
        let inst = sample();
        // span: [0,10) ∪ [5,8) ∪ [20,24) = 10 + 4
        assert_eq!(inst.span(), 14);
        let expected = Size::from_f64(0.5).raw() as u128 * 10
            + Size::from_f64(0.25).raw() as u128 * 3
            + Size::from_f64(0.75).raw() as u128 * 4;
        assert_eq!(inst.demand(), expected);
        assert_eq!(inst.min_duration(), Some(3));
        assert_eq!(inst.max_duration(), Some(10));
        assert!((inst.mu().unwrap() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_items(vec![]).unwrap();
        assert!(inst.is_empty());
        assert_eq!(inst.span(), 0);
        assert_eq!(inst.demand(), 0);
        assert_eq!(inst.mu(), None);
        assert_eq!(inst.horizon(), None);
    }

    #[test]
    fn split_small_large_threshold() {
        let inst = sample();
        let (small, large) = inst.split_small_large();
        assert_eq!(small.len(), 2); // 0.5 and 0.25 are small (≤ 1/2)
        assert_eq!(large.len(), 1);
        assert_eq!(large[0].size(), Size::from_f64(0.75));
    }

    #[test]
    fn index_to_id_conversion_is_checked_at_the_boundary() {
        // Regression: `from_triples` used `i as u32`, so item 2³² would
        // silently wrap to id 0 and collide. The checked helper accepts
        // exactly the u32 id space and errors one past it.
        assert_eq!(Instance::id_for_index(0), Ok(0));
        assert_eq!(Instance::id_for_index(u32::MAX as usize), Ok(u32::MAX));
        assert!(matches!(
            Instance::id_for_index(u32::MAX as usize + 1),
            Err(DbpError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn try_from_triples_matches_the_panicking_builder() {
        let triples = [(0.5, 0, 10), (0.25, 5, 8), (0.75, 20, 24)];
        assert_eq!(Instance::try_from_triples(&triples).unwrap(), sample());
        // Invalid data surfaces as a typed error, not a panic.
        assert!(Instance::try_from_triples(&[(0.5, 9, 3)]).is_err());
    }

    #[test]
    fn shift_and_concat() {
        let a = sample();
        let b = a.shifted(100).unwrap();
        assert_eq!(b.first_arrival(), Some(100));
        let c = Instance::concat(&[a.clone(), b]);
        assert_eq!(c.len(), 6);
        // ids reassigned uniquely
        let ids: HashSet<_> = c.items().iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), 6);
        assert_eq!(
            (c.min_duration(), c.max_duration()),
            (a.min_duration(), a.max_duration())
        );
    }

    #[test]
    fn shifts_that_leave_the_tick_range_are_refused() {
        let inst = Instance::from_triples(&[(0.5, -10, -5), (0.5, 0, 10)]);
        let edge = inst.shifted(i64::MAX - 10).unwrap();
        assert_eq!(edge.last_departure(), Some(i64::MAX));
        assert_eq!(edge.min_duration(), Some(5));
        assert!(matches!(
            inst.shifted(i64::MAX - 9),
            Err(DbpError::IntervalOverflow { end: i64::MAX, .. })
        ));
        let low = inst.shifted(i64::MIN + 10).unwrap();
        assert_eq!(low.first_arrival(), Some(i64::MIN));
        assert!(matches!(
            inst.shifted(i64::MIN + 9),
            Err(DbpError::IntervalOverflow {
                start: i64::MIN,
                ..
            })
        ));
    }
}
