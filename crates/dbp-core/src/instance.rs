//! Problem instances: an item list `R` plus derived quantities.

use crate::demand::Demand;
use crate::error::DbpError;
use crate::interval::{span_of, Interval, Time};
use crate::item::{Item, ItemId};
use crate::packing::Packing;
use crate::size::Size;
use crate::sizevec::SizeVec;
use std::collections::{HashMap, HashSet};

/// An immutable list of items `R` with unique ids, over a scalar
/// ([`Size`], the default) or vector ([`SizeVec`]) demand type.
///
/// Construction validates the items (unique ids, one axis count, sizes
/// in `(0,1]`, non-empty intervals). Items are stored sorted by
/// `(arrival, id)` — the order in which an online algorithm sees them.
/// The shortest and longest durations (`Δ`, `μΔ`) are found once, when
/// the instance is built, so reading them (and `μ`) costs nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance<D = Size> {
    items: Vec<Item<D>>,
    /// `(Δ, μΔ)`; `None` when there are no items.
    durations: Option<(i64, i64)>,
}

impl<D: Demand> Instance<D> {
    /// Builds an instance from items, sorting them by arrival time
    /// (ties broken by id, matching "input order" for simultaneous
    /// arrivals). Refuses items whose demands disagree on the axis
    /// count, and repeated ids, naming the smallest repeated one.
    pub fn from_items(mut items: Vec<Item<D>>) -> Result<Instance<D>, DbpError> {
        if let Some(first) = items.first() {
            let dims = first.size().dims();
            if let Some(r) = items.iter().find(|r| r.size().dims() != dims) {
                return Err(DbpError::InvalidParameter {
                    what: format!(
                        "item {} has {} axes in a {dims}-dimensional instance",
                        r.id(),
                        r.size().dims()
                    ),
                });
            }
        }
        items.sort_unstable_by_key(|r| (r.arrival(), r.id()));
        // Ids that already ascend in arrival order are distinct; only
        // otherwise are they sorted to find the smallest repeat.
        if items.windows(2).any(|w| w[0].id() >= w[1].id()) {
            let mut ids: Vec<ItemId> = items.iter().map(Item::id).collect();
            ids.sort_unstable();
            if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
                return Err(DbpError::DuplicateItemId { id: w[0].0 });
            }
        }
        let durations = items
            .iter()
            .map(Item::duration)
            .fold(None, |range, d| match range {
                None => Some((d, d)),
                Some((lo, hi)) => Some((lo.min(d), hi.max(d))),
            });
        Ok(Instance { items, durations })
    }

    /// The number of demand axes: that of the items, 1 when there are
    /// none.
    pub fn dims(&self) -> usize {
        self.items.first().map_or(1, |r| r.size().dims())
    }

    /// The items, sorted by `(arrival, id)`.
    #[inline]
    pub fn items(&self) -> &[Item<D>] {
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
    pub fn item(&self, id: ItemId) -> Option<&Item<D>> {
        self.items.iter().find(|r| r.id() == id)
    }

    /// The span `span(R)`: measure of the union of active intervals
    /// (Proposition 2 lower bound).
    pub fn span(&self) -> i64 {
        span_of(self.items.iter().map(|r| r.interval()))
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

    /// A new instance with every interval shifted by `delta` ticks.
    /// A shift that pushes an endpoint out of the `i64` range is refused
    /// with [`DbpError::IntervalOverflow`].
    pub fn shifted(&self, delta: i64) -> Result<Instance<D>, DbpError> {
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
}

impl Instance {
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

    /// Total time–space demand `d(R) = Σ s(r)·l(I(r))` in raw-size × tick
    /// units (Proposition 1 lower bound, scaled by `Size::SCALE`).
    pub fn demand(&self) -> u128 {
        self.items.iter().map(|r| r.demand()).sum()
    }

    /// Splits into (small, large) item lists at the `1/2` threshold used by
    /// Dual Coloring (§4.2). Small items have `s(r) ≤ 1/2`.
    pub fn split_small_large(&self) -> (Vec<Item>, Vec<Item>) {
        self.items.iter().partition(|r| r.size().is_small())
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

impl Instance<SizeVec> {
    /// Lifts a scalar [`Instance`] to `dims` axes by replicating every
    /// item's size on each axis. A dim-1 lift is the identity embedding.
    #[track_caller]
    pub fn lift(inst: &Instance, dims: usize) -> Instance<SizeVec> {
        Instance {
            items: inst.items.iter().map(|r| Item::lift(r, dims)).collect(),
            durations: inst.durations,
        }
    }

    /// The max-axis Proposition 3 bound: `max_d ∫ ⌈S_d(t)⌉ dt`, where
    /// `S_d(t)` is the total axis-`d` demand active at `t`. Any valid
    /// vector packing needs at least `⌈S_d(t)⌉` bins at time `t` for
    /// every axis `d`, so its usage is at least this. At `dims == 1`
    /// this is exactly the scalar `lower_bounds(..).lb3`.
    pub fn vector_lower_bound(&self) -> u128 {
        let mut best: u128 = 0;
        for d in 0..self.dims() {
            let mut events: Vec<(Time, i128)> = Vec::with_capacity(self.items.len() * 2);
            for r in &self.items {
                events.push((r.arrival(), r.size().axis(d).raw() as i128));
                events.push((r.departure(), -(r.size().axis(d).raw() as i128)));
            }
            events.sort_unstable_by_key(|e| e.0);
            let mut lb: u128 = 0;
            let mut level: i128 = 0;
            let mut i = 0;
            while i < events.len() {
                let t = events[i].0;
                while i < events.len() && events[i].0 == t {
                    level += events[i].1;
                    i += 1;
                }
                if i < events.len() && level > 0 {
                    let len = (events[i].0 - t) as u128;
                    lb += (level as u128).div_ceil(Size::SCALE as u128) * len;
                }
            }
            best = best.max(lb);
        }
        best
    }

    /// Validates a [`Packing`] of this instance: every item placed
    /// exactly once, and every bin within capacity **on every axis** at
    /// every instant (sweep over member arrival times, which is where
    /// per-bin levels peak). The per-axis generalization of
    /// [`Packing::validate`].
    pub fn validate_packing(&self, packing: &Packing) -> Result<(), DbpError> {
        let mut seen = HashSet::new();
        let by_id: HashMap<ItemId, &Item<SizeVec>> =
            self.items.iter().map(|r| (r.id(), r)).collect();
        let mut placed = 0usize;
        for (bin, members) in packing.iter_bins() {
            let items: Vec<&Item<SizeVec>> = members
                .iter()
                .map(|id| {
                    by_id
                        .get(id)
                        .copied()
                        .ok_or_else(|| DbpError::PackingCoverage {
                            what: format!("bin {bin:?} holds unknown item {id}"),
                        })
                })
                .collect::<Result<_, _>>()?;
            for id in members {
                if !seen.insert(*id) {
                    return Err(DbpError::PackingCoverage {
                        what: format!("item {id} placed more than once"),
                    });
                }
                placed += 1;
            }
            let mut times: Vec<Time> = items.iter().map(|r| r.arrival()).collect();
            times.sort_unstable();
            times.dedup();
            for t in times {
                for d in 0..self.dims() {
                    let level: u64 = items
                        .iter()
                        .filter(|r| r.interval().contains(t))
                        .map(|r| r.size().axis(d).raw())
                        .sum();
                    if level > Size::SCALE {
                        return Err(DbpError::CapacityExceeded {
                            bin: bin.0 as usize,
                            at: t,
                            level: level as f64 / Size::SCALE as f64,
                        });
                    }
                }
            }
        }
        if placed != self.items.len() {
            return Err(DbpError::PackingCoverage {
                what: format!("{placed} of {} items placed", self.items.len()),
            });
        }
        Ok(())
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

    fn sv(fracs: &[f64]) -> SizeVec {
        SizeVec::from_f64s(fracs)
    }

    #[test]
    fn instance_rejects_mixed_dims_and_duplicate_ids() {
        let a = Item::new(0, sv(&[0.5, 0.5]), 0, 10);
        let b = Item::new(1, sv(&[0.5]), 0, 10);
        // The first item fixes the axis count; the refusal names the
        // first item that disagrees.
        for (items, odd) in [
            (vec![a, b], "r1 has 1 axes in a 2-"),
            (vec![b, a], "r0 has 2 axes in a 1-"),
        ] {
            let err = Instance::from_items(items).unwrap_err();
            assert!(matches!(err, DbpError::InvalidParameter { .. }), "{err:?}");
            assert!(err.to_string().contains(odd), "{err}");
        }
        let c = Item::new(0, sv(&[0.5, 0.5]), 5, 15);
        assert!(matches!(
            Instance::from_items(vec![a, c]),
            Err(DbpError::DuplicateItemId { id: 0 })
        ));
    }

    #[test]
    fn instance_sorts_by_arrival_then_id() {
        let inst = Instance::from_items(vec![
            Item::new(2, sv(&[0.1]), 5, 10),
            Item::new(1, sv(&[0.1]), 5, 12),
            Item::new(0, sv(&[0.1]), 3, 10),
        ])
        .unwrap();
        let ids: Vec<u32> = inst.items().iter().map(|r| r.id().0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn lift_replicates_scalar_sizes() {
        let inst = Instance::from_triples(&[(0.5, 0, 10), (0.25, 2, 8)]);
        let lifted = Instance::lift(&inst, 3);
        assert_eq!(lifted.dims(), 3);
        for (v, s) in lifted.items().iter().zip(inst.items()) {
            assert_eq!(v.id(), s.id());
            assert_eq!(v.size(), SizeVec::splat(3, s.size()));
            assert_eq!(v.interval(), s.interval());
        }
    }

    #[test]
    fn vector_lower_bound_takes_max_axis() {
        // Axis 0 needs 1 bin over [0,10); axis 1 needs 2 bins over [0,10).
        let inst = Instance::from_items(vec![
            Item::new(0, sv(&[0.3, 0.9]), 0, 10),
            Item::new(1, sv(&[0.3, 0.9]), 0, 10),
        ])
        .unwrap();
        assert_eq!(inst.vector_lower_bound(), 20);
    }

    #[test]
    fn dim1_lower_bound_matches_scalar_lb3() {
        let inst = Instance::from_triples(&[(0.6, 0, 10), (0.6, 2, 12), (0.1, 5, 20), (0.9, 7, 9)]);
        let lifted = Instance::lift(&inst, 1);
        let lb = crate::accounting::lower_bounds(&inst);
        assert_eq!(lifted.vector_lower_bound(), lb.lb3);
    }

    #[test]
    fn validate_packing_catches_axis_overflow() {
        let inst = Instance::from_items(vec![
            Item::new(0, sv(&[0.2, 0.8]), 0, 10),
            Item::new(1, sv(&[0.2, 0.8]), 0, 10),
        ])
        .unwrap();
        // Sharing one bin overflows axis 1.
        let shared = Packing::from_bins(vec![vec![ItemId(0), ItemId(1)]]);
        assert!(matches!(
            inst.validate_packing(&shared),
            Err(DbpError::CapacityExceeded { .. })
        ));
        let split = Packing::from_bins(vec![vec![ItemId(0)], vec![ItemId(1)]]);
        inst.validate_packing(&split).unwrap();
        // Missing an item is a coverage error.
        let partial = Packing::from_bins(vec![vec![ItemId(0)]]);
        assert!(matches!(
            inst.validate_packing(&partial),
            Err(DbpError::PackingCoverage { .. })
        ));
    }

    /// Both demand types name the smallest repeated id, whatever the
    /// arrival order: here 5 repeats first and 3 is smaller.
    #[test]
    fn the_smallest_repeated_id_is_named() {
        let items = [(5, 0), (3, 1), (5, 2), (3, 3)].map(|(id, a)| Item::new(id, Size::HALF, a, 9));
        assert_eq!(
            Instance::from_items(items.to_vec()),
            Err(DbpError::DuplicateItemId { id: 3 })
        );
        assert_eq!(
            Instance::from_items(items.iter().map(|r| Item::lift(r, 1)).collect()),
            Err(DbpError::DuplicateItemId { id: 3 })
        );
    }

    /// An instance's axis count comes from its items: an empty one has
    /// one axis, whatever it was lifted to.
    #[test]
    fn an_empty_lift_has_one_axis() {
        let empty = Instance::from_items(Vec::<Item>::new()).unwrap();
        assert_eq!(empty.dims(), 1);
        assert_eq!(Instance::lift(&empty, 3).dims(), 1);
        assert_eq!(Instance::lift(&sample(), 3).dims(), 3);
        assert_eq!(sample().dims(), 1);
    }
}
