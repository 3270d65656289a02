//! Fixed-dimension vector sizes for multi-resource (vector) bin packing.
//!
//! The paper's §6 future work — and the Murhekar et al. 2023 dynamic
//! *vector* bin packing line — generalizes items to a demand **vector**
//! (CPU, memory, GPU, …): a bin has unit capacity on every axis and an
//! item fits iff it fits on *all* axes simultaneously. [`SizeVec`] is the
//! exact fixed-point vector form of [`Size`]: up to [`MAX_DIMS`] axes,
//! each a [`Size`] (so all the exactness guarantees of the scalar type —
//! dyadic rationals, overflow-checked sums, exact capacity comparison —
//! hold per axis).
//!
//! The dimension count is part of the value (`dims`), and every
//! operation insists operands agree on it. Unused trailing axes are
//! forced to [`Size::ZERO`] so derived equality and hashing are
//! dimension-faithful.
//!
//! At `dims == 1` the vector path is **bit-identical** to the scalar
//! path: one axis, the same raw `u64` arithmetic, the same feasibility
//! predicate — which is what lets the differential suite prove a
//! [`crate::StreamingSession`] over `SizeVec` equal to one over `Size`
//! on lifted instances.

use crate::error::DbpError;
use crate::instance::{duration_range, Instance};
use crate::interval::{Interval, Time};
use crate::item::{Item, ItemId};
use crate::packing::Packing;
use crate::size::Size;
use std::fmt;

/// Maximum number of resource axes a [`SizeVec`] can carry.
///
/// Four covers the cloud-trace shapes this repo targets (CPU, memory,
/// GPU, bandwidth) while keeping the value `Copy` and cache-resident —
/// the open-bin fit index stores one gap vector per tree node.
pub const MAX_DIMS: usize = 4;

/// A fixed-dimension vector of exact fixed-point sizes.
///
/// `dims` axes are live (`1 ..= MAX_DIMS`); trailing axes are always
/// [`Size::ZERO`], so derived `Eq`/`Hash` see only the live prefix plus
/// the dimension count.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SizeVec {
    dims: u8,
    axes: [Size; MAX_DIMS],
}

impl SizeVec {
    /// Builds a vector from per-axis sizes. Errors unless
    /// `1 <= axes.len() <= MAX_DIMS`.
    pub fn try_new(axes: &[Size]) -> Result<SizeVec, DbpError> {
        if axes.is_empty() || axes.len() > MAX_DIMS {
            return Err(DbpError::InvalidParameter {
                what: format!("size vector needs 1..={MAX_DIMS} axes, got {}", axes.len()),
            });
        }
        let mut v = [Size::ZERO; MAX_DIMS];
        v[..axes.len()].copy_from_slice(axes);
        Ok(SizeVec {
            dims: axes.len() as u8,
            axes: v,
        })
    }

    /// Builds a vector from per-axis sizes, panicking on a bad axis count.
    #[track_caller]
    pub fn new(axes: &[Size]) -> SizeVec {
        SizeVec::try_new(axes).expect("invalid size vector")
    }

    /// A `dims`-dimensional vector with every axis equal to `s`.
    #[track_caller]
    pub fn splat(dims: usize, s: Size) -> SizeVec {
        assert!(
            (1..=MAX_DIMS).contains(&dims),
            "size vector needs 1..={MAX_DIMS} axes"
        );
        let mut v = [Size::ZERO; MAX_DIMS];
        v[..dims].fill(s);
        SizeVec {
            dims: dims as u8,
            axes: v,
        }
    }

    /// The 1-dimensional vector holding the scalar `s` — the embedding
    /// under which the vector stack is bit-identical to the scalar one.
    pub fn scalar(s: Size) -> SizeVec {
        SizeVec::splat(1, s)
    }

    /// Builds a vector from per-axis capacity fractions (rounding each
    /// like [`Size::from_f64`]).
    #[track_caller]
    pub fn from_f64s(fracs: &[f64]) -> SizeVec {
        let axes: Vec<Size> = fracs.iter().map(|&f| Size::from_f64(f)).collect();
        SizeVec::new(&axes)
    }

    /// Unit capacity on every one of `dims` axes.
    #[track_caller]
    pub fn capacity(dims: usize) -> SizeVec {
        SizeVec::splat(dims, Size::CAPACITY)
    }

    /// The all-zero vector of `dims` axes (a bin level, not an item size).
    #[track_caller]
    pub fn zero(dims: usize) -> SizeVec {
        SizeVec::splat(dims, Size::ZERO)
    }

    /// Number of live axes.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims as usize
    }

    /// The size on axis `d` (`d < dims`).
    #[inline]
    pub fn axis(&self, d: usize) -> Size {
        debug_assert!(d < self.dims());
        self.axes[d]
    }

    /// The live axes as a slice.
    #[inline]
    pub fn axes(&self) -> &[Size] {
        &self.axes[..self.dims()]
    }

    /// The raw fixed-point value of every axis, zero-padded to
    /// [`MAX_DIMS`] — the key shape the vector fit index stores.
    #[inline]
    pub fn raw(&self) -> [u64; MAX_DIMS] {
        [
            self.axes[0].raw(),
            self.axes[1].raw(),
            self.axes[2].raw(),
            self.axes[3].raw(),
        ]
    }

    /// Whether every axis is a valid item size (`0 < s_d ≤ 1`). A job
    /// with no demand on some resource declares [`Size::EPSILON`] there,
    /// matching the all-positive convention of
    /// `dbp_multidim::MultiItem`.
    #[inline]
    pub fn is_valid_item_size(&self) -> bool {
        self.axes().iter().all(|s| s.is_valid_item_size())
    }

    /// Componentwise `self_d + rhs_d ≤ 1` on every axis: whether an item
    /// of size `rhs` fits on top of level `self`. This is *the* vector
    /// feasibility predicate — all axes must agree.
    #[inline]
    pub fn fits_with(&self, rhs: &SizeVec) -> bool {
        debug_assert_eq!(self.dims, rhs.dims, "dimension mismatch");
        self.axes()
            .iter()
            .zip(rhs.axes())
            .all(|(l, s)| *l + *s <= Size::CAPACITY)
    }

    /// Componentwise `self_d ≤ rhs_d` on every axis.
    #[inline]
    pub fn le(&self, rhs: &SizeVec) -> bool {
        debug_assert_eq!(self.dims, rhs.dims, "dimension mismatch");
        self.axes().iter().zip(rhs.axes()).all(|(a, b)| a <= b)
    }

    /// Componentwise sum (checked per axis, like scalar [`Size`] `+`).
    #[track_caller]
    pub fn add(&self, rhs: &SizeVec) -> SizeVec {
        assert_eq!(self.dims, rhs.dims, "dimension mismatch");
        let mut out = *self;
        for d in 0..self.dims() {
            out.axes[d] = self.axes[d] + rhs.axes[d];
        }
        out
    }

    /// Componentwise difference (checked per axis).
    #[track_caller]
    pub fn sub(&self, rhs: &SizeVec) -> SizeVec {
        assert_eq!(self.dims, rhs.dims, "dimension mismatch");
        let mut out = *self;
        for d in 0..self.dims() {
            out.axes[d] = self.axes[d] - rhs.axes[d];
        }
        out
    }

    /// Sum of raw axis values (`Σ_d s_d` in fixed-point units). Fits u64:
    /// at most `MAX_DIMS · 2²⁴ · (open levels)` stays far below 2⁶⁴ for
    /// any valid bin state.
    #[inline]
    pub fn sum_raw(&self) -> u64 {
        self.axes().iter().map(|s| s.raw()).sum()
    }

    /// Largest raw axis value (`max_d s_d` in fixed-point units).
    #[inline]
    pub fn max_raw(&self) -> u64 {
        self.axes().iter().map(|s| s.raw()).max().unwrap_or(0)
    }

    /// Dot product with another vector in raw units, widened to `u128`
    /// (the Murhekar et al. dot-product placement score).
    #[inline]
    pub fn dot_raw(&self, rhs: &SizeVec) -> u128 {
        debug_assert_eq!(self.dims, rhs.dims, "dimension mismatch");
        self.axes()
            .iter()
            .zip(rhs.axes())
            .map(|(a, b)| a.raw() as u128 * b.raw() as u128)
            .sum()
    }
}

impl fmt::Debug for SizeVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SizeVec[")?;
        for (d, s) in self.axes().iter().enumerate() {
            if d > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:.6}", s.as_f64())?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for SizeVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// How a vector residual/level is collapsed to one ordering key for the
/// Best/Worst Fit rules (which need a total order the multi-axis
/// feasibility predicate cannot supply by itself).
///
/// The scalarization only drives *ranking among feasible bins*;
/// feasibility itself is always the all-axes predicate. At `dims == 1`
/// every scalarization reduces to the scalar level, so the vector
/// Best/Worst Fit coincide with the scalar rules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scalarization {
    /// Sum of axis levels `Σ_d level_d` (the default; L1 fullness).
    #[default]
    Sum,
    /// Largest axis level `max_d level_d` (L∞ fullness).
    MaxAxis,
}

impl Scalarization {
    /// The ordering key of a level vector under this scalarization.
    #[inline]
    pub fn key(&self, v: &SizeVec) -> u64 {
        match self {
            Scalarization::Sum => v.sum_raw(),
            Scalarization::MaxAxis => v.max_raw(),
        }
    }

    /// Short stable name used in packer names and bench labels.
    pub fn name(&self) -> &'static str {
        match self {
            Scalarization::Sum => "sum",
            Scalarization::MaxAxis => "max",
        }
    }
}

/// A multi-resource job: a demand vector active over `[arrival,
/// departure)`. The vector form of [`Item`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VecItem {
    id: ItemId,
    size: SizeVec,
    interval: Interval,
}

impl VecItem {
    /// Constructs an item, panicking on an invalid demand vector or
    /// interval. Use [`VecItem::try_new`] for untrusted input.
    #[track_caller]
    pub fn new(id: u32, size: SizeVec, arrival: Time, departure: Time) -> VecItem {
        VecItem::try_new(id, size, arrival, departure).expect("invalid vector item")
    }

    /// Fallible construction: every axis must lie in `(0, 1]` and
    /// `arrival < departure`.
    pub fn try_new(
        id: u32,
        size: SizeVec,
        arrival: Time,
        departure: Time,
    ) -> Result<VecItem, DbpError> {
        if !size.is_valid_item_size() {
            return Err(DbpError::InvalidSize {
                what: format!("item {id} has demand {size:?} with an axis outside (0, 1]"),
            });
        }
        Ok(VecItem {
            id: ItemId(id),
            size,
            interval: Interval::new(arrival, departure)?,
        })
    }

    /// Lifts a scalar [`Item`] to `dims` axes by replicating its size —
    /// the embedding used by the dim-1 equivalence proofs and the CLI's
    /// `--dims` plumbing.
    #[track_caller]
    pub fn lift(item: &Item, dims: usize) -> VecItem {
        VecItem {
            id: item.id(),
            size: SizeVec::splat(dims, item.size()),
            interval: item.interval(),
        }
    }

    /// The item id.
    #[inline]
    pub fn id(&self) -> ItemId {
        self.id
    }

    /// The demand vector.
    #[inline]
    pub fn size(&self) -> SizeVec {
        self.size
    }

    /// The active interval.
    #[inline]
    pub fn interval(&self) -> Interval {
        self.interval
    }

    /// Arrival time.
    #[inline]
    pub fn arrival(&self) -> Time {
        self.interval.start()
    }

    /// Departure time.
    #[inline]
    pub fn departure(&self) -> Time {
        self.interval.end()
    }

    /// Duration in ticks.
    #[inline]
    pub fn duration(&self) -> i64 {
        self.interval.len()
    }
}

impl fmt::Debug for VecItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VecItem({} {:?} @[{}, {}))",
            self.id,
            self.size,
            self.arrival(),
            self.departure()
        )
    }
}

/// A whole vector-packing instance: consistent dimensionality, unique
/// ids, items sorted by `(arrival, id)` — the same canonical order as
/// [`Instance`]. Like [`Instance`], it finds `Δ` and `μΔ` once, when it
/// is built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VecInstance {
    dims: u8,
    items: Vec<VecItem>,
    /// `(Δ, μΔ)`; `None` when there are no items.
    durations: Option<(i64, i64)>,
}

impl VecInstance {
    /// Builds an instance, validating dimension consistency and id
    /// uniqueness, and sorting into arrival order.
    pub fn from_items(items: Vec<VecItem>) -> Result<VecInstance, DbpError> {
        let dims = items.first().map(|r| r.size.dims()).unwrap_or(1);
        let mut items = items;
        for r in &items {
            if r.size.dims() != dims {
                return Err(DbpError::InvalidParameter {
                    what: format!(
                        "item {} has {} axes in a {dims}-dimensional instance",
                        r.id(),
                        r.size.dims()
                    ),
                });
            }
        }
        items.sort_by_key(|r| (r.arrival(), r.id()));
        for w in items.windows(2) {
            if w[0].id() == w[1].id() {
                return Err(DbpError::DuplicateItemId { id: w[0].id().0 });
            }
        }
        let mut by_id: Vec<u32> = items.iter().map(|r| r.id().0).collect();
        by_id.sort_unstable();
        for w in by_id.windows(2) {
            if w[0] == w[1] {
                return Err(DbpError::DuplicateItemId { id: w[0] });
            }
        }
        Ok(VecInstance {
            dims: dims as u8,
            durations: duration_range(items.iter().map(VecItem::duration)),
            items,
        })
    }

    /// Lifts a scalar [`Instance`] to `dims` axes by replicating every
    /// item's size on each axis. A dim-1 lift is the identity embedding.
    #[track_caller]
    pub fn lift(inst: &Instance, dims: usize) -> VecInstance {
        VecInstance {
            dims: dims as u8,
            items: inst
                .items()
                .iter()
                .map(|r| VecItem::lift(r, dims))
                .collect(),
            durations: inst.min_duration().zip(inst.max_duration()),
        }
    }

    /// Number of resource axes.
    pub fn dims(&self) -> usize {
        self.dims as usize
    }

    /// Items in arrival order.
    pub fn items(&self) -> &[VecItem] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the instance holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Max/min duration ratio `μ`, if non-empty.
    pub fn mu(&self) -> Option<f64> {
        let (min, max) = self.durations?;
        Some(max as f64 / min as f64)
    }

    /// Minimum item duration `Δ`, if non-empty.
    pub fn min_duration(&self) -> Option<i64> {
        self.durations.map(|(min, _)| min)
    }

    /// Maximum item duration `μΔ`, if non-empty.
    pub fn max_duration(&self) -> Option<i64> {
        self.durations.map(|(_, max)| max)
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
                events.push((r.arrival(), r.size.axis(d).raw() as i128));
                events.push((r.departure(), -(r.size.axis(d).raw() as i128)));
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
        let mut seen = std::collections::HashSet::new();
        let by_id: std::collections::HashMap<ItemId, &VecItem> =
            self.items.iter().map(|r| (r.id(), r)).collect();
        let mut placed = 0usize;
        for (bin, members) in packing.iter_bins() {
            let items: Vec<&VecItem> = members
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
                        .map(|r| r.size.axis(d).raw())
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

    fn sv(fracs: &[f64]) -> SizeVec {
        SizeVec::from_f64s(fracs)
    }

    #[test]
    fn dims_are_validated_and_preserved() {
        assert!(SizeVec::try_new(&[]).is_err());
        assert!(SizeVec::try_new(&[Size::HALF; 5]).is_err());
        let v = sv(&[0.25, 0.5, 0.75]);
        assert_eq!(v.dims(), 3);
        assert_eq!(v.axis(1), Size::HALF);
        assert_eq!(v.axes().len(), 3);
    }

    #[test]
    fn equality_sees_dims() {
        // Same live prefix, different dimensionality: not equal.
        assert_ne!(SizeVec::splat(1, Size::HALF), SizeVec::splat(2, Size::HALF));
        assert_eq!(sv(&[0.5, 0.25]), sv(&[0.5, 0.25]));
    }

    #[test]
    fn feasibility_needs_all_axes() {
        let level = sv(&[0.5, 0.9]);
        assert!(level.fits_with(&sv(&[0.5, 0.1])));
        assert!(!level.fits_with(&sv(&[0.1, 0.2])), "axis 1 overflows");
        let full = level.add(&sv(&[0.5, 0.1]));
        assert_eq!(full, SizeVec::capacity(2));
        assert_eq!(full.sub(&sv(&[0.5, 0.1])), level);
    }

    #[test]
    fn scalarizations_reduce_to_scalar_at_dim_1() {
        let v = SizeVec::scalar(Size::from_f64(0.3));
        assert_eq!(Scalarization::Sum.key(&v), Size::from_f64(0.3).raw());
        assert_eq!(Scalarization::MaxAxis.key(&v), Size::from_f64(0.3).raw());
    }

    #[test]
    fn scalarization_keys() {
        let v = sv(&[0.25, 0.5]);
        assert_eq!(
            Scalarization::Sum.key(&v),
            v.axis(0).raw() + v.axis(1).raw()
        );
        assert_eq!(Scalarization::MaxAxis.key(&v), Size::HALF.raw());
    }

    #[test]
    fn dot_product_is_exact() {
        let a = sv(&[0.5, 0.25]);
        let b = sv(&[0.25, 1.0]);
        let expect = a.axis(0).raw() as u128 * b.axis(0).raw() as u128
            + a.axis(1).raw() as u128 * b.axis(1).raw() as u128;
        assert_eq!(a.dot_raw(&b), expect);
    }

    #[test]
    fn vec_item_validation() {
        assert!(VecItem::try_new(0, sv(&[0.5, 0.5]), 0, 10).is_ok());
        let zero_axis = SizeVec::new(&[Size::HALF, Size::ZERO]);
        assert!(matches!(
            VecItem::try_new(1, zero_axis, 0, 10),
            Err(DbpError::InvalidSize { .. })
        ));
        assert!(matches!(
            VecItem::try_new(2, sv(&[0.5]), 10, 10),
            Err(DbpError::EmptyInterval { .. })
        ));
        assert!(matches!(
            VecItem::try_new(3, sv(&[0.5]), i64::MIN, i64::MAX),
            Err(DbpError::IntervalOverflow { .. })
        ));
    }

    #[test]
    fn instance_rejects_mixed_dims_and_duplicate_ids() {
        let a = VecItem::new(0, sv(&[0.5, 0.5]), 0, 10);
        let b = VecItem::new(1, sv(&[0.5]), 0, 10);
        assert!(matches!(
            VecInstance::from_items(vec![a, b]),
            Err(DbpError::InvalidParameter { .. })
        ));
        let c = VecItem::new(0, sv(&[0.5, 0.5]), 5, 15);
        assert!(matches!(
            VecInstance::from_items(vec![a, c]),
            Err(DbpError::DuplicateItemId { id: 0 })
        ));
    }

    #[test]
    fn instance_sorts_by_arrival_then_id() {
        let inst = VecInstance::from_items(vec![
            VecItem::new(2, sv(&[0.1]), 5, 10),
            VecItem::new(1, sv(&[0.1]), 5, 12),
            VecItem::new(0, sv(&[0.1]), 3, 10),
        ])
        .unwrap();
        let ids: Vec<u32> = inst.items().iter().map(|r| r.id().0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn lift_replicates_scalar_sizes() {
        let inst = Instance::from_triples(&[(0.5, 0, 10), (0.25, 2, 8)]);
        let lifted = VecInstance::lift(&inst, 3);
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
        let inst = VecInstance::from_items(vec![
            VecItem::new(0, sv(&[0.3, 0.9]), 0, 10),
            VecItem::new(1, sv(&[0.3, 0.9]), 0, 10),
        ])
        .unwrap();
        assert_eq!(inst.vector_lower_bound(), 20);
    }

    #[test]
    fn dim1_lower_bound_matches_scalar_lb3() {
        let inst = Instance::from_triples(&[(0.6, 0, 10), (0.6, 2, 12), (0.1, 5, 20), (0.9, 7, 9)]);
        let lifted = VecInstance::lift(&inst, 1);
        let lb = crate::accounting::lower_bounds(&inst);
        assert_eq!(lifted.vector_lower_bound(), lb.lb3);
    }

    #[test]
    fn validate_packing_catches_axis_overflow() {
        let inst = VecInstance::from_items(vec![
            VecItem::new(0, sv(&[0.2, 0.8]), 0, 10),
            VecItem::new(1, sv(&[0.2, 0.8]), 0, 10),
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
}
