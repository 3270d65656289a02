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
use crate::instance::Instance;
use crate::item::Item;
use crate::online::ClairvoyanceMode;
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

/// A multi-resource job: an [`Item`] whose demand is a [`SizeVec`].
pub type VecItem = Item<SizeVec>;

/// A vector-packing instance: an [`Instance`] over [`SizeVec`] demands.
pub type VecInstance = Instance<SizeVec>;

/// What departure information a vector packer observes.
pub type VecClairvoyance = ClairvoyanceMode<SizeVec>;

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
}
