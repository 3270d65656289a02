//! The demand type the packing engine is generic over.
//!
//! The paper's MinUsageTime DBP packs one-dimensional sizes; dynamic
//! *vector* bin packing (Murhekar et al. 2023) generalizes an item to a
//! demand vector that must fit on every axis, and the scalar problem is
//! its `d = 1` case. [`Demand`] captures exactly what the engine needs
//! from a demand type, so one open-bin slab ([`crate::OpenBins`]), one
//! streaming session ([`crate::StreamingSession`]) and one body per
//! packing algorithm serve both [`Size`] and [`SizeVec`]:
//!
//! * the job model: one [`crate::Item<D>`], [`crate::Instance<D>`] and
//!   [`crate::ClairvoyanceMode<D>`] for both types, which read a demand
//!   axis by axis ([`Demand::axes`], [`Demand::dims`]), rebuild one from
//!   its axes ([`Demand::from_axes`], for the audit shrinker and its
//!   fixtures) and tell the persisted kinds apart ([`Demand::VECTOR`]);
//! * exact arithmetic: [`Demand::add`], [`Demand::sub`], the capacity
//!   test [`Demand::fits`] and the residual [`Demand::gap`];
//! * the First Fit gap tree: a node value ([`Demand::node`]), the
//!   combine of two children ([`Demand::combine`]) and the test a node
//!   must pass for its subtree to hold a feasible leaf
//!   ([`Demand::covers`]). For one axis that test is exact
//!   ([`Demand::EXACT_NODES`]), so the descent follows a single path;
//!   for vectors the per-axis maxima may come from different bins, so
//!   the descent is a pruned depth-first search;
//! * the Best/Worst Fit level index ([`Demand::LevelIndex`]) and the
//!   level key it orders bins by under a [`Scalarization`]
//!   ([`Demand::key`]). The two demand types need different structures:
//!   - For one axis the key *is* the level, an integer in `0..=2²⁴`,
//!     and feasibility is a key range (`level ≤ CAPACITY − size`). So
//!     [`LevelBits`] keeps a paged 64-ary bitset over the present
//!     levels: 4,097 pages of 4,096 levels, each 64 words plus a summary
//!     word (520 bytes, allocated on first use), found through a
//!     4,097-slot directory and a two-level bitmap over the pages, plus
//!     one tie group per present level that spills to an ordered set
//!     only when bins share an exact level. Best Fit is a
//!     `leading_zeros` predecessor lookup, Worst Fit a `trailing_zeros`
//!     minimum, and a re-key a few word writes plus one tie-group probe,
//!     at any fleet size.
//!   - For vectors the key is a scalarization that cannot express
//!     all-axes feasibility, so both queries walk a `BTreeSet` of
//!     [`LevelKey`]s from the fullest or emptiest end until an entry fits
//!     on every axis. The walk visits entries in key order, one by one,
//!     which is what an ordered set is for; running it on the bitset
//!     would pay a tie-group probe per entry walked (a prototype slowed
//!     `best-fit/d3@deep` 3.5×).
//!
//!   See [`crate::levels`] for the layout, the cost of each operation,
//!   and why the index does not use coarse level buckets.
//!
//! `Size` monomorphizes to the scalar algorithms and probe counts; the
//! dim-1 embedding `SizeVec::scalar` takes the vector paths, which the
//! dim-1 differential suite proves decision-identical.

use crate::error::DbpError;
use crate::levels::{LevelBits, LevelIndex, LevelKey};
use crate::size::Size;
use crate::sizevec::{Scalarization, SizeVec, MAX_DIMS};
use std::collections::BTreeSet;
use std::fmt;

/// An item demand: [`Size`] (one axis) or [`SizeVec`] (up to
/// [`MAX_DIMS`] axes). See the module docs for what each method is for.
pub trait Demand: Copy + Eq + fmt::Debug + fmt::Display + Send + Sync + 'static {
    /// A gap-tree node: the envelope of the gaps below it.
    type Node: Copy + Eq + Default + fmt::Debug;
    /// Whether [`Demand::covers`] on an internal node is exact (a
    /// covering node always has a feasible leaf below it).
    const EXACT_NODES: bool;

    /// Exact sum (panics on overflow, like `Size + Size`).
    fn add(self, rhs: Self) -> Self;
    /// Exact difference (panics on underflow).
    fn sub(self, rhs: Self) -> Self;
    /// Whether an item of demand `size` fits on top of level `self`.
    fn fits(self, size: Self) -> bool;
    /// The residual capacity above level `self`.
    fn gap(self) -> Self;
    /// Whether this is a valid item demand (every axis in `(0, 1]`).
    fn is_valid_item_size(self) -> bool;

    /// Whether this is the vector type: a one-axis [`SizeVec`] is still
    /// a vector, and persists under the vector schemas.
    const VECTOR: bool;
    /// The demand on each axis.
    fn axes(&self) -> &[Size];
    /// The number of axes.
    fn dims(self) -> usize {
        self.axes().len()
    }
    /// The demand with these axes; refuses an axis count the type
    /// cannot hold (a [`Size`] has exactly one).
    fn from_axes(axes: &[Size]) -> Result<Self, DbpError>;

    /// The gap-tree leaf value of gap `self`.
    fn node(self) -> Self::Node;
    /// The envelope of two children.
    fn combine(a: Self::Node, b: Self::Node) -> Self::Node;
    /// Whether a node's envelope covers `want` (a demand's
    /// [`Demand::node`]). Dead leaves hold `Node::default()`, which no
    /// valid demand is covered by.
    fn covers(node: Self::Node, want: Self::Node) -> bool;

    /// The Best/Worst Fit index of one tag.
    type LevelIndex: LevelIndex<Self>;

    /// The ordering key of level `self` under `scal`.
    fn key(self, scal: Scalarization) -> u64;
}

impl Demand for Size {
    type Node = u64;
    const EXACT_NODES: bool = true;
    type LevelIndex = LevelBits;
    const VECTOR: bool = false;

    #[inline]
    fn add(self, rhs: Size) -> Size {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Size) -> Size {
        self - rhs
    }
    #[inline]
    fn fits(self, size: Size) -> bool {
        self + size <= Size::CAPACITY
    }
    #[inline]
    fn gap(self) -> Size {
        Size::CAPACITY - self
    }
    #[inline]
    fn is_valid_item_size(self) -> bool {
        Size::is_valid_item_size(self)
    }
    fn axes(&self) -> &[Size] {
        std::slice::from_ref(self)
    }
    fn from_axes(axes: &[Size]) -> Result<Size, DbpError> {
        match axes {
            [size] => Ok(*size),
            _ => Err(DbpError::InvalidParameter {
                what: format!("a scalar size has one axis, got {}", axes.len()),
            }),
        }
    }
    #[inline]
    fn node(self) -> u64 {
        self.raw()
    }
    #[inline]
    fn combine(a: u64, b: u64) -> u64 {
        a.max(b)
    }
    #[inline]
    fn covers(node: u64, want: u64) -> bool {
        node >= want
    }
    /// One axis: every scalarization is the level itself.
    #[inline]
    fn key(self, _scal: Scalarization) -> u64 {
        self.raw()
    }
}

impl Demand for SizeVec {
    type Node = [u64; MAX_DIMS];
    const EXACT_NODES: bool = false;
    type LevelIndex = BTreeSet<LevelKey>;
    const VECTOR: bool = true;

    #[inline]
    fn add(self, rhs: SizeVec) -> SizeVec {
        SizeVec::add(&self, &rhs)
    }
    #[inline]
    fn sub(self, rhs: SizeVec) -> SizeVec {
        SizeVec::sub(&self, &rhs)
    }
    #[inline]
    fn fits(self, size: SizeVec) -> bool {
        self.fits_with(&size)
    }
    #[inline]
    fn gap(self) -> SizeVec {
        SizeVec::sub(&SizeVec::capacity(self.dims()), &self)
    }
    #[inline]
    fn is_valid_item_size(self) -> bool {
        SizeVec::is_valid_item_size(&self)
    }
    fn axes(&self) -> &[Size] {
        SizeVec::axes(self)
    }
    fn from_axes(axes: &[Size]) -> Result<SizeVec, DbpError> {
        SizeVec::try_new(axes)
    }
    #[inline]
    fn node(self) -> [u64; MAX_DIMS] {
        self.raw()
    }
    #[inline]
    fn combine(a: [u64; MAX_DIMS], b: [u64; MAX_DIMS]) -> [u64; MAX_DIMS] {
        [
            a[0].max(b[0]),
            a[1].max(b[1]),
            a[2].max(b[2]),
            a[3].max(b[3]),
        ]
    }
    /// Componentwise `node_d ≥ want_d` (trailing dead axes are 0 on both
    /// sides, so they never reject).
    #[inline]
    fn covers(node: [u64; MAX_DIMS], want: [u64; MAX_DIMS]) -> bool {
        node[0] >= want[0] && node[1] >= want[1] && node[2] >= want[2] && node[3] >= want[3]
    }
    #[inline]
    fn key(self, scal: Scalarization) -> u64 {
        scal.key(&self)
    }
}
