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
//! * exact arithmetic: [`Demand::add`], [`Demand::sub`], the capacity
//!   test [`Demand::fits`] and the residual [`Demand::gap`];
//! * the First Fit gap tree: a node value ([`Demand::node`]), the
//!   combine of two children ([`Demand::combine`]) and the test a node
//!   must pass for its subtree to hold a feasible leaf
//!   ([`Demand::covers`]). For one axis that test is exact
//!   ([`Demand::EXACT_NODES`]), so the descent follows a single path;
//!   for vectors the per-axis maxima may come from different bins, so
//!   the descent is a pruned depth-first search;
//! * the Best/Worst Fit ordered set: a level key under a
//!   [`Scalarization`] ([`Demand::key`]) plus the two queries
//!   ([`Demand::best_in`], [`Demand::worst_in`]). For one axis the key
//!   *is* the level, so feasibility is a key range and both queries are
//!   O(log) range lookups; for vectors they walk the set from the
//!   fullest or emptiest end until an entry fits on every axis.
//!
//! `Size` monomorphizes to the scalar algorithms and probe counts; the
//! dim-1 embedding `SizeVec::scalar` takes the vector paths, which the
//! dim-1 differential suite proves decision-identical.

use crate::interval::{Interval, Time};
use crate::item::{Item, ItemId};
use crate::online::ClairvoyanceMode;
use crate::size::Size;
use crate::sizevec::{Scalarization, SizeVec, VecItem, MAX_DIMS};
use std::collections::BTreeSet;
use std::fmt;

/// A Best/Worst Fit set entry: `(level key, per-tag opening seq, slot)`.
/// Ascending order puts the emptiest bin first and, among equal keys,
/// the earliest opened; `seq` is unique within a tag, so the key is
/// total and the slot rides along for O(1) resolution.
pub(crate) type LevelKey = (u64, u64, u32);

/// An item demand: [`Size`] (one axis) or [`SizeVec`] (up to
/// [`MAX_DIMS`] axes). See the module docs for what each method is for.
pub trait Demand: Copy + Eq + fmt::Debug + fmt::Display + Send + Sync + 'static {
    /// The job type carrying this demand.
    type Item: Job<Demand = Self>;
    /// What departure information a session shows its packer.
    type Mode: Clairvoyance<Self::Item>;
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

    /// The gap-tree leaf value of gap `self`.
    fn node(self) -> Self::Node;
    /// The envelope of two children.
    fn combine(a: Self::Node, b: Self::Node) -> Self::Node;
    /// Whether a node's envelope covers `want` (a demand's
    /// [`Demand::node`]). Dead leaves hold `Node::default()`, which no
    /// valid demand is covered by.
    fn covers(node: Self::Node, want: Self::Node) -> bool;

    /// The ordering key of level `self` under `scal`.
    fn key(self, scal: Scalarization) -> u64;
    /// The Best Fit entry of `set` for `size`: the highest key feasible
    /// per `fits`, ties to the latest opened. Returns the slot and the
    /// number of entries probed.
    fn best_in(
        set: &BTreeSet<LevelKey>,
        _size: Self,
        fits: impl Fn(u32) -> bool,
    ) -> (Option<u32>, usize) {
        walk(set.iter().rev(), fits)
    }
    /// The Worst Fit entry of `set` for `size`: the lowest key feasible
    /// per `fits`, ties to the earliest opened.
    fn worst_in(
        set: &BTreeSet<LevelKey>,
        _size: Self,
        fits: impl Fn(u32) -> bool,
    ) -> (Option<u32>, usize) {
        walk(set.iter(), fits)
    }
}

/// The first entry of `entries` whose slot fits, with the entries probed.
fn walk<'a>(
    entries: impl Iterator<Item = &'a LevelKey>,
    fits: impl Fn(u32) -> bool,
) -> (Option<u32>, usize) {
    let mut probes = 0;
    for &(_, _, slot) in entries {
        probes += 1;
        if fits(slot) {
            return (Some(slot), probes);
        }
    }
    (None, probes)
}

/// A job the streaming session can admit: an id, a demand and an active
/// interval.
pub trait Job {
    /// The job's demand type.
    type Demand;
    /// The job id.
    fn id(&self) -> ItemId;
    /// The job's demand.
    fn size(&self) -> Self::Demand;
    /// The active interval `[arrival, departure)`.
    fn interval(&self) -> Interval;
    /// Arrival time.
    fn arrival(&self) -> Time {
        self.interval().start()
    }
    /// Departure time.
    fn departure(&self) -> Time {
        self.interval().end()
    }
}

/// What departure information a session shows its packer.
pub trait Clairvoyance<I>: Clone + fmt::Debug + Send + Sync {
    /// The departure the packer sees for `item` (`None` when hidden).
    fn visible_departure(&self, item: &I) -> Option<Time>;
    /// Whether visible departures are estimates rather than the truth.
    fn is_noisy(&self) -> bool {
        false
    }
}

impl Job for Item {
    type Demand = Size;
    fn id(&self) -> ItemId {
        Item::id(self)
    }
    fn size(&self) -> Size {
        Item::size(self)
    }
    fn interval(&self) -> Interval {
        Item::interval(self)
    }
}

impl Job for VecItem {
    type Demand = SizeVec;
    fn id(&self) -> ItemId {
        VecItem::id(self)
    }
    fn size(&self) -> SizeVec {
        VecItem::size(self)
    }
    fn interval(&self) -> Interval {
        VecItem::interval(self)
    }
}

impl Clairvoyance<Item> for ClairvoyanceMode {
    fn visible_departure(&self, item: &Item) -> Option<Time> {
        match self {
            ClairvoyanceMode::Clairvoyant => Some(item.departure()),
            ClairvoyanceMode::NonClairvoyant => None,
            ClairvoyanceMode::Noisy(f) => Some(f(item).max(item.arrival() + 1)),
        }
    }
    fn is_noisy(&self) -> bool {
        matches!(self, ClairvoyanceMode::Noisy(_))
    }
}

/// Whether departure times are visible to a vector packer.
///
/// Vector sessions support the paper's clairvoyant setting and the blind
/// baseline; the noisy-estimator middle ground
/// ([`ClairvoyanceMode::Noisy`]) takes a scalar [`Item`] and stays
/// scalar-only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VecClairvoyance {
    /// Departures are visible on arrival (the paper's setting).
    #[default]
    Clairvoyant,
    /// Departures are hidden; classification packers cannot run.
    NonClairvoyant,
}

impl Clairvoyance<VecItem> for VecClairvoyance {
    fn visible_departure(&self, item: &VecItem) -> Option<Time> {
        match self {
            VecClairvoyance::Clairvoyant => Some(item.departure()),
            VecClairvoyance::NonClairvoyant => None,
        }
    }
}

impl Demand for Size {
    type Item = Item;
    type Mode = ClairvoyanceMode;
    type Node = u64;
    const EXACT_NODES: bool = true;

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
    /// Feasible levels are exactly the keys `≤ CAPACITY − size`, so the
    /// answer is the last entry of that range: one ordered probe.
    fn best_in(
        set: &BTreeSet<LevelKey>,
        size: Size,
        _fits: impl Fn(u32) -> bool,
    ) -> (Option<u32>, usize) {
        let probes = usize::from(!set.is_empty());
        let hit = Size::CAPACITY
            .raw()
            .checked_sub(size.raw())
            .and_then(|max_level| set.range(..=(max_level, u64::MAX, u32::MAX)).next_back());
        (hit.map(|&(_, _, slot)| slot), probes)
    }
    /// The emptiest bin fits if any does: one ordered probe.
    fn worst_in(
        set: &BTreeSet<LevelKey>,
        size: Size,
        _fits: impl Fn(u32) -> bool,
    ) -> (Option<u32>, usize) {
        let probes = usize::from(!set.is_empty());
        match set.first() {
            Some(&(level, _, slot)) if Size::from_raw(level).fits(size) => (Some(slot), probes),
            _ => (None, probes),
        }
    }
}

impl Demand for SizeVec {
    type Item = VecItem;
    type Mode = VecClairvoyance;
    type Node = [u64; MAX_DIMS];
    const EXACT_NODES: bool = false;

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
