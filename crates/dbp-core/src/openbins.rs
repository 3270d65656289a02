//! The indexed open-bin set presented to packers.
//!
//! The seed engine kept open bins in a plain `Vec<OpenBin>`, which made
//! every departure an O(open) scan plus an O(open) `Vec::remove` shift,
//! and gave classification packers (CBD, CBDT, combined) no better option
//! than scanning the whole fleet and filtering by tag. [`OpenBins`] keeps
//! the same *observable* contract — bins iterate in opening order — on
//! top of O(1) indexed storage:
//!
//! * a slab of slots with a free list, so insert/remove never shift;
//! * a `BinId → slot` hash index, so lookups by id are O(1);
//! * an intrusive doubly-linked list through the slots in opening order,
//!   driving [`OpenBins::iter`];
//! * a second intrusive list per tag, driving [`OpenBins::iter_tag`] so a
//!   classification packer visits only its own category.
//!
//! The slab is laid out struct-of-arrays: the traversal links and index
//! keys ([`Links`]) live in one dense array, the bin payloads (levels,
//! resident item lists) in another, so order walks and index maintenance
//! touch small contiguous records instead of dragging every bin's item
//! vector through the cache.
//!
//! The set is generic over the [`Demand`] type: `OpenBins` (= `OpenBins<Size>`)
//! for the paper's one-dimensional sizes, `OpenBins<SizeVec>` for vector
//! packing, where an item fits a bin only when it fits on **every** axis.
//! The slab, lists and index maintenance are one body; the demand type
//! supplies the arithmetic and the two places where one axis and many
//! axes differ (see [`crate::demand`]).
//!
//! ## Indexed fit queries
//!
//! On top of the order lists, `OpenBins` answers the three Any-Fit
//! placement queries without walking the category:
//!
//! * [`OpenBins::first_fit`] — earliest-opened bin of a tag with room,
//!   via a max-gap tournament tree over the tag's opening order. For one
//!   axis a node's max gap decides its subtree exactly, so the query is a
//!   single O(log B) root-to-leaf path. For vectors each node holds the
//!   per-axis maximum, a *necessary* condition only (the maxima may come
//!   from different bins), so the query is a pruned left-first DFS: still
//!   O(log B) when one axis dominates, never more than the tree.
//! * [`OpenBins::best_fit`] — the fullest feasible bin, via the tag's
//!   level index ([`Demand::LevelIndex`]).
//! * [`OpenBins::worst_fit`] — the emptiest feasible bin, same index.
//!
//! For one axis feasibility is a level range, and the index is
//! [`crate::levels::LevelBits`]: a paged 64-ary bitset over the present
//! levels `0..=2²⁴` (a 4,097-slot page directory, 4,096 levels per
//! 520-byte page allocated on first use, a two-level bitmap over the
//! pages) plus one tie group per present level, which holds its bin
//! inline and spills to an ordered set only when bins share an exact
//! level. Best Fit is a `leading_zeros` predecessor lookup of
//! `CAPACITY − size`, Worst Fit a `trailing_zeros` minimum, each a few
//! word reads plus one tie-group probe; a re-key on a level change is a
//! few word writes plus one probe per side, at any fleet size. Coarse
//! level buckets would not do: Best Fit piles bins just under full, so
//! the top buckets hold most of the fleet (see [`crate::levels`]).
//!
//! Vector levels are ranked by a [`Scalarization`]
//! ([`OpenBins::best_fit_by`]) that cannot express all-axes feasibility,
//! so the vector index is an ordered set that the queries walk from the
//! fullest (best) or emptiest (worst) end until an entry fits, and the
//! probe count reports exactly how many entries they inspected. The
//! walk needs the set's order entry by entry, which the bitset would
//! answer only at a tie-group probe per entry.
//!
//! The keys are chosen so ties break *identically* to a linear
//! `iter_tag` scan through `Iterator::max_by_key`/`min_by_key`:
//!
//! * First Fit takes the **earliest-opened** feasible bin (leftmost
//!   feasible leaf in opening order).
//! * Best Fit takes the fullest feasible bin, resolving level ties to
//!   the **latest** opened (`max_by_key` keeps the last maximum): the
//!   *largest* feasible `(level, seq)` entry.
//! * Worst Fit takes the emptiest feasible bin, resolving ties to the
//!   **earliest** opened (`min_by_key` keeps the first minimum): the
//!   *smallest* feasible entry.
//!
//! `seq` is a per-tag opening sequence number, so both structures order
//! bins exactly as the tag list iterates them. The structures are built
//! lazily per `(tag, query kind)` on first use and maintained
//! incrementally afterwards; a session that never issues a query (or
//! only uses Next Fit, which reads the tag list tail in O(1)) pays
//! nothing beyond one hash probe per level change. The slab's maps
//! (bin id → slot, tag → list, tag → fit index) hash with the keyed
//! multiply-fold of `crate::hash`, not SipHash. Each per-tag index is
//! dropped when its tag's last bin closes. Decisions are proven
//! bit-identical to the linear scan by the dbp-audit differential
//! harness and the indexed-vs-linear proptest family.

use crate::demand::Demand;
use crate::error::DbpError;
use crate::hash::FoldMap;
use crate::item::ItemId;
use crate::levels::{LevelIndex, LevelKey};
use crate::online::{ActiveItem, OpenBin};
use crate::packing::BinId;
use crate::size::Size;
use crate::sizevec::Scalarization;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Sentinel for "no slot" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// Per-slot traversal links and index keys, kept apart from the bin
/// payload (struct-of-arrays) so order walks stay cache-dense.
#[derive(Clone, Copy, Debug)]
struct Links {
    /// Opening-order list links.
    prev: u32,
    next: u32,
    /// Per-tag opening-order list links.
    tag_prev: u32,
    tag_next: u32,
    /// Per-tag opening sequence number: the fit index's tie-break key.
    seq: u64,
}

/// Head/tail of one tag's opening-order list plus its sequence counter.
#[derive(Clone, Copy, Debug)]
struct TagList {
    head: u32,
    tail: u32,
    next_seq: u64,
}

/// The lazily-built fit structures of one tag.
#[derive(Clone, Debug)]
struct FitIndex<D: Demand> {
    /// Max-gap tournament tree over the tag's opening order (First Fit).
    seg: Option<GapTree<D>>,
    /// Level index under one scalarization (Best/Worst Fit); rebuilt
    /// if a query asks for a different scalarization.
    ordered: Option<(Scalarization, D::LevelIndex)>,
}

impl<D: Demand> Default for FitIndex<D> {
    fn default() -> Self {
        FitIndex {
            seg: None,
            ordered: None,
        }
    }
}

/// Interior-mutable index state: queries take `&OpenBins` (packers hold a
/// shared borrow inside `place`) but must be able to build structures on
/// first use.
#[derive(Clone, Debug)]
struct FitState<D: Demand> {
    by_tag: FoldMap<u64, FitIndex<D>>,
    /// slot → leaf position in its tag's [`GapTree`] (meaningful only
    /// while that tree exists).
    pos: Vec<u32>,
}

impl<D: Demand> Default for FitState<D> {
    fn default() -> Self {
        FitState {
            by_tag: FoldMap::default(),
            pos: Vec::new(),
        }
    }
}

/// A max-gap tournament (segment) tree over one tag's opening order.
///
/// Leaf `p` holds the residual gap of the `p`-th-opened live bin of the
/// tag; internal nodes hold the [`Demand::combine`] (per-axis max) of
/// their children. Dead or unallocated leaves hold the zero node, which
/// no valid item demand (raw ≥ 1 on every axis) can match, so removals
/// are O(log) leaf kills and the leftmost-feasible descent never lands on
/// a closed bin. When more than half the positions are dead the tree
/// compacts, preserving relative order, so memory stays proportional to
/// the live fleet.
#[derive(Clone, Debug)]
struct GapTree<D: Demand> {
    /// Heap layout: `node[1]` is the root, leaf `p` lives at `node[cap + p]`.
    node: Vec<D::Node>,
    cap: usize,
    /// Leaf position → slab slot; [`NIL`] marks dead positions.
    slot_at: Vec<u32>,
    live: usize,
}

impl<D: Demand> GapTree<D> {
    fn new() -> GapTree<D> {
        GapTree {
            node: vec![D::Node::default(); 2],
            cap: 1,
            slot_at: Vec::new(),
            live: 0,
        }
    }

    /// Appends a live leaf in opening order, returning its position.
    /// `moved` is invoked with `(slot, new_pos)` for every relocated
    /// leaf if the append forces a rebuild.
    fn append(&mut self, slot: u32, gap: D::Node, moved: impl FnMut(u32, u32)) -> u32 {
        if self.slot_at.len() == self.cap {
            self.rebuild(self.cap * 2, moved);
        }
        let p = self.slot_at.len() as u32;
        self.slot_at.push(slot);
        self.live += 1;
        self.set(p, gap);
        p
    }

    /// Updates the gap at `pos` and restores the envelope upward.
    fn set(&mut self, pos: u32, gap: D::Node) {
        let mut i = self.cap + pos as usize;
        self.node[i] = gap;
        while i > 1 {
            i /= 2;
            let m = D::combine(self.node[2 * i], self.node[2 * i + 1]);
            if self.node[i] == m {
                break;
            }
            self.node[i] = m;
        }
    }

    /// Kills the leaf at `pos` (bin closed).
    fn kill(&mut self, pos: u32) {
        self.slot_at[pos as usize] = NIL;
        self.set(pos, D::Node::default());
        self.live -= 1;
    }

    /// Whether dead positions outnumber live ones enough to compact.
    /// The floor keeps tiny tags from churning.
    fn needs_compact(&self) -> bool {
        self.slot_at.len() >= 64 && self.live * 2 < self.slot_at.len()
    }

    /// Rebuilds with capacity ≥ `min_cap`, dropping dead positions while
    /// preserving relative (opening) order. `moved` receives every
    /// surviving leaf's `(slot, new_pos)`.
    fn rebuild(&mut self, min_cap: usize, mut moved: impl FnMut(u32, u32)) {
        let entries: Vec<(u32, D::Node)> = self
            .slot_at
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != NIL)
            .map(|(p, &s)| (s, self.node[self.cap + p]))
            .collect();
        let cap = entries.len().max(min_cap).max(1).next_power_of_two();
        self.node.clear();
        self.node.resize(2 * cap, D::Node::default());
        self.cap = cap;
        self.slot_at.clear();
        self.live = entries.len();
        for (p, (slot, gap)) in entries.into_iter().enumerate() {
            self.slot_at.push(slot);
            self.node[cap + p] = gap;
            moved(slot, p as u32);
        }
        for i in (1..cap).rev() {
            self.node[i] = D::combine(self.node[2 * i], self.node[2 * i + 1]);
        }
    }

    /// The leftmost (earliest-opened) live leaf whose gap covers `want`,
    /// together with the number of tree nodes probed.
    fn query(&self, want: D::Node) -> (Option<u32>, usize) {
        if self.live == 0 {
            return (None, 0);
        }
        let mut probes = 1;
        if !D::covers(self.node[1], want) {
            return (None, probes);
        }
        if D::EXACT_NODES {
            // A covering node always has a covering child: descend one
            // path, preferring the left (earlier-opened) subtree.
            let mut i = 1;
            while i < self.cap {
                probes += 1;
                i *= 2;
                if !D::covers(self.node[i], want) {
                    i += 1;
                }
            }
            return (Some(self.slot_at[i - self.cap]), probes);
        }
        // Covering is only necessary: pruned left-first DFS. A passing
        // *leaf* is exact, so the first leaf reached is the leftmost
        // feasible bin. The right child is pushed first so the left pops
        // first. The stack holds at most one pending sibling per level
        // plus the node in hand, so a fixed array covers any `u32` slab.
        let mut stack = [0usize; 66];
        let mut len = 1;
        stack[0] = 1;
        while len > 0 {
            len -= 1;
            let i = stack[len];
            if i >= self.cap {
                return (Some(self.slot_at[i - self.cap]), probes);
            }
            let (l, r) = (2 * i, 2 * i + 1);
            probes += 2;
            for child in [r, l] {
                if D::covers(self.node[child], want) {
                    stack[len] = child;
                    len += 1;
                }
            }
        }
        (None, probes)
    }

    fn approx_bytes(&self) -> usize {
        self.node.capacity() * std::mem::size_of::<D::Node>()
            + self.slot_at.capacity() * std::mem::size_of::<u32>()
    }
}

/// The set of currently open bins, ordered by opening time.
///
/// Packers receive `&OpenBins<D>` in [`crate::online::OnlinePacker::place`].
/// Use [`OpenBins::iter`] (or `for bin in open_bins`) to scan the whole
/// fleet in opening order, [`OpenBins::iter_tag`] to scan one category,
/// [`OpenBins::get`] for O(1) lookup by id, and the indexed fit queries
/// ([`OpenBins::first_fit`], [`OpenBins::best_fit`],
/// [`OpenBins::worst_fit`]) for placement decisions that match the
/// linear scan bit for bit.
#[derive(Clone, Debug)]
pub struct OpenBins<D: Demand = Size> {
    /// Slab payload (struct-of-arrays: cold half).
    bins: Vec<Option<OpenBin<D>>>,
    /// Slab links and index keys (struct-of-arrays: hot half). Entries
    /// for free slots are stale and rewritten on insert.
    links: Vec<Links>,
    free: Vec<u32>,
    index: FoldMap<BinId, u32>,
    /// Head/tail of the global opening-order list.
    head: u32,
    tail: u32,
    /// Tag → that tag's opening-order list. Entries are removed when a
    /// tag's last bin closes, so the map tracks *live* tags only.
    tags: FoldMap<u64, TagList>,
    /// Lazily-built fit-query structures (see module docs).
    fit: RefCell<FitState<D>>,
}

impl<D: Demand> Default for OpenBins<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: Demand> OpenBins<D> {
    /// An empty open set.
    pub fn new() -> OpenBins<D> {
        OpenBins {
            bins: Vec::new(),
            links: Vec::new(),
            free: Vec::new(),
            index: FoldMap::default(),
            head: NIL,
            tail: NIL,
            tags: FoldMap::default(),
            fit: RefCell::new(FitState::default()),
        }
    }

    /// Number of open bins.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no bin is open.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn bin_at(&self, s: u32) -> &OpenBin<D> {
        self.bins[s as usize].as_ref().expect("linked slot")
    }

    /// The bin with this id, if it is open. O(1).
    pub fn get(&self, id: BinId) -> Option<&OpenBin<D>> {
        self.index.get(&id).map(|&s| self.bin_at(s))
    }

    /// Whether the bin with this id is open. O(1).
    pub fn contains(&self, id: BinId) -> bool {
        self.index.contains_key(&id)
    }

    /// The earliest-opened bin.
    pub fn first(&self) -> Option<&OpenBin<D>> {
        self.iter().next()
    }

    /// The latest-opened bin.
    pub fn last(&self) -> Option<&OpenBin<D>> {
        self.iter().next_back()
    }

    /// All open bins in opening order.
    pub fn iter(&self) -> Iter<'_, D> {
        Iter {
            bins: &self.bins,
            links: &self.links,
            front: self.head,
            back: self.tail,
            by_tag: false,
            done: self.head == NIL,
        }
    }

    /// The open bins carrying `tag`, in opening order. Scans only that
    /// category: cost is proportional to the category's size, not the
    /// fleet's.
    pub fn iter_tag(&self, tag: u64) -> Iter<'_, D> {
        let (head, tail) = self
            .tags
            .get(&tag)
            .map(|t| (t.head, t.tail))
            .unwrap_or((NIL, NIL));
        Iter {
            bins: &self.bins,
            links: &self.links,
            front: head,
            back: tail,
            by_tag: true,
            done: head == NIL,
        }
    }

    /// Position of the bin in opening order (0-based), if open. O(open):
    /// a diagnostic convenience for tests and tools — the engine itself
    /// never calls this (per-placement probe counts are reported by the
    /// packer via `OnlinePacker::last_scanned`, which is O(1) to read).
    pub fn position(&self, id: BinId) -> Option<usize> {
        self.iter().position(|b| b.id() == id)
    }

    /// The slots of `tag`'s bins in opening order.
    fn tag_slots(&self, tag: u64) -> impl Iterator<Item = u32> + '_ {
        let head = self.tags.get(&tag).map(|t| t.head).unwrap_or(NIL);
        std::iter::successors((head != NIL).then_some(head), move |&s| {
            let n = self.links[s as usize].tag_next;
            (n != NIL).then_some(n)
        })
    }

    /// The level-ordered set entry of the bin in slot `s`.
    fn level_key(&self, s: u32, scal: Scalarization) -> LevelKey {
        (
            self.bin_at(s).level().key(scal),
            self.links[s as usize].seq,
            s,
        )
    }

    // ------------------------------------------------------------------
    // Indexed fit queries
    // ------------------------------------------------------------------

    /// Indexed First Fit within `tag`: the earliest-opened bin with room
    /// for `size` (on every axis), or `None` if no bin of the tag fits.
    /// Returns the decision together with the number of index nodes
    /// probed (surfaced through `OnlinePacker::last_scanned`). The first
    /// call on a tag builds its tree in O(category).
    ///
    /// `size` must be a valid item demand.
    pub fn first_fit(&self, tag: u64, size: D) -> (Option<BinId>, usize) {
        debug_assert!(
            size.is_valid_item_size(),
            "fit queries require a valid demand"
        );
        let mut st = self.fit.borrow_mut();
        let FitState { by_tag, pos } = &mut *st;
        let entry = by_tag.entry(tag).or_default();
        if entry.seg.is_none() {
            let mut tree = GapTree::new();
            for s in self.tag_slots(tag) {
                let p = tree.append(s, self.bin_at(s).gap().node(), |sl, pp| {
                    pos[sl as usize] = pp
                });
                pos[s as usize] = p;
            }
            entry.seg = Some(tree);
        }
        let (slot, probes) = entry.seg.as_ref().expect("just built").query(size.node());
        (slot.map(|s| self.bin_at(s).id()), probes)
    }

    /// Indexed Best Fit within `tag`: the fullest bin with room for
    /// `size`, level ties resolved to the **latest** opened — exactly the
    /// bin a linear opening-order scan through `max_by_key(level)` keeps.
    /// Returns the decision and the probe count. Vector levels rank by
    /// the default [`Scalarization`]; see [`OpenBins::best_fit_by`].
    pub fn best_fit(&self, tag: u64, size: D) -> (Option<BinId>, usize) {
        self.best_fit_by(tag, size, Scalarization::default())
    }

    /// Indexed Worst Fit within `tag`: the emptiest bin with room for
    /// `size`, level ties resolved to the **earliest** opened — exactly
    /// the bin a linear scan through `min_by_key(level)` keeps.
    pub fn worst_fit(&self, tag: u64, size: D) -> (Option<BinId>, usize) {
        self.worst_fit_by(tag, size, Scalarization::default())
    }

    /// [`OpenBins::best_fit`] with levels ranked by `scal` (ignored for
    /// one axis, where every scalarization is the level).
    pub fn best_fit_by(&self, tag: u64, size: D, scal: Scalarization) -> (Option<BinId>, usize) {
        debug_assert!(
            size.is_valid_item_size(),
            "fit queries require a valid demand"
        );
        let mut st = self.fit.borrow_mut();
        let index = self.level_index(&mut st, tag, scal);
        let (slot, probes) = index.best(size, |s| self.bin_at(s).fits(size));
        (slot.map(|s| self.bin_at(s).id()), probes)
    }

    /// [`OpenBins::worst_fit`] with levels ranked by `scal`.
    pub fn worst_fit_by(&self, tag: u64, size: D, scal: Scalarization) -> (Option<BinId>, usize) {
        debug_assert!(
            size.is_valid_item_size(),
            "fit queries require a valid demand"
        );
        let mut st = self.fit.borrow_mut();
        let index = self.level_index(&mut st, tag, scal);
        let (slot, probes) = index.worst(size, |s| self.bin_at(s).fits(size));
        (slot.map(|s| self.bin_at(s).id()), probes)
    }

    /// The level index of `tag` under `scal`, (re)built on first use or
    /// on a scalarization switch.
    fn level_index<'a>(
        &self,
        st: &'a mut FitState<D>,
        tag: u64,
        scal: Scalarization,
    ) -> &'a D::LevelIndex {
        let entry = st.by_tag.entry(tag).or_default();
        if entry.ordered.as_ref().map(|(s, _)| *s) != Some(scal) {
            let mut index = D::LevelIndex::default();
            for s in self.tag_slots(tag) {
                index.insert(self.level_key(s, scal));
            }
            entry.ordered = Some((scal, index));
        }
        &entry.ordered.as_ref().expect("just built").1
    }

    // ------------------------------------------------------------------
    // Engine-internal mutation (every level change flows through here so
    // the fit structures can never drift from the bins)
    // ------------------------------------------------------------------

    /// Adds an item to an open bin, enforcing capacity. Returns `None`
    /// if the bin is not open; otherwise the bin's level after the push.
    pub(crate) fn push_to(
        &mut self,
        id: BinId,
        active: ActiveItem<D>,
        size: D,
    ) -> Option<Result<D, DbpError>> {
        let s = *self.index.get(&id)?;
        let bin = self.bins[s as usize].as_mut().expect("indexed slot");
        let old_level = bin.level();
        if let Err(e) = bin.push_item(active, size) {
            return Some(Err(e));
        }
        let (level, tag) = (bin.level(), bin.tag());
        self.fit_level_changed(tag, s, old_level, level);
        Some(Ok(level))
    }

    /// Removes a departing item from an open bin. Returns `None` if the
    /// bin is not open; otherwise `(became_empty, level_after)`. The
    /// caller still owns closing the bin (via [`OpenBins::remove`]) when
    /// it emptied.
    pub(crate) fn remove_from(
        &mut self,
        id: BinId,
        item: ItemId,
    ) -> Option<Result<(bool, D), DbpError>> {
        let s = *self.index.get(&id)?;
        let bin = self.bins[s as usize].as_mut().expect("indexed slot");
        let old_level = bin.level();
        let became_empty = match bin.remove_item(item) {
            Ok(e) => e,
            Err(e) => return Some(Err(e)),
        };
        let (level, tag) = (bin.level(), bin.tag());
        self.fit_level_changed(tag, s, old_level, level);
        Some(Ok((became_empty, level)))
    }

    /// Propagates a level change into the tag's active fit structures.
    fn fit_level_changed(&mut self, tag: u64, slot: u32, old_level: D, new_level: D) {
        let FitState { by_tag, pos } = self.fit.get_mut();
        if by_tag.is_empty() {
            return;
        }
        let Some(entry) = by_tag.get_mut(&tag) else {
            return;
        };
        if let Some(tree) = entry.seg.as_mut() {
            tree.set(pos[slot as usize], new_level.gap().node());
        }
        if let Some((scal, index)) = entry.ordered.as_mut() {
            let seq = self.links[slot as usize].seq;
            index.remove((old_level.key(*scal), seq, slot));
            index.insert((new_level.key(*scal), seq, slot));
        }
    }

    /// Appends a newly opened bin (engine-internal). O(1) plus O(log)
    /// per active fit structure of the tag.
    pub(crate) fn insert(&mut self, bin: OpenBin<D>) {
        let id = bin.id();
        let tag = bin.tag();
        let level = bin.level();
        debug_assert!(!self.index.contains_key(&id), "bin {id:?} already open");

        let s = match self.free.pop() {
            Some(s) => s,
            None => {
                self.bins.push(None);
                self.links.push(Links {
                    prev: NIL,
                    next: NIL,
                    tag_prev: NIL,
                    tag_next: NIL,
                    seq: 0,
                });
                self.fit.get_mut().pos.push(NIL);
                (self.bins.len() - 1) as u32
            }
        };

        let (tag_prev, seq) = match self.tags.get_mut(&tag) {
            Some(entry) => {
                let old_tail = entry.tail;
                entry.tail = s;
                let seq = entry.next_seq;
                entry.next_seq += 1;
                (old_tail, seq)
            }
            None => {
                self.tags.insert(
                    tag,
                    TagList {
                        head: s,
                        tail: s,
                        next_seq: 1,
                    },
                );
                (NIL, 0)
            }
        };
        if tag_prev != NIL {
            self.links[tag_prev as usize].tag_next = s;
        }

        let prev = self.tail;
        if prev != NIL {
            self.links[prev as usize].next = s;
        } else {
            self.head = s;
        }
        self.tail = s;

        self.links[s as usize] = Links {
            prev,
            next: NIL,
            tag_prev,
            tag_next: NIL,
            seq,
        };
        self.bins[s as usize] = Some(bin);
        self.index.insert(id, s);
        self.fit_on_insert(tag, s, level, seq);
    }

    fn fit_on_insert(&mut self, tag: u64, slot: u32, level: D, seq: u64) {
        let FitState { by_tag, pos } = self.fit.get_mut();
        if by_tag.is_empty() {
            return;
        }
        let Some(entry) = by_tag.get_mut(&tag) else {
            return;
        };
        if let Some(tree) = entry.seg.as_mut() {
            let p = tree.append(slot, level.gap().node(), |sl, pp| pos[sl as usize] = pp);
            pos[slot as usize] = p;
        }
        if let Some((scal, index)) = entry.ordered.as_mut() {
            index.insert((level.key(*scal), seq, slot));
        }
    }

    /// Removes a closed bin and returns it (engine-internal). O(1) plus
    /// amortized O(log) per active fit structure of the tag.
    pub(crate) fn remove(&mut self, id: BinId) -> Option<OpenBin<D>> {
        let s = self.index.remove(&id)?;
        let bin = self.bins[s as usize].take().expect("indexed slot");
        let links = self.links[s as usize];

        // Unlink from the global opening-order list.
        if links.prev != NIL {
            self.links[links.prev as usize].next = links.next;
        } else {
            self.head = links.next;
        }
        if links.next != NIL {
            self.links[links.next as usize].prev = links.prev;
        } else {
            self.tail = links.prev;
        }

        // Unlink from the tag list, dropping the tag entry when it empties.
        let tag = bin.tag();
        if links.tag_prev != NIL {
            self.links[links.tag_prev as usize].tag_next = links.tag_next;
        }
        if links.tag_next != NIL {
            self.links[links.tag_next as usize].tag_prev = links.tag_prev;
        }
        let entry = self.tags.get_mut(&tag).expect("open tag entry");
        let mut tag_died = false;
        if entry.head == s && entry.tail == s {
            self.tags.remove(&tag);
            tag_died = true;
        } else if entry.head == s {
            entry.head = links.tag_next;
        } else if entry.tail == s {
            entry.tail = links.tag_prev;
        }

        self.free.push(s);
        self.fit_on_remove(tag, s, bin.level(), links.seq, tag_died);
        Some(bin)
    }

    fn fit_on_remove(&mut self, tag: u64, slot: u32, level: D, seq: u64, tag_died: bool) {
        let FitState { by_tag, pos } = self.fit.get_mut();
        if by_tag.is_empty() {
            return;
        }
        if tag_died {
            // The tag's structures die with it: memory stays bounded by
            // the live fleet (CBDT retires categories forever), and a
            // revived tag rebuilds from its then-live bins.
            by_tag.remove(&tag);
            return;
        }
        let Some(entry) = by_tag.get_mut(&tag) else {
            return;
        };
        if let Some(tree) = entry.seg.as_mut() {
            tree.kill(pos[slot as usize]);
            if tree.needs_compact() {
                tree.rebuild(0, |sl, pp| pos[sl as usize] = pp);
            }
        }
        if let Some((scal, index)) = entry.ordered.as_mut() {
            index.remove((level.key(*scal), seq, slot));
        }
    }

    /// Bytes of heap-adjacent state held per open slot — a cheap live-state
    /// proxy used by the benchmark's RSS estimate. Hash maps count their
    /// entries, not their key-dependent capacity.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let fit = self.fit.borrow();
        let fit_bytes: usize = fit.pos.capacity() * size_of::<u32>()
            + fit
                .by_tag
                .values()
                .map(|e| {
                    e.seg.as_ref().map(GapTree::approx_bytes).unwrap_or(0)
                        + e.ordered
                            .as_ref()
                            .map(|(_, index)| index.approx_bytes())
                            .unwrap_or(0)
                })
                .sum::<usize>();
        self.bins.capacity() * size_of::<Option<OpenBin<D>>>()
            + self.links.capacity() * size_of::<Links>()
            + self.free.capacity() * size_of::<u32>()
            + self.index.len() * (size_of::<BinId>() + size_of::<u32>())
            + self.tags.len() * (size_of::<u64>() + size_of::<TagList>())
            + fit_bytes
            + self
                .iter()
                .map(|b| std::mem::size_of_val(b.items()))
                .sum::<usize>()
    }

    /// Exhaustively checks every internal invariant: slab/index/free-list
    /// agreement, both intrusive lists, per-tag sequence monotonicity,
    /// and — for every active fit structure — exact agreement with the
    /// bins it indexes. O(everything); meant for tests and the
    /// index-consistency proptests, never the hot path.
    #[doc(hidden)]
    pub fn validate(&self) -> Result<(), String> {
        let err = |what: String| Err(what);
        if self.bins.len() != self.links.len() {
            return err(format!(
                "SoA skew: {} bins vs {} links",
                self.bins.len(),
                self.links.len()
            ));
        }
        let live: Vec<u32> = (0..self.bins.len() as u32)
            .filter(|&s| self.bins[s as usize].is_some())
            .collect();
        if live.len() != self.index.len() {
            return err(format!(
                "{} live slots but {} index entries",
                live.len(),
                self.index.len()
            ));
        }
        for (&id, &s) in &self.index {
            match self.bins.get(s as usize).and_then(Option::as_ref) {
                Some(b) if b.id() == id => {}
                _ => return err(format!("index maps {id:?} to a bad slot {s}")),
            }
        }
        // Free list covers exactly the dead slots, once each.
        let mut free_set = std::collections::HashSet::new();
        for &f in &self.free {
            if !free_set.insert(f) {
                return err(format!("slot {f} on the free list twice"));
            }
            if self.bins.get(f as usize).map(Option::is_some) != Some(false) {
                return err(format!("free slot {f} is live or out of range"));
            }
        }
        if free_set.len() + live.len() != self.bins.len() {
            return err("free list and live slots do not partition the slab".into());
        }
        // Global list: a consistent double-linked walk over all live slots.
        let mut order = Vec::new();
        let mut cur = self.head;
        let mut prev = NIL;
        while cur != NIL {
            if self.bins[cur as usize].is_none() {
                return err(format!("global list visits dead slot {cur}"));
            }
            if self.links[cur as usize].prev != prev {
                return err(format!("slot {cur} has a bad prev link"));
            }
            order.push(cur);
            prev = cur;
            cur = self.links[cur as usize].next;
            if order.len() > self.bins.len() {
                return err("global list cycles".into());
            }
        }
        if self.tail != prev {
            return err("tail does not end the global list".into());
        }
        if order.len() != live.len() {
            return err(format!(
                "global list visits {} of {} live bins",
                order.len(),
                live.len()
            ));
        }
        let rank: HashMap<u32, usize> = order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        // Tag lists: partition the fleet, preserve global order, and
        // carry strictly increasing sequence numbers.
        let mut tagged = 0usize;
        for (&tag, list) in &self.tags {
            let mut cur = list.head;
            let mut prev = NIL;
            let mut last_rank = None;
            let mut last_seq = None;
            while cur != NIL {
                let b = self
                    .bins
                    .get(cur as usize)
                    .and_then(Option::as_ref)
                    .ok_or_else(|| format!("tag {tag} list visits dead slot {cur}"))?;
                if b.tag() != tag {
                    return err(format!("tag {tag} list holds a bin tagged {}", b.tag()));
                }
                if self.links[cur as usize].tag_prev != prev {
                    return err(format!("slot {cur} has a bad tag_prev link"));
                }
                let r = rank[&cur];
                if last_rank.is_some_and(|lr| lr >= r) {
                    return err(format!("tag {tag} list breaks opening order"));
                }
                let seq = self.links[cur as usize].seq;
                if last_seq.is_some_and(|ls| ls >= seq) {
                    return err(format!("tag {tag} sequence numbers not increasing"));
                }
                if seq >= list.next_seq {
                    return err(format!("tag {tag} holds seq {seq} >= next_seq"));
                }
                last_rank = Some(r);
                last_seq = Some(seq);
                tagged += 1;
                prev = cur;
                cur = self.links[cur as usize].tag_next;
                if tagged > live.len() {
                    return err("tag lists cycle".into());
                }
            }
            if list.tail != prev {
                return err(format!("tag {tag} tail does not end its list"));
            }
            if list.head == NIL {
                return err(format!("tag {tag} entry is empty but retained"));
            }
        }
        if tagged != live.len() {
            return err(format!(
                "tag lists cover {tagged} of {} live bins",
                live.len()
            ));
        }
        // Fit structures: exact agreement with the bins they index.
        let fit = self.fit.borrow();
        for (&tag, entry) in &fit.by_tag {
            let slots: Vec<u32> = self.tag_slots(tag).collect();
            if let Some(tree) = entry.seg.as_ref() {
                if tree.live != slots.len() {
                    return err(format!(
                        "tag {tag} tree tracks {} of {} bins",
                        tree.live,
                        slots.len()
                    ));
                }
                let mut last_pos = None;
                for &s in &slots {
                    let p = fit.pos[s as usize];
                    if tree.slot_at.get(p as usize) != Some(&s) {
                        return err(format!("tag {tag} slot {s} lost its tree leaf"));
                    }
                    if tree.node[tree.cap + p as usize] != self.bin_at(s).gap().node() {
                        return err(format!("tag {tag} slot {s} leaf gap is stale"));
                    }
                    if last_pos.is_some_and(|lp| lp >= p) {
                        return err(format!("tag {tag} tree breaks opening order"));
                    }
                    last_pos = Some(p);
                }
                for (p, &s) in tree.slot_at.iter().enumerate() {
                    if s != NIL && !slots.contains(&s) {
                        return err(format!("tag {tag} tree leaf {p} points at a foreign slot"));
                    }
                }
                for i in 1..tree.cap {
                    if tree.node[i] != D::combine(tree.node[2 * i], tree.node[2 * i + 1]) {
                        return err(format!("tag {tag} tree node {i} violates max property"));
                    }
                }
            }
            if let Some((scal, index)) = entry.ordered.as_ref() {
                let expect: BTreeSet<LevelKey> =
                    slots.iter().map(|&s| self.level_key(s, *scal)).collect();
                let held = index
                    .entries()
                    .map_err(|why| format!("tag {tag} level index: {why}"))?;
                if held != expect {
                    return err(format!("tag {tag} level index is stale"));
                }
            }
        }
        Ok(())
    }
}

impl<'a, D: Demand> IntoIterator for &'a OpenBins<D> {
    type Item = &'a OpenBin<D>;
    type IntoIter = Iter<'a, D>;

    fn into_iter(self) -> Iter<'a, D> {
        self.iter()
    }
}

/// Double-ended iterator over open bins in opening order.
///
/// Returned by [`OpenBins::iter`] (whole fleet) and [`OpenBins::iter_tag`]
/// (one category).
#[derive(Clone, Debug)]
pub struct Iter<'a, D: Demand = Size> {
    bins: &'a [Option<OpenBin<D>>],
    links: &'a [Links],
    front: u32,
    back: u32,
    by_tag: bool,
    done: bool,
}

impl<'a, D: Demand> Iter<'a, D> {
    fn bin(&self, s: u32) -> &'a OpenBin<D> {
        self.bins[s as usize].as_ref().expect("linked slot")
    }
}

impl<'a, D: Demand> Iterator for Iter<'a, D> {
    type Item = &'a OpenBin<D>;

    fn next(&mut self) -> Option<&'a OpenBin<D>> {
        if self.done {
            return None;
        }
        let cur = self.front;
        if cur == self.back {
            self.done = true;
        } else {
            let links = &self.links[cur as usize];
            self.front = if self.by_tag {
                links.tag_next
            } else {
                links.next
            };
        }
        Some(self.bin(cur))
    }
}

impl<'a, D: Demand> DoubleEndedIterator for Iter<'a, D> {
    fn next_back(&mut self) -> Option<&'a OpenBin<D>> {
        if self.done {
            return None;
        }
        let cur = self.back;
        if cur == self.front {
            self.done = true;
        } else {
            let links = &self.links[cur as usize];
            self.back = if self.by_tag {
                links.tag_prev
            } else {
                links.prev
            };
        }
        Some(self.bin(cur))
    }
}

impl<D: Demand> std::iter::FusedIterator for Iter<'_, D> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemId;
    use crate::online::ActiveItem;
    use crate::size::Size;
    use crate::sizevec::SizeVec;

    /// A bin of demand type `D` opened by its first item of demand `size`.
    fn bin_of<D: Demand>(id: u32, tag: u64, size: D) -> OpenBin<D> {
        OpenBin::new(
            BinId(id),
            id as i64,
            tag,
            ActiveItem {
                id: ItemId(id),
                size,
                departure: None,
            },
        )
    }

    fn bin(id: u32, tag: u64) -> OpenBin {
        bin_sized(id, tag, 0.25)
    }

    fn bin_sized(id: u32, tag: u64, size: f64) -> OpenBin {
        bin_of(id, tag, Size::from_f64(size))
    }

    fn sv(fracs: &[f64]) -> SizeVec {
        SizeVec::from_f64s(fracs)
    }

    fn vbin(id: u32, tag: u64, level: &[f64]) -> OpenBin<SizeVec> {
        bin_of(id, tag, sv(level))
    }

    fn ids(it: impl Iterator<Item = u32>) -> Vec<u32> {
        it.collect()
    }

    #[test]
    fn opening_order_is_preserved_through_removals() {
        fn check<D: Demand>(unit: D) {
            let mut open = OpenBins::new();
            for i in 0..6 {
                open.insert(bin_of(i, i as u64 % 2, unit));
            }
            assert_eq!(open.len(), 6);
            assert_eq!(ids(open.iter().map(|b| b.id().0)), vec![0, 1, 2, 3, 4, 5]);

            open.remove(BinId(0)).unwrap(); // head
            open.remove(BinId(3)).unwrap(); // middle
            open.remove(BinId(5)).unwrap(); // tail
            assert_eq!(ids(open.iter().map(|b| b.id().0)), vec![1, 2, 4]);
            assert_eq!(open.first().unwrap().id(), BinId(1));
            assert_eq!(open.last().unwrap().id(), BinId(4));

            // Slab reuses freed slots without disturbing order.
            open.insert(bin_of(6, 1, unit));
            assert_eq!(ids(open.iter().map(|b| b.id().0)), vec![1, 2, 4, 6]);
            assert_eq!(ids(open.iter_tag(1).map(|b| b.id().0)), vec![1, 6]);
            assert_eq!(open.position(BinId(4)), Some(2));
            assert_eq!(open.position(BinId(0)), None);
            open.validate().unwrap();
        }
        check(Size::from_f64(0.25));
        check(sv(&[0.25, 0.25]));
    }

    #[test]
    fn tag_partitions_track_membership() {
        let mut open = OpenBins::new();
        for i in 0..6 {
            open.insert(bin(i, i as u64 % 3));
        }
        assert_eq!(ids(open.iter_tag(0).map(|b| b.id().0)), vec![0, 3]);
        assert_eq!(ids(open.iter_tag(1).map(|b| b.id().0)), vec![1, 4]);
        assert_eq!(ids(open.iter_tag(2).map(|b| b.id().0)), vec![2, 5]);
        assert_eq!(ids(open.iter_tag(9).map(|b| b.id().0)), Vec::<u32>::new());

        open.remove(BinId(0)).unwrap();
        open.remove(BinId(3)).unwrap();
        assert_eq!(ids(open.iter_tag(0).map(|b| b.id().0)), Vec::<u32>::new());
        assert_eq!(ids(open.iter_tag(1).map(|b| b.id().0)), vec![1, 4]);

        open.insert(bin(7, 0));
        assert_eq!(ids(open.iter_tag(0).map(|b| b.id().0)), vec![7]);
        open.validate().unwrap();
    }

    #[test]
    fn double_ended_iteration_meets_in_the_middle() {
        let mut open = OpenBins::new();
        for i in 0..4 {
            open.insert(bin(i, 0));
        }
        assert_eq!(ids(open.iter().rev().map(|b| b.id().0)), vec![3, 2, 1, 0]);
        let mut it = open.iter();
        assert_eq!(it.next().unwrap().id(), BinId(0));
        assert_eq!(it.next_back().unwrap().id(), BinId(3));
        assert_eq!(it.next().unwrap().id(), BinId(1));
        assert_eq!(it.next_back().unwrap().id(), BinId(2));
        assert!(it.next().is_none());
        assert!(it.next_back().is_none());
        assert_eq!(
            ids(open.iter_tag(0).rev().map(|b| b.id().0)),
            vec![3, 2, 1, 0]
        );
    }

    #[test]
    fn get_is_indexed_and_removal_returns_the_bin() {
        let mut open = OpenBins::new();
        open.insert(bin(10, 7));
        open.insert(bin(11, 7));
        assert!(open.contains(BinId(10)));
        assert_eq!(open.get(BinId(11)).unwrap().tag(), 7);
        assert!(open.get(BinId(12)).is_none());
        let removed = open.remove(BinId(10)).unwrap();
        assert_eq!(removed.id(), BinId(10));
        assert!(open.remove(BinId(10)).is_none());
        assert_eq!(open.len(), 1);
        assert!(open.approx_bytes() > 0);
    }

    /// The linear scans the indexed queries must reproduce bit for bit.
    fn linear_first<D: Demand>(open: &OpenBins<D>, tag: u64, size: D) -> Option<BinId> {
        open.iter_tag(tag).find(|b| b.fits(size)).map(|b| b.id())
    }
    fn linear_best<D: Demand>(
        open: &OpenBins<D>,
        tag: u64,
        size: D,
        scal: Scalarization,
    ) -> Option<BinId> {
        open.iter_tag(tag)
            .filter(|b| b.fits(size))
            .max_by_key(|b| b.level().key(scal))
            .map(|b| b.id())
    }
    fn linear_worst<D: Demand>(
        open: &OpenBins<D>,
        tag: u64,
        size: D,
        scal: Scalarization,
    ) -> Option<BinId> {
        open.iter_tag(tag)
            .filter(|b| b.fits(size))
            .min_by_key(|b| b.level().key(scal))
            .map(|b| b.id())
    }

    /// Every indexed query against its linear scan, under every
    /// scalarization.
    fn assert_queries_match<D: Demand>(open: &OpenBins<D>, tag: u64, size: D) {
        assert_eq!(
            open.first_fit(tag, size).0,
            linear_first(open, tag, size),
            "ff {size:?}"
        );
        for scal in [Scalarization::Sum, Scalarization::MaxAxis] {
            assert_eq!(
                open.best_fit_by(tag, size, scal).0,
                linear_best(open, tag, size, scal),
                "bf {size:?} {scal:?}"
            );
            assert_eq!(
                open.worst_fit_by(tag, size, scal).0,
                linear_worst(open, tag, size, scal),
                "wf {size:?} {scal:?}"
            );
        }
    }

    #[test]
    fn fit_queries_match_linear_scans() {
        let mut open = OpenBins::new();
        // Levels: 0.25, 0.5, 0.25, 0.75, 0.5 — duplicate levels force the
        // tie-break rules to matter.
        for (i, lvl) in [0.25, 0.5, 0.25, 0.75, 0.5].iter().enumerate() {
            open.insert(bin_sized(i as u32, 0, *lvl));
        }
        for size in [0.1, 0.26, 0.5, 0.74, 0.76, 1.0] {
            assert_queries_match(&open, 0, Size::from_f64(size));
        }
        // Best fit level ties resolve to the LATEST opened (ids 1 and 4
        // both at 0.5): max_by_key keeps the last maximum.
        let s = Size::from_f64(0.4);
        assert_eq!(open.best_fit(0, s).0, Some(BinId(4)));
        // Worst fit level ties resolve to the EARLIEST opened (ids 0 and
        // 2 both at 0.25): min_by_key keeps the first minimum.
        assert_eq!(open.worst_fit(0, s).0, Some(BinId(0)));
        open.validate().unwrap();

        // The same contract for vectors, where scalarized ties (bins 0
        // and 2 sum to 0.75, bins 1 and 4 too) meet all-axes feasibility.
        let mut open = OpenBins::new();
        let levels: &[&[f64]] = &[
            &[0.25, 0.5],
            &[0.5, 0.25],
            &[0.25, 0.5],
            &[0.75, 0.2],
            &[0.5, 0.25],
        ];
        for (i, lvl) in levels.iter().enumerate() {
            open.insert(vbin(i as u32, 0, lvl));
        }
        for size in [
            &[0.1, 0.1][..],
            &[0.26, 0.4],
            &[0.5, 0.5],
            &[0.74, 0.1],
            &[0.9, 0.9],
            &[0.2, 0.2],
        ] {
            assert_queries_match(&open, 0, sv(size));
        }
        assert_eq!(
            open.worst_fit(0, sv(&[0.2, 0.2])).0,
            Some(BinId(0)),
            "worst-fit ties resolve earliest"
        );
        open.validate().unwrap();
    }

    #[test]
    fn vector_feasibility_requires_every_axis() {
        let mut open = OpenBins::new();
        // Bin 0 has room on axis 0 only; bin 1 has room on both.
        open.insert(vbin(0, 0, &[0.1, 0.9]));
        open.insert(vbin(1, 0, &[0.5, 0.5]));
        let need = sv(&[0.3, 0.3]);
        assert_eq!(open.first_fit(0, need).0, Some(BinId(1)));
        assert_eq!(open.first_fit(0, need).0, linear_first(&open, 0, need));
        // On axis 0 alone, bin 0 would win — the scalar shortcut is wrong.
        let axis0_only = sv(&[0.3, 0.05]);
        assert_eq!(open.first_fit(0, axis0_only).0, Some(BinId(0)));
        open.validate().unwrap();
    }

    #[test]
    fn vector_best_fit_skips_infeasible_fuller_bins() {
        let mut open = OpenBins::new();
        // Fullest by sum, but axis 1 is nearly exhausted.
        open.insert(vbin(0, 0, &[0.2, 0.95]));
        open.insert(vbin(1, 0, &[0.5, 0.5]));
        let s = sv(&[0.2, 0.2]);
        let (hit, probes) = open.best_fit(0, s);
        assert_eq!(hit, Some(BinId(1)));
        assert_eq!(probes, 2, "walked past the infeasible fuller bin");
        assert_eq!(hit, linear_best(&open, 0, s, Scalarization::Sum));
        open.validate().unwrap();
    }

    #[test]
    fn vector_worst_fit_cannot_use_the_scalar_shortcut() {
        let mut open = OpenBins::new();
        // Emptiest by sum, but infeasible on axis 1; a fuller bin fits.
        open.insert(vbin(0, 0, &[0.05, 0.95]));
        open.insert(vbin(1, 0, &[0.6, 0.3]));
        let s = sv(&[0.2, 0.2]);
        assert_eq!(open.worst_fit(0, s).0, Some(BinId(1)));
        assert_eq!(
            open.worst_fit(0, s).0,
            linear_worst(&open, 0, s, Scalarization::Sum)
        );
        open.validate().unwrap();
    }

    #[test]
    fn fit_queries_track_mutation_and_slot_reuse() {
        let mut open = OpenBins::new();
        for i in 0..8 {
            open.insert(bin_sized(i, 7, 0.3));
        }
        // Activate both structures, then mutate through every path.
        let s = Size::from_f64(0.5);
        assert_eq!(open.first_fit(7, s).0, Some(BinId(0)));
        assert_eq!(open.best_fit(7, s).0, Some(BinId(7)));
        // Push an item into bin 2: its level rises, gap falls.
        open.push_to(
            BinId(2),
            ActiveItem {
                id: ItemId(100),
                size: Size::from_f64(0.4),
                departure: None,
            },
            Size::from_f64(0.4),
        )
        .unwrap()
        .unwrap();
        assert_eq!(open.best_fit(7, Size::from_f64(0.3)).0, Some(BinId(2)));
        open.validate().unwrap();
        // Remove bins, reuse slots, re-query.
        open.remove(BinId(0)).unwrap();
        open.remove(BinId(2)).unwrap();
        open.insert(bin_sized(20, 7, 0.9));
        assert_eq!(open.first_fit(7, Size::from_f64(0.65)).0, Some(BinId(1)));
        assert_eq!(open.best_fit(7, Size::from_f64(0.05)).0, Some(BinId(20)));
        assert_eq!(open.worst_fit(7, Size::from_f64(0.05)).0, Some(BinId(1)));
        // Departure shrinks a level back down.
        open.remove_from(BinId(20), ItemId(20)).unwrap().unwrap();
        assert_queries_match(&open, 7, Size::from_f64(0.05));
        open.validate().unwrap();

        // Vectors, including a scalarization switch (the set rebuilds).
        let mut open = OpenBins::new();
        for i in 0..8 {
            open.insert(vbin(i, 7, &[0.3, 0.2]));
        }
        let s = sv(&[0.5, 0.5]);
        assert_eq!(open.first_fit(7, s).0, Some(BinId(0)));
        assert_eq!(open.best_fit(7, s).0, Some(BinId(7)));
        open.push_to(
            BinId(2),
            ActiveItem {
                id: ItemId(100),
                size: sv(&[0.4, 0.1]),
                departure: None,
            },
            sv(&[0.4, 0.1]),
        )
        .unwrap()
        .unwrap();
        assert_eq!(open.best_fit(7, sv(&[0.3, 0.3])).0, Some(BinId(2)));
        assert_queries_match(&open, 7, sv(&[0.3, 0.3]));
        open.validate().unwrap();
        open.remove(BinId(0)).unwrap();
        open.remove(BinId(2)).unwrap();
        open.insert(vbin(20, 7, &[0.9, 0.05]));
        assert_queries_match(&open, 7, sv(&[0.65, 0.1]));
        open.remove_from(BinId(20), ItemId(20)).unwrap().unwrap();
        assert_queries_match(&open, 7, sv(&[0.05, 0.05]));
        open.validate().unwrap();
    }

    #[test]
    fn empty_and_missing_tags_report_zero_probes() {
        fn check<D: Demand>(size: D) {
            let open = OpenBins::<D>::new();
            assert_eq!(open.first_fit(3, size), (None, 0));
            assert_eq!(open.best_fit(3, size), (None, 0));
            assert_eq!(open.worst_fit(3, size), (None, 0));
            open.validate().unwrap();
        }
        check(Size::from_f64(0.5));
        check(sv(&[0.5, 0.5]));
    }

    #[test]
    fn probe_counts_stay_logarithmic() {
        let mut open = OpenBins::new();
        for i in 0..1000 {
            open.insert(bin_sized(i, 0, 0.999));
        }
        // Nothing fits 0.5: first-fit still answers in one root probe,
        // best/worst in one ordered probe.
        let s = Size::from_f64(0.5);
        let (hit, probes) = open.first_fit(0, s);
        assert_eq!(hit, None);
        assert_eq!(probes, 1);
        assert_eq!(open.best_fit(0, s), (None, 1));
        // A feasible query walks one root-to-leaf path: ~log2(1000).
        open.insert(bin_sized(2000, 0, 0.25));
        let (hit, probes) = open.first_fit(0, s);
        assert_eq!(hit, Some(BinId(2000)));
        assert!(probes <= 12, "{probes} probes for 1001 bins");
        open.validate().unwrap();

        // Vectors on a uniform fleet: every full subtree is rejected at
        // its envelope, so the pruned DFS stays O(log B) too.
        let mut open = OpenBins::new();
        for i in 0..1000 {
            open.insert(vbin(i, 0, &[0.999, 0.999]));
        }
        open.insert(vbin(2000, 0, &[0.25, 0.25]));
        let (hit, probes) = open.first_fit(0, sv(&[0.5, 0.5]));
        assert_eq!(hit, Some(BinId(2000)));
        assert!(probes <= 40, "{probes} probes for 1001 bins");
        open.validate().unwrap();
    }

    #[test]
    fn tree_compaction_preserves_order() {
        let mut open = OpenBins::new();
        for i in 0..256 {
            open.insert(bin_sized(i, 0, 0.6));
        }
        let s = Size::from_f64(0.3);
        assert_eq!(open.first_fit(0, s).0, Some(BinId(0)));
        // Close most of the fleet to force compaction, in a scattered order.
        for i in (0..256).filter(|i| i % 3 != 1) {
            open.remove(BinId(i)).unwrap();
        }
        open.validate().unwrap();
        assert_eq!(open.first_fit(0, s).0, linear_first(&open, 0, s));
        assert_eq!(open.first_fit(0, s).0, Some(BinId(1)));
        // Inserts after compaction still land behind the survivors.
        open.insert(bin_sized(999, 0, 0.6));
        assert_eq!(open.first_fit(0, s).0, Some(BinId(1)));
        open.validate().unwrap();
    }

    #[test]
    fn vector_tree_prunes_and_compacts_preserving_order() {
        let mut open = OpenBins::new();
        for i in 0..256 {
            open.insert(vbin(i, 0, &[0.6, 0.6]));
        }
        let s = sv(&[0.3, 0.3]);
        assert_eq!(open.first_fit(0, s).0, Some(BinId(0)));
        for i in (0..256).filter(|i| i % 3 != 1) {
            open.remove(BinId(i)).unwrap();
        }
        open.validate().unwrap();
        assert_eq!(open.first_fit(0, s).0, linear_first(&open, 0, s));
        assert_eq!(open.first_fit(0, s).0, Some(BinId(1)));
        open.insert(vbin(999, 0, &[0.6, 0.6]));
        assert_eq!(open.first_fit(0, s).0, Some(BinId(1)));
        open.validate().unwrap();
        // An infeasible query is rejected at the root in one probe.
        let (hit, probes) = open.first_fit(0, sv(&[0.9, 0.9]));
        assert_eq!(hit, None);
        assert_eq!(probes, 1);
    }

    #[test]
    fn push_and_remove_report_missing_bins() {
        let mut open = OpenBins::new();
        open.insert(bin(1, 0));
        assert!(open
            .push_to(
                BinId(9),
                ActiveItem {
                    id: ItemId(5),
                    size: Size::HALF,
                    departure: None
                },
                Size::HALF
            )
            .is_none());
        assert!(open.remove_from(BinId(9), ItemId(5)).is_none());
        // Capacity violations surface as the engine's BadDecision.
        let over = open.push_to(
            BinId(1),
            ActiveItem {
                id: ItemId(6),
                size: Size::CAPACITY,
                departure: None,
            },
            Size::CAPACITY,
        );
        assert!(matches!(over, Some(Err(_))));
        open.validate().unwrap();

        // A vector push that overflows one axis only is refused too.
        let mut open = OpenBins::new();
        open.insert(vbin(1, 0, &[0.5, 0.5]));
        let over = open.push_to(
            BinId(1),
            ActiveItem {
                id: ItemId(6),
                size: sv(&[0.2, 0.6]),
                departure: None,
            },
            sv(&[0.2, 0.6]),
        );
        assert!(matches!(over, Some(Err(DbpError::BadDecision { .. }))));
        open.validate().unwrap();
    }
}
