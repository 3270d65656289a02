//! The Best/Worst Fit level indexes: one per demand type.
//!
//! Best Fit wants the fullest bin of a tag that still fits an item, with
//! level ties to the latest opened; Worst Fit the emptiest, with ties to
//! the earliest. [`crate::OpenBins`] keeps one [`LevelIndex`] per tag
//! over `(level key, per-tag opening seq, slot)` entries ([`LevelKey`])
//! and re-keys a bin on every level change. [`crate::Demand::LevelIndex`]
//! picks the structure:
//!
//! * [`LevelBits`] for [`crate::Size`]. A scalar level is an integer in
//!   `0..=2²⁴`, and the bins that fit an item are exactly those at
//!   levels `≤ CAPACITY − size`. So Best Fit is a predecessor query and
//!   Worst Fit a minimum over the set of *present* levels, which a
//!   bitset answers with `leading_zeros`/`trailing_zeros` in a few word
//!   reads at any fleet size.
//! * `BTreeSet<LevelKey>` for [`crate::SizeVec`]. A vector level is
//!   ranked by a [`crate::Scalarization`] that cannot express
//!   all-axes feasibility, so both queries walk the set from the fullest
//!   or emptiest end until an entry fits on every axis; the walk needs
//!   the set's order, entry by entry.
//!
//! ## The bitset
//!
//! The level range `0..=2²⁴` is cut into 4,097 pages of 4,096 levels.
//! A page is 64 words of level bits plus one summary word whose bit `w`
//! says word `w` is non-zero: 520 bytes, allocated the first time a
//! level in it is set and kept (empty) for reuse after its last level
//! clears. A 4,097-slot directory maps a page number to its storage,
//! and a two-level bitmap over the pages (65 words, bit `p` = page `p`
//! holds a level, plus one 65-bit summary over those words) finds the
//! nearest non-empty page. Each present level owns one tie group in a
//! hash map: one inline `(seq, slot)`, spilled into an ordered set only
//! while two or more bins share the exact level.
//!
//! | operation | cost |
//! |---|---|
//! | insert / remove an entry | one tie-group probe + 1–4 word writes |
//! | Best Fit (predecessor of `CAPACITY − size`) | ≤ 9 word reads + one tie-group probe |
//! | Worst Fit (minimum level) | 5 word reads + one tie-group probe |
//! | a tie group of `t` bins | `O(log t)` per change while `t ≥ 2` |
//!
//! Coarse level buckets (a short array of lists, one per level range)
//! would be smaller but are not used: Best Fit piles bins just under
//! full, so the top buckets hold most of the fleet. A 512-bucket
//! prototype saw a mean bucket length at insert of 112 on the engine
//! benchmark's deep instance and 2,090 on a 12k-bin fleet, where it ran
//! three times slower than this index.
//!
//! The probe count reported for either scalar query is 1 for a
//! non-empty index, 0 for an empty one, as it was for the ordered set
//! this index replaced.

use crate::demand::Demand;
use crate::hash::FoldMap;
use crate::size::Size;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::fmt;

/// A Best/Worst Fit entry: `(level key, per-tag opening seq, slot)`.
/// Ascending order puts the emptiest bin first and, among equal keys,
/// the earliest opened; `seq` is unique within a tag, so the key is
/// total and the slot rides along for O(1) resolution.
pub type LevelKey = (u64, u64, u32);

/// The per-tag Best/Worst Fit index over [`LevelKey`] entries of demand
/// type `D` (see the module docs).
pub trait LevelIndex<D: Demand>: Clone + Default + fmt::Debug + Send + Sync {
    /// Adds an entry (not already present).
    fn insert(&mut self, key: LevelKey);
    /// Removes a present entry.
    fn remove(&mut self, key: LevelKey);
    /// The Best Fit slot for `size`: the highest key whose bin fits per
    /// `fits`, ties to the latest opened (largest seq). Returns the slot
    /// and the number of entries probed.
    fn best(&self, size: D, fits: impl Fn(u32) -> bool) -> (Option<u32>, usize);
    /// The Worst Fit slot for `size`: the lowest key whose bin fits per
    /// `fits`, ties to the earliest opened (smallest seq).
    fn worst(&self, size: D, fits: impl Fn(u32) -> bool) -> (Option<u32>, usize);
    /// Checks internal consistency and returns every entry, ordered.
    fn entries(&self) -> Result<BTreeSet<LevelKey>, String>;
    /// Heap bytes held.
    fn approx_bytes(&self) -> usize;
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

/// The ordered set, walked from the fullest (Best Fit) or emptiest
/// (Worst Fit) end until an entry fits.
impl<D: Demand> LevelIndex<D> for BTreeSet<LevelKey> {
    fn insert(&mut self, key: LevelKey) {
        BTreeSet::insert(self, key);
    }
    fn remove(&mut self, key: LevelKey) {
        BTreeSet::remove(self, &key);
    }
    fn best(&self, _size: D, fits: impl Fn(u32) -> bool) -> (Option<u32>, usize) {
        walk(self.iter().rev(), fits)
    }
    fn worst(&self, _size: D, fits: impl Fn(u32) -> bool) -> (Option<u32>, usize) {
        walk(self.iter(), fits)
    }
    fn entries(&self) -> Result<BTreeSet<LevelKey>, String> {
        Ok(self.clone())
    }
    fn approx_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<LevelKey>()
    }
}

/// Levels per page.
const PAGE_BITS: u64 = 4096;
/// Pages covering `0..=Size::CAPACITY`.
const PAGES: usize = (Size::SCALE / PAGE_BITS) as usize + 1;
/// Words of the page-presence bitmap.
const PAGE_WORDS: usize = PAGES.div_ceil(64);
/// Directory value of a page not yet allocated.
const NO_PAGE: u16 = u16::MAX;

/// 4,096 level bits and the summary of which of its words are non-zero.
#[derive(Clone, Debug)]
struct Page {
    summary: u64,
    words: [u64; 64],
}

impl Page {
    const EMPTY: Page = Page {
        summary: 0,
        words: [0; 64],
    };

    /// The highest set bit at index `≤ i`.
    fn pred(&self, i: u64) -> Option<u64> {
        let (w, b) = (i / 64, i % 64);
        let bits = self.words[w as usize] & (u64::MAX >> (63 - b));
        if bits != 0 {
            return Some(w * 64 + top(bits));
        }
        let words = self.summary & ((1 << w) - 1);
        (words != 0).then(|| self.last_in(top(words)))
    }

    /// The highest set bit of word `w` (non-zero).
    fn last_in(&self, w: u64) -> u64 {
        w * 64 + top(self.words[w as usize])
    }

    /// The highest set bit of the page (non-empty).
    fn last(&self) -> u64 {
        self.last_in(top(self.summary))
    }

    /// The lowest set bit of the page (non-empty).
    fn first(&self) -> u64 {
        let w = u64::from(self.summary.trailing_zeros());
        w * 64 + u64::from(self.words[w as usize].trailing_zeros())
    }
}

/// Index of the highest set bit of non-zero `x`.
#[inline]
fn top(x: u64) -> u64 {
    u64::from(63 - x.leading_zeros())
}

/// The bins sharing one exact level.
#[derive(Clone, Debug)]
enum Tie {
    /// One bin: `(seq, slot)`.
    One(u64, u32),
    /// Two or more, ordered by opening seq.
    Many(BTreeSet<(u64, u32)>),
}

impl Tie {
    /// The latest-opened `(seq, slot)`.
    fn latest(&self) -> (u64, u32) {
        match self {
            Tie::One(seq, slot) => (*seq, *slot),
            Tie::Many(set) => *set.last().expect("a spilled group holds two or more"),
        }
    }

    /// The earliest-opened `(seq, slot)`.
    fn earliest(&self) -> (u64, u32) {
        match self {
            Tie::One(seq, slot) => (*seq, *slot),
            Tie::Many(set) => *set.first().expect("a spilled group holds two or more"),
        }
    }

    fn push(&mut self, entry: (u64, u32)) {
        match self {
            Tie::One(seq, slot) => *self = Tie::Many(BTreeSet::from([(*seq, *slot), entry])),
            Tie::Many(set) => {
                set.insert(entry);
            }
        }
    }

    /// Removes `entry`; whether the group is now empty. A group of one
    /// collapses back inline.
    fn take(&mut self, entry: (u64, u32)) -> bool {
        match self {
            Tie::One(seq, slot) => {
                debug_assert_eq!((*seq, *slot), entry, "level index lost an entry");
                true
            }
            Tie::Many(set) => {
                set.remove(&entry);
                if set.len() == 1 {
                    let (seq, slot) = *set.first().expect("one left");
                    *self = Tie::One(seq, slot);
                }
                false
            }
        }
    }
}

/// The scalar level index: a paged bitset over the present levels
/// `0..=2²⁴` plus one tie group per present level (see the module docs).
#[derive(Clone)]
pub struct LevelBits {
    /// Page number → index into `pages`, or [`NO_PAGE`].
    dir: Box<[u16]>,
    /// Allocated pages, in first-use order.
    pages: Vec<Page>,
    /// Bit `p` set iff page `p` holds a level.
    page_bits: [u64; PAGE_WORDS],
    /// Bit `w` set iff `page_bits[w]` is non-zero.
    page_words: u128,
    /// Present level → its bins.
    ties: FoldMap<u64, Tie>,
}

impl Default for LevelBits {
    fn default() -> Self {
        LevelBits {
            dir: vec![NO_PAGE; PAGES].into_boxed_slice(),
            pages: Vec::new(),
            page_bits: [0; PAGE_WORDS],
            page_words: 0,
            ties: FoldMap::default(),
        }
    }
}

impl fmt::Debug for LevelBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LevelBits")
            .field("levels", &self.ties.len())
            .field("pages", &self.pages.len())
            .finish()
    }
}

impl LevelBits {
    fn page(&self, p: u64) -> &Page {
        &self.pages[usize::from(self.dir[p as usize])]
    }

    fn page_present(&self, p: u64) -> bool {
        self.page_bits[(p / 64) as usize] & (1 << (p % 64)) != 0
    }

    fn set(&mut self, level: u64) {
        debug_assert!(level <= Size::SCALE, "level {level} above capacity");
        let p = level / PAGE_BITS;
        if self.dir[p as usize] == NO_PAGE {
            if self.pages.len() == self.pages.capacity() {
                // Double, but never past the page count.
                let more = self.pages.len().max(4).min(PAGES - self.pages.len());
                self.pages.reserve_exact(more);
            }
            self.dir[p as usize] = self.pages.len() as u16;
            self.pages.push(Page::EMPTY);
        }
        let (w, b) = ((level % PAGE_BITS) / 64, level % 64);
        let page = &mut self.pages[usize::from(self.dir[p as usize])];
        page.words[w as usize] |= 1 << b;
        page.summary |= 1 << w;
        self.page_bits[(p / 64) as usize] |= 1 << (p % 64);
        self.page_words |= 1 << (p / 64);
    }

    fn clear(&mut self, level: u64) {
        let p = level / PAGE_BITS;
        let (w, b) = ((level % PAGE_BITS) / 64, level % 64);
        let page = &mut self.pages[usize::from(self.dir[p as usize])];
        page.words[w as usize] &= !(1 << b);
        if page.words[w as usize] != 0 {
            return;
        }
        page.summary &= !(1 << w);
        if page.summary != 0 {
            return;
        }
        let pw = (p / 64) as usize;
        self.page_bits[pw] &= !(1 << (p % 64));
        if self.page_bits[pw] == 0 {
            self.page_words &= !(1 << pw);
        }
    }

    /// The highest present level `≤ x`.
    fn pred(&self, x: u64) -> Option<u64> {
        let p = x / PAGE_BITS;
        if self.page_present(p) {
            if let Some(i) = self.page(p).pred(x % PAGE_BITS) {
                return Some(p * PAGE_BITS + i);
            }
        }
        // The nearest non-empty page below `p`.
        let (pw, pb) = (p / 64, p % 64);
        let below = self.page_bits[pw as usize] & ((1 << pb) - 1);
        let q = if below != 0 {
            pw * 64 + top(below)
        } else {
            let words = self.page_words & ((1u128 << pw) - 1);
            if words == 0 {
                return None;
            }
            let qw = u64::from(127 - words.leading_zeros());
            qw * 64 + top(self.page_bits[qw as usize])
        };
        Some(q * PAGE_BITS + self.page(q).last())
    }

    /// The lowest present level.
    fn min(&self) -> Option<u64> {
        if self.page_words == 0 {
            return None;
        }
        let pw = u64::from(self.page_words.trailing_zeros());
        let p = pw * 64 + u64::from(self.page_bits[pw as usize].trailing_zeros());
        Some(p * PAGE_BITS + self.page(p).first())
    }

    fn probes(&self) -> usize {
        usize::from(!self.ties.is_empty())
    }
}

impl LevelIndex<Size> for LevelBits {
    fn insert(&mut self, (level, seq, slot): LevelKey) {
        match self.ties.entry(level) {
            Entry::Occupied(mut group) => group.get_mut().push((seq, slot)),
            Entry::Vacant(group) => {
                group.insert(Tie::One(seq, slot));
                self.set(level);
            }
        }
    }

    fn remove(&mut self, (level, seq, slot): LevelKey) {
        let Entry::Occupied(mut group) = self.ties.entry(level) else {
            panic!("level index has no level {level}");
        };
        if group.get_mut().take((seq, slot)) {
            group.remove();
            self.clear(level);
        }
    }

    /// Feasible levels are exactly those `≤ CAPACITY − size`: one
    /// predecessor query and the latest of that level's bins.
    fn best(&self, size: Size, _fits: impl Fn(u32) -> bool) -> (Option<u32>, usize) {
        let hit = Size::CAPACITY
            .raw()
            .checked_sub(size.raw())
            .and_then(|max_level| self.pred(max_level))
            .map(|level| self.ties[&level].latest().1);
        (hit, self.probes())
    }

    /// The emptiest bin fits if any does: the minimum present level and
    /// the earliest of its bins.
    fn worst(&self, size: Size, _fits: impl Fn(u32) -> bool) -> (Option<u32>, usize) {
        let hit = self
            .min()
            .filter(|&level| Size::from_raw(level).fits(size))
            .map(|level| self.ties[&level].earliest().1);
        (hit, self.probes())
    }

    fn entries(&self) -> Result<BTreeSet<LevelKey>, String> {
        let mut out = BTreeSet::new();
        for (&level, tie) in &self.ties {
            if level > Size::SCALE {
                return Err(format!("level {level} above capacity"));
            }
            let p = level / PAGE_BITS;
            let present = self.page_present(p)
                && self.page(p).words[((level % PAGE_BITS) / 64) as usize] & (1 << (level % 64))
                    != 0;
            if !present {
                return Err(format!("level {level} has bins but no bit"));
            }
            if let Tie::Many(set) = tie {
                if set.len() < 2 {
                    return Err(format!("level {level} spilled a group of {}", set.len()));
                }
            }
            match tie {
                Tie::One(seq, slot) => {
                    out.insert((level, *seq, *slot));
                }
                Tie::Many(set) => out.extend(set.iter().map(|&(seq, slot)| (level, seq, slot))),
            }
        }
        // Every set bit is a present level, and every summary bit
        // matches the words below it.
        let mut bits = 0usize;
        for p in 0..PAGES as u64 {
            let present = self.page_present(p);
            if self.page_words & (1 << (p / 64)) == 0 && present {
                return Err(format!("page {p} present under a clear summary bit"));
            }
            if self.dir[p as usize] == NO_PAGE {
                if present {
                    return Err(format!("page {p} present but never allocated"));
                }
                continue;
            }
            let page = self.page(p);
            for (w, &word) in page.words.iter().enumerate() {
                if (page.summary >> w) & 1 != u64::from(word != 0) {
                    return Err(format!("page {p} summary bit {w} is stale"));
                }
            }
            if present != (page.summary != 0) {
                return Err(format!("page {p} presence bit is stale"));
            }
            bits += page
                .words
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
        }
        for (w, &word) in self.page_bits.iter().enumerate() {
            if (self.page_words >> w) & 1 != u128::from(word != 0) {
                return Err(format!("page summary bit {w} is stale"));
            }
        }
        if bits != self.ties.len() {
            return Err(format!(
                "{bits} level bits for {} present levels",
                self.ties.len()
            ));
        }
        Ok(out)
    }

    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dir.len() * size_of::<u16>()
            + self.pages.capacity() * size_of::<Page>()
            + self.ties.capacity() * size_of::<(u64, Tie)>()
            + self
                .ties
                .values()
                .map(|t| match t {
                    Tie::One(..) => 0,
                    Tie::Many(set) => set.len() * size_of::<(u64, u32)>(),
                })
                .sum::<usize>()
    }
}
