//! Property tests for the core data structures, checked against naive
//! reference models.

use dbp_core::events::load_segments;
use dbp_core::interval::{span_of, union_components, Interval};
use dbp_core::levels::{LevelBits, LevelIndex, LevelKey};
use dbp_core::observe::NoopObserver;
use dbp_core::online::{ClairvoyanceMode, Decision, ItemView, OnlinePacker, OpenBin, OpenBins};
use dbp_core::profile::{BTreeProfile, LevelProfile, SegTreeProfile};
use dbp_core::stats::StepSeries;
use dbp_core::stream::StreamingSession;
use dbp_core::{
    DbpError, Demand, Instance, Item, Packing, Scalarization, Size, SizeVec, VecInstance,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Naive per-tick reference model of a level profile over [0, N).
const N: i64 = 64;

fn arb_ops() -> impl Strategy<Value = Vec<(Interval, Size)>> {
    proptest::collection::vec(
        (0i64..N - 1, 1i64..16, 1u64..=32).prop_map(|(a, len, s)| {
            (
                Interval::of(a, (a + len).min(N)),
                Size::from_ratio(s, 64).unwrap(),
            )
        }),
        0..20,
    )
}

fn naive_levels(ops: &[(Interval, Size)]) -> Vec<u64> {
    let mut lv = vec![0u64; N as usize];
    for (iv, s) in ops {
        for (t, lvl) in lv.iter_mut().enumerate() {
            if iv.contains(t as i64) {
                *lvl += s.raw();
            }
        }
    }
    lv
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both profile backends agree with the per-tick reference model on
    /// level queries and window maxima.
    #[test]
    fn profiles_match_reference(ops in arb_ops()) {
        let reference = naive_levels(&ops);
        let mut bt = BTreeProfile::new();
        let mut st = SegTreeProfile::from_times((0..=N).collect());
        for (iv, s) in &ops {
            bt.add(*iv, *s);
            st.add(*iv, *s);
        }
        for t in 0..N {
            let want = Size::from_raw(reference[t as usize]);
            prop_assert_eq!(bt.level_at(t), want, "btree level at {}", t);
            prop_assert_eq!(st.level_at(t), want, "segtree level at {}", t);
        }
        // A few windows.
        for (a, b) in [(0i64, N), (3, 17), (10, 11), (40, 64)] {
            let want = Size::from_raw(
                reference[a as usize..b as usize].iter().copied().max().unwrap_or(0),
            );
            let iv = Interval::of(a, b);
            prop_assert_eq!(bt.max_in(iv), want);
            prop_assert_eq!(st.max_in(iv), want);
        }
    }

    /// `span_of` equals the per-tick count of covered ticks, and
    /// `union_components` is disjoint, sorted, and covers the same set.
    #[test]
    fn span_matches_reference(ops in arb_ops()) {
        let ivs: Vec<Interval> = ops.iter().map(|(iv, _)| *iv).collect();
        let mut covered = vec![false; N as usize];
        for iv in &ivs {
            for (t, c) in covered.iter_mut().enumerate() {
                if iv.contains(t as i64) {
                    *c = true;
                }
            }
        }
        let want = covered.iter().filter(|&&c| c).count() as i64;
        prop_assert_eq!(span_of(ivs.iter().copied()), want);

        let comps = union_components(ivs.iter().copied());
        for w in comps.windows(2) {
            prop_assert!(w[0].end() < w[1].start(), "components must be separated");
        }
        let total: i64 = comps.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, want);
    }

    /// `load_segments` partitions the span and conserves total time–space
    /// area (`Σ segment_size·len == Σ item demand`).
    #[test]
    fn load_segments_conserve_area(ops in arb_ops()) {
        let items: Vec<Item> = ops
            .iter()
            .enumerate()
            .map(|(i, (iv, s))| Item::new(i as u32, *s, iv.start(), iv.end()))
            .collect();
        let segs = load_segments(&items);
        // Disjoint and ordered.
        for w in segs.windows(2) {
            prop_assert!(w[0].interval.end() <= w[1].interval.start());
        }
        let seg_area: u128 = segs
            .iter()
            .map(|s| s.total_size.raw() as u128 * s.interval.len() as u128)
            .sum();
        let demand: u128 = items.iter().map(|r| r.demand()).sum();
        prop_assert_eq!(seg_area, demand);
        let seg_span: i64 = segs.iter().map(|s| s.interval.len()).sum();
        prop_assert_eq!(seg_span, span_of(items.iter().map(|r| r.interval())));
    }

    /// The packing validator agrees with a brute-force per-tick check.
    #[test]
    fn validator_matches_bruteforce(ops in arb_ops(), split in 1usize..4) {
        let items: Vec<Item> = ops
            .iter()
            .enumerate()
            .map(|(i, (iv, s))| Item::new(i as u32, *s, iv.start(), iv.end()))
            .collect();
        let inst = Instance::from_items(items.clone()).unwrap();
        // Round-robin items into `split` bins (may or may not be valid).
        let mut bins = vec![Vec::new(); split];
        for (i, r) in items.iter().enumerate() {
            bins[i % split].push(r.id());
        }
        let packing = Packing::from_bins(bins.clone());
        let valid = packing.validate(&inst).is_ok();

        // Brute force: per tick, per bin level.
        let mut brute_ok = true;
        for bin in &bins {
            for t in 0..N {
                let level: u64 = items
                    .iter()
                    .filter(|r| bin.contains(&r.id()) && r.active_at(t))
                    .map(|r| r.size().raw())
                    .sum();
                if level > Size::SCALE {
                    brute_ok = false;
                }
            }
        }
        prop_assert_eq!(valid, brute_ok);
    }

    /// StepSeries built from deltas matches a running per-tick sum.
    #[test]
    fn step_series_matches_reference(
        deltas in proptest::collection::vec((0i64..N, -3i64..=3), 0..24)
    ) {
        let series = StepSeries::from_deltas(deltas.clone());
        for t in -1..N + 1 {
            let want: i64 = deltas.iter().filter(|(dt, _)| *dt <= t).map(|(_, d)| d).sum();
            prop_assert_eq!(series.value_at(t), want, "at t={}", t);
        }
    }
}

/// One step of the open-fleet interleaving driven below: an arrival, a
/// clock advance (departure pruning), or a server failure. The raw
/// discriminant is mapped so roughly 3/5 of the steps are arrivals —
/// deep enough fleets to matter, with churn on top.
#[derive(Clone, Debug)]
enum FleetOp {
    Arrive { size_64ths: u64, dur: i64 },
    Advance { dt: i64 },
    Fail { pick: usize },
}

fn arb_fleet_ops() -> impl Strategy<Value = Vec<FleetOp>> {
    proptest::collection::vec(
        (0u8..5, 1u64..=64, 1i64..=12, 0usize..32).prop_map(|(kind, size_64ths, dur, pick)| {
            match kind {
                0..=2 => FleetOp::Arrive { size_64ths, dur },
                3 => FleetOp::Advance { dt: dur / 2 },
                _ => FleetOp::Fail { pick },
            }
        }),
        0..80,
    )
}

/// A deliberately adversarial packer for the index-consistency property:
/// it round-robins across three tags and four query kinds, so every fit
/// structure (per-tag gap tree, per-tag level-ordered set) is active
/// on a fleet that is concurrently mutated by the engine's arrivals,
/// departures, and failures. One body for every demand type.
struct MixedFit {
    n: u64,
}

impl<D: Demand> OnlinePacker<D> for MixedFit {
    fn name(&self) -> String {
        "mixed-fit".into()
    }

    fn place(&mut self, item: &ItemView<D>, open_bins: &OpenBins<D>) -> Decision {
        self.n += 1;
        let tag = self.n % 3;
        let hit = match self.n % 4 {
            0 => open_bins.first_fit(tag, item.size).0,
            1 => open_bins.best_fit(tag, item.size).0,
            2 => open_bins.worst_fit(tag, item.size).0,
            _ => open_bins
                .iter_tag(tag)
                .find(|b| b.fits(item.size))
                .map(|b| b.id()),
        };
        hit.map(Decision::Existing).unwrap_or(Decision::New { tag })
    }
}

/// Drives `ops` through a non-clairvoyant session over demand type `D`
/// and checks, after every step, the `OpenBins` internals (level-order
/// index, gap trees, free list, intrusive tag lists — all via
/// `validate()`) and every indexed query against the linear scan over
/// the intrusive lists. `demand(k)` is the demand of an item sized `k`
/// sixty-fourths.
fn check_fleet_model<D: Demand>(
    ops: &[FleetOp],
    mode: ClairvoyanceMode<D>,
    demand: impl Fn(u64) -> D,
) -> Result<(), String> {
    let mut packer = MixedFit { n: 0 };
    let mut session =
        StreamingSession::start(mode, &mut packer as &mut dyn OnlinePacker<D>, NoopObserver);
    let mut now = 0i64;
    let mut next_id = 0u32;
    for op in ops {
        match op {
            FleetOp::Arrive { size_64ths, dur } => {
                session.advance_to(now).unwrap();
                session
                    .arrive(&Item::new(next_id, demand(*size_64ths), now, now + dur))
                    .unwrap();
                next_id += 1;
            }
            FleetOp::Advance { dt } => {
                now += dt;
                session.advance_to(now).unwrap();
            }
            FleetOp::Fail { pick } => {
                let victim = {
                    let open = session.open_set();
                    if open.is_empty() {
                        continue;
                    }
                    open.iter().nth(pick % open.len()).unwrap().id()
                };
                session.fail_bin(victim, now).unwrap();
            }
        }

        let open = session.open_set();
        if let Err(why) = open.validate() {
            prop_assert!(false, "index invariants broken after {:?}: {}", op, why);
        }
        for tag in 0..3u64 {
            for s in [1u64, 16, 33, 64] {
                let size = demand(s);
                let key = |b: &&OpenBin<D>| b.level().key(Scalarization::Sum);
                let lin_first = open.iter_tag(tag).find(|b| b.fits(size)).map(|b| b.id());
                let lin_best = open
                    .iter_tag(tag)
                    .filter(|b| b.fits(size))
                    .max_by_key(key)
                    .map(|b| b.id());
                let lin_worst = open
                    .iter_tag(tag)
                    .filter(|b| b.fits(size))
                    .min_by_key(key)
                    .map(|b| b.id());
                prop_assert_eq!(
                    open.first_fit(tag, size).0,
                    lin_first,
                    "first-fit tag {} size {:?}",
                    tag,
                    size
                );
                prop_assert_eq!(
                    open.best_fit(tag, size).0,
                    lin_best,
                    "best-fit tag {} size {:?}",
                    tag,
                    size
                );
                prop_assert_eq!(
                    open.worst_fit(tag, size).0,
                    lin_worst,
                    "worst-fit tag {} size {:?}",
                    tag,
                    size
                );
            }
        }
    }
    session.finish().unwrap();
    Ok(())
}

/// A `dims`-axis demand from one sixty-fourths draw: axis `d` is a
/// deterministic rotation of the draw, so axes disagree and a bin that
/// fits on one axis can overflow another.
fn vec_demand(dims: usize, size_64ths: u64) -> SizeVec {
    let axes: Vec<Size> = (0..dims as u64)
        .map(|d| Size::from_ratio((size_64ths - 1 + 23 * d) % 64 + 1, 64).unwrap())
        .collect();
    SizeVec::new(&axes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Satellite invariant for the indexed fit queries: interleaving
    /// open/close/`fail_bin`/departure-prune, the `OpenBins` internals
    /// never disagree with each other, and the indexed queries never
    /// disagree with the linear scan over the intrusive lists —
    /// including after slab slots are recycled through the free list —
    /// for scalar sizes and for 2–4-axis demand vectors.
    #[test]
    fn open_bins_index_never_disagrees_with_the_linear_model(
        ops in arb_fleet_ops(),
        dims in 2usize..=4,
    ) {
        check_fleet_model(
            &ops,
            ClairvoyanceMode::NonClairvoyant,
            |k| Size::from_ratio(k, 64).unwrap(),
        )?;
        check_fleet_model(&ops, ClairvoyanceMode::NonClairvoyant, |k| vec_demand(dims, k))?;
    }
}

/// Levels the scalar index must get right at its edges: empty and full
/// bins, the first level, both sides of the first two page boundaries,
/// the last page, and one level below full.
const EDGE_LEVELS: [u64; 12] = [
    0,
    1,
    2,
    4095,
    4096,
    4097,
    8191,
    8192,
    1 << 23,
    (1 << 24) - 4096,
    (1 << 24) - 1,
    1 << 24,
];

/// One step against the level index: a new bin, a closed bin, a level
/// change (same seq and slot, new level), or a Best/Worst Fit query.
#[derive(Clone, Debug)]
enum LevelOp {
    Insert { level: u64 },
    Remove { pick: usize },
    Move { pick: usize, level: u64 },
    Query { size: u64 },
}

/// A level drawn to hit the edges and to collide: an edge level, a
/// uniform one, one of eight levels around the first page boundary
/// (dense exact-level ties, pages that empty and refill), or one of
/// four levels just under full.
fn arb_level() -> impl Strategy<Value = u64> {
    (0u8..4, 0usize..EDGE_LEVELS.len(), 0u64..=1 << 24).prop_map(|(kind, edge, any)| match kind {
        0 => EDGE_LEVELS[edge],
        1 => any,
        2 => 4092 + any % 8,
        _ => (1 << 24) - any % 4,
    })
}

fn arb_level_ops() -> impl Strategy<Value = Vec<LevelOp>> {
    proptest::collection::vec(
        (0u8..8, arb_level(), 0usize..64, 0usize..EDGE_LEVELS.len()).prop_map(
            |(kind, level, pick, edge)| match kind {
                0..=2 => LevelOp::Insert { level },
                3 => LevelOp::Remove { pick },
                4 | 5 => LevelOp::Move { pick, level },
                // Item sizes are 1..=2^24: reuse the level draw, with the
                // edges mapped into range.
                _ => LevelOp::Query {
                    size: if level == 0 {
                        EDGE_LEVELS[edge].max(1)
                    } else {
                        level
                    },
                },
            },
        ),
        0..120,
    )
}

/// The Best and Worst Fit answers of the ordered set the bitset
/// replaced: the last entry at a level `≤ CAPACITY − size`, and the
/// first entry if its level fits.
fn reference_answers(set: &BTreeSet<LevelKey>, size: u64) -> (Option<u32>, Option<u32>) {
    let best = set
        .range(..=((1 << 24) - size, u64::MAX, u32::MAX))
        .next_back()
        .map(|e| e.2);
    let worst = set.first().filter(|e| e.0 + size <= 1 << 24).map(|e| e.2);
    (best, worst)
}

/// Asserts that `bits` holds exactly `set` and answers every query size
/// in `sizes` as the ordered set does, with the same probe counts.
fn check_level_bits(
    bits: &LevelBits,
    set: &BTreeSet<LevelKey>,
    sizes: &[u64],
) -> Result<(), String> {
    let held = bits.entries()?;
    prop_assert_eq!(&held, set, "the bitset's entries");
    let probes = usize::from(!set.is_empty());
    for &size in sizes {
        let (best, worst) = reference_answers(set, size);
        let s = Size::from_raw(size);
        prop_assert_eq!(bits.best(s, |_| true), (best, probes), "best-fit {}", size);
        prop_assert_eq!(
            bits.worst(s, |_| true),
            (worst, probes),
            "worst-fit {}",
            size
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scalar Best/Worst Fit index against the `BTreeSet<LevelKey>`
    /// it replaced: inserts, removals and level changes drawn to pile
    /// bins onto exact levels, page edges (4095/4096), level 1 and full
    /// bins (2^24), with every Best and Worst Fit answer and probe count
    /// compared after every step.
    #[test]
    fn open_bins_index_level_bits_match_the_ordered_set(ops in arb_level_ops()) {
        let mut bits = LevelBits::default();
        let mut set = BTreeSet::new();
        let mut next_seq = 0u64;
        let edge_sizes: Vec<u64> = EDGE_LEVELS.iter().map(|&l| l.max(1)).collect();
        for op in &ops {
            let mut sizes = edge_sizes.clone();
            match *op {
                LevelOp::Insert { level } => {
                    // Slots are reused out of order, as the slab's free list does.
                    let key = (level, next_seq, (next_seq * 7 % 61) as u32);
                    next_seq += 1;
                    bits.insert(key);
                    set.insert(key);
                }
                LevelOp::Remove { pick } => {
                    if let Some(&key) = set.iter().nth(pick % set.len().max(1)) {
                        bits.remove(key);
                        set.remove(&key);
                    }
                }
                LevelOp::Move { pick, level } => {
                    if let Some(&(old, seq, slot)) = set.iter().nth(pick % set.len().max(1)) {
                        bits.remove((old, seq, slot));
                        set.remove(&(old, seq, slot));
                        bits.insert((level, seq, slot));
                        set.insert((level, seq, slot));
                    }
                }
                LevelOp::Query { size } => sizes.push(size),
            }
            // Sizes that land exactly on every present level and one past it.
            sizes.extend(set.iter().take(8).flat_map(|e| {
                let fit = (1u64 << 24) - e.0;
                [fit.max(1), (fit + 1).min(1 << 24)]
            }));
            check_level_bits(&bits, &set, &sizes)?;
        }
        // Empty it again: every page empties and the index answers None.
        for key in std::mem::take(&mut set) {
            bits.remove(key);
        }
        check_level_bits(&bits, &set, &[1, 4096, 1 << 24])?;
    }
}

/// The same contract at the named edges, step by step.
#[test]
fn open_bins_index_level_bits_edges() {
    let mut bits = LevelBits::default();
    let mut set = BTreeSet::new();
    let put = |bits: &mut LevelBits, set: &mut BTreeSet<LevelKey>, key: LevelKey, on: bool| {
        if on {
            bits.insert(key);
            set.insert(key);
        } else {
            bits.remove(key);
            set.remove(&key);
        }
    };
    let sizes = [
        1,
        2,
        4095,
        4096,
        4097,
        (1 << 24) - 4096,
        (1 << 24) - 1,
        1 << 24,
    ];
    let full = 1u64 << 24;
    // Full bins fit nothing; level 1 fits everything but a full-size item.
    put(&mut bits, &mut set, (full, 0, 0), true);
    check_level_bits(&bits, &set, &sizes).unwrap();
    assert_eq!(bits.best(Size::EPSILON, |_| true), (None, 1));
    put(&mut bits, &mut set, (1, 1, 1), true);
    assert_eq!(bits.best(Size::EPSILON, |_| true).0, Some(1));
    assert_eq!(bits.worst(Size::from_raw(full - 1), |_| true).0, Some(1));
    assert_eq!(bits.worst(Size::CAPACITY, |_| true).0, None);
    // Both sides of the first page boundary.
    put(&mut bits, &mut set, (4095, 2, 2), true);
    put(&mut bits, &mut set, (4096, 3, 3), true);
    check_level_bits(&bits, &set, &sizes).unwrap();
    assert_eq!(bits.best(Size::from_raw(full - 4095), |_| true).0, Some(2));
    assert_eq!(bits.best(Size::from_raw(full - 4096), |_| true).0, Some(3));
    // A tie group grows past one: best takes the latest, worst the
    // earliest opened.
    put(&mut bits, &mut set, (4096, 9, 4), true);
    put(&mut bits, &mut set, (4096, 5, 5), true);
    check_level_bits(&bits, &set, &sizes).unwrap();
    assert_eq!(bits.best(Size::from_raw(full - 4096), |_| true).0, Some(4));
    put(&mut bits, &mut set, (1, 1, 1), false);
    put(&mut bits, &mut set, (4095, 2, 2), false);
    assert_eq!(bits.worst(Size::EPSILON, |_| true).0, Some(3));
    // ... and collapses back to one, then empties its page.
    put(&mut bits, &mut set, (4096, 3, 3), false);
    put(&mut bits, &mut set, (4096, 9, 4), false);
    check_level_bits(&bits, &set, &sizes).unwrap();
    assert_eq!(bits.worst(Size::EPSILON, |_| true).0, Some(5));
    put(&mut bits, &mut set, (4096, 5, 5), false);
    check_level_bits(&bits, &set, &sizes).unwrap();
    assert_eq!(bits.best(Size::EPSILON, |_| true), (None, 1));
    // The emptied pages are reused.
    put(&mut bits, &mut set, (4097, 10, 6), true);
    put(&mut bits, &mut set, (0, 11, 7), true);
    check_level_bits(&bits, &set, &sizes).unwrap();
    assert_eq!(bits.best(Size::from_raw(full - 4100), |_| true).0, Some(6));
    assert_eq!(bits.worst(Size::CAPACITY, |_| true).0, Some(7));
    for key in std::mem::take(&mut set) {
        bits.remove(key);
    }
    assert_eq!(bits.entries().unwrap(), BTreeSet::new());
    assert_eq!(bits.worst(Size::EPSILON, |_| true), (None, 0));
}

/// `(Δ, μΔ)` by scanning durations, as the accessors did before the
/// instances cached them.
fn scanned_durations(durations: impl Iterator<Item = i64> + Clone) -> (Option<i64>, Option<i64>) {
    (durations.clone().min(), durations.max())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Δ`, `μΔ` and `μ` are found once, when an instance is built; they
    /// equal a scan of its items through every constructor: scalar
    /// `from_items`, `shifted` and `concat`, and the vector `from_items`
    /// and `lift`.
    #[test]
    fn cached_durations_equal_a_scan(
        triples in proptest::collection::vec((1u64..=64, -50i64..50, 1i64..400), 1..40),
        delta in -1000i64..1000,
        dims in 1usize..=4,
    ) {
        let items: Vec<Item> = triples
            .iter()
            .enumerate()
            .map(|(i, &(s, a, d))| Item::new(i as u32, Size::from_ratio(s, 64).unwrap(), a, a + d))
            .collect();
        let inst = Instance::from_items(items).unwrap();
        let shifted = inst.shifted(delta).unwrap();
        let both = Instance::concat(&[inst.clone(), shifted.clone()]);
        for i in [&inst, &shifted, &both] {
            let (min, max) = scanned_durations(i.items().iter().map(Item::duration));
            prop_assert_eq!((i.min_duration(), i.max_duration()), (min, max));
            prop_assert_eq!(i.mu(), Some(max.unwrap() as f64 / min.unwrap() as f64));
        }
        let lifted = VecInstance::lift(&inst, dims);
        let rebuilt = VecInstance::from_items(lifted.items().to_vec()).unwrap();
        for v in [&lifted, &rebuilt] {
            let (min, max) = scanned_durations(v.items().iter().map(Item::duration));
            prop_assert_eq!((v.min_duration(), v.max_duration()), (min, max));
            prop_assert_eq!(v.mu(), inst.mu());
        }
    }
}

#[test]
fn cached_durations_of_empty_instances_are_none() {
    let inst = Instance::from_items(Vec::new()).unwrap();
    assert_eq!(
        (inst.min_duration(), inst.max_duration(), inst.mu()),
        (None, None, None)
    );
    let shifted = inst.shifted(i64::MAX).unwrap();
    assert_eq!((shifted.min_duration(), shifted.mu()), (None, None));
    assert_eq!(Instance::concat(&[]).max_duration(), None);
    for v in [
        VecInstance::from_items(Vec::new()).unwrap(),
        VecInstance::lift(&inst, 3),
    ] {
        assert_eq!(
            (v.min_duration(), v.max_duration(), v.mu()),
            (None, None, None)
        );
    }
}

/// The smallest id `items` repeats, by counting: the id rule's oracle.
fn smallest_repeated_id(items: &[Item]) -> Option<u32> {
    let mut seen = std::collections::BTreeMap::new();
    for r in items {
        *seen.entry(r.id().0).or_insert(0u32) += 1;
    }
    seen.into_iter().find(|&(_, n)| n > 1).map(|(id, _)| id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One id rule for both demand types: `from_items` at `Size` and at
    /// `SizeVec` (on the dim-1 lift of the same list) accept and refuse
    /// the same lists, name the same repeated id — the smallest — and
    /// build the same order and `(Δ, μΔ)`. Ids come from spaces of 1 to
    /// 119 values, so short spaces repeat ids and long ones mostly do
    /// not, and they are drawn in any order, so they rarely ascend in
    /// arrival order.
    #[test]
    fn scalar_and_vector_from_items_share_one_id_rule(
        raw in proptest::collection::vec((0u32..10_000, 1u64..=64, -20i64..20, 1i64..50), 0..40),
        id_space in 1u32..120,
    ) {
        let items: Vec<Item> = raw
            .iter()
            .map(|&(id, s, a, d)| Item::new(id % id_space, Size::from_ratio(s, 64).unwrap(), a, a + d))
            .collect();
        let lifted: Vec<Item<SizeVec>> = items.iter().map(|r| Item::lift(r, 1)).collect();
        let scalar = Instance::from_items(items.clone());
        let vector = Instance::from_items(lifted);
        match smallest_repeated_id(&items) {
            Some(id) => {
                prop_assert_eq!(scalar, Err(DbpError::DuplicateItemId { id }));
                prop_assert_eq!(vector, Err(DbpError::DuplicateItemId { id }));
            }
            None => {
                let (scalar, vector) = (scalar.unwrap(), vector.unwrap());
                let keys: Vec<_> = scalar.items().iter().map(|r| (r.arrival(), r.id())).collect();
                prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "not in (arrival, id) order");
                let (min, max) = scanned_durations(items.iter().map(Item::duration));
                prop_assert_eq!((scalar.min_duration(), scalar.max_duration()), (min, max));
                prop_assert_eq!(vector, VecInstance::lift(&scalar, 1));
            }
        }
    }
}
