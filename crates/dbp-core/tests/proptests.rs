//! Property tests for the core data structures, checked against naive
//! reference models.

use dbp_core::events::load_segments;
use dbp_core::interval::{span_of, union_components, Interval};
use dbp_core::observe::NoopObserver;
use dbp_core::online::{ClairvoyanceMode, Decision, ItemView, OnlinePacker, OpenBin, OpenBins};
use dbp_core::profile::{BTreeProfile, LevelProfile, SegTreeProfile};
use dbp_core::stats::StepSeries;
use dbp_core::stream::StreamingSession;
use dbp_core::{
    Demand, Instance, Item, Packing, Scalarization, Size, SizeVec, VecClairvoyance, VecItem,
};
use proptest::prelude::*;

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
/// sixty-fourths; `job` builds the item.
fn check_fleet_model<D: Demand>(
    ops: &[FleetOp],
    mode: D::Mode,
    demand: impl Fn(u64) -> D,
    job: impl Fn(u32, D, i64, i64) -> D::Item,
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
                    .arrive(&job(next_id, demand(*size_64ths), now, now + dur))
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
            Item::new,
        )?;
        check_fleet_model(
            &ops,
            VecClairvoyance::NonClairvoyant,
            |k| vec_demand(dims, k),
            VecItem::new,
        )?;
    }
}
