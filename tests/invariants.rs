//! Property-based invariants spanning the whole workspace (DESIGN.md §7).
//!
//! Random instances are generated directly through proptest strategies
//! (not the seeded workload generators, to get shrinking), and every
//! algorithm's output is checked against the paper's invariants:
//! validity, lower-bound ordering, theorem bounds, and engine accounting
//! identities.

use clairvoyant_dbp::algos::exact;
use clairvoyant_dbp::core::accounting::lower_bounds;
use clairvoyant_dbp::prelude::*;
use proptest::prelude::*;

/// Strategy: a list of up to `n` items with dyadic-ish sizes and bounded
/// times (small enough ranges that shrinking stays readable).
fn arb_instance(max_items: usize) -> impl Strategy<Value = Instance> {
    let item = (1u64..=64, 0i64..200, 1i64..100).prop_map(|(s64, a, d)| (s64, a, a + d));
    proptest::collection::vec(item, 1..=max_items).prop_map(|triples| {
        let items = triples
            .into_iter()
            .enumerate()
            .map(|(i, (s64, a, dep))| {
                Item::new(i as u32, Size::from_ratio(s64, 64).unwrap(), a, dep)
            })
            .collect();
        Instance::from_items(items).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every packer produces a valid packing whose usage is at least the
    /// best lower bound, and the bounds are ordered LB3 ≥ span, demand.
    #[test]
    fn all_packers_valid_and_above_lb(inst in arb_instance(40)) {
        let lb = lower_bounds(&inst);
        prop_assert!(lb.lb3 >= lb.span);
        prop_assert!(lb.lb3 >= lb.demand.ticks_ceil());

        // Offline algorithms.
        let offline: Vec<Box<dyn OfflinePacker>> = vec![
            Box::new(DurationDescendingFirstFit::new()),
            Box::new(DualColoring::new()),
            Box::new(ArrivalFirstFit::new()),
        ];
        for p in &offline {
            let packing = p.pack(&inst);
            packing.validate(&inst).unwrap();
            let usage = packing.total_usage(&inst);
            prop_assert!(usage >= lb.best(), "{} beat the lower bound", p.name());
        }

        // Online algorithms (clairvoyant engine drives all of them).
        let engine = OnlineEngine::clairvoyant();
        let delta = inst.min_duration().unwrap();
        let mu = inst.mu().unwrap();
        let mut online: Vec<Box<dyn OnlinePacker>> = vec![
            Box::new(AnyFit::first_fit()),
            Box::new(AnyFit::best_fit()),
            Box::new(AnyFit::worst_fit()),
            Box::new(AnyFit::next_fit()),
            Box::new(HybridFirstFit::default()),
            Box::new(ClassifyByDepartureTime::with_known_durations(delta, mu)),
            Box::new(ClassifyByDuration::with_known_durations(delta, mu)),
            Box::new(CombinedClassify::with_known_durations(delta, mu)),
        ];
        for p in online.iter_mut() {
            let run = engine.run(&inst, p.as_mut()).unwrap();
            run.packing.validate(&inst).unwrap();
            prop_assert!(run.usage >= lb.best(), "{} beat the lower bound", p.name());
            // Engine accounting identity: usage equals packing span sum.
            prop_assert_eq!(run.usage, run.packing.total_usage(&inst));
        }
    }

    /// Theorem 1 and 2 bounds hold against LB3 (≤ OPT_total, so this is
    /// stronger than needed) on random instances.
    #[test]
    fn offline_theorem_bounds(inst in arb_instance(30)) {
        let lb = lower_bounds(&inst).best();
        let ddff = DurationDescendingFirstFit::new().pack(&inst).total_usage(&inst);
        prop_assert!(ddff < 5 * lb + 1, "DDFF {} vs 5x{}", ddff, lb);
        let dc = DualColoring::new().pack(&inst).total_usage(&inst);
        prop_assert!(dc <= 4 * lb, "DualColoring {} vs 4x{}", dc, lb);
    }

    /// Theorem 4/5 bounds hold for the classification strategies at their
    /// optimal known-μ parameters.
    #[test]
    fn online_theorem_bounds(inst in arb_instance(30)) {
        let lb = lower_bounds(&inst).best() as f64;
        let delta = inst.min_duration().unwrap();
        let mu = inst.mu().unwrap();
        let engine = OnlineEngine::clairvoyant();

        let mut cbdt = ClassifyByDepartureTime::with_known_durations(delta, mu);
        let u = engine.run(&inst, &mut cbdt).unwrap().usage as f64;
        let bound = clairvoyant_dbp::theory::cbdt_best_known(mu);
        // Rounding ρ to integer ticks perturbs the bound; allow the
        // general-form bound at the actual ρ.
        let actual_bound = clairvoyant_dbp::theory::cbdt_bound(
            cbdt.rho() as f64, delta as f64, mu);
        prop_assert!(u <= (bound.max(actual_bound)) * lb + 1.0,
            "CBDT usage {} vs bound {}x{}", u, bound, lb);

        let mut cbd = ClassifyByDuration::with_known_durations(delta, mu);
        let u = engine.run(&inst, &mut cbd).unwrap().usage as f64;
        let (bound, _) = clairvoyant_dbp::theory::cbd_best_known(mu);
        prop_assert!(u <= bound * lb + 1.0, "CBD usage {} vs bound {}x{}", u, bound, lb);

        // Non-clairvoyant First Fit respects μ+4 (Tang et al.).
        let mut ff = AnyFit::first_fit();
        let u = OnlineEngine::non_clairvoyant().run(&inst, &mut ff).unwrap().usage as f64;
        prop_assert!(u <= (mu + 4.0) * lb + 1.0, "FF {} vs (mu+4)x{}", u, lb);
    }

    /// Exact solver sandwich on small instances:
    /// LB3 ≤ OPT_total ≤ min_usage ≤ every algorithm's usage.
    #[test]
    fn exact_solver_sandwich(inst in arb_instance(7)) {
        let lb = lower_bounds(&inst);
        let opt_total = exact::opt_total(&inst);
        let (min_usage, packing) = exact::min_usage_packing(&inst);
        packing.validate(&inst).unwrap();
        prop_assert!(lb.lb3 <= opt_total);
        prop_assert!(opt_total <= min_usage);
        prop_assert_eq!(min_usage, packing.total_usage(&inst));
        let ddff = DurationDescendingFirstFit::new().pack(&inst).total_usage(&inst);
        prop_assert!(min_usage <= ddff);
        // Theorem bounds against the true denominators.
        prop_assert!(ddff < 5 * opt_total + 1);
        let dc = DualColoring::new().pack(&inst).total_usage(&inst);
        prop_assert!(dc <= 4 * opt_total);
    }

    /// Dual Coloring Phase 1 lemmas on random small-item sets.
    #[test]
    fn dual_coloring_lemmas(inst in arb_instance(25)) {
        use clairvoyant_dbp::algos::offline::{
            max_overlap_depth, phase1_with_coloring, placements_within_chart, verify_lemma2,
        };
        let (small, _) = inst.split_small_large();
        let (placements, coloring) = phase1_with_coloring(&small);
        prop_assert_eq!(placements.len(), small.len()); // Lemma 4
        prop_assert!(max_overlap_depth(&placements) <= 2); // Lemma 5
        prop_assert!(placements_within_chart(&small, &placements)); // Lemma 3
        prop_assert!(verify_lemma2(&small, &coloring)); // Lemma 2
    }

    /// The BTree and segment-tree profile backends produce identical DDFF
    /// packings.
    #[test]
    fn profile_backends_agree(inst in arb_instance(40)) {
        use clairvoyant_dbp::algos::offline::ProfileBackend;
        let a = DurationDescendingFirstFit::with_backend(ProfileBackend::BTree).pack(&inst);
        let b = DurationDescendingFirstFit::with_backend(ProfileBackend::SegTree).pack(&inst);
        prop_assert_eq!(a, b);
    }

    /// Trace round-trip is lossless for arbitrary instances.
    #[test]
    fn trace_round_trip(inst in arb_instance(50)) {
        use clairvoyant_dbp::workloads::trace;
        let text = trace::to_string(&inst);
        let back = trace::from_str(&text).unwrap();
        prop_assert_eq!(inst, back);
    }

    /// The streaming session and the batch engine produce identical runs
    /// for every packer on random instances (the batch engine is a
    /// wrapper, but this guards the contract from the outside).
    #[test]
    fn streaming_equals_batch(inst in arb_instance(30)) {
        use clairvoyant_dbp::core::stream::StreamingSession;
        use clairvoyant_dbp::core::RunRecorder;
        let delta = inst.min_duration().unwrap();
        let mu = inst.mu().unwrap();
        let mut packers: Vec<Box<dyn OnlinePacker>> = vec![
            Box::new(AnyFit::best_fit()),
            Box::new(ClassifyByDepartureTime::with_known_durations(delta, mu)),
        ];
        for p in packers.iter_mut() {
            let batch = OnlineEngine::clairvoyant().run(&inst, p.as_mut()).unwrap();
            let mut history = RunRecorder::new();
            let mut session = StreamingSession::with_observer(
                ClairvoyanceMode::Clairvoyant,
                p.as_mut(),
                &mut history,
            );
            for r in inst.items() {
                session.arrive(r).unwrap();
            }
            let totals = session.finish().unwrap();
            prop_assert_eq!(totals.usage, batch.usage);
            prop_assert_eq!(totals.bins_opened, batch.bins_opened());
            prop_assert_eq!(&history.into_run(), &batch);
        }
    }

    /// IntervalSet agrees with the sweep-line machinery: the union of all
    /// item intervals has measure span(R), and subtracting it from its
    /// hull yields exactly the load gaps.
    #[test]
    fn interval_set_cross_checks(inst in arb_instance(30)) {
        use clairvoyant_dbp::core::IntervalSet;
        let set: IntervalSet = inst.items().iter().map(|r| r.interval()).collect();
        prop_assert_eq!(set.measure(), inst.span());
        if let Some(hull) = inst.horizon() {
            let gaps = IntervalSet::from_intervals([hull]).difference(&set);
            prop_assert_eq!(gaps.measure(), hull.len() - inst.span());
            prop_assert_eq!(set.gaps(), gaps.clone());
            prop_assert!(!set.intersects(&gaps));
            prop_assert_eq!(set.union(&gaps).measure(), hull.len());
        }
    }
}
