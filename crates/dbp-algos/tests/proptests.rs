//! Property tests for the algorithm crate: exact solvers against brute
//! force, classification boundary behaviour, Dual Coloring stripe
//! capacity, the indexed-vs-linear scan differential for the whole
//! online roster, and the roster's runs with and without explicit
//! `advance_to` calls.

use dbp_algos::exact::{min_bins, min_usage_packing, opt_total};
use dbp_algos::offline::{phase1, phase2, DualColoring, DurationDescendingFirstFit};
use dbp_algos::online::{
    AnyFit, ClassifyByDepartureTime, ClassifyByDuration, CombinedClassify, HybridFirstFit,
};
use dbp_algos::registry::{clairvoyance_for, online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_core::accounting::lower_bounds;
use dbp_core::stream::StreamingSession;
use dbp_core::{
    Instance, Item, OfflinePacker, OnlineEngine, OnlinePacker, OnlineRun, RunRecorder, Size,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_sizes(max: usize) -> impl Strategy<Value = Vec<Size>> {
    proptest::collection::vec(
        (1u64..=64).prop_map(|s| Size::from_ratio(s, 64).unwrap()),
        0..=max,
    )
}

fn arb_instance(max_items: usize) -> impl Strategy<Value = Instance> {
    let item = (1u64..=64, 0i64..100, 1i64..50).prop_map(|(s, a, d)| (s, a, a + d));
    proptest::collection::vec(item, 1..=max_items).prop_map(|triples| {
        let items = triples
            .into_iter()
            .enumerate()
            .map(|(i, (s, a, dep))| Item::new(i as u32, Size::from_ratio(s, 64).unwrap(), a, dep))
            .collect();
        Instance::from_items(items).unwrap()
    })
}

/// A stream whose sizes come from the catalog 1/16, 1/8, 1/4, 1/2, with
/// enough overlap that tens of bins stay open at once and share levels.
fn arb_catalog_instance(max_items: usize) -> impl Strategy<Value = Instance> {
    let item = (0usize..4, 0i64..60, 1i64..80).prop_map(|(k, a, d)| (k, a, a + d));
    proptest::collection::vec(item, 1..=max_items).prop_map(|triples| {
        let items = triples
            .into_iter()
            .enumerate()
            .map(|(i, (k, a, dep))| {
                Item::new(i as u32, Size::from_ratio(1, 16 >> k).unwrap(), a, dep)
            })
            .collect();
        Instance::from_items(items).unwrap()
    })
}

type PackerPair = (Box<dyn OnlinePacker>, Box<dyn OnlinePacker>);

/// Each Any Fit rule with its linear-scan foil.
fn any_fit_pairs() -> Vec<PackerPair> {
    [
        AnyFit::first_fit(),
        AnyFit::best_fit(),
        AnyFit::worst_fit(),
        AnyFit::next_fit(),
    ]
    .into_iter()
    .map(|p| -> PackerPair { (Box::new(p), Box::new(p.with_linear_scan())) })
    .collect()
}

/// Each classification strategy (and Hybrid First Fit) with its
/// linear-scan foil.
fn classifier_pairs(rho: i64, alpha: f64) -> Vec<PackerPair> {
    vec![
        (
            Box::new(ClassifyByDepartureTime::new(rho)),
            Box::new(ClassifyByDepartureTime::new(rho).with_linear_scan()),
        ),
        (
            Box::new(ClassifyByDuration::new(1, alpha)),
            Box::new(ClassifyByDuration::new(1, alpha).with_linear_scan()),
        ),
        (
            Box::new(CombinedClassify::new(1, alpha)),
            Box::new(CombinedClassify::new(1, alpha).with_linear_scan()),
        ),
        (
            Box::new(HybridFirstFit::default()),
            Box::new(HybridFirstFit::default().with_linear_scan()),
        ),
    ]
}

/// Runs each pair on `inst` and requires bit-identical runs.
fn indexed_matches_linear(
    eng: &OnlineEngine,
    inst: &Instance,
    pairs: Vec<PackerPair>,
) -> Result<(), String> {
    for (mut indexed, mut linear) in pairs {
        let name = indexed.name();
        let a = eng.run(inst, indexed.as_mut()).unwrap();
        let b = eng.run(inst, linear.as_mut()).unwrap();
        if let Err(why) = same_run(&a, &b) {
            prop_assert!(false, "{}: {}", name, why);
        }
    }
    Ok(())
}

/// Brute-force exact bin packing by enumerating assignments.
fn brute_min_bins(sizes: &[Size]) -> usize {
    if sizes.is_empty() {
        return 0;
    }
    let n = sizes.len();
    fn rec(sizes: &[Size], idx: usize, bins: &mut Vec<u64>, best: &mut usize) {
        if bins.len() >= *best {
            return;
        }
        if idx == sizes.len() {
            *best = bins.len();
            return;
        }
        let s = sizes[idx].raw();
        for i in 0..bins.len() {
            if bins[i] + s <= Size::SCALE {
                bins[i] += s;
                rec(sizes, idx + 1, bins, best);
                bins[i] -= s;
            }
        }
        bins.push(s);
        rec(sizes, idx + 1, bins, best);
        bins.pop();
    }
    let mut best = n;
    rec(sizes, 0, &mut Vec::new(), &mut best);
    best
}

/// Bit-identity between two engine runs: same packing, same usage, same
/// bin lifetime records (the comparison the dbp-audit harness applies).
fn same_run(a: &OnlineRun, b: &OnlineRun) -> Result<(), String> {
    if a.packing != b.packing {
        return Err("packings differ".into());
    }
    if a.usage != b.usage {
        return Err(format!("usage {} vs {}", a.usage, b.usage));
    }
    if a.bins.len() != b.bins.len() {
        return Err(format!("{} bins vs {}", a.bins.len(), b.bins.len()));
    }
    for (x, y) in a.bins.iter().zip(&b.bins) {
        if x.id != y.id
            || x.opened_at != y.opened_at
            || x.closed_at != y.closed_at
            || x.tag != y.tag
            || x.items != y.items
        {
            return Err(format!("bin {} lifetime record differs", x.id.0));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The branch-and-bound classical bin packing solver is exact.
    #[test]
    fn min_bins_matches_bruteforce(sizes in arb_sizes(8)) {
        prop_assert_eq!(min_bins(&sizes), brute_min_bins(&sizes));
    }

    /// `opt_total` is monotone under item removal (removing an item can
    /// never increase the adversary's cost).
    #[test]
    fn opt_total_monotone(inst in arb_instance(6)) {
        let full = opt_total(&inst);
        for skip in 0..inst.len() {
            let items: Vec<Item> = inst
                .items()
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, r)| *r)
                .collect();
            let sub = Instance::from_items(items).unwrap();
            prop_assert!(opt_total(&sub) <= full);
        }
    }

    /// The no-migration optimum equals DDFF when DDFF happens to match the
    /// lower bound, and is always sandwiched between OPT_total and any
    /// heuristic.
    #[test]
    fn exact_sandwich(inst in arb_instance(6)) {
        let (opt, packing) = min_usage_packing(&inst);
        packing.validate(&inst).unwrap();
        let adversary = opt_total(&inst);
        let ddff = DurationDescendingFirstFit::new().pack(&inst).total_usage(&inst);
        prop_assert!(adversary <= opt);
        prop_assert!(opt <= ddff);
    }

    /// Dual Coloring stripe capacity: within each Phase 2 bin, the level
    /// never exceeds capacity (the Lemma 5 → stripe argument, end to end),
    /// and the bin count is within 2m−1.
    #[test]
    fn dual_coloring_stripe_capacity(inst in arb_instance(20)) {
        let (small, _) = inst.split_small_large();
        let placements = phase1(&small);
        let bins = phase2(&placements);
        // Validate via a small-items-only instance.
        let small_inst = Instance::from_items(small.clone()).unwrap();
        let packing = dbp_core::Packing::from_bins(bins.clone());
        // phase2 prunes empty bins but must cover all small items.
        prop_assert!(packing.validate(&small_inst).is_ok());
        if !placements.is_empty() {
            let peak = placements.iter().map(|p| p.altitude).max().unwrap();
            let m = peak.div_ceil(Size::SCALE / 2) as usize;
            prop_assert!(bins.len() < 2 * m);
        }
    }

    /// The full Dual Coloring packing respects Theorem 2 against LB3.
    #[test]
    fn dual_coloring_theorem2(inst in arb_instance(20)) {
        let p = DualColoring::new().pack(&inst);
        p.validate(&inst).unwrap();
        prop_assert!(p.total_usage(&inst) <= 4 * lower_bounds(&inst).best());
    }

    /// CBDT: items sharing a bin always depart within the same ρ-window.
    #[test]
    fn cbdt_bins_are_departure_homogeneous(inst in arb_instance(24), rho in 1i64..40) {
        let mut packer = ClassifyByDepartureTime::new(rho);
        let run = OnlineEngine::clairvoyant().run(&inst, &mut packer).unwrap();
        let epoch = inst.first_arrival().unwrap();
        for rec in &run.bins {
            let cats: std::collections::HashSet<i64> = rec
                .items
                .iter()
                .map(|id| {
                    let dep = inst.item(*id).unwrap().departure();
                    (dep - epoch + rho - 1) / rho
                })
                .collect();
            prop_assert_eq!(cats.len(), 1, "bin mixes departure windows");
        }
    }

    /// Indexed-vs-linear differential, Any Fit family: on random
    /// instances, every fit rule answered from the `OpenBins` index
    /// produces a bit-identical run — packing, usage, and bin lifetime
    /// records — to the seed's linear open-bin walk.
    #[test]
    fn any_fit_indexed_matches_linear_scan(inst in arb_instance(40)) {
        indexed_matches_linear(&OnlineEngine::non_clairvoyant(), &inst, any_fit_pairs())?;
    }

    /// Indexed-vs-linear differential, classification strategies: the
    /// per-tag fit index agrees with the linear category walk for CBDT,
    /// CBD, the combined classifier, and Hybrid First Fit.
    #[test]
    fn classifiers_indexed_match_linear_scan(inst in arb_instance(40), rho in 1i64..24, alpha in 1.2f64..4.0) {
        indexed_matches_linear(&OnlineEngine::clairvoyant(), &inst, classifier_pairs(rho, alpha))?;
    }

    /// The whole roster's indexed-vs-linear differential on tie-heavy
    /// streams: sizes drawn from the catalog 1/16, 1/8, 1/4, 1/2, so
    /// most bins share an exact level with others and Best/Worst Fit
    /// answer from tie groups (the latest- and earliest-opened bin of a
    /// level) rather than from distinct levels.
    #[test]
    fn roster_indexed_matches_linear_scan_on_tie_heavy_catalogs(
        inst in arb_catalog_instance(80),
        rho in 1i64..24,
        alpha in 1.2f64..4.0,
    ) {
        indexed_matches_linear(&OnlineEngine::non_clairvoyant(), &inst, any_fit_pairs())?;
        indexed_matches_linear(&OnlineEngine::clairvoyant(), &inst, any_fit_pairs())?;
        indexed_matches_linear(&OnlineEngine::clairvoyant(), &inst, classifier_pairs(rho, alpha))?;
    }

    /// `advance_to` before every arrival changes nothing but when bins
    /// close: for each roster packer, a session that advances its clock
    /// to each arrival first keeps exactly the bins the arrivals-only
    /// run keeps open past that time, ends in an identical run, and its
    /// running totals equal that run's usage and bins opened.
    /// (`OnlineEngine::run` wraps the same session, so this checks only
    /// the explicit clock advance and the totals.)
    #[test]
    fn roster_runs_match_with_and_without_advance_to(inst in arb_instance(40)) {
        let params = AlgoParams::from_instance(&inst);
        let position: HashMap<_, _> =
            inst.items().iter().enumerate().map(|(i, item)| (item.id(), i)).collect();
        for algo in ONLINE_ALGOS {
            let mode = clairvoyance_for(algo);
            let run = OnlineEngine::new(mode.clone())
                .run(&inst, online_packer(algo, params).as_mut())
                .unwrap();
            let mut packer = online_packer(algo, params);
            let mut history = RunRecorder::new();
            let mut session = StreamingSession::with_observer(mode, packer.as_mut(), &mut history);
            for (i, item) in inst.items().iter().enumerate() {
                let t = item.arrival();
                session.advance_to(t).unwrap();
                // Open now: bins an earlier arrival opened that outlive t.
                let open = run
                    .bins
                    .iter()
                    .filter(|b| position[&b.items[0]] < i && b.closed_at > t)
                    .count();
                prop_assert_eq!(session.open_bins(), open, "{} after advance_to({})", algo, t);
                session.arrive(item).unwrap();
            }
            let totals = session.finish().unwrap();
            prop_assert_eq!((totals.usage, totals.bins_opened), (run.usage, run.bins_opened()));
            if let Err(why) = same_run(&run, &history.into_run()) {
                prop_assert!(false, "{}: {}", algo, why);
            }
        }
    }

    /// CBD: items sharing a bin have duration ratio at most α.
    #[test]
    fn cbd_bins_bound_duration_ratio(inst in arb_instance(24), alpha in 1.2f64..4.0) {
        let mut packer = ClassifyByDuration::new(1, alpha);
        let run = OnlineEngine::clairvoyant().run(&inst, &mut packer).unwrap();
        for rec in &run.bins {
            let durs: Vec<i64> = rec
                .items
                .iter()
                .map(|id| inst.item(*id).unwrap().duration())
                .collect();
            let min = *durs.iter().min().unwrap() as f64;
            let max = *durs.iter().max().unwrap() as f64;
            prop_assert!(
                max / min <= alpha * (1.0 + 1e-9),
                "bin duration ratio {} exceeds alpha {}",
                max / min,
                alpha
            );
        }
    }
}
