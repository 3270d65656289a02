//! Adversarial instance families from the literature.
//!
//! These are deterministic constructions (no RNG) targeting specific
//! algorithms; they are the worst-case shapes behind the lower bounds the
//! paper quotes. The interactive Theorem 3 adversary lives in
//! `dbp_algos::adversary` (it must observe the algorithm mid-game); the
//! instances here are fixed up front.

use dbp_core::{Instance, Item, Size, Time};

/// The First Fit "tail trap": `k` pairs of (tiny long, filler short) items
/// arriving alternately at time 0. First Fit fills each bin exactly
/// (tiny + filler = capacity), so each of the `k` bins is pinned open for
/// the whole `horizon` by its tiny item: usage ≈ `k·horizon`. An optimal
/// packing puts all tinies in one bin: usage ≈ `horizon + k·filler_dur`.
/// This is the engine of the non-clairvoyant `μ`-type lower bounds, and
/// the shape classify-by-departure-time dismantles.
///
/// Requires `k ≤ 16` so all tinies (1/16 each) fit one bin.
pub fn ff_tail_trap(k: usize, horizon: Time, filler_dur: Time) -> Instance {
    assert!((1..=16).contains(&k));
    assert!(horizon > filler_dur && filler_dur >= 1);
    let tiny = Size::from_ratio(1, 16).expect("dyadic");
    let filler = Size::from_ratio(15, 16).expect("dyadic");
    let mut items = Vec::with_capacity(2 * k);
    for i in 0..k {
        items.push(Item::new(2 * i as u32, tiny, 0, horizon));
        items.push(Item::new(2 * i as u32 + 1, filler, 0, filler_dur));
    }
    Instance::from_items(items).expect("valid trap")
}

/// The Any Fit staircase behind the `μ`-type lower bounds (after Li et
/// al.): `k` generations arrive `step` ticks apart; generation `g` brings a
/// tiny item lasting `long` ticks and a filler that stays until just after
/// the *last* generation arrives. During the arrival phase every opened bin
/// is exactly full, so each tiny is forced into a fresh bin; once the
/// fillers depart, `k` bins each stay pinned open by one tiny for ~`long`
/// ticks (usage ≈ `k·long`), while the optimum co-locates all tinies
/// (usage ≈ `long + k·k·step`). As `long/step → ∞` the ratio approaches
/// `k`.
pub fn any_fit_staircase(k: usize, step: Time, long: Time) -> Instance {
    assert!((1..=16).contains(&k) && step >= 1 && long > k as i64 * step + 1);
    let tiny = Size::from_ratio(1, 16).expect("dyadic");
    let filler = Size::from_ratio(15, 16).expect("dyadic");
    let filler_end = k as i64 * step + 1;
    let mut items = Vec::new();
    let mut id = 0u32;
    for g in 0..k as i64 {
        let t = g * step;
        items.push(Item::new(id, tiny, t, t + long));
        id += 1;
        items.push(Item::new(id, filler, t, filler_end));
        id += 1;
    }
    Instance::from_items(items).expect("valid staircase")
}

/// The Best Fit separation cascade (after Li et al., who showed Best
/// Fit's competitive ratio is unbounded for MinUsageTime DBP while First
/// Fit's is `O(μ)`).
///
/// Gadget `g` (of `k`, spaced `2·short` apart) brings a filler of size
/// `1 − 2⁻ᵍ⁻¹` lasting `short` ticks and then a tiny item of size `2⁻ᵍ⁻¹`
/// lasting `long` ticks. The filler fits no earlier bin (every earlier bin
/// holds a *larger* tiny), so it opens a fresh bin; Best Fit then steers
/// the tiny into that fullest bin, where it stays pinning the bin for
/// `long` ticks after the filler leaves — `k` pinned bins in total. First
/// Fit instead returns every tiny to the first bin (all tinies sum below
/// capacity), staying near-optimal. BF pays ≈ `k·long`, FF and OPT pay
/// ≈ `long + k·short`.
///
/// Requires `2 ≤ k ≤ 16` (sizes stay representable) and `long > 2·k·short`.
pub fn best_fit_cascade(k: usize, short: Time, long: Time) -> Instance {
    assert!((2..=16).contains(&k) && short >= 1 && long > 2 * k as i64 * short);
    let mut items = Vec::with_capacity(2 * k);
    let mut id = 0u32;
    for g in 1..=k as u32 {
        let t = (g as i64 - 1) * 2 * short;
        let tiny = Size::from_raw(Size::SCALE >> (g + 1));
        let filler = Size::CAPACITY - tiny;
        items.push(Item::new(id, filler, t, t + short));
        id += 1;
        items.push(Item::new(id, tiny, t, t + long));
        id += 1;
    }
    Instance::from_items(items).expect("valid cascade")
}

/// Items that punish *duration-blind* packing: alternating short/long items
/// of size 1/2 arriving together, so any packer that pairs them leaves
/// half-empty bins open for `long` ticks. Clairvoyant classification pairs
/// shorts with shorts.
pub fn short_long_pairs(pairs: usize, short: Time, long: Time) -> Instance {
    assert!(pairs >= 1 && long > short);
    let half = Size::HALF;
    let mut items = Vec::new();
    let mut id = 0u32;
    for _ in 0..pairs {
        items.push(Item::new(id, half, 0, short));
        id += 1;
        items.push(Item::new(id, half, 0, long));
        id += 1;
    }
    Instance::from_items(items).expect("valid pairs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_algos::online::AnyFit;
    use dbp_core::accounting::lower_bounds;
    use dbp_core::OnlineEngine;

    #[test]
    fn tail_trap_hurts_first_fit() {
        let inst = ff_tail_trap(8, 1000, 10);
        let run = OnlineEngine::non_clairvoyant()
            .run(&inst, &mut AnyFit::first_fit())
            .unwrap();
        run.packing.validate(&inst).unwrap();
        assert_eq!(run.usage, 8 * 1000);
        let lb = lower_bounds(&inst);
        // OPT ≈ 1000 + 8·10; FF ratio ≈ 8 ≫ 1.
        assert!(run.usage as f64 / lb.best() as f64 > 6.0);
    }

    #[test]
    fn staircase_accumulates_open_bins() {
        let inst = any_fit_staircase(8, 10, 2000);
        for mut packer in [AnyFit::first_fit(), AnyFit::best_fit(), AnyFit::worst_fit()] {
            let run = OnlineEngine::non_clairvoyant()
                .run(&inst, &mut packer)
                .unwrap();
            run.packing.validate(&inst).unwrap();
            // Each generation pins a separate bin for ~2000 ticks.
            assert_eq!(run.bins_opened(), 8, "{}", packer.name());
            assert!(run.usage >= 8 * 2000, "{}", packer.name());
            let lb = lower_bounds(&inst);
            assert!(run.usage as f64 / lb.best() as f64 > 5.0);
        }
    }

    #[test]
    fn best_fit_cascade_separates_bf_from_ff() {
        let inst = best_fit_cascade(8, 10, 2000);
        let engine = OnlineEngine::non_clairvoyant();
        let bf = engine.run(&inst, &mut AnyFit::best_fit()).unwrap();
        bf.packing.validate(&inst).unwrap();
        let ff = engine.run(&inst, &mut AnyFit::first_fit()).unwrap();
        ff.packing.validate(&inst).unwrap();
        // BF pins one bin per gadget for the long duration; FF returns
        // every tiny to the first bin.
        assert!(
            bf.usage >= 8 * 2000,
            "BF usage {} should be ~k·long",
            bf.usage
        );
        assert!(
            ff.usage < 2 * 2000,
            "FF usage {} should be ~long + k·short",
            ff.usage
        );
        let lb = lower_bounds(&inst);
        assert!((bf.usage as f64 / lb.best() as f64) > 5.0);
        assert!((ff.usage as f64 / lb.best() as f64) < 1.5);
    }

    #[test]
    fn short_long_pairs_shape() {
        let inst = short_long_pairs(4, 10, 1000);
        assert_eq!(inst.len(), 8);
        assert_eq!(inst.mu(), Some(100.0));
    }
}
