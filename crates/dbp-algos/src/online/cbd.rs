//! Classify-by-duration First Fit (§5.3).
//!
//! Items are classified so that the max/min duration ratio within each
//! category is at most `α`: given a base duration `b`, category `i` holds
//! items with duration in `[b·αⁱ, b·αⁱ⁺¹)` (the paper's footnote example:
//! `α = 2`, durations 1.5 and 4.5 produce categories `[1,2), [2,4), [4,8)`).
//! Each category is packed by First Fit separately.
//!
//! Theorem 5: competitive ratio ≤ `α + ⌈log_α μ⌉ + 4`; with durations known,
//! choosing `b = Δ` and `α = μ^{1/n}` gives `min_{n≥1} μ^{1/n} + n + 3`.

use super::{first_fit_tagged_in, ScanMode};
use dbp_core::online::{Decision, ItemView, OnlinePacker, OpenBins};
use dbp_core::Demand;

/// Classify-by-duration First Fit with base duration `b` (ticks) and
/// category ratio `α > 1`. Packs any [`Demand`] type: categories depend
/// only on durations, feasibility inside a category is the demand type's.
/// # Example
///
/// ```
/// use dbp_algos::online::ClassifyByDuration;
/// use dbp_core::{Instance, OnlineEngine};
///
/// // Durations 10 and 11 share a class (α=2, base 8); 100 does not.
/// let jobs = Instance::from_triples(&[
///     (0.3, 0, 10),
///     (0.3, 1, 12),
///     (0.3, 2, 102),
/// ]);
/// let mut packer = ClassifyByDuration::new(8, 2.0);
/// let run = OnlineEngine::clairvoyant().run(&jobs, &mut packer).unwrap();
/// assert_eq!(run.bins_opened(), 2);
/// ```
///
#[derive(Clone, Debug)]
pub struct ClassifyByDuration {
    base: i64,
    alpha: f64,
    /// Highest category index an item may occupy, when the duration range
    /// is known. `Some(n - 1)` for [`Self::with_known_durations`]: the
    /// max-duration item `μΔ` sits exactly on the `b·αⁿ` boundary and
    /// belongs in the closed last category `[b·αⁿ⁻¹, b·αⁿ]`.
    max_category: Option<i64>,
    mode: ScanMode,
    scanned: usize,
}

impl ClassifyByDuration {
    /// Creates the packer. `base ≥ 1` anchors category boundaries
    /// (`b·αⁱ`); `alpha > 1` is the intra-category max/min duration ratio.
    ///
    /// # Panics
    /// If `base < 1` or `alpha <= 1`.
    pub fn new(base: i64, alpha: f64) -> Self {
        assert!(base >= 1, "base duration must be at least one tick");
        assert!(alpha > 1.0, "alpha must exceed 1");
        ClassifyByDuration {
            base,
            alpha,
            max_category: None,
            mode: ScanMode::default(),
            scanned: 0,
        }
    }

    /// Switches to the seed's linear category walk — same decisions,
    /// O(category) per placement — for differential proofs.
    pub fn with_linear_scan(mut self) -> Self {
        self.mode = ScanMode::Linear;
        self
    }

    /// The optimal known-durations configuration of Theorem 5: `b = Δ` and
    /// `α = μ^{1/n}` for the `n ≥ 1` minimizing `μ^{1/n} + n + 3`.
    ///
    /// `α` is kept exact. The max-duration item `μΔ` sits exactly on the
    /// `b·αⁿ` boundary, so [`Self::category`] clamps indices to `n - 1`,
    /// making the last category the closed interval `[b·αⁿ⁻¹, b·αⁿ]` (its
    /// max/min ratio is still exactly `α`). A multiplicative nudge of `α`
    /// cannot do this reliably: the slack it adds at the top boundary
    /// competes with `powf`/`powi` rounding that grows with `μ`, so for
    /// large ranges (e.g. `μ = 2⁴⁰`) a boundary duration can still spill
    /// into a spurious `(n+1)`-th category.
    pub fn with_known_durations(min_duration: i64, mu: f64) -> Self {
        let n = optimal_num_categories(mu);
        let alpha = mu.powf(1.0 / n as f64);
        let mut packer = Self::new(min_duration, if alpha > 1.0 { alpha } else { 2.0 });
        packer.max_category = Some(n as i64 - 1);
        packer
    }

    /// The configured base duration `b`.
    pub fn base(&self) -> i64 {
        self.base
    }

    /// The configured ratio `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Display name including `b` and `α`.
    pub fn name(&self) -> String {
        format!("cbd(b={},alpha={:.3})", self.base, self.alpha)
    }

    /// Category index `i` such that `duration ∈ [b·αⁱ, b·αⁱ⁺¹)`, clamped
    /// into `i32` range and offset into `u64` tag space.
    ///
    /// Computed in `f64` with an integer-consistency correction loop so that
    /// boundary durations classify monotonically despite rounding.
    pub fn category(&self, duration: i64) -> u64 {
        debug_assert!(duration >= 1);
        let ratio = duration as f64 / self.base as f64;
        let mut i = (ratio.ln() / self.alpha.ln()).floor() as i64;
        // Correct FP error: ensure b·α^i ≤ duration < b·α^(i+1).
        while self.boundary(i) > duration as f64 {
            i -= 1;
        }
        while self.boundary(i + 1) <= duration as f64 {
            i += 1;
        }
        if let Some(max) = self.max_category {
            i = i.min(max);
        }
        (i + (1 << 32)) as u64
    }

    /// The lower boundary `b·αⁱ` of category `i`.
    fn boundary(&self, i: i64) -> f64 {
        self.base as f64 * self.alpha.powi(i as i32)
    }
}

/// The `n ≥ 1` minimizing `μ^{1/n} + n + 3` (Theorem 5, known durations).
///
/// The function is unimodal in `n`; we scan until it stops improving.
pub fn optimal_num_categories(mu: f64) -> u32 {
    let mu = mu.max(1.0);
    let f = |n: u32| mu.powf(1.0 / n as f64) + n as f64 + 3.0;
    let mut best_n = 1;
    let mut best = f(1);
    for n in 2..=64 {
        let v = f(n);
        if v < best {
            best = v;
            best_n = n;
        } else if v > best + 1.0 {
            break;
        }
    }
    best_n
}

impl<D: Demand> OnlinePacker<D> for ClassifyByDuration {
    fn name(&self) -> String {
        ClassifyByDuration::name(self)
    }

    fn place(&mut self, item: &ItemView<D>, open_bins: &OpenBins<D>) -> Decision {
        let dur = item
            .duration()
            .expect("ClassifyByDuration requires a clairvoyant engine");
        let tag = self.category(dur);
        let (decision, scanned) = first_fit_tagged_in(self.mode, tag, item.size, open_bins);
        self.scanned = scanned;
        decision
    }

    fn last_scanned(&self) -> Option<usize> {
        Some(self.scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::{Instance, OnlineEngine};

    #[test]
    fn footnote_example_categories() {
        // α = 2, base 1: categories [1,2), [2,4), [4,8).
        let p = ClassifyByDuration::new(1, 2.0);
        let c = |d| p.category(d);
        assert_eq!(c(1), c(1));
        assert_ne!(c(1), c(2));
        assert_eq!(c(2), c(3));
        assert_eq!(c(4), c(7));
        assert_ne!(c(3), c(4));
        assert_ne!(c(7), c(8));
    }

    #[test]
    fn intra_category_ratio_bounded_by_alpha() {
        let p = ClassifyByDuration::new(3, 1.7);
        use std::collections::HashMap;
        let mut by_cat: HashMap<u64, (i64, i64)> = HashMap::new();
        for d in 1..10_000 {
            let e = by_cat.entry(p.category(d)).or_insert((d, d));
            e.0 = e.0.min(d);
            e.1 = e.1.max(d);
        }
        for (_, (lo, hi)) in by_cat {
            assert!(
                (hi as f64 / lo as f64) <= 1.7 * (1.0 + 1e-9),
                "category [{lo},{hi}] exceeds alpha"
            );
        }
    }

    #[test]
    fn category_is_monotone_in_duration() {
        let p = ClassifyByDuration::new(2, 1.3);
        let mut prev = p.category(1);
        for d in 2..5_000 {
            let c = p.category(d);
            assert!(c >= prev, "category must be non-decreasing");
            prev = c;
        }
    }

    #[test]
    fn optimal_n_matches_brute_force() {
        for mu in [1.0, 2.0, 4.0, 10.0, 100.0, 1e4, 1e6] {
            let n = optimal_num_categories(mu);
            let f = |n: u32| mu.powf(1.0 / n as f64) + n as f64 + 3.0;
            let brute = (1..=200).min_by(|&a, &b| f(a).total_cmp(&f(b))).unwrap();
            assert_eq!(f(n), f(brute), "mu={mu}");
        }
    }

    #[test]
    fn known_durations_covers_all_items() {
        // All durations between Δ and μΔ must classify without panicking
        // and within n categories.
        let (delta, mu) = (5i64, 20.0);
        let p = ClassifyByDuration::with_known_durations(delta, mu);
        let n = optimal_num_categories(mu);
        let mut cats = std::collections::HashSet::new();
        for d in delta..=(delta as f64 * mu) as i64 {
            cats.insert(p.category(d));
        }
        assert!(cats.len() <= n as usize, "{} > {}", cats.len(), n);
    }

    #[test]
    fn known_durations_exact_boundary_at_mu_two_pow_forty() {
        // Regression: the old `α·(1 + 1e-9)` nudge left the top boundary
        // at the mercy of powf rounding for wide ranges. With exact α and
        // an index clamp, the max-duration item μΔ must land in the last
        // category (n − 1), never a spurious n-th, even at μ = 2^40.
        let mu = (1u64 << 40) as f64;
        let delta = 1i64;
        let p = ClassifyByDuration::with_known_durations(delta, mu);
        let n = optimal_num_categories(mu) as i64;
        let max_d = 1i64 << 40; // μ·Δ exactly
        assert_eq!(p.category(max_d), ((n - 1) + (1 << 32)) as u64);
        // Spot-check the whole range (and both sides of every boundary):
        // indices stay within 0..n and remain monotone.
        let mut cats = std::collections::HashSet::new();
        let mut probes: Vec<i64> = (0..=2048u32)
            .map(|k| delta + (((max_d - delta) as i128 * k as i128) / 2048) as i64)
            .collect();
        for i in 0..n {
            let b = (delta as f64 * p.alpha().powi(i as i32)).round() as i64;
            for d in [b - 1, b, b + 1] {
                if (delta..=max_d).contains(&d) {
                    probes.push(d);
                }
            }
        }
        probes.sort_unstable();
        let mut prev = p.category(probes[0]);
        for &d in &probes {
            let c = p.category(d);
            assert!(c >= prev, "category must be non-decreasing at d={d}");
            prev = c;
            let i = c as i64 - (1 << 32);
            assert!((0..n).contains(&i), "d={d} classified into category {i}");
            cats.insert(c);
        }
        assert!(cats.len() <= n as usize);
    }

    #[test]
    fn same_duration_class_shares_bins() {
        let inst = Instance::from_triples(&[
            (0.3, 0, 10),  // duration 10
            (0.3, 1, 12),  // duration 11 — same class for α=2, b=8
            (0.3, 2, 102), // duration 100 — different class
        ]);
        let mut p = ClassifyByDuration::new(8, 2.0);
        let run = OnlineEngine::clairvoyant().run(&inst, &mut p).unwrap();
        run.packing.validate(&inst).unwrap();
        assert_eq!(run.bins_opened(), 2);
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn rejects_bad_alpha() {
        let _ = ClassifyByDuration::new(1, 1.0);
    }
}
