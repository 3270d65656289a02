//! Exact order statistics and the decision digest.
//!
//! Percentiles come from the sorted raw samples, never from a bucketed
//! histogram: `dbp_telemetry::Histogram` keeps four buckets per octave,
//! which cannot resolve the 10% changes the bounds in `BENCHMARK.json`
//! are about.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of already sorted samples, by
/// the nearest-rank rule: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples sorted");
    let n = sorted.len();
    // The epsilon keeps `99.9 / 100 * 1000` from rounding up past 999.
    let rank = (p.clamp(0.0, 100.0) * n as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// How many samples lie strictly above the `p`-th percentile — the
/// support a tail percentile rests on.
pub fn beyond(sorted: &[u64], p: f64) -> usize {
    match percentile(sorted, p) {
        Some(v) => sorted.len() - sorted.partition_point(|&x| x <= v),
        None => 0,
    }
}

/// Median of floating-point values (mean of the middle pair for even
/// counts); `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// FNV-1a over a stream of 64-bit words: the decision digest. Two runs
/// that made the same decisions in the same order print the same value.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 99.9), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&[], 50.0), None);
        // Exact, not bucketed: values a 4-per-octave histogram would
        // merge into one bucket stay distinct.
        let w = [1000u64, 1050, 1100, 1150];
        assert_eq!(percentile(&w, 50.0), Some(1050));
        assert_eq!(percentile(&w, 75.0), Some(1100));
    }

    #[test]
    fn tail_support_counts_samples_above() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(beyond(&v, 99.0), 10);
        assert_eq!(beyond(&v, 99.9), 1);
        assert_eq!(beyond(&[7, 7, 7], 50.0), 0);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1, 2, 3]), 2.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.push(1);
        a.push(2);
        b.push(2);
        b.push(1);
        assert_ne!(a.value(), b.value());
    }
}
