//! Integer timestamps and half-open time intervals.
//!
//! The paper (§3.1) views all active intervals as half-open `I = [I⁻, I⁺)`.
//! Times are integer ticks so that span, demand, and usage-time accounting
//! are exact. A tick has no fixed physical meaning; workloads choose their
//! own resolution (e.g. one tick = one second).

use crate::error::DbpError;
use std::fmt;

/// A point in time, in integer ticks.
pub type Time = i64;

/// A half-open time interval `[start, end)` with `start < end`.
///
/// Mirrors the paper's `I = [I⁻, I⁺)`; [`Interval::start`] is `I⁻` and
/// [`Interval::end`] is `I⁺`. The length `l(I) = I⁺ − I⁻` is
/// [`Interval::len`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    start: Time,
    end: Time,
}

impl Interval {
    /// Creates `[start, end)`. Returns an error unless `start < end`
    /// (zero-length active intervals are not meaningful: such an item would
    /// never be active) and the length `end − start` fits in an `i64`, so
    /// [`Interval::len`] is always at least 1.
    pub fn new(start: Time, end: Time) -> Result<Self, DbpError> {
        if start >= end {
            Err(DbpError::EmptyInterval { start, end })
        } else if end.checked_sub(start).is_none() {
            Err(DbpError::IntervalOverflow { start, end })
        } else {
            Ok(Self { start, end })
        }
    }

    /// Creates `[start, end)`, panicking where [`Interval::new`] errs.
    ///
    /// Convenient in tests and generators where inputs are known-good.
    #[track_caller]
    pub fn of(start: Time, end: Time) -> Self {
        Self::new(start, end).expect("Interval::of requires a valid interval")
    }

    /// Left endpoint `I⁻` (inclusive).
    #[inline]
    pub fn start(&self) -> Time {
        self.start
    }

    /// Right endpoint `I⁺` (exclusive).
    #[inline]
    pub fn end(&self) -> Time {
        self.end
    }

    /// Length `l(I) = I⁺ − I⁻`; always positive.
    #[inline]
    pub fn len(&self) -> i64 {
        self.end - self.start
    }

    /// Half-open intervals are never empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether time `t` lies inside `[start, end)`.
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether `other` is fully contained in `self` (`self ⊇ other`).
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Whether the two half-open intervals share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The intersection `self ∩ other`, or `None` if disjoint.
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(Interval { start, end })
    }

    /// The smallest interval covering both (their convex hull).
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Shifts both endpoints by `delta` ticks.
    pub fn shifted(&self, delta: i64) -> Interval {
        Interval {
            start: self.start + delta,
            end: self.end + delta,
        }
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Measure of the union of a set of intervals (the paper's `span`).
///
/// Runs in `O(n log n)`; the input order is irrelevant.
///
/// ```
/// use dbp_core::interval::{span_of, Interval};
/// let ivs = [Interval::of(0, 4), Interval::of(2, 6), Interval::of(10, 11)];
/// assert_eq!(span_of(ivs.iter().copied()), 7);
/// ```
pub fn span_of(intervals: impl IntoIterator<Item = Interval>) -> i64 {
    let mut ivs: Vec<Interval> = intervals.into_iter().collect();
    if ivs.is_empty() {
        return 0;
    }
    ivs.sort_unstable_by_key(|i| (i.start, i.end));
    let mut total: i64 = 0;
    let mut cur = ivs[0];
    for iv in ivs.into_iter().skip(1) {
        if iv.start <= cur.end {
            cur.end = cur.end.max(iv.end);
        } else {
            total += cur.len();
            cur = iv;
        }
    }
    total + cur.len()
}

/// The disjoint maximal intervals forming the union of the inputs, in
/// ascending order. `span_of` equals the summed lengths of this output.
pub fn union_components(intervals: impl IntoIterator<Item = Interval>) -> Vec<Interval> {
    let mut ivs: Vec<Interval> = intervals.into_iter().collect();
    if ivs.is_empty() {
        return Vec::new();
    }
    ivs.sort_unstable_by_key(|i| (i.start, i.end));
    let mut out = Vec::new();
    let mut cur = ivs[0];
    for iv in ivs.into_iter().skip(1) {
        if iv.start <= cur.end {
            cur.end = cur.end.max(iv.end);
        } else {
            out.push(cur);
            cur = iv;
        }
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert!(Interval::new(3, 3).is_err());
        assert!(Interval::new(5, 2).is_err());
        assert!(Interval::new(2, 5).is_ok());
    }

    #[test]
    fn rejects_lengths_that_overflow_i64() {
        // The length would wrap to -1 in a release build.
        assert!(matches!(
            Interval::new(Time::MIN, Time::MAX),
            Err(DbpError::IntervalOverflow { .. })
        ));
        assert!(Interval::new(Time::MIN, 0).is_err());
        assert_eq!(Interval::new(Time::MIN, -1).unwrap().len(), Time::MAX);
        assert_eq!(Interval::new(0, Time::MAX).unwrap().len(), Time::MAX);
    }

    #[test]
    fn len_and_contains() {
        let iv = Interval::of(2, 7);
        assert_eq!(iv.len(), 5);
        assert!(iv.contains(2));
        assert!(iv.contains(6));
        assert!(!iv.contains(7), "right endpoint is exclusive");
        assert!(!iv.contains(1));
    }

    #[test]
    fn intersection_respects_half_open() {
        // [0,5) and [5,9) touch but do not intersect.
        let a = Interval::of(0, 5);
        let b = Interval::of(5, 9);
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection(&b), None);

        let c = Interval::of(4, 6);
        assert!(a.intersects(&c));
        assert_eq!(a.intersection(&c), Some(Interval::of(4, 5)));
    }

    #[test]
    fn containment() {
        let outer = Interval::of(0, 10);
        assert!(outer.contains_interval(&Interval::of(0, 10)));
        assert!(outer.contains_interval(&Interval::of(3, 7)));
        assert!(!outer.contains_interval(&Interval::of(3, 11)));
    }

    #[test]
    fn hull_and_shift() {
        let a = Interval::of(0, 2);
        let b = Interval::of(8, 9);
        assert_eq!(a.hull(&b), Interval::of(0, 9));
        assert_eq!(a.shifted(5), Interval::of(5, 7));
    }

    #[test]
    fn span_empty_and_single() {
        assert_eq!(span_of(std::iter::empty()), 0);
        assert_eq!(span_of([Interval::of(-5, 5)]), 10);
    }

    #[test]
    fn span_merges_touching_intervals() {
        // Touching half-open intervals form a contiguous span.
        assert_eq!(span_of([Interval::of(0, 5), Interval::of(5, 8)]), 8);
    }

    #[test]
    fn span_with_gaps() {
        let ivs = [
            Interval::of(0, 3),
            Interval::of(1, 2),
            Interval::of(10, 12),
            Interval::of(11, 15),
        ];
        assert_eq!(span_of(ivs), 3 + 5);
        let comps = union_components(ivs);
        assert_eq!(comps, vec![Interval::of(0, 3), Interval::of(10, 15)]);
    }
}
