//! Instance and run statistics for reports and capacity planning.
//!
//! These summaries back the experiment tables and give downstream users a
//! quick structural fingerprint of a trace: duration and size spreads,
//! concurrency over time, and the theoretical server-count floor.

use crate::events::load_segments;
use crate::instance::Instance;
use crate::interval::Time;
use crate::size::Size;

/// A structural summary of an instance.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceStats {
    /// Number of items.
    pub items: usize,
    /// Minimum item duration `Δ`.
    pub min_duration: i64,
    /// Maximum item duration `μΔ`.
    pub max_duration: i64,
    /// Duration ratio `μ`.
    pub mu: f64,
    /// Mean item duration.
    pub mean_duration: f64,
    /// Smallest item size (fraction of capacity).
    pub min_size: f64,
    /// Largest item size (fraction of capacity).
    pub max_size: f64,
    /// Mean item size.
    pub mean_size: f64,
    /// Span of the instance in ticks.
    pub span: i64,
    /// Peak total active size `max_t S(t)` (fraction of capacity).
    pub peak_load: f64,
    /// Peak number of simultaneously active items.
    pub peak_concurrency: usize,
    /// Mean total active size over the span.
    pub mean_load: f64,
    /// The minimum possible number of concurrently open servers at the
    /// peak: `⌈max_t S(t)⌉`.
    pub peak_server_floor: u64,
}

/// Computes [`InstanceStats`]. Returns `None` for an empty instance.
pub fn instance_stats(inst: &Instance) -> Option<InstanceStats> {
    if inst.is_empty() {
        return None;
    }
    let items = inst.items();
    let n = items.len();
    let durations: Vec<i64> = items.iter().map(|r| r.duration()).collect();
    let sizes: Vec<f64> = items.iter().map(|r| r.size().as_f64()).collect();
    let segs = load_segments(items);
    let span: i64 = segs.iter().map(|s| s.interval.len()).sum();
    let peak = segs
        .iter()
        .map(|s| s.total_size)
        .max()
        .unwrap_or(Size::ZERO);
    let area: f64 = segs
        .iter()
        .map(|s| s.total_size.as_f64() * s.interval.len() as f64)
        .sum();
    let min_duration = inst.min_duration().expect("nonempty");
    let max_duration = inst.max_duration().expect("nonempty");
    Some(InstanceStats {
        items: n,
        min_duration,
        max_duration,
        mu: max_duration as f64 / min_duration as f64,
        mean_duration: durations.iter().sum::<i64>() as f64 / n as f64,
        min_size: sizes.iter().cloned().fold(f64::INFINITY, f64::min),
        max_size: sizes.iter().cloned().fold(0.0, f64::max),
        mean_size: sizes.iter().sum::<f64>() / n as f64,
        span,
        peak_load: peak.as_f64(),
        peak_concurrency: segs.iter().map(|s| s.count).max().unwrap_or(0),
        mean_load: if span > 0 { area / span as f64 } else { 0.0 },
        peak_server_floor: peak.ceil_units(),
    })
}

/// A step function of time (piecewise-constant), e.g. the open-server
/// count of a run. Points are `(time, value)` with the value holding until
/// the next point.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepSeries {
    /// `(time, value)` breakpoints in ascending time order.
    pub points: Vec<(Time, i64)>,
}

impl StepSeries {
    /// Builds a step series from `(time, delta)` events (e.g. +1 per
    /// server open, −1 per close). Events at equal times are merged.
    pub fn from_deltas(mut deltas: Vec<(Time, i64)>) -> StepSeries {
        deltas.sort_unstable();
        let mut points = Vec::new();
        let mut value = 0i64;
        let mut i = 0;
        while i < deltas.len() {
            let t = deltas[i].0;
            while i < deltas.len() && deltas[i].0 == t {
                value += deltas[i].1;
                i += 1;
            }
            match points.last() {
                Some(&(_, prev)) if prev == value => {}
                _ => points.push((t, value)),
            }
        }
        StepSeries { points }
    }

    /// The value at time `t` (0 before the first point).
    pub fn value_at(&self, t: Time) -> i64 {
        match self.points.binary_search_by_key(&t, |p| p.0) {
            Ok(i) => self.points[i].1,
            Err(0) => 0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Maximum value ever attained (0 for empty series).
    pub fn max(&self) -> i64 {
        self.points.iter().map(|p| p.1).max().unwrap_or(0)
    }

    /// Time-weighted integral between the first and last breakpoints.
    pub fn integral(&self) -> i128 {
        let mut total: i128 = 0;
        for w in self.points.windows(2) {
            total += (w[1].0 - w[0].0) as i128 * w[0].1 as i128;
        }
        total
    }

    /// Renders `time,value` CSV lines (for plotting fleet timelines).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time,value\n");
        for (t, v) in &self.points {
            out.push_str(&format!("{t},{v}\n"));
        }
        out
    }
}

/// Per-bin diagnostics of a finished packing.
#[derive(Clone, Debug, PartialEq)]
pub struct BinReport {
    /// Bin id.
    pub bin: crate::packing::BinId,
    /// Number of items ever placed in the bin.
    pub items: usize,
    /// Bin usage time (span of its items) in ticks.
    pub span: i64,
    /// Utilization: time–space demand of the bin's items divided by
    /// `span × capacity` (1.0 = perfectly full whenever open).
    pub utilization: f64,
    /// Idle gap time inside the bin's hull (hull length − span): periods
    /// the bin sat empty between uses (only offline packers produce gaps;
    /// online bins close when empty).
    pub gap_ticks: i64,
}

/// Computes per-bin diagnostics for a packing. Bins with no items are
/// skipped. Useful for spotting fragmentation: many low-utilization bins
/// mean the packer is stranding capacity. A bin whose items' hull is
/// longer than `i64::MAX` ticks is refused with
/// [`crate::DbpError::IntervalOverflow`].
pub fn packing_report(
    inst: &Instance,
    packing: &crate::packing::Packing,
) -> Result<Vec<BinReport>, crate::DbpError> {
    let mut out = Vec::new();
    for (bin, ids) in packing.iter_bins() {
        if ids.is_empty() {
            continue;
        }
        let items: Vec<&crate::item::Item> = ids
            .iter()
            .map(|id| inst.item(*id).expect("packed item exists"))
            .collect();
        let span = crate::interval::span_of(items.iter().map(|r| r.interval()));
        let first = items[0].interval();
        let hull = items[1..]
            .iter()
            .try_fold(first, |hull, r| hull.hull(&r.interval()))?;
        let demand: u128 = items.iter().map(|r| r.demand()).sum();
        let capacity_time = span as u128 * Size::SCALE as u128;
        out.push(BinReport {
            bin,
            items: items.len(),
            span,
            utilization: if capacity_time == 0 {
                1.0
            } else {
                demand as f64 / capacity_time as f64
            },
            gap_ticks: hull.len() - span,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let inst = Instance::from_triples(&[(0.25, 0, 10), (0.5, 5, 25), (0.75, 8, 12)]);
        let s = instance_stats(&inst).unwrap();
        assert_eq!(s.items, 3);
        assert_eq!(s.min_duration, 4);
        assert_eq!(s.max_duration, 20);
        assert_eq!(s.mu, 5.0);
        assert_eq!(s.span, 25);
        assert_eq!(s.peak_concurrency, 3);
        assert!((s.peak_load - 1.5).abs() < 1e-6);
        assert_eq!(s.peak_server_floor, 2);
        assert!(s.mean_load > 0.0 && s.mean_load < s.peak_load);
    }

    #[test]
    fn stats_empty() {
        let inst = Instance::from_items(vec![]).unwrap();
        assert_eq!(instance_stats(&inst), None);
    }

    #[test]
    fn step_series_from_deltas() {
        let s = StepSeries::from_deltas(vec![(0, 1), (5, 1), (5, -1), (10, -1)]);
        // t=5 nets to zero change → merged away.
        assert_eq!(s.points, vec![(0, 1), (10, 0)]);
        assert_eq!(s.value_at(-1), 0);
        assert_eq!(s.value_at(0), 1);
        assert_eq!(s.value_at(7), 1);
        assert_eq!(s.value_at(10), 0);
        assert_eq!(s.max(), 1);
        assert_eq!(s.integral(), 10);
    }

    #[test]
    fn step_series_csv() {
        let s = StepSeries::from_deltas(vec![(2, 3), (4, -3)]);
        assert_eq!(s.to_csv(), "time,value\n2,3\n4,0\n");
    }

    #[test]
    fn packing_report_diagnostics() {
        use crate::packing::Packing;
        use crate::ItemId;
        let inst = Instance::from_triples(&[
            (0.5, 0, 10),   // r0
            (0.5, 0, 10),   // r1: full bin with r0
            (0.25, 20, 30), // r2: reused bin after a gap
        ]);
        let p = Packing::from_bins(vec![vec![ItemId(0), ItemId(1), ItemId(2)]]);
        p.validate(&inst).unwrap();
        let rep = packing_report(&inst, &p).unwrap();
        assert_eq!(rep.len(), 1);
        let b = &rep[0];
        assert_eq!(b.items, 3);
        assert_eq!(b.span, 20); // [0,10) ∪ [20,30)
        assert_eq!(b.gap_ticks, 10); // idle [10,20)
                                     // demand = (0.5+0.5)·10 + 0.25·10 = 12.5 capacity-ticks over span
                                     // 20 → utilization 0.625.
        assert!((b.utilization - 0.625).abs() < 1e-6);
    }

    #[test]
    fn packing_report_skips_empty_bins() {
        use crate::packing::Packing;
        use crate::ItemId;
        let inst = Instance::from_triples(&[(0.5, 0, 10)]);
        let p = Packing::from_bins(vec![vec![], vec![ItemId(0)]]);
        let rep = packing_report(&inst, &p).unwrap();
        assert_eq!(rep.len(), 1);
        assert_eq!(rep[0].bin.0, 1);
        assert!((rep[0].utilization - 0.5).abs() < 1e-6);
        assert_eq!(rep[0].gap_ticks, 0);
    }

    #[test]
    fn packing_report_refuses_a_hull_past_the_tick_range() {
        use crate::packing::Packing;
        use crate::{DbpError, ItemId};
        // Each item is a valid interval; together they span more than
        // i64::MAX ticks.
        let inst = Instance::from_triples(&[
            (0.25, i64::MIN, i64::MIN + 1),
            (0.25, i64::MAX - 1, i64::MAX),
        ]);
        let together = Packing::from_bins(vec![vec![ItemId(0), ItemId(1)]]);
        assert!(matches!(
            packing_report(&inst, &together),
            Err(DbpError::IntervalOverflow {
                start: i64::MIN,
                end: i64::MAX
            })
        ));
        let apart = Packing::from_bins(vec![vec![ItemId(0)], vec![ItemId(1)]]);
        let rep = packing_report(&inst, &apart).unwrap();
        assert_eq!(rep.iter().map(|b| b.span).collect::<Vec<_>>(), [1, 1]);
    }
}
