//! Time-series metrics derived from the packing event stream.
//!
//! [`MetricsAggregator`] is a [`PackObserver`] that folds events into the
//! quantities the paper's figures are drawn from:
//!
//! * **active bins over time** — the fleet timeline an autoscaler sees;
//! * **total level `S(t)`** — the instantaneous resource demand, tracked
//!   exactly in raw fixed-point units;
//! * **`⌈S(t)⌉`** — the integrand of the paper's strongest lower bound
//!   LB3 = ∫⌈S(t)⌉dt (Proposition 3), so the gap between the active-bin
//!   curve and this curve *is* the instantaneous inefficiency;
//! * **per-bin utilization** — each closed bin's time-averaged level over
//!   its lifetime, summarized as a histogram;
//! * **instantaneous ratio vs. LB3** — active bins ÷ `⌈S(t)⌉` pointwise.
//!
//! [`MetricsReport::to_csv`] exports a merged timeline consumable by the
//! plotting helpers in `dbp-bench` (and any spreadsheet).

use dbp_core::observe::{PackEvent, PackObserver};
use dbp_core::stats::StepSeries;
use dbp_core::{BinId, Size, Time};
use std::collections::HashMap;

/// Number of buckets in the utilization histogram (bucket `i` covers
/// `[i/10, (i+1)/10)`, with 1.0 landing in the last bucket).
pub const HIST_BUCKETS: usize = 10;

struct BinState {
    opened_at: Time,
    last_change: Time,
    level_raw: u64,
    /// ∫ level dt so far, in raw-size × ticks.
    area_raw: u128,
}

/// Folds [`PackEvent`]s into time-series metrics. Attach to a run (e.g.
/// via `OnlineEngine::run_observed`), then call
/// [`MetricsAggregator::report`].
#[derive(Default)]
pub struct MetricsAggregator {
    fleet_deltas: Vec<(Time, i64)>,
    level_points: Vec<(Time, u128)>,
    total_level_raw: u128,
    bins: HashMap<BinId, BinState>,
    histogram: [u32; HIST_BUCKETS],
    utilization_sum: f64,
    bins_closed: u64,
    items_packed: u64,
    bins_failed: u64,
    arrivals_shed: u64,
}

impl MetricsAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Produces the report. The aggregator can keep receiving events
    /// afterwards, but a report taken mid-run reflects only events so far
    /// (open bins contribute no utilization sample yet).
    pub fn report(&self) -> MetricsReport {
        let scale = u128::from(Size::SCALE);
        let ceil_points: Vec<(Time, i64)> = self
            .level_points
            .iter()
            .map(|&(t, raw)| (t, raw.div_ceil(scale) as i64))
            .collect();
        MetricsReport {
            active_bins: StepSeries::from_deltas(self.fleet_deltas.clone()),
            total_level: dedup_series(
                self.level_points
                    .iter()
                    .map(|&(t, raw)| (t, raw as f64 / Size::SCALE as f64))
                    .collect(),
            ),
            ceil_level: series_from_points(ceil_points),
            utilization_histogram: self.histogram,
            mean_utilization: if self.bins_closed == 0 {
                0.0
            } else {
                self.utilization_sum / self.bins_closed as f64
            },
            bins_closed: self.bins_closed,
            items_packed: self.items_packed,
            bins_failed: self.bins_failed,
            arrivals_shed: self.arrivals_shed,
        }
    }

    fn settle(&mut self, bin: BinId, at: Time) {
        if let Some(st) = self.bins.get_mut(&bin) {
            st.area_raw += u128::from(st.level_raw) * (at - st.last_change).max(0) as u128;
            st.last_change = at;
        }
    }
}

/// Collapses same-instant updates (last wins) and consecutive equal
/// values (first wins).
fn dedup_series(points: Vec<(Time, f64)>) -> Vec<(Time, f64)> {
    let mut out: Vec<(Time, f64)> = Vec::with_capacity(points.len());
    for (t, v) in points {
        if let Some(last) = out.last_mut() {
            if last.0 == t {
                last.1 = v;
                continue;
            }
            if last.1 == v {
                continue;
            }
        }
        out.push((t, v));
    }
    out
}

/// Sums independent step functions (e.g. per-shard fleet timelines) into
/// one series. Each input's value between breakpoints contributes to the
/// sum, so the result at any instant is the sum of the inputs at that
/// instant. Purely integer delta arithmetic: the merge is a deterministic
/// function of the inputs, independent of their computation order.
pub fn merge_step_series(parts: &[StepSeries]) -> StepSeries {
    let mut deltas = Vec::new();
    for s in parts {
        let mut prev = 0i64;
        for &(t, v) in &s.points {
            deltas.push((t, v - prev));
            prev = v;
        }
    }
    StepSeries::from_deltas(deltas)
}

/// Merges the time-series metrics of independent sessions (the shards of
/// a `dbp-shard` fleet) into fleet-wide totals.
///
/// * `active_bins` and `ceil_level` are summed as step functions. Note
///   the merged `ceil_level` is `Σᵢ ⌈Sᵢ(t)⌉` — the lower bound the
///   *sharded* fleet is judged against (each shard owns disjoint bins),
///   which is ≥ the unsharded `⌈S(t)⌉`; the gap is the packing-quality
///   price of partitioning.
/// * `total_level` sums the per-shard level curves, accumulating shards
///   in slice order at every change point so the floating-point result
///   is a deterministic function of the inputs.
/// * The histogram, counts, and closed-bin utilization mean merge as
///   weighted sums.
pub fn merge_reports(parts: &[MetricsReport]) -> MetricsReport {
    let active: Vec<StepSeries> = parts.iter().map(|p| p.active_bins.clone()).collect();
    let ceil: Vec<StepSeries> = parts.iter().map(|p| p.ceil_level.clone()).collect();
    let mut histogram = [0u32; HIST_BUCKETS];
    let mut util_weighted = 0.0f64;
    let mut bins_closed = 0u64;
    let mut items_packed = 0u64;
    let mut bins_failed = 0u64;
    let mut arrivals_shed = 0u64;
    for p in parts {
        for (slot, add) in histogram.iter_mut().zip(&p.utilization_histogram) {
            *slot += add;
        }
        util_weighted += p.mean_utilization * p.bins_closed as f64;
        bins_closed += p.bins_closed;
        items_packed += p.items_packed;
        bins_failed += p.bins_failed;
        arrivals_shed += p.arrivals_shed;
    }
    MetricsReport {
        active_bins: merge_step_series(&active),
        total_level: merge_level_series(parts),
        ceil_level: merge_step_series(&ceil),
        utilization_histogram: histogram,
        mean_utilization: if bins_closed == 0 {
            0.0
        } else {
            util_weighted / bins_closed as f64
        },
        bins_closed,
        items_packed,
        bins_failed,
        arrivals_shed,
    }
}

/// Sums the `total_level` curves of several reports, walking all change
/// points in ascending time and adding shard values in slice order.
fn merge_level_series(parts: &[MetricsReport]) -> Vec<(Time, f64)> {
    let mut times: Vec<Time> = parts
        .iter()
        .flat_map(|p| p.total_level.iter().map(|&(t, _)| t))
        .collect();
    times.sort_unstable();
    times.dedup();
    let mut idx = vec![0usize; parts.len()];
    let mut cur = vec![0.0f64; parts.len()];
    let mut out: Vec<(Time, f64)> = Vec::with_capacity(times.len());
    for t in times {
        let mut sum = 0.0f64;
        for (k, p) in parts.iter().enumerate() {
            let s = &p.total_level;
            while idx[k] < s.len() && s[idx[k]].0 <= t {
                cur[k] = s[idx[k]].1;
                idx[k] += 1;
            }
            sum += cur[k];
        }
        match out.last() {
            Some(&(_, prev)) if prev == sum => {}
            _ => out.push((t, sum)),
        }
    }
    out
}

/// Builds a [`StepSeries`] from absolute `(time, value)` samples.
fn series_from_points(points: Vec<(Time, i64)>) -> StepSeries {
    let mut deltas = Vec::with_capacity(points.len());
    let mut prev = 0i64;
    for (t, v) in points {
        deltas.push((t, v - prev));
        prev = v;
    }
    StepSeries::from_deltas(deltas)
}

impl PackObserver for MetricsAggregator {
    fn on_event(&mut self, event: &PackEvent) {
        match event {
            PackEvent::ItemArrived { .. } => self.items_packed += 1,
            PackEvent::BinOpened { bin, at, .. } => {
                self.fleet_deltas.push((*at, 1));
                self.bins.insert(
                    *bin,
                    BinState {
                        opened_at: *at,
                        last_change: *at,
                        level_raw: 0,
                        area_raw: 0,
                    },
                );
            }
            PackEvent::LevelChanged { bin, at, level, .. } => {
                self.settle(*bin, *at);
                if let Some(st) = self.bins.get_mut(bin) {
                    self.total_level_raw =
                        self.total_level_raw + u128::from(level.raw()) - u128::from(st.level_raw);
                    st.level_raw = level.raw();
                    self.level_points.push((*at, self.total_level_raw));
                }
            }
            PackEvent::BinClosed { bin, at, .. } => {
                self.settle(*bin, *at);
                self.fleet_deltas.push((*at, -1));
                if let Some(st) = self.bins.remove(bin) {
                    let lifetime = (at - st.opened_at) as u128;
                    if lifetime > 0 {
                        let capacity_time = lifetime * u128::from(Size::SCALE);
                        let util = st.area_raw as f64 / capacity_time as f64;
                        let bucket = ((util * HIST_BUCKETS as f64) as usize).min(HIST_BUCKETS - 1);
                        self.histogram[bucket] += 1;
                        self.utilization_sum += util;
                        self.bins_closed += 1;
                    }
                }
            }
            PackEvent::BinFailed { bin, at, .. } => {
                // A failure ends the bin's fleet contribution like a close,
                // but the displaced level vanishes in one step (no
                // per-item LevelChanged events are emitted for it).
                self.settle(*bin, *at);
                self.fleet_deltas.push((*at, -1));
                self.bins_failed += 1;
                if let Some(st) = self.bins.remove(bin) {
                    self.total_level_raw -= u128::from(st.level_raw);
                    self.level_points.push((*at, self.total_level_raw));
                    let lifetime = (at - st.opened_at) as u128;
                    if lifetime > 0 {
                        let capacity_time = lifetime * u128::from(Size::SCALE);
                        let util = st.area_raw as f64 / capacity_time as f64;
                        let bucket = ((util * HIST_BUCKETS as f64) as usize).min(HIST_BUCKETS - 1);
                        self.histogram[bucket] += 1;
                        self.utilization_sum += util;
                        self.bins_closed += 1;
                    }
                }
            }
            PackEvent::ArrivalShed { .. } => self.arrivals_shed += 1,
            PackEvent::PlacementDecided { .. } | PackEvent::EstimateUsed { .. } => {}
        }
    }
}

/// The time-series metrics of one observed run.
#[derive(Clone, Debug)]
pub struct MetricsReport {
    /// Open bins over time; its integral is the total usage.
    pub active_bins: StepSeries,
    /// Total active level `S(t)` in units of bin capacity.
    pub total_level: Vec<(Time, f64)>,
    /// `⌈S(t)⌉` over time; its integral is LB3.
    pub ceil_level: StepSeries,
    /// Closed-bin utilization histogram over [`HIST_BUCKETS`] equal
    /// buckets of `[0, 1]`.
    pub utilization_histogram: [u32; HIST_BUCKETS],
    /// Mean utilization over closed bins (0 if none closed).
    pub mean_utilization: f64,
    /// Bins that closed with a positive lifetime (normal closes plus
    /// failures).
    pub bins_closed: u64,
    /// Items observed arriving.
    pub items_packed: u64,
    /// Bins killed by fault injection.
    pub bins_failed: u64,
    /// Arrivals shed by admission control.
    pub arrivals_shed: u64,
}

impl MetricsReport {
    /// The instantaneous competitive-ratio curve: active bins divided by
    /// `⌈S(t)⌉`, sampled at every change point of either series (skipping
    /// instants where `⌈S(t)⌉ = 0`).
    pub fn ratio_vs_lb3(&self) -> Vec<(Time, f64)> {
        self.change_points()
            .into_iter()
            .filter_map(|t| {
                let ceil = self.ceil_level.value_at(t);
                (ceil > 0).then(|| (t, self.active_bins.value_at(t) as f64 / ceil as f64))
            })
            .collect()
    }

    /// The usage the paper charges: ∫ active_bins dt.
    pub fn usage(&self) -> u128 {
        self.active_bins.integral().max(0) as u128
    }

    /// ∫⌈S(t)⌉dt — the LB3 lower bound recomputed from observed levels.
    pub fn lb3(&self) -> u128 {
        self.ceil_level.integral().max(0) as u128
    }

    /// All change points of the merged timeline, ascending.
    fn change_points(&self) -> Vec<Time> {
        let mut times: Vec<Time> = self
            .active_bins
            .points
            .iter()
            .map(|p| p.0)
            .chain(self.ceil_level.points.iter().map(|p| p.0))
            .chain(self.total_level.iter().map(|p| p.0))
            .collect();
        times.sort_unstable();
        times.dedup();
        times
    }

    /// Renders the merged timeline as CSV:
    /// `time,active_bins,total_level,ceil_level,ratio_vs_lb3` (ratio is
    /// empty where `⌈S(t)⌉ = 0`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time,active_bins,total_level,ceil_level,ratio_vs_lb3\n");
        let mut level = 0.0f64;
        let mut li = 0usize;
        for t in self.change_points() {
            while li < self.total_level.len() && self.total_level[li].0 <= t {
                level = self.total_level[li].1;
                li += 1;
            }
            let active = self.active_bins.value_at(t);
            let ceil = self.ceil_level.value_at(t);
            let ratio = if ceil > 0 {
                format!("{:.6}", active as f64 / ceil as f64)
            } else {
                String::new()
            };
            out.push_str(&format!("{t},{active},{level:.6},{ceil},{ratio}\n"));
        }
        out
    }

    /// `(time, active_bins)` as float points for plotting.
    pub fn active_points(&self) -> Vec<(f64, f64)> {
        self.active_bins
            .points
            .iter()
            .map(|&(t, v)| (t as f64, v as f64))
            .collect()
    }

    /// `(time, ⌈S(t)⌉)` as float points for plotting.
    pub fn ceil_points(&self) -> Vec<(f64, f64)> {
        self.ceil_level
            .points
            .iter()
            .map(|&(t, v)| (t as f64, v as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::observe::FitDecision;
    use dbp_core::ItemId;

    fn ev_open(bin: u32, at: Time) -> PackEvent {
        PackEvent::BinOpened {
            bin: BinId(bin),
            at,
            tag: 0,
        }
    }
    fn ev_level(bin: u32, at: Time, level: f64, open_bins: usize) -> PackEvent {
        PackEvent::LevelChanged {
            bin: BinId(bin),
            at,
            level: Size::from_f64(level),
            open_bins,
        }
    }
    fn ev_close(bin: u32, at: Time, opened_at: Time, items: usize) -> PackEvent {
        PackEvent::BinClosed {
            bin: BinId(bin),
            at,
            opened_at,
            items,
        }
    }
    fn ev_placed(id: u32, bin: u32) -> PackEvent {
        PackEvent::PlacementDecided {
            id: ItemId(id),
            bin: BinId(bin),
            fit_rule: FitDecision::OpenedNew,
            candidates_scanned: 0,
        }
    }

    /// One bin at half level over [0,10): S(t)=0.5, ⌈S⌉=1, 1 active bin.
    #[test]
    fn single_bin_metrics() {
        let mut agg = MetricsAggregator::new();
        for ev in [
            ev_open(0, 0),
            ev_placed(0, 0),
            ev_level(0, 0, 0.5, 1),
            ev_level(0, 10, 0.0, 0),
            ev_close(0, 10, 0, 1),
        ] {
            agg.on_event(&ev);
        }
        let rep = agg.report();
        assert_eq!(rep.usage(), 10);
        assert_eq!(rep.lb3(), 10);
        assert_eq!(rep.active_bins.max(), 1);
        assert_eq!(rep.ceil_level.max(), 1);
        assert_eq!(rep.bins_closed, 1);
        assert!((rep.mean_utilization - 0.5).abs() < 1e-9);
        assert_eq!(rep.utilization_histogram[5], 1);
        let ratios = rep.ratio_vs_lb3();
        assert!(ratios.iter().all(|&(_, r)| (r - 1.0).abs() < 1e-9));
    }

    /// Two half bins that could be one: ratio 2 while both are open.
    #[test]
    fn wasteful_packing_shows_ratio_two() {
        let mut agg = MetricsAggregator::new();
        for ev in [
            ev_open(0, 0),
            ev_placed(0, 0),
            ev_level(0, 0, 0.4, 1),
            ev_open(1, 0),
            ev_placed(1, 1),
            ev_level(1, 0, 0.4, 2),
            ev_level(0, 10, 0.0, 1),
            ev_close(0, 10, 0, 1),
            ev_level(1, 10, 0.0, 0),
            ev_close(1, 10, 0, 1),
        ] {
            agg.on_event(&ev);
        }
        let rep = agg.report();
        assert_eq!(rep.usage(), 20);
        assert_eq!(rep.lb3(), 10, "S(t)=0.8 ceils to one server");
        let r = rep.ratio_vs_lb3();
        assert_eq!(r.first().map(|&(t, _)| t), Some(0));
        assert!((r[0].1 - 2.0).abs() < 1e-9);
    }

    /// A failure drops the bin's whole level in one step and the fleet
    /// count with it; shed arrivals are counted.
    #[test]
    fn failure_and_shed_fold_into_metrics() {
        let mut agg = MetricsAggregator::new();
        for ev in [
            ev_open(0, 0),
            ev_placed(0, 0),
            ev_level(0, 0, 0.6, 1),
            PackEvent::BinFailed {
                bin: BinId(0),
                at: 4,
                opened_at: 0,
                displaced: 1,
                open_bins: 0,
            },
            PackEvent::ArrivalShed {
                id: ItemId(9),
                at: 5,
                open_bins: 0,
            },
        ] {
            agg.on_event(&ev);
        }
        let rep = agg.report();
        assert_eq!(rep.usage(), 4, "fleet contribution ends at the failure");
        assert_eq!(rep.bins_failed, 1);
        assert_eq!(rep.arrivals_shed, 1);
        assert_eq!(rep.active_bins.value_at(4), 0);
        assert_eq!(rep.ceil_level.value_at(4), 0, "displaced level vanishes");
        assert!((rep.mean_utilization - 0.6).abs() < 1e-6);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut agg = MetricsAggregator::new();
        for ev in [
            ev_open(0, 2),
            ev_placed(0, 0),
            ev_level(0, 2, 1.0, 1),
            ev_level(0, 7, 0.0, 0),
            ev_close(0, 7, 2, 1),
        ] {
            agg.on_event(&ev);
        }
        let csv = agg.report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "time,active_bins,total_level,ceil_level,ratio_vs_lb3"
        );
        assert!(lines[1].starts_with("2,1,1.000000,1,1.000000"), "{csv}");
        // Full utilization lands in the last histogram bucket.
        assert_eq!(agg.report().utilization_histogram[9], 1);
    }

    /// A report with one item in one bin over `[open_at, open_at + 10)`
    /// at `level`.
    fn one_bin_report(open_at: Time, level: f64) -> MetricsReport {
        let mut agg = MetricsAggregator::new();
        for ev in [
            PackEvent::ItemArrived {
                id: ItemId(0),
                size: Size::from_f64(level),
                at: open_at,
                departure: open_at + 10,
                visible_departure: Some(open_at + 10),
            },
            ev_open(0, open_at),
            ev_placed(0, 0),
            ev_level(0, open_at, level, 1),
            ev_level(0, open_at + 10, 0.0, 0),
            ev_close(0, open_at + 10, open_at, 1),
        ] {
            agg.on_event(&ev);
        }
        agg.report()
    }

    #[test]
    fn merge_step_series_handles_empty_and_single_part() {
        let merged = merge_step_series(&[]);
        assert!(merged.points.is_empty());
        assert_eq!(merged.integral(), 0);

        let only = StepSeries::from_deltas(vec![(0, 2), (5, -1), (9, -1)]);
        let merged = merge_step_series(std::slice::from_ref(&only));
        assert_eq!(merged.points, only.points, "identity on one part");

        // An empty part is a zero function: merging it in changes nothing.
        let with_empty = merge_step_series(&[only.clone(), StepSeries::default()]);
        assert_eq!(with_empty.points, only.points);
    }

    /// Parts with different numbers of breakpoints still sum pointwise:
    /// the merge walks all change points, not index-aligned pairs.
    #[test]
    fn merge_step_series_sums_mismatched_timelines_pointwise() {
        let long = StepSeries::from_deltas(vec![(0, 1), (2, 1), (4, -1), (6, -1)]);
        let short = StepSeries::from_deltas(vec![(3, 5), (10, -5)]);
        let merged = merge_step_series(&[long.clone(), short.clone()]);
        for t in 0..=11 {
            assert_eq!(
                merged.value_at(t),
                long.value_at(t) + short.value_at(t),
                "pointwise sum at t={t}"
            );
        }
        assert_eq!(merged.integral(), long.integral() + short.integral());
    }

    #[test]
    fn merge_reports_empty_is_a_zero_report() {
        let m = merge_reports(&[]);
        assert!(m.active_bins.points.is_empty());
        assert!(m.total_level.is_empty());
        assert!(m.ceil_level.points.is_empty());
        assert_eq!(m.utilization_histogram, [0u32; HIST_BUCKETS]);
        assert_eq!(m.mean_utilization, 0.0, "0, never NaN, with no bins");
        assert_eq!(m.bins_closed, 0);
        assert_eq!(m.items_packed, 0);
        assert_eq!(m.usage(), 0);
        assert_eq!(m.lb3(), 0);
        assert!(m.ratio_vs_lb3().is_empty());
    }

    #[test]
    fn merge_reports_single_part_is_identity() {
        let rep = one_bin_report(0, 0.5);
        let m = merge_reports(std::slice::from_ref(&rep));
        assert_eq!(m.active_bins.points, rep.active_bins.points);
        assert_eq!(m.total_level, rep.total_level);
        assert_eq!(m.ceil_level.points, rep.ceil_level.points);
        assert_eq!(m.utilization_histogram, rep.utilization_histogram);
        assert!((m.mean_utilization - rep.mean_utilization).abs() < 1e-12);
        assert_eq!(m.bins_closed, rep.bins_closed);
        assert_eq!(m.items_packed, rep.items_packed);
    }

    /// Shards whose timelines have different lengths and disjoint change
    /// points merge into pointwise sums and weighted scalar totals.
    #[test]
    fn merge_reports_with_mismatched_timelines() {
        let a = one_bin_report(0, 0.4); // changes at t=0 and t=10
        let b = one_bin_report(5, 0.8); // changes at t=5 and t=15
        let m = merge_reports(&[a.clone(), b.clone()]);
        assert_eq!(m.items_packed, 2);
        assert_eq!(m.bins_closed, 2);
        assert_eq!(m.usage(), a.usage() + b.usage());
        for t in [0, 4, 5, 9, 10, 14, 15] {
            assert_eq!(
                m.active_bins.value_at(t),
                a.active_bins.value_at(t) + b.active_bins.value_at(t)
            );
            assert_eq!(
                m.ceil_level.value_at(t),
                a.ceil_level.value_at(t) + b.ceil_level.value_at(t)
            );
        }
        // total_level on the overlap [5,10): 0.4 + 0.8.
        let level_at = |t: Time| {
            m.total_level
                .iter()
                .take_while(|&&(pt, _)| pt <= t)
                .last()
                .map(|&(_, v)| v)
                .unwrap_or(0.0)
        };
        // Size is 2⁻²⁴ fixed-point, so 0.4 and 0.8 round slightly: 1e-6
        // absorbs the quantization.
        assert!((level_at(7) - 1.2).abs() < 1e-6);
        assert!((level_at(12) - 0.8).abs() < 1e-6);
        // Per-shard ⌈Sᵢ⌉ sums can exceed the unsharded ceiling: 2 > ⌈1.2⌉.
        assert_eq!(m.ceil_level.value_at(7), 2);
        let expected_mean = (0.4 + 0.8) / 2.0;
        assert!((m.mean_utilization - expected_mean).abs() < 1e-6);
        let summed: Vec<u32> = a
            .utilization_histogram
            .iter()
            .zip(&b.utilization_histogram)
            .map(|(x, y)| x + y)
            .collect();
        assert_eq!(m.utilization_histogram.to_vec(), summed);
        assert_eq!(m.utilization_histogram.iter().sum::<u32>(), 2);
    }

    /// Every CSV row must reproduce the report's series values at that
    /// timestamp, and every change point must get a row.
    #[test]
    fn csv_rows_round_trip_the_report() {
        let a = one_bin_report(0, 0.4);
        let b = one_bin_report(5, 0.8);
        let rep = merge_reports(&[a, b]);
        let csv = rep.to_csv();
        let mut rows = 0usize;
        for line in csv.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 5, "malformed row: {line}");
            let t: Time = cols[0].parse().unwrap();
            let active: i64 = cols[1].parse().unwrap();
            let level: f64 = cols[2].parse().unwrap();
            let ceil: i64 = cols[3].parse().unwrap();
            assert_eq!(active, rep.active_bins.value_at(t));
            assert_eq!(ceil, rep.ceil_level.value_at(t));
            let expect_level = rep
                .total_level
                .iter()
                .take_while(|&&(pt, _)| pt <= t)
                .last()
                .map(|&(_, v)| v)
                .unwrap_or(0.0);
            assert!((level - expect_level).abs() < 1e-6, "level at t={t}");
            if ceil > 0 {
                let ratio: f64 = cols[4].parse().unwrap();
                assert!((ratio - active as f64 / ceil as f64).abs() < 1e-6);
            } else {
                assert!(cols[4].is_empty(), "ratio must be blank when ⌈S⌉=0");
            }
            rows += 1;
        }
        let mut expected_times: Vec<Time> = rep
            .active_bins
            .points
            .iter()
            .map(|p| p.0)
            .chain(rep.ceil_level.points.iter().map(|p| p.0))
            .chain(rep.total_level.iter().map(|p| p.0))
            .collect();
        expected_times.sort_unstable();
        expected_times.dedup();
        assert_eq!(rows, expected_times.len(), "one row per change point");
    }
}
