//! Per-shard result slices and the fleet-wide merged report.
//!
//! Everything here is a *fold in shard-index order* over data each
//! worker produced independently, which is what makes the merge
//! bit-identical across worker counts: no floating-point sum ever
//! depends on thread scheduling, only on the fixed shard order.

use crate::session::ShardConfig;
use dbp_core::observe::PackEvent;
use dbp_core::online::BinRecord;
use dbp_core::stats::StepSeries;
use dbp_core::{BinId, OnlineRun, Packing};
use dbp_obs::{merge_reports, merge_step_series, CountersSnapshot, MetricsReport};
use dbp_telemetry::{RunMetrics, SpanRecord, TelemetrySnapshot, WorkMetrics};

/// One shard's complete result: the run of its private
/// [`dbp_core::stream::StreamingSession`] plus its observer state.
#[derive(Clone, Debug)]
pub struct ShardSlice {
    /// The shard index in `0..K`.
    pub shard: usize,
    /// Items this shard received.
    pub items: u64,
    /// Peak concurrently-open bins inside this shard.
    pub peak_open_bins: usize,
    /// Event counters of this shard alone.
    pub counters: CountersSnapshot,
    /// Metrics timelines, when `collect_metrics` was on.
    pub metrics: Option<MetricsReport>,
    /// The raw event stream, when `collect_events` was on.
    pub events: Option<Vec<PackEvent>>,
    /// Telemetry histograms, when `collect_telemetry` was on. The `work`
    /// half is a pure function of this shard's sub-stream; the `run`
    /// half is this shard's wall clock.
    pub telemetry: Option<TelemetrySnapshot>,
    /// The shard's finished run over its sub-stream.
    pub run: OnlineRun,
}

impl ShardSlice {
    /// Total usage time of this shard's bins, in ticks.
    pub fn usage(&self) -> u128 {
        self.run.usage
    }
}

/// The merged outcome of a [`crate::ShardedSession`].
///
/// Additive quantities (usage, items, bins, counters, histograms) are
/// exact fleet-wide totals. The merged `ceil_level` metric is
/// `Σᵢ ⌈Sᵢ(t)⌉` — the sharded fleet's own lower bound, which is ≥ the
/// unsharded `⌈S(t)⌉`; the gap between the two is precisely the
/// packing-quality price of partitioning the stream.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard count K.
    pub shards: usize,
    /// Router display name (round-trippable through
    /// [`crate::ShardRouter::parse`]).
    pub router: String,
    /// Worker threads the session actually used.
    pub workers: usize,
    /// Total items streamed.
    pub items: u64,
    /// Fleet-wide total usage time in ticks (Σ per-shard usage).
    pub usage: u128,
    /// Total bins opened across all shards.
    pub bins_opened: u64,
    /// Peak *fleet-wide* concurrently-open bins (max of the merged
    /// open-server timeline, not the sum of per-shard peaks).
    pub peak_open_bins: usize,
    /// Fleet-wide counters ([`CountersSnapshot::merged`]: the sum of the
    /// shards').
    pub counters: CountersSnapshot,
    /// Merged metrics timelines, when every shard collected them.
    pub metrics: Option<MetricsReport>,
    /// Fleet-wide telemetry, when the session ran with
    /// `collect_telemetry` (the coordinator attaches it in `finish`).
    pub telemetry: Option<FleetTelemetry>,
    /// The per-shard slices, in shard-index order.
    pub slices: Vec<ShardSlice>,
}

/// Fleet-wide telemetry assembled by [`crate::ShardedSession::finish`].
#[derive(Clone, Debug)]
pub struct FleetTelemetry {
    /// Deterministic work histograms, folded over slices in shard-index
    /// order: bit-identical for every worker count and schedule, like
    /// the rest of the merged report.
    pub work: WorkMetrics,
    /// Display-only union of every shard's and worker's wall-clock
    /// histograms plus the coordinator's merge timing
    /// ([`RunMetrics::combined`] semantics: this run only, never compare
    /// across runs or feed into golden state).
    pub run_combined: RunMetrics,
    /// The stitched span tree: coordinator `stream`/`flush`/`merge`
    /// spans on track 0, worker `batch` spans on track `w + 1`
    /// reparented under their flush by sequence number.
    pub spans: Vec<SpanRecord>,
}

impl ShardReport {
    /// Folds sorted slices into the fleet report. `slices` must already
    /// be complete and in shard-index order.
    pub(crate) fn merge(
        cfg: &ShardConfig,
        workers: usize,
        items: u64,
        slices: Vec<ShardSlice>,
    ) -> ShardReport {
        debug_assert!(slices.windows(2).all(|w| w[0].shard < w[1].shard));
        let usage = slices.iter().map(|s| s.run.usage).sum();
        let bins_opened = slices.iter().map(|s| s.run.bins_opened() as u64).sum();
        let counter_parts: Vec<CountersSnapshot> = slices.iter().map(|s| s.counters).collect();
        let counters = CountersSnapshot::merged(&counter_parts);
        let metrics = if slices.iter().all(|s| s.metrics.is_some()) {
            let parts: Vec<MetricsReport> = slices
                .iter()
                .map(|s| s.metrics.clone().expect("checked above"))
                .collect();
            Some(merge_reports(&parts))
        } else {
            None
        };
        let fleet: Vec<StepSeries> = slices.iter().map(|s| s.run.fleet_series()).collect();
        let peak_open_bins = merge_step_series(&fleet).max().max(0) as usize;
        ShardReport {
            shards: cfg.shards,
            router: cfg.router.name(),
            workers,
            items,
            usage,
            bins_opened,
            peak_open_bins,
            counters,
            metrics,
            // Spans and merge timing live on the coordinator; the session
            // attaches the assembled FleetTelemetry after merging.
            telemetry: None,
            slices,
        }
    }

    /// The fleet-wide open-server timeline: the pointwise sum of every
    /// shard's [`OnlineRun::fleet_series`]. Its integral equals
    /// [`ShardReport::usage`] and its max is
    /// [`ShardReport::peak_open_bins`].
    pub fn fleet_series(&self) -> StepSeries {
        let parts: Vec<StepSeries> = self.slices.iter().map(|s| s.run.fleet_series()).collect();
        merge_step_series(&parts)
    }

    /// Stitches the per-shard runs into one [`OnlineRun`] over the
    /// original instance, renumbering bins shard by shard (shard 0's
    /// bins first, then shard 1's, …). Item ids are untouched — each
    /// shard packed the original items — so the merged packing validates
    /// directly against the full instance, which is how the audit family
    /// runs its capacity sweep on a sharded run.
    pub fn merged_run(&self) -> OnlineRun {
        let total_bins: usize = self.slices.iter().map(|s| s.run.bins_opened()).sum();
        let mut bins_items = Vec::with_capacity(total_bins);
        let mut records: Vec<BinRecord> = Vec::with_capacity(total_bins);
        for slice in &self.slices {
            for r in &slice.run.bins {
                let id = BinId(records.len() as u32);
                bins_items.push(r.items.clone());
                records.push(BinRecord {
                    id,
                    opened_at: r.opened_at,
                    closed_at: r.closed_at,
                    tag: r.tag,
                    items: r.items.clone(),
                });
            }
        }
        OnlineRun {
            packing: Packing::from_bins(bins_items),
            usage: self.usage,
            bins: records,
        }
    }

    /// Serializes every shard's captured event stream as shard-tagged
    /// JSONL (see [`dbp_obs::trace::events_to_jsonl_tagged`]), shard 0
    /// first. `None` unless the session ran with `collect_events`.
    pub fn tagged_jsonl(&self) -> Option<String> {
        if !self.slices.iter().all(|s| s.events.is_some()) {
            return None;
        }
        let mut out = String::new();
        for slice in &self.slices {
            let events = slice.events.as_ref().expect("checked above");
            out.push_str(&dbp_obs::trace::events_to_jsonl_tagged(slice.shard, events));
        }
        Some(out)
    }

    /// Mean items per shard and the max/mean load imbalance factor of
    /// the router's deal (1.0 = perfectly even).
    pub fn balance(&self) -> (f64, f64) {
        if self.slices.is_empty() || self.items == 0 {
            return (0.0, 1.0);
        }
        let mean = self.items as f64 / self.slices.len() as f64;
        let max = self.slices.iter().map(|s| s.items).max().unwrap_or(0) as f64;
        (mean, max / mean)
    }
}
