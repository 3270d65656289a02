//! The telemetry observer: event stream → histograms, with a hard
//! determinism boundary.
//!
//! [`TelemetryRecorder`] implements [`PackObserver`] and sorts every
//! sample into one of two groups:
//!
//! - **Work metrics** ([`WorkMetrics`]) measure what the *algorithm* did —
//!   candidates scanned per placement, open-bin fleet size, items per bin,
//!   bin lifetimes. These are pure functions of the input stream, so two
//!   replays of the same seed produce bit-identical histograms and a
//!   sharded fleet's merge is independent of the worker count. They merge
//!   by summing.
//! - **Run metrics** ([`RunMetrics`]) measure where *wall-clock time*
//!   went — decide/departure/flush/merge/finish latency, plus batch sizes
//!   (whose composition depends on how many workers drained the stream).
//!   These vary run to run and are **zeroed** by
//!   [`TelemetrySnapshot::merged`]; read them per shard instead.
//!
//! Wall-clock sampling: reading `Instant::now()` twice per arrival costs
//! tens of nanoseconds — more than some packers spend deciding — so the
//! recorder implements [`PackObserver::wants_timing`] as a 1-in-N sampler
//! (default N = [`DEFAULT_TIMING_INTERVAL`]). It is the one source of
//! decision latency: the session hands each sampled arrival's `place`
//! time to [`PackObserver::on_op`] as [`OpKind::Decide`], and no event
//! carries a clock reading. Per-placement work
//! histograms stride deterministically — every
//! [`WORK_SAMPLE_INTERVAL`]-th placement, counted in placements, never
//! wall-clock — so they stay replay- and merge-bit-identical while the
//! off-stride hot path touches no histogram memory. Bin-close records
//! (items per bin, lifetime) stride the same way, counted in closes;
//! only server failures are always recorded.

use crate::hist::Histogram;
use dbp_core::observe::{OpKind, PackEvent, PackObserver};

/// Deterministic per-operation work histograms. Bit-identical across
/// replays of the same stream; merged by summing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkMetrics {
    /// Open bins inspected per placement decision (scan depth for
    /// reuses, rejection count for opens), strided: every
    /// [`WORK_SAMPLE_INTERVAL`]-th placement contributes a sample, so a
    /// session that packed `n` items holds exactly `ceil(n / 16)`
    /// samples — the audit invariant. The stride counts placements, not
    /// wall-clock, so the sampled subset is a pure function of the
    /// input stream: replays and re-sharded fleets are bit-identical.
    /// (Exact per-run totals live in `CountersSnapshot`; the histogram
    /// trades per-item exactness for a hot path that touches its cache
    /// lines once per stride.)
    pub candidates: Histogram,
    /// Fleet-size gauge: open-bin count at every
    /// [`WORK_SAMPLE_INTERVAL`]-th placement (taken from the
    /// `LevelChanged` the engine emits right after the sampled
    /// `PlacementDecided`). Deterministic for the same reason as
    /// [`WorkMetrics::candidates`]. Departure-side level changes are
    /// never sampled.
    pub open_bins: Histogram,
    /// Items a bin held over its lifetime, strided like
    /// [`WorkMetrics::candidates`]: every
    /// [`WORK_SAMPLE_INTERVAL`]-th close contributes a sample.
    /// (Churn-heavy strategies such as classify-by-departure-time close
    /// a bin for every fourth placement, so unsampled close records
    /// would dominate their observation cost.)
    pub bin_items: Histogram,
    /// Bin lifetime (close − open) in stream time ticks, on the same
    /// close stride as [`WorkMetrics::bin_items`]. Server *failures*
    /// are always recorded — they are rare and each one matters.
    pub bin_lifetime: Histogram,
}

impl WorkMetrics {
    /// Sums `parts` field by field. Order-independent.
    pub fn merged(parts: &[&WorkMetrics]) -> WorkMetrics {
        WorkMetrics {
            candidates: Histogram::merged(
                &parts
                    .iter()
                    .map(|p| p.candidates.clone())
                    .collect::<Vec<_>>(),
            ),
            open_bins: Histogram::merged(
                &parts
                    .iter()
                    .map(|p| p.open_bins.clone())
                    .collect::<Vec<_>>(),
            ),
            bin_items: Histogram::merged(
                &parts
                    .iter()
                    .map(|p| p.bin_items.clone())
                    .collect::<Vec<_>>(),
            ),
            bin_lifetime: Histogram::merged(
                &parts
                    .iter()
                    .map(|p| p.bin_lifetime.clone())
                    .collect::<Vec<_>>(),
            ),
        }
    }
}

/// Wall-clock (and otherwise run-specific) histograms. Never merged —
/// [`TelemetrySnapshot::merged`] replaces them with zeros.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Nanoseconds per sampled `place` call ([`OpKind::Decide`]), shed
    /// arrivals included.
    pub decide_ns: Histogram,
    /// Nanoseconds per sampled departure sweep ([`OpKind::Departures`]).
    pub depart_ns: Histogram,
    /// Nanoseconds per worker batch flush ([`OpKind::BatchFlush`]).
    pub batch_flush_ns: Histogram,
    /// Items per flushed batch. Run-side on purpose: batch composition
    /// depends on the worker count, so it would break merge determinism.
    pub batch_items: Histogram,
    /// Nanoseconds per slice merge ([`OpKind::Merge`]).
    pub merge_ns: Histogram,
    /// Nanoseconds of the final departure drain ([`OpKind::Finish`]).
    pub finish_ns: Histogram,
}

impl RunMetrics {
    /// Sums `parts` field by field — a *display* union of wall-clock
    /// histograms from concurrent shards/workers, NOT part of the
    /// deterministic merge (which zeroes run metrics): the parts overlap
    /// in time and their contents vary run to run. Use it to answer
    /// "what did decide latency look like across the whole fleet in this
    /// run", never for golden or differential comparisons.
    pub fn combined(parts: &[&RunMetrics]) -> RunMetrics {
        fn fold(parts: &[&RunMetrics], f: impl Fn(&RunMetrics) -> &Histogram) -> Histogram {
            Histogram::merged(&parts.iter().map(|p| f(p).clone()).collect::<Vec<_>>())
        }
        RunMetrics {
            decide_ns: fold(parts, |p| &p.decide_ns),
            depart_ns: fold(parts, |p| &p.depart_ns),
            batch_flush_ns: fold(parts, |p| &p.batch_flush_ns),
            batch_items: fold(parts, |p| &p.batch_items),
            merge_ns: fold(parts, |p| &p.merge_ns),
            finish_ns: fold(parts, |p| &p.finish_ns),
        }
    }
}

/// A point-in-time copy of a recorder's histograms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Deterministic work histograms.
    pub work: WorkMetrics,
    /// Wall-clock run histograms.
    pub run: RunMetrics,
}

impl TelemetrySnapshot {
    /// Folds `parts` into a fleet-wide snapshot: work histograms sum
    /// (order-independently), run histograms are **zeroed** — they are
    /// wall-clock and per-run, so summing them would mislead and break
    /// the bit-identical merge contract. Read per-shard run histograms
    /// from the individual snapshots.
    pub fn merged(parts: &[TelemetrySnapshot]) -> TelemetrySnapshot {
        let work_parts: Vec<&WorkMetrics> = parts.iter().map(|p| &p.work).collect();
        TelemetrySnapshot {
            work: WorkMetrics::merged(&work_parts),
            run: RunMetrics::default(),
        }
    }
}

/// Default timing sample interval: one arrival in 64 gets clock reads.
///
/// A clock read costs ~30–100ns — several times what a cheap packer
/// spends deciding — so the rate is set where the residual cost
/// disappears into run-to-run noise (~1–2ns/item) while a million-item
/// run still collects ~15k latency samples, plenty for stable
/// percentiles. `dbp prof` uses [`TelemetryRecorder::full_timing`] when
/// accuracy matters more than overhead.
pub const DEFAULT_TIMING_INTERVAL: u32 = 64;

/// Stride, in placements, of the per-placement work histograms
/// ([`WorkMetrics::candidates`] and [`WorkMetrics::open_bins`]): every
/// 16th placement is sampled. Deterministic — the stride counts
/// placements, not wall-clock ticks — so the work half of the snapshot
/// keeps its replay/merge bit-identity contract.
pub const WORK_SAMPLE_INTERVAL: u32 = 16;

/// The histogram-recording [`PackObserver`].
#[derive(Clone, Debug)]
pub struct TelemetryRecorder {
    snap: TelemetrySnapshot,
    /// `wants_timing` returns true when `tick % interval == 0`.
    interval: u32,
    tick: u32,
    /// Countdown for the per-placement work stride (see
    /// [`WorkMetrics::candidates`]).
    gauge_tick: u32,
    /// Countdown for the bin-close stride (see
    /// [`WorkMetrics::bin_items`]).
    close_tick: u32,
    /// Set by every [`WORK_SAMPLE_INTERVAL`]-th `PlacementDecided`,
    /// consumed by the next `LevelChanged` (which the engine emits
    /// immediately after): that event's fleet size lands in the gauge.
    at_placement: bool,
}

impl Default for TelemetryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryRecorder {
    /// A recorder that times one arrival in [`DEFAULT_TIMING_INTERVAL`]
    /// (64); its work histograms sample one placement or close in
    /// [`WORK_SAMPLE_INTERVAL`] (16).
    pub fn new() -> Self {
        Self::with_timing_interval(DEFAULT_TIMING_INTERVAL)
    }

    /// A recorder that times every arrival — for `dbp prof`, where
    /// accurate latency percentiles matter more than overhead.
    pub fn full_timing() -> Self {
        Self::with_timing_interval(1)
    }

    /// A recorder timing one arrival in `interval` (0 is treated as 1).
    pub fn with_timing_interval(interval: u32) -> Self {
        TelemetryRecorder {
            snap: TelemetrySnapshot::default(),
            interval: interval.max(1),
            tick: 0,
            gauge_tick: 0,
            close_tick: 0,
            at_placement: false,
        }
    }

    /// The histograms so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.snap.clone()
    }

    /// Consumes the recorder, returning its histograms.
    pub fn into_snapshot(self) -> TelemetrySnapshot {
        self.snap
    }

    /// Records a flushed batch: its wall-clock duration and item count.
    /// Both land in [`RunMetrics`] — batch composition is scheduling- and
    /// worker-count-dependent.
    pub fn record_batch(&mut self, items: u64, ns: u64) {
        self.snap.run.batch_items.record(items);
        self.snap.run.batch_flush_ns.record(ns);
    }

    /// Records one coarse operation duration (same mapping as
    /// [`PackObserver::on_op`], callable outside a session).
    pub fn record_op(&mut self, op: OpKind, ns: u64) {
        match op {
            OpKind::Decide => self.snap.run.decide_ns.record(ns),
            OpKind::Departures => self.snap.run.depart_ns.record(ns),
            OpKind::BatchFlush => self.snap.run.batch_flush_ns.record(ns),
            OpKind::Merge => self.snap.run.merge_ns.record(ns),
            OpKind::Finish => self.snap.run.finish_ns.record(ns),
        }
    }
}

impl PackObserver for TelemetryRecorder {
    #[inline]
    fn on_event(&mut self, event: &PackEvent) {
        match event {
            PackEvent::PlacementDecided {
                candidates_scanned, ..
            } => {
                // Deterministic work stride: every
                // WORK_SAMPLE_INTERVAL-th placement records its scan
                // depth and flags the LevelChanged the engine emits
                // next to record the fleet size. Off-stride placements
                // touch no histogram memory at all — that cache
                // traffic, not arithmetic, is the recorder's hot-path
                // cost.
                if self.gauge_tick == 0 {
                    self.snap.work.candidates.record(*candidates_scanned as u64);
                    self.at_placement = true;
                }
                self.gauge_tick += 1;
                if self.gauge_tick >= WORK_SAMPLE_INTERVAL {
                    self.gauge_tick = 0;
                }
            }
            // Consumes the gauge flag set by a sampled placement;
            // departure-side level changes never carry the flag.
            PackEvent::LevelChanged { open_bins, .. } if self.at_placement => {
                self.at_placement = false;
                self.snap.work.open_bins.record(*open_bins as u64);
            }
            PackEvent::BinClosed {
                at,
                opened_at,
                items,
                ..
            } => {
                // Same deterministic stride as the placement records —
                // counted in closes, so replay/merge bit-identity holds.
                if self.close_tick == 0 {
                    self.snap.work.bin_items.record(*items as u64);
                    self.snap
                        .work
                        .bin_lifetime
                        .record(at.saturating_sub(*opened_at).max(0) as u64);
                }
                self.close_tick += 1;
                if self.close_tick >= WORK_SAMPLE_INTERVAL {
                    self.close_tick = 0;
                }
            }
            PackEvent::BinFailed { at, opened_at, .. } => {
                self.snap
                    .work
                    .bin_lifetime
                    .record(at.saturating_sub(*opened_at).max(0) as u64);
            }
            _ => {}
        }
    }

    #[inline]
    fn wants_timing(&mut self) -> bool {
        let hit = self.tick == 0;
        self.tick += 1;
        if self.tick >= self.interval {
            self.tick = 0;
        }
        hit
    }

    #[inline]
    fn on_op(&mut self, op: OpKind, ns: u64) {
        self.record_op(op, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::{BinId, FitDecision, ItemId};

    fn placement(candidates: usize) -> PackEvent {
        PackEvent::PlacementDecided {
            id: ItemId(0),
            bin: BinId(0),
            fit_rule: FitDecision::Reused,
            candidates_scanned: candidates,
        }
    }

    #[test]
    fn events_land_in_the_right_histograms() {
        let mut r = TelemetryRecorder::new();
        // Placement 1 is on-stride (the stride starts at the first
        // placement): its scan depth is recorded and the LevelChanged
        // that follows lands in the fleet gauge.
        r.on_event(&placement(3));
        r.on_event(&PackEvent::LevelChanged {
            bin: BinId(0),
            at: 1,
            level: dbp_core::Size::HALF,
            open_bins: 7,
        });
        // Placement 2 is off-stride: no candidates sample, no gauge
        // flag.
        r.on_event(&placement(1));
        r.on_event(&PackEvent::LevelChanged {
            bin: BinId(0),
            at: 1,
            level: dbp_core::Size::HALF,
            open_bins: 8,
        });
        r.on_event(&PackEvent::BinClosed {
            bin: BinId(0),
            at: 25,
            opened_at: 5,
            items: 4,
        });
        r.on_event(&PackEvent::BinFailed {
            bin: BinId(1),
            at: 9,
            opened_at: 9,
            displaced: 2,
            open_bins: 0,
        });
        // A second, departure-side LevelChanged (no placement preceding
        // it) must NOT land in the fleet-size histogram.
        r.on_event(&PackEvent::LevelChanged {
            bin: BinId(0),
            at: 2,
            level: dbp_core::Size::ZERO,
            open_bins: 99,
        });
        let s = r.snapshot();
        assert_eq!(s.work.candidates.count(), 1, "1-in-16 placement stride");
        assert_eq!(s.work.candidates.sum(), 3);
        assert_eq!(s.run.decide_ns.count(), 0, "events carry no time");
        assert_eq!(s.work.open_bins.count(), 1, "sampled placements only");
        assert_eq!(s.work.open_bins.max(), 7);
        assert_eq!(s.work.bin_items.sum(), 4);
        assert_eq!(s.work.bin_lifetime.count(), 2, "failure counts too");
        assert_eq!(s.work.bin_lifetime.sum(), 20);
    }

    #[test]
    fn work_stride_samples_every_sixteenth_placement() {
        let mut r = TelemetryRecorder::new();
        for i in 0..33u64 {
            r.on_event(&placement(i as usize));
        }
        let s = r.snapshot();
        // Placements 0, 16 and 32 (0-indexed) are on-stride.
        assert_eq!(s.work.candidates.count(), 3);
        assert_eq!(s.work.candidates.sum(), 16 + 32, "samples 0, 16, 32");
        // ceil(n / WORK_SAMPLE_INTERVAL) — the audit's sample-count
        // formula.
        assert_eq!(
            s.work.candidates.count(),
            33u64.div_ceil(WORK_SAMPLE_INTERVAL as u64)
        );
    }

    #[test]
    fn timing_sampler_fires_one_in_interval() {
        let mut r = TelemetryRecorder::with_timing_interval(4);
        let fired: Vec<bool> = (0..9).map(|_| r.wants_timing()).collect();
        assert_eq!(
            fired,
            vec![true, false, false, false, true, false, false, false, true]
        );
        let mut full = TelemetryRecorder::full_timing();
        assert!((0..5).all(|_| full.wants_timing()));
    }

    /// The session hands the recorder one `Decide` sample per sampled
    /// arrival, shed arrivals included: `ceil(n / interval)` in all.
    #[test]
    fn sampled_decides_count_shed_arrivals() {
        use dbp_algos::online::AnyFit;
        use dbp_core::{Admission, ClairvoyanceMode, Item, Size, StreamingSession, Tee};
        use dbp_obs::Counters;
        let n = 50u32;
        let mut recorder = TelemetryRecorder::with_timing_interval(4);
        let mut counters = Counters::new();
        let mut packer = AnyFit::first_fit();
        let mut session = StreamingSession::with_observer(
            ClairvoyanceMode::Clairvoyant,
            &mut packer,
            Tee(&mut counters, &mut recorder),
        );
        let mut shed = 0;
        for k in 0..n {
            let at = i64::from(k);
            let item = Item::new(k, Size::from_f64(0.6), at, at + 3);
            shed += u64::from(session.arrive_capped(&item, 2).unwrap() == Admission::Shed);
        }
        session.finish().unwrap();
        let c = counters.snapshot();
        assert!(shed > 0 && c.items_packed > 0, "{shed} shed, {c:?}");
        assert_eq!(c.arrivals_shed, shed);
        let decides = recorder.snapshot().run.decide_ns.count();
        assert_eq!(decides, u64::from(n.div_ceil(4)));
    }

    #[test]
    fn ops_route_by_kind() {
        let mut r = TelemetryRecorder::new();
        r.on_op(OpKind::Decide, 5);
        r.on_op(OpKind::Departures, 10);
        r.on_op(OpKind::Finish, 20);
        r.on_op(OpKind::Merge, 30);
        r.on_op(OpKind::BatchFlush, 40);
        r.record_batch(256, 50);
        let s = r.snapshot();
        assert_eq!(s.run.decide_ns.sum(), 5);
        assert_eq!(s.run.depart_ns.sum(), 10);
        assert_eq!(s.run.finish_ns.sum(), 20);
        assert_eq!(s.run.merge_ns.sum(), 30);
        assert_eq!(s.run.batch_flush_ns.sum(), 40 + 50);
        assert_eq!(s.run.batch_items.sum(), 256);
    }

    #[test]
    fn merged_sums_work_and_zeroes_run() {
        let mut a = TelemetryRecorder::new();
        a.on_event(&placement(2));
        a.on_op(OpKind::Decide, 100);
        a.on_op(OpKind::Finish, 99);
        let mut b = TelemetryRecorder::new();
        b.on_event(&placement(5));
        b.on_op(OpKind::Decide, 200);
        let m = TelemetrySnapshot::merged(&[a.snapshot(), b.snapshot()]);
        assert_eq!(m.work.candidates.count(), 2);
        assert_eq!(m.work.candidates.sum(), 7);
        assert_eq!(m.run, RunMetrics::default(), "wall-clock zeroed");
        let flipped = TelemetrySnapshot::merged(&[b.snapshot(), a.snapshot()]);
        assert_eq!(m, flipped, "merge is order-independent");
        assert_eq!(
            TelemetrySnapshot::merged(&[]),
            TelemetrySnapshot::default(),
            "empty merge is the empty snapshot"
        );
    }
}
