//! Single-session profiling: run a stream under full telemetry and get
//! back histograms, counters, spans, and the finished run.
//!
//! [`profile_stream`] is what `dbp prof` calls: it drives a
//! [`StreamingSession`] over the items with a
//! [`Counters`] + [`TelemetryRecorder`] + [`RunRecorder`] tee attached, recording one span
//! per arrival batch under a root `stream` span plus a final `finish`
//! span. Because the packer and the item order are deterministic, the
//! [`Profile::telemetry`] *work* histograms are bit-identical across
//! repeated calls with the same inputs — the property
//! `dbp prof --self-test` asserts.

use crate::recorder::{TelemetryRecorder, TelemetrySnapshot};
use crate::span::{SpanCollector, SpanRecord, NO_SEQ};
use dbp_core::online::{ClairvoyanceMode, OnlinePacker, OnlineRun};
use dbp_core::stream::StreamingSession;
use dbp_core::{DbpError, Item, RunRecorder, Tee};
use dbp_obs::{Counters, CountersSnapshot};

/// Default items per arrival-batch span in [`profile_stream`].
pub const DEFAULT_PROFILE_BATCH: usize = 1024;

/// Everything a profiled run produced.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Scalar event counters.
    pub counters: CountersSnapshot,
    /// Work + run histograms.
    pub telemetry: TelemetrySnapshot,
    /// The span tree: a root `stream` span, one `batch` span per arrival
    /// chunk (seq = chunk index), and a `finish` span.
    pub spans: Vec<SpanRecord>,
    /// The finished run (same as an unprofiled session would produce).
    pub run: OnlineRun,
}

/// Runs `items` (already in arrival order) through a fresh
/// [`StreamingSession`] under profiling. `batch` items are grouped per
/// span (0 means [`DEFAULT_PROFILE_BATCH`]); `full_timing` times every
/// arrival instead of 1-in-64 — right for profiling, too heavy for
/// benchmarking.
pub fn profile_stream(
    mode: ClairvoyanceMode,
    packer: &mut dyn OnlinePacker,
    items: &[Item],
    batch: usize,
    full_timing: bool,
) -> Result<Profile, DbpError> {
    let batch = if batch == 0 {
        DEFAULT_PROFILE_BATCH
    } else {
        batch
    };
    let mut counters = Counters::new();
    let mut recorder = if full_timing {
        TelemetryRecorder::full_timing()
    } else {
        TelemetryRecorder::new()
    };
    let mut spans = SpanCollector::new();
    let root = spans.begin("stream", 0, None, NO_SEQ);
    let mut history = RunRecorder::new();
    {
        let mut session = StreamingSession::with_observer(
            mode,
            packer,
            Tee(&mut counters, Tee(&mut recorder, &mut history)),
        );
        for (seq, chunk) in items.chunks(batch).enumerate() {
            let started = spans.now_ns();
            for item in chunk {
                session.arrive(item)?;
            }
            spans.record_since("batch", 0, Some(root), seq as u64, started);
        }
        let started = spans.now_ns();
        session.finish()?;
        spans.record_since("finish", 0, Some(root), NO_SEQ, started);
    }
    spans.end(root);
    Ok(Profile {
        counters: counters.snapshot(),
        telemetry: recorder.snapshot(),
        spans: spans.into_spans(),
        run: history.into_run(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::online::{Decision, ItemView};
    use dbp_core::{OpenBins, Size};

    struct FirstFit;
    impl OnlinePacker for FirstFit {
        fn name(&self) -> String {
            "ff".into()
        }
        fn place(&mut self, item: &ItemView, open: &OpenBins) -> Decision {
            open.iter()
                .find(|b| b.fits(item.size))
                .map(|b| Decision::Existing(b.id()))
                .unwrap_or(Decision::NEW)
        }
    }

    fn items(n: u32) -> Vec<Item> {
        (0..n)
            .map(|k| Item::new(k, Size::from_f64(0.3), k as i64, k as i64 + 7))
            .collect()
    }

    #[test]
    fn profile_produces_spans_and_histograms() {
        let items = items(100);
        let mut packer = FirstFit;
        let p =
            profile_stream(ClairvoyanceMode::Clairvoyant, &mut packer, &items, 32, true).unwrap();
        assert_eq!(p.counters.items_packed, 100);
        // Work histograms stride 1-in-WORK_SAMPLE_INTERVAL placements:
        // ceil(100 / 16) = 7 samples.
        assert_eq!(p.telemetry.work.candidates.count(), 7);
        assert_eq!(p.telemetry.run.decide_ns.count(), 100, "full timing");
        let names: Vec<&str> = p.spans.iter().map(|s| s.name).collect();
        assert_eq!(names[0], "stream");
        assert_eq!(names.iter().filter(|n| **n == "batch").count(), 4, "100/32");
        assert_eq!(*names.last().unwrap(), "finish");
        assert!(p.spans[0].dur_ns > 0, "root span was closed");
        assert!(p.spans.iter().skip(1).all(|s| s.parent == Some(0)));
        assert!(p.run.usage > 0);
    }

    #[test]
    fn work_histograms_replay_bit_identical() {
        let items = items(500);
        let profiles: Vec<TelemetrySnapshot> = (0..2)
            .map(|_| {
                let mut packer = FirstFit;
                profile_stream(ClairvoyanceMode::Clairvoyant, &mut packer, &items, 0, false)
                    .unwrap()
                    .telemetry
            })
            .collect();
        assert_eq!(profiles[0].work, profiles[1].work, "replay must be exact");
    }
}
