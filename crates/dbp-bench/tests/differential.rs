//! Differential tests for the indexed streaming engine.
//!
//! Three independent paths must agree bit-for-bit on every instance, for
//! every algorithm in the online roster:
//!
//! 1. the batch engine ([`dbp_core::OnlineEngine::run`]),
//! 2. a hand-driven [`dbp_core::stream::StreamingSession`] fed one
//!    arrival at a time,
//! 3. the run reconstructed by `dbp-obs` replay from the observed event
//!    stream — an independent oracle that also re-validates the packing
//!    against the instance and recomputes usage from bin lifetimes.
//!
//! "Agree" means identical placements, identical total usage, and
//! identical per-bin lifetime records (id, opening/closing time, tag,
//! item list). A final test pits the indexed engine against the
//! seed-style linear-bookkeeping engine in [`dbp_bench::reference`] on a
//! run holding ~10k bins open at once: same results, and the indexed
//! engine must be strictly faster.

use dbp_bench::reference::{reference_next_fit, wide_fleet_instance};
use dbp_bench::registry::{online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_core::online::BinRecord;
use dbp_core::stream::StreamingSession;
use dbp_core::{ClairvoyanceMode, EventLog, Instance, OnlineEngine, OnlineRun, RunRecorder};
use dbp_obs::replay::replay_events;
use proptest::prelude::*;

/// Builds an instance from (size, arrival-gap, duration) triples:
/// arrivals are the gap prefix sums, so they are always non-decreasing.
fn instance_from_parts(parts: &[(f64, i64, i64)]) -> Instance {
    let mut t = 0i64;
    let triples: Vec<(f64, i64, i64)> = parts
        .iter()
        .map(|&(size, gap, dur)| {
            t += gap;
            (size, t, t + dur)
        })
        .collect();
    Instance::from_triples(&triples)
}

fn assert_records_eq(algo: &str, what: &str, a: &[BinRecord], b: &[BinRecord]) {
    assert_eq!(a.len(), b.len(), "{algo}: {what}: bin count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            (x.id, x.opened_at, x.closed_at, x.tag, &x.items),
            (y.id, y.opened_at, y.closed_at, y.tag, &y.items),
            "{algo}: {what}: bin lifetime record"
        );
    }
}

fn assert_runs_eq(algo: &str, what: &str, a: &OnlineRun, b: &OnlineRun) {
    assert_eq!(a.packing, b.packing, "{algo}: {what}: placements");
    assert_eq!(a.usage, b.usage, "{algo}: {what}: usage");
    assert_records_eq(algo, what, &a.bins, &b.bins);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batch run, hand-driven streaming session, and obs-trace replay
    /// produce bit-identical runs across the whole online roster.
    #[test]
    fn roster_is_identical_across_batch_stream_and_replay(
        parts in prop::collection::vec((0.05f64..0.95, 0i64..3, 1i64..50), 1..40)
    ) {
        let inst = instance_from_parts(&parts);
        let params = AlgoParams::from_instance(&inst);
        let engine = OnlineEngine::clairvoyant();
        for algo in ONLINE_ALGOS {
            let batch = engine
                .run(&inst, online_packer(algo, params).as_mut())
                .unwrap();
            prop_assert!(batch.packing.validate(&inst).is_ok());
            prop_assert_eq!(batch.usage, batch.packing.total_usage(&inst));

            let mut packer = online_packer(algo, params);
            let mut history = RunRecorder::new();
            let mut session = StreamingSession::with_observer(
                ClairvoyanceMode::Clairvoyant,
                packer.as_mut(),
                &mut history,
            );
            for item in inst.items() {
                session.arrive(item).unwrap();
            }
            let totals = session.finish().unwrap();
            prop_assert_eq!((totals.usage, totals.bins_opened), (batch.usage, batch.bins_opened()));
            assert_runs_eq(algo, "stream vs batch", &history.into_run(), &batch);

            let mut log = EventLog::new();
            let observed = engine
                .run_observed(&inst, online_packer(algo, params).as_mut(), &mut log)
                .unwrap();
            assert_runs_eq(algo, "observed vs batch", &observed, &batch);
            let replay = replay_events(&log.events).unwrap();
            replay.verify().unwrap();
            assert_runs_eq(algo, "replay vs batch", &replay.run, &batch);
        }
    }
}

/// The indexed engine agrees with the seed-style linear engine and beats
/// it on a run that holds ~10k bins open simultaneously. Next Fit's
/// decision is O(1), so the entire gap is engine bookkeeping: the linear
/// engine pays O(fleet) per close (`Vec` scan + shift) and O(history)
/// per record touch, the indexed engine O(1) for both.
#[test]
fn indexed_engine_beats_linear_engine_on_wide_fleets() {
    let inst = wide_fleet_instance(20_000);

    let t0 = std::time::Instant::now();
    let mut packer = dbp_algos::online::AnyFit::next_fit();
    let indexed = OnlineEngine::clairvoyant().run(&inst, &mut packer).unwrap();
    let indexed_elapsed = t0.elapsed();

    let t1 = std::time::Instant::now();
    let linear = reference_next_fit(&inst);
    let linear_elapsed = t1.elapsed();

    assert_eq!(indexed.bins_opened(), 10_000, "peak fleet is ~10k bins");
    assert_eq!(indexed.usage, linear.usage, "identical usage");
    for (rec, refbin) in indexed.bins.iter().zip(&linear.bins) {
        assert_eq!(rec.opened_at, refbin.opened_at);
        assert_eq!(rec.closed_at, refbin.closed_at);
        assert_eq!(rec.items, refbin.items);
    }
    assert!(
        indexed_elapsed < linear_elapsed,
        "indexed engine ({indexed_elapsed:?}) must beat the linear engine \
         ({linear_elapsed:?}) on a 10k-bin fleet"
    );
}
