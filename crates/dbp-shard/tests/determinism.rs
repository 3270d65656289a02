//! The tentpole guarantee: a sharded run's merged result is bit-identical
//! for every worker-thread count, batch size, and OS schedule, and a
//! single-shard session is exactly a plain [`StreamingSession`].

use dbp_algos::online::{AnyFit, ClassifyByDepartureTime};
use dbp_core::observe::Tee;
use dbp_core::online::ClairvoyanceMode;
use dbp_core::{DbpError, Instance, Item, OnlinePacker, RunRecorder, Size, StreamingSession};
use dbp_obs::{Counters, MetricsAggregator, MetricsReport};
use dbp_shard::{ShardConfig, ShardReport, ShardRouter, ShardedSession};
use dbp_workloads::random::PoissonWorkload;
use dbp_workloads::Workload;

/// The workload every test in this file shares: ~4k Poisson arrivals.
fn instance() -> Instance {
    PoissonWorkload::new(2.0, 2000).generate_seeded(7)
}

/// `(delta, mu)` of an instance, the parameters the classify packers take.
fn duration_params(inst: &Instance) -> (i64, f64) {
    let durs: Vec<i64> = inst.items().iter().map(|it| it.duration()).collect();
    let min = durs.iter().copied().min().unwrap_or(1).max(1);
    let max = durs.iter().copied().max().unwrap_or(1).max(1);
    (min, max as f64 / min as f64)
}

fn make_packers(algo: &str, inst: &Instance, k: usize) -> Vec<Box<dyn OnlinePacker + Send>> {
    (0..k)
        .map(|_| match algo {
            "ff" => Box::new(AnyFit::first_fit()) as Box<dyn OnlinePacker + Send>,
            "bf" => Box::new(AnyFit::best_fit()),
            "cbdt" => {
                let (delta, mu) = duration_params(inst);
                Box::new(ClassifyByDepartureTime::with_known_durations(delta, mu))
            }
            other => panic!("unknown algo {other}"),
        })
        .collect()
}

fn run_sharded(
    inst: &Instance,
    algo: &str,
    k: usize,
    threads: Option<usize>,
    batch: usize,
) -> ShardReport {
    let cfg = ShardConfig {
        threads,
        batch,
        ..ShardConfig::new(k, ShardRouter::hash())
    };
    let mut fleet = ShardedSession::new(
        ClairvoyanceMode::Clairvoyant,
        make_packers(algo, inst, k),
        cfg,
    )
    .expect("session construction");
    for item in inst.items() {
        fleet.arrive(item).expect("arrive");
    }
    fleet.finish().expect("finish")
}

/// Field-by-field metrics equality (MetricsReport is not `Eq` because of
/// its f64 fields; determinism demands *exact* equality anyway).
fn assert_metrics_identical(a: &MetricsReport, b: &MetricsReport, ctx: &str) {
    assert_eq!(a.active_bins, b.active_bins, "{ctx}: active_bins");
    assert_eq!(a.ceil_level, b.ceil_level, "{ctx}: ceil_level");
    assert_eq!(a.total_level, b.total_level, "{ctx}: total_level");
    assert_eq!(
        a.utilization_histogram, b.utilization_histogram,
        "{ctx}: histogram"
    );
    assert!(
        a.mean_utilization == b.mean_utilization,
        "{ctx}: mean_utilization {} != {}",
        a.mean_utilization,
        b.mean_utilization
    );
    assert_eq!(a.bins_closed, b.bins_closed, "{ctx}: bins_closed");
    assert_eq!(a.items_packed, b.items_packed, "{ctx}: items_packed");
    assert_eq!(a.bins_failed, b.bins_failed, "{ctx}: bins_failed");
    assert_eq!(a.arrivals_shed, b.arrivals_shed, "{ctx}: arrivals_shed");
}

fn assert_reports_identical(a: &ShardReport, b: &ShardReport, ctx: &str) {
    assert_eq!(a.shards, b.shards, "{ctx}: shards");
    assert_eq!(a.items, b.items, "{ctx}: items");
    assert_eq!(a.usage, b.usage, "{ctx}: usage");
    assert_eq!(a.bins_opened, b.bins_opened, "{ctx}: bins_opened");
    assert_eq!(a.peak_open_bins, b.peak_open_bins, "{ctx}: peak");
    assert_eq!(a.counters, b.counters, "{ctx}: merged counters");
    match (&a.metrics, &b.metrics) {
        (Some(x), Some(y)) => assert_metrics_identical(x, y, ctx),
        (None, None) => {}
        _ => panic!("{ctx}: metrics presence differs"),
    }
    assert_eq!(a.slices.len(), b.slices.len(), "{ctx}: slice count");
    for (sa, sb) in a.slices.iter().zip(&b.slices) {
        let sctx = format!("{ctx}, shard {}", sa.shard);
        assert_eq!(sa.shard, sb.shard, "{sctx}: index");
        assert_eq!(sa.items, sb.items, "{sctx}: items");
        assert_eq!(sa.peak_open_bins, sb.peak_open_bins, "{sctx}: peak");
        // Per-shard counters carry real wall-clock timings; compare the
        // deterministic fields only.
        let (mut ca, mut cb) = (sa.counters, sb.counters);
        ca.decide_ns_total = 0;
        ca.decide_ns_max = 0;
        cb.decide_ns_total = 0;
        cb.decide_ns_max = 0;
        assert_eq!(ca, cb, "{sctx}: counters");
        assert_eq!(sa.run, sb.run, "{sctx}: run");
        match (&sa.metrics, &sb.metrics) {
            (Some(x), Some(y)) => assert_metrics_identical(x, y, &sctx),
            (None, None) => {}
            _ => panic!("{sctx}: metrics presence differs"),
        }
    }
}

#[test]
fn merged_results_identical_across_threads_and_batches() {
    let inst = instance();
    for algo in ["ff", "cbdt"] {
        for k in [1usize, 2, 8] {
            let baseline = run_sharded(&inst, algo, k, Some(1), 1);
            assert_eq!(baseline.items, inst.len() as u64);
            for threads in [Some(2), Some(3), Some(8), None] {
                for batch in [1usize, 7, 4096] {
                    let other = run_sharded(&inst, algo, k, threads, batch);
                    let ctx = format!("{algo} k={k} threads={threads:?} batch={batch}");
                    assert_reports_identical(&baseline, &other, &ctx);
                }
            }
        }
    }
}

#[test]
fn single_shard_matches_plain_streaming_session() {
    let inst = instance();
    for algo in ["ff", "bf", "cbdt"] {
        let report = run_sharded(&inst, algo, 1, Some(1), 64);
        let mut packer = make_packers(algo, &inst, 1).pop().unwrap();
        let obs = Tee(
            Tee(Counters::new(), MetricsAggregator::new()),
            RunRecorder::new(),
        );
        let mut session =
            StreamingSession::with_observer(ClairvoyanceMode::Clairvoyant, packer.as_mut(), obs);
        for item in inst.items() {
            session.arrive(item).expect("plain arrive");
        }
        let (totals, Tee(obs, history)) = session.finish_with_observer().expect("plain finish");
        let plain_run = history.into_run();
        let slice = &report.slices[0];
        assert_eq!(
            slice.run, plain_run,
            "{algo}: run differs from plain session"
        );
        assert_eq!(report.usage, plain_run.usage, "{algo}: usage");
        assert_eq!(report.usage, totals.usage, "{algo}: session usage");
        let mut plain_counters = obs.0.snapshot();
        let mut shard_counters = slice.counters;
        plain_counters.decide_ns_total = 0;
        plain_counters.decide_ns_max = 0;
        shard_counters.decide_ns_total = 0;
        shard_counters.decide_ns_max = 0;
        assert_eq!(shard_counters, plain_counters, "{algo}: counters");
        let plain_metrics = obs.1.report();
        assert_metrics_identical(
            report.metrics.as_ref().expect("metrics on"),
            &plain_metrics,
            &format!("{algo}: merged metrics vs plain"),
        );
    }
}

#[test]
fn every_router_yields_a_valid_exactly_once_partition() {
    let inst = instance();
    for router in [
        ShardRouter::hash(),
        ShardRouter::SeededHash { seed: 42 },
        ShardRouter::SizeClass,
        ShardRouter::TagAffinity { rho: 25 },
    ] {
        let cfg = ShardConfig {
            threads: Some(2),
            ..ShardConfig::new(4, router)
        };
        let mut fleet = ShardedSession::new(
            ClairvoyanceMode::Clairvoyant,
            make_packers("ff", &inst, 4),
            cfg,
        )
        .unwrap();
        for item in inst.items() {
            fleet.arrive(item).unwrap();
        }
        let report = fleet.finish().unwrap();
        let ctx = report.router.clone();
        // Exactly-once: every item of the instance appears in exactly one
        // shard, and the merged run validates against the full instance.
        assert_eq!(report.items, inst.len() as u64, "{ctx}: item count");
        let per_shard: u64 = report.slices.iter().map(|s| s.items).sum();
        assert_eq!(per_shard, report.items, "{ctx}: slice items sum");
        let merged = report.merged_run();
        merged
            .packing
            .validate(&inst)
            .expect("merged packing valid");
        assert_eq!(merged.usage, report.usage, "{ctx}: merged run usage");
        // The fleet timeline integrates to the total usage.
        assert_eq!(
            report.fleet_series().integral(),
            report.usage as i128,
            "{ctx}: fleet series integral"
        );
    }
}

#[test]
fn stream_contract_violations_match_plain_session_errors() {
    let mk = |id: u32, at: i64| Item::new(id, Size::from_f64(0.5), at, at + 10);
    // Out-of-order arrivals.
    let mut fleet = ShardedSession::new(
        ClairvoyanceMode::Clairvoyant,
        make_packers("ff", &instance(), 2),
        ShardConfig::new(2, ShardRouter::hash()),
    )
    .unwrap();
    fleet.arrive(&mk(0, 10)).unwrap();
    let err = fleet.arrive(&mk(1, 5)).unwrap_err();
    assert_eq!(
        err.to_string(),
        "bad online decision: arrivals must be non-decreasing: 5 after 10"
    );
    // Duplicate ids, including after watermark advance.
    let mut fleet = ShardedSession::new(
        ClairvoyanceMode::Clairvoyant,
        make_packers("ff", &instance(), 2),
        ShardConfig::new(2, ShardRouter::hash()),
    )
    .unwrap();
    fleet.arrive(&mk(0, 0)).unwrap();
    fleet.arrive(&mk(1, 1)).unwrap();
    assert_eq!(
        fleet.arrive(&mk(0, 2)),
        Err(DbpError::DuplicateItemId { id: 0 })
    );
}

#[test]
fn shard_errors_propagate_with_shard_context() {
    /// Claims a bin id that was never opened: the per-shard session must
    /// reject the decision and the coordinator must surface it.
    struct Rogue;
    impl OnlinePacker for Rogue {
        fn name(&self) -> String {
            "rogue".into()
        }
        fn place(
            &mut self,
            _: &dbp_core::online::ItemView,
            _: &dbp_core::OpenBins,
        ) -> dbp_core::online::Decision {
            dbp_core::online::Decision::Existing(dbp_core::BinId(9_999))
        }
    }
    let inst = instance();
    let packers: Vec<Box<dyn OnlinePacker + Send>> =
        vec![Box::new(AnyFit::first_fit()), Box::new(Rogue)];
    let mut fleet = ShardedSession::new(
        ClairvoyanceMode::Clairvoyant,
        packers,
        ShardConfig::new(2, ShardRouter::hash()),
    )
    .unwrap();
    let mut failed = None;
    for item in inst.items() {
        if let Err(e) = fleet.arrive(item) {
            failed = Some(e);
            break;
        }
    }
    let err = match failed {
        Some(e) => e,
        None => fleet.finish().expect_err("rogue packer must fail the run"),
    };
    let msg = err.to_string();
    assert!(
        msg.contains("shard 1"),
        "error must name the failing shard: {msg}"
    );
}

#[test]
fn arrive_after_worker_failure_errors_instead_of_panicking() {
    // Regression: `flush_inner` used to `.expect("sender live until
    // finish")` on the worker sender. After a failed flush joined the
    // worker (nulling its sender), the next flush-triggering `arrive`
    // panicked the coordinator instead of returning the recorded
    // shard-annotated error.
    struct Rogue;
    impl OnlinePacker for Rogue {
        fn name(&self) -> String {
            "rogue".into()
        }
        fn place(
            &mut self,
            _: &dbp_core::online::ItemView,
            _: &dbp_core::OpenBins,
        ) -> dbp_core::online::Decision {
            dbp_core::online::Decision::Existing(dbp_core::BinId(9_999))
        }
    }
    let mk = |id: u32, at: i64| Item::new(id, Size::from_f64(0.5), at, at + 10);
    let cfg = ShardConfig {
        threads: Some(1),
        batch: 1,
        ..ShardConfig::new(1, ShardRouter::hash())
    };
    let packers: Vec<Box<dyn OnlinePacker + Send>> = vec![Box::new(Rogue)];
    let mut fleet = ShardedSession::new(ClairvoyanceMode::Clairvoyant, packers, cfg).unwrap();
    // Strictly increasing arrivals with batch = 1: every arrive past the
    // first flushes the previous cohort, so the dead worker is hit soon
    // after it tears down.
    let mut first = None;
    for id in 0..200u32 {
        if let Err(e) = fleet.arrive(&mk(id, i64::from(id))) {
            first = Some((id, e));
            break;
        }
    }
    let (at, first_err) = first.expect("worker failure must surface through arrive");
    let msg = first_err.to_string();
    assert!(
        msg.contains("shard 0"),
        "error must name the failing shard: {msg}"
    );
    // Two more arrivals: pre-fix, the first buffers and the second
    // panics in `flush_inner`. Post-fix, both report the recorded error.
    for step in 1..=2u32 {
        let id = at + step;
        assert_eq!(
            fleet.arrive(&mk(id, i64::from(id))),
            Err(first_err.clone()),
            "arrive after a worker failure must keep returning the cause"
        );
    }
    // And finish() reports the cause too, not a missing-slices count.
    let fin = fleet.finish().expect_err("finish after a worker failure");
    assert_eq!(fin, first_err);
}

#[test]
fn dropped_session_reaps_workers_cleanly() {
    let inst = instance();
    let mut fleet = ShardedSession::new(
        ClairvoyanceMode::Clairvoyant,
        make_packers("ff", &inst, 4),
        ShardConfig::new(4, ShardRouter::hash()),
    )
    .unwrap();
    for item in inst.items().iter().take(100) {
        fleet.arrive(item).unwrap();
    }
    drop(fleet); // must not hang or leak threads
}

/// Runs the fleet with telemetry collection on.
fn run_telemetry(
    inst: &Instance,
    algo: &str,
    k: usize,
    threads: Option<usize>,
    batch: usize,
) -> ShardReport {
    let cfg = ShardConfig {
        threads,
        batch,
        collect_telemetry: true,
        ..ShardConfig::new(k, ShardRouter::hash())
    };
    let mut fleet = ShardedSession::new(
        ClairvoyanceMode::Clairvoyant,
        make_packers(algo, inst, k),
        cfg,
    )
    .expect("session construction");
    for item in inst.items() {
        fleet.arrive(item).expect("arrive");
    }
    fleet.finish().expect("finish")
}

#[test]
fn telemetry_work_histograms_identical_across_worker_counts() {
    let inst = instance();
    for algo in ["ff", "cbdt"] {
        for k in [1usize, 4] {
            let baseline = run_telemetry(&inst, algo, k, Some(1), 1);
            let base = baseline.telemetry.as_ref().expect("telemetry collected");
            assert!(base.work.candidates.count() > 0, "histograms populated");
            for threads in [Some(2), None] {
                for batch in [1usize, 4096] {
                    let other = run_telemetry(&inst, algo, k, threads, batch);
                    let tel = other.telemetry.as_ref().expect("telemetry collected");
                    let ctx = format!("{algo} k={k} threads={threads:?} batch={batch}");
                    assert_eq!(base.work, tel.work, "{ctx}: fleet work histograms");
                    for (sa, sb) in baseline.slices.iter().zip(&other.slices) {
                        let (ta, tb) = (
                            sa.telemetry.as_ref().expect("slice telemetry"),
                            sb.telemetry.as_ref().expect("slice telemetry"),
                        );
                        assert_eq!(ta.work, tb.work, "{ctx}: shard {} work", sa.shard);
                    }
                }
            }
        }
    }
}

#[test]
fn telemetry_spans_form_a_stitched_tree() {
    let inst = instance();
    let report = run_telemetry(&inst, "ff", 4, Some(2), 256);
    let tel = report.telemetry.as_ref().expect("telemetry collected");
    let spans = &tel.spans;
    let roots: Vec<_> = spans.iter().filter(|s| s.name == "stream").collect();
    assert_eq!(roots.len(), 1, "one root span");
    assert!(roots[0].dur_ns > 0, "root span closed");
    let flushes = spans.iter().filter(|s| s.name == "flush").count();
    assert!(flushes >= 1, "at least the final flush");
    let batches: Vec<_> = spans.iter().filter(|s| s.name == "batch").collect();
    assert!(!batches.is_empty(), "workers recorded batch spans");
    // Every batch span must have been reparented under a flush span
    // with the same sequence number.
    for b in &batches {
        let parent = b.parent.expect("batch spans reparented");
        let p = spans
            .iter()
            .find(|s| s.id == parent)
            .expect("parent exists");
        assert_eq!(p.name, "flush");
        assert_eq!(p.seq, b.seq, "stitched by sequence");
    }
    assert!(
        spans.iter().any(|s| s.name == "merge"),
        "merge span recorded"
    );
    assert!(
        batches.iter().all(|s| s.track >= 1),
        "worker spans on worker tracks"
    );
    // Run-side wall histograms exist for this run (never merged).
    assert!(tel.run_combined.batch_items.count() > 0);
    assert_eq!(
        tel.run_combined.merge_ns.count(),
        1,
        "exactly one merge timing"
    );
}
