//! Observability tour — decision traces, replay, and time-series metrics.
//!
//! Runs two schedulers over a cloud-gaming trace with the full observer
//! stack attached: a JSONL decision trace ([`TraceWriter`]), the
//! time-series aggregator ([`MetricsAggregator`]), and run counters. The
//! metrics sparklines show the active-bin curve against `⌈S(t)⌉` — the
//! integrand of the paper's LB3 bound — so the vertical gap between the
//! two *is* the money wasted at that instant. The captured trace is then
//! replayed and must reconstruct the packing bit-for-bit.
//!
//! Run with `cargo run --release --example metrics_timeline`.

use clairvoyant_dbp::core::stats::StepSeries;
use clairvoyant_dbp::obs::Counters;
use clairvoyant_dbp::prelude::*;
use clairvoyant_dbp::workloads::scenarios::CloudGamingWorkload;

fn sparkline(series: &StepSeries, start: i64, end: i64, width: usize, max: i64) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = max.max(1);
    (0..width)
        .map(|i| {
            let t = start + (end - start) * i as i64 / width as i64;
            let v = series.value_at(t);
            BARS[(v * 7 / max).clamp(0, 7) as usize]
        })
        .collect()
}

fn main() {
    let trace = CloudGamingWorkload::new(600, 12_000).generate_seeded(9);
    let (start, end) = (
        trace.first_arrival().unwrap(),
        trace.last_departure().unwrap(),
    );
    let lb = lower_bounds(&trace);
    println!(
        "cloud-gaming trace: {} sessions over {} ticks, LB3 = {} server-ticks\n",
        trace.len(),
        end - start,
        lb.lb3
    );

    let engine = OnlineEngine::clairvoyant();
    let mut packers: Vec<Box<dyn OnlinePacker>> = vec![
        Box::new(AnyFit::first_fit()),
        Box::new(ClassifyByDepartureTime::with_known_durations(
            trace.min_duration().unwrap(),
            trace.mu().unwrap(),
        )),
    ];
    let out_dir = std::env::temp_dir().join("dbp-metrics");
    std::fs::create_dir_all(&out_dir).expect("mkdir");

    for p in packers.iter_mut() {
        // Tee composes observers; each stays monomorphized (no dyn cost).
        let mut obs = Tee(
            TraceWriter::new(Vec::new()),
            Tee(MetricsAggregator::new(), Counters::new()),
        );
        let run = engine
            .run_observed(&trace, p.as_mut(), &mut obs)
            .expect("run");
        run.packing.validate(&trace).expect("valid");
        let Tee(writer, Tee(agg, counters)) = obs;
        let report = agg.report();

        // The observed timeline integrates to exactly the usage charged,
        // and the observed ⌈S(t)⌉ integrates to exactly LB3.
        assert_eq!(report.usage(), run.usage);
        assert_eq!(report.lb3(), lb.lb3);

        // Replay the JSONL trace: the reconstruction is bit-for-bit.
        let jsonl = String::from_utf8(writer.finish().expect("flush")).expect("utf8");
        let replay = clairvoyant_dbp::obs::replay_jsonl(&jsonl).expect("replay");
        replay.verify().expect("replay verifies");
        assert_eq!(replay.run.usage, run.usage);
        assert_eq!(replay.run.packing, run.packing);

        let scale = report.active_bins.max();
        println!("{}", p.name());
        println!(
            "  servers {}",
            sparkline(&report.active_bins, start, end, 60, scale)
        );
        println!(
            "  ⌈S(t)⌉  {}",
            sparkline(&report.ceil_level, start, end, 60, scale)
        );
        let c = counters.snapshot();
        println!(
            "  usage {} (ratio {:.3} vs LB3)  peak {} servers  mean util {:.1}%",
            run.usage,
            run.usage as f64 / lb.lb3.max(1) as f64,
            report.active_bins.max(),
            report.mean_utilization * 100.0
        );
        println!(
            "  {} placements: {:.0}% reused, mean scan {:.2} bins",
            c.items_packed,
            c.reuse_fraction() * 100.0,
            c.mean_candidates()
        );
        let csv_path = out_dir.join(format!(
            "{}.csv",
            p.name().replace(['(', ')', '=', ','], "_")
        ));
        std::fs::write(&csv_path, report.to_csv()).expect("write csv");
        println!(
            "  replayed {} events bit-for-bit; csv: {}\n",
            jsonl.lines().count(),
            csv_path.display()
        );
    }
    println!(
        "(both fleets chase the same ⌈S(t)⌉ floor; the classified fleet\n hugs it tighter — that gap is what Theorem 4 bounds)"
    );
}
