//! The untraced run of a `serve-*` workload: every end-to-end number
//! comes from here.
//!
//! A fresh `dbp serve` is booted for each phase:
//!
//! 1. a discarded warm-up (page cache, binary, allocator);
//! 2. extra cold boots, so `setup_s` is a median;
//! 3. phase A, an open loop timed from each request's due time;
//! 4. phase B, a closed loop with 16 requests in flight, for throughput,
//!    server CPU per request and peak RSS;
//! 5. seven `kill -9` + restarts of phase B's server on its own state,
//!    for `recovery_s`.

use crate::check::{check_packing, digest};
use crate::client::{drive, request_lines, LoopResult, Pace};
use crate::host::{Host, ScratchDir};
use crate::report::Report;
use crate::server::{prom_mean, serve_args, Server};
use crate::spec::{serve_stream, Scale, ServeSpec};
use crate::stats::{beyond, median, percentile};
use std::path::Path;

/// Requests in flight in every closed loop.
pub const WINDOW: usize = 16;
/// Boots beyond the ones the phases need, for a steadier `setup_s`.
const EXTRA_BOOTS: usize = 8;
/// `kill -9` + restart cycles per run.
const RESTARTS: usize = 7;

/// Sorted copy.
fn sorted(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

/// Prints a latency summary: p50, p99 and p99.9 with the number of
/// samples beyond each tail.
pub fn print_latency(label: &str, ns: &[u64]) {
    let s = sorted(ns);
    let us = |p: f64| percentile(&s, p).map_or(f64::NAN, |v| v as f64 / 1e3);
    println!(
        "  {label}: n={} p50 {:.1}µs, p99 {:.1}µs ({} beyond), p99.9 {:.1}µs ({} beyond)",
        s.len(),
        us(50.0),
        us(99.0),
        beyond(&s, 99.0),
        us(99.9),
        beyond(&s, 99.9)
    );
}

/// Runs phase traffic and folds its failures into `report`.
fn load(
    report: &mut Report,
    server: &Server,
    jobs: &[crate::check::Job],
    pace: Pace,
    scrape: bool,
) -> Result<LoopResult, String> {
    let lines = request_lines(jobs);
    let res = drive(&server.addr, jobs, &lines, pace, scrape)?;
    report.attempted += jobs.len() as u64;
    report.failed += res.outcomes.iter().filter(|o| o.is_none()).count() as u64;
    Ok(res)
}

/// Checks one phase's decisions and returns them.
fn checked(
    report: &mut Report,
    phase: &str,
    spec: &ServeSpec,
    jobs: &[crate::check::Job],
    res: &LoopResult,
) -> Option<crate::check::PackingStats> {
    let decisions = match res.decisions() {
        Ok(d) => d,
        Err(e) => {
            report.violation(format!("{phase}: {e}"));
            return None;
        }
    };
    match check_packing(jobs, &decisions, spec.fleet_cap) {
        Ok(stats) => {
            println!(
                "  {phase}: {} jobs, {} placed, {} shed, {} bins (peak {} open), digest {:016x}",
                jobs.len(),
                stats.placed,
                stats.shed,
                stats.bins,
                stats.peak_open,
                digest(&decisions)
            );
            Some(stats)
        }
        Err(e) => {
            report.violation(format!("{phase}: {e}"));
            None
        }
    }
}

/// The untraced run. Returns every end-to-end metric.
pub fn run(
    host: &Host,
    dbp: &Path,
    scratch: &ScratchDir,
    spec: &ServeSpec,
    seed: u64,
    scale: Scale,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut boots = Vec::new();

    // Warm-up, discarded: a short closed loop on a throwaway stream.
    let dir = scratch.sub("warmup")?;
    let (server, boot) = Server::boot(host, dbp, &serve_args(spec, &dir), &dir)?;
    boots.push(boot);
    let warm = serve_stream(scale.fixed(2_000), seed ^ 0x5eed);
    load(
        &mut report,
        &server,
        &warm,
        Pace::Closed { window: WINDOW },
        false,
    )?;
    server.shutdown()?;

    for k in 0..EXTRA_BOOTS {
        let dir = scratch.sub(&format!("boot{k}"))?;
        let (server, boot) = Server::boot(host, dbp, &serve_args(spec, &dir), &dir)?;
        boots.push(boot);
        server.shutdown()?;
    }

    let mut open_p50_us = None;
    if let Some((rate, per_s)) = spec.open_loop {
        let jobs = serve_stream(scale.jobs(per_s, 200), seed);
        let dir = scratch.sub("phase-a")?;
        let (server, boot) = Server::boot(host, dbp, &serve_args(spec, &dir), &dir)?;
        boots.push(boot);
        let res = load(&mut report, &server, &jobs, Pace::Open { rate }, false)?;
        server.shutdown()?;
        println!(
            "  phase A: open loop at {rate} req/s, {} jobs in {:.2}s",
            jobs.len(),
            res.elapsed.as_secs_f64()
        );
        print_latency("latency from due time", &res.latency_ns);
        let late = sorted(&res.late_ns);
        println!(
            "  generator: offered {:.0} req/s, late p50 {:.1}µs, p99 {:.1}µs",
            jobs.len() as f64 / res.elapsed.as_secs_f64(),
            percentile(&late, 50.0).unwrap_or(0) as f64 / 1e3,
            percentile(&late, 99.0).unwrap_or(0) as f64 / 1e3
        );
        checked(&mut report, "phase A", spec, &jobs, &res);
        let lat = sorted(&res.latency_ns);
        open_p50_us = percentile(&lat, 50.0).map(|v| v as f64 / 1e3);
    }

    let jobs = serve_stream(scale.jobs(spec.closed_jobs_per_s, 500), seed);
    let dir = scratch.sub("phase-b")?;
    let args = serve_args(spec, &dir);
    let (server, boot) = Server::boot(host, dbp, &args, &dir)?;
    boots.push(boot);
    let cpu0 = server.cpu_seconds(host)?;
    let res = load(
        &mut report,
        &server,
        &jobs,
        Pace::Closed { window: WINDOW },
        spec.scraper,
    )?;
    let cpu = server.cpu_seconds(host)? - cpu0;
    let rss = server.peak_rss_mb()?;
    let throughput = res.median_throughput();
    let scraped = server.metrics()?;
    println!(
        "  phase B: closed loop, window {WINDOW}, {} jobs in {:.2}s, median tenth {throughput:.0} req/s{}",
        jobs.len(),
        res.elapsed.as_secs_f64(),
        if spec.scraper {
            format!(", {} scrapes", res.scrapes)
        } else {
            String::new()
        }
    );
    print_latency("latency from send", &res.latency_ns);
    println!(
        "  server: place_ns mean {:.0}, wal_append_ns mean {}, cpu {:.3}s, VmHWM {rss:.1} MiB",
        prom_mean(&scraped, "dbp_serve_place_ns").unwrap_or(f64::NAN),
        prom_mean(&scraped, "dbp_serve_wal_append_ns").map_or("-".into(), |v| format!("{v:.0}")),
        cpu
    );
    let stats = checked(&mut report, "phase B", spec, &jobs, &res);
    let decided = res.outcomes.iter().filter(|o| o.is_some()).count();
    if server.watermark()? as usize != decided {
        report.violation("phase B: the watermark does not cover every answered job");
    }

    // Restarts on phase B's state: durable state is replayed, so the
    // watermark must come back covering every acknowledged job.
    let durable = spec.fsync.is_some();
    let mut recoveries = Vec::new();
    let mut server = server;
    for _ in 0..RESTARTS {
        server.kill9();
        let (next, took) = Server::boot(host, dbp, &args, &dir)?;
        recoveries.push(took);
        let wm = next.watermark()? as usize;
        let expect = if durable { decided } else { 0 };
        if wm != expect {
            report.violation(format!(
                "restart: watermark {wm} after kill -9, expected {expect}"
            ));
        }
        server = next;
    }
    server.shutdown()?;

    let setup = median(&boots);
    println!(
        "  boots: {} (median {:.2} ms); restarts: {:?} ms",
        boots.len(),
        setup * 1e3,
        recoveries
            .iter()
            .map(|r| (r * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    );
    let lat_b = sorted(&res.latency_ns);
    let p50_us = open_p50_us
        .or_else(|| percentile(&lat_b, 50.0).map(|v| v as f64 / 1e3))
        .unwrap_or(f64::NAN);
    let stats = stats.unwrap_or_default();
    report.push("setup_s", setup, "s");
    report.push("throughput_rps", throughput, "req/s");
    report.push("latency_p50_us", p50_us, "us");
    report.push("cpu_us_per_req", cpu * 1e6 / jobs.len() as f64, "us");
    report.push("peak_rss_mb", rss, "MiB");
    report.push("recovery_s", median(&recoveries), "s");
    report.push("usage_ratio", stats.usage_ratio(), "ratio");
    report.push("admitted_ratio", stats.admitted_ratio(), "ratio");
    Ok(report)
}
