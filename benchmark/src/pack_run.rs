//! The untraced run of `pack-deep`: the library in-process, the way
//! `dbp pack`, `dbp compare` and the `exp_*` binaries use it.
//!
//! `bench_engine`'s deep instance (about 1.04M items at the default
//! horizon, ~1,200 open bins) streams through a [`StreamingSession`]
//! repeatedly; throughput is the median over repetitions, and every
//! repetition must make the same decisions.

use crate::check::{check_packing, digest, Job, Outcome};
use crate::host::{cpu_seconds, peak_rss_mb, Host};
use crate::report::Report;
use crate::spec::{deep_instance, PackSpec, Scale};
use crate::stats::median;
use dbp_bench::registry::{online_packer, AlgoParams};
use dbp_core::stream::StreamingSession;
use dbp_core::{ClairvoyanceMode, Instance, Item};
use dbp_resilience::{snapshot_from_json, snapshot_to_json};
use std::hint::black_box;
use std::time::Instant;

const MIN_REPS: usize = 3;
const MAX_REPS: usize = 25;

/// The stream as checker jobs.
pub fn jobs_of(items: &[Item]) -> Vec<Job> {
    items
        .iter()
        .map(|it| Job {
            id: it.id().0,
            size_raw: it.size().raw(),
            arrival: it.arrival(),
            departure: it.departure(),
        })
        .collect()
}

/// One pass over `inst`: the decisions (bin per item, in stream order)
/// and the elapsed seconds, finish included.
pub fn pack_once(inst: &Instance, algo: &str) -> Result<(Vec<u32>, f64), String> {
    let mut packer = online_packer(algo, AlgoParams::from_instance(inst));
    let mut bins = Vec::with_capacity(inst.len());
    let started = Instant::now();
    let mut session = StreamingSession::new(ClairvoyanceMode::Clairvoyant, packer.as_mut());
    for item in inst.items() {
        bins.push(session.arrive(item).map_err(|e| e.to_string())?.0);
    }
    black_box(session.finish().map_err(|e| e.to_string())?);
    Ok((bins, started.elapsed().as_secs_f64()))
}

/// The untraced run.
pub fn run(host: &Host, spec: &PackSpec, seed: u64, scale: Scale) -> Result<Report, String> {
    let mut report = Report::default();
    let horizon = scale.fixed(spec.horizon as usize) as i64;
    let generated = deep_instance(horizon, seed);
    let items: Vec<Item> = generated.items().to_vec();
    drop(generated);

    // Set-up: build the instance and the packer + session ten times;
    // the first, which also faults the memory in, is not counted.
    let mut setups = Vec::new();
    let mut inst = None;
    for _ in 0..10 {
        let copy = items.clone();
        let t0 = Instant::now();
        let built = Instance::from_items(copy).map_err(|e| e.to_string())?;
        let mut packer = online_packer(spec.algo, AlgoParams::from_instance(&built));
        black_box(StreamingSession::new(
            ClairvoyanceMode::Clairvoyant,
            packer.as_mut(),
        ));
        setups.push(t0.elapsed().as_secs_f64());
        inst = Some(built);
    }
    setups.remove(0);
    let inst = inst.expect("built ten times");
    println!(
        "  instance: {} items (deep Poisson, horizon {horizon}, seed {seed}), {} {}",
        inst.len(),
        spec.algo,
        if scale.smoke { "(smoke)" } else { "" }
    );

    // Warm-up, discarded.
    let (reference, _) = pack_once(&inst, spec.algo)?;
    // Restart the peak-RSS mark so it covers the instance plus what
    // packing allocates, not the set-up's transient copies; older
    // kernels without the reset report the whole run's peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let budget = scale.budget(0.55);
    let cpu0 = cpu_seconds(std::process::id(), host.clk_tck)?;
    let mut rates = Vec::new();
    let mut spent = 0.0;
    while rates.len() < MIN_REPS || (spent < budget && rates.len() < MAX_REPS) {
        let (bins, secs) = pack_once(&inst, spec.algo)?;
        if bins != reference {
            report.violation("two repetitions of the same stream decided differently");
        }
        rates.push(inst.len() as f64 / secs);
        spent += secs;
    }
    let cpu = cpu_seconds(std::process::id(), host.clk_tck)? - cpu0;
    let rss = peak_rss_mb(std::process::id())?;
    let reps = rates.len();
    report.attempted += (inst.len() * (reps + 1)) as u64;
    println!(
        "  {reps} reps: items/s min {:.0} median {:.0} max {:.0}",
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        median(&rates),
        rates.iter().copied().fold(0.0, f64::max)
    );

    // Recovery: resume the stream from a mid-stream checkpoint (encoded
    // snapshot → decode → restore), five times; the resumed session
    // must finish with the uninterrupted decisions.
    let half = inst.len() / 2;
    let mut packer = online_packer(spec.algo, AlgoParams::from_instance(&inst));
    let mut session = StreamingSession::new(ClairvoyanceMode::Clairvoyant, packer.as_mut());
    for item in &inst.items()[..half] {
        session.arrive(item).map_err(|e| e.to_string())?;
    }
    let encoded = snapshot_to_json(&session.snapshot());
    drop(session);
    let mut recoveries = Vec::new();
    for k in 0..5 {
        let t0 = Instant::now();
        let snap = snapshot_from_json(&encoded).map_err(|e| e.to_string())?;
        let mut packer = online_packer(spec.algo, AlgoParams::from_instance(&inst));
        let mut resumed =
            StreamingSession::restore(ClairvoyanceMode::Clairvoyant, packer.as_mut(), &snap)
                .map_err(|e| e.to_string())?;
        recoveries.push(t0.elapsed().as_secs_f64());
        if k == 0 {
            for (i, item) in inst.items()[half..].iter().enumerate() {
                let bin = resumed.arrive(item).map_err(|e| e.to_string())?.0;
                if bin != reference[half + i] {
                    report.violation(format!(
                        "resumed session placed item {} in bin {bin}, uninterrupted run chose {}",
                        item.id(),
                        reference[half + i]
                    ));
                    break;
                }
            }
        }
    }
    println!(
        "  checkpoint: {} bytes at item {half}, restore median {:.2} ms",
        encoded.len(),
        median(&recoveries) * 1e3
    );

    let outcomes: Vec<Outcome> = reference
        .iter()
        .map(|&bin| Outcome::Placed { shard: 0, bin })
        .collect();
    let stats = match check_packing(&jobs_of(inst.items()), &outcomes, None) {
        Ok(s) => {
            println!(
                "  packing: {} bins (peak {} open), usage/LB3 {:.6}, digest {:016x}",
                s.bins,
                s.peak_open,
                s.usage_ratio(),
                digest(&outcomes)
            );
            s
        }
        Err(e) => {
            report.violation(e);
            Default::default()
        }
    };

    report.push("setup_s", median(&setups), "s");
    report.push("throughput_rps", median(&rates), "req/s");
    // No request path here: the latency a library caller sees is the
    // time per decision, the median over repetitions.
    report.push("latency_p50_us", 1e6 / median(&rates), "us");
    report.push(
        "cpu_us_per_req",
        cpu * 1e6 / (inst.len() * reps) as f64,
        "us",
    );
    report.push("peak_rss_mb", rss, "MiB");
    report.push("recovery_s", median(&recoveries), "s");
    report.push("usage_ratio", stats.usage_ratio(), "ratio");
    report.push("admitted_ratio", stats.admitted_ratio(), "ratio");
    Ok(report)
}
