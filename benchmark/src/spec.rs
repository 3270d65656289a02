//! The four workloads: what each runs, at what size, and why.
//!
//! Sizes are given per second of `--seconds`, calibrated on a 2-vCPU
//! host so that one run measures for about that long. A workload's job
//! counts depend only on `(seed, seconds, smoke)`, never on how fast the
//! system turns out to be, so decisions — and the exact metrics derived
//! from them — repeat bit for bit.

use crate::check::Job;
use dbp_core::{Instance, Time};
use dbp_workloads::random::{DurationDist, PoissonWorkload};
use dbp_workloads::scenarios::SpikeWorkload;
use dbp_workloads::Workload;

/// How a `serve-*` workload configures and drives `dbp serve`.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// `--shards`.
    pub shards: usize,
    /// `--algo`.
    pub algo: &'static str,
    /// `--fleet-cap`.
    pub fleet_cap: Option<usize>,
    /// `--fsync` of a `--wal-dir`; `None` runs without a WAL.
    pub fsync: Option<&'static str>,
    /// `--checkpoint-every` of a `--checkpoint-dir`; `None` runs without
    /// checkpoints.
    pub checkpoint_every: Option<u64>,
    /// Phase A: open-loop rate (req/s) and jobs per second of the run;
    /// `None` skips the open-loop phase.
    pub open_loop: Option<(f64, f64)>,
    /// Phase B: closed-loop jobs per second of the run.
    pub closed_jobs_per_s: f64,
    /// A second connection reads `metrics` and `status` every 250 ms
    /// while phase B writes.
    pub scraper: bool,
    /// In-process ladder jobs per second of the run (trace only).
    pub trace_jobs_per_s: f64,
}

/// How `pack-deep` drives the library in-process.
#[derive(Clone, Debug)]
pub struct PackSpec {
    /// Roster name of the scalar packer.
    pub algo: &'static str,
    /// Poisson horizon of the deep instance (rate 4, mean-1000 durations).
    pub horizon: Time,
    /// Vector roster name for the 3-axis correlated stream (trace only).
    pub vec_algo: &'static str,
    /// Items of the vector stream (trace only).
    pub vec_items: usize,
    /// Ladder items (trace only).
    pub trace_items: usize,
}

/// What a workload runs.
#[derive(Clone, Debug)]
pub enum Kind {
    /// `dbp serve` over TCP.
    Serve(ServeSpec),
    /// The library in-process.
    Pack(PackSpec),
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "serve-steady",
            kind: Kind::Serve(ServeSpec {
                shards: 2,
                algo: "first-fit",
                fleet_cap: None,
                fsync: None,
                checkpoint_every: None,
                // 10k req/s is about a quarter of saturation on the
                // reference host: p50 there is service time, not queueing.
                open_loop: Some((10_000.0, 3_500.0)),
                closed_jobs_per_s: 30_000.0,
                scraper: false,
                trace_jobs_per_s: 8_050.0,
            }),
        },
        WorkloadSpec {
            name: "serve-durable",
            kind: Kind::Serve(ServeSpec {
                shards: 2,
                algo: "first-fit",
                fleet_cap: None,
                fsync: Some("always"),
                checkpoint_every: None,
                open_loop: Some((2_500.0, 875.0)),
                closed_jobs_per_s: 5_500.0,
                scraper: false,
                trace_jobs_per_s: 1_550.0,
            }),
        },
        WorkloadSpec {
            name: "serve-uptime",
            kind: Kind::Serve(ServeSpec {
                shards: 2,
                algo: "first-fit",
                fleet_cap: Some(48),
                fsync: Some("interval:20"),
                checkpoint_every: Some(1_000),
                open_loop: None,
                closed_jobs_per_s: 22_000.0,
                scraper: true,
                trace_jobs_per_s: 4_050.0,
            }),
        },
        WorkloadSpec {
            name: "pack-deep",
            kind: Kind::Pack(PackSpec {
                algo: "best-fit",
                horizon: 260_000,
                vec_algo: "best-fit",
                vec_items: 105_000,
                trace_items: 100_500,
            }),
        },
    ]
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Run-size scaling: `--seconds`, and 1/50 of everything in smoke mode.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `--seconds`.
    pub seconds: f64,
    /// `--smoke`.
    pub smoke: bool,
}

impl Scale {
    /// Jobs for a per-second size, at least `floor`.
    pub fn jobs(&self, per_second: f64, floor: usize) -> usize {
        let n = per_second * self.seconds / if self.smoke { 50.0 } else { 1.0 };
        (n.round() as usize).max(floor)
    }

    /// A fixed size, divided by 50 in smoke mode.
    pub fn fixed(&self, n: usize) -> usize {
        if self.smoke {
            (n / 50).max(1)
        } else {
            n
        }
    }

    /// Seconds of the run's budget, divided by 50 in smoke mode.
    pub fn budget(&self, share: f64) -> f64 {
        self.seconds * share / if self.smoke { 50.0 } else { 1.0 }
    }
}

/// The `serve-*` stream, in the shape of `load_serve`'s generator:
/// Poisson background at 2 jobs/tick plus three spike waves of
/// `jobs/10` long-lived jobs, sorted by arrival, truncated to `jobs`,
/// and re-identified densely. Sizes stay exact (`size_raw`).
pub fn serve_stream(jobs: usize, seed: u64) -> Vec<Job> {
    let rate = 2.0;
    let horizon = ((jobs as f64 / rate).ceil() as Time).max(10);
    let background = PoissonWorkload::new(rate, horizon).generate_seeded(seed);
    let spikes =
        SpikeWorkload::new(3, (jobs / 10).max(1), (horizon / 4).max(4)).generate_seeded(seed ^ 1);
    let mut triples: Vec<(Time, u64, Time)> = background
        .items()
        .iter()
        .chain(spikes.items())
        .map(|it| (it.arrival(), it.size().raw(), it.departure()))
        .collect();
    triples.sort_unstable();
    triples.truncate(jobs);
    triples
        .into_iter()
        .enumerate()
        .map(|(i, (arrival, size_raw, departure))| Job {
            id: u32::try_from(i).expect("streams stay far below 2^32 jobs"),
            size_raw,
            arrival,
            departure,
        })
        .collect()
}

/// `bench_engine`'s deep instance at `horizon`: Poisson rate 4 with
/// exponential durations of mean 1000, so about 1,200 bins stay open.
pub fn deep_instance(horizon: Time, seed: u64) -> Instance {
    PoissonWorkload::new(4.0, horizon)
        .with_durations(DurationDist::Exponential {
            mean: 1000.0,
            min: 1,
            max: 10_000,
        })
        .generate_seeded(seed)
}

/// The tenant label of job `id`: four tenants, round robin.
pub fn tenant_of(id: u32) -> &'static str {
    ["tenant-0", "tenant-1", "tenant-2", "tenant-3"][(id % 4) as usize]
}
