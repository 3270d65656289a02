//! The perf-regression gate: compare a fresh benchmark run against a
//! checked-in `BENCH_*.json` baseline, cell by cell.
//!
//! `dbp bench --check BENCH_shard.json --tolerance 20` re-runs every
//! `(algo, shards)` cell the baseline recorded — with the same workload
//! recipe, derived from the baseline's `mode` — and flags any cell whose
//! fresh throughput fell more than the tolerance below the recorded
//! `items_per_sec`. Three baseline schemas are understood:
//!
//! | schema | cell key | fresh run |
//! |---|---|---|
//! | `dbp-bench/engine-v1` | `algo`, `algo/d{D}` | plain [`StreamingSession`] over the scalar or the `D`-axis vector recipe |
//! | `dbp-bench/shard-v1` | `algo/k{K}` | [`ShardedSession`] with the recorded worker count |
//! | `dbp-bench/telemetry-v1` | `algo/{off,sampled}` | session without / with a [`TelemetryRecorder`] |
//!
//! An engine cell's `dims` field (absent means 1) picks its demand
//! type; engine cells are recorded and re-timed by one loop,
//! [`stream_cell`], generic over it.
//!
//! Wall-clock throughput is inherently noisy and machine-dependent, so
//! the gate records both hosts' parallelism, compares *ratios* rather
//! than absolute times, and defaults to a generous tolerance; a baseline
//! produced on different hardware is still useful for catching
//! order-of-magnitude regressions, and `host_parallelism` in the report
//! says when to distrust a tight margin. Baselines recorded with
//! `degraded_parallelism: true` (multi-worker cells timed on a host with
//! fewer cores than workers) are not trustworthy for their multi-worker
//! cells at all — those cells are skipped with a warning instead of
//! gated, while their single-worker cells still gate normally.
//! `--inject <pct>` synthetically
//! slows the fresh measurements to prove the gate trips (the CI smoke
//! job runs the gate twice: once expecting exit 0, once with an injected
//! regression expecting exit 5).

use crate::registry::{
    online_packer, online_packer_linear, vector_packer, vector_packer_linear, AlgoParams,
};
use dbp_core::observe::PackObserver;
use dbp_core::stream::{PackerHandle, StreamingSession};
use dbp_core::{
    ClairvoyanceMode, DbpError, Demand, Instance, VecClairvoyance, VecInstance, VecStreamingSession,
};
use dbp_obs::json::{self, Json};
use dbp_shard::{ShardConfig, ShardRouter, ShardedSession};
use dbp_telemetry::TelemetryRecorder;
use dbp_workloads::random::{DurationDist, PoissonWorkload, SizeDist};
use dbp_workloads::vector::{CorrelatedVectorWorkload, VectorWorkload};
use dbp_workloads::Workload;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// Every benchmark binary streams this seed.
pub const SEED: u64 = 1;

/// The schema tag of `BENCH_engine.json`.
pub const ENGINE_SCHEMA: &str = "dbp-bench/engine-v1";

/// Per-axis mean demands of the vector recipe; its length is the only
/// vector `dims` a baseline cell can name.
const VECTOR_MEANS: [f64; 3] = [0.3, 0.2, 0.45];

/// One baseline measurement to reproduce.
#[derive(Clone, Debug)]
pub struct BaselineCell {
    /// Algorithm name from the roster.
    pub algo: String,
    /// Shard count (1 for unsharded schemas).
    pub shards: usize,
    /// Worker threads the baseline used (1 for unsharded schemas).
    pub workers: usize,
    /// Telemetry variant for `telemetry-v1` cells (`"off"`/`"sampled"`).
    pub telemetry: Option<String>,
    /// Workload variant the cell streamed (`None`/`"default"` for the
    /// schema's standard recipe, `"deep"` for the open-bin-heavy
    /// deep-fleet cells the engine benchmark records, `"ties"` and
    /// `"wide"` for its tie-heavy and 12k-bin variants; see
    /// [`scalar_workload`]).
    pub workload: Option<String>,
    /// Scan machinery the cell used (`None`/`"indexed"` for the fit
    /// index, `"linear"` for the open-bin-walk foil cells).
    pub scan: Option<String>,
    /// Resource axes per demand: 1 for the scalar recipes, more for the
    /// vector recipe ([`vector_baseline_instance`]).
    pub dims: usize,
    /// Recorded throughput.
    pub items_per_sec: f64,
}

impl BaselineCell {
    /// The display key the gate reports the cell under.
    pub fn label(&self) -> String {
        let base = match (&self.telemetry, self.shards) {
            (Some(t), _) => format!("{}/{t}", self.algo),
            (None, 1) => self.algo.clone(),
            (None, k) => format!("{}/k{k}", self.algo),
        };
        let base = match self.dims {
            1 => base,
            d => format!("{base}/d{d}"),
        };
        let base = match self.workload.as_deref() {
            Some(w) if w != "default" => format!("{base}@{w}"),
            _ => base,
        };
        match self.scan.as_deref() {
            Some(s) if s != "indexed" => format!("{base}/{s}"),
            _ => base,
        }
    }

    /// The workload recipe key this cell must be measured under.
    pub fn workload_key(&self) -> &str {
        self.workload.as_deref().unwrap_or("default")
    }

    /// Whether the cell must be measured with the linear-scan foil.
    pub fn linear_scan(&self) -> bool {
        self.scan.as_deref() == Some("linear")
    }
}

/// A parsed `BENCH_*.json` baseline.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Schema tag, e.g. `dbp-bench/shard-v1`.
    pub schema: String,
    /// `"full"` (~1M items) or `"short"` (~100k, the CI smoke size).
    pub mode: String,
    /// `host_parallelism` / `parallel_workers` the baseline recorded.
    pub host_parallelism: usize,
    /// Whether the recording host had fewer cores than the widest cell's
    /// worker count (the bench binaries tag such runs): multi-worker
    /// timings in the file are time-sliced, not parallel, and must not
    /// be used as regression baselines.
    pub degraded_parallelism: bool,
    /// The measurements, in file order.
    pub cells: Vec<BaselineCell>,
}

impl Baseline {
    /// Whether a cell's recorded timing is untrustworthy (see
    /// [`Baseline::degraded_parallelism`]): in a degraded file, every
    /// multi-worker cell was time-sliced on too few cores.
    pub fn cell_degraded(&self, cell: &BaselineCell) -> bool {
        self.degraded_parallelism && cell.workers > 1
    }
}

/// Parses a benchmark baseline, accepting any of the three schemas.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let root = json::parse(text)?;
    let schema: String = root.field("schema")?;
    if !matches!(
        schema.as_str(),
        ENGINE_SCHEMA | "dbp-bench/shard-v1" | "dbp-bench/telemetry-v1"
    ) {
        return Err(format!("unsupported baseline schema {schema:?}"));
    }
    let mut cells = Vec::new();
    for cell in root.field::<&[Json]>("results")? {
        cells.push(BaselineCell {
            algo: cell.field("algo")?,
            shards: cell.field("shards").unwrap_or(1),
            workers: cell.field("workers").unwrap_or(1),
            telemetry: cell.field("telemetry").ok(),
            workload: cell.field("workload").ok(),
            scan: cell.field("scan").ok(),
            dims: cell.field("dims").unwrap_or(1),
            items_per_sec: cell.field("items_per_sec")?,
        });
    }
    if cells.is_empty() {
        return Err("baseline has no result cells".into());
    }
    Ok(Baseline {
        schema,
        mode: root.field("mode")?,
        host_parallelism: root
            .field("host_parallelism")
            .or_else(|_| root.field("parallel_workers"))
            .unwrap_or(1),
        degraded_parallelism: root.field("degraded_parallelism").unwrap_or(false),
        cells,
    })
}

/// The benchmark horizon for a baseline mode (the same constants the
/// bench binaries bake in).
fn horizon_for(mode: &str) -> Result<i64, String> {
    match mode {
        "full" => Ok(260_000),
        "short" => Ok(26_000),
        other => Err(format!("unknown baseline mode {other:?}")),
    }
}

/// The scalar workload a baseline cell streams: every schema uses
/// Poisson(rate = 4) at seed 1; the shard benchmark's default recipe
/// deepens the fleet with long exponential durations, and `"deep"` cells
/// (the engine benchmark's 1000+-open-bin rows) use the even longer
/// mean-1000 exponential durations. Two more engine recipes keep those
/// durations: `"ties"` draws sizes from the catalog 1/16, 1/8, 1/4, 1/2,
/// so whole groups of bins share an exact level, and `"wide"` arrives
/// ten times faster over a tenth of the horizon, holding ~12k bins open.
pub fn scalar_workload(
    schema: &str,
    mode: &str,
    workload: &str,
) -> Result<PoissonWorkload, String> {
    let horizon = horizon_for(mode)?;
    let base = PoissonWorkload::new(4.0, horizon);
    let deep = DurationDist::Exponential {
        mean: 1000.0,
        min: 1,
        max: 10_000,
    };
    Ok(match (schema, workload) {
        ("dbp-bench/shard-v1", "default") => base.with_durations(DurationDist::Exponential {
            mean: 500.0,
            min: 1,
            max: 5_000,
        }),
        (_, "default") => base,
        (_, "deep") => base.with_durations(deep),
        (_, "ties") => base
            .with_durations(deep)
            .with_sizes(SizeDist::catalog(&[0.0625, 0.125, 0.25, 0.5]).map_err(|e| e.to_string())?),
        (_, "wide") => PoissonWorkload::new(40.0, horizon / 10).with_durations(deep),
        (_, other) => return Err(format!("unknown cell workload {other:?}")),
    })
}

/// Regenerates the instance a baseline cell streamed: the scalar
/// [`scalar_workload`] at one axis, the [`vector_baseline_instance`] at
/// its axis count (engine cells only).
pub fn baseline_instance(
    schema: &str,
    mode: &str,
    workload: &str,
    dims: usize,
) -> Result<BenchInstance, String> {
    if dims == 1 {
        // Disambiguated: the blanket `VectorWorkload` impl gives every
        // scalar workload a second `generate_seeded`.
        let w = scalar_workload(schema, mode, workload)?;
        return Ok(BenchInstance::Scalar(Workload::generate_seeded(&w, SEED)));
    }
    if schema != ENGINE_SCHEMA || dims != VECTOR_MEANS.len() {
        return Err(format!("no {schema} recipe for {dims}-axis cells"));
    }
    vector_baseline_instance(mode, workload).map(BenchInstance::Vector)
}

/// Item count for a vector baseline mode. Unlike the Poisson recipes
/// (which target an expected count through a horizon), the correlated
/// vector workload draws an exact item count.
fn vector_items_for(mode: &str) -> Result<usize, String> {
    match mode {
        "full" => Ok(1_050_000),
        "short" => Ok(105_000),
        other => Err(format!("unknown baseline mode {other:?}")),
    }
}

/// Regenerates the vector instance a `dims: 3` baseline cell streamed:
/// 3-axis correlated demands (`ρ = 0.6`) at seed 1. The `"deep"`
/// variant stretches arrivals to one per tick and holds items with
/// mean-1000 exponential durations, sustaining a fleet of hundreds of
/// open bins — the cell that catches vector scan-depth cliffs.
pub fn vector_baseline_instance(mode: &str, workload: &str) -> Result<VecInstance, String> {
    let n = vector_items_for(mode)?;
    let base = CorrelatedVectorWorkload::new(n, &VECTOR_MEANS, 0.5, 0.6)
        .map_err(|e| format!("vector baseline workload: {e}"))?;
    let w = match workload {
        "default" => base,
        "deep" => base
            .with_durations(DurationDist::Exponential {
                mean: 1000.0,
                min: 1,
                max: 10_000,
            })
            .with_arrival_span(n as i64),
        other => return Err(format!("unknown cell workload {other:?}")),
    };
    Ok(VectorWorkload::generate_seeded(&w, SEED))
}

/// The instance an engine cell streams: scalar or vector demands.
pub enum BenchInstance {
    /// One axis: the Poisson recipes.
    Scalar(Instance),
    /// Several axes: the correlated vector recipe.
    Vector(VecInstance),
}

impl BenchInstance {
    /// The number of items.
    pub fn item_count(&self) -> usize {
        match self {
            BenchInstance::Scalar(inst) => inst.len(),
            BenchInstance::Vector(inst) => inst.len(),
        }
    }

    /// Resource axes per demand.
    pub fn dims(&self) -> usize {
        match self {
            BenchInstance::Scalar(_) => 1,
            BenchInstance::Vector(inst) => inst.dims(),
        }
    }

    /// Streams the instance through roster packer `algo` (its
    /// linear-scan foil when `linear`) on a fresh clairvoyant session.
    pub fn run_cell(&self, algo: &str, linear: bool) -> Result<CellRun, DbpError> {
        match self {
            BenchInstance::Scalar(inst) => {
                let params = AlgoParams::from_instance(inst);
                let mut packer = if linear {
                    online_packer_linear(algo, params)
                } else {
                    online_packer(algo, params)
                };
                let session = StreamingSession::new(ClairvoyanceMode::Clairvoyant, packer.as_mut());
                stream_cell(session, inst.items())
            }
            BenchInstance::Vector(inst) => {
                let params = AlgoParams::from_vec_instance(inst);
                let mut packer = if linear {
                    vector_packer_linear(algo, params)
                } else {
                    vector_packer(algo, params)
                };
                let session =
                    VecStreamingSession::new(VecClairvoyance::Clairvoyant, packer.as_mut());
                stream_cell(session.into_inner(), inst.items())
            }
        }
    }
}

/// One streamed cell: its wall time and what the engine benchmark
/// records about the run.
#[derive(Clone, Copy, Debug)]
pub struct CellRun {
    /// Wall time of the whole stream, departures and `finish` included.
    pub elapsed_s: f64,
    /// Most bins open at once.
    pub peak_open_bins: usize,
    /// Peak of the session's live-memory proxy, sampled every 1024
    /// arrivals.
    pub peak_live_bytes: usize,
    /// Bins opened over the run.
    pub bins_opened: usize,
    /// Total usage (bin-ticks, raw).
    pub usage: u128,
}

/// Streams `items` through `session` to the end: the one loop that both
/// records engine cells and re-times them under the gate, for any
/// demand type.
pub fn stream_cell<P: PackerHandle, O: PackObserver<P::Demand>>(
    mut session: StreamingSession<'_, O, P>,
    items: &[<P::Demand as Demand>::Item],
) -> Result<CellRun, DbpError> {
    let mut peak_open_bins = 0;
    let mut peak_live_bytes = 0;
    let started = Instant::now();
    for (k, item) in items.iter().enumerate() {
        session.arrive(item)?;
        peak_open_bins = peak_open_bins.max(session.open_bins());
        if k % 1024 == 0 {
            peak_live_bytes = peak_live_bytes.max(session.approx_live_bytes());
        }
    }
    let totals = session.finish()?;
    Ok(CellRun {
        elapsed_s: started.elapsed().as_secs_f64(),
        peak_open_bins,
        peak_live_bytes,
        bins_opened: totals.bins_opened,
        usage: totals.usage,
    })
}

/// One gate comparison.
#[derive(Clone, Debug)]
pub struct CheckRow {
    /// Cell key (see [`BaselineCell::label`]).
    pub label: String,
    /// Recorded throughput.
    pub baseline_ips: f64,
    /// Fresh throughput (after any injected slowdown).
    pub fresh_ips: f64,
    /// `(fresh - baseline) / baseline`, in percent; negative is slower.
    pub delta_pct: f64,
    /// Whether the cell fell below the tolerance.
    pub regressed: bool,
    /// Whether the cell was skipped (degraded baseline): not
    /// re-measured, never regressed, `fresh_ips`/`delta_pct` are zero.
    pub skipped: bool,
}

/// The gate's verdict over every baseline cell.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Baseline schema the gate compared against.
    pub schema: String,
    /// Baseline mode (`full`/`short`).
    pub mode: String,
    /// Allowed throughput drop, in percent.
    pub tolerance_pct: f64,
    /// Synthetic slowdown applied to fresh runs (0 = none).
    pub injected_pct: f64,
    /// Parallelism recorded in the baseline file.
    pub baseline_host_parallelism: usize,
    /// Parallelism of the machine running the gate — when it differs
    /// from the baseline's, treat tight margins as noise.
    pub host_parallelism: usize,
    /// Per-cell comparisons, in baseline order.
    pub rows: Vec<CheckRow>,
}

impl CheckReport {
    /// True when no cell regressed.
    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| !r.regressed)
    }

    /// The regressed cells.
    pub fn regressions(&self) -> Vec<&CheckRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }

    /// The cells skipped because the baseline recorded them under
    /// degraded parallelism.
    pub fn skipped(&self) -> Vec<&CheckRow> {
        self.rows.iter().filter(|r| r.skipped).collect()
    }

    /// Serializes the comparison (the CI artifact).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"dbp-bench/check-v1\",\n");
        let _ = writeln!(out, "  \"baseline_schema\": \"{}\",", self.schema);
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(out, "  \"tolerance_pct\": {:.2},", self.tolerance_pct);
        let _ = writeln!(out, "  \"injected_pct\": {:.2},", self.injected_pct);
        let _ = writeln!(
            out,
            "  \"baseline_host_parallelism\": {},",
            self.baseline_host_parallelism
        );
        let _ = writeln!(out, "  \"host_parallelism\": {},", self.host_parallelism);
        let _ = writeln!(out, "  \"ok\": {},", self.ok());
        let _ = writeln!(out, "  \"skipped_cells\": {},", self.skipped().len());
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"cell\": \"{}\", \"baseline_ips\": {:.0}, \"fresh_ips\": {:.0}, \
                 \"delta_pct\": {:.2}, \"regressed\": {}, \"skipped\": {} }}{}",
                json::escape(&r.label),
                r.baseline_ips,
                r.fresh_ips,
                r.delta_pct,
                r.regressed,
                r.skipped,
                if i + 1 < self.rows.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Items/sec of a cell over `items` items, best-of-3: the minimum
/// elapsed time of three back-to-back runs of `once`. Scheduler and
/// frequency noise only ever adds time, and on shared single-CPU runners
/// individual cells swing by ±10–20% — enough to trip the gate
/// spuriously from a single sample.
fn best_of_3(items: usize, mut once: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        best = best.min(once()?);
    }
    Ok(items as f64 / best.max(f64::MIN_POSITIVE))
}

/// One timed run of a baseline cell; returns elapsed seconds.
fn run_cell_once(schema: &str, inst: &BenchInstance, cell: &BaselineCell) -> Result<f64, String> {
    let err = |e: DbpError| format!("{}: {e}", cell.label());
    // Foil cells are re-measured with the same linear-scan packer
    // variant they recorded, so their (deliberately slow) baselines are
    // compared like-for-like.
    let make = |inst: &Instance| {
        let params = AlgoParams::from_instance(inst);
        if cell.linear_scan() {
            online_packer_linear(&cell.algo, params)
        } else {
            online_packer(&cell.algo, params)
        }
    };
    let mode = ClairvoyanceMode::Clairvoyant;
    match (schema, cell.telemetry.as_deref(), inst) {
        ("dbp-bench/shard-v1", _, BenchInstance::Scalar(inst)) => {
            // The fleet `bench_shard` records: no metrics timelines.
            let cfg = ShardConfig {
                threads: Some(cell.workers.max(1)),
                collect_metrics: false,
                ..ShardConfig::new(cell.shards.max(1), ShardRouter::hash())
            };
            let packers = (0..cell.shards.max(1)).map(|_| make(inst)).collect();
            let mut fleet = ShardedSession::new(mode, packers, cfg).map_err(err)?;
            let started = Instant::now();
            for item in inst.items() {
                fleet.arrive(item).map_err(err)?;
            }
            fleet.finish().map_err(err)?;
            Ok(started.elapsed().as_secs_f64())
        }
        (_, Some("sampled"), BenchInstance::Scalar(inst)) => {
            let mut packer = make(inst);
            let session =
                StreamingSession::with_observer(mode, packer.as_mut(), TelemetryRecorder::new());
            Ok(stream_cell(session, inst.items()).map_err(err)?.elapsed_s)
        }
        // Engine cells and telemetry-off cells: a bare session.
        _ => Ok(inst
            .run_cell(&cell.algo, cell.linear_scan())
            .map_err(err)?
            .elapsed_s),
    }
}

/// Runs the gate: every baseline cell re-measured serially (one cell at
/// a time, for minimum timing noise) and compared at `tolerance_pct`.
/// `inject_pct > 0` synthetically slows every fresh measurement by that
/// percentage — the self-proof that the gate can trip.
pub fn run_check(
    baseline: &Baseline,
    tolerance_pct: f64,
    inject_pct: f64,
) -> Result<CheckReport, String> {
    if !(0.0..100.0).contains(&tolerance_pct) {
        return Err(format!("tolerance {tolerance_pct}% out of range [0, 100)"));
    }
    if !(0.0..100.0).contains(&inject_pct) {
        return Err(format!("inject {inject_pct}% out of range [0, 100)"));
    }
    // Cells may stream different workload recipes (`default` vs `deep`,
    // scalar vs vector); build each instance once and share it across
    // its cells.
    let mut instances: HashMap<(&str, usize), BenchInstance> = HashMap::new();
    let mut rows = Vec::new();
    for cell in &baseline.cells {
        if cell.items_per_sec <= 0.0 {
            return Err(format!(
                "{}: non-positive baseline throughput",
                cell.label()
            ));
        }
        if baseline.cell_degraded(cell) {
            // A multi-worker timing from a degraded recording is not a
            // baseline at all; skip it (the caller warns) rather than
            // gate against time-sliced numbers.
            rows.push(CheckRow {
                label: cell.label(),
                baseline_ips: cell.items_per_sec,
                fresh_ips: 0.0,
                delta_pct: 0.0,
                regressed: false,
                skipped: true,
            });
            continue;
        }
        let key = (cell.workload_key(), cell.dims);
        let inst = match instances.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(baseline_instance(
                &baseline.schema,
                &baseline.mode,
                key.0,
                key.1,
            )?),
        };
        let inst = &*inst;
        let fresh = best_of_3(inst.item_count(), || {
            run_cell_once(&baseline.schema, inst, cell)
        })?;
        let fresh_ips = fresh * (1.0 - inject_pct / 100.0);
        let delta_pct = (fresh_ips - cell.items_per_sec) / cell.items_per_sec * 100.0;
        rows.push(CheckRow {
            label: cell.label(),
            baseline_ips: cell.items_per_sec,
            fresh_ips,
            delta_pct,
            regressed: delta_pct < -tolerance_pct,
            skipped: false,
        });
    }
    Ok(CheckReport {
        schema: baseline.schema.clone(),
        mode: baseline.mode.clone(),
        tolerance_pct,
        injected_pct: inject_pct,
        baseline_host_parallelism: baseline.host_parallelism,
        host_parallelism: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_SHARD: &str = r#"{
      "schema": "dbp-bench/shard-v1",
      "mode": "short",
      "workload": { "generator": "poisson(rate=4,horizon=26000)", "seed": 1, "items": 104000 },
      "host_parallelism": 4,
      "results": [
        { "algo": "first-fit", "shards": 2, "workers": 2, "items_per_sec": 500000 },
        { "algo": "best-fit", "shards": 1, "workers": 1, "items_per_sec": 200000 }
      ]
    }"#;

    #[test]
    fn baseline_parses_all_schemas() {
        let b = parse_baseline(TINY_SHARD).unwrap();
        assert_eq!(b.schema, "dbp-bench/shard-v1");
        assert_eq!(b.mode, "short");
        assert_eq!(b.host_parallelism, 4);
        assert_eq!(b.cells.len(), 2);
        assert_eq!(b.cells[0].label(), "first-fit/k2");
        assert_eq!(b.cells[1].label(), "best-fit");
        assert_eq!(b.cells[0].workers, 2);

        let engine = r#"{ "schema": "dbp-bench/engine-v1", "mode": "full",
          "parallel_workers": 8,
          "results": [ { "algo": "cbdt", "items_per_sec": 1000 } ] }"#;
        let b = parse_baseline(engine).unwrap();
        assert_eq!(b.host_parallelism, 8);
        assert_eq!(b.cells[0].label(), "cbdt");

        let telem = r#"{ "schema": "dbp-bench/telemetry-v1", "mode": "short",
          "host_parallelism": 1,
          "results": [ { "algo": "first-fit", "telemetry": "sampled", "items_per_sec": 1000 } ] }"#;
        let b = parse_baseline(telem).unwrap();
        assert_eq!(b.cells[0].label(), "first-fit/sampled");

        // Per-cell workload variants: "default" stays unsuffixed, "deep"
        // shows up in the label and selects the deep-fleet recipe.
        let deep = r#"{ "schema": "dbp-bench/engine-v1", "mode": "short",
          "parallel_workers": 1,
          "results": [
            { "algo": "best-fit", "workload": "default", "scan": "indexed", "items_per_sec": 1000 },
            { "algo": "best-fit", "workload": "deep", "items_per_sec": 1000 },
            { "algo": "best-fit", "workload": "deep", "scan": "linear", "items_per_sec": 1000 },
            { "algo": "best-fit", "workload": "deep", "scan": "linear", "dims": 3, "items_per_sec": 1000 }
          ] }"#;
        let b = parse_baseline(deep).unwrap();
        assert_eq!(b.cells[0].label(), "best-fit");
        assert_eq!(b.cells[1].label(), "best-fit@deep");
        assert_eq!(b.cells[2].label(), "best-fit@deep/linear");
        assert!(b.cells[2].linear_scan());
        assert!(!b.cells[1].linear_scan());
        // An absent `dims` means a scalar cell; vector cells say so in
        // the label.
        assert_eq!(b.cells[2].dims, 1);
        assert_eq!(b.cells[3].label(), "best-fit/d3@deep/linear");
    }

    #[test]
    fn tie_heavy_and_wide_recipes_match_their_labels() {
        let ties = scalar_workload(ENGINE_SCHEMA, "short", "ties").unwrap();
        let inst = Workload::generate_seeded(&ties, SEED);
        let catalog = [0.0625, 0.125, 0.25, 0.5].map(dbp_core::Size::from_f64);
        assert!(inst.items().iter().all(|r| catalog.contains(&r.size())));
        let deep = scalar_workload(ENGINE_SCHEMA, "short", "deep").unwrap();
        assert_eq!(
            inst.len(),
            Workload::generate_seeded(&deep, SEED).len(),
            "the tie-heavy cell keeps the deep arrivals"
        );
        // Ten times the rate over a tenth of the horizon.
        let wide = scalar_workload(ENGINE_SCHEMA, "short", "wide").unwrap();
        assert_eq!((wide.rate, wide.horizon), (40.0, 2_600));
        let b = parse_baseline(
            r#"{ "schema": "dbp-bench/engine-v1", "mode": "short", "results": [
              { "algo": "best-fit", "workload": "ties", "scan": "linear", "items_per_sec": 1 },
              { "algo": "best-fit", "workload": "wide", "items_per_sec": 1 } ] }"#,
        )
        .unwrap();
        assert_eq!(b.cells[0].label(), "best-fit@ties/linear");
        assert_eq!(b.cells[1].label(), "best-fit@wide");
        for cell in &b.cells {
            assert!(baseline_instance(ENGINE_SCHEMA, "short", cell.workload_key(), 1).is_ok());
        }
    }

    #[test]
    fn unknown_cell_workload_is_rejected() {
        assert!(
            baseline_instance(ENGINE_SCHEMA, "short", "shallow", 1).is_err(),
            "unknown workload recipes must not silently fall back"
        );
        assert!(vector_baseline_instance("short", "shallow").is_err());
        // Vector cells exist only in the engine schema, at the vector
        // recipe's axis count.
        assert!(baseline_instance(ENGINE_SCHEMA, "short", "default", 2).is_err());
        assert!(baseline_instance("dbp-bench/shard-v1", "short", "default", 3).is_err());
    }

    /// A `dims: 3` engine cell is re-timed over the vector recipe:
    /// against an impossible baseline it regresses, against a near-zero
    /// one it passes.
    #[test]
    fn vector_cells_gate_in_an_engine_baseline() {
        let b = parse_baseline(
            r#"{ "schema": "dbp-bench/engine-v1", "mode": "short",
              "parallel_workers": 1,
              "results": [
                { "algo": "first-fit", "dims": 3, "items_per_sec": 1e15 },
                { "algo": "first-fit", "dims": 3, "items_per_sec": 0.001 }
              ] }"#,
        )
        .unwrap();
        let inst = baseline_instance(ENGINE_SCHEMA, "short", "default", 3).unwrap();
        assert!(matches!(inst, BenchInstance::Vector(_)) && inst.dims() == 3);
        let report = run_check(&b, 20.0, 0.0).unwrap();
        assert_eq!(report.rows[0].label, "first-fit/d3");
        assert!(report.rows[0].regressed, "impossible baseline must regress");
        assert!(
            !report.rows[1].regressed,
            "any real machine beats 0.001 items/s"
        );
    }

    #[test]
    fn bad_baselines_are_rejected() {
        assert!(parse_baseline("{}").is_err(), "missing schema");
        assert!(
            parse_baseline(r#"{ "schema": "dbp-bench/other-v9", "mode": "full", "results": [] }"#)
                .is_err(),
            "unknown schema"
        );
        assert!(
            parse_baseline(r#"{ "schema": "dbp-bench/engine-v1", "mode": "full", "results": [] }"#)
                .is_err(),
            "no cells"
        );
    }

    /// A baseline claiming throughput no real machine reaches: the gate
    /// must flag every cell. And against a claim of ~zero throughput the
    /// same fresh run must pass. Uses a synthetic baseline pinned to the
    /// short-mode recipe so the test stays under a second.
    #[test]
    fn gate_trips_on_slowdown_and_passes_on_speedup() {
        let fast = r#"{ "schema": "dbp-bench/engine-v1", "mode": "short",
          "parallel_workers": 1,
          "results": [ { "algo": "first-fit", "items_per_sec": 1e15 } ] }"#;
        let report = run_check(&parse_baseline(fast).unwrap(), 20.0, 0.0).unwrap();
        assert!(!report.ok(), "impossible baseline must regress");
        assert_eq!(report.regressions().len(), 1);

        let slow = r#"{ "schema": "dbp-bench/engine-v1", "mode": "short",
          "parallel_workers": 1,
          "results": [ { "algo": "first-fit", "items_per_sec": 0.001 } ] }"#;
        let report = run_check(&parse_baseline(slow).unwrap(), 20.0, 0.0).unwrap();
        assert!(report.ok(), "any real machine beats 0.001 items/s");
        let json = report.to_json();
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"cell\": \"first-fit\""));
    }

    #[test]
    fn injection_trips_a_self_comparison() {
        // Measure once, write the measurement as the baseline, then
        // re-check with a 50% injected slowdown at 20% tolerance: the
        // gate must trip even though the machine did not change.
        let inst = baseline_instance(ENGINE_SCHEMA, "short", "default", 1).unwrap();
        let cell = BaselineCell {
            algo: "first-fit".into(),
            shards: 1,
            workers: 1,
            telemetry: None,
            workload: None,
            scan: None,
            dims: 1,
            items_per_sec: 0.0,
        };
        let measured = best_of_3(inst.item_count(), || {
            run_cell_once(ENGINE_SCHEMA, &inst, &cell)
        })
        .unwrap();
        let baseline = Baseline {
            schema: "dbp-bench/engine-v1".into(),
            mode: "short".into(),
            host_parallelism: 1,
            degraded_parallelism: false,
            cells: vec![BaselineCell {
                items_per_sec: measured,
                ..cell
            }],
        };
        let report = run_check(&baseline, 20.0, 50.0).unwrap();
        assert!(
            !report.ok(),
            "a 50% injected slowdown must trip 20% tolerance"
        );
        assert_eq!(report.injected_pct, 50.0);
    }

    /// Regression: the gate used to treat `degraded_parallelism`-tagged
    /// baselines (multi-worker cells recorded on a 1-core host) as
    /// trustworthy and gated against their time-sliced numbers. Skip
    /// path: in a degraded file, a multi-worker cell claiming impossible
    /// throughput must be skipped, not regressed — while its
    /// single-worker cells still gate. Non-skip path: the identical
    /// multi-worker cell in an untagged file must still trip the gate.
    #[test]
    fn degraded_baseline_cells_are_skipped_but_untagged_ones_gate() {
        let degraded = r#"{ "schema": "dbp-bench/shard-v1", "mode": "short",
          "host_parallelism": 1, "degraded_parallelism": true,
          "results": [
            { "algo": "first-fit", "shards": 2, "workers": 2, "items_per_sec": 1e15 },
            { "algo": "first-fit", "shards": 1, "workers": 1, "items_per_sec": 0.001 }
          ] }"#;
        let b = parse_baseline(degraded).unwrap();
        assert!(b.degraded_parallelism);
        let report = run_check(&b, 20.0, 0.0).unwrap();
        assert!(
            report.ok(),
            "an impossible degraded multi-worker cell must be skipped, not gated"
        );
        assert_eq!(report.skipped().len(), 1);
        assert_eq!(report.skipped()[0].label, "first-fit/k2");
        assert!(
            !report.rows[1].skipped,
            "single-worker cells in a degraded file still gate"
        );
        let json = report.to_json();
        assert!(json.contains("\"skipped_cells\": 1"));
        assert!(json.contains("\"skipped\": true"));

        // Same multi-worker cell, file not tagged: gates and trips.
        let untagged = r#"{ "schema": "dbp-bench/shard-v1", "mode": "short",
          "host_parallelism": 1,
          "results": [
            { "algo": "first-fit", "shards": 2, "workers": 2, "items_per_sec": 1e15 }
          ] }"#;
        let b = parse_baseline(untagged).unwrap();
        assert!(!b.degraded_parallelism);
        let report = run_check(&b, 20.0, 0.0).unwrap();
        assert!(!report.ok(), "untagged impossible cell must regress");
        assert!(report.skipped().is_empty());
    }

    /// The `/d3` default cells' `corr-vec` ids arrive shuffled; a session
    /// that kept an id history grew with them (~460 KB at this size).
    #[test]
    fn d3_sessions_hold_no_id_history() {
        let inst = vector_baseline_instance("short", "default").unwrap();
        assert!(inst.items().windows(2).any(|w| w[0].id() > w[1].id()));
        let params = AlgoParams::from_vec_instance(&inst);
        for algo in crate::registry::VECTOR_ALGOS {
            let mut packer = vector_packer(algo, params);
            let mut session =
                VecStreamingSession::new(VecClairvoyance::Clairvoyant, packer.as_mut());
            for item in inst.items() {
                session.arrive(item).unwrap();
                let bytes = session.approx_live_bytes();
                assert!(bytes <= 64 * 1024, "{algo}: {bytes} live bytes");
            }
        }
    }

    #[test]
    fn tolerance_bounds_are_enforced() {
        let b = parse_baseline(TINY_SHARD).unwrap();
        assert!(run_check(&b, 100.0, 0.0).is_err());
        assert!(run_check(&b, -1.0, 0.0).is_err());
        assert!(run_check(&b, 20.0, 100.0).is_err());
    }
}
