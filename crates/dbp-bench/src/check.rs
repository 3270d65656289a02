//! The one place that says how a `BENCH_*.json` cell is built, timed
//! and written, and the perf-regression gate that re-times it.
//!
//! The three recorders (`bench_engine`, `bench_shard`,
//! `bench_telemetry`) and the gate (`dbp bench --check`) share:
//!
//! * the recipes: [`baseline_instance`] regenerates the instance a cell
//!   streams from the file's schema and mode and the cell's `workload`
//!   and `dims`, and [`Workloads`] builds each distinct one once;
//! * the runner: [`run_cell`] times one pass of one cell and returns
//!   every field its row records ([`CellRun`]);
//! * the writer: [`Recording::to_json`] writes every schema, with one
//!   provenance entry per workload (generator, recipe, seed, items);
//! * the flags: [`RecordArgs`] reads `--short`, `--serial` and `--out`.
//!
//! A recorder keeps only what is its own: its cell list, its repetition
//! (one timed pass per cell, or the telemetry recorder's warm-up plus 15
//! alternating rounds) and its summaries.
//!
//! | schema | cell key | timed run |
//! |---|---|---|
//! | `dbp-bench/engine-v1` | `algo`, `algo/d{D}` | plain [`StreamingSession`] over the scalar or the `D`-axis vector recipe |
//! | `dbp-bench/shard-v1` | `algo/k{K}` | [`ShardedSession`] with the recorded worker count |
//! | `dbp-bench/telemetry-v1` | `algo/{off,sampled}` | session without / with a [`TelemetryRecorder`] |
//!
//! `dbp bench --check BENCH_shard.json --tolerance 20` re-runs every cell
//! a baseline recorded, with the same recipe, and flags any cell whose
//! fresh throughput fell more than the tolerance below the recorded
//! `items_per_sec`.
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
//! `--inject <pct>` synthetically slows the fresh measurements to prove
//! the gate trips (CI runs the gate twice per baseline it checks: once
//! expecting exit 0, once with an injected regression expecting exit 5).

use crate::registry::{
    online_packer, online_packer_linear, vector_packer, vector_packer_linear, AlgoParams,
};
use crate::report::Table;
use crate::{run_grid, GridCell};
use dbp_core::observe::PackObserver;
use dbp_core::stream::{PackerHandle, StreamingSession};
use dbp_core::{
    ClairvoyanceMode, DbpError, Instance, Item, VecClairvoyance, VecInstance, VecStreamingSession,
};
use dbp_obs::json::{self, Json};
use dbp_shard::{ShardConfig, ShardRouter, ShardedSession};
use dbp_telemetry::TelemetryRecorder;
use dbp_workloads::random::{DurationDist, PoissonWorkload, SizeDist};
use dbp_workloads::vector::{CorrelatedVectorWorkload, VectorWorkload};
use dbp_workloads::Workload;
use std::fmt::Write as _;
use std::time::Instant;

/// Every benchmark binary streams this seed.
pub const SEED: u64 = 1;

/// The schema tag of `BENCH_engine.json`.
pub const ENGINE_SCHEMA: &str = "dbp-bench/engine-v1";
/// The schema tag of `BENCH_shard.json`.
pub const SHARD_SCHEMA: &str = "dbp-bench/shard-v1";
/// The schema tag of `BENCH_telemetry.json`.
pub const TELEMETRY_SCHEMA: &str = "dbp-bench/telemetry-v1";

/// Per-axis mean demands of the vector recipe; its length is the only
/// vector `dims` a baseline cell can name.
const VECTOR_MEANS: [f64; 3] = [0.3, 0.2, 0.45];

/// The parallelism of the machine this process runs on.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

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
    /// vector recipe ([`vector_workload`]).
    pub dims: usize,
    /// Recorded throughput.
    pub items_per_sec: f64,
}

impl BaselineCell {
    /// A single-worker, unsharded cell of `algo` on the schema's default
    /// scalar recipe, with no recorded throughput.
    pub fn new(algo: &str) -> BaselineCell {
        BaselineCell {
            algo: algo.into(),
            shards: 1,
            workers: 1,
            telemetry: None,
            workload: None,
            scan: None,
            dims: 1,
            items_per_sec: 0.0,
        }
    }

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
    /// `host_parallelism` (or, in older engine files,
    /// `parallel_workers`) the baseline recorded.
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
        ENGINE_SCHEMA | SHARD_SCHEMA | TELEMETRY_SCHEMA
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

/// How many times the short mode's items a baseline mode streams: full
/// mode's ~1M against short mode's ~100k.
fn scale(mode: &str) -> Result<i64, String> {
    match mode {
        "full" => Ok(10),
        "short" => Ok(1),
        other => Err(format!("unknown baseline mode {other:?}")),
    }
}

/// Exponential durations of mean `mean`, clamped to `[1, max]`.
fn exponential(mean: f64, max: i64) -> DurationDist {
    DurationDist::Exponential { mean, min: 1, max }
}

/// The scalar workload a baseline cell streams: every schema uses
/// Poisson(rate = 4) at seed 1; the shard benchmark's default recipe
/// deepens the fleet with mean-500 exponential durations (several
/// hundred open bins, the scan depth sharding divides), and `"deep"`
/// cells (the engine benchmark's 1000+-open-bin rows) use the even
/// longer mean-1000 exponential durations. Two more engine recipes keep
/// those durations: `"ties"` draws sizes from the catalog 1/16, 1/8,
/// 1/4, 1/2, so whole groups of bins share an exact level, and `"wide"`
/// arrives ten times faster over a tenth of the horizon, holding ~12k
/// bins open.
pub fn scalar_workload(
    schema: &str,
    mode: &str,
    workload: &str,
) -> Result<PoissonWorkload, String> {
    let horizon = 26_000 * scale(mode)?;
    let base = PoissonWorkload::new(4.0, horizon);
    let deep = exponential(1000.0, 10_000);
    Ok(match (schema, workload) {
        (SHARD_SCHEMA, "default") => base.with_durations(exponential(500.0, 5_000)),
        (_, "default") => base,
        (_, "deep") => base.with_durations(deep),
        (_, "ties") => base
            .with_durations(deep)
            .with_sizes(SizeDist::catalog(&[0.0625, 0.125, 0.25, 0.5]).map_err(|e| e.to_string())?),
        (_, "wide") => PoissonWorkload::new(40.0, horizon / 10).with_durations(deep),
        (_, other) => return Err(format!("unknown cell workload {other:?}")),
    })
}

/// The vector workload a `dims: 3` baseline cell streams: 3-axis
/// correlated demands (`ρ = 0.6`), exactly 1,050,000 items in full mode
/// and 105,000 in short mode. The `"deep"` variant stretches arrivals to
/// one per tick and holds items with mean-1000 exponential durations,
/// sustaining a fleet of hundreds of open bins — the cell that catches
/// vector scan-depth cliffs.
pub fn vector_workload(mode: &str, workload: &str) -> Result<CorrelatedVectorWorkload, String> {
    let n = 105_000 * scale(mode)? as usize;
    let base = CorrelatedVectorWorkload::new(n, &VECTOR_MEANS, 0.5, 0.6)
        .map_err(|e| format!("vector baseline workload: {e}"))?;
    match workload {
        "default" => Ok(base),
        "deep" => Ok(base
            .with_durations(exponential(1000.0, 10_000))
            .with_arrival_span(n as i64)),
        other => Err(format!("unknown cell workload {other:?}")),
    }
}

/// A workload recipe: the generator a cell's instance comes from.
enum Recipe {
    Scalar(PoissonWorkload),
    Vector(CorrelatedVectorWorkload),
}

impl Recipe {
    /// The recipe of a cell: the scalar [`scalar_workload`] at one axis,
    /// the vector [`vector_workload`] at its axis count (engine cells
    /// only).
    fn of(schema: &str, mode: &str, workload: &str, dims: usize) -> Result<Recipe, String> {
        if dims == 1 {
            return scalar_workload(schema, mode, workload).map(Recipe::Scalar);
        }
        if schema != ENGINE_SCHEMA || dims != VECTOR_MEANS.len() {
            return Err(format!("no {schema} recipe for {dims}-axis cells"));
        }
        vector_workload(mode, workload).map(Recipe::Vector)
    }

    fn generate(&self) -> BenchInstance {
        match self {
            // Disambiguated: the blanket `VectorWorkload` impl gives every
            // scalar workload a second `generate_seeded`.
            Recipe::Scalar(w) => BenchInstance::Scalar(Workload::generate_seeded(w, SEED)),
            Recipe::Vector(w) => BenchInstance::Vector(VectorWorkload::generate_seeded(w, SEED)),
        }
    }

    /// The provenance fields of the recipe's workload entry: the
    /// generator's name, its axis count or size catalog where the file
    /// has always said so, and the recipe — the generator's every
    /// parameter — which tells apart recipes that share a name.
    fn provenance(&self) -> String {
        let (name, extra, recipe) = match self {
            Recipe::Scalar(w) => {
                let extra = match w.sizes {
                    SizeDist::Catalog { sizes, len } => {
                        let sizes: Vec<String> = sizes[..len].iter().map(f64::to_string).collect();
                        format!(", \"sizes\": \"{}\"", sizes.join(","))
                    }
                    _ => String::new(),
                };
                (Workload::name(w), extra, format!("{w:?}"))
            }
            Recipe::Vector(w) => (
                VectorWorkload::name(w),
                format!(", \"dims\": {}", w.dims()),
                format!("{w:?}"),
            ),
        };
        format!(
            "\"generator\": \"{}\"{extra}, \"recipe\": \"{}\", \"seed\": {SEED}",
            json::escape(&name),
            json::escape(&recipe)
        )
    }
}

/// Regenerates the instance a baseline cell streamed from its recipe.
pub fn baseline_instance(
    schema: &str,
    mode: &str,
    workload: &str,
    dims: usize,
) -> Result<BenchInstance, String> {
    Recipe::of(schema, mode, workload, dims).map(|r| r.generate())
}

/// The instance a cell streams: scalar or vector demands.
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
}

/// One generated workload of a file: its entry key, provenance and
/// instance.
struct WorkloadEntry {
    workload: String,
    dims: usize,
    provenance: String,
    instance: BenchInstance,
}

impl WorkloadEntry {
    /// The entry's top-level key: `workload` for the default scalar
    /// recipe, `deep_workload`, `vector_workload`, `vector_deep_workload`…
    fn key(&self) -> String {
        let vector = if self.dims > 1 { "vector_" } else { "" };
        match self.workload.as_str() {
            "default" => format!("{vector}workload"),
            w => format!("{vector}{w}_workload"),
        }
    }
}

/// The instances a file's cells stream, each generated once from its
/// recipe, in the order the cells first name them.
pub struct Workloads {
    entries: Vec<WorkloadEntry>,
}

impl Workloads {
    /// Generates every instance `cells` name under `schema` and `mode`.
    pub fn build(schema: &str, mode: &str, cells: &[BaselineCell]) -> Result<Workloads, String> {
        let mut entries: Vec<WorkloadEntry> = Vec::new();
        for cell in cells {
            let (workload, dims) = (cell.workload_key(), cell.dims);
            if entries
                .iter()
                .any(|e| e.workload == workload && e.dims == dims)
            {
                continue;
            }
            let recipe = Recipe::of(schema, mode, workload, dims)?;
            entries.push(WorkloadEntry {
                workload: workload.into(),
                dims,
                provenance: recipe.provenance(),
                instance: recipe.generate(),
            });
        }
        Ok(Workloads { entries })
    }

    /// The instance `cell` streams.
    ///
    /// # Panics
    /// If the set was not built for `cell`.
    pub fn instance(&self, cell: &BaselineCell) -> &BenchInstance {
        let entry = self
            .entries
            .iter()
            .find(|e| e.workload == cell.workload_key() && e.dims == cell.dims);
        &entry.expect("workloads built for every cell").instance
    }

    /// Prints each workload's size and recipe under a recorder's title;
    /// in full mode, every workload must stream at least one million
    /// items.
    pub fn announce(&self, title: &str, mode: &str) {
        println!(
            "{title} ({mode}), seed {SEED}, host parallelism {}:",
            host_parallelism()
        );
        for e in &self.entries {
            let items = e.instance.item_count();
            println!("  {}: {items} items; {}", e.key(), e.provenance);
            assert!(
                mode != "full" || items >= 1_000_000,
                "full mode must stream at least one million items"
            );
        }
        println!();
    }
}

/// One timed cell: every field a `BENCH_*.json` row records.
#[derive(Clone, Copy, Debug)]
pub struct CellRun {
    /// Items streamed.
    pub items: usize,
    /// Wall time of the whole stream, departures and `finish` included.
    pub elapsed_s: f64,
    /// Most bins open at once (over the fleet, for sharded cells).
    pub peak_open_bins: usize,
    /// Peak of the session's live-memory proxy, sampled every 1024
    /// arrivals (0 for sharded cells).
    pub peak_live_bytes: usize,
    /// Bins opened over the run.
    pub bins_opened: usize,
    /// Total usage (bin-ticks, raw).
    pub usage: u128,
    /// The largest single shard's open-bin peak (`peak_open_bins` for an
    /// unsharded session).
    pub max_shard_peak: usize,
    /// The most-loaded shard's items over the mean (1 unsharded).
    pub imbalance: f64,
}

impl CellRun {
    /// Throughput of the timed pass.
    pub fn items_per_sec(&self) -> f64 {
        self.items as f64 / self.elapsed_s.max(f64::MIN_POSITIVE)
    }
}

/// Streams `items` through `session` to the end: the loop behind every
/// unsharded cell, for any demand type and observer.
fn stream_cell<P: PackerHandle, O: PackObserver<P::Demand>>(
    mut session: StreamingSession<'_, O, P>,
    items: &[Item<P::Demand>],
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
        items: items.len(),
        elapsed_s: started.elapsed().as_secs_f64(),
        peak_open_bins,
        peak_live_bytes,
        bins_opened: totals.bins_opened,
        usage: totals.usage,
        max_shard_peak: peak_open_bins,
        imbalance: 1.0,
    })
}

/// Times one pass of a cell over its instance: the runner every
/// recorder and the gate call. Foil cells run the linear-scan packer
/// variant they name; `shard-v1` cells run a hash-routed
/// [`ShardedSession`] of `shards` packers on `workers` threads, with no
/// metrics timelines; `sampled` telemetry cells attach a default
/// [`TelemetryRecorder`]; every other cell is a bare clairvoyant session.
pub fn run_cell(
    schema: &str,
    inst: &BenchInstance,
    cell: &BaselineCell,
) -> Result<CellRun, String> {
    let err = |e: DbpError| format!("{}: {e}", cell.label());
    let inst = match inst {
        BenchInstance::Vector(inst) => {
            let params = AlgoParams::from_instance(inst);
            let mut packer = if cell.linear_scan() {
                vector_packer_linear(&cell.algo, params)
            } else {
                vector_packer(&cell.algo, params)
            };
            let session = VecStreamingSession::new(VecClairvoyance::Clairvoyant, packer.as_mut());
            return stream_cell(session.into_inner(), inst.items()).map_err(err);
        }
        BenchInstance::Scalar(inst) => inst,
    };
    let make = || {
        let params = AlgoParams::from_instance(inst);
        if cell.linear_scan() {
            online_packer_linear(&cell.algo, params)
        } else {
            online_packer(&cell.algo, params)
        }
    };
    let mode = ClairvoyanceMode::Clairvoyant;
    match (schema, cell.telemetry.as_deref()) {
        (SHARD_SCHEMA, _) => {
            let shards = cell.shards.max(1);
            let cfg = ShardConfig {
                threads: Some(cell.workers.max(1)),
                collect_metrics: false,
                ..ShardConfig::new(shards, ShardRouter::hash())
            };
            let packers = (0..shards).map(|_| make()).collect();
            let mut fleet = ShardedSession::new(mode, packers, cfg).map_err(err)?;
            let started = Instant::now();
            for item in inst.items() {
                fleet.arrive(item).map_err(err)?;
            }
            let report = fleet.finish().map_err(err)?;
            let elapsed_s = started.elapsed().as_secs_f64();
            Ok(CellRun {
                items: report.items as usize,
                elapsed_s,
                peak_open_bins: report.peak_open_bins,
                peak_live_bytes: 0,
                bins_opened: report.bins_opened as usize,
                usage: report.usage,
                max_shard_peak: report
                    .slices
                    .iter()
                    .map(|s| s.peak_open_bins)
                    .max()
                    .unwrap_or(0),
                imbalance: report.balance().1,
            })
        }
        (_, Some("sampled")) => {
            let mut packer = make();
            let session =
                StreamingSession::with_observer(mode, packer.as_mut(), TelemetryRecorder::new());
            stream_cell(session, inst.items()).map_err(err)
        }
        _ => {
            let mut packer = make();
            stream_cell(StreamingSession::new(mode, packer.as_mut()), inst.items()).map_err(err)
        }
    }
}

/// Times one pass of every cell, on `workers` grid threads, and returns
/// the rows in cell order.
///
/// # Panics
/// If a cell fails to stream: every recipe is a valid stream.
pub fn run_cells(
    schema: &str,
    workloads: &Workloads,
    cells: Vec<BaselineCell>,
    workers: usize,
) -> Vec<(BaselineCell, CellRun)> {
    let cells = cells
        .into_iter()
        .map(|cell| GridCell {
            label: cell.label(),
            input: cell,
        })
        .collect();
    run_grid(cells, Some(workers), |cell: &BaselineCell| {
        let run =
            run_cell(schema, workloads.instance(cell), cell).expect("benchmark stream is valid");
        (cell.clone(), run)
    })
    .into_iter()
    .map(|r| r.output)
    .collect()
}

/// A recorder's command line: `[--short] [--serial] [--out PATH]`.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordArgs {
    /// `"short"` under `--short` (~100k items per workload, the CI
    /// smoke size), else `"full"` (~1M).
    pub mode: &'static str,
    /// `--serial`: the recorder's minimum-noise setting.
    pub serial: bool,
    /// Where to write the file (default `BENCH_<name>.json` in the
    /// working directory, i.e. the repo root).
    pub out: String,
}

impl RecordArgs {
    /// Reads a recorder's flags for `schema`'s file; `--serial` only
    /// where `serial_ok`. An unknown flag or `--out` without a value
    /// returns the usage line.
    pub fn parse(
        schema: &str,
        serial_ok: bool,
        args: impl IntoIterator<Item = String>,
    ) -> Result<RecordArgs, String> {
        let name = schema
            .trim_start_matches("dbp-bench/")
            .trim_end_matches("-v1");
        let serial = if serial_ok { " [--serial]" } else { "" };
        let usage = format!("usage: bench_{name} [--short]{serial} [--out PATH]");
        let mut parsed = RecordArgs {
            mode: "full",
            serial: false,
            out: format!("BENCH_{name}.json"),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--short" => parsed.mode = "short",
                "--serial" if serial_ok => parsed.serial = true,
                "--out" => parsed.out = args.next().ok_or_else(|| usage.clone())?,
                _ => return Err(usage),
            }
        }
        Ok(parsed)
    }

    /// [`RecordArgs::parse`] over the process's arguments; prints the
    /// usage line and exits 2 on a bad one.
    pub fn from_env(schema: &str, serial_ok: bool) -> RecordArgs {
        Self::parse(schema, serial_ok, std::env::args().skip(1)).unwrap_or_else(|usage| {
            eprintln!("{usage}");
            std::process::exit(2);
        })
    }
}

/// Renders `{ "algo": value, … }` over `algos`, each value at
/// `decimals` places: the per-algorithm summaries a file carries.
pub fn per_algo(algos: &[&str], decimals: usize, value: impl Fn(&str) -> f64) -> String {
    let pairs: Vec<String> = algos
        .iter()
        .map(|a| format!("\"{a}\": {:.decimals$}", value(a)))
        .collect();
    format!("{{ {} }}", pairs.join(", "))
}

/// One recorded `BENCH_*.json` file.
pub struct Recording<'a> {
    /// Schema tag; picks the row keys.
    pub schema: &'a str,
    /// `"full"` or `"short"`.
    pub mode: &'a str,
    /// The instances the rows streamed: one provenance entry each.
    pub workloads: &'a Workloads,
    /// The recorder's own top-level keys (values already JSON), written
    /// after `host_parallelism`.
    pub facts: Vec<(&'static str, String)>,
    /// One row per cell, in file order.
    pub rows: Vec<(BaselineCell, CellRun)>,
}

impl Recording<'_> {
    /// The run of the row whose cell `matches`.
    pub fn find(&self, matches: impl Fn(&BaselineCell) -> bool) -> Option<&CellRun> {
        self.rows.iter().find(|(c, _)| matches(c)).map(|(_, r)| r)
    }

    /// The file: `schema`, `mode`, one entry per workload,
    /// `host_parallelism`, the recorder's facts (plus `router` in a
    /// shard file), then one row per cell with its schema's keys.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{}\",", self.schema);
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        for e in &self.workloads.entries {
            let items = e.instance.item_count();
            let _ = writeln!(
                out,
                "  \"{}\": {{ {}, \"items\": {items} }},",
                e.key(),
                e.provenance
            );
        }
        let _ = writeln!(out, "  \"host_parallelism\": {},", host_parallelism());
        if self.schema == SHARD_SCHEMA {
            let _ = writeln!(out, "  \"router\": \"{}\",", ShardRouter::hash().name());
        }
        for (key, value) in &self.facts {
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        out.push_str("  \"results\": [\n");
        for (i, (cell, run)) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{comma}", self.row(cell, run));
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn row(&self, cell: &BaselineCell, run: &CellRun) -> String {
        let mut row = format!("{{ \"algo\": \"{}\"", json::escape(&cell.algo));
        let _ = match self.schema {
            ENGINE_SCHEMA => write!(
                row,
                ", \"workload\": \"{}\", \"scan\": \"{}\", \"dims\": {}",
                json::escape(cell.workload_key()),
                if cell.linear_scan() {
                    "linear"
                } else {
                    "indexed"
                },
                cell.dims
            ),
            SHARD_SCHEMA => write!(
                row,
                ", \"shards\": {}, \"workers\": {}",
                cell.shards, cell.workers
            ),
            _ => write!(
                row,
                ", \"telemetry\": \"{}\"",
                json::escape(cell.telemetry.as_deref().unwrap_or("off"))
            ),
        };
        let _ = write!(
            row,
            ", \"items\": {}, \"elapsed_s\": {:.6}, \"items_per_sec\": {:.0}, \
             \"bins_opened\": {}, \"usage\": {}",
            run.items,
            run.elapsed_s,
            run.items_per_sec(),
            run.bins_opened,
            run.usage
        );
        let _ = match self.schema {
            ENGINE_SCHEMA => write!(
                row,
                ", \"peak_open_bins\": {}, \"peak_live_bytes\": {}",
                run.peak_open_bins, run.peak_live_bytes
            ),
            SHARD_SCHEMA => write!(
                row,
                ", \"peak_open_bins\": {}, \"max_shard_peak\": {}, \"imbalance\": {:.4}",
                run.peak_open_bins, run.max_shard_peak, run.imbalance
            ),
            _ => Ok(()),
        };
        row.push_str(" }");
        row
    }

    /// Prints the rows as a table, writes the file to `out`, and ends
    /// with `OK`.
    ///
    /// # Panics
    /// If the file cannot be written.
    pub fn write(&self, out: &str) {
        let mut table = Table::new(&["cell", "items/s", "elapsed_s", "peak_open", "bins", "usage"]);
        for (cell, run) in &self.rows {
            table.row(&[
                cell.label(),
                format!("{:.0}", run.items_per_sec()),
                format!("{:.3}", run.elapsed_s),
                run.peak_open_bins.to_string(),
                run.bins_opened.to_string(),
                run.usage.to_string(),
            ]);
        }
        table.print();
        std::fs::write(out, self.to_json()).expect("write benchmark report");
        println!("\nwrote {out}");
        println!("OK");
    }
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
    let workloads = Workloads::build(&baseline.schema, &baseline.mode, &baseline.cells)?;
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
        let inst = workloads.instance(cell);
        let fresh = best_of_3(inst.item_count(), || {
            run_cell(&baseline.schema, inst, cell).map(|run| run.elapsed_s)
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
        host_parallelism: host_parallelism(),
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
        assert!(vector_workload("short", "shallow").is_err());
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
        assert!(matches!(inst, BenchInstance::Vector(ref v) if v.dims() == 3));
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
        let cell = BaselineCell::new("first-fit");
        let measured = best_of_3(inst.item_count(), || {
            run_cell(ENGINE_SCHEMA, &inst, &cell).map(|run| run.elapsed_s)
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
        let Ok(BenchInstance::Vector(inst)) =
            baseline_instance(ENGINE_SCHEMA, "short", "default", 3)
        else {
            panic!("the 3-axis recipe is a vector instance");
        };
        assert!(inst.items().windows(2).any(|w| w[0].id() > w[1].id()));
        let params = AlgoParams::from_instance(&inst);
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

    /// The writer keeps every key the committed files carry: each
    /// committed file's cells, written back through [`Recording`] (with
    /// placeholder runs and no recorder summaries), carry a superset of
    /// its row keys and of its other top-level keys, and parse back to
    /// the same cells. Its workload entries each name
    /// their recipe, so the three Poisson recipes that share the name
    /// `poisson(rate=4,horizon=…)` read apart.
    #[test]
    fn every_schema_round_trips_through_the_one_writer() {
        fn keys(j: &Json) -> std::collections::BTreeSet<String> {
            match j {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
                _ => Default::default(),
            }
        }
        let run = CellRun {
            items: 10,
            elapsed_s: 0.5,
            peak_open_bins: 3,
            peak_live_bytes: 64,
            bins_opened: 7,
            usage: 99,
            max_shard_peak: 2,
            imbalance: 1.25,
        };
        let mut recipes = std::collections::HashMap::new();
        for committed in [
            include_str!("../../../BENCH_engine.json"),
            include_str!("../../../BENCH_shard.json"),
            include_str!("../../../BENCH_telemetry.json"),
        ] {
            let before = parse_baseline(committed).unwrap();
            let workloads = Workloads::build(&before.schema, "short", &before.cells).unwrap();
            let recording = Recording {
                schema: &before.schema,
                mode: "short",
                workloads: &workloads,
                facts: Vec::new(),
                rows: before.cells.iter().map(|c| (c.clone(), run)).collect(),
            };
            let text = recording.to_json();
            let after = parse_baseline(&text).unwrap();
            let labels = |b: &Baseline| b.cells.iter().map(BaselineCell::label).collect::<Vec<_>>();
            assert_eq!(labels(&after), labels(&before), "{}", before.schema);
            assert!(after.cells.iter().all(|c| c.items_per_sec == 20.0));
            assert_eq!(after.host_parallelism, host_parallelism());

            let (old, new) = (json::parse(committed).unwrap(), json::parse(&text).unwrap());
            // The recorders' own summaries are theirs to write.
            let summaries = [
                "parallel_workers",
                "degraded_parallelism",
                "speedup_8v1",
                "overhead_pct",
            ];
            let missing: Vec<String> = keys(&old)
                .difference(&keys(&new))
                .filter(|k| !summaries.contains(&k.as_str()))
                .cloned()
                .collect();
            assert!(missing.is_empty(), "{}: lost {missing:?}", before.schema);
            let row_keys = |j: &Json| {
                let rows = j.field::<&[Json]>("results").unwrap();
                rows.iter()
                    .flat_map(keys)
                    .collect::<std::collections::BTreeSet<_>>()
            };
            let missing: Vec<_> = row_keys(&old)
                .difference(&row_keys(&new))
                .cloned()
                .collect();
            assert!(
                missing.is_empty(),
                "{} rows: lost {missing:?}",
                before.schema
            );
            for e in &workloads.entries {
                let entry = new.get(&e.key()).unwrap();
                let recipe: String = entry.field("recipe").unwrap();
                recipes.insert((before.schema.clone(), e.key()), recipe);
                assert_eq!(
                    entry.field::<usize>("items").unwrap(),
                    e.instance.item_count()
                );
            }
        }
        let recipe = |schema: &str, key: &str| &recipes[&(schema.to_string(), key.to_string())];
        let default = recipe(ENGINE_SCHEMA, "workload");
        assert_eq!(
            default,
            recipe(TELEMETRY_SCHEMA, "workload"),
            "one default recipe"
        );
        assert_ne!(default, recipe(SHARD_SCHEMA, "workload"));
        assert_ne!(default, recipe(ENGINE_SCHEMA, "deep_workload"));
        assert_ne!(
            recipe(SHARD_SCHEMA, "workload"),
            recipe(ENGINE_SCHEMA, "deep_workload")
        );
        assert_ne!(
            recipe(ENGINE_SCHEMA, "vector_workload"),
            recipe(ENGINE_SCHEMA, "vector_deep_workload")
        );
    }

    /// One timed pass of a cell of each schema: a shard cell reports its
    /// fleet, and the packing is the same with telemetry on or off.
    #[test]
    fn the_one_runner_times_every_schema() {
        let cells = [
            (ENGINE_SCHEMA, BaselineCell::new("first-fit")),
            (
                SHARD_SCHEMA,
                BaselineCell {
                    shards: 2,
                    workers: 2,
                    ..BaselineCell::new("first-fit")
                },
            ),
            (
                TELEMETRY_SCHEMA,
                BaselineCell {
                    telemetry: Some("sampled".into()),
                    ..BaselineCell::new("first-fit")
                },
            ),
        ];
        let mut runs = Vec::new();
        for (schema, cell) in cells {
            let workloads = Workloads::build(schema, "short", std::slice::from_ref(&cell)).unwrap();
            let inst = workloads.instance(&cell);
            let run = run_cell(schema, inst, &cell).unwrap();
            assert_eq!(run.items, inst.item_count());
            assert!(run.elapsed_s > 0.0 && run.bins_opened > 0);
            runs.push(run);
        }
        assert!(
            runs[1].max_shard_peak < runs[1].peak_open_bins,
            "two shards split the fleet"
        );
        assert!(runs[1].imbalance >= 1.0);
        assert_eq!(
            (runs[0].bins_opened, runs[0].usage),
            (runs[2].bins_opened, runs[2].usage),
            "telemetry must not change the packing"
        );
    }

    #[test]
    fn recorders_read_one_flag_set() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let parsed = RecordArgs::parse(SHARD_SCHEMA, true, args(&[])).unwrap();
        assert_eq!(parsed.mode, "full");
        assert!(!parsed.serial);
        assert_eq!(parsed.out, "BENCH_shard.json");
        let parsed = RecordArgs::parse(
            ENGINE_SCHEMA,
            true,
            args(&["--short", "--serial", "--out", "x.json"]),
        )
        .unwrap();
        assert_eq!(
            (parsed.mode, parsed.serial, parsed.out.as_str()),
            ("short", true, "x.json")
        );
        assert_eq!(
            RecordArgs::parse(TELEMETRY_SCHEMA, false, args(&["--serial"])),
            Err("usage: bench_telemetry [--short] [--out PATH]".into()),
            "the telemetry recorder takes no --serial"
        );
        assert_eq!(
            RecordArgs::parse(ENGINE_SCHEMA, true, args(&["--out"])),
            Err("usage: bench_engine [--short] [--serial] [--out PATH]".into())
        );
        assert!(RecordArgs::parse(SHARD_SCHEMA, true, args(&["--bogus"])).is_err());
    }

    #[test]
    fn tolerance_bounds_are_enforced() {
        let b = parse_baseline(TINY_SHARD).unwrap();
        assert!(run_check(&b, 100.0, 0.0).is_err());
        assert!(run_check(&b, -1.0, 0.0).is_err());
        assert!(run_check(&b, 20.0, 100.0).is_err());
    }
}
