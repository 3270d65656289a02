//! `dbp` — command-line interface to the clairvoyant-dbp toolkit.
//!
//! ```text
//! dbp generate --workload gaming --n 500 --seed 7 --out trace.csv
//! dbp bounds   --trace trace.csv
//! dbp pack     --trace trace.csv --algo cbdt
//! dbp compare  --trace trace.csv
//! dbp chaos    --cases 200 --seed 3
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy
//! keeps the tree to rand/serde/crossbeam/parking_lot/proptest/criterion);
//! flags are `--key value` pairs after a subcommand.
//!
//! Exit codes are stable and scriptable:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 2 | usage error (bad subcommand, flag, or value) |
//! | 3 | I/O or trace-format error |
//! | 4 | runtime error (engine failure, packing validation) |
//! | 5 | audit / chaos / shard-audit / telemetry violations found |

use clairvoyant_dbp::audit::diff::clairvoyance_for;
use clairvoyant_dbp::audit::fixture::Fixture;
use clairvoyant_dbp::audit::shrink::Shrinkable;
use clairvoyant_dbp::core::accounting::lower_bounds;
use clairvoyant_dbp::core::stats::instance_stats;
use clairvoyant_dbp::prelude::*;
use clairvoyant_dbp::workloads::random::{PoissonWorkload, UniformWorkload};
use clairvoyant_dbp::workloads::scenarios::{
    AnalyticsWorkload, CloudGamingWorkload, DiurnalWorkload, SpikeWorkload,
};
use clairvoyant_dbp::workloads::trace;
use dbp_bench::registry::{
    needs_departures, offline_packer, online_packer, AlgoParams, OFFLINE_ALGOS, ONLINE_ALGOS,
};
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
dbp — Clairvoyant MinUsageTime Dynamic Bin Packing toolkit

USAGE:
  dbp generate --workload <uniform|poisson|gaming|analytics|diurnal|spike>
               [--n <items>] [--seed <u64>] [--out <file>]
  dbp bounds   --trace <file>
  dbp pack     --trace <file> --algo <name> [--offline] [--non-clairvoyant]
               [--shards <k>] [--router <hash[:seed]|size|tag[:rho]>]
               [--threads <n>] [--trace-out <file.jsonl>] [--metrics <file.csv>]
               [--dims <1-4>]
  dbp replay   --trace <file.jsonl>
  dbp report   --trace <file> --algo <name> [--offline]
  dbp compare  --trace <file>
  dbp bench    [--workload <kind>] [--n <items>] [--seeds <n>] [--threads <n>]
               [--dims <1-4>]
               | --check <BENCH_*.json> [--tolerance <pct>] [--inject <pct>]
               [--report <file>]
  dbp audit    [--cases <n>] [--seed <u64>] [--max-items <n>] [--threads <n>]
               [--no-offline] [--fixtures-dir <dir>] [--self-test]
               [--dims <1-4>]
  dbp chaos    [--cases <n>] [--seed <u64>] [--max-items <n>] [--threads <n>]
               [--fixtures-dir <dir>] [--self-test]
  dbp shard-audit [--cases <n>] [--seed <u64>] [--max-items <n>]
               [--threads <n>] [--fixtures-dir <dir>]
  dbp telemetry-audit [--cases <n>] [--seed <u64>] [--max-items <n>]
               [--threads <n>]
  dbp prof     [--trace <file> | --workload <kind> --n <items> --seed <u64>]
               [--algo <name>] [--batch <items>] [--sampled]
               [--out-folded <file>] [--out-chrome <file>] [--out-prom <file>]
               [--self-test [--shards <k>]]
  dbp serve    [--addr <host:port>] [--port-file <file>] [--shards <k>]
               [--algo <name>] [--router <hash[:seed]|size|tag[:rho]>]
               [--fleet-cap <bins>] [--checkpoint-dir <dir>]
               [--checkpoint-every <decisions>] [--conn-workers <n>]
               [--wal-dir <dir>] [--fsync <always|interval[:ms]|never>]
               [--delta <ticks>] [--mu <ratio>]
  dbp serve-torture [--self-test] [--jobs <n>] [--stride <k>]
               [--checkpoint-every <decisions>] [--algo <name>]
               [--fsync <policy>] [--scratch <dir>]
  dbp algos

Online algorithms take their Theorem 4/5 optimal parameters from the
trace's measured Δ and μ. `dbp algos` lists the rosters.

`pack --trace-out` streams every packing decision as JSONL;
`pack --metrics` exports the time-series metrics (active bins, S(t),
⌈S(t)⌉, instantaneous ratio vs LB3) as CSV. `replay` reconstructs a
packing from a JSONL decision trace and verifies it bit-for-bit.

`audit` fuzzes the full roster with seeded random + adversarial
instances, checking every invariant (capacity, no-migration, usage
accounting, the Prop 1-3 bound chain, Theorem 4/5 ceilings) and
cross-checking batch vs streaming vs replay vs the reference engine.
Failures are shrunk to minimal instances and written as JSON fixtures
under --fixtures-dir (default audit-fixtures). `audit --self-test`
injects known-faulty packers and proves the catch -> shrink -> persist
pipeline. See docs/auditing.md.

`--dims D` switches `pack`, `bench`, and `audit` onto the dynamic
*vector* bin packing stack (per-axis feasibility, D <= 4 resource
axes). `pack --dims D` lifts the scalar trace onto D identical axes and
streams it through the vector roster (the Any-Fit and classify families
plus the dot-product and max-norm heuristics); `bench --dims D` sweeps
that roster over seeded correlated D-axis workloads; `audit --dims D`
runs the vector invariant family — indexed vs linear-scan foils,
per-axis capacity, the max-axis lower bound, dim-1 scalar equivalence,
and batch-reference differentials — shrinking failures to vector
fixtures. See docs/vector-packing.md.

`pack --shards K` streams the trace through a sharded fleet of K
independent sessions partitioned by `--router` (default `hash`), with
`--threads` worker threads, and prints the deterministically merged
fleet report plus a per-shard table. Sharding trades packing quality
(each shard rounds its own load up) for scan-bounded throughput; see
docs/performance.md.

`bench` evaluates the online roster over seeded workload replicas on
the panic-isolated experiment grid (`--threads` workers; a poisoned
cell reports in place instead of aborting the sweep).

`bench --check` is the perf-regression gate: it re-runs every cell a
checked-in `BENCH_{engine,shard,telemetry}.json` baseline recorded
(same workload recipe, fresh timings) and exits 5 when any cell's
throughput fell more than `--tolerance` percent (default 25) below the
baseline. `--inject` slows the fresh runs synthetically to prove the
gate trips; `--report` writes the per-cell comparison JSON. Run it from
a release build — debug timings regress against any release baseline.

`shard-audit` sweeps the sharded coordinator against plain-session
references: per-shard bit-identity, exactly-once item accounting, and
the merged run's coverage + capacity on the original instance, with
failures shrunk and persisted like `audit`.

`prof` drives one online algorithm over a trace (or generated workload)
under full telemetry and prints a percentile table: deterministic work
histograms (candidates scanned, open bins, bin lifetimes) and wall-clock
latency histograms (decide, departures, finish). `--sampled` times one
arrival in 64 instead of all — production overhead, coarser
percentiles. `--out-folded` writes flamegraph-ready folded stacks,
`--out-chrome` a chrome://tracing JSON, `--out-prom` a Prometheus text
exposition. `prof --self-test` proves the determinism contract: work
histograms bit-identical across two replays, and fleet-merged work
histograms identical for worker counts {1, K}; exits 5 on any mismatch.

`telemetry-audit` sweeps the same contract across the roster, routers,
and seeded instances (the audit-family version of `prof --self-test`).

`serve` boots the long-running multi-tenant scheduling service
(dbp-serve): line-delimited JSON over TCP, per-tenant accounting, a
global `--fleet-cap` that sheds (typed rejects) instead of erroring,
periodic checkpoints under `--checkpoint-dir`, and bit-identical
restore after a crash. `--addr host:0` picks a free port; with
`--port-file` the bound address is also written to a file for scripts.
`GET /metrics` on the same port scrapes the Prometheus exposition.
Drive it with the `load_serve` generator; see docs/serving.md.

With `--wal-dir` the service also write-ahead-logs every decision
(checksummed frames, `--fsync` policy, segments rotated and pruned at
checkpoints): restart = newest good checkpoint + WAL replay, so every
acknowledged decision survives `kill -9`, bit-identically.
`serve-torture` proves it — a deterministic sweep that injects an IO
failure at every WAL/checkpoint IO boundary in turn (`--stride` to
sample) and checks recovery from each prefix plus corruption drills
(torn tails, bit flips, CRC-consistent rewrites); exit 5 on any
violation. The environment knob DBP_CRASH_AT_IO=<n> aborts the whole
process at global IO op n instead (the CI kill-grade drill). The
serving path's throughput, latency and recovery time are measured by
the repository benchmark's serve-* workloads (BENCHMARK.json). See
docs/serving.md.

`chaos` sweeps the roster under seeded fault injection (spot
revocations, rack failures, crashes) with rotating recovery and
admission policies, checking exactly-once job accounting, post-recovery
capacity, and checkpoint/resume bit-identity. `chaos --self-test` proves
the three resilience pillars on built-in scenarios. See
docs/resilience.md.

Exit codes: 0 ok, 2 usage, 3 I/O or trace format, 4 runtime/validation,
5 audit, chaos, shard-audit, telemetry-audit, serve-torture, prof
--self-test, or bench --check violations.";

/// A classified CLI failure; the variant fixes the process exit code.
enum CliError {
    /// Bad subcommand, flag, or flag value → exit 2.
    Usage(String),
    /// Filesystem or trace-format failure → exit 3.
    Io(String),
    /// Engine or validation failure at runtime → exit 4.
    Runtime(String),
    /// The sweep ran and found real violations → exit 5.
    Violations(String),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Runtime(_) => 4,
            CliError::Violations(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Io(m)
            | CliError::Runtime(m)
            | CliError::Violations(m) => m,
        }
    }
}

fn io_err(e: impl std::fmt::Display) -> CliError {
    CliError::Io(e.to_string())
}

fn runtime_err(e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "generate" => generate(&flags),
        "bounds" => bounds(&flags),
        "pack" => pack(&flags),
        "replay" => replay(&flags),
        "report" => report(&flags),
        "compare" => compare(&flags),
        "bench" => bench(&flags),
        "audit" => audit(&flags),
        "chaos" => chaos(&flags),
        "shard-audit" => shard_audit(&flags),
        "telemetry-audit" => telemetry_audit(&flags),
        "prof" => prof(&flags),
        "serve" => serve(&flags),
        "serve-torture" => serve_torture(&flags),
        "algos" => {
            println!("online:  {}", ONLINE_ALGOS.join(", "));
            println!("offline: {}", OFFLINE_ALGOS.join(", "));
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            if matches!(e, CliError::Usage(_)) {
                eprintln!("\n{USAGE}");
            }
            ExitCode::from(e.code())
        }
    }
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(key) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got {key:?}"));
        };
        // Boolean flags: next token is another flag or absent.
        let value = match it.clone().next() {
            Some(v) if !v.starts_with("--") => {
                it.next();
                v.clone()
            }
            _ => "true".to_string(),
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, CliError> {
    flags
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
}

fn get_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --{key} value {v:?}"))),
    }
}

/// Parses `--threads`, rejecting 0 up front: the grid runner and the
/// shard coordinator would silently clamp it to 1, which is never what
/// a script asking for zero threads meant — fail loudly as a usage
/// error instead.
fn get_threads(flags: &HashMap<String, String>) -> Result<Option<usize>, CliError> {
    match flags.get("threads") {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => Err(CliError::Usage(
                "--threads must be at least 1 (0 would be silently clamped)".into(),
            )),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(CliError::Usage(format!("bad --threads value {v:?}"))),
        },
    }
}

/// The clairvoyance mode each roster algorithm expects: the paper's
/// clairvoyant family needs departure times, the classical family must
/// not see them.
/// Parses a present `--dims` flag: the number of resource axes for the
/// vector stack, `1..=MAX_DIMS`.
fn parse_dims(flags: &HashMap<String, String>) -> Result<usize, CliError> {
    use clairvoyant_dbp::core::MAX_DIMS;
    let dims: usize = get_num(flags, "dims", 1)?;
    if (1..=MAX_DIMS).contains(&dims) {
        Ok(dims)
    } else {
        Err(CliError::Usage(format!(
            "--dims must be between 1 and {MAX_DIMS}, got {dims}"
        )))
    }
}

fn load_trace(flags: &HashMap<String, String>) -> Result<Instance, CliError> {
    let path = get(flags, "trace")?;
    trace::load(path).map_err(io_err)
}

/// Checks an `--algo` value against a roster before handing it to the
/// registry (whose lookup panics on unknown names).
fn known_algo(algo: &str, roster: &[&str], what: &str) -> Result<(), CliError> {
    if roster.contains(&algo) {
        Ok(())
    } else {
        Err(CliError::Usage(format!(
            "unknown {what} algorithm {algo:?}; available: {}",
            roster.join(", ")
        )))
    }
}

/// Refuses `--non-clairvoyant` for a packer that classifies by departure
/// times: it would have nothing to classify by.
fn check_clairvoyance(flags: &HashMap<String, String>, algo: &str) -> Result<(), CliError> {
    if flags.contains_key("non-clairvoyant") && needs_departures(algo) {
        return Err(CliError::Usage(format!(
            "--non-clairvoyant hides departure times, but {algo} classifies by them"
        )));
    }
    Ok(())
}

/// Builds the named workload's seeded instance, or `None` for an
/// unknown kind (shared by `generate` and `bench`).
fn make_instance(kind: &str, n: usize, seed: u64) -> Option<Instance> {
    Some(match kind {
        "uniform" => UniformWorkload::new(n).generate_seeded(seed),
        "poisson" => PoissonWorkload::new(0.5, (n as i64 * 2).max(10)).generate_seeded(seed),
        "gaming" => CloudGamingWorkload::new(n, (n as i64 * 20).max(3600)).generate_seeded(seed),
        "analytics" => AnalyticsWorkload::new((n / 10).max(1), 1000, 10).generate_seeded(seed),
        "diurnal" => DiurnalWorkload::new(n, 86_400, 1, 0.8).generate_seeded(seed),
        "spike" => SpikeWorkload::new((n / 50).max(1), 50, 1000).generate_seeded(seed),
        _ => return None,
    })
}

fn generate(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let kind = get(flags, "workload")?;
    let n: usize = get_num(flags, "n", 500)?;
    let seed: u64 = get_num(flags, "seed", 0)?;
    let inst = make_instance(kind, n, seed)
        .ok_or_else(|| CliError::Usage(format!("unknown workload {kind:?}")))?;
    match flags.get("out") {
        Some(path) => {
            trace::save(&inst, path).map_err(io_err)?;
            eprintln!("wrote {} items to {path}", inst.len());
        }
        None => print!("{}", trace::to_string(&inst)),
    }
    Ok(())
}

fn bounds(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let inst = load_trace(flags)?;
    let stats = instance_stats(&inst).ok_or_else(|| runtime_err("empty trace"))?;
    let lb = lower_bounds(&inst);
    println!("items:            {}", stats.items);
    println!("span:             {} ticks", stats.span);
    println!(
        "durations:        {} .. {} (mu = {:.2})",
        stats.min_duration, stats.max_duration, stats.mu
    );
    println!(
        "sizes:            {:.4} .. {:.4} (mean {:.4})",
        stats.min_size, stats.max_size, stats.mean_size
    );
    println!(
        "peak load:        {:.2} (needs >= {} servers at peak)",
        stats.peak_load, stats.peak_server_floor
    );
    println!("peak concurrency: {} items", stats.peak_concurrency);
    println!("LB demand (P1):   {:.1} ticks", lb.demand.ticks_f64());
    println!("LB span   (P2):   {} ticks", lb.span);
    println!("LB3       (P3):   {} ticks  <- tightest", lb.lb3);
    Ok(())
}

fn pack(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let inst = load_trace(flags)?;
    let algo = get(flags, "algo")?;
    if flags.contains_key("dims") {
        return pack_vector(flags, &inst, algo);
    }
    let lb = lower_bounds(&inst);
    let offline = flags.contains_key("offline");
    known_algo(
        algo,
        if offline { OFFLINE_ALGOS } else { ONLINE_ALGOS },
        if offline { "offline" } else { "online" },
    )?;
    if !offline {
        check_clairvoyance(flags, algo)?;
    }
    if flags.contains_key("shards") {
        if offline {
            return Err(CliError::Usage(
                "--shards streams online sessions; it cannot be combined with --offline".into(),
            ));
        }
        return pack_sharded(flags, &inst, algo);
    }

    // Optional observers: a JSONL decision trace and/or a metrics
    // time series. Both are `Option<_>` observers composed with `Tee`,
    // so the plain path stays a plain engine run. The drain below pairs
    // each observer back with its path via the same flag lookup.
    let writer = match flags.get("trace-out") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| io_err(format!("cannot create {path}: {e}")))?;
            Some(dbp_obs::TraceWriter::new(std::io::BufWriter::new(file)))
        }
        None => None,
    };
    let mut obs = Tee(
        writer,
        flags
            .contains_key("metrics")
            .then(dbp_obs::MetricsAggregator::new),
    );

    let (name, usage, bins) = if offline {
        let packer = offline_packer(algo);
        let packing = packer.pack(&inst);
        packing.validate(&inst).map_err(runtime_err)?;
        dbp_obs::emit_packing(&inst, &packing, &mut obs).map_err(runtime_err)?;
        (
            packer.name().to_string(),
            packing.total_usage(&inst),
            packing.num_bins(),
        )
    } else {
        let params = AlgoParams::from_instance(&inst);
        let mut packer = online_packer(algo, params);
        let mode = if flags.contains_key("non-clairvoyant") {
            ClairvoyanceMode::NonClairvoyant
        } else {
            ClairvoyanceMode::Clairvoyant
        };
        let run = OnlineEngine::new(mode)
            .run_observed(&inst, packer.as_mut(), &mut obs)
            .map_err(runtime_err)?;
        run.packing.validate(&inst).map_err(runtime_err)?;
        (packer.name(), run.usage, run.bins_opened())
    };
    println!("algorithm:   {name}");
    println!("usage:       {usage} ticks");
    println!("bins:        {bins}");
    println!("ratio vs LB: {:.4}", usage as f64 / lb.best().max(1) as f64);
    if let (Some(w), Some(path)) = (obs.0, flags.get("trace-out")) {
        let lines = w.lines_written();
        w.finish()
            .map_err(|e| io_err(format!("writing {path}: {e}")))?;
        eprintln!("trace:       {lines} events -> {path}");
    }
    if let (Some(agg), Some(path)) = (obs.1, flags.get("metrics")) {
        let report = agg.report();
        std::fs::write(path, report.to_csv())
            .map_err(|e| io_err(format!("writing {path}: {e}")))?;
        eprintln!(
            "metrics:     {} bins closed -> {path} (mean utilization {:.1}%)",
            report.bins_closed,
            report.mean_utilization * 100.0
        );
    }
    Ok(())
}

/// The `pack --dims D` path: lift the scalar trace onto `D` identical
/// axes and stream it through the vector roster, optionally writing the
/// per-axis JSONL decision trace via `--trace-out`.
fn pack_vector(
    flags: &HashMap<String, String>,
    inst: &Instance,
    algo: &str,
) -> Result<(), CliError> {
    use clairvoyant_dbp::core::{VecClairvoyance, VecInstance, VecStreamingSession};
    use dbp_bench::registry::{vector_packer, VECTOR_ALGOS};

    let dims = parse_dims(flags)?;
    known_algo(algo, VECTOR_ALGOS, "vector")?;
    check_clairvoyance(flags, algo)?;
    for unsupported in ["offline", "shards", "metrics"] {
        if flags.contains_key(unsupported) {
            return Err(CliError::Usage(format!(
                "--{unsupported} is not supported with --dims (vector packing is \
                 streaming-only; metrics aggregation is scalar-only)"
            )));
        }
    }

    let vinst = VecInstance::lift(inst, dims);
    let params = AlgoParams::from_vec_instance(&vinst);
    let mut packer = vector_packer(algo, params);
    let mode = if flags.contains_key("non-clairvoyant") {
        VecClairvoyance::NonClairvoyant
    } else {
        VecClairvoyance::Clairvoyant
    };
    let run = match flags.get("trace-out") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| io_err(format!("cannot create {path}: {e}")))?;
            let mut writer = dbp_obs::TraceWriter::new(std::io::BufWriter::new(file));
            let run = VecStreamingSession::run_observed(mode, &vinst, packer.as_mut(), &mut writer)
                .map_err(runtime_err)?;
            let lines = writer.lines_written();
            writer
                .finish()
                .map_err(|e| io_err(format!("writing {path}: {e}")))?;
            eprintln!("trace:       {lines} events -> {path}");
            run
        }
        None => VecStreamingSession::run(mode, &vinst, packer.as_mut()).map_err(runtime_err)?,
    };
    vinst.validate_packing(&run.packing).map_err(runtime_err)?;
    let lb = vinst.vector_lower_bound();
    println!("algorithm:   {} ({dims} axes)", packer.name());
    println!("usage:       {} ticks", run.usage);
    println!("bins:        {}", run.bins_opened());
    println!(
        "ratio vs LB: {:.4} (max-axis bound)",
        run.usage as f64 / lb.max(1) as f64
    );
    Ok(())
}

/// The `pack --shards K` path: stream the trace through a sharded
/// fleet, verify the merged run against the full instance, and print
/// the fleet report plus a per-shard table. The observer flags keep
/// their unsharded meaning — `--trace-out` writes the shard-tagged
/// JSONL decision stream, `--metrics` the merged time series.
fn pack_sharded(
    flags: &HashMap<String, String>,
    inst: &Instance,
    algo: &str,
) -> Result<(), CliError> {
    let shards: usize = get_num(flags, "shards", 1)?;
    if shards == 0 {
        return Err(CliError::Usage("--shards must be at least 1".into()));
    }
    let router = match flags.get("router") {
        Some(spec) => ShardRouter::parse(spec).map_err(|e| CliError::Usage(e.to_string()))?,
        None => ShardRouter::hash(),
    };
    let mode = if flags.contains_key("non-clairvoyant") {
        ClairvoyanceMode::NonClairvoyant
    } else {
        ClairvoyanceMode::Clairvoyant
    };
    let cfg = ShardConfig {
        threads: get_threads(flags)?,
        collect_metrics: flags.contains_key("metrics"),
        collect_events: flags.contains_key("trace-out"),
        ..ShardConfig::new(shards, router)
    };
    let lb = lower_bounds(inst);
    let params = AlgoParams::from_instance(inst);

    // The streaming contract wants non-decreasing arrivals; trace files
    // carry no such promise, so order the stream here.
    let mut items = inst.items().to_vec();
    items.sort_by_key(|i| (i.arrival(), i.id()));

    let packers = (0..shards).map(|_| online_packer(algo, params)).collect();
    let mut fleet = ShardedSession::new(mode, packers, cfg).map_err(|e| match e {
        clairvoyant_dbp::core::DbpError::InvalidParameter { .. } => CliError::Usage(e.to_string()),
        _ => runtime_err(e),
    })?;
    for item in &items {
        fleet.arrive(item).map_err(runtime_err)?;
    }
    let report = fleet.finish().map_err(runtime_err)?;
    let merged = report.merged_run();
    merged.packing.validate(inst).map_err(runtime_err)?;

    println!("algorithm:   {algo} (sharded)");
    println!(
        "fleet:       {} shards on {} workers, router {}",
        report.shards, report.workers, report.router
    );
    println!("usage:       {} ticks", report.usage);
    println!("bins:        {}", report.bins_opened);
    println!("peak open:   {} bins fleet-wide", report.peak_open_bins);
    println!(
        "ratio vs LB: {:.4}",
        report.usage as f64 / lb.best().max(1) as f64
    );
    println!(
        "\n{:<6} {:>8} {:>12} {:>6} {:>10}",
        "shard", "items", "usage", "bins", "peak_open"
    );
    for s in &report.slices {
        println!(
            "{:<6} {:>8} {:>12} {:>6} {:>10}",
            s.shard,
            s.items,
            s.usage(),
            s.run.bins_opened(),
            s.peak_open_bins
        );
    }
    let (mean_items, imbalance) = report.balance();
    println!("\nbalance:     {mean_items:.1} items/shard mean, {imbalance:.2}x max/mean");

    if let Some(path) = flags.get("trace-out") {
        let jsonl = report
            .tagged_jsonl()
            .ok_or_else(|| runtime_err("event collection produced no trace"))?;
        std::fs::write(path, &jsonl).map_err(|e| io_err(format!("writing {path}: {e}")))?;
        eprintln!("trace:       {} events -> {path}", jsonl.lines().count());
    }
    if let (Some(metrics), Some(path)) = (&report.metrics, flags.get("metrics")) {
        std::fs::write(path, metrics.to_csv())
            .map_err(|e| io_err(format!("writing {path}: {e}")))?;
        eprintln!(
            "metrics:     {} bins closed -> {path} (mean utilization {:.1}%)",
            metrics.bins_closed,
            metrics.mean_utilization * 100.0
        );
    }
    Ok(())
}

/// Reconstructs a packing from a JSONL decision trace (written by
/// `pack --trace-out`) and verifies it: the rebuilt packing must be
/// feasible for the rebuilt instance and its usage must match the
/// closed-bin episodes exactly.
fn replay(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let path = get(flags, "trace")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| io_err(format!("cannot read {path}: {e}")))?;
    let replay = dbp_obs::replay_jsonl(&text).map_err(io_err)?;
    replay.verify().map_err(runtime_err)?;
    let lb = lower_bounds(&replay.instance);
    println!("events file: {path}");
    println!("items:       {}", replay.instance.len());
    println!("usage:       {} ticks", replay.run.usage);
    // Offline traces model an idle-then-reused bin as several episodes
    // of one id, so count episodes (== bins for online traces).
    println!("episodes:    {}", replay.run.bins_opened());
    println!(
        "ratio vs LB: {:.4}",
        replay.run.usage as f64 / lb.best().max(1) as f64
    );
    println!("verified:    packing feasible, usage matches bin episodes");
    Ok(())
}

fn report(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let inst = load_trace(flags)?;
    let algo = get(flags, "algo")?;
    let packing = if flags.contains_key("offline") {
        known_algo(algo, OFFLINE_ALGOS, "offline")?;
        offline_packer(algo).pack(&inst)
    } else {
        known_algo(algo, ONLINE_ALGOS, "online")?;
        let params = AlgoParams::from_instance(&inst);
        let mut packer = online_packer(algo, params);
        OnlineEngine::clairvoyant()
            .run(&inst, packer.as_mut())
            .map_err(runtime_err)?
            .packing
    };
    packing.validate(&inst).map_err(runtime_err)?;
    let rows = clairvoyant_dbp::core::stats::packing_report(&inst, &packing);
    println!(
        "{:<6} {:>6} {:>10} {:>12} {:>10}",
        "bin", "items", "span", "utilization", "gap_ticks"
    );
    let mut total_util = 0.0;
    for r in &rows {
        println!(
            "{:<6} {:>6} {:>10} {:>11.1}% {:>10}",
            r.bin.0,
            r.items,
            r.span,
            r.utilization * 100.0,
            r.gap_ticks
        );
        total_util += r.utilization;
    }
    println!(
        "
{} bins, mean utilization {:.1}%, total usage {}",
        rows.len(),
        total_util / rows.len().max(1) as f64 * 100.0,
        packing.total_usage(&inst)
    );
    Ok(())
}

/// Evaluates the online roster over seeded workload replicas on the
/// panic-isolated experiment grid (`dbp bench`). `--threads` goes
/// straight to [`run_grid_checked`], so a poisoned cell reports in its
/// own row instead of aborting the sweep.
fn bench(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use dbp_bench::grid::{run_grid_checked, GridCell};

    if flags.contains_key("check") {
        return bench_check(flags);
    }
    if flags.contains_key("dims") {
        return bench_vector_grid(flags);
    }

    let kind = flags
        .get("workload")
        .map(String::as_str)
        .unwrap_or("uniform");
    let n: usize = get_num(flags, "n", 400)?;
    let seeds: u64 = get_num(flags, "seeds", 3)?;
    if seeds == 0 {
        return Err(CliError::Usage("--seeds must be at least 1".into()));
    }
    let threads = get_threads(flags)?;
    if make_instance(kind, 1, 0).is_none() {
        return Err(CliError::Usage(format!("unknown workload {kind:?}")));
    }

    let cells: Vec<GridCell<(&str, u64)>> = ONLINE_ALGOS
        .iter()
        .flat_map(|algo| {
            (0..seeds).map(move |seed| GridCell {
                label: format!("{algo}/seed{seed}"),
                input: (*algo, seed),
            })
        })
        .collect();
    println!(
        "bench: {} online algos x {seeds} seeds on {kind}(n = {n}), {} cells",
        ONLINE_ALGOS.len(),
        cells.len()
    );
    let results = run_grid_checked(cells, threads, |&(algo, seed)| {
        let inst = make_instance(kind, n, seed).expect("workload kind validated above");
        let lb = lower_bounds(&inst).best().max(1);
        let params = AlgoParams::from_instance(&inst);
        let mut packer = online_packer(algo, params);
        let run = OnlineEngine::new(clairvoyance_for(algo))
            .run(&inst, packer.as_mut())
            .expect("roster run");
        run.packing.validate(&inst).expect("roster packing");
        (run.usage, run.bins_opened(), run.usage as f64 / lb as f64)
    });

    print_bench_grid(&results, ONLINE_ALGOS, "LB3")
}

/// The `bench --dims D` path: the vector roster over seeded correlated
/// `D`-axis workload replicas, on the same panic-isolated grid.
fn bench_vector_grid(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use clairvoyant_dbp::core::{VecClairvoyance, VecStreamingSession};
    use clairvoyant_dbp::workloads::random::DurationDist;
    use clairvoyant_dbp::workloads::vector::{CorrelatedVectorWorkload, VectorWorkload};
    use dbp_bench::grid::{run_grid_checked, GridCell};
    use dbp_bench::registry::{vector_packer, VECTOR_ALGOS};

    let dims = parse_dims(flags)?;
    let n: usize = get_num(flags, "n", 400)?;
    let seeds: u64 = get_num(flags, "seeds", 3)?;
    if seeds == 0 {
        return Err(CliError::Usage("--seeds must be at least 1".into()));
    }
    let threads = get_threads(flags)?;

    let cells: Vec<GridCell<(&str, u64)>> = VECTOR_ALGOS
        .iter()
        .flat_map(|algo| {
            (0..seeds).map(move |seed| GridCell {
                label: format!("{algo}/seed{seed}"),
                input: (*algo, seed),
            })
        })
        .collect();
    println!(
        "bench: {} vector algos x {seeds} seeds on corr-vec(dims = {dims}, n = {n}), {} cells",
        VECTOR_ALGOS.len(),
        cells.len()
    );
    let results = run_grid_checked(cells, threads, move |&(algo, seed)| {
        let means = [0.3, 0.2, 0.45, 0.15];
        let inst = CorrelatedVectorWorkload::new(n, &means[..dims], 0.5, 0.6)
            .expect("valid vector workload")
            .with_durations(DurationDist::uniform(1, 40).expect("valid uniform"))
            .with_arrival_span((n as i64).max(10))
            .generate_seeded(seed);
        let lb = inst.vector_lower_bound().max(1);
        let params = AlgoParams::from_vec_instance(&inst);
        let mut packer = vector_packer(algo, params);
        let mode = if needs_departures(algo) {
            VecClairvoyance::Clairvoyant
        } else {
            VecClairvoyance::NonClairvoyant
        };
        let run = VecStreamingSession::run(mode, &inst, packer.as_mut()).expect("roster run");
        inst.validate_packing(&run.packing).expect("roster packing");
        (run.usage, run.bins_opened(), run.usage as f64 / lb as f64)
    });

    print_bench_grid(&results, VECTOR_ALGOS, "max-axis LB")
}

/// One checked bench-grid cell: `(usage, bins, ratio)` or the panic
/// that poisoned it.
type BenchCell =
    dbp_bench::grid::GridResult<Result<(u128, usize, f64), dbp_bench::grid::CellPanic>>;

/// Shared table printer for the bench grids: per-cell rows, per-algo
/// mean ratios against the named lower bound, and the poisoned-cell
/// verdict.
fn print_bench_grid(results: &[BenchCell], roster: &[&str], bound: &str) -> Result<(), CliError> {
    println!(
        "\n{:<26} {:>12} {:>6} {:>12}",
        "cell",
        "usage",
        "bins",
        format!("vs {bound}")
    );
    let mut poisoned = Vec::new();
    for r in results {
        match &r.output {
            Ok((usage, bins, ratio)) => {
                println!("{:<26} {:>12} {:>6} {:>12.4}", r.label, usage, bins, ratio)
            }
            Err(p) => {
                println!("{:<26} {:>12}", r.label, "PANICKED");
                poisoned.push(p.to_string());
            }
        }
    }
    for algo in roster {
        let ratios: Vec<f64> = results
            .iter()
            .filter(|r| r.label.starts_with(&format!("{algo}/")))
            .filter_map(|r| r.output.as_ref().ok().map(|(_, _, ratio)| *ratio))
            .collect();
        if !ratios.is_empty() {
            println!(
                "{algo}: mean ratio vs {bound} = {:.4} over {} seeds",
                ratios.iter().sum::<f64>() / ratios.len() as f64,
                ratios.len()
            );
        }
    }
    if poisoned.is_empty() {
        Ok(())
    } else {
        Err(CliError::Runtime(format!(
            "{} poisoned cells: {}",
            poisoned.len(),
            poisoned.join("; ")
        )))
    }
}

/// The perf-regression gate (`dbp bench --check BENCH_*.json`): re-run
/// every cell a checked-in benchmark baseline recorded and exit 5 when
/// any cell's throughput fell more than `--tolerance` percent below it.
/// `--inject <pct>` synthetically slows the fresh runs (the gate's own
/// self-proof); `--report <file>` writes the comparison JSON (the CI
/// artifact).
fn bench_check(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use dbp_bench::check::{parse_baseline, run_check};

    let path = get(flags, "check")?;
    if path == "true" {
        return Err(CliError::Usage(
            "--check needs a baseline path: dbp bench --check BENCH_shard.json".into(),
        ));
    }
    let tolerance: f64 = get_num(flags, "tolerance", 25.0)?;
    let inject: f64 = get_num(flags, "inject", 0.0)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| io_err(format!("cannot read {path}: {e}")))?;
    let baseline = parse_baseline(&text).map_err(|e| io_err(format!("{path}: {e}")))?;
    println!(
        "bench check: {} ({} mode), {} cells, tolerance {tolerance}%{}",
        baseline.schema,
        baseline.mode,
        baseline.cells.len(),
        if inject > 0.0 {
            format!(", injected slowdown {inject}%")
        } else {
            String::new()
        }
    );
    let report = run_check(&baseline, tolerance, inject).map_err(CliError::Usage)?;
    if report.host_parallelism != report.baseline_host_parallelism {
        println!(
            "note: baseline host parallelism {} vs this host {} — treat tight margins as noise",
            report.baseline_host_parallelism, report.host_parallelism
        );
    }
    println!(
        "\n{:<26} {:>14} {:>14} {:>9}  verdict",
        "cell", "baseline_ips", "fresh_ips", "delta"
    );
    for r in &report.rows {
        if r.skipped {
            println!(
                "{:<26} {:>14.0} {:>14} {:>9}  SKIPPED (degraded baseline)",
                r.label, r.baseline_ips, "-", "-"
            );
            continue;
        }
        println!(
            "{:<26} {:>14.0} {:>14.0} {:>8.1}%  {}",
            r.label,
            r.baseline_ips,
            r.fresh_ips,
            r.delta_pct,
            if r.regressed { "REGRESSED" } else { "ok" }
        );
    }
    let skipped = report.skipped().len();
    if skipped > 0 {
        println!(
            "warning: {skipped} multi-worker cell(s) skipped — the baseline was recorded with \
             degraded_parallelism (host_parallelism {}); re-record it on a host with enough cores \
             to gate them",
            report.baseline_host_parallelism
        );
    }
    if let Some(out) = flags.get("report") {
        std::fs::write(out, report.to_json()).map_err(|e| io_err(format!("writing {out}: {e}")))?;
        eprintln!("comparison report -> {out}");
    }
    let regressions = report.regressions().len();
    if regressions == 0 {
        println!("\nbench check: ok");
        Ok(())
    } else {
        Err(CliError::Violations(format!(
            "{regressions} of {} cells regressed beyond {tolerance}%",
            report.rows.len()
        )))
    }
}

/// Finishes a seeded sweep: prints `header`, and when the sweep found
/// violations lists every failing cell, turns each one `shrink` can
/// replay into a minimal fixture persisted under `fixtures_dir`, and
/// returns the exit-5 error. Every audit family reports through here.
fn report_sweep(
    tag: &str,
    header: String,
    summary: &clairvoyant_dbp::audit::AuditSummary,
    fixtures_dir: &str,
    shrink: impl Fn(&clairvoyant_dbp::audit::fuzz::Failure) -> Option<Fixture>,
) -> Result<(), CliError> {
    println!("{tag}: {header}");
    if summary.ok() {
        println!("{tag}: no violations");
        return Ok(());
    }
    println!(
        "{tag}: {} failing cells, {} violations",
        summary.failures.len(),
        summary.violations()
    );
    for f in &summary.failures {
        println!("\ncase {} [{}] algo {}:", f.case, f.family, f.algo);
        for v in &f.violations {
            println!("  [{}] {}", v.check, v.detail);
        }
        let Some(fixture) = shrink(f) else { continue };
        let n = fixture.items.len();
        match fixture.write_to(std::path::Path::new(fixtures_dir)) {
            Ok(path) => println!("  shrunk to {n} items -> {}", path.display()),
            Err(e) => println!("  shrunk to {n} items (write failed: {e})"),
        }
    }
    Err(CliError::Violations(format!(
        "{} {tag} violations",
        summary.violations()
    )))
}

/// The fixture for sweep failure `f` shrunk from `inst` to `small`, named
/// `{prefix}seed{S}-case{C}-{algo}{suffix}`.
fn shrunk_fixture<I: Shrinkable>(
    prefix: &str,
    suffix: &str,
    algo: &str,
    seed: u64,
    f: &clairvoyant_dbp::audit::fuzz::Failure,
    inst: &I,
    small: &I,
) -> Fixture {
    Fixture::from_instance(
        format!("{prefix}seed{seed}-case{}-{algo}{suffix}", f.case),
        algo,
        f.violations[0].check.as_str(),
        seed,
        f.case,
        format!(
            "shrunk from {} to {} items",
            inst.items().len(),
            small.items().len()
        ),
        small,
    )
}

/// Runs the differential fuzzing sweep (`dbp audit`), shrinking any
/// failure to a minimal fixture, or the `--self-test` pipeline proof.
/// `--dims D` runs the vector family instead (indexed vs linear foils,
/// per-axis capacity, the max-axis lower bound, dim-1 scalar
/// equivalence, batch-reference differentials) over seeded vector
/// instances with up to `D` axes.
fn audit(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use clairvoyant_dbp::audit::fuzz::{case_instance, run_audit, shrink_roster_failure};
    use clairvoyant_dbp::audit::shrink::ShrinkBudget;
    use clairvoyant_dbp::audit::vector::{
        case_vec_instance, run_vector_audit, shrink_vector_failure, VectorAuditConfig,
    };
    use clairvoyant_dbp::audit::{AuditConfig, QuietPanics};

    if flags.contains_key("self-test") {
        return audit_self_test(flags);
    }
    let fixtures_dir = flags
        .get("fixtures-dir")
        .map(String::as_str)
        .unwrap_or("audit-fixtures");
    // Expected panics (engine rejections, injected faults) are caught and
    // reported as violations; keep them off stderr.
    let _quiet = QuietPanics::new();

    if flags.contains_key("dims") {
        let cfg = VectorAuditConfig {
            cases: get_num(flags, "cases", 200)?,
            seed: get_num(flags, "seed", 0)?,
            max_items: get_num(flags, "max-items", 24)?,
            max_dims: parse_dims(flags)?,
            threads: get_threads(flags)?,
        };
        let summary = run_vector_audit(&cfg);
        let header = format!(
            "{} vector cases x roster = {} cells, seed {}, dims <= {}",
            summary.cases, summary.cells, cfg.seed, cfg.max_dims
        );
        return report_sweep("audit", header, &summary, fixtures_dir, |f| {
            if f.algo.starts_with('<') {
                return None;
            }
            let (_, inst) = case_vec_instance(cfg.seed, f.case, cfg.max_items, cfg.max_dims);
            let small = shrink_vector_failure(&inst, &f.algo, ShrinkBudget::default());
            Some(shrunk_fixture(
                "vec-", "", &f.algo, cfg.seed, f, &inst, &small,
            ))
        });
    }

    let cfg = AuditConfig {
        cases: get_num(flags, "cases", 1000)?,
        seed: get_num(flags, "seed", 0)?,
        max_items: get_num(flags, "max-items", 24)?,
        threads: get_threads(flags)?,
        offline: !flags.contains_key("no-offline"),
        ..Default::default()
    };
    let summary = run_audit(&cfg);
    let header = format!(
        "{} cases x roster = {} cells, seed {}",
        summary.cases, summary.cells, cfg.seed
    );
    report_sweep("audit", header, &summary, fixtures_dir, |f| {
        // Cells that failed before an algorithm was involved cannot be
        // shrunk.
        if f.algo.starts_with('<') || f.algo == "exact-oracles" {
            return None;
        }
        let (_, inst) = case_instance(cfg.seed, f.case, cfg.max_items);
        let small = shrink_roster_failure(&inst, &f.algo, cfg.limits, ShrinkBudget::default());
        Some(shrunk_fixture("", "", &f.algo, cfg.seed, f, &inst, &small))
    })
}

/// Proves the audit pipeline end to end with injected faults: the
/// overfull packer must be caught and shrunk to a tiny fixture that
/// round-trips through JSON, and a panicking packer must not abort the
/// surrounding sweep.
fn audit_self_test(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use clairvoyant_dbp::audit::diff::audit_online_with;
    use clairvoyant_dbp::audit::faulty::{OverfullFirstFit, PanicOnNth};
    use clairvoyant_dbp::audit::fuzz::{case_instance, isolated};
    use clairvoyant_dbp::audit::invariants::{exact_baselines, ExactLimits};
    use clairvoyant_dbp::audit::shrink::{shrink_instance, ShrinkBudget};
    use clairvoyant_dbp::audit::QuietPanics;

    let seed: u64 = get_num(flags, "seed", 0)?;
    let limits = ExactLimits::default();
    let _quiet = QuietPanics::new();

    // A generated instance large enough that the faulty packer trips.
    let (family, inst) = case_instance(seed, 1, 24);
    println!(
        "self-test: instance from seed {seed} case 1 [{family}], {} items",
        inst.len()
    );

    let fails = |candidate: &Instance| -> bool {
        let exact = match isolated(|| exact_baselines(candidate, limits)) {
            Ok(e) => e,
            Err(_) => return true,
        };
        let v = isolated(|| {
            audit_online_with(
                candidate,
                "faulty-overfull-ff",
                ClairvoyanceMode::NonClairvoyant,
                &exact,
                || Box::new(OverfullFirstFit),
            )
        });
        match v {
            Ok(v) => !v.is_empty(),
            Err(_) => true,
        }
    };
    if !fails(&inst) {
        return Err(CliError::Violations(
            "self-test: overfull packer was NOT caught".into(),
        ));
    }
    println!("self-test: overfull first-fit caught as a violation");

    let small = shrink_instance(&inst, fails, ShrinkBudget::default());
    println!("self-test: shrunk {} -> {} items", inst.len(), small.len());
    if small.len() > 6 {
        return Err(CliError::Violations(format!(
            "self-test: shrunk witness has {} items (> 6)",
            small.len()
        )));
    }
    let fixture = Fixture::from_instance(
        "self-test-overfull-ff",
        "faulty-overfull-ff",
        "engine-error",
        seed,
        1,
        "self-test injected fault",
        &small,
    );
    let round_trip = Fixture::parse(&fixture.to_json())
        .map_err(|e| runtime_err(format!("fixture round-trip: {e}")))?;
    if round_trip != fixture {
        return Err(CliError::Violations(
            "self-test: fixture did not round-trip".into(),
        ));
    }
    println!(
        "self-test: fixture round-trips through JSON ({} items)",
        fixture.items.len()
    );

    // A panicking packer must be contained, not abort the process.
    let outcome = isolated(|| {
        OnlineEngine::non_clairvoyant()
            .run(&inst, &mut PanicOnNth::new(2))
            .map(|r| r.usage)
    });
    match outcome {
        Err(msg) if msg.contains("injected fault") => {
            println!("self-test: panicking packer isolated ({msg})");
        }
        other => {
            return Err(CliError::Violations(format!(
                "self-test: expected injected panic, got {other:?}"
            )))
        }
    }

    // The vector pipeline: a packer that only checks axis 0 must be
    // rejected by the per-axis feasibility gate, the witness must
    // shrink to its two-item core (the decoys stripped), and the vector
    // fixture must replay bit-identically.
    audit_self_test_vector(seed)?;

    println!("self-test: ok");
    Ok(())
}

/// The vector leg of `audit --self-test`: catch the axis-blind packer,
/// shrink the witness, and round-trip it through a vector [`Fixture`].
fn audit_self_test_vector(seed: u64) -> Result<(), CliError> {
    use clairvoyant_dbp::audit::faulty::AxisBlindFirstFit;
    use clairvoyant_dbp::audit::fuzz::isolated;
    use clairvoyant_dbp::audit::shrink::shrink_instance;
    use clairvoyant_dbp::audit::shrink::ShrinkBudget;
    use clairvoyant_dbp::core::{
        SizeVec, VecClairvoyance, VecInstance, VecItem, VecStreamingSession,
    };

    // Two items that overlap in time and fit on axis 0 but not axis 1,
    // padded with decoys the shrinker must strip.
    let mut items = vec![
        VecItem::new(0, SizeVec::from_f64s(&[0.2, 0.8]), 3, 40),
        VecItem::new(1, SizeVec::from_f64s(&[0.2, 0.8]), 5, 39),
    ];
    for i in 2..14 {
        items.push(VecItem::new(
            i,
            SizeVec::from_f64s(&[0.11, 0.07]),
            i as i64 * 7,
            i as i64 * 7 + 3,
        ));
    }
    let inst = VecInstance::from_items(items).map_err(runtime_err)?;

    let fails = |candidate: &VecInstance| {
        !matches!(
            isolated(|| VecStreamingSession::run(
                VecClairvoyance::NonClairvoyant,
                candidate,
                &mut AxisBlindFirstFit
            )),
            Ok(Ok(_))
        )
    };
    if !fails(&inst) {
        return Err(CliError::Violations(
            "self-test: axis-blind vector packer was NOT caught".into(),
        ));
    }
    println!("self-test: axis-blind first-fit rejected by per-axis feasibility");

    let small = shrink_instance(&inst, fails, ShrinkBudget::default());
    println!(
        "self-test: vector witness shrunk {} -> {} items",
        inst.len(),
        small.len()
    );
    if small.len() > 2 {
        return Err(CliError::Violations(format!(
            "self-test: vector witness has {} items (> 2)",
            small.len()
        )));
    }

    let fixture = Fixture::from_instance(
        "self-test-axis-blind-ff",
        "faulty-axis-blind-ff",
        "engine-error",
        seed,
        0,
        "self-test injected vector fault",
        &small,
    );
    let round_trip = Fixture::parse(&fixture.to_json())
        .map_err(|e| runtime_err(format!("vector fixture round-trip: {e}")))?;
    if round_trip != fixture || round_trip.instance::<VecInstance>().map_err(runtime_err)? != small
    {
        return Err(CliError::Violations(
            "self-test: vector fixture did not round-trip".into(),
        ));
    }
    println!(
        "self-test: vector fixture round-trips through JSON ({} items)",
        fixture.items.len()
    );
    Ok(())
}

/// Runs the chaos sweep (`dbp chaos`): seeded fault injection across the
/// online roster with the three resilience invariants checked per cell,
/// shrinking any failure to a minimal fixture. `--self-test` instead
/// proves the three pillars on built-in scenarios.
fn chaos(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use clairvoyant_dbp::audit::chaos::{shrink_chaos_failure, ChaosAuditConfig};
    use clairvoyant_dbp::audit::fuzz::case_instance;
    use clairvoyant_dbp::audit::shrink::ShrinkBudget;
    use clairvoyant_dbp::audit::{run_chaos_audit, QuietPanics};

    if flags.contains_key("self-test") {
        return chaos_self_test(flags);
    }

    let cfg = ChaosAuditConfig {
        cases: get_num(flags, "cases", 200)?,
        seed: get_num(flags, "seed", 0)?,
        max_items: get_num(flags, "max-items", 24)?,
        threads: get_threads(flags)?,
    };
    let fixtures_dir = flags
        .get("fixtures-dir")
        .map(String::as_str)
        .unwrap_or("chaos-fixtures");

    let _quiet = QuietPanics::new();
    let summary = run_chaos_audit(&cfg);
    let header = format!(
        "{} cases x roster = {} cells, seed {}",
        summary.cases, summary.cells, cfg.seed
    );
    report_sweep("chaos", header, &summary, fixtures_dir, |f| {
        if f.algo.starts_with('<') {
            return None;
        }
        let (_, inst) = case_instance(cfg.seed, f.case, cfg.max_items);
        let small = shrink_chaos_failure(&inst, &f.algo, cfg.seed, f.case, ShrinkBudget::default());
        Some(shrunk_fixture(
            "chaos-", "", &f.algo, cfg.seed, f, &inst, &small,
        ))
    })
}

/// Proves the three resilience pillars on built-in scenarios:
/// checkpoint/resume bit-identity, fault injection + recovery with
/// exactly-once accounting, and graceful degradation at a fleet cap.
fn chaos_self_test(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use clairvoyant_dbp::audit::fuzz::case_instance;
    use clairvoyant_dbp::core::StreamingSession;
    use clairvoyant_dbp::resilience::chaos::run_chaos;
    use clairvoyant_dbp::resilience::{
        snapshot_from_json, snapshot_to_json, AdmissionPolicy, ChaosConfig, FaultEvent, FaultKind,
        FaultPlan, RecoveryPolicy,
    };
    use clairvoyant_dbp::sim::RetryCounters;

    let seed: u64 = get_num(flags, "seed", 0)?;
    let fail = |what: &str| CliError::Violations(format!("self-test: {what}"));

    // Pillar 1 — checkpoint/resume bit-identity through the JSON
    // encoding, on a generated instance with the clairvoyant flagship.
    let (family, inst) = case_instance(seed, 1, 24);
    println!(
        "self-test: instance from seed {seed} case 1 [{family}], {} items",
        inst.len()
    );
    let mut items = inst.items().to_vec();
    items.sort_by_key(|i| (i.arrival(), i.id()));
    let cut = items.len() / 2;
    let params = AlgoParams::from_instance(&inst);
    let mut packer = online_packer("cbdt", params);
    let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut *packer);
    for item in &items[..cut] {
        s.arrive(item).map_err(runtime_err)?;
    }
    let snap = s.snapshot();
    for item in &items[cut..] {
        s.arrive(item).map_err(runtime_err)?;
    }
    let full = s.finish().map_err(runtime_err)?;
    let json = snapshot_to_json(&snap);
    let decoded = snapshot_from_json(&json).map_err(runtime_err)?;
    if decoded != snap {
        return Err(fail("checkpoint JSON round-trip was lossy"));
    }
    let mut packer = online_packer("cbdt", params);
    let mut resumed =
        StreamingSession::restore(ClairvoyanceMode::Clairvoyant, &mut *packer, &decoded)
            .map_err(runtime_err)?;
    for item in &items[cut..] {
        resumed.arrive(item).map_err(runtime_err)?;
    }
    if resumed.finish().map_err(runtime_err)? != full {
        return Err(fail("resumed run diverged from uninterrupted run"));
    }
    println!(
        "self-test: checkpoint at cut {cut} resumed bit-identical ({} bytes of JSON)",
        json.len()
    );

    // Pillar 2 — fault injection + recovery: three overlapping jobs, a
    // crash mid-flight, immediate resubmission; everything must complete
    // as a retry and the oracle must pass.
    let tiny = Instance::from_triples(&[(0.4, 0, 100), (0.4, 0, 100), (0.4, 0, 100)]);
    let cfg = ChaosConfig {
        plan: FaultPlan::new(
            seed,
            vec![FaultEvent {
                at: 5,
                kind: FaultKind::Crash,
            }],
        ),
        policy: RecoveryPolicy::Immediate,
        fleet_cap: None,
        admission: AdmissionPolicy::Reject,
    };
    let params = AlgoParams::from_instance(&tiny);
    let mut packer = online_packer("first-fit", params);
    let report = run_chaos(&tiny, &mut *packer, ClairvoyanceMode::NonClairvoyant, &cfg)
        .map_err(runtime_err)?;
    report.verify(&tiny).map_err(runtime_err)?;
    let c = report.retry_counters();
    if report.servers_killed == 0 || c.jobs_retried != 3 || c.jobs_completed != 0 {
        return Err(fail(&format!(
            "crash recovery: expected 3 retried jobs, got {c:?}"
        )));
    }
    println!(
        "self-test: crash at t=5 killed {} servers, displaced {} jobs, all 3 completed on retry",
        report.servers_killed, report.jobs_displaced
    );

    // Pillar 3 — graceful degradation: cap the fleet at one server so
    // the third job is shed, and verify the ledger still accounts for
    // every job exactly once.
    let cfg = ChaosConfig {
        plan: FaultPlan::none(),
        fleet_cap: Some(1),
        admission: AdmissionPolicy::Reject,
        policy: RecoveryPolicy::Immediate,
    };
    let mut packer = online_packer("first-fit", params);
    let report = run_chaos(&tiny, &mut *packer, ClairvoyanceMode::NonClairvoyant, &cfg)
        .map_err(runtime_err)?;
    report.verify(&tiny).map_err(runtime_err)?;
    let c = report.retry_counters();
    let expect = RetryCounters {
        jobs_completed: 2,
        jobs_rejected: 1,
        arrivals_shed: 1,
        ..RetryCounters::default()
    };
    if c != expect {
        return Err(fail(&format!(
            "fleet cap: expected 2 completed + 1 rejected, got {c:?}"
        )));
    }
    println!("self-test: fleet cap 1 shed the overflow job and accounted for it exactly once");
    println!("self-test: ok");
    Ok(())
}

/// Runs the shard sweep (`dbp shard-audit`): the sharded coordinator
/// against plain-session references across the roster, routers, and
/// K ∈ {1, 2, 3}, with failures shrunk to minimal fixtures exactly like
/// `audit` and `chaos`.
fn shard_audit(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use clairvoyant_dbp::audit::fuzz::case_instance;
    use clairvoyant_dbp::audit::shard::shrink_shard_failure;
    use clairvoyant_dbp::audit::shrink::ShrinkBudget;
    use clairvoyant_dbp::audit::{run_shard_audit, QuietPanics, ShardAuditConfig};

    let cfg = ShardAuditConfig {
        cases: get_num(flags, "cases", 200)?,
        seed: get_num(flags, "seed", 0)?,
        max_items: get_num(flags, "max-items", 32)?,
        threads: get_threads(flags)?,
    };
    let fixtures_dir = flags
        .get("fixtures-dir")
        .map(String::as_str)
        .unwrap_or("shard-fixtures");

    let _quiet = QuietPanics::new();
    let summary = run_shard_audit(&cfg);
    let header = format!(
        "{} cases x roster x K = {} cells, seed {}",
        summary.cases, summary.cells, cfg.seed
    );
    report_sweep("shard-audit", header, &summary, fixtures_dir, |f| {
        // Cell labels are "{algo}/k{K}"; generation failures carry no
        // algorithm and cannot be shrunk.
        let (algo, k) = f.algo.rsplit_once("/k")?;
        let k = k.parse::<usize>().ok()?;
        let (_, inst) = case_instance(cfg.seed, f.case, cfg.max_items);
        let small = shrink_shard_failure(&inst, algo, k, cfg.seed, f.case, ShrinkBudget::default());
        let suffix = format!("-k{k}");
        Some(shrunk_fixture(
            "shard-", &suffix, algo, cfg.seed, f, &inst, &small,
        ))
    })
}

/// Runs the telemetry sweep (`dbp telemetry-audit`): replay bit-identity
/// and fleet-merge order-independence of the work histograms across the
/// roster, routers, and K ∈ {1, 3}.
fn telemetry_audit(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use clairvoyant_dbp::audit::{run_telemetry_audit, QuietPanics, TelemetryAuditConfig};

    let cfg = TelemetryAuditConfig {
        cases: get_num(flags, "cases", 100)?,
        seed: get_num(flags, "seed", 0)?,
        max_items: get_num(flags, "max-items", 32)?,
        threads: get_threads(flags)?,
    };
    let _quiet = QuietPanics::new();
    let summary = run_telemetry_audit(&cfg);
    println!(
        "telemetry-audit: {} cases x roster x K = {} cells, seed {}",
        summary.cases, summary.cells, cfg.seed
    );
    if summary.ok() {
        println!("telemetry-audit: no violations");
        return Ok(());
    }
    println!(
        "telemetry-audit: {} failing (case, algo/K) cells, {} violations",
        summary.failures.len(),
        summary.violations()
    );
    for f in &summary.failures {
        println!("\ncase {} [{}] cell {}:", f.case, f.family, f.algo);
        for v in &f.violations {
            println!("  [{}] {}", v.check, v.detail);
        }
    }
    Err(CliError::Violations(format!(
        "{} telemetry-audit violations",
        summary.violations()
    )))
}

/// Formats one histogram row of the `prof` percentile table.
fn prof_row(name: &str, h: &clairvoyant_dbp::telemetry::Histogram) -> String {
    if h.is_empty() {
        return format!("{name:<22} {:>10} {:>10}", 0, "-");
    }
    format!(
        "{name:<22} {:>10} {:>10.1} {:>8} {:>8} {:>8} {:>8} {:>10}",
        h.count(),
        h.mean(),
        h.min(),
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(0.99),
        h.max()
    )
}

/// Profiles one online algorithm over a trace or generated workload
/// (`dbp prof`): percentile table plus optional folded-stack,
/// chrome://tracing, and Prometheus exports.
fn prof(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use clairvoyant_dbp::telemetry::{
        chrome_trace_json, folded_stacks, profile_stream, render_prometheus,
    };

    let algo = flags.get("algo").map(String::as_str).unwrap_or("cbdt");
    known_algo(algo, ONLINE_ALGOS, "online")?;
    let kind = flags
        .get("workload")
        .map(String::as_str)
        .unwrap_or("uniform");
    let inst = if flags.contains_key("trace") {
        load_trace(flags)?
    } else {
        let n: usize = get_num(flags, "n", 10_000)?;
        let seed: u64 = get_num(flags, "seed", 0)?;
        make_instance(kind, n, seed)
            .ok_or_else(|| CliError::Usage(format!("unknown workload {kind:?}")))?
    };
    // The streaming contract wants non-decreasing arrivals.
    let mut items = inst.items().to_vec();
    items.sort_by_key(|i| (i.arrival(), i.id()));

    if flags.contains_key("self-test") {
        return prof_self_test(flags, &items, algo);
    }

    let batch: usize = get_num(flags, "batch", 0)?;
    let full_timing = !flags.contains_key("sampled");
    let params = AlgoParams::from_instance(&inst);
    let mut packer = online_packer(algo, params);
    let profile = profile_stream(
        clairvoyance_for(algo),
        packer.as_mut(),
        &items,
        batch,
        full_timing,
    )
    .map_err(runtime_err)?;

    println!(
        "prof: {algo} on {} items, {} timing, usage {} ticks, {} bins",
        items.len(),
        if full_timing { "full" } else { "1-in-64" },
        profile.run.usage,
        profile.run.bins_opened()
    );
    println!(
        "\n{:<22} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "histogram", "count", "mean", "min", "p50", "p90", "p99", "max"
    );
    let t = &profile.telemetry;
    println!("-- work (deterministic, replay-exact) --");
    for (name, h) in [
        ("candidates/decision", &t.work.candidates),
        ("open bins", &t.work.open_bins),
        ("items/bin", &t.work.bin_items),
        ("bin lifetime (ticks)", &t.work.bin_lifetime),
    ] {
        println!("{}", prof_row(name, h));
    }
    println!("-- wall clock (ns, this run only) --");
    for (name, h) in [
        ("decide", &t.run.decide_ns),
        ("departure sweep", &t.run.depart_ns),
        ("batch flush", &t.run.batch_flush_ns),
        ("finish drain", &t.run.finish_ns),
    ] {
        println!("{}", prof_row(name, h));
    }

    for (flag, content, what) in [
        ("out-folded", folded_stacks(&profile.spans), "folded stacks"),
        (
            "out-chrome",
            chrome_trace_json(&profile.spans),
            "chrome trace",
        ),
        (
            "out-prom",
            render_prometheus(&profile.counters, t, &[("algo", algo)]),
            "prometheus exposition",
        ),
    ] {
        if let Some(path) = flags.get(flag) {
            std::fs::write(path, &content).map_err(|e| io_err(format!("writing {path}: {e}")))?;
            eprintln!("{what}: {} bytes -> {path}", content.len());
        }
    }
    Ok(())
}

/// Proves the telemetry determinism contract on the given stream: work
/// histograms bit-identical across two replays, and fleet-merged work
/// histograms identical for worker counts {1, K}.
fn prof_self_test(
    flags: &HashMap<String, String>,
    items: &[Item],
    algo: &str,
) -> Result<(), CliError> {
    use clairvoyant_dbp::telemetry::profile_stream;

    let fail = |what: String| CliError::Violations(format!("prof self-test: {what}"));
    let k: usize = get_num(flags, "shards", 4)?;
    if k == 0 {
        return Err(CliError::Usage("--shards must be at least 1".into()));
    }
    let inst = Instance::from_items(items.to_vec()).map_err(runtime_err)?;
    let params = AlgoParams::from_instance(&inst);

    // 1. Replay bit-identity of the single-session work histograms.
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut packer = online_packer(algo, params);
        let p = profile_stream(clairvoyance_for(algo), packer.as_mut(), items, 0, false)
            .map_err(runtime_err)?;
        runs.push(p.telemetry.work);
    }
    if runs[0] != runs[1] {
        return Err(fail(format!(
            "{algo}: work histograms differ between two replays"
        )));
    }
    println!(
        "self-test: {algo} work histograms bit-identical across 2 replays ({} sampled decisions)",
        runs[0].candidates.count()
    );

    // 2. Fleet merge independence: the same K-shard fleet on 1 worker
    // and on K workers must fold to identical work histograms.
    let mut fleets = Vec::new();
    for workers in [1usize, k] {
        let cfg = ShardConfig {
            threads: Some(workers),
            collect_telemetry: true,
            ..ShardConfig::new(k, ShardRouter::hash())
        };
        let packers = (0..k).map(|_| online_packer(algo, params)).collect();
        let mut fleet =
            ShardedSession::new(clairvoyance_for(algo), packers, cfg).map_err(runtime_err)?;
        for item in items {
            fleet.arrive(item).map_err(runtime_err)?;
        }
        let report = fleet.finish().map_err(runtime_err)?;
        let telemetry = report
            .telemetry
            .ok_or_else(|| fail(format!("{algo} workers={workers}: fleet telemetry missing")))?;
        fleets.push(telemetry.work);
    }
    if fleets[0] != fleets[1] {
        return Err(fail(format!(
            "{algo}: fleet work histograms differ between 1 and {k} workers"
        )));
    }
    println!("self-test: {algo} fleet work histograms identical for worker counts {{1, {k}}}");
    println!("self-test: ok");
    Ok(())
}

fn compare(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let inst = load_trace(flags)?;
    let lb = lower_bounds(&inst).best().max(1);
    let params = AlgoParams::from_instance(&inst);
    println!(
        "{:<26} {:>12} {:>6} {:>9}",
        "algorithm", "usage", "bins", "vs LB3"
    );
    for algo in ONLINE_ALGOS {
        let mut packer = online_packer(algo, params);
        let run = OnlineEngine::new(clairvoyance_for(algo))
            .run(&inst, packer.as_mut())
            .map_err(runtime_err)?;
        run.packing.validate(&inst).map_err(runtime_err)?;
        println!(
            "{:<26} {:>12} {:>6} {:>9.4}",
            format!("{} (online)", packer.name()),
            run.usage,
            run.bins_opened(),
            run.usage as f64 / lb as f64
        );
    }
    for algo in OFFLINE_ALGOS {
        let packer = offline_packer(algo);
        let packing = packer.pack(&inst);
        packing.validate(&inst).map_err(runtime_err)?;
        let usage = packing.total_usage(&inst);
        println!(
            "{:<26} {:>12} {:>6} {:>9.4}",
            format!("{} (offline)", packer.name()),
            usage,
            packing.num_bins(),
            usage as f64 / lb as f64
        );
    }
    Ok(())
}

/// `dbp serve` — boot the long-running scheduling service and block
/// until a client sends `shutdown`.
fn serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use clairvoyant_dbp::serve::{server, ServeConfig, Service};

    let algo = flags.get("algo").map(|s| s.as_str()).unwrap_or("first-fit");
    known_algo(algo, ONLINE_ALGOS, "online")?;
    let mut cfg = ServeConfig::new(get_num(flags, "shards", 1usize)?, algo);
    let router_spec = flags.get("router").map(|s| s.as_str()).unwrap_or("hash");
    cfg.router = ShardRouter::parse(router_spec).map_err(|e| CliError::Usage(e.to_string()))?;
    if let Some(v) = flags.get("fleet-cap") {
        cfg.fleet_cap = Some(
            v.parse()
                .map_err(|_| CliError::Usage(format!("bad --fleet-cap value {v:?}")))?,
        );
    }
    if let Some(dir) = flags.get("checkpoint-dir") {
        cfg.checkpoint_dir = Some(dir.into());
    }
    if let Some(dir) = flags.get("wal-dir") {
        cfg.wal_dir = Some(dir.into());
    }
    if let Some(policy) = flags.get("fsync") {
        if cfg.wal_dir.is_none() {
            return Err(CliError::Usage(
                "--fsync needs --wal-dir (it is the WAL's durability policy)".into(),
            ));
        }
        cfg.fsync = clairvoyant_dbp::serve::FsyncPolicy::parse(policy)
            .map_err(|e| CliError::Usage(e.to_string()))?;
    }
    cfg.checkpoint_every = get_num(flags, "checkpoint-every", 1_000u64)?;
    cfg.delta = get_num(flags, "delta", 1i64)?;
    cfg.mu = get_num(flags, "mu", 1.0f64)?;
    let conn_workers = get_num(flags, "conn-workers", 4usize)?;
    let shards = cfg.shards;

    let service = Service::start(cfg).map_err(|e| match e {
        clairvoyant_dbp::core::DbpError::InvalidParameter { .. } => CliError::Usage(e.to_string()),
        other => CliError::Runtime(other.to_string()),
    })?;
    for torn in service.skipped_checkpoints() {
        eprintln!(
            "warning: skipped torn checkpoint {} (fell back to an older one)",
            torn.display()
        );
    }
    if let Some(seq) = service.restored_seq() {
        println!("restored from checkpoint {seq}");
    }
    if let Some(rec) = service.recovery() {
        println!(
            "WAL recovery: {} frame{} replayed, {} bytes scanned, {} file{} truncated, {:.1} ms",
            rec.replayed_frames,
            if rec.replayed_frames == 1 { "" } else { "s" },
            rec.wal_bytes,
            rec.truncated_files,
            if rec.truncated_files == 1 { "" } else { "s" },
            rec.duration_ns as f64 / 1e6,
        );
    }

    let addr = flags
        .get("addr")
        .map(|s| s.as_str())
        .unwrap_or("127.0.0.1:4150");
    let listener = std::net::TcpListener::bind(addr).map_err(io_err)?;
    let local = listener.local_addr().map_err(io_err)?;
    println!(
        "dbp-serve listening on {local} (algo {algo}, {shards} shard{}, {conn_workers} \
         connection worker{})",
        if shards == 1 { "" } else { "s" },
        if conn_workers == 1 { "" } else { "s" },
    );
    use std::io::Write as _;
    std::io::stdout().flush().map_err(io_err)?;
    if let Some(port_file) = flags.get("port-file") {
        std::fs::write(port_file, format!("{local}\n")).map_err(io_err)?;
    }
    server::run(std::sync::Arc::new(service), listener, conn_workers).map_err(io_err)
}

/// `dbp serve-torture` — the deterministic crash-point sweep: inject an
/// IO failure at every WAL/checkpoint IO boundary in turn and prove
/// recovery from each prefix (bit-identical decisions, exactly-once
/// accounting, corruption detected rather than consumed). Exit 5 on any
/// violated invariant.
fn serve_torture(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use clairvoyant_dbp::serve::torture::{run, TortureConfig};

    let mut cfg = TortureConfig::quick("cli");
    if !flags.contains_key("self-test") {
        cfg.jobs = get_num(flags, "jobs", cfg.jobs)?;
        cfg.stride = get_num(flags, "stride", cfg.stride)?;
        cfg.checkpoint_every = get_num(flags, "checkpoint-every", cfg.checkpoint_every)?;
        if let Some(policy) = flags.get("fsync") {
            cfg.fsync = clairvoyant_dbp::serve::FsyncPolicy::parse(policy)
                .map_err(|e| CliError::Usage(e.to_string()))?;
        }
        if let Some(algo) = flags.get("algo") {
            known_algo(algo, ONLINE_ALGOS, "online")?;
            cfg.algo = algo.clone();
        }
    }
    if let Some(dir) = flags.get("scratch") {
        cfg.scratch = Some(dir.into());
    }
    println!(
        "serve-torture: {} jobs, fsync {}, checkpoint every {}, stride {}",
        cfg.jobs,
        cfg.fsync.name(),
        cfg.checkpoint_every,
        cfg.stride,
    );
    let report = run(&cfg).map_err(|e| CliError::Runtime(e.to_string()))?;
    println!(
        "crash-point space: {} IO ops; {} crash points exercised, {} corruption drills",
        report.io_ops_total, report.crash_points, report.drills,
    );
    if report.passed() {
        println!("serve-torture: ok — every crash point recovered, every drill held");
        Ok(())
    } else {
        for v in &report.violations {
            eprintln!("VIOLATION: {v}");
        }
        eprintln!("failing fixtures kept under {}", report.scratch.display());
        Err(CliError::Violations(format!(
            "{} durability violation(s) across {} crash points + {} drills",
            report.violations.len(),
            report.crash_points,
            report.drills,
        )))
    }
}
