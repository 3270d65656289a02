//! `load_serve` — seeded load generator and differential checker for
//! the `dbp-serve` service.
//!
//! Run mode drives a service over TCP with a deterministic job stream
//! (Poisson background + bursty spikes from `dbp-workloads`, all
//! derived from `--seed`), pipelining up to `--window` outstanding
//! requests, and records every placement decision as one JSON line.
//! `--resume` reads the service's id watermark from `status` and
//! replays the same stream from there — the kill-and-restore drill in
//! CI is exactly `run; kill -9; restart; run --resume; diff`.
//!
//! Diff mode (`--diff ref part1 [part2 ...]`) overlays the parts of an
//! interrupted run and checks them against an uninterrupted reference:
//! overlapping decisions must be bit-identical, every job must be
//! decided exactly once, and the union must match the reference — the
//! service's determinism contract, enforced end to end.
//!
//! Exit codes follow the repo convention: 0 ok, 2 usage, 3 I/O,
//! 4 runtime/protocol, 5 differential mismatch.

use dbp_core::Time;
use dbp_obs::json::parse;
use dbp_serve::protocol::{
    parse_response, render_request, RejectReason, Request, Response, Submit,
};
use dbp_telemetry::Histogram;
use dbp_workloads::random::PoissonWorkload;
use dbp_workloads::scenarios::SpikeWorkload;
use dbp_workloads::Workload;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Instant;

const USAGE: &str = "\
load_serve — seeded load generator / differential checker for dbp-serve

USAGE:
  load_serve --addr HOST:PORT [OPTIONS]
  load_serve --diff REF PART [PART ...] --jobs N

OPTIONS (run mode):
  --addr HOST:PORT     service address (required)
  --jobs N             total jobs in the seeded stream   [default: 1000]
  --seed S             stream seed                       [default: 42]
  --tenants T          tenant labels to spread over      [default: 4]
  --rate R             Poisson arrivals per tick         [default: 2.0]
  --window W           max outstanding requests          [default: 64]
  --stop-after M       stop after submitting job id M-1 (simulates a
                       client that dies mid-stream)
  --resume             start from the service's id watermark instead
                       of job 0 (same seed ⇒ same stream)
  --out FILE           write one JSON line per decision
  --status-out FILE    write the service's final status response JSON
                       (watermark + totals, for CI accounting checks)
  --checkpoint         request a checkpoint after the last job
  --shutdown           request service shutdown after the last job

DIFF MODE:
  --diff REF PART...   overlay PARTs (later parts may replay decisions
                       already present — they must match bit for bit),
                       then require the overlay to cover jobs 0..N
                       exactly and equal REF

EXIT CODES:
  0 ok   2 usage   3 I/O   4 runtime/protocol   5 differential mismatch
";

enum Fail {
    Usage(String),
    Io(String),
    Runtime(String),
    Mismatch(String),
}

impl Fail {
    fn report(&self) -> ExitCode {
        let (tag, what, code) = match self {
            Fail::Usage(w) => ("usage", w, 2),
            Fail::Io(w) => ("i/o", w, 3),
            Fail::Runtime(w) => ("runtime", w, 4),
            Fail::Mismatch(w) => ("mismatch", w, 5),
        };
        eprintln!("load_serve: {tag} error: {what}");
        if code == 2 {
            eprintln!("{USAGE}");
        }
        ExitCode::from(code)
    }
}

fn io_err(e: std::io::Error, what: &str) -> Fail {
    Fail::Io(format!("{what}: {e}"))
}

/// One generated job, already assigned its dense id and tenant.
struct Job {
    id: u32,
    tenant: String,
    size_raw: u64,
    arrival: Time,
    departure: Time,
}

/// The seeded stream: Poisson background merged with bursty spikes,
/// truncated to `jobs` and re-identified densely in arrival order. The
/// exact fixed-point sizes travel as `size_raw`, so an interrupted and
/// a resumed client submit byte-identical request lines.
fn generate_stream(jobs: usize, seed: u64, tenants: usize, rate: f64) -> Vec<Job> {
    let horizon = ((jobs as f64 / rate.max(0.001)).ceil() as Time).max(10);
    let background = PoissonWorkload::new(rate, horizon).generate_seeded(seed);
    let spikes =
        SpikeWorkload::new(3, (jobs / 10).max(1), (horizon / 4).max(4)).generate_seeded(seed ^ 1);
    let mut triples: Vec<(Time, u64, Time)> = background
        .items()
        .iter()
        .chain(spikes.items().iter())
        .map(|it| (it.arrival(), it.size().raw(), it.departure()))
        .collect();
    triples.sort_unstable();
    triples.truncate(jobs);
    triples
        .into_iter()
        .enumerate()
        .map(|(i, (arrival, size_raw, departure))| Job {
            id: i as u32,
            tenant: format!("tenant-{}", i % tenants.max(1)),
            size_raw,
            arrival,
            departure,
        })
        .collect()
}

/// One decision record, as written to `--out` and compared by diff
/// mode. `detail` strings are deliberately excluded — they are
/// human-facing and not part of the determinism contract.
#[derive(Clone, PartialEq, Eq, Debug)]
struct DecisionRecord {
    tenant: String,
    outcome: String,
    shard: u64,
    bin: u64,
    reason: String,
}

impl DecisionRecord {
    fn render(&self, job: u32) -> String {
        let mut out = format!(
            "{{\"job\":{job},\"tenant\":\"{}\",\"outcome\":\"{}\"",
            dbp_obs::json::escape(&self.tenant),
            self.outcome
        );
        if self.outcome == "placed" {
            out.push_str(&format!(",\"shard\":{},\"bin\":{}", self.shard, self.bin));
        }
        if !self.reason.is_empty() {
            out.push_str(&format!(",\"reason\":\"{}\"", self.reason));
        }
        out.push('}');
        out
    }

    fn from_response(resp: &Response) -> Result<(u32, DecisionRecord), String> {
        match resp {
            Response::Placed {
                tenant,
                job,
                shard,
                bin,
            } => Ok((
                *job,
                DecisionRecord {
                    tenant: tenant.clone(),
                    outcome: "placed".into(),
                    shard: *shard as u64,
                    bin: u64::from(*bin),
                    reason: String::new(),
                },
            )),
            Response::Rejected {
                tenant,
                job,
                reason,
                ..
            } => Ok((
                *job,
                DecisionRecord {
                    tenant: tenant.clone(),
                    outcome: if *reason == RejectReason::FleetCapacity {
                        "shed".into()
                    } else {
                        "rejected".into()
                    },
                    shard: 0,
                    bin: 0,
                    reason: reason.code().into(),
                },
            )),
            Response::Error { what } => Err(format!("service error: {what}")),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }

    fn from_line(line: &str) -> Result<(u32, DecisionRecord), String> {
        let doc = parse(line)?;
        Ok((
            doc.field("job")?,
            DecisionRecord {
                tenant: doc.field("tenant").unwrap_or_default(),
                outcome: doc.field("outcome").unwrap_or_default(),
                shard: doc.field("shard").unwrap_or(0),
                bin: doc.field("bin").unwrap_or(0),
                reason: doc.field("reason").unwrap_or_default(),
            },
        ))
    }
}

struct RunOpts {
    addr: String,
    jobs: usize,
    seed: u64,
    tenants: usize,
    rate: f64,
    window: usize,
    stop_after: Option<usize>,
    resume: bool,
    out: Option<String>,
    status_out: Option<String>,
    checkpoint: bool,
    shutdown: bool,
}

/// One request/response exchange on a fresh connection.
fn one_shot(addr: &str, req: &Request) -> Result<Response, Fail> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err(e, "connect"))?;
    let mut writer = stream.try_clone().map_err(|e| io_err(e, "clone socket"))?;
    let mut reader = BufReader::new(stream);
    writer
        .write_all(format!("{}\n", render_request(req)).as_bytes())
        .map_err(|e| io_err(e, "send"))?;
    writer.flush().map_err(|e| io_err(e, "send"))?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| io_err(e, "recv"))?;
    parse_response(line.trim_end()).map_err(Fail::Runtime)
}

fn run(opts: &RunOpts) -> Result<(), Fail> {
    let stream = generate_stream(opts.jobs, opts.seed, opts.tenants, opts.rate);
    let start_from = if opts.resume {
        match one_shot(&opts.addr, &Request::Status)? {
            Response::Status(s) => s.watermark as usize,
            other => return Err(Fail::Runtime(format!("bad status response: {other:?}"))),
        }
    } else {
        0
    };
    let stop = opts.stop_after.unwrap_or(usize::MAX);
    let to_send: Vec<&Job> = stream
        .iter()
        .filter(|j| (j.id as usize) >= start_from && (j.id as usize) < stop)
        .collect();

    let conn = TcpStream::connect(&opts.addr).map_err(|e| io_err(e, "connect"))?;
    conn.set_nodelay(true).map_err(|e| io_err(e, "nodelay"))?;
    let mut writer = BufWriter::new(conn.try_clone().map_err(|e| io_err(e, "clone socket"))?);
    let reader = BufReader::new(conn);

    let mut out_file = match &opts.out {
        Some(path) => Some(BufWriter::new(
            std::fs::File::create(path).map_err(|e| io_err(e, path))?,
        )),
        None => None,
    };

    // The in-flight channel is both the pipelining window and the
    // request→response pairing: the service answers one line per line,
    // in order, so the reader matches front to front. The reader holds
    // one request while it waits for that response, so `window - 1`
    // queued entries make exactly `window` outstanding; at window 1 the
    // zero-capacity channel is a rendezvous, one request at a time.
    let (inflight_tx, inflight_rx) =
        mpsc::sync_channel::<(u32, Instant)>(opts.window.saturating_sub(1));
    let reader_thread = std::thread::spawn(move || -> Result<ReaderStats, String> {
        let mut reader = reader;
        let mut stats = ReaderStats::default();
        let mut line = String::new();
        while let Ok((job, sent_at)) = inflight_rx.recv() {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err(format!("connection closed with job {job} outstanding"));
            }
            let resp = parse_response(line.trim_end())?;
            let (echoed, record) = DecisionRecord::from_response(&resp)?;
            if echoed != job {
                return Err(format!("response for job {echoed}, expected {job}"));
            }
            stats
                .latency_ns
                .record(u64::try_from(sent_at.elapsed().as_nanos()).unwrap_or(u64::MAX));
            match record.outcome.as_str() {
                "placed" => stats.placed += 1,
                "shed" => stats.shed += 1,
                _ => stats.rejected += 1,
            }
            stats.records.push((job, record));
        }
        Ok(stats)
    });

    let started = Instant::now();
    let mut send_err = None;
    for job in &to_send {
        let req = Request::Submit(Submit {
            tenant: job.tenant.clone(),
            job: job.id,
            size: None,
            size_raw: Some(job.size_raw),
            arrival: job.arrival,
            departure: job.departure,
        });
        if inflight_tx.send((job.id, Instant::now())).is_err() {
            break; // reader died; its error wins below
        }
        let line = format!("{}\n", render_request(&req));
        if let Err(e) = writer.write_all(line.as_bytes()).and_then(|()| {
            // Flush per line: the generator is open-loop, not batchy.
            writer.flush()
        }) {
            send_err = Some(io_err(e, "send"));
            break;
        }
    }
    drop(inflight_tx);
    let stats = match reader_thread.join() {
        Ok(Ok(stats)) => stats,
        Ok(Err(what)) => return Err(Fail::Runtime(what)),
        Err(_) => return Err(Fail::Runtime("reader thread panicked".into())),
    };
    if let Some(e) = send_err {
        return Err(e);
    }
    let elapsed = started.elapsed();

    if let Some(f) = out_file.as_mut() {
        for (job, record) in &stats.records {
            writeln!(f, "{}", record.render(*job)).map_err(|e| io_err(e, "decision log"))?;
        }
        f.flush().map_err(|e| io_err(e, "decision log"))?;
    }

    eprintln!(
        "load_serve: {} sent in {:.3}s ({:.0} req/s): {} placed, {} shed, {} rejected \
         (p50 {}µs, p99 {}µs)",
        to_send.len(),
        elapsed.as_secs_f64(),
        to_send.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.placed,
        stats.shed,
        stats.rejected,
        stats.latency_ns.quantile(0.50) / 1_000,
        stats.latency_ns.quantile(0.99) / 1_000,
    );

    if let Some(path) = &opts.status_out {
        match one_shot(&opts.addr, &Request::Status)? {
            resp @ Response::Status(_) => {
                std::fs::write(
                    path,
                    format!("{}\n", dbp_serve::protocol::render_response(&resp)),
                )
                .map_err(|e| io_err(e, path))?;
            }
            other => return Err(Fail::Runtime(format!("bad status response: {other:?}"))),
        }
    }
    if opts.checkpoint {
        match one_shot(&opts.addr, &Request::Checkpoint)? {
            Response::Checkpointed { seq } => eprintln!("load_serve: checkpoint {seq} written"),
            other => return Err(Fail::Runtime(format!("checkpoint failed: {other:?}"))),
        }
    }
    if opts.shutdown {
        match one_shot(&opts.addr, &Request::Shutdown)? {
            Response::ShuttingDown => eprintln!("load_serve: service shutting down"),
            other => return Err(Fail::Runtime(format!("shutdown failed: {other:?}"))),
        }
    }
    Ok(())
}

#[derive(Default)]
struct ReaderStats {
    records: Vec<(u32, DecisionRecord)>,
    placed: u64,
    shed: u64,
    rejected: u64,
    latency_ns: Histogram,
}

fn read_decisions(path: &str) -> Result<Vec<(u32, DecisionRecord)>, Fail> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(e, path))?;
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = DecisionRecord::from_line(line)
            .map_err(|e| Fail::Runtime(format!("{path}:{}: {e}", ln + 1)))?;
        out.push(rec);
    }
    Ok(out)
}

/// Diff mode: overlay `parts` and compare against `reference`.
fn diff(reference: &str, parts: &[String], jobs: usize) -> Result<(), Fail> {
    let ref_map: BTreeMap<u32, DecisionRecord> = read_decisions(reference)?.into_iter().collect();
    let mut overlay: BTreeMap<u32, (DecisionRecord, String)> = BTreeMap::new();
    let mut replayed = 0usize;
    for part in parts {
        for (job, rec) in read_decisions(part)? {
            match overlay.get(&job) {
                // A later part may re-decide jobs the service forgot
                // between its last checkpoint and the kill — but only
                // with the exact same outcome.
                Some((prev, from)) if *prev != rec => {
                    return Err(Fail::Mismatch(format!(
                        "job {job}: {part} decided {rec:?} but {from} decided {prev:?}"
                    )));
                }
                Some(_) => replayed += 1,
                None => {
                    overlay.insert(job, (rec, part.clone()));
                }
            }
        }
    }
    for job in 0..jobs as u32 {
        let Some((rec, _)) = overlay.get(&job) else {
            return Err(Fail::Mismatch(format!(
                "job {job}: lost (no part decided it)"
            )));
        };
        match ref_map.get(&job) {
            None => {
                return Err(Fail::Mismatch(format!(
                    "job {job}: missing from reference {reference}"
                )))
            }
            Some(expect) if expect != rec => {
                return Err(Fail::Mismatch(format!(
                    "job {job}: parts decided {rec:?}, reference decided {expect:?}"
                )));
            }
            Some(_) => {}
        }
    }
    if overlay.len() != jobs {
        return Err(Fail::Mismatch(format!(
            "parts decided {} jobs, expected exactly {jobs}",
            overlay.len()
        )));
    }
    eprintln!(
        "load_serve: diff ok — {jobs} jobs decided exactly once, {replayed} replayed \
         decision(s) bit-identical, overlay matches {reference}"
    );
    Ok(())
}

fn parse_args(args: &[String]) -> Result<Mode, Fail> {
    let usage = |what: String| Fail::Usage(what);
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Mode::Help);
    }
    if let Some(pos) = args.iter().position(|a| a == "--diff") {
        let mut files = Vec::new();
        let mut i = pos + 1;
        while i < args.len() && !args[i].starts_with("--") {
            files.push(args[i].clone());
            i += 1;
        }
        if files.len() < 2 {
            return Err(usage(
                "--diff needs a reference and at least one part".into(),
            ));
        }
        let mut jobs = None;
        while i < args.len() {
            match args[i].as_str() {
                "--jobs" => {
                    i += 1;
                    jobs = Some(parse_num(args.get(i), "--jobs")?);
                }
                other => return Err(usage(format!("unknown diff-mode flag {other:?}"))),
            }
            i += 1;
        }
        let jobs = jobs.ok_or_else(|| usage("--diff requires --jobs N".into()))?;
        let reference = files.remove(0);
        return Ok(Mode::Diff {
            reference,
            parts: files,
            jobs: jobs as usize,
        });
    }
    let mut opts = RunOpts {
        addr: String::new(),
        jobs: 1000,
        seed: 42,
        tenants: 4,
        rate: 2.0,
        window: 64,
        stop_after: None,
        resume: false,
        out: None,
        status_out: None,
        checkpoint: false,
        shutdown: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                opts.addr = args
                    .get(i)
                    .ok_or_else(|| usage("--addr needs a value".into()))?
                    .clone();
            }
            "--jobs" => {
                i += 1;
                opts.jobs = parse_num(args.get(i), "--jobs")? as usize;
            }
            "--seed" => {
                i += 1;
                opts.seed = parse_num(args.get(i), "--seed")?;
            }
            "--tenants" => {
                i += 1;
                opts.tenants = (parse_num(args.get(i), "--tenants")? as usize).max(1);
            }
            "--rate" => {
                i += 1;
                opts.rate = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|r: &f64| *r > 0.0)
                    .ok_or_else(|| usage("--rate needs a positive number".into()))?;
            }
            "--window" => {
                i += 1;
                opts.window = (parse_num(args.get(i), "--window")? as usize).max(1);
            }
            "--stop-after" => {
                i += 1;
                opts.stop_after = Some(parse_num(args.get(i), "--stop-after")? as usize);
            }
            "--resume" => opts.resume = true,
            "--out" => {
                i += 1;
                opts.out = Some(
                    args.get(i)
                        .ok_or_else(|| usage("--out needs a path".into()))?
                        .clone(),
                );
            }
            "--status-out" => {
                i += 1;
                opts.status_out = Some(
                    args.get(i)
                        .ok_or_else(|| usage("--status-out needs a path".into()))?
                        .clone(),
                );
            }
            "--checkpoint" => opts.checkpoint = true,
            "--shutdown" => opts.shutdown = true,
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
        i += 1;
    }
    if opts.addr.is_empty() {
        return Err(usage("--addr is required in run mode".into()));
    }
    if opts.jobs == 0 {
        return Err(usage("--jobs must be >= 1".into()));
    }
    Ok(Mode::Run(Box::new(opts)))
}

fn parse_num(arg: Option<&String>, flag: &str) -> Result<u64, Fail> {
    arg.and_then(|v| v.parse().ok())
        .ok_or_else(|| Fail::Usage(format!("{flag} needs an unsigned integer")))
}

enum Mode {
    Help,
    Run(Box<RunOpts>),
    Diff {
        reference: String,
        parts: Vec<String>,
        jobs: usize,
    },
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(f) => return f.report(),
    };
    let result = match mode {
        Mode::Help => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Mode::Run(opts) => run(&opts),
        Mode::Diff {
            reference,
            parts,
            jobs,
        } => diff(&reference, &parts, jobs),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => f.report(),
    }
}
