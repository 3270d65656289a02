//! The traced run: one workload's stream through a ladder of layers.
//!
//! Each rung adds one layer on top of the one below and times every
//! call into that layer's public functions from here, recording one
//! `dbp_telemetry` span per call with the job id as its `seq`:
//!
//! | rung | calls timed per job |
//! |---|---|
//! | `session` | `StreamingSession::arrive` (one session, no shards) |
//! | `sharded` | `ShardedSession::arrive` at the workload's K, plus `finish` |
//! | `service` | `Service::handle` |
//! | `protocol` | `parse_request` + `Service::handle` + `render_response` |
//! | `wal` | the same, with the workload's WAL policy |
//! | `checkpoint` | the same, with its checkpoints too |
//! | `tcp` | `dbp serve` over TCP, closed loop, window 16 |
//!
//! The rungs a workload's own configuration does not use (`wal`,
//! `checkpoint`) are skipped. Differences between neighbouring rungs are
//! the layers' taxes, so the engine→TCP gap becomes a sum of named terms.
//! Single layers are also driven directly — the packer through a
//! forwarding wrapper that times `place`, the WAL writer on the
//! workload's frames, the checkpoint codec on the session's state — so
//! each layer has its own cost even when the workload does not use it.
//! Nothing inside the program is instrumented.

use crate::check::{check_packing, compare_decisions, Job, Outcome};
use crate::client::{drive, outcome_of, request_lines, submit, Pace};
use crate::host::{Host, ScratchDir};
use crate::pack_run::jobs_of;
use crate::report::Report;
use crate::serve_run::{print_latency, WINDOW};
use crate::server::{prom_mean, serve_args, Server};
use crate::spec::{deep_instance, serve_stream, Kind, Scale, ServeSpec, WorkloadSpec};
use crate::stats::{beyond, mean, percentile};
use dbp_bench::registry::{online_packer, online_packer_linear, vector_packer, AlgoParams};
use dbp_core::online::ItemView;
use dbp_core::stream::StreamingSession;
use dbp_core::{
    ClairvoyanceMode, Decision, Instance, Item, OnlineEngine, OnlinePacker, OpenBins, PackerState,
    Size, VecClairvoyance, VecInstance, VecItem, VecItemView, VecOnlinePacker, VecOpenBins,
    VecStreamingSession,
};
use dbp_serve::protocol::{parse_request, render_response, Request, Response};
use dbp_serve::state::{encode, write_serve_checkpoint, ServeCheckpoint};
use dbp_serve::wal::{encode_frame, DecisionFrame, FrameOutcome, WalWriter};
use dbp_serve::{FsyncPolicy, ServeConfig, Service};
use dbp_shard::{ShardConfig, ShardRouter, ShardedSession};
use dbp_telemetry::{chrome_trace_json, folded_stacks, SpanCollector, NO_SEQ};
use dbp_workloads::random::DurationDist;
use dbp_workloads::vector::{CorrelatedVectorWorkload, VectorWorkload};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// WAL frames synced one by one for `wal.sync_ns`.
const SYNC_SAMPLES: usize = 200;
/// Jobs whose spans go into the chrome trace (folded stacks keep all).
const CHROME_JOBS: u64 = 500;

/// A forwarding packer that times every `place` call.
struct TimedPacker {
    inner: Box<dyn OnlinePacker + Send>,
    calls: u64,
    ns: u64,
    scanned: u64,
    epoch: Instant,
    /// `(start, duration)` of each call, ns since `epoch`.
    log: Vec<(u64, u64)>,
}

impl OnlinePacker for TimedPacker {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn place(&mut self, item: &ItemView, open_bins: &OpenBins) -> Decision {
        let t0 = Instant::now();
        let d = self.inner.place(item, open_bins);
        let dur = t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.ns += dur;
        self.scanned += self.inner.last_scanned().unwrap_or(0) as u64;
        self.log
            .push((t0.duration_since(self.epoch).as_nanos() as u64, dur));
        d
    }
    fn last_scanned(&self) -> Option<usize> {
        self.inner.last_scanned()
    }
    fn save_state(&self) -> PackerState {
        self.inner.save_state()
    }
    fn restore_state(&mut self, state: &PackerState) -> Result<(), dbp_core::DbpError> {
        self.inner.restore_state(state)
    }
}

/// The vector twin of [`TimedPacker`].
struct TimedVecPacker {
    inner: Box<dyn VecOnlinePacker + Send>,
    calls: u64,
    ns: u64,
}

impl VecOnlinePacker for TimedVecPacker {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn place(&mut self, item: &VecItemView, open_bins: &VecOpenBins) -> Decision {
        let t0 = Instant::now();
        let d = self.inner.place(item, open_bins);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        d
    }
    fn last_scanned(&self) -> Option<usize> {
        self.inner.last_scanned()
    }
}

/// One rung of the ladder.
struct Rung {
    name: &'static str,
    /// Time per job in this rung's timed calls, ns — span bookkeeping
    /// between calls excluded, so rungs compare like with like. The
    /// `tcp` rung is the untraced wall time per request instead.
    ns: f64,
}

/// The spans of a traced run, all on one timeline.
struct Tracer {
    spans: SpanCollector,
}

impl Tracer {
    /// Opens a root span for a rung or a layer pass.
    fn begin(&mut self, name: &'static str) -> u64 {
        self.spans.begin(name, 0, None, NO_SEQ)
    }

    /// Times `f` as one span named `name` under `parent`, with `seq` =
    /// job id. Returns the result and the span's duration.
    fn call<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        seq: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let t0 = self.spans.now_ns();
        let out = f();
        let id = self.spans.record_since(name, 0, Some(parent), seq, t0);
        (out, self.spans.spans()[id as usize].dur_ns)
    }

    /// Closes a root span and returns its duration, ns.
    fn end(&mut self, id: u64) -> u64 {
        self.spans.end(id);
        self.spans.spans()[id as usize].dur_ns
    }
}

/// What the ladder runs a workload's stream against.
struct Setup {
    jobs: Vec<Job>,
    items: Vec<Item>,
    vec_items: Vec<VecItem>,
    vec_algo: &'static str,
    spec: ServeSpec,
    /// For `--verify` on `pack-deep`: the whole deep instance.
    deep: Option<Instance>,
}

fn setup(w: &WorkloadSpec, seed: u64, scale: Scale, verify: bool) -> Result<Setup, String> {
    match &w.kind {
        Kind::Serve(spec) => {
            let jobs = serve_stream(scale.jobs(spec.trace_jobs_per_s, 200), seed);
            let items = items_of(&jobs)?;
            let vec_items = items.iter().map(|it| VecItem::lift(it, 1)).collect();
            Ok(Setup {
                jobs,
                items,
                vec_items,
                vec_algo: spec.algo,
                spec: spec.clone(),
                deep: None,
            })
        }
        Kind::Pack(p) => {
            let inst = deep_instance(scale.fixed(p.horizon as usize) as i64, seed);
            let n = scale.fixed(p.trace_items).min(inst.len());
            let items: Vec<Item> = inst.items()[..n].to_vec();
            let vec_n = scale.fixed(p.vec_items);
            let means = [0.3, 0.2, 0.45];
            let vec_inst: VecInstance = CorrelatedVectorWorkload::new(vec_n, &means, 0.5, 0.6)
                .map_err(|e| e.to_string())?
                .with_durations(DurationDist::Exponential {
                    mean: 1000.0,
                    min: 1,
                    max: 10_000,
                })
                .with_arrival_span(vec_n as i64)
                .generate_seeded(seed);
            Ok(Setup {
                jobs: jobs_of(&items),
                items,
                vec_items: vec_inst.items().to_vec(),
                vec_algo: p.vec_algo,
                spec: ServeSpec {
                    shards: 1,
                    algo: p.algo,
                    fleet_cap: None,
                    fsync: None,
                    checkpoint_every: None,
                    open_loop: None,
                    closed_jobs_per_s: 0.0,
                    scraper: false,
                    trace_jobs_per_s: 0.0,
                },
                deep: verify.then_some(inst),
            })
        }
    }
}

fn items_of(jobs: &[Job]) -> Result<Vec<Item>, String> {
    jobs.iter()
        .map(|j| Item::try_new(j.id, Size::from_raw(j.size_raw), j.arrival, j.departure))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

fn params(items: &[Item]) -> Result<AlgoParams, String> {
    let inst = Instance::from_items(items.to_vec()).map_err(|e| e.to_string())?;
    Ok(AlgoParams::from_instance(&inst))
}

/// The in-process service config of a workload, durable state under
/// `dir` as the flags say.
fn serve_config(
    spec: &ServeSpec,
    dir: &Path,
    wal: Option<&str>,
    ckpt: Option<u64>,
) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::new(spec.shards, spec.algo);
    cfg.fleet_cap = spec.fleet_cap;
    if let Some(policy) = wal {
        cfg.wal_dir = Some(dir.join("wal"));
        cfg.fsync = FsyncPolicy::parse(policy).map_err(|e| e.to_string())?;
    }
    if let Some(every) = ckpt {
        cfg.checkpoint_dir = Some(dir.join("ckpt"));
        cfg.checkpoint_every = every;
    }
    Ok(cfg)
}

/// Means of the protocol rung's per-call spans.
struct ProtocolCosts {
    parse_ns: f64,
    render_ns: f64,
    req_bytes: f64,
    resp_bytes: f64,
}

/// A rung that goes through the line protocol: returns ns per job, the
/// per-call means, the decisions, and the still-running service.
fn protocol_rung(
    tr: &mut Tracer,
    name: &'static str,
    cfg: ServeConfig,
    jobs: &[Job],
    lines: &[String],
) -> Result<(f64, ProtocolCosts, Vec<Outcome>, Service), String> {
    let service = Service::start(cfg).map_err(|e| e.to_string())?;
    let root = tr.begin(name);
    let (mut parse, mut render, mut resp_bytes) = (Vec::new(), Vec::new(), 0usize);
    let mut timed = 0u64;
    let mut outcomes = Vec::with_capacity(jobs.len());
    for (job, line) in jobs.iter().zip(lines) {
        let seq = u64::from(job.id);
        let request = tr.spans.begin("protocol.request", 0, Some(root), seq);
        let (req, p) = tr.call("protocol.parse", request, seq, || {
            parse_request(line.trim_end())
        });
        let req = req?;
        let (resp, h) = tr.call("service.handle", request, seq, || service.handle(&req));
        let (text, r) = tr.call("protocol.render", request, seq, || render_response(&resp));
        tr.spans.end(request);
        timed += p + h + r;
        parse.push(p);
        render.push(r);
        resp_bytes += text.len() + 1;
        outcomes.push(outcome_of(&resp, job.id)?);
    }
    tr.end(root);
    let n = jobs.len().max(1) as f64;
    let costs = ProtocolCosts {
        parse_ns: mean(&parse),
        render_ns: mean(&render),
        req_bytes: lines.iter().map(String::len).sum::<usize>() as f64 / n,
        resp_bytes: resp_bytes as f64 / n,
    };
    Ok((timed as f64 / n, costs, outcomes, service))
}

/// The traced run of one workload. Returns every per-layer metric.
pub fn run(
    host: &Host,
    dbp: &Path,
    scratch: &ScratchDir,
    w: &WorkloadSpec,
    seed: u64,
    scale: Scale,
    verify: bool,
) -> Result<Report, String> {
    let s = setup(w, seed, scale, verify)?;
    let spec = &s.spec;
    let n = s.jobs.len();
    let nf = n as f64;
    let algo_params = params(&s.items)?;
    let mut report = Report {
        attempted: n as u64,
        ..Report::default()
    };
    let mut tr = Tracer {
        spans: SpanCollector::new(),
    };
    let mut rungs: Vec<Rung> = Vec::new();
    println!(
        "  ladder: {n} jobs, {} shard(s), {}{}{}",
        spec.shards,
        spec.algo,
        spec.fsync.map_or(String::new(), |p| format!(", wal {p}")),
        spec.checkpoint_every
            .map_or(String::new(), |c| format!(", checkpoint every {c}"))
    );

    // Rung 1, untraced and traced alternately: the difference is what
    // tracing costs.
    let mut plain_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut session_ns = 0.0;
    let (mut open_peak, mut live_peak, mut live_items) = (0usize, 0usize, 0usize);
    let mut snapshot = None;
    for _ in 0..2 {
        let mut packer = online_packer(spec.algo, algo_params);
        let mut session = StreamingSession::new(ClairvoyanceMode::Clairvoyant, packer.as_mut());
        let t0 = Instant::now();
        for item in &s.items {
            black_box(session.arrive(item).map_err(|e| e.to_string())?);
        }
        plain_wall.push(t0.elapsed().as_nanos() as f64);

        let mut packer = online_packer(spec.algo, algo_params);
        let mut session = StreamingSession::new(ClairvoyanceMode::Clairvoyant, packer.as_mut());
        let t0 = Instant::now();
        let root = tr.begin("session");
        let mut calls = 0u64;
        for (k, item) in s.items.iter().enumerate() {
            let (r, d) = tr.call("stream.arrive", root, u64::from(item.id().0), || {
                session.arrive(item)
            });
            r.map_err(|e| e.to_string())?;
            calls += d;
            open_peak = open_peak.max(session.open_bins());
            if k % 256 == 0 {
                live_peak = live_peak.max(session.approx_live_bytes());
            }
        }
        tr.end(root);
        traced_wall.push(t0.elapsed().as_nanos() as f64);
        session_ns = calls as f64 / nf;
        live_items = session.live_items();
        snapshot = Some(session.snapshot());
    }
    let overhead_pct = (traced_wall.iter().sum::<f64>() - plain_wall.iter().sum::<f64>())
        / plain_wall.iter().sum::<f64>()
        * 100.0;
    rungs.push(Rung {
        name: "session",
        ns: session_ns,
    });

    // The packer alone, through the timing wrapper.
    let epoch = tr.spans.epoch();
    let mut timed = TimedPacker {
        inner: online_packer(spec.algo, algo_params),
        calls: 0,
        ns: 0,
        scanned: 0,
        epoch,
        log: Vec::with_capacity(n),
    };
    let mut arrive_ns = 0u64;
    let root = tr.begin("packer-pass");
    let mut arrive_ids = Vec::with_capacity(n);
    {
        let mut session = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut timed);
        for item in &s.items {
            let (r, d) = tr.call("stream.arrive", root, u64::from(item.id().0), || {
                session.arrive(item)
            });
            r.map_err(|e| e.to_string())?;
            arrive_ns += d;
            arrive_ids.push(tr.spans.spans().len() as u64 - 1);
        }
    }
    tr.end(root);
    for (&(start, dur), (&parent, item)) in timed.log.iter().zip(arrive_ids.iter().zip(&s.items)) {
        tr.spans.record(
            "packer.place",
            0,
            Some(parent),
            u64::from(item.id().0),
            start,
            dur,
        );
    }
    let calls = timed.calls.max(1) as f64;
    let decide_ns = timed.ns as f64 / calls;
    let stream_arrive_ns = arrive_ns as f64 / nf;

    // Vector packer through its wrapper.
    let mut vtimed = TimedVecPacker {
        inner: vector_packer(
            s.vec_algo,
            AlgoParams::from_vec_instance(
                &VecInstance::from_items(s.vec_items.clone()).map_err(|e| e.to_string())?,
            ),
        ),
        calls: 0,
        ns: 0,
    };
    {
        let mut vs = VecStreamingSession::new(VecClairvoyance::Clairvoyant, &mut vtimed);
        for item in &s.vec_items {
            vs.arrive(item).map_err(|e| e.to_string())?;
        }
        black_box(vs.finish().map_err(|e| e.to_string())?);
    }
    let vec_decide_ns = vtimed.ns as f64 / vtimed.calls.max(1) as f64;

    // Rung 2: sharded at the workload's K (and K = 1 for the shard tax).
    let sharded = |tr: &mut Tracer, k: usize| -> Result<(f64, f64), String> {
        let packers = (0..k)
            .map(|_| online_packer(spec.algo, algo_params))
            .collect();
        let mut cfg = ShardConfig::new(k, ShardRouter::hash());
        cfg.threads = Some(1);
        cfg.collect_metrics = false;
        let mut fleet = ShardedSession::new(ClairvoyanceMode::Clairvoyant, packers, cfg)
            .map_err(|e| e.to_string())?;
        let root = tr.begin(if k == 1 { "sharded-k1" } else { "sharded" });
        let mut route = 0u64;
        for item in &s.items {
            let (r, d) = tr.call("shard.route", root, u64::from(item.id().0), || {
                fleet.arrive(item)
            });
            r.map_err(|e| e.to_string())?;
            route += d;
        }
        let (r, finish) = tr.call("shard.finish", root, NO_SEQ, || fleet.finish());
        black_box(r.map_err(|e| e.to_string())?);
        tr.end(root);
        Ok(((route + finish) as f64 / nf, route as f64 / nf))
    };
    let (sharded_ns, route_ns) = sharded(&mut tr, spec.shards)?;
    let k1_ns = if spec.shards == 1 {
        sharded_ns
    } else {
        sharded(&mut tr, 1)?.0
    };
    rungs.push(Rung {
        name: "sharded",
        ns: sharded_ns,
    });

    // Rung 3: the in-process service.
    let requests: Vec<Request> = s.jobs.iter().map(submit).collect();
    let dir = scratch.sub("trace-service")?;
    let service =
        Service::start(serve_config(spec, &dir, None, None)?).map_err(|e| e.to_string())?;
    let root = tr.begin("service");
    let mut reference = Vec::with_capacity(n);
    let mut handle = Vec::with_capacity(n);
    for (job, req) in s.jobs.iter().zip(&requests) {
        let (resp, d) = tr.call("service.handle", root, u64::from(job.id), || {
            service.handle(req)
        });
        handle.push(d);
        reference.push(outcome_of(&resp, job.id)?);
    }
    tr.end(root);
    let service_ns = handle.iter().sum::<u64>() as f64 / nf;
    drop(service);
    rungs.push(Rung {
        name: "service",
        ns: service_ns,
    });
    match check_packing(&s.jobs, &reference, spec.fleet_cap) {
        Ok(_) => {}
        Err(e) => report.violation(format!("in-process service: {e}")),
    }

    // Rung 4: the line protocol around the service.
    let lines = request_lines(&s.jobs);
    let (protocol_ns, costs, decided, service) = protocol_rung(
        &mut tr,
        "protocol",
        serve_config(spec, &scratch.sub("trace-protocol")?, None, None)?,
        &s.jobs,
        &lines,
    )?;
    drop(service);
    if let Err(e) = compare_decisions("protocol rung", &decided, &reference) {
        report.violation(e);
    }
    rungs.push(Rung {
        name: "protocol",
        ns: protocol_ns,
    });

    // Rungs 5 and 6, when the workload's configuration has them; the
    // last durable service also gives the served WAL cost and the
    // recovery measurement. A workload without durable state gets them
    // from a pass with the cheapest WAL (`never`) and the default
    // checkpoint interval, outside its ladder.
    let mut durable = None;
    if let Some(policy) = spec.fsync {
        let dir = scratch.sub("trace-wal")?;
        let cfg = serve_config(spec, &dir, Some(policy), None)?;
        let (ns, _, d, svc) = protocol_rung(&mut tr, "wal", cfg.clone(), &s.jobs, &lines)?;
        if let Err(e) = compare_decisions("wal rung", &d, &reference) {
            report.violation(e);
        }
        rungs.push(Rung { name: "wal", ns });
        durable = Some((cfg, svc));
    }
    if let Some(every) = spec.checkpoint_every {
        let dir = scratch.sub("trace-checkpoint")?;
        let cfg = serve_config(spec, &dir, spec.fsync, Some(every))?;
        let (ns, _, d, svc) = protocol_rung(&mut tr, "checkpoint", cfg.clone(), &s.jobs, &lines)?;
        if let Err(e) = compare_decisions("checkpoint rung", &d, &reference) {
            report.violation(e);
        }
        rungs.push(Rung {
            name: "checkpoint",
            ns,
        });
        durable = Some((cfg, svc));
    }
    let durable_in_path = durable.is_some();
    let (cfg, svc) = match durable {
        Some(d) => d,
        None => {
            let dir = scratch.sub("trace-durable")?;
            let cfg = serve_config(spec, &dir, Some("never"), Some(1_000))?;
            let (_, _, _, svc) =
                protocol_rung(&mut tr, "durable-pass", cfg.clone(), &s.jobs, &lines)?;
            (cfg, svc)
        }
    };
    let in_proc = match svc.handle(&Request::Metrics) {
        Response::Metrics { text } => text,
        other => return Err(format!("in-process metrics answered {other:?}")),
    };
    let wal_served = prom_mean(&in_proc, "dbp_serve_wal_append_ns").unwrap_or(f64::NAN);
    let place_in_proc = prom_mean(&in_proc, "dbp_serve_place_ns").unwrap_or(f64::NAN);
    drop(svc);
    let t0 = Instant::now();
    let restarted = Service::start(cfg).map_err(|e| format!("recovery: {e}"))?;
    let recovery_wall = t0.elapsed().as_nanos() as f64;
    let rec = restarted.recovery().cloned().unwrap_or_default();
    drop(restarted);
    println!(
        "  recovery: {} frames, {} WAL bytes, {:.2} ms ({:.2} ms to a ready service){}",
        rec.replayed_frames,
        rec.wal_bytes,
        rec.duration_ns as f64 / 1e6,
        recovery_wall / 1e6,
        if durable_in_path {
            ""
        } else {
            " — measured outside this workload's path (wal never, checkpoint every 1000)"
        }
    );

    // The WAL writer alone, on this workload's frames.
    let frames: Vec<DecisionFrame> = s
        .jobs
        .iter()
        .zip(&reference)
        .enumerate()
        .map(|(i, (j, o))| DecisionFrame {
            seq: i as u64 + 1,
            stream: match o {
                Outcome::Placed { shard, .. } => *shard,
                Outcome::Shed => 0,
            },
            tenant: crate::spec::tenant_of(j.id).to_string(),
            job: j.id,
            size_is_raw: true,
            size_bits: j.size_raw,
            arrival: j.arrival,
            departure: j.departure,
            outcome: match o {
                Outcome::Placed { shard, bin } => FrameOutcome::Placed {
                    shard: *shard,
                    bin: *bin,
                },
                Outcome::Shed => FrameOutcome::Shed { shard: 0 },
            },
        })
        .collect();
    let frame_bytes = frames.iter().map(|f| encode_frame(f).len()).sum::<usize>() as f64 / nf;
    let wal_dir = scratch.sub("trace-wal-writer")?;
    let mut writer = WalWriter::open(&wal_dir, spec.shards + 1, 0, FsyncPolicy::Never)
        .map_err(|e| e.to_string())?;
    let root = tr.begin("wal-writer");
    let mut appends = Vec::with_capacity(n);
    let mut syncs = Vec::new();
    for (i, f) in frames.iter().enumerate() {
        let (r, d) = tr.call("wal.append", root, u64::from(f.job), || writer.append(f));
        r.map_err(|e| e.to_string())?;
        appends.push(d);
        if i < SYNC_SAMPLES {
            let (r, d) = tr.call("wal.sync", root, u64::from(f.job), || writer.sync());
            r.map_err(|e| e.to_string())?;
            syncs.push(d);
        }
    }
    tr.end(root);
    drop(writer);

    // The checkpoint codec on the session state at the end of the stream.
    let snap = snapshot.expect("rung 1 ran");
    let root = tr.begin("state");
    let mut snap_ns = Vec::new();
    let mut enc_ns = Vec::new();
    let mut write_ns = Vec::new();
    let ck_dir = scratch.sub("trace-state")?;
    let mut ck_bytes = 0usize;
    let mut packer = online_packer(spec.algo, algo_params);
    let mut session = StreamingSession::new(ClairvoyanceMode::Clairvoyant, packer.as_mut());
    for item in &s.items {
        session.arrive(item).map_err(|e| e.to_string())?;
    }
    for k in 0..3u64 {
        let (sn, d) = tr.call("state.snapshot", root, NO_SEQ, || session.snapshot());
        snap_ns.push(d);
        let ck = ServeCheckpoint {
            seq: k + 1,
            algo: spec.algo.into(),
            router: ShardRouter::hash().name(),
            fleet_cap: spec.fleet_cap.map(|c| c as u64),
            last_arrival: sn.last_arrival,
            watermark: sn.watermark,
            above: sn.above.clone(),
            placed: n as u64,
            shed: 0,
            rejected: 0,
            decision_seq: n as u64,
            tenants: Vec::new(),
            sessions: vec![sn],
        };
        let (text, d) = tr.call("state.encode", root, NO_SEQ, || encode(&ck));
        enc_ns.push(d);
        ck_bytes = text.len();
        let (r, d) = tr.call("state.write", root, NO_SEQ, || {
            write_serve_checkpoint(&ck_dir, &ck)
        });
        r.map_err(|e| e.to_string())?;
        write_ns.push(d);
    }
    tr.end(root);
    if session.snapshot() != snap {
        report.violation("two sessions over the same stream ended in different states");
    }
    drop(session);

    // Rung 7: TCP.
    let dir = scratch.sub("trace-tcp")?;
    let (server, _) = Server::boot(host, dbp, &serve_args(spec, &dir), &dir)?;
    let root = tr.begin("tcp");
    let res = drive(
        &server.addr,
        &s.jobs,
        &lines,
        Pace::Closed { window: WINDOW },
        false,
    )?;
    tr.end(root);
    let scraped = server.metrics()?;
    server.shutdown()?;
    let tcp_ns = res.elapsed.as_nanos() as f64 / nf;
    rungs.push(Rung {
        name: "tcp",
        ns: tcp_ns,
    });
    report.failed += res.outcomes.iter().filter(|o| o.is_none()).count() as u64;
    match res.decisions() {
        Ok(tcp) => {
            if let Err(e) = check_packing(&s.jobs, &tcp, spec.fleet_cap) {
                report.violation(format!("tcp: {e}"));
            }
            if verify {
                match compare_decisions("tcp vs in-process service", &tcp, &reference) {
                    Ok(()) => println!("  verify: TCP decisions equal the in-process service's"),
                    Err(e) => report.violation(e),
                }
            }
        }
        Err(e) => report.violation(format!("tcp: {e}")),
    }
    print_latency("tcp latency from send", &res.latency_ns);
    let mut lat = res.latency_ns.clone();
    lat.sort_unstable();

    if let (true, Some(inst)) = (verify, &s.deep) {
        verify_linear(&mut report, inst, spec.algo)?;
    }

    print_ladder(w.name, &rungs);
    write_trace(host, w.name, seed, &tr)?;

    let in_path_last = rungs[rungs.len() - 2].ns;
    let us = |p: f64| percentile(&lat, p).map_or(f64::NAN, |v| v as f64 / 1e3);
    let mean_ns = |v: &[u64]| mean(v);
    report.push("packer.decide_ns", decide_ns, "ns");
    report.push(
        "packer.candidates_per_decision",
        timed.scanned as f64 / calls,
        "count",
    );
    report.push("packer.vec_decide_ns", vec_decide_ns, "ns");
    report.push("stream.arrive_ns", stream_arrive_ns, "ns");
    report.push("stream.self_ns", stream_arrive_ns - decide_ns, "ns");
    report.push("stream.live_bytes_peak", live_peak as f64, "bytes");
    report.push("stream.open_bins_peak", open_peak as f64, "count");
    report.push("shard.route_ns", route_ns, "ns");
    report.push("shard.tax_ns", k1_ns - session_ns, "ns");
    report.push("service.handle_ns", mean_ns(&handle), "ns");
    report.push("service.tax_ns", mean_ns(&handle) - session_ns, "ns");
    report.push(
        "service.place_ns",
        prom_mean(&scraped, "dbp_serve_place_ns").unwrap_or(place_in_proc),
        "ns",
    );
    report.push("protocol.parse_ns", costs.parse_ns, "ns");
    report.push("protocol.render_ns", costs.render_ns, "ns");
    report.push("protocol.req_bytes", costs.req_bytes, "bytes");
    report.push("protocol.resp_bytes", costs.resp_bytes, "bytes");
    report.push("server.tax_us", (tcp_ns - in_path_last) / 1e3, "us");
    report.push("wal.append_ns", mean_ns(&appends), "ns");
    report.push("wal.sync_ns", mean_ns(&syncs), "ns");
    report.push("wal.frame_bytes", frame_bytes, "bytes");
    report.push("wal.append_ns_served", wal_served, "ns");
    report.push("wal.share_of_place", wal_served / place_in_proc, "ratio");
    report.push("state.snapshot_ns", mean_ns(&snap_ns), "ns");
    report.push("state.encode_ns", mean_ns(&enc_ns), "ns");
    report.push("state.write_ns", mean_ns(&write_ns), "ns");
    report.push("state.ckpt_bytes", ck_bytes as f64, "bytes");
    report.push(
        "state.bytes_per_live_item",
        ck_bytes as f64 / live_items.max(1) as f64,
        "bytes",
    );
    report.push("recovery.duration_ns", rec.duration_ns as f64, "ns");
    report.push(
        "recovery.replayed_frames",
        rec.replayed_frames as f64,
        "count",
    );
    report.push("recovery.wal_bytes", rec.wal_bytes as f64, "bytes");
    report.push("client.latency_p99_us", us(99.0), "us");
    report.push("client.latency_p999_us", us(99.9), "us");
    report.push("client.latency_samples", lat.len() as f64, "count");
    report.push(
        "client.latency_p999_support",
        beyond(&lat, 99.9) as f64,
        "count",
    );
    report.push("trace.overhead_pct", overhead_pct, "%");
    Ok(report)
}

/// `--verify` on `pack-deep`: the indexed packer against its linear-scan
/// foil over the whole deep instance, bit for bit.
fn verify_linear(report: &mut Report, inst: &Instance, algo: &str) -> Result<(), String> {
    let p = AlgoParams::from_instance(inst);
    let engine = OnlineEngine::clairvoyant();
    let mut indexed = online_packer(algo, p);
    let mut linear = online_packer_linear(algo, p);
    let a = engine
        .run(inst, indexed.as_mut())
        .map_err(|e| e.to_string())?;
    let b = engine
        .run(inst, linear.as_mut())
        .map_err(|e| e.to_string())?;
    if a == b {
        println!(
            "  verify: {} items, indexed {algo} equals its linear-scan foil bit for bit",
            inst.len()
        );
    } else {
        report.violation(format!("indexed {algo} and its linear-scan foil disagree"));
    }
    Ok(())
}

/// Prints the rung table: ns per job, each rung's tax over the one
/// below, and the largest term of the engine→TCP gap.
fn print_ladder(workload: &str, rungs: &[Rung]) {
    let base = rungs[0].ns;
    let top = rungs[rungs.len() - 1].ns;
    let gap = (top - base).max(f64::MIN_POSITIVE);
    println!("  rung        ns/job      tax ns   share of gap");
    let mut largest: Option<(&str, f64)> = None;
    for (i, r) in rungs.iter().enumerate() {
        let tax = if i == 0 { 0.0 } else { r.ns - rungs[i - 1].ns };
        println!(
            "  {:<10} {:>9.0} {:>11.0} {:>13.1}%",
            r.name,
            r.ns,
            tax,
            if i == 0 { 0.0 } else { tax / gap * 100.0 }
        );
        if i > 0 && largest.is_none_or(|(_, t)| tax > t) {
            largest = Some((r.name, tax));
        }
    }
    if let Some((name, tax)) = largest {
        println!(
            "  {workload}: the engine→TCP gap is {:.1}× ({base:.0} → {top:.0} ns/job); \
             its largest term is `{name}` ({tax:.0} ns, {:.0}% of the gap)",
            top / base.max(f64::MIN_POSITIVE),
            tax / gap * 100.0
        );
    }
}

/// Writes the chrome trace (first jobs only) and the folded stacks.
fn write_trace(host: &Host, workload: &str, seed: u64, tr: &Tracer) -> Result<(), String> {
    let out = host.root.join("benchmark").join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let stem = out.join(format!("trace-{workload}-seed{seed}"));
    let all = tr.spans.spans();
    let head: Vec<_> = all
        .iter()
        .filter(|s| s.seq == NO_SEQ || s.seq < CHROME_JOBS)
        .cloned()
        .collect();
    // Chrome ids must stay unique; parents outside the head are dropped.
    let chrome = stem.with_extension("chrome.json");
    let folded = stem.with_extension("folded");
    std::fs::write(&chrome, chrome_trace_json(&head)).map_err(|e| e.to_string())?;
    std::fs::write(&folded, folded_stacks(all)).map_err(|e| e.to_string())?;
    println!(
        "  spans: {} recorded; wrote {} and {}",
        all.len(),
        chrome.display(),
        folded.display()
    );
    Ok(())
}
