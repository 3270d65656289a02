//! The scheduling service: shard sessions, admission, checkpoints.
//!
//! A [`Service`] keeps one [`OwnedSession`] per shard, each owning a
//! packer from the bench roster, inside a single coordinator lock. A
//! submission routes, decides on its shard's session, logs and answers
//! all under that lock; there are no engine threads, because the lock
//! already serialises every decision. That keeps the global invariants
//! trivial to state:
//!
//! - **Exactly-once ids.** A dense id watermark plus an overflow set
//!   records every decided job — placed *or* shed, because a shed is a
//!   final admission-control decision. Clients resume after a crash by
//!   reading the watermark from `status` and resubmitting from there.
//! - **Global fleet cap.** The cap a shard sees on each placement is its
//!   own open-bin count plus whatever headroom the whole fleet has left,
//!   so the *sum* of open bins never exceeds the configured cap while
//!   reuse of already-open bins is never refused.
//! - **Deterministic restarts.** All coordinator state lives in the
//!   checkpoint next to the per-shard session snapshots; replaying the
//!   same submissions after a restore reproduces the same responses
//!   bit for bit (the kill-and-resume differential test proves it).
//! - **Write-ahead decisions.** With a [`ServeConfig::wal_dir`], every
//!   decision is appended to the [`crate::wal`] before the response is
//!   externalized; recovery becomes newest-good-checkpoint + WAL
//!   replay, and acknowledged decisions survive `kill -9` with zero
//!   client resubmission beyond the watermark (under
//!   [`FsyncPolicy::Always`]; weaker policies trade a bounded window
//!   of resubmission for throughput).

use crate::protocol::{RejectReason, Request, Response, StatusBody, Submit};
use crate::state::{
    kept_checkpoint_floor, latest_good_checkpoint, write_serve_checkpoint, ServeCheckpoint,
    TenantCounters,
};
use crate::wal::{self, DecisionFrame, FrameOutcome, FsyncPolicy, WalWriter};
use dbp_bench::registry::{online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_core::stream::{Admission, OwnedSession};
use dbp_core::{ClairvoyanceMode, DbpError, Item, Size, Time};
use dbp_shard::ShardRouter;
use dbp_telemetry::Histogram;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Shard count: independent packer sessions the router splits
    /// submissions across.
    pub shards: usize,
    /// Packer roster name ([`ONLINE_ALGOS`]).
    pub algo: String,
    /// Item-to-shard router.
    pub router: ShardRouter,
    /// Max open bins across the whole fleet; `None` = uncapped.
    pub fleet_cap: Option<usize>,
    /// Where checkpoints live; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Auto-checkpoint after this many placement decisions.
    pub checkpoint_every: u64,
    /// Where write-ahead decision-log segments live; `None` disables
    /// the WAL (recovery then leans on checkpoints + resubmission).
    pub wal_dir: Option<PathBuf>,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Minimum item duration `Δ` (cbdt/cbd classification).
    pub delta: i64,
    /// Max/min duration ratio `μ` (cbdt/cbd classification).
    pub mu: f64,
}

impl ServeConfig {
    /// A config with the roster defaults (`Δ = 1`, `μ = 1`), hash
    /// routing, no cap, and no checkpointing.
    pub fn new(shards: usize, algo: &str) -> ServeConfig {
        ServeConfig {
            shards,
            algo: algo.to_string(),
            router: ShardRouter::hash(),
            fleet_cap: None,
            checkpoint_dir: None,
            checkpoint_every: 1_000,
            wal_dir: None,
            fsync: FsyncPolicy::Always,
            delta: 1,
            mu: 1.0,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), DbpError> {
        let bad = |what: String| DbpError::InvalidParameter { what };
        if self.shards == 0 {
            return Err(bad("shards must be >= 1".into()));
        }
        if !ONLINE_ALGOS.contains(&self.algo.as_str()) {
            return Err(bad(format!(
                "unknown algo {:?} (roster: {})",
                self.algo,
                ONLINE_ALGOS.join(", ")
            )));
        }
        self.router.validate()?;
        if self.fleet_cap == Some(0) {
            return Err(bad("fleet cap must be >= 1 (use no cap to disable)".into()));
        }
        if self.checkpoint_every == 0 {
            return Err(bad("checkpoint interval must be >= 1".into()));
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Totals {
    submitted: u64,
    placed: u64,
    shed: u64,
    rejected: u64,
}

struct Core {
    /// One session per shard, each owning its packer.
    shards: Vec<OwnedSession>,
    last_arrival: Option<Time>,
    /// Every id below this was decided (placed or shed).
    watermark: u32,
    /// Decided ids at or above the watermark.
    above: HashSet<u32>,
    placed: u64,
    shed: u64,
    rejected: u64,
    tenants: BTreeMap<String, Totals>,
    decided_since_ckpt: u64,
    ckpt_seq: u64,
    /// Global decision sequence: every decision (placed, shed, or
    /// rejected) gets the next number; the WAL frame carrying it is
    /// appended before the response is externalized.
    decision_seq: u64,
    /// The write-ahead decision log, when `cfg.wal_dir` is set.
    wal: Option<WalWriter>,
    /// Wall-clock placement latency; observability only — never
    /// checkpointed, so it cannot perturb deterministic restarts.
    place_ns: Histogram,
    /// WAL append latency (encode + write + policy sync); observability
    /// only.
    wal_append_ns: Histogram,
    /// A shard's packer error (or a WAL append failure) poisons the
    /// whole service.
    failed: Option<DbpError>,
}

impl Core {
    /// Open bins across the whole fleet.
    fn fleet_open_bins(&self) -> usize {
        self.shards.iter().map(OwnedSession::open_bins).sum()
    }

    fn is_decided(&self, id: u32) -> bool {
        id < self.watermark || self.above.contains(&id)
    }

    /// Records a decided id and advances the dense watermark.
    fn note_id(&mut self, id: u32) {
        self.above.insert(id);
        while self.above.remove(&self.watermark) {
            self.watermark += 1;
        }
    }

    fn tenant_counters(&self) -> Vec<TenantCounters> {
        self.tenants
            .iter()
            .map(|(tenant, t)| TenantCounters {
                tenant: tenant.clone(),
                submitted: t.submitted,
                placed: t.placed,
                shed: t.shed,
                rejected: t.rejected,
            })
            .collect()
    }
}

/// What recovery found and did at boot, for metrics and the torture
/// harness.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// Wall-clock boot recovery duration (checkpoint restore + WAL
    /// scan + replay).
    pub duration_ns: u64,
    /// WAL frames replayed on top of the restored checkpoint.
    pub replayed_frames: u64,
    /// WAL bytes scanned during recovery.
    pub wal_bytes: u64,
    /// Segment files physically cut back (torn tails, corrupt bytes,
    /// post-gap frames).
    pub truncated_files: u64,
    /// Intact frames dropped because a sequence gap preceded them.
    pub dropped_after_gap: u64,
}

/// A running multi-tenant scheduling service. See the module docs.
pub struct Service {
    cfg: ServeConfig,
    core: Mutex<Core>,
    shutdown: AtomicBool,
    restored_seq: Option<u64>,
    skipped_checkpoints: Vec<PathBuf>,
    recovery: Option<RecoveryStats>,
}

impl Service {
    /// Boots the service: validates `cfg`, restores the newest good
    /// checkpoint when a checkpoint directory is configured (walking
    /// past torn files), and builds one session per shard.
    pub fn start(cfg: ServeConfig) -> Result<Service, DbpError> {
        let boot = Instant::now();
        cfg.validate()?;
        let (restored, skipped) = match &cfg.checkpoint_dir {
            Some(dir) => match latest_good_checkpoint(dir)? {
                Some((ck, skipped)) => (Some(ck), skipped),
                None => (None, Vec::new()),
            },
            None => (None, Vec::new()),
        };
        if let Some(ck) = &restored {
            let bad = |what: String| DbpError::InvalidParameter { what };
            if ck.algo != cfg.algo {
                return Err(bad(format!(
                    "checkpoint was written by algo {:?}, service runs {:?}",
                    ck.algo, cfg.algo
                )));
            }
            if ck.router != cfg.router.name() {
                return Err(bad(format!(
                    "checkpoint was written with router {:?}, service runs {:?}",
                    ck.router,
                    cfg.router.name()
                )));
            }
            if ck.sessions.len() != cfg.shards {
                return Err(bad(format!(
                    "checkpoint has {} shards, service runs {}",
                    ck.sessions.len(),
                    cfg.shards
                )));
            }
            if ck.fleet_cap != cfg.fleet_cap.map(|c| c as u64) {
                return Err(bad(format!(
                    "checkpoint was written with fleet cap {:?}, service runs {:?}",
                    ck.fleet_cap, cfg.fleet_cap
                )));
            }
        }
        let params = AlgoParams {
            delta: cfg.delta,
            mu: cfg.mu,
        };
        let packer = || online_packer(&cfg.algo, params);
        let shards = match &restored {
            Some(ck) => ck
                .sessions
                .iter()
                .map(|snap| {
                    OwnedSession::restore_owned(ClairvoyanceMode::Clairvoyant, packer(), snap)
                })
                .collect::<Result<_, _>>()?,
            None => (0..cfg.shards)
                .map(|_| OwnedSession::owned(ClairvoyanceMode::Clairvoyant, packer()))
                .collect(),
        };
        let ck = restored.as_ref();
        let mut core = Core {
            shards,
            last_arrival: ck.and_then(|ck| ck.last_arrival),
            watermark: ck.map_or(0, |ck| ck.watermark),
            above: ck.map_or_else(HashSet::new, |ck| ck.above.iter().copied().collect()),
            placed: ck.map_or(0, |ck| ck.placed),
            shed: ck.map_or(0, |ck| ck.shed),
            rejected: ck.map_or(0, |ck| ck.rejected),
            tenants: ck.map_or_else(BTreeMap::new, |ck| {
                ck.tenants
                    .iter()
                    .map(|t| {
                        (
                            t.tenant.clone(),
                            Totals {
                                submitted: t.submitted,
                                placed: t.placed,
                                shed: t.shed,
                                rejected: t.rejected,
                            },
                        )
                    })
                    .collect()
            }),
            decided_since_ckpt: 0,
            ckpt_seq: ck.map_or(0, |ck| ck.seq),
            decision_seq: ck.map_or(0, |ck| ck.decision_seq),
            wal: None,
            place_ns: Histogram::new(),
            wal_append_ns: Histogram::new(),
            failed: None,
        };
        let recovery = match &cfg.wal_dir {
            Some(wal_dir) => Some(Self::recover_from_wal(&cfg, wal_dir, &mut core, boot)?),
            None => None,
        };
        Ok(Service {
            cfg,
            core: Mutex::new(core),
            shutdown: AtomicBool::new(false),
            restored_seq: restored.as_ref().map(|ck| ck.seq),
            skipped_checkpoints: skipped,
            recovery,
        })
    }

    /// Replays the WAL tail on top of the restored checkpoint and opens
    /// the writer. Every replayed frame must reproduce its logged
    /// outcome bit for bit; a divergence refuses the boot — serving a
    /// state that disagrees with what clients were told is worse than
    /// not serving.
    fn recover_from_wal(
        cfg: &ServeConfig,
        wal_dir: &Path,
        core: &mut Core,
        boot: Instant,
    ) -> Result<RecoveryStats, DbpError> {
        let floor = core.decision_seq;
        let rec = wal::recover_wal(wal_dir, cfg.shards + 1, floor)?;
        for frame in &rec.frames {
            let submit = frame.to_submit();
            let (resp, routed) = Self::decide(cfg, core, &submit);
            let outcome = match Self::outcome_of(&resp, routed) {
                Some(o) => o,
                None => {
                    return Err(DbpError::Internal {
                        what: format!(
                            "WAL replay of decision {} (job {}) failed: {resp:?}",
                            frame.seq, frame.job
                        ),
                    })
                }
            };
            if outcome != frame.outcome {
                return Err(DbpError::Internal {
                    what: format!(
                        "WAL replay diverged at decision {}: log says {:?}, replay produced \
                         {outcome:?} — refusing to serve a state that disagrees with \
                         acknowledged responses",
                        frame.seq, frame.outcome
                    ),
                });
            }
            core.decision_seq = frame.seq;
        }
        let writer =
            WalWriter::open(wal_dir, cfg.shards + 1, core.ckpt_seq, cfg.fsync).map_err(|e| {
                DbpError::Internal {
                    what: format!("cannot open WAL dir {}: {e}", wal_dir.display()),
                }
            })?;
        core.wal = Some(writer);
        Ok(RecoveryStats {
            duration_ns: u64::try_from(boot.elapsed().as_nanos()).unwrap_or(u64::MAX),
            replayed_frames: rec.frames.len() as u64,
            wal_bytes: rec.bytes_scanned,
            truncated_files: rec.truncated.len() as u64,
            dropped_after_gap: rec.dropped_after_gap,
        })
    }

    /// The configuration the service runs.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The checkpoint sequence the service restored from, if any.
    pub fn restored_seq(&self) -> Option<u64> {
        self.restored_seq
    }

    /// Corrupt (torn) checkpoint files skipped during restore, newest
    /// first.
    pub fn skipped_checkpoints(&self) -> &[PathBuf] {
        &self.skipped_checkpoints
    }

    /// Boot-time recovery statistics; `None` when no WAL is configured.
    pub fn recovery(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref()
    }

    /// Locks the coordinator. A poisoned lock (a handler panicked while
    /// holding it) degrades to a typed error on every caller instead of
    /// cascading the panic across worker threads.
    fn lock_core(&self) -> Result<std::sync::MutexGuard<'_, Core>, Response> {
        self.core.lock().map_err(|_| Response::Error {
            what: "service state lock poisoned by a panicked handler; restart the service".into(),
        })
    }

    /// Poisons the coordinator lock, exactly as a handler panicking
    /// mid-request would. Test-only by design: proves lock poisoning
    /// degrades to typed errors.
    #[doc(hidden)]
    pub fn poison_for_tests(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.core.lock().unwrap();
            panic!("poisoning the coordinator lock for a test");
        }));
    }

    /// True once a `shutdown` request was acknowledged.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one request. Never panics; internal failures surface as
    /// [`Response::Error`].
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::Submit(s) => self.handle_submit(s),
            Request::Status => {
                let core = match self.lock_core() {
                    Ok(core) => core,
                    Err(resp) => return resp,
                };
                Response::Status(StatusBody {
                    algo: self.cfg.algo.clone(),
                    shards: self.cfg.shards,
                    watermark: core.watermark,
                    placed: core.placed,
                    shed: core.shed,
                    rejected: core.rejected,
                    open_bins: core.fleet_open_bins(),
                    checkpoint_seq: core.ckpt_seq,
                    decision_seq: core.decision_seq,
                })
            }
            Request::Checkpoint => {
                let mut core = match self.lock_core() {
                    Ok(core) => core,
                    Err(resp) => return resp,
                };
                match self.checkpoint_locked(&mut core) {
                    Ok(seq) => Response::Checkpointed { seq },
                    Err(e) => Response::Error {
                        what: format!("checkpoint failed: {e}"),
                    },
                }
            }
            Request::Metrics => {
                let core = match self.lock_core() {
                    Ok(core) => core,
                    Err(resp) => return resp,
                };
                let open_bins: Vec<usize> =
                    core.shards.iter().map(OwnedSession::open_bins).collect();
                Response::Metrics {
                    text: crate::metrics::render_metrics(&crate::metrics::MetricsView {
                        algo: &self.cfg.algo,
                        tenants: &core.tenant_counters(),
                        placed: core.placed,
                        shed: core.shed,
                        rejected: core.rejected,
                        open_bins: &open_bins,
                        checkpoint_seq: core.ckpt_seq,
                        decision_seq: core.decision_seq,
                        place_ns: &core.place_ns,
                        wal: core.wal.as_ref().map(|w| crate::metrics::WalView {
                            frames: w.frames_appended(),
                            bytes: w.bytes_appended(),
                            append_ns: &core.wal_append_ns,
                        }),
                        recovery: self.recovery.as_ref(),
                    }),
                }
            }
            Request::Shutdown => {
                let mut core = match self.lock_core() {
                    Ok(core) => core,
                    Err(resp) => return resp,
                };
                if core.failed.is_none() {
                    if let Some(w) = core.wal.as_mut() {
                        // Push any interval/never-policy tail to disk
                        // while we still can; failure is survivable
                        // (recovery replays what did make it).
                        if let Err(e) = w.sync() {
                            eprintln!("dbp-serve: final WAL sync failed: {e}");
                        }
                    }
                }
                if self.cfg.checkpoint_dir.is_some() && core.failed.is_none() {
                    // Best-effort final checkpoint; shutdown proceeds
                    // regardless (the previous good one still restores).
                    if let Err(e) = self.checkpoint_locked(&mut core) {
                        eprintln!("dbp-serve: final checkpoint failed: {e}");
                    }
                }
                self.shutdown.store(true, Ordering::SeqCst);
                Response::ShuttingDown
            }
        }
    }

    /// Makes the admission decision for one submission against the
    /// coordinator state — shared verbatim between live handling and
    /// WAL replay, which is what makes replay bit-identical by
    /// construction. Returns the response plus the shard the submission
    /// was routed to (`None` for pre-routing rejects).
    fn decide(cfg: &ServeConfig, core: &mut Core, s: &Submit) -> (Response, Option<usize>) {
        core.tenants.entry(s.tenant.clone()).or_default().submitted += 1;
        let reject = |core: &mut Core, reason: RejectReason, detail: String| {
            core.rejected += 1;
            core.tenants.entry(s.tenant.clone()).or_default().rejected += 1;
            Response::Rejected {
                tenant: s.tenant.clone(),
                job: s.job,
                reason,
                detail,
            }
        };
        if core.is_decided(s.job) {
            return (
                reject(
                    core,
                    RejectReason::DuplicateJob,
                    format!("job {} was already decided", s.job),
                ),
                None,
            );
        }
        let size = match s.size_raw {
            Some(raw) => Size::from_raw(raw),
            None => Size::from_f64(s.size.unwrap_or(0.0)),
        };
        let item = match Item::try_new(s.job, size, s.arrival, s.departure) {
            Ok(item) => item,
            Err(e) => return (reject(core, RejectReason::InvalidJob, e.to_string()), None),
        };
        if let Some(last) = core.last_arrival {
            if s.arrival < last {
                return (
                    reject(
                        core,
                        RejectReason::ArrivalOutOfOrder,
                        format!("arrival {} is behind the stream clock {last}", s.arrival),
                    ),
                    None,
                );
            }
        }
        let shard = cfg.router.route(&item, cfg.shards);
        let cap = match cfg.fleet_cap {
            None => usize::MAX,
            Some(fleet) => {
                // This shard may keep its open bins and claim whatever
                // headroom the fleet as a whole has left.
                let total = core.fleet_open_bins();
                core.shards[shard].open_bins() + fleet.saturating_sub(total)
            }
        };
        let admission = match core.shards[shard].arrive_capped(&item, cap) {
            Ok(admission) => admission,
            Err(e) => {
                // The session may be inconsistent after a packer error:
                // refuse everything from here on rather than serve wrong
                // placements.
                core.failed = Some(e.clone());
                return (
                    Response::Error {
                        what: format!("shard {shard}: {e}"),
                    },
                    None,
                );
            }
        };
        core.last_arrival = Some(s.arrival);
        // Both outcomes are final decisions: record the id either way so
        // a resumed client never replays them.
        core.note_id(s.job);
        core.decided_since_ckpt += 1;
        let out = match admission {
            Admission::Placed(bin) => {
                core.placed += 1;
                core.tenants.entry(s.tenant.clone()).or_default().placed += 1;
                Response::Placed {
                    tenant: s.tenant.clone(),
                    job: s.job,
                    shard,
                    bin: bin.0,
                }
            }
            Admission::Shed => {
                core.shed += 1;
                core.tenants.entry(s.tenant.clone()).or_default().shed += 1;
                Response::Rejected {
                    tenant: s.tenant.clone(),
                    job: s.job,
                    reason: RejectReason::FleetCapacity,
                    detail: match cfg.fleet_cap {
                        Some(c) => format!("fleet cap {c} reached"),
                        None => "fleet cap reached".to_string(),
                    },
                }
            }
        };
        (out, Some(shard))
    }

    /// Maps a decision response to its WAL outcome. `None` for
    /// [`Response::Error`], which is a service failure, not a decision.
    fn outcome_of(resp: &Response, routed: Option<usize>) -> Option<FrameOutcome> {
        match resp {
            Response::Placed { shard, bin, .. } => Some(FrameOutcome::Placed {
                shard: *shard as u32,
                bin: *bin,
            }),
            Response::Rejected {
                reason: RejectReason::FleetCapacity,
                ..
            } => Some(FrameOutcome::Shed {
                shard: routed.unwrap_or(0) as u32,
            }),
            Response::Rejected { reason, .. } => Some(FrameOutcome::Rejected(*reason)),
            _ => None,
        }
    }

    fn handle_submit(&self, s: &Submit) -> Response {
        let start = Instant::now();
        let mut core = match self.lock_core() {
            Ok(core) => core,
            Err(resp) => return resp,
        };
        if let Some(e) = &core.failed {
            return Response::Error {
                what: format!("service is failed: {e}"),
            };
        }
        let (resp, routed) = Self::decide(&self.cfg, &mut core, s);
        let outcome = match Self::outcome_of(&resp, routed) {
            Some(outcome) => outcome,
            // A shard failure is not a decision: nothing to log.
            None => return resp,
        };
        // Write-ahead discipline: the decision is durable (per the
        // fsync policy) before the response is externalized. A crash
        // in between loses only an unacknowledged decision, which the
        // client resubmits and determinism re-derives identically.
        let seq = core.decision_seq + 1;
        if core.wal.is_some() {
            let stream = routed.unwrap_or(self.cfg.shards) as u32;
            let frame = DecisionFrame {
                seq,
                stream,
                tenant: s.tenant.clone(),
                job: s.job,
                size_is_raw: s.size_raw.is_some(),
                size_bits: match s.size_raw {
                    Some(raw) => raw,
                    None => f64::to_bits(s.size.unwrap_or(0.0)),
                },
                arrival: s.arrival,
                departure: s.departure,
                outcome,
            };
            let wal_start = Instant::now();
            let appended = core.wal.as_mut().expect("checked above").append(&frame);
            core.wal_append_ns
                .record(u64::try_from(wal_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if let Err(e) = appended {
                // The in-memory decision exists but cannot be made
                // durable: fail the service rather than acknowledge a
                // decision a restart could forget.
                let err = DbpError::Internal {
                    what: format!("WAL append for decision {seq} (job {}) failed: {e}", s.job),
                };
                core.failed = Some(err.clone());
                return Response::Error {
                    what: format!("durability: {err}"),
                };
            }
        }
        core.decision_seq = seq;
        if self.cfg.checkpoint_dir.is_some() && core.decided_since_ckpt >= self.cfg.checkpoint_every
        {
            // Auto-checkpoint failures must not fail the placement that
            // triggered them: the decision already happened.
            if let Err(e) = self.checkpoint_locked(&mut core) {
                eprintln!("dbp-serve: auto-checkpoint failed: {e}");
            }
        }
        if routed.is_some() {
            core.place_ns
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        resp
    }

    /// Snapshots every shard and writes checkpoint `ckpt_seq + 1`.
    fn checkpoint_locked(&self, core: &mut Core) -> Result<u64, DbpError> {
        let dir = self
            .cfg
            .checkpoint_dir
            .as_ref()
            .ok_or_else(|| DbpError::InvalidParameter {
                what: "no checkpoint directory configured".into(),
            })?;
        // A failed service's sessions may disagree with what clients
        // were told; never make that state durable.
        if let Some(e) = &core.failed {
            return Err(DbpError::Internal {
                what: format!("service is failed: {e}"),
            });
        }
        let sessions = core.shards.iter().map(OwnedSession::snapshot).collect();
        let mut above: Vec<u32> = core.above.iter().copied().collect();
        above.sort_unstable();
        let seq = core.ckpt_seq + 1;
        let ck = ServeCheckpoint {
            seq,
            algo: self.cfg.algo.clone(),
            router: self.cfg.router.name(),
            fleet_cap: self.cfg.fleet_cap.map(|c| c as u64),
            last_arrival: core.last_arrival,
            watermark: core.watermark,
            above,
            placed: core.placed,
            shed: core.shed,
            rejected: core.rejected,
            decision_seq: core.decision_seq,
            tenants: core.tenant_counters(),
            sessions,
        };
        write_serve_checkpoint(dir, &ck)?;
        core.ckpt_seq = seq;
        core.decided_since_ckpt = 0;
        // The checkpoint is durable: rotate the WAL so frames it covers
        // stop accumulating, and drop segments the oldest *kept*
        // checkpoint no longer needs. Both are hygiene, not
        // correctness — failures are logged and the checkpoint stands.
        if let Some(w) = core.wal.as_mut() {
            match w.rotate(seq) {
                Ok(()) => match kept_checkpoint_floor(dir) {
                    Ok(Some(floor)) => {
                        if let Err(e) = w.prune(floor) {
                            eprintln!("dbp-serve: WAL prune failed: {e}");
                        }
                    }
                    Ok(None) => {}
                    Err(e) => eprintln!("dbp-serve: cannot read oldest kept checkpoint: {e}"),
                },
                Err(e) => eprintln!("dbp-serve: WAL rotation failed: {e}"),
            }
        }
        Ok(seq)
    }
}
