//! The crash-point torture harness: crash at every IO boundary, prove
//! recovery from every prefix.
//!
//! The harness leans on [`dbp_resilience::failpoint`]: every WAL and
//! checkpoint IO operation in the serving stack calls the failpoint
//! hook first, so the op index space *is* the crash-point space. One
//! sweep:
//!
//! 1. **Reference run** — a fresh service over a deterministic job
//!    stream, fed in read batches of a fixed size cycle
//!    ([`BATCH_CYCLE`]), responses recorded, total IO ops `T` counted.
//! 2. **For every crash point `k <= T`** (at a configurable stride):
//!    fresh directories, arm the thread so IO op `k` and everything
//!    after it fails, drive the same stream until the service poisons
//!    itself, then disarm and boot a recovery service from whatever the
//!    "crashed" one left on disk. The recovered watermark must cover
//!    every acknowledged decision (under `fsync=always`) and exceed it
//!    by at most the batch the crash surfaced in, resuming the
//!    stream from the watermark must reproduce the reference responses
//!    **bit for bit**, already-decided ids must come back as typed
//!    `duplicate_job` rejects (exactly-once), and the completed run
//!    must end at the reference watermark.
//! 3. **Corruption drills** — torn WAL tails, mid-file bit flips, a
//!    CRC-consistent outcome rewrite (must *refuse* to boot: the log
//!    disagrees with what was acknowledged), a torn newest checkpoint
//!    with the WAL subsuming it, and a cold empty-directory boot.
//!
//! Error injection models a dying disk, not lost page cache: an
//! in-process "crash" keeps bytes that were written but not synced, so
//! the sweep proves IO-failure handling plus recovery correctness for
//! every prefix. The subprocess `DBP_CRASH_AT_IO` abort mode (a real
//! `SIGABRT` mid-stream, driven from CI's torture-smoke job) adds a
//! whole-process death at a chosen IO op: no destructor, final sync or
//! checkpoint runs, acks in flight die with the socket, and a fresh
//! process must recover from the files alone. It does not model power
//! loss: the kernel keeps every byte already written, synced or not,
//! so neither mode can show that an unsynced byte vanishes.

use crate::protocol::{render_response, RejectReason, Request, Response, Submit};
use crate::service::{ServeConfig, Service};
use crate::wal::{self, crc32, FsyncPolicy};
use dbp_core::{DbpError, Size};
use dbp_resilience::failpoint;
use std::path::{Path, PathBuf};

/// What a torture run exercises.
#[derive(Clone, Debug)]
pub struct TortureConfig {
    /// Jobs in the deterministic stream.
    pub jobs: u32,
    /// Shard count.
    pub shards: usize,
    /// Packer roster name.
    pub algo: String,
    /// Fleet cap (exercises sheds).
    pub fleet_cap: Option<usize>,
    /// Auto-checkpoint cadence for the sweep.
    pub checkpoint_every: u64,
    /// WAL fsync policy under test.
    pub fsync: FsyncPolicy,
    /// Exercise every `stride`-th crash point (1 = all of them).
    pub stride: u64,
    /// Scratch root; defaults to a tagged directory under the system
    /// temp dir. Kept on disk when violations are found.
    pub scratch: Option<PathBuf>,
    /// Tag namespacing the default scratch root.
    pub tag: String,
}

impl TortureConfig {
    /// A small sweep that still crosses several checkpoints: the
    /// `--self-test` configuration.
    pub fn quick(tag: &str) -> TortureConfig {
        TortureConfig {
            jobs: 60,
            shards: 2,
            algo: "first-fit".into(),
            fleet_cap: Some(5),
            checkpoint_every: 20,
            fsync: FsyncPolicy::Always,
            stride: 1,
            scratch: None,
            tag: tag.to_string(),
        }
    }
}

/// The sweep's verdict.
#[derive(Debug, Default)]
pub struct TortureReport {
    /// IO ops the uncrashed reference run performed — the size of the
    /// crash-point space.
    pub io_ops_total: u64,
    /// Crash points actually exercised.
    pub crash_points: u64,
    /// Corruption drills run.
    pub drills: u64,
    /// Every violated invariant, with its crash point.
    pub violations: Vec<String>,
    /// Where the failing fixtures live (kept when violations exist).
    pub scratch: PathBuf,
}

impl TortureReport {
    /// True when every crash point recovered cleanly.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The deterministic torture stream: placements and sheds, three
/// tenants, exact fixed-point sizes.
pub fn torture_stream(n: u32) -> Vec<Submit> {
    (0..n)
        .map(|i| {
            let size = 0.15 + 0.6 * f64::from(i.wrapping_mul(2_654_435_761) % 997) / 997.0;
            let arrival = i64::from(i / 2);
            Submit {
                tenant: format!("tenant-{}", i % 3),
                job: i,
                size: None,
                size_raw: Some(Size::from_f64(size).raw()),
                arrival,
                departure: arrival + 4 + i64::from(i % 23),
            }
        })
        .collect()
}

fn serve_cfg(t: &TortureConfig, dir: &Path, checkpoint_every: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(t.shards, &t.algo);
    cfg.fleet_cap = t.fleet_cap;
    cfg.checkpoint_dir = Some(dir.join("ckpt"));
    cfg.checkpoint_every = checkpoint_every;
    cfg.wal_dir = Some(dir.join("wal"));
    cfg.fsync = t.fsync;
    cfg
}

fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, DbpError> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| DbpError::Internal {
        what: format!("cannot create scratch {}: {e}", dir.display()),
    })?;
    Ok(dir)
}

fn watermark_of(service: &Service) -> Result<u32, String> {
    match service.handle(&Request::Status) {
        Response::Status(s) => Ok(s.watermark),
        other => Err(format!("status failed: {other:?}")),
    }
}

/// Read-batch sizes [`drive`] cycles through, so the crash-point space
/// includes a crash at a batch's one write, between that write and its
/// sync, at a new segment's directory fsync, and inside a checkpoint
/// that fires mid-batch (at the write and sync of the frames it
/// closes).
pub const BATCH_CYCLE: [usize; 5] = [1, 2, 3, 5, 8];

/// Runs `jobs` through [`Service::handle_batch`] in batches of
/// [`BATCH_CYCLE`] sizes, recording rendered responses. Stops at the
/// first `Response::Error` (the injected crash) and returns the size of
/// the batch it surfaced in, or `None` when every job was answered.
pub fn drive(service: &Service, jobs: &[Submit]) -> (Vec<String>, Option<usize>) {
    let mut acked = Vec::with_capacity(jobs.len());
    let mut rest = jobs;
    for size in BATCH_CYCLE.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at((*size).min(rest.len()));
        for resp in service.handle_batch(batch) {
            if matches!(resp, Response::Error { .. }) {
                return (acked, Some(batch.len()));
            }
            acked.push(render_response(&resp));
        }
        rest = tail;
    }
    (acked, None)
}

/// One full torture run: determinism check, crash-point sweep,
/// corruption drills.
pub fn run(t: &TortureConfig) -> Result<TortureReport, DbpError> {
    let scratch = match &t.scratch {
        Some(p) => p.clone(),
        None => std::env::temp_dir().join(format!("dbp-torture-{}", t.tag)),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let jobs = torture_stream(t.jobs);
    let mut report = TortureReport {
        scratch: scratch.clone(),
        ..TortureReport::default()
    };

    // Reference run: count the crash-point space and pin the expected
    // responses. A second run must agree bit for bit before any crash
    // testing means anything.
    failpoint::reset_thread();
    let reference = {
        let dir = fresh_dir(&scratch, "reference")?;
        let service = Service::start(serve_cfg(t, &dir, t.checkpoint_every))?;
        let (acked, failed_batch) = drive(&service, &jobs);
        if failed_batch.is_some() {
            return Err(DbpError::Internal {
                what: "reference torture run failed with no injection armed".into(),
            });
        }
        acked
    };
    report.io_ops_total = failpoint::thread_ops();
    {
        let dir = fresh_dir(&scratch, "determinism")?;
        let service = Service::start(serve_cfg(t, &dir, t.checkpoint_every))?;
        let (again, _) = drive(&service, &jobs);
        if again != reference {
            report
                .violations
                .push("determinism: two uncrashed runs disagree".into());
        }
    }

    // The crash-point sweep.
    let stride = t.stride.max(1);
    let mut k = 1;
    while k <= report.io_ops_total {
        if let Err(v) = crash_point_case(t, &scratch, &jobs, &reference, k) {
            report.violations.push(format!("crash point {k}: {v}"));
        }
        report.crash_points += 1;
        k += stride;
    }

    // Corruption drills.
    for (name, drill) in DRILLS {
        report.drills += 1;
        if let Err(v) = drill(t, &scratch, &jobs, &reference) {
            report.violations.push(format!("drill {name}: {v}"));
        }
    }

    failpoint::reset_thread();
    if report.passed() {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    Ok(report)
}

/// One crash point: fail every IO op from `k` on, then recover and
/// verify every durability invariant.
fn crash_point_case(
    t: &TortureConfig,
    scratch: &Path,
    jobs: &[Submit],
    reference: &[String],
    k: u64,
) -> Result<(), String> {
    let dir =
        fresh_dir(scratch, &format!("crash-{k:06}")).map_err(|e| format!("scratch setup: {e}"))?;
    let cfg = serve_cfg(t, &dir, t.checkpoint_every);
    let guard = failpoint::FailGuard::fail_from(k);
    let (acked, failed_batch) = match Service::start(cfg.clone()) {
        Ok(service) => {
            let out = drive(&service, jobs);
            drop(service);
            out
        }
        // Crashed during boot: nothing was decided.
        Err(_) => (Vec::new(), Some(0)),
    };
    drop(guard);

    if acked.iter().zip(reference.iter()).any(|(a, b)| a != b) {
        return Err("responses diverged from the reference BEFORE the crash".into());
    }

    // Recovery must always boot...
    let service = Service::start(cfg).map_err(|e| format!("recovery boot failed: {e}"))?;
    let watermark = watermark_of(&service)? as usize;

    // ...and must cover every acknowledged decision: under the
    // write-ahead discipline a response is externalized only after the
    // commit covering its frame. It may cover at most the rest of the
    // failing batch — frames written before the injected error, whose
    // clients saw an error for a decision that survived.
    if watermark < acked.len() {
        return Err(format!(
            "recovered watermark {watermark} forgot acknowledged decisions (client saw {})",
            acked.len()
        ));
    }
    let most = acked.len() + failed_batch.unwrap_or(0);
    if watermark > most {
        return Err(format!(
            "recovered watermark {watermark} exceeds the {} acknowledged decisions plus the \
             failing batch of {}",
            acked.len(),
            failed_batch.unwrap_or(0)
        ));
    }

    // Exactly-once: everything below the watermark is a typed
    // duplicate, not a re-decision.
    if watermark > 0 {
        let probe = &jobs[watermark - 1];
        match service.handle(&Request::Submit(probe.clone())) {
            Response::Rejected {
                reason: RejectReason::DuplicateJob,
                ..
            } => {}
            other => {
                return Err(format!(
                    "job {} below the watermark was not duplicate-rejected: {other:?}",
                    probe.job
                ))
            }
        }
    }

    // Resume from the watermark: the tail must be bit-identical to the
    // uncrashed reference.
    let (tail, failed_again) = drive(&service, &jobs[watermark..]);
    if failed_again.is_some() {
        return Err("recovered service failed while resuming".into());
    }
    if tail != reference[watermark..] {
        let at = tail
            .iter()
            .zip(reference[watermark..].iter())
            .position(|(a, b)| a != b)
            .unwrap_or(tail.len());
        return Err(format!(
            "resumed responses diverge from the reference at job {}",
            watermark + at
        ));
    }
    let final_mark = watermark_of(&service)?;
    if final_mark as usize != jobs.len() {
        return Err(format!(
            "completed run ends at watermark {final_mark}, expected {}",
            jobs.len()
        ));
    }
    Ok(())
}

type Drill = fn(&TortureConfig, &Path, &[Submit], &[String]) -> Result<(), String>;

const DRILLS: &[(&str, Drill)] = &[
    ("torn-wal-tail", drill_torn_tail),
    ("wal-bit-flip", drill_bit_flip),
    ("crc-fixed-outcome-rewrite", drill_outcome_rewrite),
    ("torn-checkpoint-wal-subsumes", drill_torn_checkpoint),
    ("cold-empty-boot", drill_cold_boot),
];

/// Builds a victim: a service over the prefix of the stream that dies
/// without a graceful shutdown, leaving checkpoints + a live WAL tail.
fn build_victim(
    t: &TortureConfig,
    scratch: &Path,
    jobs: &[Submit],
    name: &str,
    checkpoint_every: u64,
) -> Result<(PathBuf, ServeConfig, usize), String> {
    let dir = fresh_dir(scratch, name).map_err(|e| e.to_string())?;
    let cfg = serve_cfg(t, &dir, checkpoint_every);
    let service = Service::start(cfg.clone()).map_err(|e| format!("victim boot: {e}"))?;
    let upto = jobs.len() * 3 / 4;
    let (acked, failed_batch) = drive(&service, &jobs[..upto]);
    if failed_batch.is_some() || acked.len() != upto {
        return Err("victim run failed before the corruption step".into());
    }
    Ok((dir, cfg, upto))
}

/// The victim's largest WAL segment — the one worth corrupting.
fn fattest_segment(dir: &Path) -> Result<PathBuf, String> {
    let wal_dir = dir.join("wal");
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(&wal_dir).map_err(|e| format!("list wal: {e}"))? {
        let entry = entry.map_err(|e| format!("list wal: {e}"))?;
        let len = entry.metadata().map_err(|e| e.to_string())?.len();
        if entry
            .file_name()
            .to_str()
            .is_some_and(|n| wal::parse_segment_name(n).is_some())
            && best.as_ref().is_none_or(|(l, _)| len > *l)
        {
            best = Some((len, entry.path()));
        }
    }
    best.map(|(_, p)| p)
        .ok_or_else(|| "victim left no WAL segments".into())
}

/// Boots a recovery service and proves the surviving prefix + resumed
/// tail still match the reference bit for bit.
fn verify_degraded_recovery(
    cfg: &ServeConfig,
    jobs: &[Submit],
    reference: &[String],
    max_watermark: usize,
    expect_truncation: bool,
) -> Result<(), String> {
    let service = Service::start(cfg.clone()).map_err(|e| format!("recovery boot failed: {e}"))?;
    let watermark = watermark_of(&service)? as usize;
    if watermark > max_watermark {
        return Err(format!(
            "watermark {watermark} exceeds the {max_watermark} decisions that ever happened"
        ));
    }
    if expect_truncation {
        let rec = service.recovery().ok_or("no recovery stats")?;
        if rec.truncated_files == 0 {
            return Err("corruption was not detected (no truncation recorded)".into());
        }
    }
    let (tail, failed_batch) = drive(&service, &jobs[watermark..]);
    if failed_batch.is_some() {
        return Err("recovered service failed while resuming".into());
    }
    if tail != reference[watermark..] {
        return Err("resumed responses diverge from the reference".into());
    }
    Ok(())
}

fn drill_torn_tail(
    t: &TortureConfig,
    scratch: &Path,
    jobs: &[Submit],
    reference: &[String],
) -> Result<(), String> {
    let (dir, cfg, upto) = build_victim(t, scratch, jobs, "drill-torn", t.checkpoint_every)?;
    let seg = fattest_segment(&dir)?;
    let len = std::fs::metadata(&seg).map_err(|e| e.to_string())?.len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .map_err(|e| e.to_string())?;
    f.set_len(len.saturating_sub(3))
        .map_err(|e| e.to_string())?;
    drop(f);
    verify_degraded_recovery(&cfg, jobs, reference, upto, true)
}

fn drill_bit_flip(
    t: &TortureConfig,
    scratch: &Path,
    jobs: &[Submit],
    reference: &[String],
) -> Result<(), String> {
    let (dir, cfg, upto) = build_victim(t, scratch, jobs, "drill-flip", t.checkpoint_every)?;
    let seg = fattest_segment(&dir)?;
    let mut bytes = std::fs::read(&seg).map_err(|e| e.to_string())?;
    if bytes.len() <= wal::WAL_HEADER_LEN as usize {
        return Err("segment too small to flip".into());
    }
    let mid = (bytes.len() + wal::WAL_HEADER_LEN as usize) / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&seg, &bytes).map_err(|e| e.to_string())?;
    verify_degraded_recovery(&cfg, jobs, reference, upto, true)
}

/// Rewrites the outcome of the victim's last WAL frame and *fixes the
/// CRC*, simulating a log that is internally consistent but disagrees
/// with what clients were told. Recovery must refuse to boot.
fn drill_outcome_rewrite(
    t: &TortureConfig,
    scratch: &Path,
    jobs: &[Submit],
    _reference: &[String],
) -> Result<(), String> {
    // No checkpoints: every frame replays, so the mutation is always
    // in the replayed range.
    let (dir, cfg, _) = build_victim(t, scratch, jobs, "drill-rewrite", u64::MAX / 2)?;
    let seg = fattest_segment(&dir)?;
    let mut bytes = std::fs::read(&seg).map_err(|e| e.to_string())?;
    // Walk the frames to the last one.
    let mut at = wal::WAL_HEADER_LEN as usize;
    let mut last: Option<(usize, usize)> = None;
    while at + 8 <= bytes.len() {
        let plen = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        if at + 8 + plen > bytes.len() {
            break;
        }
        last = Some((at, plen));
        at += 8 + plen;
    }
    let (at, plen) = last.ok_or("victim segment holds no frames")?;
    // Payload layout: version(1) seq(8) stream(4) job(4) kind(1)
    // size(8) arrival(8) departure(8) outcome-kind(1)...
    let outcome_off = at + 8 + 42;
    let kind = bytes[outcome_off];
    if kind > 1 {
        return Err("expected a placed/shed frame last".into());
    }
    bytes[outcome_off] = 1 - kind; // Placed <-> Shed
    let crc = crc32(&bytes[at + 8..at + 8 + plen]);
    bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&seg, &bytes).map_err(|e| e.to_string())?;
    match Service::start(cfg) {
        Err(e) if e.to_string().contains("diverged") => Ok(()),
        Err(e) => Err(format!("boot refused, but for the wrong reason: {e}")),
        Ok(_) => Err("recovery CONSUMED a log that disagrees with acknowledged responses".into()),
    }
}

fn drill_torn_checkpoint(
    t: &TortureConfig,
    scratch: &Path,
    jobs: &[Submit],
    reference: &[String],
) -> Result<(), String> {
    let (dir, cfg, upto) = build_victim(t, scratch, jobs, "drill-torn-ckpt", t.checkpoint_every)?;
    // Tear the newest checkpoint mid-file; the WAL subsumes it, so the
    // recovered watermark must still reach every decision.
    let ckpt_dir = dir.join("ckpt");
    let newest = std::fs::read_dir(&ckpt_dir)
        .map_err(|e| format!("list ckpt: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .max()
        .ok_or("victim wrote no checkpoints")?;
    let bytes = std::fs::read(&newest).map_err(|e| e.to_string())?;
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).map_err(|e| e.to_string())?;
    let service = Service::start(cfg).map_err(|e| format!("recovery boot failed: {e}"))?;
    if service.skipped_checkpoints().is_empty() {
        return Err("the torn checkpoint was not detected".into());
    }
    let watermark = watermark_of(&service)? as usize;
    if watermark != upto {
        return Err(format!(
            "WAL should subsume the torn checkpoint: watermark {watermark}, expected {upto}"
        ));
    }
    let (tail, failed_batch) = drive(&service, &jobs[watermark..]);
    if failed_batch.is_some() || tail != reference[watermark..] {
        return Err("resumed responses diverge from the reference".into());
    }
    Ok(())
}

fn drill_cold_boot(
    t: &TortureConfig,
    scratch: &Path,
    jobs: &[Submit],
    reference: &[String],
) -> Result<(), String> {
    let dir = fresh_dir(scratch, "drill-cold").map_err(|e| e.to_string())?;
    let cfg = serve_cfg(t, &dir, t.checkpoint_every);
    let service = Service::start(cfg).map_err(|e| format!("cold boot failed: {e}"))?;
    if watermark_of(&service)? != 0 {
        return Err("cold boot has a nonzero watermark".into());
    }
    let (all, failed_batch) = drive(&service, jobs);
    if failed_batch.is_some() || all != reference {
        return Err("cold-boot run diverges from the reference".into());
    }
    Ok(())
}

/// The `dbp serve-torture --self-test` entry point: a quick sweep over
/// every crash point of a small stream, plus all corruption drills.
pub fn self_test(tag: &str) -> Result<TortureReport, DbpError> {
    run(&TortureConfig::quick(tag))
}
