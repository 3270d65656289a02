//! Service checkpoints: one manifest line plus K session snapshot lines.
//!
//! A serve checkpoint is a text file:
//!
//! ```text
//! line 1      {"format":"dbp-serve-checkpoint","version":1,"seq":3,...}
//! line 2..K+1 one dbp-resilience checkpoint document per shard, in
//!             shard-index order
//! ```
//!
//! The manifest records the coordinator state a restart needs — id
//! watermark + overflow set, stream clock, per-tenant counters, config
//! fingerprint (algo/router/shards/fleet cap) — and the per-shard lines
//! reuse [`dbp_resilience::snapshot_to_json`] verbatim, so every
//! bit-identity guarantee the resilience layer proves carries over.
//!
//! The session lines hold live state only (snapshot version 2), so a
//! checkpoint's size follows the open bins and live items, not the
//! stream's length; lines an older build wrote (version 1) still decode.
//!
//! Files are written to `serve-<seq>.ckpt` via a temp file + rename, so
//! a crash mid-write leaves a torn *temp* file, never a torn checkpoint
//! under the canonical name. A kill between `write` and `rename`, or a
//! filesystem that reorders the rename, can still surface a torn file —
//! which is why the service's restore walks the checkpoints newest-first
//! and falls back to the previous good snapshot on any decode or restore
//! error (the torn-checkpoint regression tests drive this path).

use dbp_core::stream::SessionSnapshot;
use dbp_core::{DbpError, Time};
use dbp_obs::json::{escape, parse, FieldValue, Json};
use dbp_resilience::{snapshot_from_json, snapshot_to_json};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The `format` tag of the manifest line.
pub const SERVE_CHECKPOINT_FORMAT: &str = "dbp-serve-checkpoint";
/// Current manifest layout version.
pub const SERVE_CHECKPOINT_VERSION: u32 = 1;
/// Checkpoint files kept on disk (newest N; older ones are pruned).
pub const KEPT_CHECKPOINTS: usize = 3;

fn bad(what: impl Into<String>) -> DbpError {
    DbpError::Trace {
        line: 0,
        what: what.into(),
    }
}

fn io(what: String) -> DbpError {
    DbpError::Io { what }
}

/// Per-tenant accounting, checkpointed with the service state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Tenant label.
    pub tenant: String,
    /// Submissions seen (including rejected ones).
    pub submitted: u64,
    /// Jobs placed.
    pub placed: u64,
    /// Jobs shed by the fleet cap.
    pub shed: u64,
    /// Jobs rejected (duplicate / out-of-order / invalid).
    pub rejected: u64,
}

/// Everything a service restart needs to resume bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeCheckpoint {
    /// Monotonic checkpoint sequence number (1-based).
    pub seq: u64,
    /// Packer roster name.
    pub algo: String,
    /// Router spec (`ShardRouter::name()`).
    pub router: String,
    /// Global fleet cap, if admission control is on.
    pub fleet_cap: Option<u64>,
    /// The stream clock at checkpoint time.
    pub last_arrival: Option<Time>,
    /// Global id watermark (every id below it was decided).
    pub watermark: u32,
    /// Decided ids at or above the watermark, sorted.
    pub above: Vec<u32>,
    /// Jobs placed.
    pub placed: u64,
    /// Jobs shed.
    pub shed: u64,
    /// Jobs rejected.
    pub rejected: u64,
    /// Global decision sequence as of this checkpoint: the WAL replay
    /// floor. Absent in pre-WAL checkpoints, which decode as 0 (those
    /// directories hold no WAL, so an empty replay is exactly right).
    pub decision_seq: u64,
    /// Per-tenant counters, sorted by tenant label.
    pub tenants: Vec<TenantCounters>,
    /// One session snapshot per shard, in shard-index order.
    pub sessions: Vec<SessionSnapshot>,
}

/// Encodes a checkpoint as its multi-line document.
pub fn encode(ck: &ServeCheckpoint) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"format\":\"{SERVE_CHECKPOINT_FORMAT}\",\"version\":{SERVE_CHECKPOINT_VERSION},\
         \"seq\":{},\"algo\":\"{}\",\"router\":\"{}\",\"shards\":{}",
        ck.seq,
        escape(&ck.algo),
        escape(&ck.router),
        ck.sessions.len()
    );
    match ck.fleet_cap {
        Some(c) => {
            let _ = write!(out, ",\"fleet_cap\":{c}");
        }
        None => out.push_str(",\"fleet_cap\":null"),
    }
    match ck.last_arrival {
        Some(t) => {
            let _ = write!(out, ",\"last_arrival\":{t}");
        }
        None => out.push_str(",\"last_arrival\":null"),
    }
    let _ = write!(
        out,
        ",\"watermark\":{},\"placed\":{},\"shed\":{},\"rejected\":{},\"decision_seq\":{}",
        ck.watermark, ck.placed, ck.shed, ck.rejected, ck.decision_seq
    );
    out.push_str(",\"above\":[");
    for (i, id) in ck.above.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push_str("],\"tenants\":[");
    for (i, t) in ck.tenants.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"tenant\":\"{}\",\"submitted\":{},\"placed\":{},\"shed\":{},\"rejected\":{}}}",
            escape(&t.tenant),
            t.submitted,
            t.placed,
            t.shed,
            t.rejected
        );
    }
    out.push_str("]}\n");
    for snap in &ck.sessions {
        out.push_str(&snapshot_to_json(snap));
        out.push('\n');
    }
    out
}

/// Decodes a checkpoint document.
pub fn decode(text: &str) -> Result<ServeCheckpoint, DbpError> {
    let mut lines = text.lines();
    let manifest = lines.next().ok_or_else(|| bad("empty checkpoint file"))?;
    let (mut ck, shards) = decode_manifest(manifest)?;
    // Grown per line read: the count is untrusted input.
    for i in 0..shards {
        let line = lines
            .next()
            .ok_or_else(|| bad(format!("truncated checkpoint: shard {i} snapshot missing")))?;
        ck.sessions
            .push(snapshot_from_json(line.trim_end()).map_err(|e| bad(format!("shard {i}: {e}")))?);
    }
    Ok(ck)
}

/// Decodes the manifest line: the checkpoint without its sessions, and
/// the number of session lines that follow it.
fn decode_manifest(manifest: &str) -> Result<(ServeCheckpoint, usize), DbpError> {
    let read = || -> Result<(ServeCheckpoint, usize), String> {
        let doc = parse(manifest)?;
        let format: &str = doc.field("format")?;
        if format != SERVE_CHECKPOINT_FORMAT {
            return Err(format!(
                "not a serve checkpoint: format {format:?} (expected {SERVE_CHECKPOINT_FORMAT:?})"
            ));
        }
        let version: u32 = doc.field("version")?;
        if version != SERVE_CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported serve checkpoint version {version} (this build reads \
                 {SERVE_CHECKPOINT_VERSION})"
            ));
        }
        let above = doc
            .field::<&[Json]>("above")?
            .iter()
            .map(u32::read)
            .collect::<Result<_, _>>()
            .map_err(|what| format!("entry in \"above\" {what}"))?;
        let mut tenants = Vec::new();
        for t in doc.field::<&[Json]>("tenants")? {
            tenants.push(TenantCounters {
                tenant: t.field("tenant")?,
                submitted: t.field("submitted")?,
                placed: t.field("placed")?,
                shed: t.field("shed")?,
                rejected: t.field("rejected")?,
            });
        }
        let ck = ServeCheckpoint {
            seq: doc.field("seq")?,
            algo: doc.field("algo")?,
            router: doc.field("router")?,
            fleet_cap: doc.field("fleet_cap")?,
            last_arrival: doc.field("last_arrival")?,
            watermark: doc.field("watermark")?,
            above,
            placed: doc.field("placed")?,
            shed: doc.field("shed")?,
            rejected: doc.field("rejected")?,
            // Absent in pre-WAL checkpoints.
            decision_seq: doc.field("decision_seq").unwrap_or(0),
            tenants,
            sessions: Vec::new(),
        };
        Ok((ck, doc.field("shards")?))
    };
    read().map_err(|what| bad(format!("manifest: {what}")))
}

/// The canonical file name of checkpoint `seq`.
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("serve-{seq:010}.ckpt")
}

/// Parses a `serve-<seq>.ckpt` file name back to its sequence number.
fn seq_of(name: &str) -> Option<u64> {
    name.strip_prefix("serve-")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

/// Writes checkpoint `ck` into `dir` durably — temp file, `sync_all`,
/// rename, parent-directory fsync (via
/// [`dbp_resilience::durable_write`]) — and prunes all but the newest
/// [`KEPT_CHECKPOINTS`] files. Returns the encoded size in bytes.
pub fn write_serve_checkpoint(dir: &Path, ck: &ServeCheckpoint) -> Result<u64, DbpError> {
    let mkdir =
        dbp_resilience::failpoint::io_op("ckpt_mkdir").and_then(|()| std::fs::create_dir_all(dir));
    mkdir.map_err(|e| io(format!("cannot create {}: {e}", dir.display())))?;
    let path = dir.join(checkpoint_file_name(ck.seq));
    let text = encode(ck);
    dbp_resilience::durable_write(&path, text.as_bytes())
        .map_err(|e| io(format!("committing {}: {e}", path.display())))?;
    // Prune: keep the newest KEPT_CHECKPOINTS by sequence.
    let mut all = list_checkpoints(dir)?;
    while all.len() > KEPT_CHECKPOINTS {
        let (_, oldest) = all.remove(0);
        if dbp_resilience::failpoint::io_op("ckpt_prune").is_ok() {
            let _ = std::fs::remove_file(oldest);
        }
    }
    Ok(text.len() as u64)
}

/// The WAL replay floor of the *oldest* checkpoint still on disk: every
/// decision at or below it is covered by every restorable checkpoint,
/// so WAL segments that only hold such decisions are prunable. Reads
/// only that file's manifest line: the floor is a manifest field, and
/// every kept checkpoint's floor is at least the oldest's, so a torn
/// session line further down cannot make the prune unsafe.
pub fn kept_checkpoint_floor(dir: &Path) -> Result<Option<u64>, DbpError> {
    use std::io::BufRead as _;
    let all = list_checkpoints(dir)?;
    let Some((_, path)) = all.first() else {
        return Ok(None);
    };
    let mut manifest = String::new();
    std::fs::File::open(path)
        .and_then(|f| std::io::BufReader::new(f).read_line(&mut manifest))
        .map_err(|e| io(format!("cannot read checkpoint {}: {e}", path.display())))?;
    Ok(Some(decode_manifest(manifest.trim_end())?.0.decision_seq))
}

/// Reads a checkpoint file; torn or corrupt files surface as typed
/// errors, never panics.
pub fn read_serve_checkpoint(path: &Path) -> Result<ServeCheckpoint, DbpError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| io(format!("cannot read checkpoint {}: {e}", path.display())))?;
    decode(&text)
}

/// Checkpoint files in `dir`, sorted by ascending sequence number.
pub(crate) fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DbpError> {
    let mut found = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(io(format!("cannot list {}: {e}", dir.display()))),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io(format!("cannot list {}: {e}", dir.display())))?;
        if let Some(seq) = entry.file_name().to_str().and_then(seq_of) {
            found.push((seq, entry.path()));
        }
    }
    found.sort();
    Ok(found)
}
