//! The write-ahead decision log: checksummed frames in one segment
//! sequence, torn-tail-tolerant recovery.
//!
//! Every admission decision the service makes — placed, shed, or a
//! typed reject — is logged *before* the response is externalized, as
//! one length-prefixed frame:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! ```
//!
//! The payload carries the global decision sequence number, the full
//! submission (tenant, job id, exact size bits, arrival, departure) and
//! the decision outcome, so replaying a frame against the restored
//! pre-state must reproduce the logged outcome bit for bit — recovery
//! verifies that and refuses to boot on a divergence rather than serve
//! a state that disagrees with what clients were told.
//!
//! **One log.** A frame records its stream: the routed shard, or the
//! coordinator stream (index = shard count) for submissions rejected
//! before routing (duplicate, out-of-order, invalid). Frames of every
//! stream go into one segment sequence, in decision order. The writer
//! encodes each decision into a reused commit buffer; a commit hands
//! the whole read batch to the kernel in one `write` and, under
//! [`FsyncPolicy::Always`], makes it durable with one `fdatasync`,
//! whatever the shard count.
//!
//! **Segments.** A segment is named `wal-<first_seq>.wal` after the
//! first sequence written to it; its header records the stream count
//! and the checkpoint floor. Rotation (triggered by every durable
//! checkpoint) closes the current segment; the next write opens a fresh
//! one, and the first sync that covers it fsyncs the directory too, so
//! the new file's entry is as durable as its frames. Because a
//! segment's name equals its first frame's sequence and frames only
//! ever disappear from the *end* (tail truncation),
//! `successor.first_seq <= floor + 1` proves every frame in the
//! predecessor is `<= floor` — which makes pruning old segments a pure
//! file-name computation, no content reads.
//!
//! **Older logs.** Builds before the one log kept one segment sequence
//! per stream (`wal-<stream>-<first_seq>.wal`, magic [`WAL_MAGIC_V1`],
//! the stream in the header). Recovery still reads them; the writer
//! never appends to them, and pruning deletes them once the one log
//! alone reaches the floor.
//!
//! **Recovery.** [`recover_wal`] scans every segment, stops each file at
//! the first torn or checksum-failing frame, merges the survivors by
//! sequence, keeps only the contiguous run starting at
//! `checkpoint floor + 1` (an unsynced OS cache can persist appends out
//! of order across files, so a gap means everything after it is
//! unreliable), and *physically truncates* every file back to its last
//! kept frame so the next writer's appends keep in-file sequences
//! monotonic. Corruption is detected and cut, never consumed.

use dbp_core::DbpError;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::protocol::{RejectReason, Submit};
use dbp_resilience::failpoint;

/// Magic bytes opening every segment file.
pub const WAL_MAGIC: &[u8; 8] = b"DBPWAL2\n";
/// Magic of the per-stream segments older builds wrote; recovery still
/// reads them.
pub const WAL_MAGIC_V1: &[u8; 8] = b"DBPWAL1\n";
/// Segment header length: magic + stream count (in an older per-stream
/// segment, its stream) + first_seq + ckpt_seq.
pub const WAL_HEADER_LEN: u64 = 8 + 4 + 8 + 8;
/// Upper bound on a frame payload; anything larger is torn garbage.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

fn bad(what: impl Into<String>) -> DbpError {
    DbpError::Trace {
        line: 0,
        what: what.into(),
    }
}

fn io(what: String) -> DbpError {
    DbpError::Io { what }
}

/// CRC-32 (IEEE 802.3, reflected, poly `0xEDB88320`) over `bytes` —
/// the frame checksum. Table-driven, built at compile time.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// When appended frames are flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// One `fdatasync` at each commit, before any decision the commit
    /// covers is acknowledged; an acknowledged decision survives
    /// `kill -9` and power loss.
    Always,
    /// Sync the log at most every this-many milliseconds; a crash can
    /// lose at most the last window of acknowledged decisions (clients
    /// resubmit them from the watermark).
    Interval(u64),
    /// Never sync explicitly; durability is whatever the OS page cache
    /// got around to. Fastest, weakest.
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never`, `interval` (default 20 ms) or
    /// `interval:<ms>`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, DbpError> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::Interval(20)),
            other => match other.strip_prefix("interval:") {
                Some(ms) => match ms.parse::<u64>() {
                    Ok(ms) if ms >= 1 => Ok(FsyncPolicy::Interval(ms)),
                    _ => Err(DbpError::InvalidParameter {
                        what: format!("fsync interval must be an integer >= 1 ms, got {ms:?}"),
                    }),
                },
                None => Err(DbpError::InvalidParameter {
                    what: format!(
                        "unknown fsync policy {other:?} (always | interval[:ms] | never)"
                    ),
                }),
            },
        }
    }

    /// The canonical spelling `parse` accepts back.
    pub fn name(self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::Interval(ms) => format!("interval:{ms}"),
            FsyncPolicy::Never => "never".into(),
        }
    }
}

/// The decision a frame records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameOutcome {
    /// Admitted and placed into `bin` on `shard`.
    Placed {
        /// Owning shard.
        shard: u32,
        /// Bin id within the shard.
        bin: u32,
    },
    /// Shed by admission control after routing to `shard`.
    Shed {
        /// The shard that refused to open a server.
        shard: u32,
    },
    /// Rejected before reaching an engine.
    Rejected(RejectReason),
}

fn reason_code(r: RejectReason) -> u8 {
    match r {
        RejectReason::FleetCapacity => 0,
        RejectReason::DuplicateJob => 1,
        RejectReason::ArrivalOutOfOrder => 2,
        RejectReason::InvalidJob => 3,
    }
}

fn reason_from_code(c: u8) -> Option<RejectReason> {
    Some(match c {
        0 => RejectReason::FleetCapacity,
        1 => RejectReason::DuplicateJob,
        2 => RejectReason::ArrivalOutOfOrder,
        3 => RejectReason::InvalidJob,
        _ => return None,
    })
}

/// One logged decision: the submission that caused it plus the outcome.
/// The tenant is owned in a decoded frame and borrowed from the
/// submission in one the service logs ([`DecisionFrame::of_submit`]).
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionFrame<T = String> {
    /// Global decision sequence number (1-based, dense).
    pub seq: u64,
    /// The stream: the routed shard, or shard-count for coordinator
    /// rejects.
    pub stream: u32,
    /// Tenant label, echoed from the submission.
    pub tenant: T,
    /// Job id.
    pub job: u32,
    /// True when `size_bits` is the exact fixed-point raw size; false
    /// when it is an `f64`'s bit pattern (the client sent a float).
    pub size_is_raw: bool,
    /// Size payload, interpreted per `size_is_raw`.
    pub size_bits: u64,
    /// Arrival tick.
    pub arrival: i64,
    /// Departure-estimate tick.
    pub departure: i64,
    /// The decision.
    pub outcome: FrameOutcome,
}

impl<'a> DecisionFrame<&'a str> {
    /// The frame logging decision `seq` of `s` on `stream`, its tenant
    /// borrowed from `s`.
    pub fn of_submit(seq: u64, stream: u32, s: &'a Submit, outcome: FrameOutcome) -> Self {
        DecisionFrame {
            seq,
            stream,
            tenant: &s.tenant,
            job: s.job,
            size_is_raw: s.size_raw.is_some(),
            size_bits: match s.size_raw {
                Some(raw) => raw,
                None => f64::to_bits(s.size.unwrap_or(0.0)),
            },
            arrival: s.arrival,
            departure: s.departure,
            outcome,
        }
    }
}

impl DecisionFrame {
    /// Reconstructs the submission this frame recorded, for replay.
    pub fn to_submit(&self) -> Submit {
        Submit {
            tenant: self.tenant.clone(),
            job: self.job,
            size: if self.size_is_raw {
                None
            } else {
                Some(f64::from_bits(self.size_bits))
            },
            size_raw: if self.size_is_raw {
                Some(self.size_bits)
            } else {
                None
            },
            arrival: self.arrival,
            departure: self.departure,
        }
    }
}

/// Frame payload version tag.
const FRAME_VERSION: u8 = 1;

/// Encodes a frame payload (without the length/CRC prefix).
pub fn encode_payload<T: AsRef<str>>(f: &DecisionFrame<T>) -> Vec<u8> {
    let mut p = Vec::new();
    encode_payload_into(&mut p, f);
    p
}

/// Encodes a full frame: `[len][crc][payload]`.
pub fn encode_frame<T: AsRef<str>>(f: &DecisionFrame<T>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, f);
    out
}

/// Appends `f` as one full frame to `out`: the encoder of the writer's
/// commit buffer, which [`encode_frame`] wraps.
fn encode_frame_into<T: AsRef<str>>(out: &mut Vec<u8>, f: &DecisionFrame<T>) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    encode_payload_into(out, f);
    let payload = &out[start + 8..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Appends `f`'s payload to `p`.
fn encode_payload_into<T: AsRef<str>>(p: &mut Vec<u8>, f: &DecisionFrame<T>) {
    p.push(FRAME_VERSION);
    p.extend_from_slice(&f.seq.to_le_bytes());
    p.extend_from_slice(&f.stream.to_le_bytes());
    p.extend_from_slice(&f.job.to_le_bytes());
    p.push(u8::from(f.size_is_raw));
    p.extend_from_slice(&f.size_bits.to_le_bytes());
    p.extend_from_slice(&f.arrival.to_le_bytes());
    p.extend_from_slice(&f.departure.to_le_bytes());
    match f.outcome {
        FrameOutcome::Placed { shard, bin } => {
            p.push(0);
            p.extend_from_slice(&shard.to_le_bytes());
            p.extend_from_slice(&bin.to_le_bytes());
        }
        FrameOutcome::Shed { shard } => {
            p.push(1);
            p.extend_from_slice(&shard.to_le_bytes());
            p.extend_from_slice(&0u32.to_le_bytes());
        }
        FrameOutcome::Rejected(r) => {
            p.push(2);
            p.extend_from_slice(&u32::from(reason_code(r)).to_le_bytes());
            p.extend_from_slice(&0u32.to_le_bytes());
        }
    }
    let tenant = f.tenant.as_ref().as_bytes();
    p.extend_from_slice(&(tenant.len() as u32).to_le_bytes());
    p.extend_from_slice(tenant);
}

struct Cursor<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DbpError> {
        if self.at + n > self.b.len() {
            return Err(bad("frame payload shorter than its fields"));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DbpError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DbpError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DbpError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, DbpError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decodes a frame payload whose CRC already verified. Errors here mean
/// a version/layout problem (or a 2^-32 CRC collision) — recovery
/// refuses to boot on them rather than guess.
pub fn decode_payload(payload: &[u8]) -> Result<DecisionFrame, DbpError> {
    let mut c = Cursor { b: payload, at: 0 };
    let version = c.u8()?;
    if version != FRAME_VERSION {
        return Err(bad(format!(
            "unsupported WAL frame version {version} (this build reads {FRAME_VERSION})"
        )));
    }
    let seq = c.u64()?;
    let stream = c.u32()?;
    let job = c.u32()?;
    let size_is_raw = match c.u8()? {
        0 => false,
        1 => true,
        other => return Err(bad(format!("bad size-kind byte {other}"))),
    };
    let size_bits = c.u64()?;
    let arrival = c.i64()?;
    let departure = c.i64()?;
    let kind = c.u8()?;
    let a = c.u32()?;
    let b = c.u32()?;
    let outcome = match kind {
        0 => FrameOutcome::Placed { shard: a, bin: b },
        1 => FrameOutcome::Shed { shard: a },
        2 => FrameOutcome::Rejected(
            u8::try_from(a)
                .ok()
                .and_then(reason_from_code)
                .ok_or_else(|| bad(format!("bad reject-reason code {a}")))?,
        ),
        other => return Err(bad(format!("bad outcome kind {other}"))),
    };
    let tenant_len = c.u32()? as usize;
    let tenant = String::from_utf8(c.take(tenant_len)?.to_vec())
        .map_err(|_| bad("frame tenant is not UTF-8"))?;
    if c.at != payload.len() {
        return Err(bad("trailing bytes after frame payload"));
    }
    Ok(DecisionFrame {
        seq,
        stream,
        tenant,
        job,
        size_is_raw,
        size_bits,
        arrival,
        departure,
        outcome,
    })
}

/// The canonical name of the segment whose first frame is `first_seq`.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.wal")
}

/// Parses a segment file name back to `(stream, first_seq)`: the
/// stream is `None` for a one-log segment and `Some` for a per-stream
/// segment an older build wrote (`wal-<stream>-<first_seq>.wal`).
pub fn parse_segment_name(name: &str) -> Option<(Option<u32>, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".wal")?;
    match rest.split_once('-') {
        None => Some((None, rest.parse().ok()?)),
        Some((stream, first)) => Some((Some(stream.parse().ok()?), first.parse().ok()?)),
    }
}

fn encode_header(n_streams: u32, first_seq: u64, ckpt_seq: u64) -> [u8; WAL_HEADER_LEN as usize] {
    let mut h = [0u8; WAL_HEADER_LEN as usize];
    h[..8].copy_from_slice(WAL_MAGIC);
    h[8..12].copy_from_slice(&n_streams.to_le_bytes());
    h[12..20].copy_from_slice(&first_seq.to_le_bytes());
    h[20..28].copy_from_slice(&ckpt_seq.to_le_bytes());
    h
}

/// The segment the writer appends to.
struct OpenSegment {
    file: File,
    /// Its path, which prune skips.
    path: PathBuf,
    /// Written frames exist that no sync has covered yet.
    dirty: bool,
    /// The directory has been fsynced since this file was opened, so
    /// its entry survives power loss.
    entry_durable: bool,
}

/// The append side of the WAL: one segment at a time, fed from a commit
/// buffer.
pub struct WalWriter {
    dir: PathBuf,
    policy: FsyncPolicy,
    n_streams: u32,
    /// `None` until the next write opens a segment.
    segment: Option<OpenSegment>,
    /// Checkpoint sequence stamped into the next segment's header.
    pending_ckpt: u64,
    /// Frames encoded since the last write, in sequence order.
    buf: Vec<u8>,
    /// Frames in `buf`, and the sequence of its first one (which names
    /// the segment a write opens for it).
    buf_frames: u64,
    buf_first_seq: u64,
    last_sync: Instant,
    frames: u64,
    bytes: u64,
    syncs: u64,
}

impl WalWriter {
    /// Opens a writer over `dir` for `n_streams` streams. Existing
    /// segments are left untouched (recovery already truncated them);
    /// the first write starts a fresh segment stamped with
    /// `ckpt_anchor`.
    pub fn open(
        dir: &Path,
        n_streams: usize,
        ckpt_anchor: u64,
        policy: FsyncPolicy,
    ) -> std::io::Result<WalWriter> {
        let n_streams = u32::try_from(n_streams)
            .map_err(|_| std::io::Error::other(format!("{n_streams} WAL streams overflow u32")))?;
        failpoint::io_op("wal_mkdir")?;
        std::fs::create_dir_all(dir)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            policy,
            n_streams,
            segment: None,
            pending_ckpt: ckpt_anchor,
            buf: Vec::new(),
            buf_frames: 0,
            buf_first_seq: 0,
            last_sync: Instant::now(),
            frames: 0,
            bytes: 0,
            syncs: 0,
        })
    }

    /// Frames written through this writer.
    pub fn frames_appended(&self) -> u64 {
        self.frames
    }

    /// Bytes written through this writer (headers included).
    pub fn bytes_appended(&self) -> u64 {
        self.bytes
    }

    /// Data syncs and directory syncs this writer issued.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Appends one frame and commits it: [`WalWriter::push`] then
    /// [`WalWriter::commit`]. On success under [`FsyncPolicy::Always`]
    /// the frame is on stable storage when this returns.
    pub fn append<T: AsRef<str>>(&mut self, frame: &DecisionFrame<T>) -> std::io::Result<()> {
        self.push(frame);
        self.commit()
    }

    /// Encodes one frame into the commit buffer. No IO: the next
    /// [`WalWriter::commit`] (or sync, or rotation) writes it.
    pub fn push<T: AsRef<str>>(&mut self, frame: &DecisionFrame<T>) {
        debug_assert!(frame.stream < self.n_streams, "frame stream out of range");
        if self.buf.is_empty() {
            self.buf_first_seq = frame.seq;
        }
        encode_frame_into(&mut self.buf, frame);
        self.buf_frames += 1;
    }

    /// Writes the buffered frames and applies the fsync policy: under
    /// [`FsyncPolicy::Always`] one `fdatasync`, so on success every
    /// pushed frame is on stable storage. Every policy hands the frames
    /// to the kernel, so they survive the process's death.
    pub fn commit(&mut self) -> std::io::Result<()> {
        match self.policy {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::Interval(ms) if self.last_sync.elapsed().as_millis() >= u128::from(ms) => {
                self.sync()
            }
            FsyncPolicy::Interval(_) | FsyncPolicy::Never => self.write(),
        }
    }

    /// Writes the buffered frames and syncs the open segment now.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.write()?;
        self.sync_segment("wal_fsync")?;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Rotates after checkpoint `ckpt_seq` became durable: writes and
    /// syncs the buffered frames, then closes the segment; the next
    /// write starts a fresh one. The segment closes even when this
    /// fails, since the checkpoint already covers every frame in it.
    pub fn rotate(&mut self, ckpt_seq: u64) -> std::io::Result<()> {
        self.pending_ckpt = ckpt_seq;
        let synced = self
            .write()
            .and_then(|()| self.sync_segment("wal_rotate_sync"));
        self.segment = None;
        synced
    }

    /// Hands the commit buffer to the kernel in one `write`, opening a
    /// segment named after its first frame when none is open. A failed
    /// write may leave a torn prefix of the buffer in the file, so it
    /// closes the segment (recovery cuts the torn tail, and nothing may
    /// follow it) and drops the buffer.
    fn write(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let written = self.write_buffer();
        if written.is_err() {
            self.segment = None;
        }
        self.buf.clear();
        self.buf_frames = 0;
        written
    }

    fn write_buffer(&mut self) -> std::io::Result<()> {
        if self.segment.is_none() {
            let path = self.dir.join(segment_file_name(self.buf_first_seq));
            failpoint::io_op("wal_open")?;
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            // A crash can leave a header-only segment whose first seq is
            // exactly the seq being retried now; appending continues it,
            // so only write the header into an empty file.
            if file.metadata()?.len() == 0 {
                failpoint::io_op("wal_header")?;
                let header = encode_header(self.n_streams, self.buf_first_seq, self.pending_ckpt);
                (&file).write_all(&header)?;
                self.bytes += WAL_HEADER_LEN;
            }
            self.segment = Some(OpenSegment {
                file,
                path,
                dirty: false,
                entry_durable: false,
            });
        }
        let seg = self.segment.as_mut().expect("segment opened above");
        failpoint::io_op("wal_append")?;
        seg.file.write_all(&self.buf)?;
        seg.dirty = true;
        self.frames += self.buf_frames;
        self.bytes += self.buf.len() as u64;
        Ok(())
    }

    /// Makes the open segment's written frames durable. The first sync
    /// of a segment fsyncs the directory first, so the file's entry is
    /// as durable as its frames — except under [`FsyncPolicy::Never`],
    /// which promises nothing past a process crash.
    fn sync_segment(&mut self, point: &'static str) -> std::io::Result<()> {
        let Some(seg) = self.segment.as_mut().filter(|s| s.dirty) else {
            return Ok(());
        };
        if !seg.entry_durable && self.policy != FsyncPolicy::Never {
            failpoint::io_op("wal_dir_fsync")?;
            File::open(&self.dir)?.sync_all()?;
            self.syncs += 1;
            seg.entry_durable = true;
        }
        failpoint::io_op(point)?;
        seg.file.sync_data()?;
        self.syncs += 1;
        seg.dirty = false;
        Ok(())
    }

    /// Deletes segments fully covered by the oldest kept checkpoint:
    /// a segment whose successor starts at or below `floor + 1` holds
    /// only frames `<= floor`. Recovery cut every older per-stream
    /// segment back to its last replayed frame, so all of them precede
    /// the first one-log frame: they go once any one-log segment starts
    /// at or below `floor + 1`. The open segment is never deleted.
    pub fn prune(&mut self, floor: u64) -> std::io::Result<()> {
        let bound = floor.saturating_add(1);
        let segments = list_segments(&self.dir)?;
        let (log, older): (Vec<_>, Vec<_>) =
            segments.iter().partition(|(stream, _, _)| stream.is_none());
        let mut doomed: Vec<&PathBuf> = log
            .windows(2)
            .filter(|pair| pair[1].1 <= bound)
            .map(|pair| &pair[0].2)
            .collect();
        if log.first().is_some_and(|(_, first, _)| *first <= bound) {
            doomed.extend(older.iter().map(|(_, _, path)| path));
        }
        for path in doomed {
            if self.segment.as_ref().is_some_and(|s| &s.path == path) {
                continue;
            }
            failpoint::io_op("wal_prune")?;
            std::fs::remove_file(path)?;
        }
        Ok(())
    }
}

/// Segment files in `dir` as `(stream, first_seq, path)`, sorted: the
/// one log by first sequence, then any older per-stream segments.
fn list_segments(dir: &Path) -> std::io::Result<Vec<(Option<u32>, u64, PathBuf)>> {
    let mut found = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some((stream, first)) = entry.file_name().to_str().and_then(parse_segment_name) {
            found.push((stream, first, entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// One scanned segment: its intact frames and where the intact prefix
/// ends.
struct SegmentScan {
    path: PathBuf,
    /// Byte length of the file as read.
    len: u64,
    /// End of the intact prefix: header + all frames that verified.
    valid_len: u64,
    /// Why the scan stopped early, if it did.
    torn: Option<String>,
    /// Intact frames, with each frame's start offset.
    frames: Vec<(u64, DecisionFrame)>,
}

/// Scans one segment file — a one-log segment when `stream` is `None`,
/// else an older per-stream one. Torn tails and checksum failures end
/// the scan (they become truncation work), but a CRC-valid frame that
/// violates the format's invariants — a stream the segment cannot hold,
/// non-monotonic sequence, undecodable payload — is a typed error: that
/// is not a crashed write, it is a log that cannot be trusted. So is a
/// segment written for another stream count.
fn scan_segment(
    path: &Path,
    stream: Option<u32>,
    first_seq: u64,
    n_streams: usize,
) -> Result<SegmentScan, DbpError> {
    let topology = |what: String| {
        bad(format!(
            "{}: {what}, but the service runs {n_streams} streams — refusing a WAL written \
             by a different topology",
            path.display()
        ))
    };
    if let Some(s) = stream.filter(|s| *s as usize >= n_streams) {
        return Err(topology(format!("segment belongs to stream {s}")));
    }
    let bytes =
        std::fs::read(path).map_err(|e| io(format!("cannot read {}: {e}", path.display())))?;
    let len = bytes.len() as u64;
    let mut scan = SegmentScan {
        path: path.to_path_buf(),
        len,
        valid_len: 0,
        torn: None,
        frames: Vec::new(),
    };
    let hdr = WAL_HEADER_LEN as usize;
    let magic = if stream.is_some() {
        WAL_MAGIC_V1
    } else {
        WAL_MAGIC
    };
    let header_ok = bytes.len() >= hdr
        && &bytes[..8] == magic
        && bytes[12..20] == first_seq.to_le_bytes()
        && stream.is_none_or(|s| bytes[8..12] == s.to_le_bytes());
    if !header_ok {
        if !bytes.is_empty() {
            scan.torn = Some("segment header torn or corrupt".into());
        }
        return Ok(scan);
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if stream.is_none() && count as usize != n_streams {
        return Err(topology(format!("segment was written for {count} streams")));
    }
    let mut at = hdr;
    let mut last_seq: Option<u64> = None;
    scan.valid_len = at as u64;
    loop {
        if at == bytes.len() {
            break;
        }
        if at + 8 > bytes.len() {
            scan.torn = Some(format!("torn frame header at offset {at}"));
            break;
        }
        let plen = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if plen > MAX_FRAME_LEN {
            scan.torn = Some(format!("frame length {plen} at offset {at} exceeds cap"));
            break;
        }
        let end = at + 8 + plen as usize;
        if end > bytes.len() {
            scan.torn = Some(format!("torn frame payload at offset {at}"));
            break;
        }
        let payload = &bytes[at + 8..end];
        if crc32(payload) != crc {
            scan.torn = Some(format!("frame checksum mismatch at offset {at}"));
            break;
        }
        let frame = decode_payload(payload)
            .map_err(|e| bad(format!("{}: offset {at}: {e}", path.display())))?;
        let holds = match stream {
            Some(s) => frame.stream == s,
            None => (frame.stream as usize) < n_streams,
        };
        if !holds {
            return Err(bad(format!(
                "{}: frame at offset {at} claims stream {}, which this segment cannot hold",
                path.display(),
                frame.stream
            )));
        }
        if frame.seq < first_seq || last_seq.is_some_and(|l| frame.seq <= l) {
            return Err(bad(format!(
                "{}: frame sequence {} at offset {at} breaks in-file monotonicity",
                path.display(),
                frame.seq
            )));
        }
        last_seq = Some(frame.seq);
        scan.frames.push((at as u64, frame));
        at = end;
        scan.valid_len = at as u64;
    }
    Ok(scan)
}

/// What [`recover_wal`] found and did.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Replayable frames: the contiguous run `floor+1, floor+2, ...`,
    /// in sequence order.
    pub frames: Vec<DecisionFrame>,
    /// Total segment bytes scanned.
    pub bytes_scanned: u64,
    /// Files cut back, as `(path, new_len, reason)`.
    pub truncated: Vec<(PathBuf, u64, String)>,
    /// CRC-valid frames dropped because a sequence gap preceded them.
    pub dropped_after_gap: u64,
}

/// Scans every segment under `dir`, verifies and merges frames, and
/// returns the replayable contiguous run after `floor` (the restored
/// checkpoint's decision sequence). Torn tails, checksum failures, and
/// post-gap frames are physically truncated away so the next writer's
/// appends keep every in-file sequence monotonic.
pub fn recover_wal(dir: &Path, n_streams: usize, floor: u64) -> Result<WalRecovery, DbpError> {
    let mut out = WalRecovery::default();
    let segments = list_segments(dir).map_err(|e| io(format!("cannot list WAL dir: {e}")))?;
    let mut scans = Vec::with_capacity(segments.len());
    for (stream, first_seq, path) in &segments {
        let scan = scan_segment(path, *stream, *first_seq, n_streams)?;
        out.bytes_scanned += scan.len;
        scans.push(scan);
    }
    // Merge all intact frames by global sequence; duplicates mean two
    // files both claim a decision, which no crash can produce.
    let mut all: Vec<(u64, usize, usize)> = Vec::new();
    for (si, scan) in scans.iter().enumerate() {
        for (fi, (_, frame)) in scan.frames.iter().enumerate() {
            all.push((frame.seq, si, fi));
        }
    }
    all.sort_unstable();
    for pair in all.windows(2) {
        if pair[0].0 == pair[1].0 {
            let (seq, si, _) = pair[1];
            return Err(bad(format!(
                "duplicate WAL sequence {seq} (second copy in {})",
                scans[si].path.display()
            )));
        }
    }
    // Keep the contiguous run starting right after the checkpoint
    // floor; anything past the first gap may have been persisted out of
    // order relative to lost frames, so it cannot be trusted.
    let mut last_kept = floor;
    for &(seq, si, fi) in all.iter().skip_while(|&&(seq, _, _)| seq <= floor) {
        if seq != last_kept + 1 {
            break;
        }
        last_kept = seq;
        out.frames.push(scans[si].frames[fi].1.clone());
    }
    let kept = out.frames.len();
    let total_past_floor = all.iter().filter(|&&(seq, _, _)| seq > floor).count();
    out.dropped_after_gap = (total_past_floor - kept) as u64;
    // Physically cut every file back to its last kept frame: torn
    // tails, corrupt bytes, and post-gap frames all disappear so future
    // appends cannot interleave with stale sequences.
    for scan in &scans {
        let keep_until = scan
            .frames
            .iter()
            .find(|(_, f)| f.seq > last_kept)
            .map(|(off, _)| *off)
            .unwrap_or(scan.valid_len);
        let cut = keep_until.min(scan.valid_len);
        if cut < scan.len {
            let reason = match &scan.torn {
                Some(t) if cut == scan.valid_len => t.clone(),
                _ => format!("dropping frames past sequence {last_kept}"),
            };
            failpoint::io_op("wal_truncate").map_err(|e| io(e.to_string()))?;
            let file = OpenOptions::new()
                .write(true)
                .open(&scan.path)
                .map_err(|e| {
                    io(format!(
                        "cannot open {} to truncate: {e}",
                        scan.path.display()
                    ))
                })?;
            file.set_len(cut)
                .map_err(|e| io(format!("cannot truncate {}: {e}", scan.path.display())))?;
            file.sync_all()
                .map_err(|e| io(format!("cannot sync {}: {e}", scan.path.display())))?;
            out.truncated.push((scan.path.clone(), cut, reason));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seq: u64, stream: u32, job: u32) -> DecisionFrame {
        DecisionFrame {
            seq,
            stream,
            tenant: format!("t-{}", job % 3),
            job,
            size_is_raw: true,
            size_bits: 1 << 22,
            arrival: i64::from(job),
            departure: i64::from(job) + 7,
            outcome: FrameOutcome::Placed {
                shard: stream,
                bin: job % 5,
            },
        }
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dbp-wal-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_policy_parses_and_round_trips() {
        for s in ["always", "never", "interval:5"] {
            assert_eq!(FsyncPolicy::parse(s).unwrap().name(), s);
        }
        assert_eq!(
            FsyncPolicy::parse("interval").unwrap(),
            FsyncPolicy::Interval(20)
        );
        assert!(FsyncPolicy::parse("interval:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn frame_round_trips_through_the_codec() {
        for outcome in [
            FrameOutcome::Placed { shard: 1, bin: 9 },
            FrameOutcome::Shed { shard: 0 },
            FrameOutcome::Rejected(RejectReason::DuplicateJob),
            FrameOutcome::Rejected(RejectReason::InvalidJob),
        ] {
            let mut f = frame(42, 1, 7);
            f.outcome = outcome;
            f.size_is_raw = false;
            f.size_bits = f64::to_bits(0.375);
            let enc = encode_frame(&f);
            let plen = u32::from_le_bytes(enc[..4].try_into().unwrap()) as usize;
            assert_eq!(plen + 8, enc.len());
            let dec = decode_payload(&enc[8..]).unwrap();
            assert_eq!(dec, f);
        }
    }

    #[test]
    fn write_recover_round_trip_and_floor() {
        let dir = fresh_dir("roundtrip");
        let mut w = WalWriter::open(&dir, 3, 0, FsyncPolicy::Always).unwrap();
        for seq in 1..=20u64 {
            w.append(&frame(seq, (seq % 3) as u32, seq as u32)).unwrap();
        }
        drop(w);
        assert_eq!(
            list_segments(&dir).unwrap().len(),
            1,
            "every stream logs into one segment"
        );
        let rec = recover_wal(&dir, 3, 0).unwrap();
        assert_eq!(rec.frames.len(), 20);
        assert_eq!(rec.frames[0].seq, 1);
        assert_eq!(rec.frames[4].stream, 2);
        assert_eq!(rec.frames[19].seq, 20);
        assert!(rec.truncated.is_empty());
        // A floor skips the covered prefix.
        let rec = recover_wal(&dir, 3, 12).unwrap();
        assert_eq!(rec.frames.first().map(|f| f.seq), Some(13));
        assert_eq!(rec.frames.len(), 8);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = fresh_dir("torn");
        let mut w = WalWriter::open(&dir, 1, 0, FsyncPolicy::Never).unwrap();
        for seq in 1..=10u64 {
            w.append(&frame(seq, 0, seq as u32)).unwrap();
        }
        drop(w);
        let seg = list_segments(&dir).unwrap().remove(0).2;
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let rec = recover_wal(&dir, 1, 0).unwrap();
        assert_eq!(rec.frames.len(), 9, "the torn 10th frame is cut");
        assert_eq!(rec.truncated.len(), 1);
        // Recovery is idempotent: the truncated file now scans clean.
        let rec2 = recover_wal(&dir, 1, 0).unwrap();
        assert_eq!(rec2.frames.len(), 9);
        assert!(rec2.truncated.is_empty());
    }

    #[test]
    fn bit_flip_is_detected_and_cut() {
        let dir = fresh_dir("flip");
        let mut w = WalWriter::open(&dir, 1, 0, FsyncPolicy::Never).unwrap();
        for seq in 1..=10u64 {
            w.append(&frame(seq, 0, seq as u32)).unwrap();
        }
        drop(w);
        let seg = list_segments(&dir).unwrap().remove(0).2;
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();
        let rec = recover_wal(&dir, 1, 0).unwrap();
        assert!(rec.frames.len() < 10, "frames at/after the flip are gone");
        assert_eq!(rec.truncated.len(), 1);
        for (i, f) in rec.frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64 + 1, "surviving prefix is contiguous");
        }
    }

    #[test]
    fn seq_gap_drops_and_truncates_the_far_side() {
        let dir = fresh_dir("gap");
        // Seqs 1..=5 in one segment, 8..=9 in the next — pretend 6 and
        // 7 were lost in an unsynced cache.
        let mut w = WalWriter::open(&dir, 2, 0, FsyncPolicy::Never).unwrap();
        for seq in 1..=5u64 {
            w.append(&frame(seq, (seq % 2) as u32, seq as u32)).unwrap();
        }
        w.rotate(0).unwrap();
        for seq in 8..=9u64 {
            w.append(&frame(seq, 0, seq as u32)).unwrap();
        }
        drop(w);
        let rec = recover_wal(&dir, 2, 0).unwrap();
        assert_eq!(rec.frames.len(), 5, "1..=5 replay; 8..9 are post-gap");
        assert_eq!(rec.dropped_after_gap, 2);
        assert_eq!(rec.truncated.len(), 1, "the second segment is cut at seq 8");
        // After truncation a re-scan finds exactly the replayable run.
        let rec2 = recover_wal(&dir, 2, 0).unwrap();
        assert_eq!(rec2.frames.len(), 5);
        assert_eq!(rec2.dropped_after_gap, 0);
        assert!(rec2.truncated.is_empty());
    }

    #[test]
    fn rotation_and_prune_keep_exactly_the_needed_segments() {
        let dir = fresh_dir("prune");
        let mut w = WalWriter::open(&dir, 1, 0, FsyncPolicy::Never).unwrap();
        for seq in 1..=5u64 {
            w.append(&frame(seq, 0, seq as u32)).unwrap();
        }
        w.rotate(1).unwrap();
        for seq in 6..=10u64 {
            w.append(&frame(seq, 0, seq as u32)).unwrap();
        }
        w.rotate(2).unwrap();
        for seq in 11..=12u64 {
            w.append(&frame(seq, 0, seq as u32)).unwrap();
        }
        assert_eq!(list_segments(&dir).unwrap().len(), 3);
        // Oldest kept checkpoint covers decisions <= 5: the first
        // segment (1..=5) is prunable, the second (6..=10) is not.
        w.prune(5).unwrap();
        let left = list_segments(&dir).unwrap();
        assert_eq!(left.len(), 2);
        assert_eq!(left[0].1, 6);
        let rec = recover_wal(&dir, 1, 5).unwrap();
        assert_eq!(rec.frames.len(), 7, "6..=12 still replay");
    }

    #[test]
    fn wrong_topology_is_refused() {
        let dir = fresh_dir("topology");
        let mut w = WalWriter::open(&dir, 3, 0, FsyncPolicy::Never).unwrap();
        w.append(&frame(1, 2, 1)).unwrap();
        drop(w);
        let err = recover_wal(&dir, 2, 0).unwrap_err();
        assert!(err.to_string().contains("different topology"));
    }

    #[test]
    fn a_frame_of_a_stream_the_log_does_not_hold_is_refused() {
        let dir = fresh_dir("stream-range");
        let mut w = WalWriter::open(&dir, 2, 0, FsyncPolicy::Never).unwrap();
        w.append(&frame(1, 1, 1)).unwrap();
        drop(w);
        // A CRC-valid frame claiming stream 2 in a two-stream log.
        let seg = list_segments(&dir).unwrap().remove(0).2;
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&encode_frame(&frame(2, 2, 2)));
        std::fs::write(&seg, &bytes).unwrap();
        let err = recover_wal(&dir, 2, 0).unwrap_err();
        assert!(err.to_string().contains("claims stream 2"), "{err}");
    }

    #[test]
    fn a_new_segment_syncs_its_directory_once_unless_the_policy_is_never() {
        for (policy, first, later) in [
            (FsyncPolicy::Always, 2, 1),
            (FsyncPolicy::Interval(1), 2, 1),
            (FsyncPolicy::Never, 1, 1),
        ] {
            let dir = fresh_dir(&format!("dir-sync-{}", policy.name()));
            let mut w = WalWriter::open(&dir, 1, 0, policy).unwrap();
            w.push(&frame(1, 0, 1));
            w.sync().unwrap();
            assert_eq!(w.syncs(), first, "{policy:?}: the segment's first sync");
            w.push(&frame(2, 0, 2));
            w.sync().unwrap();
            assert_eq!(w.syncs(), first + later, "{policy:?}: a later sync");
            // A rotation's sync covers the same segment: no directory
            // fsync; the next segment's first sync has one again.
            w.push(&frame(3, 0, 3));
            w.rotate(1).unwrap();
            assert_eq!(w.syncs(), first + 2 * later, "{policy:?}: rotation");
            w.push(&frame(4, 0, 4));
            w.sync().unwrap();
            assert_eq!(w.syncs(), 2 * first + 2 * later, "{policy:?}: next segment");
            assert_eq!(w.frames_appended(), 4);
        }
    }

    #[test]
    fn a_commit_writes_only_what_was_pushed_since_the_last() {
        let dir = fresh_dir("commit-buffer");
        let mut w = WalWriter::open(&dir, 2, 0, FsyncPolicy::Never).unwrap();
        for seq in 1..=3u64 {
            w.push(&frame(seq, (seq % 2) as u32, seq as u32));
        }
        assert_eq!(w.frames_appended(), 0, "pushing does no IO");
        w.commit().unwrap();
        let after_first = w.bytes_appended();
        assert_eq!(w.frames_appended(), 3);
        w.commit().unwrap();
        assert_eq!(
            w.bytes_appended(),
            after_first,
            "an empty commit writes nothing"
        );
        w.append(&frame(4, 0, 4)).unwrap();
        drop(w);
        let rec = recover_wal(&dir, 2, 0).unwrap();
        let seqs: Vec<u64> = rec.frames.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, [1, 2, 3, 4]);
    }

    #[test]
    fn crc_valid_outcome_mutation_still_decodes_for_replay_to_catch() {
        // A frame whose payload was maliciously rewritten with a fixed
        // CRC decodes fine — the *replay* comparison is what catches it.
        // Here we only prove the codec is not the line of defence.
        let f = frame(3, 0, 3);
        let mut payload = encode_payload(&f);
        let off = 1 + 8 + 4 + 4 + 1 + 8 + 8 + 8; // outcome kind byte
        payload[off] = 1; // Placed -> Shed
        let dec = decode_payload(&payload).unwrap();
        assert_eq!(dec.outcome, FrameOutcome::Shed { shard: 0 });
        assert_ne!(dec.outcome, f.outcome);
    }
}
