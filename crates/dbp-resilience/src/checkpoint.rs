//! Versioned JSON checkpoints of a streaming session.
//!
//! [`snapshot_to_json`] encodes a [`SessionSnapshot`] as a single JSON
//! document; [`snapshot_from_json`] decodes it, validating structure and
//! refusing unknown format names up front (the snapshot's own version is
//! checked again, against the running build, by
//! [`dbp_core::StreamingSession::restore`]). All integers are written as
//! their exact decimal text — raw [`Size`] values are `u64` and must not
//! pass through `f64` — so encode → decode → encode is byte-identical.
//!
//! The version 2 layout (one object, field order fixed) holds live state
//! only, so its size follows the open bins and live items:
//!
//! ```json
//! {"format":"dbp-checkpoint","version":2,"packer":"ff",
//!  "packer_state":{"epoch":5},
//!  "next_bin":3,"last_arrival":7,"closed_usage":12,
//!  "open_bins":[{"id":2,"opened_at":5,"tag":0,"placed":3,
//!                "items":[{"id":1,"size_raw":8388608,"departure":9}]}],
//!  "departures":[[9,1]]}
//! ```
//!
//! `last_arrival` and per-item `departure` use `null` for "absent".
//! `closed_usage` (a `u128`) is the usage of every bin already closed;
//! `placed` counts the items ever placed in an open bin, departed ones
//! included.
//!
//! ## Reading version 1
//!
//! Version 1 documents also carried `watermark`, `above` and `records`,
//! the history of every bin ever opened with every item ever placed in
//! it. [`snapshot_from_json`] converts them to the version 2 snapshot the
//! same session writes today: `closed_usage` is the summed usage of the
//! records whose bin is not open, an open bin's `placed` is the length of
//! its record's item list, and the id fields are dropped (sessions never
//! used them). A history that version 1's restore refused — a record
//! count other than `next_bin`, records not indexed by position — is
//! refused here.

use dbp_core::online::PackerState;
use dbp_core::stream::{BinSnapshot, SessionSnapshot, SNAPSHOT_VERSION};
use dbp_core::{ActiveItem, BinId, DbpError, ItemId, Size, Time};
use dbp_obs::json::{escape, named, required, FromScalar, Reader};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The `format` field every checkpoint document carries.
pub const CHECKPOINT_FORMAT: &str = "dbp-checkpoint";

fn bad(what: impl Into<String>) -> DbpError {
    DbpError::Trace {
        line: 0,
        what: what.into(),
    }
}

/// Encodes a snapshot as a single-line JSON document.
pub fn snapshot_to_json(snap: &SessionSnapshot) -> String {
    let mut out = Vec::with_capacity(256);
    write_snapshot_json(&mut out, snap).expect("a Vec takes every write");
    String::from_utf8(out).expect("the encoder writes UTF-8")
}

/// Writes [`snapshot_to_json`]'s document to `out` as it is encoded,
/// with no intermediate `String`: a checkpoint streams each shard's
/// snapshot into its file this way.
pub fn write_snapshot_json<W: Write>(out: &mut W, snap: &SessionSnapshot) -> io::Result<()> {
    write!(
        out,
        "{{\"format\":\"{CHECKPOINT_FORMAT}\",\"version\":{},\"packer\":\"{}\"",
        snap.version,
        escape(&snap.packer)
    )?;
    out.write_all(b",\"packer_state\":{")?;
    for (i, (k, v)) in snap.packer_state.fields().iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(out, "\"{}\":{v}", escape(k))?;
    }
    out.write_all(b"}")?;
    write!(out, ",\"next_bin\":{}", snap.next_bin)?;
    match snap.last_arrival {
        Some(t) => write!(out, ",\"last_arrival\":{t}")?,
        None => out.write_all(b",\"last_arrival\":null")?,
    }
    write!(out, ",\"closed_usage\":{}", snap.closed_usage)?;
    out.write_all(b",\"open_bins\":[")?;
    for (i, b) in snap.open_bins.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "{{\"id\":{},\"opened_at\":{},\"tag\":{},\"placed\":{},\"items\":[",
            b.id.0, b.opened_at, b.tag, b.placed
        )?;
        for (j, a) in b.items.iter().enumerate() {
            if j > 0 {
                out.write_all(b",")?;
            }
            write!(out, "{{\"id\":{},\"size_raw\":{}", a.id.0, a.size.raw())?;
            match a.departure {
                Some(d) => write!(out, ",\"departure\":{d}}}")?,
                None => out.write_all(b",\"departure\":null}")?,
            }
        }
        out.write_all(b"]}")?;
    }
    out.write_all(b"],\"departures\":[")?;
    for (i, (t, id)) in snap.departures.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(out, "[{t},{}]", id.0)?;
    }
    out.write_all(b"]}")
}

/// Decodes a checkpoint document produced by [`snapshot_to_json`], or a
/// version 1 document converted to version 2 (see the module docs).
///
/// One [`Reader`] pass reads each field into the snapshot as it is
/// scanned and builds nothing else. Keys may come in any order and
/// compare unescaped; the first occurrence of a key wins, and later ones
/// and unknown keys are validated but not read. The fields whose meaning
/// depends on the version (`closed_usage`, each bin's `placed`, version
/// 1's `records`) are kept until the document's end, since `version` may
/// follow them.
pub fn snapshot_from_json(text: &str) -> Result<SessionSnapshot, DbpError> {
    decode(text).map_err(bad)
}

fn decode(text: &str) -> Result<SessionSnapshot, String> {
    let mut doc = Document::default();
    let mut r = Reader::new(text);
    r.object(|r, key| named(key, doc.member(r, key)))?;
    r.finish()?;
    doc.snapshot()
}

/// A scalar whose type is checked only once the version is known: its
/// syntax is checked as it is read, its type is not yet.
fn deferred<'a, T: FromScalar<'a>>(r: &mut Reader<'a>) -> Result<Result<T, String>, String> {
    Ok(T::from_scalar(r.scalar()?))
}

/// The top-level fields, each from the first occurrence of its key.
#[derive(Default)]
struct Document<'a> {
    format: Option<Cow<'a, str>>,
    version: Option<u32>,
    packer: Option<String>,
    packer_state: Option<PackerState>,
    next_bin: Option<u32>,
    last_arrival: Option<Option<Time>>,
    /// Version 2 only.
    closed_usage: Option<Result<u128, String>>,
    open_bins: Option<Vec<BinSnapshot>>,
    /// What is wrong with the first open bin whose `placed` is missing
    /// or not a `u64`; version 1 ignores `placed`.
    bad_placed: Option<String>,
    departures: Option<Vec<(Time, ItemId)>>,
    /// Version 1's bin history, validated and kept as text.
    records: Option<&'a str>,
}

impl<'a> Document<'a> {
    fn member(&mut self, r: &mut Reader<'a>, key: &str) -> Result<(), String> {
        match key {
            "format" => r.first(&mut self.format, Reader::read),
            "version" => r.first(&mut self.version, Reader::read),
            "packer" => r.first(&mut self.packer, Reader::read),
            "packer_state" => r.first(&mut self.packer_state, read_packer_state),
            "next_bin" => r.first(&mut self.next_bin, Reader::read),
            "last_arrival" => r.first(&mut self.last_arrival, Reader::read),
            "closed_usage" => r.first(&mut self.closed_usage, deferred),
            "open_bins" => {
                let bad_placed = &mut self.bad_placed;
                r.first(&mut self.open_bins, |r| {
                    let mut bins = Vec::new();
                    r.array(|r| {
                        bins.push(read_bin(r, bad_placed)?);
                        Ok(())
                    })?;
                    Ok(bins)
                })
            }
            "departures" => r.first(&mut self.departures, read_departures),
            "records" => r.first(&mut self.records, Reader::skip),
            _ => Ok(()),
        }
    }

    fn snapshot(self) -> Result<SessionSnapshot, String> {
        let format = required(self.format, "format")?;
        if format != CHECKPOINT_FORMAT {
            return Err(format!(
                "not a checkpoint: format {format:?} (expected {CHECKPOINT_FORMAT:?})"
            ));
        }
        let version = required(self.version, "version")?;
        let v1 = version == 1;
        let next_bin = required(self.next_bin, "next_bin")?;
        let mut open_bins = required(self.open_bins, "open_bins")?;
        let closed_usage = if v1 {
            for b in &mut open_bins {
                b.placed = 0;
            }
            v1_history(required(self.records, "records")?, next_bin, &mut open_bins)?
        } else {
            if let Some(what) = self.bad_placed {
                return Err(what);
            }
            named("closed_usage", required(self.closed_usage, "closed_usage")?)?
        };
        Ok(SessionSnapshot {
            version: if v1 { SNAPSHOT_VERSION } else { version },
            packer: required(self.packer, "packer")?,
            packer_state: required(self.packer_state, "packer_state")?,
            open_bins,
            departures: required(self.departures, "departures")?,
            next_bin,
            last_arrival: required(self.last_arrival, "last_arrival")?,
            closed_usage,
            watermark: 0,
            above: Vec::new(),
        })
    }
}

/// Every pair in order, duplicates included.
fn read_packer_state(r: &mut Reader<'_>) -> Result<PackerState, String> {
    let mut fields = Vec::new();
    r.object(|r, key| {
        let value = r
            .read()
            .map_err(|what| format!("packer_state field {key:?} {what}"))?;
        fields.push((key.to_string(), value));
        Ok(())
    })?;
    Ok(PackerState::from_fields(fields))
}

/// One open bin; a `placed` that is missing or not a `u64` reads as 0
/// and is noted in `bad_placed`.
fn read_bin(r: &mut Reader<'_>, bad_placed: &mut Option<String>) -> Result<BinSnapshot, String> {
    let (mut id, mut opened_at, mut tag, mut placed, mut items) = (None, None, None, None, None);
    r.object(|r, key| {
        named(
            key,
            match key {
                "id" => r.first(&mut id, Reader::read),
                "opened_at" => r.first(&mut opened_at, Reader::read),
                "tag" => r.first(&mut tag, Reader::read),
                "placed" => r.first(&mut placed, deferred),
                "items" => r.first(&mut items, read_items),
                _ => Ok(()),
            },
        )
    })?;
    let placed = required(placed, "placed")
        .and_then(|placed| named("placed", placed))
        .unwrap_or_else(|what| {
            bad_placed.get_or_insert(what);
            0
        });
    Ok(BinSnapshot {
        id: BinId(required(id, "id")?),
        opened_at: required(opened_at, "opened_at")?,
        tag: required(tag, "tag")?,
        placed,
        items: required(items, "items")?,
    })
}

fn read_items(r: &mut Reader<'_>) -> Result<Vec<ActiveItem>, String> {
    let mut items = Vec::new();
    r.array(|r| {
        let (mut id, mut size_raw, mut departure) = (None, None, None);
        r.object(|r, key| {
            named(
                key,
                match key {
                    "id" => r.first(&mut id, Reader::read),
                    "size_raw" => r.first(&mut size_raw, Reader::read),
                    "departure" => r.first(&mut departure, Reader::read),
                    _ => Ok(()),
                },
            )
        })?;
        items.push(ActiveItem {
            id: ItemId(required(id, "id")?),
            size: Size::from_raw(required(size_raw, "size_raw")?),
            departure: required(departure, "departure")?,
        });
        Ok(())
    })?;
    Ok(items)
}

/// `[time, id]` pairs.
fn read_departures(r: &mut Reader<'_>) -> Result<Vec<(Time, ItemId)>, String> {
    let mut departures = Vec::new();
    r.array(|r| {
        let (mut pair, mut len) = ((0, ItemId(0)), 0);
        r.array(|r| {
            match len {
                0 => pair.0 = r.read().map_err(|what| format!("departure time {what}"))?,
                1 => pair.1 = ItemId(r.read().map_err(|what| format!("departure id {what}"))?),
                _ => {}
            }
            len += 1;
            Ok(())
        })?;
        if len != 2 {
            return Err("entry in \"departures\" is not a [time, id] pair".into());
        }
        departures.push(pair);
        Ok(())
    })?;
    Ok(departures)
}

/// Reduces a version 1 document's bin history to what version 2 keeps:
/// returns the usage of the records whose bin is not open, and sets each
/// open bin's `placed` to its record's item count.
fn v1_history(records: &str, next_bin: u32, open_bins: &mut [BinSnapshot]) -> Result<u128, String> {
    let open: HashMap<BinId, usize> = open_bins
        .iter()
        .enumerate()
        .map(|(k, b)| (b.id, k))
        .collect();
    let (mut closed_usage, mut count) = (0u128, 0usize);
    Reader::new(records).array(|r| {
        let i = count;
        count += 1;
        let (mut id, mut items, mut opened_at, mut closed_at, mut tag) =
            (None, None, None, None, None);
        r.object(|r, key| {
            named(
                key,
                match key {
                    "id" => r.first(&mut id, Reader::read::<u32>),
                    "items" => r.first(&mut items, |r| {
                        let mut n = 0u64;
                        r.array(|r| {
                            r.read::<u32>()
                                .map_err(|_| "record item id is not a u32".to_string())?;
                            n += 1;
                            Ok(())
                        })?;
                        Ok(n)
                    }),
                    "opened_at" => r.first(&mut opened_at, Reader::read::<Time>),
                    "closed_at" => r.first(&mut closed_at, Reader::read::<Time>),
                    "tag" => r.first(&mut tag, Reader::read::<u64>),
                    _ => Ok(()),
                },
            )
        })?;
        let id = required(id, "id")?;
        if id as usize != i {
            return Err(format!("bin record {i} carries id {id}"));
        }
        let items = required(items, "items")?;
        let (opened_at, closed_at) = (
            required(opened_at, "opened_at")?,
            required(closed_at, "closed_at")?,
        );
        required(tag, "tag")?;
        match open.get(&BinId(id)) {
            Some(&k) => open_bins[k].placed = items,
            None => {
                let span = i128::from(closed_at) - i128::from(opened_at);
                if span < 0 {
                    return Err(format!(
                        "bin record {i} closes at {closed_at}, before it opened at {opened_at}"
                    ));
                }
                closed_usage += span as u128;
            }
        }
        Ok(())
    })?;
    if count != next_bin as usize {
        return Err(format!(
            "snapshot has {count} bin records but next_bin is {next_bin}"
        ));
    }
    Ok(closed_usage)
}

/// Fsyncs a directory, making previously renamed entries durable. Every
/// rename-based commit needs this: the rename itself may sit in the
/// directory's page cache until the metadata is flushed.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    crate::failpoint::io_op("dir_fsync")?;
    File::open(dir)?.sync_all()
}

/// Bytes a [`durable_write`] writer buffers before each `write`.
const WRITE_BUFFER: usize = 64 * 1024;

/// Durably writes what `fill` writes to `path`: temp file in the same
/// directory (`fill` writes through a buffer straight into it, so a
/// document is never built whole first), `sync_all`, rename over the
/// canonical name, then parent-directory fsync. A crash at any point
/// leaves either the old content or the new content under `path`, never
/// a torn file. Every step runs through a [`crate::failpoint`] hook so
/// the torture harness can crash it. Returns the file's length.
pub fn durable_write<F>(path: &Path, fill: F) -> io::Result<u64>
where
    F: FnOnce(&mut BufWriter<File>) -> io::Result<()>,
{
    let tmp = match path.file_name().and_then(|n| n.to_str()) {
        Some(name) => path.with_file_name(format!("{name}.tmp")),
        None => {
            return Err(io::Error::other(format!(
                "durable_write: {} has no file name",
                path.display()
            )))
        }
    };
    let len = {
        crate::failpoint::io_op("ckpt_write")?;
        let mut f = BufWriter::with_capacity(WRITE_BUFFER, File::create(&tmp)?);
        fill(&mut f)?;
        let f = f.into_inner().map_err(io::IntoInnerError::into_error)?;
        crate::failpoint::io_op("ckpt_sync")?;
        f.sync_all()?;
        f.metadata()?.len()
    };
    crate::failpoint::io_op("ckpt_rename")?;
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fsync_dir(dir)?;
        }
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::{ClairvoyanceMode, Instance, StreamingSession};

    fn sample_snapshot() -> SessionSnapshot {
        let inst = Instance::from_triples(&[
            (0.5, 0, 10),
            (0.5, 2, 8),
            (0.9, 3, 30),
            (0.25, 5, 12),
            (0.25, 7, 40),
        ]);
        let mut packer = dbp_algos::online::ClassifyByDepartureTime::new(8);
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        for item in inst.items() {
            s.arrive(item).unwrap();
        }
        s.snapshot()
    }

    #[test]
    fn json_round_trip_is_identity() {
        let snap = sample_snapshot();
        let text = snapshot_to_json(&snap);
        let decoded = snapshot_from_json(&text).unwrap();
        assert_eq!(decoded, snap);
        // Encoding is canonical: re-encoding the decoded snapshot is
        // byte-identical.
        assert_eq!(snapshot_to_json(&decoded), text);
    }

    #[test]
    fn rejects_wrong_format_and_garbage() {
        assert!(snapshot_from_json("{\"format\":\"other\"}").is_err());
        assert!(snapshot_from_json("not json").is_err());
        assert!(snapshot_from_json("{}").is_err());
        // Structurally valid JSON with a broken field type.
        let snap = sample_snapshot();
        let text = snapshot_to_json(&snap).replace("\"next_bin\":", "\"next_bin\":\"x\",\"n\":");
        assert!(snapshot_from_json(&text).is_err());
    }

    /// A torn write (process killed mid-checkpoint) leaves a prefix of
    /// the document on disk. Decoding it at any cut point must be a
    /// typed error — never a panic — so a restart can fall back to the
    /// previous good snapshot (the serve layer's restore path does
    /// exactly that).
    #[test]
    fn torn_checkpoints_are_typed_errors() {
        let snap = sample_snapshot();
        let full = snapshot_to_json(&snap);
        let n = full.len();
        // Cut at the empty document, inside the header, at several
        // interior offsets, and just short of the closing brace.
        for cut in [0, 1, 8, n / 8, n / 4, n / 2, 3 * n / 4, n - 1] {
            match snapshot_from_json(&full[..cut]) {
                Err(DbpError::Trace { .. }) => {}
                Err(e) => panic!("cut at {cut}/{n}: expected Trace error, got {e}"),
                Ok(_) => panic!("cut at {cut}/{n}: truncated checkpoint decoded successfully"),
            }
        }
        assert_eq!(snapshot_from_json(&full).unwrap(), snap);
    }

    #[test]
    fn version_survives_even_if_unsupported() {
        // The decoder preserves the version; restore() is what refuses
        // unknown versions, so forward-compatible tooling can still
        // inspect newer checkpoints.
        let snap = sample_snapshot();
        let text = snapshot_to_json(&snap).replace("\"version\":2", "\"version\":999");
        let decoded = snapshot_from_json(&text).unwrap();
        assert_eq!(decoded.version, 999);
        let mut packer = dbp_algos::online::ClassifyByDepartureTime::new(8);
        let err = StreamingSession::restore(ClairvoyanceMode::Clairvoyant, &mut packer, &decoded)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, DbpError::InvalidParameter { .. }), "{err}");
    }
}
