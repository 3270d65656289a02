//! Versioned JSON checkpoints of a streaming session.
//!
//! [`snapshot_to_json`] encodes a [`SessionSnapshot`] as a single JSON
//! document; [`snapshot_from_json`] decodes it, validating structure and
//! refusing unknown format names or versions up front (the snapshot's
//! own version is checked again, against the running build, by
//! [`dbp_core::StreamingSession::restore`]). All integers are written as
//! their exact decimal text — raw [`Size`] values are `u64` and must not
//! pass through `f64` — so encode → decode → encode is byte-identical.
//!
//! The document layout (one object, field order fixed):
//!
//! ```json
//! {"format":"dbp-checkpoint","version":1,"packer":"ff",
//!  "packer_state":{"epoch":5},
//!  "next_bin":3,"last_arrival":7,"watermark":0,"above":[],
//!  "open_bins":[{"id":0,"opened_at":0,"tag":0,
//!                "items":[{"id":1,"size_raw":8388608,"departure":9}]}],
//!  "records":[{"id":0,"opened_at":0,"closed_at":7,"tag":0,"items":[1]}],
//!  "departures":[[9,1]]}
//! ```
//!
//! `last_arrival` and per-item `departure` use `null` for "absent".
//! Version 1 keeps `watermark` and `above`; sessions ignore them.

use dbp_core::online::{BinRecord, PackerState};
use dbp_core::stream::{BinSnapshot, SessionSnapshot};
use dbp_core::{ActiveItem, BinId, DbpError, ItemId, Size, Time};
use dbp_obs::json::{escape, parse, Json};
use std::fmt::Write as _;
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
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"format\":\"{CHECKPOINT_FORMAT}\",\"version\":{},\"packer\":\"{}\"",
        snap.version,
        escape(&snap.packer)
    );
    out.push_str(",\"packer_state\":{");
    for (i, (k, v)) in snap.packer_state.fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", escape(k));
    }
    out.push('}');
    let _ = write!(out, ",\"next_bin\":{}", snap.next_bin);
    match snap.last_arrival {
        Some(t) => {
            let _ = write!(out, ",\"last_arrival\":{t}");
        }
        None => out.push_str(",\"last_arrival\":null"),
    }
    let _ = write!(out, ",\"watermark\":{}", snap.watermark);
    out.push_str(",\"above\":[");
    for (i, id) in snap.above.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push_str("],\"open_bins\":[");
    for (i, b) in snap.open_bins.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"opened_at\":{},\"tag\":{},\"items\":[",
            b.id.0, b.opened_at, b.tag
        );
        for (j, a) in b.items.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{},\"size_raw\":{}", a.id.0, a.size.raw());
            match a.departure {
                Some(d) => {
                    let _ = write!(out, ",\"departure\":{d}}}");
                }
                None => out.push_str(",\"departure\":null}"),
            }
        }
        out.push_str("]}");
    }
    out.push_str("],\"records\":[");
    for (i, r) in snap.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"opened_at\":{},\"closed_at\":{},\"tag\":{},\"items\":[",
            r.id.0, r.opened_at, r.closed_at, r.tag
        );
        for (j, id) in r.items.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", id.0);
        }
        out.push_str("]}");
    }
    out.push_str("],\"departures\":[");
    for (i, (t, id)) in snap.departures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{t},{}]", id.0);
    }
    out.push_str("]}");
    out
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, DbpError> {
    v.get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, DbpError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| bad(format!("field {key:?} is not an unsigned integer")))
}

fn u32_field(v: &Json, key: &str) -> Result<u32, DbpError> {
    u64_field(v, key)?
        .try_into()
        .map_err(|_| bad(format!("field {key:?} overflows u32")))
}

fn time_field(v: &Json, key: &str) -> Result<Time, DbpError> {
    field(v, key)?
        .as_i64()
        .ok_or_else(|| bad(format!("field {key:?} is not an integer time")))
}

fn arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], DbpError> {
    match field(v, key)? {
        Json::Arr(items) => Ok(items),
        _ => Err(bad(format!("field {key:?} is not an array"))),
    }
}

/// Decodes a checkpoint document produced by [`snapshot_to_json`].
pub fn snapshot_from_json(text: &str) -> Result<SessionSnapshot, DbpError> {
    let doc = parse(text).map_err(bad)?;
    let format = field(&doc, "format")?
        .as_str()
        .ok_or_else(|| bad("field \"format\" is not a string"))?;
    if format != CHECKPOINT_FORMAT {
        return Err(bad(format!(
            "not a checkpoint: format {format:?} (expected {CHECKPOINT_FORMAT:?})"
        )));
    }
    let version = u32_field(&doc, "version")?;
    let packer = field(&doc, "packer")?
        .as_str()
        .ok_or_else(|| bad("field \"packer\" is not a string"))?
        .to_string();
    let packer_state = match field(&doc, "packer_state")? {
        Json::Obj(pairs) => {
            let mut fields = Vec::with_capacity(pairs.len());
            for (k, v) in pairs {
                let value = v
                    .as_i64()
                    .ok_or_else(|| bad(format!("packer_state field {k:?} is not an integer")))?;
                fields.push((k.clone(), value));
            }
            PackerState::from_fields(fields)
        }
        _ => return Err(bad("field \"packer_state\" is not an object")),
    };
    let next_bin = u32_field(&doc, "next_bin")?;
    let last_arrival = match field(&doc, "last_arrival")? {
        Json::Null => None,
        v => Some(
            v.as_i64()
                .ok_or_else(|| bad("field \"last_arrival\" is not an integer time"))?,
        ),
    };
    let watermark = u32_field(&doc, "watermark")?;
    let mut above = Vec::new();
    for v in arr(&doc, "above")? {
        let id = v
            .as_u64()
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| bad("entry in \"above\" is not a u32"))?;
        above.push(id);
    }
    let mut open_bins = Vec::new();
    for b in arr(&doc, "open_bins")? {
        let mut items = Vec::new();
        for a in arr(b, "items")? {
            let departure = match field(a, "departure")? {
                Json::Null => None,
                v => Some(
                    v.as_i64()
                        .ok_or_else(|| bad("item departure is not an integer time"))?,
                ),
            };
            items.push(ActiveItem {
                id: ItemId(u32_field(a, "id")?),
                size: Size::from_raw(u64_field(a, "size_raw")?),
                departure,
            });
        }
        open_bins.push(BinSnapshot {
            id: BinId(u32_field(b, "id")?),
            opened_at: time_field(b, "opened_at")?,
            tag: u64_field(b, "tag")?,
            items,
        });
    }
    let mut records = Vec::new();
    for r in arr(&doc, "records")? {
        let mut items = Vec::new();
        for v in arr(r, "items")? {
            let id = v
                .as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(|| bad("record item id is not a u32"))?;
            items.push(ItemId(id));
        }
        records.push(BinRecord {
            id: BinId(u32_field(r, "id")?),
            opened_at: time_field(r, "opened_at")?,
            closed_at: time_field(r, "closed_at")?,
            tag: u64_field(r, "tag")?,
            items,
        });
    }
    let mut departures = Vec::new();
    for pair in arr(&doc, "departures")? {
        match pair {
            Json::Arr(tv) if tv.len() == 2 => {
                let t = tv[0]
                    .as_i64()
                    .ok_or_else(|| bad("departure time is not an integer"))?;
                let id = tv[1]
                    .as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| bad("departure id is not a u32"))?;
                departures.push((t, ItemId(id)));
            }
            _ => return Err(bad("entry in \"departures\" is not a [time, id] pair")),
        }
    }
    Ok(SessionSnapshot {
        version,
        packer,
        packer_state,
        open_bins,
        records,
        departures,
        next_bin,
        last_arrival,
        watermark,
        above,
    })
}

/// Fsyncs a directory, making previously renamed entries durable. Every
/// rename-based commit needs this: the rename itself may sit in the
/// directory's page cache until the metadata is flushed.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    crate::failpoint::io_op("dir_fsync")?;
    std::fs::File::open(dir)?.sync_all()
}

/// Durably writes `bytes` to `path`: temp file in the same directory,
/// `sync_all`, rename over the canonical name, then parent-directory
/// fsync. A crash at any point leaves either the old content or the new
/// content under `path`, never a torn file. Every step runs through a
/// [`crate::failpoint`] hook so the torture harness can crash it.
pub fn durable_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = match path.file_name().and_then(|n| n.to_str()) {
        Some(name) => path.with_file_name(format!("{name}.tmp")),
        None => {
            return Err(std::io::Error::other(format!(
                "durable_write: {} has no file name",
                path.display()
            )))
        }
    };
    {
        crate::failpoint::io_op("ckpt_write")?;
        let mut f = std::fs::File::create(&tmp)?;
        use std::io::Write as _;
        f.write_all(bytes)?;
        crate::failpoint::io_op("ckpt_sync")?;
        f.sync_all()?;
    }
    crate::failpoint::io_op("ckpt_rename")?;
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fsync_dir(dir)?;
        }
    }
    Ok(())
}

/// Writes a checkpoint document to `path` (trailing newline included),
/// durably: temp file + `sync_all` + rename + parent-directory fsync.
pub fn write_checkpoint(path: &Path, snap: &SessionSnapshot) -> std::io::Result<()> {
    let mut text = snapshot_to_json(snap);
    text.push('\n');
    durable_write(path, text.as_bytes())
}

/// Reads a checkpoint document from `path`. I/O failures surface as
/// [`DbpError::Trace`] with the path in the message.
pub fn read_checkpoint(path: &Path) -> Result<SessionSnapshot, DbpError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| bad(format!("cannot read checkpoint {}: {e}", path.display())))?;
    snapshot_from_json(text.trim_end())
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
    fn file_round_trip() {
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join("dbp-resilience-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.ckpt.json");
        write_checkpoint(&path, &snap).unwrap();
        let back = read_checkpoint(&path).unwrap();
        assert_eq!(back, snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_format_and_garbage() {
        assert!(snapshot_from_json("{\"format\":\"other\"}").is_err());
        assert!(snapshot_from_json("not json").is_err());
        assert!(snapshot_from_json("{}").is_err());
        // Structurally valid JSON with a broken field type.
        let snap = sample_snapshot();
        let text = snapshot_to_json(&snap).replace("\"watermark\":", "\"watermark\":\"x\",\"w\":");
        assert!(snapshot_from_json(&text).is_err());
    }

    /// A torn write (process killed mid-checkpoint) leaves a prefix of
    /// the document on disk. Reading it back at any cut point must be a
    /// typed error — never a panic — so a restart can fall back to the
    /// previous good snapshot (the serve layer's restore path does
    /// exactly that).
    #[test]
    fn torn_checkpoint_files_are_typed_errors() {
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join("dbp-resilience-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.ckpt.json");
        write_checkpoint(&path, &snap).unwrap();
        let full = std::fs::read(&path).unwrap();
        let n = full.len();
        // Cut at the empty file, inside the header, at several interior
        // offsets, and just short of completion (losing the closing
        // brace and/or newline).
        for cut in [0, 1, 8, n / 8, n / 4, n / 2, 3 * n / 4, n - 2] {
            std::fs::write(&path, &full[..cut]).unwrap();
            match read_checkpoint(&path) {
                Err(DbpError::Trace { .. }) => {}
                Err(e) => panic!("cut at {cut}/{n}: expected Trace error, got {e}"),
                Ok(_) => panic!("cut at {cut}/{n}: truncated checkpoint decoded successfully"),
            }
        }
        // Losing only the trailing newline keeps the document complete.
        std::fs::write(&path, &full[..n - 1]).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), snap);
        // The untruncated file still reads back bit-identically.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_survives_even_if_unsupported() {
        // The decoder preserves the version; restore() is what refuses
        // unknown versions, so forward-compatible tooling can still
        // inspect newer checkpoints.
        let snap = sample_snapshot();
        let text = snapshot_to_json(&snap).replace("\"version\":1", "\"version\":999");
        let decoded = snapshot_from_json(&text).unwrap();
        assert_eq!(decoded.version, 999);
        let mut packer = dbp_algos::online::ClassifyByDepartureTime::new(8);
        let err = StreamingSession::restore(ClairvoyanceMode::Clairvoyant, &mut packer, &decoded)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, DbpError::InvalidParameter { .. }), "{err}");
    }
}
