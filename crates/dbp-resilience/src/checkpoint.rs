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
use dbp_obs::json::{escape, parse, FieldValue, Json};
use std::collections::HashMap;
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
    let _ = write!(out, ",\"closed_usage\":{}", snap.closed_usage);
    out.push_str(",\"open_bins\":[");
    for (i, b) in snap.open_bins.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"opened_at\":{},\"tag\":{},\"placed\":{},\"items\":[",
            b.id.0, b.opened_at, b.tag, b.placed
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

/// Decodes a checkpoint document produced by [`snapshot_to_json`], or a
/// version 1 document converted to version 2 (see the module docs).
pub fn snapshot_from_json(text: &str) -> Result<SessionSnapshot, DbpError> {
    decode(text).map_err(bad)
}

fn decode(text: &str) -> Result<SessionSnapshot, String> {
    let doc = parse(text)?;
    let format: &str = doc.field("format")?;
    if format != CHECKPOINT_FORMAT {
        return Err(format!(
            "not a checkpoint: format {format:?} (expected {CHECKPOINT_FORMAT:?})"
        ));
    }
    let version: u32 = doc.field("version")?;
    let v1 = version == 1;
    let packer = doc.field("packer")?;
    let packer_state = match doc.field::<&Json>("packer_state")? {
        Json::Obj(pairs) => {
            let mut fields = Vec::with_capacity(pairs.len());
            for (k, v) in pairs {
                let value =
                    i64::read(v).map_err(|what| format!("packer_state field {k:?} {what}"))?;
                fields.push((k.clone(), value));
            }
            PackerState::from_fields(fields)
        }
        _ => return Err("field \"packer_state\" is not an object".into()),
    };
    let next_bin = doc.field("next_bin")?;
    let mut open_bins = Vec::new();
    for b in doc.field::<&[Json]>("open_bins")? {
        let mut items = Vec::new();
        for a in b.field::<&[Json]>("items")? {
            items.push(ActiveItem {
                id: ItemId(a.field("id")?),
                size: Size::from_raw(a.field("size_raw")?),
                departure: a.field("departure")?,
            });
        }
        open_bins.push(BinSnapshot {
            id: BinId(b.field("id")?),
            opened_at: b.field("opened_at")?,
            tag: b.field("tag")?,
            placed: if v1 { 0 } else { b.field("placed")? },
            items,
        });
    }
    let closed_usage = if v1 {
        v1_history(&doc, next_bin, &mut open_bins)?
    } else {
        doc.field("closed_usage")?
    };
    let mut departures = Vec::new();
    for pair in doc.field::<&[Json]>("departures")? {
        match pair {
            Json::Arr(tv) if tv.len() == 2 => {
                let t = i64::read(&tv[0]).map_err(|what| format!("departure time {what}"))?;
                let id = u32::read(&tv[1]).map_err(|what| format!("departure id {what}"))?;
                departures.push((t, ItemId(id)));
            }
            _ => return Err("entry in \"departures\" is not a [time, id] pair".into()),
        }
    }
    Ok(SessionSnapshot {
        version: if v1 { SNAPSHOT_VERSION } else { version },
        packer,
        packer_state,
        open_bins,
        departures,
        next_bin,
        last_arrival: doc.field("last_arrival")?,
        closed_usage,
        watermark: 0,
        above: Vec::new(),
    })
}

/// Reduces a version 1 document's bin history to what version 2 keeps:
/// returns the usage of the records whose bin is not open, and sets each
/// open bin's `placed` to its record's item count.
fn v1_history(doc: &Json, next_bin: u32, open_bins: &mut [BinSnapshot]) -> Result<u128, String> {
    let records: &[Json] = doc.field("records")?;
    if records.len() != next_bin as usize {
        return Err(format!(
            "snapshot has {} bin records but next_bin is {next_bin}",
            records.len()
        ));
    }
    let open: HashMap<BinId, usize> = open_bins
        .iter()
        .enumerate()
        .map(|(k, b)| (b.id, k))
        .collect();
    let mut closed_usage = 0u128;
    for (i, r) in records.iter().enumerate() {
        let id: u32 = r.field("id")?;
        if id as usize != i {
            return Err(format!("bin record {i} carries id {id}"));
        }
        let items: &[Json] = r.field("items")?;
        if items.iter().any(|v| u32::read(v).is_err()) {
            return Err("record item id is not a u32".into());
        }
        let (opened_at, closed_at): (Time, Time) = (r.field("opened_at")?, r.field("closed_at")?);
        r.field::<u64>("tag")?;
        match open.get(&BinId(id)) {
            Some(&k) => open_bins[k].placed = items.len() as u64,
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
    }
    Ok(closed_usage)
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
