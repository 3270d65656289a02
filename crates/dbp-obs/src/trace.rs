//! JSONL trace format: one [`PackEvent`] per line.
//!
//! The encoding is lossless — [`dbp_core::Size`] values are written as
//! their raw fixed-point `u64` (`size_raw`, `level_raw`), never as
//! floats — so a parsed trace replays to the bit-identical packing (see
//! [`crate::replay`]). The schema is documented in
//! `docs/observability.md`.

use crate::json::{escape, parse, Json};
use dbp_core::observe::{FitDecision, PackEvent, PackObserver};
use dbp_core::{BinId, DbpError, ItemId, Size};
use std::io::Write;

/// Encodes one event as a single JSON line (no trailing newline).
pub fn event_to_json(ev: &PackEvent) -> String {
    match ev {
        PackEvent::ItemArrived {
            id,
            size,
            at,
            departure,
            visible_departure,
        } => format!(
            "{{\"type\":\"item_arrived\",\"id\":{},\"size_raw\":{},\"at\":{at},\
             \"departure\":{departure},\"visible_departure\":{}}}",
            id.0,
            size.raw(),
            opt_json(*visible_departure)
        ),
        PackEvent::PlacementDecided {
            id,
            bin,
            fit_rule,
            candidates_scanned,
        } => {
            let rule = match fit_rule {
                FitDecision::Reused => "reused",
                FitDecision::OpenedNew => "opened_new",
            };
            format!(
                "{{\"type\":\"placement_decided\",\"id\":{},\"bin\":{},\"fit_rule\":\"{rule}\",\
                 \"candidates_scanned\":{candidates_scanned}}}",
                id.0, bin.0
            )
        }
        PackEvent::LevelChanged {
            bin,
            at,
            level,
            open_bins,
        } => format!(
            "{{\"type\":\"level_changed\",\"bin\":{},\"at\":{at},\"level_raw\":{},\
             \"open_bins\":{open_bins}}}",
            bin.0,
            level.raw()
        ),
        other => demand_free_json("", other),
    }
}

/// `null` or the value, for optional integer fields.
pub(crate) fn opt_json(t: Option<i64>) -> String {
    t.map_or_else(|| "null".to_string(), |t| t.to_string())
}

/// Encodes an event that carries no demand (every variant but
/// `ItemArrived`, `PlacementDecided` and `LevelChanged`), with the line
/// type prefixed by `prefix`. The scalar and vector schemas share these
/// lines apart from the prefix.
///
/// # Panics
/// On a demand-carrying variant.
pub(crate) fn demand_free_json<D>(prefix: &str, ev: &PackEvent<D>) -> String {
    match ev {
        PackEvent::EstimateUsed {
            id,
            estimate,
            actual,
        } => format!(
            "{{\"type\":\"{prefix}estimate_used\",\"id\":{},\"estimate\":{estimate},\
             \"actual\":{actual}}}",
            id.0
        ),
        PackEvent::BinOpened { bin, at, tag } => format!(
            "{{\"type\":\"{prefix}bin_opened\",\"bin\":{},\"at\":{at},\"tag\":{tag}}}",
            bin.0
        ),
        PackEvent::BinClosed {
            bin,
            at,
            opened_at,
            items,
        } => format!(
            "{{\"type\":\"{prefix}bin_closed\",\"bin\":{},\"at\":{at},\"opened_at\":{opened_at},\
             \"items\":{items}}}",
            bin.0
        ),
        PackEvent::BinFailed {
            bin,
            at,
            opened_at,
            displaced,
            open_bins,
        } => format!(
            "{{\"type\":\"{prefix}bin_failed\",\"bin\":{},\"at\":{at},\"opened_at\":{opened_at},\
             \"displaced\":{displaced},\"open_bins\":{open_bins}}}",
            bin.0
        ),
        PackEvent::ArrivalShed { id, at, open_bins } => format!(
            "{{\"type\":\"{prefix}arrival_shed\",\"id\":{},\"at\":{at},\"open_bins\":{open_bins}}}",
            id.0
        ),
        PackEvent::ItemArrived { .. }
        | PackEvent::PlacementDecided { .. }
        | PackEvent::LevelChanged { .. } => {
            unreachable!("demand-carrying events have schema-specific lines")
        }
    }
}

/// Decodes a line type `ty` (prefix already stripped) that carries no
/// demand; `None` if `ty` is not one of them.
pub(crate) fn demand_free_from_json<D>(ty: &str, v: &Json) -> Option<Result<PackEvent<D>, String>> {
    let decode = || -> Result<PackEvent<D>, String> {
        Ok(match ty {
            "estimate_used" => PackEvent::EstimateUsed {
                id: ItemId(v.field("id")?),
                estimate: v.field("estimate")?,
                actual: v.field("actual")?,
            },
            "bin_opened" => PackEvent::BinOpened {
                bin: BinId(v.field("bin")?),
                at: v.field("at")?,
                tag: v.field("tag")?,
            },
            "bin_closed" => PackEvent::BinClosed {
                bin: BinId(v.field("bin")?),
                at: v.field("at")?,
                opened_at: v.field("opened_at")?,
                items: v.field("items")?,
            },
            "bin_failed" => PackEvent::BinFailed {
                bin: BinId(v.field("bin")?),
                at: v.field("at")?,
                opened_at: v.field("opened_at")?,
                displaced: v.field("displaced")?,
                open_bins: v.field("open_bins")?,
            },
            _ => PackEvent::ArrivalShed {
                id: ItemId(v.field("id")?),
                at: v.field("at")?,
                open_bins: v.field("open_bins")?,
            },
        })
    };
    matches!(
        ty,
        "estimate_used" | "bin_opened" | "bin_closed" | "bin_failed" | "arrival_shed"
    )
    .then(decode)
}

/// Decodes one event from a parsed JSON object.
pub fn event_from_json(v: &Json) -> Result<PackEvent, String> {
    match v.field("type")? {
        "item_arrived" => Ok(PackEvent::ItemArrived {
            id: ItemId(v.field("id")?),
            size: Size::from_raw(v.field("size_raw")?),
            at: v.field("at")?,
            departure: v.field("departure")?,
            visible_departure: v.field("visible_departure")?,
        }),
        "placement_decided" => {
            let rule = match v.field("fit_rule")? {
                "reused" => FitDecision::Reused,
                "opened_new" => FitDecision::OpenedNew,
                other => return Err(format!("bad fit_rule {other:?}")),
            };
            Ok(PackEvent::PlacementDecided {
                id: ItemId(v.field("id")?),
                bin: BinId(v.field("bin")?),
                fit_rule: rule,
                candidates_scanned: v.field("candidates_scanned")?,
            })
        }
        "level_changed" => Ok(PackEvent::LevelChanged {
            bin: BinId(v.field("bin")?),
            at: v.field("at")?,
            level: Size::from_raw(v.field("level_raw")?),
            open_bins: v.field("open_bins")?,
        }),
        other => demand_free_from_json(other, v)
            .unwrap_or_else(|| Err(format!("unknown event type {}", escape(other)))),
    }
}

/// Parses JSONL with `decode` per non-blank line; errors carry the
/// 1-based line number.
pub(crate) fn parse_lines<E>(
    text: &str,
    mut decode: impl FnMut(&Json) -> Result<E, String>,
) -> Result<Vec<E>, DbpError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = parse(line).map_err(|what| DbpError::Trace { line: i + 1, what })?;
        events.push(decode(&value).map_err(|what| DbpError::Trace { line: i + 1, what })?);
    }
    Ok(events)
}

/// Parses a whole JSONL trace. Blank lines are skipped; errors carry the
/// 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<PackEvent>, DbpError> {
    parse_lines(text, event_from_json)
}

/// Serializes a slice of events as a JSONL document.
pub fn events_to_jsonl(events: &[PackEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_to_json(ev));
        out.push('\n');
    }
    out
}

/// Encodes one event as a JSON line with a leading `"shard"` field, for
/// traces merged across a `dbp-shard` fleet. The tag is additive: the
/// untagged readers ([`event_from_json`], [`parse_jsonl`]) look fields up
/// by key and simply ignore it, so a tagged trace still replays.
pub fn event_to_json_tagged(shard: usize, ev: &PackEvent) -> String {
    let base = event_to_json(ev);
    debug_assert!(base.starts_with('{'));
    format!("{{\"shard\":{shard},{}", &base[1..])
}

/// Serializes one shard's events as shard-tagged JSONL (see
/// [`event_to_json_tagged`]).
pub fn events_to_jsonl_tagged(shard: usize, events: &[PackEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_to_json_tagged(shard, ev));
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace keeping each line's `"shard"` tag (`None` for
/// untagged lines). Blank lines are skipped; errors carry the 1-based
/// line number.
pub fn parse_jsonl_tagged(text: &str) -> Result<Vec<(Option<usize>, PackEvent)>, DbpError> {
    parse_lines(text, |value| {
        let shard = value.field("shard").ok();
        Ok((shard, event_from_json(value)?))
    })
}

/// A demand type with a JSONL line schema: [`Size`] writes this
/// module's lines, [`dbp_core::SizeVec`] the `vec_*` lines of
/// [`crate::vectrace`].
pub trait LineSchema: Sized {
    /// Encodes one event as a single JSON line (no trailing newline).
    fn to_line(ev: &PackEvent<Self>) -> String;
}

impl LineSchema for Size {
    fn to_line(ev: &PackEvent) -> String {
        event_to_json(ev)
    }
}

/// A [`PackObserver`] that streams events to a writer as JSONL, in the
/// line schema of the session's demand type ([`LineSchema`]).
///
/// `on_event` must not panic, so I/O errors are latched: the first error
/// stops further writing and is surfaced by [`TraceWriter::finish`] (or
/// inspectable via [`TraceWriter::error`]).
pub struct TraceWriter<W: Write> {
    sink: W,
    lines: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps a writer. Consider a `BufWriter` for file sinks: one write
    /// per event otherwise.
    pub fn new(sink: W) -> Self {
        TraceWriter {
            sink,
            lines: 0,
            error: None,
        }
    }

    /// Number of event lines successfully written.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// The latched I/O error, if any write failed.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the inner writer, surfacing any latched error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

impl<W: Write, D: LineSchema> PackObserver<D> for TraceWriter<W> {
    fn on_event(&mut self, event: &PackEvent<D>) {
        if self.error.is_some() {
            return;
        }
        let mut line = D::to_line(event);
        line.push('\n');
        match self.sink.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<PackEvent> {
        vec![
            PackEvent::ItemArrived {
                id: ItemId(7),
                size: Size::from_f64(0.3),
                at: 5,
                departure: 40,
                visible_departure: Some(38),
            },
            PackEvent::ItemArrived {
                id: ItemId(8),
                size: Size::from_raw(1),
                at: 5,
                departure: 9,
                visible_departure: None,
            },
            PackEvent::EstimateUsed {
                id: ItemId(7),
                estimate: 38,
                actual: 40,
            },
            PackEvent::BinOpened {
                bin: BinId(2),
                at: 5,
                tag: 9,
            },
            PackEvent::PlacementDecided {
                id: ItemId(7),
                bin: BinId(2),
                fit_rule: FitDecision::OpenedNew,
                candidates_scanned: 2,
            },
            PackEvent::PlacementDecided {
                id: ItemId(8),
                bin: BinId(2),
                fit_rule: FitDecision::Reused,
                candidates_scanned: 1,
            },
            PackEvent::LevelChanged {
                bin: BinId(2),
                at: 5,
                level: Size::from_f64(0.3),
                open_bins: 3,
            },
            PackEvent::BinClosed {
                bin: BinId(2),
                at: 40,
                opened_at: 5,
                items: 2,
            },
            PackEvent::BinFailed {
                bin: BinId(3),
                at: 17,
                opened_at: 6,
                displaced: 2,
                open_bins: 1,
            },
            PackEvent::ArrivalShed {
                id: ItemId(9),
                at: 18,
                open_bins: 4,
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for ev in samples() {
            let line = event_to_json(&ev);
            let back = event_from_json(&parse(&line).unwrap()).unwrap();
            assert_eq!(back, ev, "round-trip failed for {line}");
        }
    }

    /// Older traces wrote each placement's wall-clock `decide_ns`; the
    /// reader ignores the key, so those lines still decode.
    #[test]
    fn placement_lines_with_decide_ns_still_parse() {
        let line = "{\"type\":\"placement_decided\",\"id\":7,\"bin\":2,\
                    \"fit_rule\":\"opened_new\",\"candidates_scanned\":2,\"decide_ns\":1234}";
        let ev = event_from_json(&parse(line).unwrap()).unwrap();
        assert_eq!(ev, samples()[4]);
        assert!(!event_to_json(&ev).contains("decide_ns"));
    }

    #[test]
    fn jsonl_round_trips_with_blank_lines() {
        let events = samples();
        let mut text = events_to_jsonl(&events);
        text.insert_str(0, "\n\n");
        assert_eq!(parse_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_jsonl("{\"type\":\"bin_opened\",\"bin\":0,\"at\":0,\"tag\":0}\nnot json\n")
            .unwrap_err();
        assert!(matches!(err, DbpError::Trace { line: 2, .. }), "{err:?}");
        let err = parse_jsonl("{\"type\":\"mystery\"}\n").unwrap_err();
        assert!(matches!(err, DbpError::Trace { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn out_of_range_ids_and_bins_are_refused() {
        // 2^32 must not wrap to item or bin 0.
        for line in [
            "{\"type\":\"item_arrived\",\"id\":4294967296,\"size_raw\":1,\"at\":0,\
             \"departure\":1,\"visible_departure\":null}",
            "{\"type\":\"level_changed\",\"bin\":4294967296,\"at\":0,\"level_raw\":1,\
             \"open_bins\":1}",
            "{\"type\":\"bin_closed\",\"bin\":4294967296,\"at\":1,\"opened_at\":0,\"items\":1}",
            "{\"type\":\"arrival_shed\",\"id\":4294967296,\"at\":0,\"open_bins\":1}",
        ] {
            let err = parse_jsonl(line).unwrap_err();
            assert!(
                matches!(&err, DbpError::Trace { line: 1, what } if what.contains("exceeds u32")),
                "{line}: {err:?}"
            );
        }
        // The largest id still decodes.
        let max = "{\"type\":\"arrival_shed\",\"id\":4294967295,\"at\":0,\"open_bins\":1}";
        assert!(matches!(
            parse_jsonl(max).unwrap()[..],
            [PackEvent::ArrivalShed {
                id: ItemId(u32::MAX),
                ..
            }]
        ));
    }

    #[test]
    fn writer_streams_lines() {
        let mut w = TraceWriter::new(Vec::new());
        for ev in samples() {
            w.on_event(&ev);
        }
        assert_eq!(w.lines_written(), samples().len() as u64);
        let buf = w.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(parse_jsonl(&text).unwrap(), samples());
    }

    #[test]
    fn writer_latches_io_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = TraceWriter::new(Broken);
        w.on_event(&samples()[0]);
        w.on_event(&samples()[1]); // must not panic
        assert_eq!(w.lines_written(), 0);
        assert!(w.error().is_some());
        assert!(w.finish().is_err());
    }
}
