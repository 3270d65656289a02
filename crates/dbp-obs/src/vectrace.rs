//! JSONL line schema for vector runs: one [`PackEvent<SizeVec>`] per
//! line.
//!
//! The scalar schema ([`crate::trace`]) stays untouched; vector events
//! get their own line types (`vec_item_arrived`, `vec_level_changed`, …)
//! with demand and level vectors written as per-axis **raw** fixed-point
//! arrays (`axes_raw`, `level_raw`), never floats — a parsed trace
//! carries the bit-identical vectors the run produced. Events without a
//! demand share the scalar lines under the `vec_` prefix. The writer is
//! the generic [`crate::TraceWriter`]; this module supplies the lines.
//!
//! The schema records what the packer saw: `vec_item_arrived` carries
//! the *visible* departure (`null` when blind) and
//! `vec_placement_decided` the probe count but not the decide time. A
//! decoded arrival therefore reports the visible departure as its
//! departure (the arrival time when hidden), so clairvoyant traces
//! round-trip exactly.

use crate::json::{escape, FieldValue, Json};
use crate::trace::{demand_free_from_json, demand_free_json, opt_json, parse_lines, LineSchema};
use dbp_core::observe::{FitDecision, PackEvent};
use dbp_core::{BinId, DbpError, ItemId, Size, SizeVec};

fn axes_json(v: &SizeVec) -> String {
    let axes = v
        .axes()
        .iter()
        .map(|s| s.raw().to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!("[{axes}]")
}

/// Encodes one vector event as a single JSON line (no trailing newline).
pub fn event_to_json(ev: &PackEvent<SizeVec>) -> String {
    match ev {
        PackEvent::ItemArrived {
            id,
            size,
            at,
            visible_departure,
            ..
        } => format!(
            "{{\"type\":\"vec_item_arrived\",\"id\":{},\"axes_raw\":{},\"at\":{at},\
             \"departure\":{}}}",
            id.0,
            axes_json(size),
            opt_json(*visible_departure)
        ),
        PackEvent::PlacementDecided {
            id,
            bin,
            fit_rule,
            candidates_scanned,
            ..
        } => format!(
            "{{\"type\":\"vec_placement_decided\",\"id\":{},\"bin\":{},\"opened\":{},\
             \"scanned\":{candidates_scanned}}}",
            id.0,
            bin.0,
            *fit_rule == FitDecision::OpenedNew
        ),
        PackEvent::LevelChanged {
            bin,
            at,
            level,
            open_bins,
        } => format!(
            "{{\"type\":\"vec_level_changed\",\"bin\":{},\"at\":{at},\"level_raw\":{},\
             \"open_bins\":{open_bins}}}",
            bin.0,
            axes_json(level)
        ),
        other => demand_free_json("vec_", other),
    }
}

impl LineSchema for SizeVec {
    fn to_line(ev: &PackEvent<SizeVec>) -> String {
        event_to_json(ev)
    }
}

fn field_vec(v: &Json, key: &str) -> Result<SizeVec, String> {
    let axes = v
        .field::<&[Json]>(key)?
        .iter()
        .map(|a| {
            u64::read(a)
                .map(Size::from_raw)
                .map_err(|what| format!("field {key:?} holds an axis that {what}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    SizeVec::try_new(&axes).map_err(|e| format!("field {key:?}: {e}"))
}

/// Decodes one vector event from a parsed JSON object.
pub fn event_from_json(v: &Json) -> Result<PackEvent<SizeVec>, String> {
    let ty: &str = v.field("type")?;
    let Some(ty) = ty.strip_prefix("vec_") else {
        return Err(format!("unknown event type {}", escape(ty)));
    };
    match ty {
        "item_arrived" => {
            let at = v.field("at")?;
            let visible_departure: Option<i64> = v.field("departure")?;
            Ok(PackEvent::ItemArrived {
                id: ItemId(v.field("id")?),
                size: field_vec(v, "axes_raw")?,
                at,
                departure: visible_departure.unwrap_or(at),
                visible_departure,
            })
        }
        "placement_decided" => {
            let fit_rule = if v.field("opened")? {
                FitDecision::OpenedNew
            } else {
                FitDecision::Reused
            };
            Ok(PackEvent::PlacementDecided {
                id: ItemId(v.field("id")?),
                bin: BinId(v.field("bin")?),
                fit_rule,
                candidates_scanned: v.field("scanned")?,
            })
        }
        "level_changed" => Ok(PackEvent::LevelChanged {
            bin: BinId(v.field("bin")?),
            at: v.field("at")?,
            level: field_vec(v, "level_raw")?,
            open_bins: v.field("open_bins")?,
        }),
        other => demand_free_from_json(other, v)
            .unwrap_or_else(|| Err(format!("unknown event type vec_{}", escape(other)))),
    }
}

/// Parses a whole vector JSONL trace. Blank lines are skipped; errors
/// carry the 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<PackEvent<SizeVec>>, DbpError> {
    parse_lines(text, event_from_json)
}

/// Serializes a slice of vector events as a JSONL document.
pub fn events_to_jsonl(events: &[PackEvent<SizeVec>]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_to_json(ev));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::TraceWriter;
    use dbp_algos::online::AnyFit;
    use dbp_core::{EventLog, VecClairvoyance, VecInstance, VecItem, VecStreamingSession};

    fn samples() -> Vec<PackEvent<SizeVec>> {
        vec![
            PackEvent::ItemArrived {
                id: ItemId(7),
                size: SizeVec::from_f64s(&[0.3, 0.6]),
                at: 5,
                departure: 40,
                visible_departure: Some(40),
            },
            PackEvent::ItemArrived {
                id: ItemId(8),
                size: SizeVec::new(&[Size::from_raw(1), Size::from_raw(3)]),
                at: 5,
                departure: 5,
                visible_departure: None,
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
            PackEvent::LevelChanged {
                bin: BinId(2),
                at: 5,
                level: SizeVec::from_f64s(&[0.3, 0.6]),
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
            assert!(line.starts_with("{\"type\":\"vec_"), "{line}");
            let back = event_from_json(&parse(&line).unwrap()).unwrap();
            assert_eq!(back, ev, "round-trip failed for {line}");
        }
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
        let err =
            parse_jsonl("{\"type\":\"vec_bin_opened\",\"bin\":0,\"at\":0,\"tag\":0}\nnot json\n")
                .unwrap_err();
        assert!(matches!(err, DbpError::Trace { line: 2, .. }), "{err:?}");
        let err = parse_jsonl("{\"type\":\"mystery\"}\n").unwrap_err();
        assert!(matches!(err, DbpError::Trace { line: 1, .. }), "{err:?}");
        // A scalar line is not a vector line.
        let err =
            parse_jsonl("{\"type\":\"bin_opened\",\"bin\":0,\"at\":0,\"tag\":0}\n").unwrap_err();
        assert!(matches!(err, DbpError::Trace { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn out_of_range_ids_and_bins_are_refused() {
        for line in [
            "{\"type\":\"vec_item_arrived\",\"id\":4294967296,\"axes_raw\":[1,1],\"at\":0,\"departure\":null}",
            "{\"type\":\"vec_placement_decided\",\"id\":0,\"bin\":4294967296,\"opened\":true,\"scanned\":0}",
            "{\"type\":\"vec_bin_opened\",\"bin\":4294967296,\"at\":0,\"tag\":0}",
        ] {
            let err = parse_jsonl(line).unwrap_err();
            assert!(
                matches!(&err, DbpError::Trace { line: 1, what } if what.contains("exceeds u32")),
                "{line}: {err:?}"
            );
        }
    }

    /// A real engine run streams through the writer and parses back to
    /// the exact event sequence an in-memory log records.
    #[test]
    fn live_run_traces_losslessly() {
        let items = vec![
            VecItem::new(0, SizeVec::from_f64s(&[0.6, 0.2]), 0, 12),
            VecItem::new(1, SizeVec::from_f64s(&[0.5, 0.5]), 1, 9),
            VecItem::new(2, SizeVec::from_f64s(&[0.3, 0.7]), 2, 7),
            VecItem::new(3, SizeVec::from_f64s(&[0.1, 0.1]), 8, 20),
        ];
        let inst = VecInstance::from_items(items).unwrap();
        let mode = VecClairvoyance::Clairvoyant;

        let mut log = EventLog::new();
        let run_logged =
            VecStreamingSession::run_observed(mode, &inst, &mut AnyFit::first_fit(), &mut log)
                .unwrap();

        let mut writer = TraceWriter::new(Vec::new());
        let run_traced =
            VecStreamingSession::run_observed(mode, &inst, &mut AnyFit::first_fit(), &mut writer)
                .unwrap();
        assert_eq!(run_logged, run_traced);
        assert_eq!(writer.lines_written(), log.events.len() as u64);

        let text = String::from_utf8(writer.finish().unwrap()).unwrap();
        assert_eq!(parse_jsonl(&text).unwrap(), log.events);
    }
}
