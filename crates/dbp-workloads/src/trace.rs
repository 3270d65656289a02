//! Plain-text trace format.
//!
//! One item per line: `id,size_raw,arrival,departure` with a `#`-comment
//! header. `size_raw` is the exact fixed-point value so round-trips are
//! lossless. The format is deliberately trivial — shareable, diffable, no
//! dependencies — so downstream users can export traces from their own
//! schedulers.

use dbp_core::{DbpError, Instance, Item, Size};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Serializes an instance to the trace text format.
pub fn to_string(inst: &Instance) -> String {
    let mut out = String::with_capacity(inst.len() * 32 + 64);
    out.push_str("# clairvoyant-dbp trace v1\n");
    out.push_str("# id,size_raw,arrival,departure\n");
    for r in inst.items() {
        writeln!(
            out,
            "{},{},{},{}",
            r.id().0,
            r.size().raw(),
            r.arrival(),
            r.departure()
        )
        .expect("string write");
    }
    out
}

/// Parses the trace text format.
pub fn from_str(text: &str) -> Result<Instance, DbpError> {
    let mut items = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(',');
        let mut field = |name: &str| {
            parts
                .next()
                .ok_or_else(|| DbpError::Trace {
                    line: lineno + 1,
                    what: format!("missing field {name}"),
                })
                .and_then(|s| {
                    s.trim().parse::<i64>().map_err(|e| DbpError::Trace {
                        line: lineno + 1,
                        what: format!("bad {name}: {e}"),
                    })
                })
        };
        let id = field("id")?;
        let size_raw = field("size_raw")?;
        let arrival = field("arrival")?;
        let departure = field("departure")?;
        if id < 0 || id > u32::MAX as i64 {
            return Err(DbpError::Trace {
                line: lineno + 1,
                what: format!("id {id} out of range"),
            });
        }
        if size_raw < 0 {
            return Err(DbpError::Trace {
                line: lineno + 1,
                what: "negative size".into(),
            });
        }
        items.push(Item::try_new(
            id as u32,
            Size::from_raw(size_raw as u64),
            arrival,
            departure,
        )?);
    }
    Instance::from_items(items)
}

/// Writes an instance to a file.
pub fn save(inst: &Instance, path: impl AsRef<Path>) -> std::io::Result<()> {
    fs::write(path, to_string(inst))
}

/// Reads an instance from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Instance, DbpError> {
    let text = fs::read_to_string(path.as_ref()).map_err(|e| DbpError::Trace {
        line: 0,
        what: format!("cannot read {}: {e}", path.as_ref().display()),
    })?;
    from_str(&text)
}

/// Restricts an instance to the items whose intervals intersect
/// `[from, to)`, clipping nothing (items keep their full intervals) —
/// the standard way to cut a daily window out of a longer trace for
/// replay. Ids are preserved.
pub fn window(inst: &Instance, from: dbp_core::Time, to: dbp_core::Time) -> Instance {
    let keep: Vec<Item> = inst
        .items()
        .iter()
        .filter(|r| r.arrival() < to && r.departure() > from)
        .copied()
        .collect();
    Instance::from_items(keep).expect("subset of a valid instance is valid")
}

/// Uniformly rescales all times by `num/den` (e.g. compress a day trace
/// into an hour for faster simulation). Durations are kept ≥ 1 tick.
pub fn scale_time(inst: &Instance, num: i64, den: i64) -> Instance {
    assert!(num >= 1 && den >= 1);
    let items = inst
        .items()
        .iter()
        .map(|r| {
            let a = r.arrival() * num / den;
            let d = (r.departure() * num / den).max(a + 1);
            Item::new(r.id().0, r.size(), a, d)
        })
        .collect();
    Instance::from_items(items).expect("rescaled items are valid")
}

/// Interleaves several traces into one, offsetting each by `gap` ticks
/// after the previous trace's last departure (sequential composition) and
/// reassigning ids. An offset or a shifted interval outside the `i64`
/// tick range is refused with [`DbpError::IntervalOverflow`].
pub fn concat_with_gap(parts: &[Instance], gap: i64) -> Result<Instance, DbpError> {
    assert!(gap >= 0);
    let mut shifted = Vec::new();
    // Where the previous part ended: its last departure, or its offset
    // if it was empty.
    let mut end: Option<i64> = None;
    for p in parts {
        let offset = match end {
            None => 0,
            Some(last) => last.checked_add(gap).ok_or(DbpError::IntervalOverflow {
                start: last,
                end: last.saturating_add(gap),
            })?,
        };
        let first = p.first_arrival().unwrap_or(0);
        let delta = offset
            .checked_sub(first)
            .ok_or(DbpError::IntervalOverflow {
                start: first,
                end: offset,
            })?;
        let part = p.shifted(delta)?;
        end = Some(part.last_departure().unwrap_or(offset));
        shifted.push(part);
    }
    Ok(Instance::concat(&shifted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::UniformWorkload;
    use crate::Workload;

    #[test]
    fn round_trip_is_lossless() {
        let inst = UniformWorkload::new(100).generate_seeded(3);
        let text = to_string(&inst);
        let back = from_str(&text).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# hi\n\n0,8388608,0,10\n# mid\n1,8388608,5,15\n";
        let inst = from_str(text).unwrap();
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "0,8388608,0,10\nbogus line\n";
        let err = from_str(text).unwrap_err();
        assert!(matches!(err, DbpError::Trace { line: 2, .. }));
    }

    #[test]
    fn invalid_item_rejected() {
        // departure before arrival
        let err = from_str("0,8388608,10,5\n").unwrap_err();
        assert!(matches!(err, DbpError::EmptyInterval { .. }));
        // zero size
        let err = from_str("0,0,0,5\n").unwrap_err();
        assert!(matches!(err, DbpError::InvalidSize { .. }));
    }

    #[test]
    fn window_selects_intersecting_items() {
        let inst = Instance::from_triples(&[(0.5, 0, 10), (0.5, 5, 25), (0.5, 30, 40)]);
        let w = window(&inst, 8, 30);
        assert_eq!(w.len(), 2); // first two intersect [8,30); third starts at 30
        let all = window(&inst, 0, 100);
        assert_eq!(all.len(), 3);
        let none = window(&inst, 41, 50);
        assert!(none.is_empty());
    }

    #[test]
    fn scale_time_halves_and_keeps_durations_positive() {
        let inst = Instance::from_triples(&[(0.5, 0, 1), (0.5, 10, 30)]);
        let s = scale_time(&inst, 1, 2);
        assert_eq!(s.items()[0].arrival(), 0);
        assert_eq!(s.items()[0].duration(), 1); // clamped from 0.5
        assert_eq!(s.items()[1].arrival(), 5);
        assert_eq!(s.items()[1].departure(), 15);
    }

    #[test]
    fn concat_with_gap_sequences_traces() {
        let a = Instance::from_triples(&[(0.5, 5, 15)]);
        let b = Instance::from_triples(&[(0.5, 100, 120)]);
        let c = concat_with_gap(&[a, b], 50).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.items()[0].arrival(), 0); // re-anchored
        assert_eq!(c.items()[1].arrival(), 10 + 50); // 0+10 dep, +50 gap
                                                     // Ids unique after concat.
        let ids: std::collections::HashSet<_> = c.items().iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn concat_with_gap_refuses_offsets_past_the_tick_range() {
        let a = Instance::from_triples(&[(0.5, 0, i64::MAX - 10)]);
        let b = Instance::from_triples(&[(0.5, 0, 20)]);
        // b would start at i64::MAX - 5 and end past i64::MAX.
        assert!(matches!(
            concat_with_gap(&[a.clone(), b.clone()], 5),
            Err(DbpError::IntervalOverflow { end: i64::MAX, .. })
        ));
        // The gap itself pushes the next offset past i64::MAX.
        assert!(matches!(
            concat_with_gap(&[a.clone(), b], i64::MAX),
            Err(DbpError::IntervalOverflow { .. })
        ));
        // Ending exactly at i64::MAX is fine.
        let edge = concat_with_gap(&[a, Instance::from_triples(&[(0.5, 0, 5)])], 5).unwrap();
        assert_eq!(edge.last_departure(), Some(i64::MAX));
        // Re-anchoring a part that starts at i64::MIN to offset 0 would
        // shift it by more than i64::MAX.
        let low = Instance::from_triples(&[(0.5, i64::MIN, i64::MIN + 1)]);
        assert_eq!(
            concat_with_gap(&[low], 0),
            Err(DbpError::IntervalOverflow {
                start: i64::MIN,
                end: 0
            })
        );
    }

    #[test]
    fn file_round_trip() {
        let inst = UniformWorkload::new(20).generate_seeded(9);
        let dir = std::env::temp_dir().join("dbp-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        save(&inst, &path).unwrap();
        assert_eq!(load(&path).unwrap(), inst);
    }
}
