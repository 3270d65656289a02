//! JSON regression fixtures: shrunk counterexamples persisted to disk and
//! replayed by tests forever after.
//!
//! The format is one flat object (see `docs/auditing.md`):
//!
//! ```json
//! {
//!   "version": 1,
//!   "name": "overfull-first-fit",
//!   "algo": "first-fit",
//!   "check": "capacity",
//!   "seed": 0,
//!   "case": 17,
//!   "note": "how this fixture came to be",
//!   "items": [
//!     {"id": 0, "size_raw": 11744051, "arrival": 0, "departure": 10}
//!   ]
//! }
//! ```
//!
//! A vector fixture adds `"kind": "vector"` after the version and gives
//! each item per-axis `"axes_raw": [..]` in place of `size_raw`.
//!
//! Sizes are stored as **raw** [`Size`] units (`u64`, `SCALE` = 1.0) and
//! parsed with `dbp-obs`'s literal-text JSON numbers, so they round-trip
//! exactly — a fixture replays the bit-identical instance that failed.

use dbp_core::{DbpError, Demand, Instance, Item, Size};
use dbp_obs::json::{self, FieldValue, Json};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One item of a fixture instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixtureItem {
    /// Item id.
    pub id: u32,
    /// Raw size units per axis (`Size::SCALE` = full bin): exactly one
    /// in a scalar fixture.
    pub raw: Vec<u64>,
    /// Arrival tick.
    pub arrival: i64,
    /// Departure tick.
    pub departure: i64,
}

/// A persisted counterexample: the shrunk instance plus enough metadata
/// to know what it once broke and how to regenerate it.
#[derive(Clone, Debug, PartialEq)]
pub struct Fixture {
    /// Short kebab-case name (also the file stem).
    pub name: String,
    /// The algorithm that failed (roster name, or a description for
    /// injected packers).
    pub algo: String,
    /// The violated check's stable id ([`crate::invariants::CheckId`]).
    pub check: String,
    /// The fuzzer seed that produced the original failure.
    pub seed: u64,
    /// The case index under that seed.
    pub case: u64,
    /// Free-form provenance note.
    pub note: String,
    /// Whether the items carry vector demands.
    pub vector: bool,
    /// The shrunk instance's items.
    pub items: Vec<FixtureItem>,
}

impl Fixture {
    /// Builds a fixture from a scalar or vector instance plus metadata.
    pub fn from_instance<D: Demand>(
        name: impl Into<String>,
        algo: impl Into<String>,
        check: impl Into<String>,
        seed: u64,
        case: u64,
        note: impl Into<String>,
        inst: &Instance<D>,
    ) -> Fixture {
        Fixture {
            name: name.into(),
            algo: algo.into(),
            check: check.into(),
            seed,
            case,
            note: note.into(),
            vector: D::VECTOR,
            items: inst
                .items()
                .iter()
                .map(|r| FixtureItem {
                    id: r.id().0,
                    raw: r.size().axes().iter().map(|s| s.raw()).collect(),
                    arrival: r.arrival(),
                    departure: r.departure(),
                })
                .collect(),
        }
    }

    /// Reconstructs the instance; `D` must match the fixture's kind.
    pub fn instance<D: Demand>(&self) -> Result<Instance<D>, DbpError> {
        if self.vector != D::VECTOR {
            return Err(DbpError::InvalidParameter {
                what: format!(
                    "fixture {} holds {} demands",
                    self.name,
                    if self.vector { "vector" } else { "scalar" }
                ),
            });
        }
        let items = self
            .items
            .iter()
            .map(|fi| {
                let axes: Vec<Size> = fi.raw.iter().map(|&r| Size::from_raw(r)).collect();
                Item::try_new(fi.id, D::from_axes(&axes)?, fi.arrival, fi.departure)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Instance::from_items(items)
    }

    /// Serializes to the on-disk JSON form.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"version\": 1,");
        if self.vector {
            let _ = writeln!(s, "  \"kind\": \"vector\",");
        }
        let _ = writeln!(s, "  \"name\": \"{}\",", json::escape(&self.name));
        let _ = writeln!(s, "  \"algo\": \"{}\",", json::escape(&self.algo));
        let _ = writeln!(s, "  \"check\": \"{}\",", json::escape(&self.check));
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"case\": {},", self.case);
        let _ = writeln!(s, "  \"note\": \"{}\",", json::escape(&self.note));
        let _ = writeln!(s, "  \"items\": [");
        for (i, it) in self.items.iter().enumerate() {
            let comma = if i + 1 < self.items.len() { "," } else { "" };
            let raw = it
                .raw
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            let demand = if self.vector {
                format!("\"axes_raw\": [{raw}]")
            } else {
                format!("\"size_raw\": {raw}")
            };
            let _ = writeln!(
                s,
                "    {{\"id\": {}, {demand}, \"arrival\": {}, \"departure\": {}}}{comma}",
                it.id, it.arrival, it.departure
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = write!(s, "}}");
        s
    }

    /// Parses the on-disk JSON form.
    pub fn parse(text: &str) -> Result<Fixture, String> {
        let v = json::parse(text)?;
        let version: u64 = v.field("version")?;
        if version != 1 {
            return Err(format!("unsupported fixture version {version}"));
        }
        let vector = match v.get("kind") {
            None => false,
            Some(kind) if kind.as_str() == Some("vector") => true,
            Some(kind) => return Err(format!("unknown fixture kind {kind:?}")),
        };
        let mut items = Vec::new();
        for (i, it) in v.field::<&[Json]>("items")?.iter().enumerate() {
            let read = || -> Result<FixtureItem, String> {
                let raw = if vector {
                    it.field::<&[Json]>("axes_raw")?
                        .iter()
                        .map(|a| u64::read(a).map_err(|what| format!("axis {what}")))
                        .collect::<Result<_, _>>()?
                } else {
                    vec![it.field("size_raw")?]
                };
                Ok(FixtureItem {
                    id: it.field("id")?,
                    raw,
                    arrival: it.field("arrival")?,
                    departure: it.field("departure")?,
                })
            };
            items.push(read().map_err(|what| format!("item {i}: {what}"))?);
        }
        Ok(Fixture {
            name: v.field("name")?,
            algo: v.field("algo")?,
            check: v.field("check")?,
            seed: v.field("seed")?,
            case: v.field("case")?,
            note: v.field("note").unwrap_or_default(),
            vector,
            items,
        })
    }

    /// Writes the fixture to `dir/<name>.json`, creating `dir` if needed.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Loads every `*.json` fixture in a directory, sorted by file name so
/// test output is stable. A missing directory is an empty set, not an
/// error (a fresh checkout has no generated fixtures beyond the committed
/// ones).
pub fn load_dir(dir: &Path) -> Result<Vec<(String, Fixture)>, String> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(out),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let fixture = Fixture::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path.display().to_string(), fixture));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::{Instance, SizeVec};

    fn sample() -> Fixture {
        Fixture {
            name: "sample".into(),
            algo: "first-fit".into(),
            check: "capacity".into(),
            seed: 7,
            case: 42,
            note: "hand-written \"sample\"".into(),
            vector: false,
            items: vec![
                FixtureItem {
                    id: 0,
                    raw: vec![Size::SCALE],
                    arrival: 0,
                    departure: 10,
                },
                FixtureItem {
                    id: 1,
                    raw: vec![11_744_051], // an awkward raw value, exact
                    arrival: 3,
                    departure: 12,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let f = sample();
        let parsed = Fixture::parse(&f.to_json()).unwrap();
        assert_eq!(parsed, f);
        let inst: Instance = parsed.instance().unwrap();
        assert_eq!(inst.items()[1].size().raw(), 11_744_051);
        // A fixture replays only as its own kind.
        assert!(parsed.instance::<SizeVec>().is_err());
    }

    /// An id past `u32::MAX` is refused, as the trace reader refuses it,
    /// rather than replayed as a truncated id (4294967296 as item 0).
    #[test]
    fn an_item_id_past_u32_is_refused() {
        let text = sample().to_json();
        let at = "{\"id\": 1,";
        assert!(text.contains(at));
        let err = Fixture::parse(&text.replacen(at, "{\"id\": 4294967296,", 1)).unwrap_err();
        assert!(
            err.contains("item 1") && err.contains("exceeds u32"),
            "{err}"
        );
        let max = text.replacen(at, &format!("{{\"id\": {},", u32::MAX), 1);
        assert_eq!(Fixture::parse(&max).unwrap().items[1].id, u32::MAX);
    }

    #[test]
    fn write_and_load_dir() {
        let dir = std::env::temp_dir().join(format!("dbp-audit-fixture-{}", std::process::id()));
        let f = sample();
        let path = f.write_to(&dir).unwrap();
        assert!(path.ends_with("sample.json"));
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1, f);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(load_dir(&dir).unwrap().is_empty(), "missing dir is empty");
    }
}
