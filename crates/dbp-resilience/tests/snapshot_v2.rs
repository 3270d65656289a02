//! Snapshot format version 2: live state only, a version 1 read path,
//! and typed refusals for crafted documents.
//!
//! - Version 1 documents (which carried every bin ever opened) decode to
//!   exactly the version 2 snapshot the same session writes today, for
//!   every roster packer at every prefix. The fixture holds documents the
//!   previous build wrote; the test-side version 1 writer reproduces them
//!   byte for byte, so the every-prefix sweep runs on real layouts.
//! - Crafted version 2 documents are refused with a typed error at decode
//!   or restore, never a panic (these tests run in debug builds, where
//!   integer overflow panics).
//! - Snapshot size follows the open bins: on a deep instance the
//!   full-stream snapshot is about as big as the quarter-stream one.
//! - `snapshot_from_json` reads fields as it scans them. On documents
//!   whose members are shuffled, repeated, retyped, dropped, added or
//!   spelled with escapes, and whose `version` comes last, it decides
//!   exactly as the DOM decoder it replaced, kept here as the reference.

use dbp_algos::registry::{clairvoyance_for, online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_bench::check::baseline_instance;
use dbp_bench::check::BenchInstance;
use dbp_core::online::{ActiveItem, BinRecord, PackerState};
use dbp_core::stream::{BinSnapshot, SNAPSHOT_VERSION};
use dbp_core::{
    BinId, ClairvoyanceMode, DbpError, Instance, Item, ItemId, RunRecorder, SessionSnapshot, Size,
    StreamingSession, Time,
};
use dbp_obs::json::{escape, parse, FieldValue, Json};
use dbp_resilience::{snapshot_from_json, snapshot_to_json};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// The workload of `differential.rs`, which the fixture was cut from.
fn workload() -> Instance {
    let mut triples = Vec::new();
    let mut state = 0x9E37_79B9u64;
    let mut t = 0i64;
    for i in 0..40 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let size = 0.05 + (state >> 33) as f64 / u32::MAX as f64 * 0.9;
        let dur = 3 + (state % 97) as i64;
        triples.push((size.min(0.95), t, t + dur));
        if i % 3 == 0 {
            t += (state % 5) as i64;
        }
    }
    Instance::from_triples(&triples)
}

fn arrivals(inst: &Instance) -> Vec<Item> {
    let mut items = inst.items().to_vec();
    items.sort_by_key(|i| (i.arrival(), i.id()));
    items
}

/// The version 1 layout: the version 2 fields minus `closed_usage` and
/// each open bin's `placed`, plus `watermark`, `above` and every bin's
/// record (a still-open bin's `closed_at` equal to its `opened_at`).
fn v1_document(snap: &SessionSnapshot, records: &[BinRecord]) -> String {
    let mut out = format!(
        "{{\"format\":\"dbp-checkpoint\",\"version\":1,\"packer\":\"{}\",\"packer_state\":{{",
        snap.packer
    );
    for (i, (k, v)) in snap.packer_state.fields().iter().enumerate() {
        let _ = write!(out, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
    }
    let clock = snap
        .last_arrival
        .map_or("null".to_string(), |t| t.to_string());
    let _ = write!(
        out,
        "}},\"next_bin\":{},\"last_arrival\":{clock},\"watermark\":0,\"above\":[],\"open_bins\":[",
        snap.next_bin
    );
    for (i, b) in snap.open_bins.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"id\":{},\"opened_at\":{},\"tag\":{},\"items\":[",
            if i > 0 { "," } else { "" },
            b.id.0,
            b.opened_at,
            b.tag
        );
        for (j, a) in b.items.iter().enumerate() {
            let dep = a.departure.map_or("null".to_string(), |d| d.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{},\"size_raw\":{},\"departure\":{dep}}}",
                if j > 0 { "," } else { "" },
                a.id.0,
                a.size.raw()
            );
        }
        out.push_str("]}");
    }
    out.push_str("],\"records\":[");
    for (i, r) in records.iter().enumerate() {
        let items: Vec<String> = r.items.iter().map(|id| id.0.to_string()).collect();
        let _ = write!(
            out,
            "{}{{\"id\":{},\"opened_at\":{},\"closed_at\":{},\"tag\":{},\"items\":[{}]}}",
            if i > 0 { "," } else { "" },
            r.id.0,
            r.opened_at,
            r.closed_at,
            r.tag,
            items.join(",")
        );
    }
    out.push_str("],\"departures\":[");
    for (i, (t, id)) in snap.departures.iter().enumerate() {
        let _ = write!(out, "{}[{t},{}]", if i > 0 { "," } else { "" }, id.0);
    }
    out.push_str("]}");
    out
}

/// `(algo, cut) -> document` written by the previous build.
fn fixture() -> HashMap<(String, usize), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/v1-roster-sessions.tsv");
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|line| {
            let mut cols = line.splitn(3, '\t');
            let algo = cols.next().unwrap().to_string();
            let cut = cols.next().unwrap().parse().unwrap();
            ((algo, cut), cols.next().unwrap().to_string())
        })
        .collect()
}

#[test]
fn version_1_documents_decode_to_the_snapshot_the_session_writes() {
    let inst = workload();
    let items = arrivals(&inst);
    let params = AlgoParams::from_instance(&inst);
    let written = fixture();
    assert_eq!(written.len(), ONLINE_ALGOS.len() * 3);
    let mut matched = 0;
    for algo in ONLINE_ALGOS {
        for cut in 0..=items.len() {
            let mut history = RunRecorder::new();
            let mut packer = online_packer(algo, params);
            let mut s =
                StreamingSession::with_observer(clairvoyance_for(algo), &mut *packer, &mut history);
            for item in &items[..cut] {
                s.arrive(item).unwrap();
            }
            let snap = s.snapshot();
            drop(s);
            let v1 = v1_document(&snap, &history.into_run().bins);
            if let Some(old) = written.get(&(algo.to_string(), cut)) {
                assert_eq!(&v1, old, "{algo} cut {cut}: the v1 writer drifted");
                matched += 1;
            }
            let decoded = snapshot_from_json(&v1).unwrap();
            assert_eq!(decoded, snap, "{algo} cut {cut}");
            assert_eq!(snapshot_to_json(&decoded), snapshot_to_json(&snap));
        }
    }
    assert_eq!(matched, written.len());
}

/// First fit's snapshot after three items: bin 0 (0.9) closed at 3, bin
/// 1 holds the other two (0.5 + 0.25), the clock is 4, so every field is
/// non-trivial.
fn sample() -> (SessionSnapshot, Vec<BinRecord>) {
    let inst = Instance::from_triples(&[(0.9, 0, 3), (0.5, 1, 20), (0.25, 4, 30)]);
    let mut history = RunRecorder::new();
    let mut packer = online_packer("first-fit", AlgoParams::from_instance(&inst));
    let mut s =
        StreamingSession::with_observer(ClairvoyanceMode::Clairvoyant, &mut *packer, &mut history);
    for item in inst.items() {
        s.arrive(item).unwrap();
    }
    let snap = s.snapshot();
    drop(s);
    assert_eq!(
        (snap.next_bin, snap.open_bins.len(), snap.closed_usage),
        (2, 1, 3)
    );
    (snap, history.into_run().bins)
}

#[test]
fn malformed_version_1_histories_are_refused() {
    let (snap, records) = sample();
    let good = v1_document(&snap, &records);
    assert_eq!(snapshot_from_json(&good).unwrap(), snap);
    let mut short = records.clone();
    short.pop();
    let mut misnumbered = records.clone();
    misnumbered.swap(0, 1);
    let mut backwards = records.clone();
    backwards[0].closed_at = backwards[0].opened_at - 1;
    for (what, doc) in [
        ("a record missing", v1_document(&snap, &short)),
        ("records out of order", v1_document(&snap, &misnumbered)),
        (
            "a record closing before it opens",
            v1_document(&snap, &backwards),
        ),
        (
            "a non-u32 record item",
            good.replacen("\"items\":[0]", "\"items\":[-1]", 1),
        ),
    ] {
        assert_ne!(doc, good, "{what}");
        match snapshot_from_json(&doc) {
            Err(DbpError::Trace { .. }) => {}
            other => panic!("{what}: {other:?}"),
        }
    }
}

/// Restores `snap`, packs one more item (half a bin, arriving at 5) and
/// finishes: what restore accepts must keep packing without a panic.
fn restore(snap: &SessionSnapshot) -> Result<(), DbpError> {
    let mut packer = online_packer("first-fit", AlgoParams { delta: 1, mu: 1.0 });
    let mut s = StreamingSession::restore(ClairvoyanceMode::Clairvoyant, &mut *packer, snap)?;
    s.arrive(&Item::new(3, Size::HALF, 5, 40))?;
    s.finish().map(|_| ())
}

#[test]
fn crafted_version_2_documents_get_typed_refusals() {
    let (snap, _) = sample();
    let text = snapshot_to_json(&snap);
    assert!(restore(&snapshot_from_json(&text).unwrap()).is_ok());

    // Codec-level refusals: closed_usage must be an unsigned integer.
    for crafted in [
        "-3",
        "1.5",
        "\"3\"",
        "null",
        "340282366920938463463374607431768211456",
    ] {
        let doc = text.replace("\"closed_usage\":3", &format!("\"closed_usage\":{crafted}"));
        assert_ne!(doc, text);
        match snapshot_from_json(&doc) {
            Err(DbpError::Trace { .. }) => {}
            other => panic!("closed_usage {crafted}: {other:?}"),
        }
    }

    // Restore-level refusals.
    type Edit = fn(&mut SessionSnapshot);
    let edits: Vec<(&str, Edit)> = vec![
        ("an open bin opened after the clock", |s| {
            s.open_bins[0].opened_at = 5
        }),
        ("an open bin with no clock", |s| s.last_arrival = None),
        ("a placed count of zero", |s| s.open_bins[0].placed = 0),
        ("a placed count below the live items", |s| {
            s.open_bins[0].placed = 1
        }),
        ("a closed usage no bin count can span", |s| {
            s.closed_usage = u128::MAX
        }),
        ("a departure at the clock", |s| s.departures[0].0 = 4),
        ("a departure listed twice", |s| {
            s.departures[1].1 = s.departures[0].1
        }),
        ("an open bin out of range", |s| s.next_bin = 1),
        ("an empty open bin", |s| s.open_bins[0].items.clear()),
        ("foreign packer state", |s| {
            s.packer_state = PackerState::from_fields(vec![("x".into(), 1)])
        }),
        // Item sizes outside (0, 1]: once a panic at the next arrival
        // (a gap below zero), once a panic in restore itself (a level
        // past u64), once accepted.
        ("a lone item larger than a bin", |s| {
            let bin = &mut s.open_bins[0];
            bin.items.truncate(1);
            bin.items[0].size = Size::from_raw(Size::SCALE + 1);
            let kept = bin.items[0].id;
            s.departures.retain(|&(_, id)| id == kept);
        }),
        ("an item of size 2^64 - 1 before another", |s| {
            s.open_bins[0].items[0].size = Size::from_raw(u64::MAX)
        }),
        ("an item of size zero", |s| {
            s.open_bins[0].items[0].size = Size::ZERO
        }),
    ];
    for (what, edit) in edits {
        let mut crafted = snap.clone();
        edit(&mut crafted);
        // Through the codec too: what restore refuses must survive the
        // encoding unchanged.
        let decoded = snapshot_from_json(&snapshot_to_json(&crafted)).unwrap();
        assert_eq!(decoded, crafted, "{what}");
        match restore(&decoded) {
            Err(DbpError::InvalidParameter { .. }) => {}
            other => panic!("{what}: {other:?}"),
        }
    }
}

/// A bin may have opened at any `i64` time: closing one opened at
/// `i64::MIN + 1` adds its lifetime to the usage without overflowing.
#[test]
fn a_bin_opened_at_the_start_of_time_closes_without_overflow() {
    let (snap, _) = sample();
    let text = snapshot_to_json(&snap).replace(
        "\"opened_at\":1,",
        &format!("\"opened_at\":{},", i64::MIN + 1),
    );
    let crafted = snapshot_from_json(&text).unwrap();
    assert_eq!(crafted.open_bins[0].opened_at, i64::MIN + 1);
    let mut packer = online_packer("first-fit", AlgoParams { delta: 1, mu: 1.0 });
    let s =
        StreamingSession::restore(ClairvoyanceMode::Clairvoyant, &mut *packer, &crafted).unwrap();
    let totals = s.finish().unwrap();
    // Bin 1 closes at 30, its last departure: 30 - (i64::MIN + 1) ticks.
    assert_eq!(totals.usage, 3 + (1u128 << 63) + 29);
}

/// The engine benchmark's deep recipe (Poisson rate 4, mean-1000
/// exponential durations) at its short horizon: about 104,000 items with
/// ~4,000 live at once. A snapshot holds the live work, so the one after
/// the whole stream is about as big as the one after a quarter of it.
#[test]
fn deep_instance_snapshots_follow_the_open_bins_not_the_stream() {
    let BenchInstance::Scalar(inst) =
        baseline_instance("dbp-bench/engine-v1", "short", "deep", 1).unwrap()
    else {
        panic!("a scalar instance")
    };
    let mut packer = online_packer("best-fit", AlgoParams::from_instance(&inst));
    let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut *packer);
    let quarter = inst.len() / 4;
    let mut sizes = Vec::new();
    for (k, item) in inst.items().iter().enumerate() {
        if k == quarter {
            sizes.push(snapshot_to_json(&s.snapshot()).len());
        }
        s.arrive(item).unwrap();
    }
    sizes.push(snapshot_to_json(&s.snapshot()).len());
    let (quarter_bytes, full_bytes) = (sizes[0] as f64, sizes[1] as f64);
    assert!(
        full_bytes <= 1.2 * quarter_bytes,
        "{} items: {quarter_bytes} B at the quarter, {full_bytes} B at the end",
        inst.len()
    );
}

/// The decoder `snapshot_from_json` replaced: build the whole DOM, then
/// read the fields off it.
fn dom_snapshot(text: &str) -> Result<SessionSnapshot, String> {
    let doc = parse(text)?;
    if doc.field::<&str>("format")? != "dbp-checkpoint" {
        return Err("not a checkpoint".into());
    }
    let version: u32 = doc.field("version")?;
    let v1 = version == 1;
    let packer_state = match doc.field::<&Json>("packer_state")? {
        Json::Obj(pairs) => PackerState::from_fields(
            pairs
                .iter()
                .map(|(k, v)| Ok((k.clone(), i64::read(v)?)))
                .collect::<Result<_, String>>()?,
        ),
        _ => return Err("packer_state is not an object".into()),
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
        dom_v1_history(&doc, next_bin, &mut open_bins)?
    } else {
        doc.field("closed_usage")?
    };
    let mut departures = Vec::new();
    for pair in doc.field::<&[Json]>("departures")? {
        match pair.as_array() {
            Some([t, id]) => departures.push((i64::read(t)?, ItemId(u32::read(id)?))),
            _ => return Err("not a [time, id] pair".into()),
        }
    }
    Ok(SessionSnapshot {
        version: if v1 { SNAPSHOT_VERSION } else { version },
        packer: doc.field("packer")?,
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

fn dom_v1_history(
    doc: &Json,
    next_bin: u32,
    open_bins: &mut [BinSnapshot],
) -> Result<u128, String> {
    let records: &[Json] = doc.field("records")?;
    if records.len() != next_bin as usize {
        return Err("record count".into());
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
            return Err("record id".into());
        }
        let items: &[Json] = r.field("items")?;
        if items.iter().any(|v| u32::read(v).is_err()) {
            return Err("record item".into());
        }
        let (opened_at, closed_at): (Time, Time) = (r.field("opened_at")?, r.field("closed_at")?);
        r.field::<u64>("tag")?;
        match open.get(&BinId(id)) {
            Some(&k) => open_bins[k].placed = items.len() as u64,
            None => {
                let span = i128::from(closed_at) - i128::from(opened_at);
                if span < 0 {
                    return Err("record closes before it opens".into());
                }
                closed_usage += span as u128;
            }
        }
    }
    Ok(closed_usage)
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A value of some other shape, for retyped and repeated members.
fn stray(rng: &mut Rng) -> Json {
    match rng.below(7) {
        0 => Json::Null,
        1 => Json::Bool(true),
        2 => Json::Num("-1".into()),
        3 => Json::Num("4294967296".into()),
        4 => Json::Str("x".into()),
        5 => Json::Arr(vec![Json::Num("1".into())]),
        _ => Json::Obj(vec![("id".into(), Json::Arr(Vec::new()))]),
    }
}

/// The objects in `value`, itself included.
fn objects(value: &Json) -> usize {
    match value {
        Json::Arr(items) => items.iter().map(objects).sum(),
        Json::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| objects(v)).sum::<usize>(),
        _ => 0,
    }
}

/// Shuffles the members of most objects under `value` and edits about
/// one object in `one_in`: repeats a member (with its own or another
/// value, before or after it), drops one, retypes one or adds one it
/// does not read.
fn vary(value: &mut Json, one_in: usize, rng: &mut Rng) {
    match value {
        Json::Arr(items) => items.iter_mut().for_each(|v| vary(v, one_in, rng)),
        Json::Obj(pairs) => {
            pairs.iter_mut().for_each(|(_, v)| vary(v, one_in, rng));
            if pairs.is_empty() {
                return;
            }
            if rng.below(3) > 0 {
                for i in (1..pairs.len()).rev() {
                    pairs.swap(i, rng.below(i + 1));
                }
            }
            if rng.below(one_in) > 0 {
                return;
            }
            let k = rng.below(pairs.len());
            match rng.below(6) {
                0 | 1 => {
                    let value = if rng.below(2) == 0 {
                        pairs[k].1.clone()
                    } else {
                        stray(rng)
                    };
                    let at = if rng.below(2) == 0 { k } else { pairs.len() };
                    pairs.insert(at, (pairs[k].0.clone(), value));
                }
                2 => {
                    pairs.remove(k);
                }
                3 => pairs[k].1 = stray(rng),
                // A key this object may not carry, or one only the
                // other version reads.
                _ => {
                    let key = ["unknown", "placed", "closed_usage", "records"][rng.below(4)];
                    pairs.insert(k, (key.into(), stray(rng)));
                }
            }
        }
        _ => {}
    }
}

/// Writes `value` as JSON, spelling some key characters as `\u` escapes.
fn write(value: &Json, rng: &mut Rng, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(text) => out.push_str(text),
        Json::Str(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                write(v, rng, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                out.push_str(if i > 0 { ",\"" } else { "\"" });
                for c in k.chars() {
                    if rng.below(16) == 0 {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    } else {
                        out.push(c);
                    }
                }
                out.push_str("\":");
                write(v, rng, out);
            }
            out.push('}');
        }
    }
}

#[test]
fn the_field_reader_decides_every_document_as_the_dom_decoder_did() {
    let inst = workload();
    let items = arrivals(&inst);
    let params = AlgoParams::from_instance(&inst);
    let mut bases: Vec<String> = fixture().into_values().collect();
    bases.sort();
    for algo in ONLINE_ALGOS {
        for cut in [13, 27, 40] {
            let mut packer = online_packer(algo, params);
            let mut s = StreamingSession::new(clairvoyance_for(algo), &mut *packer);
            for item in &items[..cut] {
                s.arrive(item).unwrap();
            }
            bases.push(snapshot_to_json(&s.snapshot()));
        }
    }
    // Version 1 ignores `placed`, even in a bin no record covers (an id
    // past `next_bin`, which restore refuses): it decodes as 0.
    let (snap, records) = sample();
    let v1 = v1_document(&snap, &records);
    let uncovered = v1.replacen("{\"id\":1,", "{\"id\":7,\"placed\":9,", 1);
    assert_ne!(uncovered, v1);
    assert_eq!(
        snapshot_from_json(&uncovered).unwrap().open_bins[0].placed,
        0
    );
    bases.push(uncovered);
    let mut rng = Rng(0x5eed_0033);
    let (mut accepted, mut refused, mut v1_late) = (0, 0, 0);
    for base in &bases {
        for _ in 0..100 {
            let mut doc = parse(base).unwrap();
            let one_in = objects(&doc);
            vary(&mut doc, one_in, &mut rng);
            // Half the time, `version` comes last: after `records` and
            // after every bin's `placed`.
            if let (Json::Obj(pairs), 0) = (&mut doc, rng.below(2)) {
                if let Some(i) = pairs.iter().position(|(k, _)| k == "version") {
                    let version = pairs.remove(i);
                    pairs.push(version);
                }
            }
            let mut text = String::new();
            write(&doc, &mut rng, &mut text);
            match (snapshot_from_json(&text), dom_snapshot(&text)) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got, want, "{text}");
                    accepted += 1;
                    v1_late += usize::from(
                        text.contains("\"records\"") && text.ends_with(",\"version\":1}"),
                    );
                }
                (Err(_), Err(_)) => refused += 1,
                (got, want) => panic!("{text}\nreader: {got:?}\nDOM: {want:?}"),
            }
        }
    }
    eprintln!("{accepted} accepted ({v1_late} version 1 with the version last), {refused} refused");
    assert!(accepted > 2_000 && refused > 500 && v1_late > 100);
}
