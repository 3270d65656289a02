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

use dbp_algos::registry::{clairvoyance_for, online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_bench::check::baseline_instance;
use dbp_bench::check::BenchInstance;
use dbp_core::online::{BinRecord, PackerState};
use dbp_core::{
    ClairvoyanceMode, DbpError, Instance, Item, RunRecorder, SessionSnapshot, Size,
    StreamingSession,
};
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
