//! Hostile files reach a value or a typed error, never a panic.
//!
//! The inputs are the seeded request lines of [`RequestLines`], plus
//! every truncation, single-byte flips and insertions at every position
//! and over-deep nestings of four real lines: a session snapshot, a serve-checkpoint
//! manifest, a scalar trace line and a vector trace line. Every input
//! goes to every file decoder: `snapshot_from_json` (a snapshot that
//! decodes is restored, then packs two more items and finishes),
//! `state::decode`, `trace::parse_jsonl`, `vectrace::parse_jsonl` and
//! `parse_response`. Mutated manifests and snapshot lines also go to
//! `state::decode` inside an otherwise real checkpoint. A panic anywhere
//! fails the test; what each decoder returns is not checked.

use dbp_algos::registry::{online_packer, AlgoParams};
use dbp_core::observe::PackEvent;
use dbp_core::{ClairvoyanceMode, Item, ItemId, Size, SizeVec, StreamingSession};
use dbp_obs::json::MAX_DEPTH;
use dbp_obs::{trace, vectrace};
use dbp_resilience::snapshot_from_json;
use dbp_serve::protocol::{parse_response, Request, Response, Submit};
use dbp_serve::state::{self, checkpoint_file_name};
use dbp_serve::wire::RequestLines;
use dbp_serve::{ServeConfig, Service};

/// Request lines fed to every decoder (the differential test runs ten
/// times as many through the request reader alone).
const REQUEST_LINES: usize = 20_000;

/// Bytes a flip writes: structure, number and string characters.
const FLIPS: &[u8] = b"{}[]\":,-09e.\\ n";

/// A real two-shard checkpoint: its manifest line, then one snapshot
/// line per shard.
fn real_checkpoint() -> String {
    let dir = std::env::temp_dir().join(format!("dbp-serve-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::new(2, "first-fit");
    cfg.fleet_cap = Some(6);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = 1_000_000;
    let service = Service::start(cfg).unwrap();
    for i in 0..40u32 {
        let size = 0.15 + 0.6 * f64::from(i.wrapping_mul(2_654_435_761) % 997) / 997.0;
        let arrival = i64::from(i / 2);
        service.handle(&Request::Submit(Submit {
            tenant: format!("tenant-{}", i % 3),
            job: i,
            size: None,
            size_raw: Some(Size::from_f64(size).raw()),
            arrival,
            departure: arrival + 4 + i64::from(i % 23),
        }));
    }
    let seq = match service.handle(&Request::Checkpoint) {
        Response::Checkpointed { seq } => seq,
        other => panic!("{other:?}"),
    };
    drop(service);
    let text = std::fs::read_to_string(dir.join(checkpoint_file_name(seq))).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    text
}

/// Every truncation, flips and a `9` inserted at every position (so
/// every number grows tenfold somewhere), and nestings around and far
/// past the depth cap, of one ASCII line.
fn mutations(line: &str) -> Vec<String> {
    assert!(line.is_ascii());
    let mut out: Vec<String> = (0..line.len()).map(|k| line[..k].to_string()).collect();
    for i in 0..line.len() {
        for &b in FLIPS {
            let mut bytes = line.as_bytes().to_vec();
            bytes[i] = b;
            out.push(String::from_utf8(bytes).unwrap());
        }
        out.push(format!("{}9{}", &line[..i], &line[i..]));
    }
    for depth in [MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH, 50_000] {
        let (open, close) = ("[".repeat(depth), "]".repeat(depth));
        out.push(format!("{open}{line}{close}"));
        out.push(format!("{{\"deep\":{open}{close},{}", &line[1..]));
        out.push(format!("{{\"deep\":{open},{}", &line[1..]));
    }
    out
}

/// Decodes `text` every way; restores and drives what decodes as a
/// snapshot. Returns whether a session was restored.
fn feed(text: &str) -> bool {
    let _ = state::decode(text);
    let _ = trace::parse_jsonl(text);
    let _ = vectrace::parse_jsonl(text);
    let _ = parse_response(text);
    let Ok(snap) = snapshot_from_json(text) else {
        return false;
    };
    let mut packer = online_packer("first-fit", AlgoParams { delta: 1, mu: 1.0 });
    let Ok(mut session) =
        StreamingSession::restore(ClairvoyanceMode::Clairvoyant, &mut *packer, &snap)
    else {
        return false;
    };
    let now = snap.last_arrival.unwrap_or(0);
    for (k, size) in [(0, Size::HALF), (1, Size::CAPACITY)] {
        let departure = now.saturating_add(10 + k);
        if let Ok(item) = Item::try_new(u32::MAX - k as u32, size, now, departure) {
            let _ = session.arrive(&item);
        }
    }
    let _ = session.finish();
    true
}

#[test]
fn hostile_files_get_a_value_or_a_typed_error() {
    let checkpoint = real_checkpoint();
    let lines: Vec<&str> = checkpoint.lines().collect();
    assert_eq!(lines.len(), 3, "{checkpoint}");
    let (manifest, sessions) = (lines[0], &lines[1..]);
    let trace_line = trace::event_to_json(&PackEvent::ItemArrived {
        id: ItemId(7),
        size: Size::from_raw(11_744_051),
        at: 3,
        departure: 12,
        visible_departure: Some(12),
    });
    let vector_line = vectrace::event_to_json(&PackEvent::ItemArrived {
        id: ItemId(7),
        size: SizeVec::new(&[Size::HALF, Size::from_raw(11_744_051)]),
        at: 3,
        departure: 12,
        visible_departure: Some(12),
    });

    // The real lines decode, so the mutations start from valid files.
    assert_eq!(state::decode(&checkpoint).unwrap().sessions.len(), 2);
    assert_eq!(trace::parse_jsonl(&trace_line).unwrap().len(), 1);
    assert_eq!(vectrace::parse_jsonl(&vector_line).unwrap().len(), 1);

    for line in RequestLines::new(0x5eed_0022).take(REQUEST_LINES) {
        assert!(!feed(&line));
    }
    let (mut inputs, mut restored) = (0usize, 0usize);
    for line in [manifest, sessions[0], &trace_line, &vector_line] {
        for bad in mutations(line) {
            restored += usize::from(feed(&bad));
            inputs += 1;
        }
    }
    // Many flips leave a snapshot that still restores: the restore and
    // the arrivals after it are exercised, not just the decoder.
    assert!(restored > 100, "{restored} restored");
    // Inside an otherwise real checkpoint.
    for bad in mutations(manifest) {
        let _ = state::decode(&format!("{bad}\n{}\n{}\n", sessions[0], sessions[1]));
        inputs += 1;
    }
    for bad in mutations(sessions[1]) {
        let _ = state::decode(&format!("{manifest}\n{}\n{bad}\n", sessions[0]));
        inputs += 1;
    }
    eprintln!(
        "{REQUEST_LINES} request lines and {inputs} mutated files decoded without a panic \
         ({restored} mutated snapshots restored and packed)"
    );
}
