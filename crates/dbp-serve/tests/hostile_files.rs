//! Hostile files reach a value or a typed error, never a panic, and the
//! checkpoint decoders' verdicts on them are pinned.
//!
//! The inputs are the seeded request lines of [`RequestLines`], plus
//! every truncation, single-byte flips and insertions at every position
//! and over-deep nestings of five real lines: a session snapshot, a
//! version 1 session snapshot from the resilience fixture, a
//! serve-checkpoint manifest, a scalar trace line and a vector trace
//! line. Every input goes to every file decoder: `snapshot_from_json` (a
//! snapshot that decodes is restored by the packer of the line it came
//! from, then packs two more items and finishes), `state::decode`,
//! `trace::parse_jsonl`, `vectrace::parse_jsonl` and `parse_response`.
//! Mutated manifests and snapshot lines also go to `state::decode`
//! inside an otherwise real checkpoint. A panic anywhere fails the test.
//!
//! Each input's `snapshot_from_json` and `state::decode` verdicts —
//! refused, or the `Debug` text of what it decoded — fold into two
//! FNV-1a digests, as `grammar_digest.rs` does for the request grammar.
//! The digests were recorded on the DOM decoders, so a decoder that
//! reads fields as it scans must accept exactly what they accepted, as
//! the same values. Error text is left out.

use dbp_algos::online::ClassifyByDepartureTime;
use dbp_algos::registry::{online_packer, AlgoParams};
use dbp_core::observe::PackEvent;
use dbp_core::{ClairvoyanceMode, Item, ItemId, OnlinePacker, Size, SizeVec, StreamingSession};
use dbp_obs::json::MAX_DEPTH;
use dbp_obs::{trace, vectrace};
use dbp_resilience::snapshot_from_json;
use dbp_serve::protocol::{parse_response, Request, Response, Submit};
use dbp_serve::state::{self, checkpoint_file_name};
use dbp_serve::wire::RequestLines;
use dbp_serve::{ServeConfig, Service};
use std::fmt::Debug;
use std::path::Path;

/// Request lines fed to every decoder (the differential test runs ten
/// times as many through the request reader alone).
const REQUEST_LINES: usize = 20_000;

/// Bytes a flip writes: structure, number and string characters.
const FLIPS: &[u8] = b"{}[]\":,-09e.\\ n";

/// The `snapshot_from_json` verdicts over the whole corpus.
const SNAPSHOT_DIGEST: u64 = 0x8299_106b_101e_8b9d;
/// The `state::decode` verdicts over the whole corpus.
const CHECKPOINT_DIGEST: u64 = 0x6444_5df4_e946_3b9b;

/// 64-bit FNV-1a over decoder verdicts.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn verdict<T: Debug, E>(&mut self, result: &Result<T, E>) {
        match result {
            Ok(value) => self.write(format!("ok {value:?}").as_bytes()),
            Err(_) => self.write(b"refused"),
        }
        self.write(b"\n");
    }
}

/// The verdict digests of the two checkpoint decoders.
struct Verdicts {
    snapshot: Fnv,
    checkpoint: Fnv,
}

/// A version 1 session line from the resilience fixture: CBDT after 13
/// items, with packer state, tags and pending departures.
///
/// Its packer is `cbdt(rho=30)`.
fn v1_line() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../dbp-resilience/fixtures/v1-roster-sessions.tsv");
    let fixture = std::fs::read_to_string(path).unwrap();
    let line = fixture
        .lines()
        .find(|line| line.starts_with("cbdt\t13\t"))
        .expect("the fixture holds cbdt at cut 13");
    line.splitn(3, '\t').nth(2).unwrap().to_string()
}

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

/// Decodes `text` every way, folding the checkpoint decoders' verdicts
/// into `verdicts`; restores and drives what decodes as a snapshot.
/// Returns whether a session was restored.
fn feed(text: &str, verdicts: &mut Verdicts) -> bool {
    verdicts.checkpoint.verdict(&state::decode(text));
    let _ = trace::parse_jsonl(text);
    let _ = vectrace::parse_jsonl(text);
    let _ = parse_response(text);
    let snap = snapshot_from_json(text);
    verdicts.snapshot.verdict(&snap);
    let Ok(snap) = snap else {
        return false;
    };
    // The packer of the real line the snapshot came from, so that only a
    // mutated packer name is refused for its name.
    let mut packer: Box<dyn OnlinePacker> = if snap.packer.starts_with("cbdt") {
        Box::new(ClassifyByDepartureTime::new(30))
    } else {
        online_packer("first-fit", AlgoParams { delta: 1, mu: 1.0 })
    };
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

    let v1 = v1_line();

    // The real lines decode, so the mutations start from valid files.
    assert_eq!(state::decode(&checkpoint).unwrap().sessions.len(), 2);
    assert_eq!(snapshot_from_json(&v1).unwrap().open_bins.len(), 5);
    assert_eq!(trace::parse_jsonl(&trace_line).unwrap().len(), 1);
    assert_eq!(vectrace::parse_jsonl(&vector_line).unwrap().len(), 1);

    let mut verdicts = Verdicts {
        snapshot: Fnv::new(),
        checkpoint: Fnv::new(),
    };
    for line in RequestLines::new(0x5eed_0022).take(REQUEST_LINES) {
        assert!(!feed(&line, &mut verdicts));
    }
    let (mut inputs, mut restored) = (0usize, Vec::new());
    for line in [manifest, sessions[0], &v1, &trace_line, &vector_line] {
        let mut n = 0;
        for bad in mutations(line) {
            n += usize::from(feed(&bad, &mut verdicts));
            inputs += 1;
        }
        restored.push(n);
    }
    // Many flips leave a snapshot of either version that still restores:
    // the restore and the arrivals after it are exercised, not just the
    // decoder.
    assert!(
        restored[1] > 100 && restored[2] > 100,
        "{restored:?} restored"
    );
    // Inside an otherwise real checkpoint.
    for bad in mutations(manifest) {
        let text = format!("{bad}\n{}\n{}\n", sessions[0], sessions[1]);
        verdicts.checkpoint.verdict(&state::decode(&text));
        inputs += 1;
    }
    for bad in mutations(sessions[1]) {
        let text = format!("{manifest}\n{}\n{bad}\n", sessions[0]);
        verdicts.checkpoint.verdict(&state::decode(&text));
        inputs += 1;
    }
    eprintln!(
        "{REQUEST_LINES} request lines and {inputs} mutated files decoded without a panic \
         ({} version 2 and {} version 1 mutated snapshots restored and packed); verdicts: snapshot {:#018x}, \
         checkpoint {:#018x}",
        restored[1], restored[2], verdicts.snapshot.0, verdicts.checkpoint.0
    );
    assert_eq!(
        verdicts.snapshot.0, SNAPSHOT_DIGEST,
        "snapshot_from_json verdicts moved"
    );
    assert_eq!(
        verdicts.checkpoint.0, CHECKPOINT_DIGEST,
        "state::decode verdicts moved"
    );
}
