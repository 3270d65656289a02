//! Restart semantics: kill-and-resume bit-identity, torn-checkpoint
//! fallback, and config-fingerprint validation.

use dbp_algos::registry::{online_packer, AlgoParams};
use dbp_core::stream::OwnedSession;
use dbp_core::{ClairvoyanceMode, DbpError, Size};
use dbp_resilience::failpoint::FailGuard;
use dbp_resilience::snapshot_to_json;
use dbp_serve::protocol::{render_response, Request, Response, Submit};
use dbp_serve::state::{
    checkpoint_file_name, kept_checkpoint_floor, read_serve_checkpoint, write_serve_checkpoint,
    KEPT_CHECKPOINTS,
};
use dbp_serve::torture::torture_stream;
use dbp_serve::wal::{self, DecisionFrame};
use dbp_serve::{RejectReason, ServeConfig, Service};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbp-serve-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic 200-job stream that exercises placements *and*
/// fleet-cap sheds.
fn stream() -> Vec<Request> {
    (0..200u32)
        .map(|i| {
            let size = 0.15 + 0.6 * f64::from(i.wrapping_mul(2_654_435_761) % 997) / 997.0;
            let arrival = i64::from(i / 2);
            Request::Submit(Submit {
                tenant: format!("tenant-{}", i % 3),
                job: i,
                size: None,
                size_raw: Some(Size::from_f64(size).raw()),
                arrival,
                departure: arrival + 4 + i64::from(i % 23),
            })
        })
        .collect()
}

fn cfg_with_dir(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(2, "first-fit");
    cfg.fleet_cap = Some(6);
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    cfg.checkpoint_every = 25;
    cfg
}

#[test]
fn kill_and_restore_replays_bit_identically() {
    let jobs = stream();

    // Reference: one uninterrupted service over the whole stream.
    let full_dir = fresh_dir("restart-full");
    let reference: Vec<String> = {
        let service = Service::start(cfg_with_dir(&full_dir)).unwrap();
        assert_eq!(service.restored_seq(), None);
        jobs.iter()
            .map(|req| render_response(&service.handle(req)))
            .collect()
    };
    assert!(
        reference.iter().any(|r| r.contains("\"placed\":true"))
            && reference.iter().any(|r| r.contains("fleet_capacity")),
        "the stream must exercise both placements and sheds"
    );

    // Interrupted run: submit 137 jobs, then die without a graceful
    // shutdown — the newest auto-checkpoint (125 decisions) survives.
    let kill_dir = fresh_dir("restart-kill");
    let part1: Vec<String> = {
        let service = Service::start(cfg_with_dir(&kill_dir)).unwrap();
        jobs[..137]
            .iter()
            .map(|req| render_response(&service.handle(req)))
            .collect()
    };
    assert_eq!(&part1[..], &reference[..137]);

    // Restart from the surviving checkpoint and resume from the
    // watermark, replaying the tail of the same stream.
    let service = Service::start(cfg_with_dir(&kill_dir)).unwrap();
    assert_eq!(service.restored_seq(), Some(5), "5 × 25 decisions survived");
    let watermark = match service.handle(&Request::Status) {
        Response::Status(s) => s.watermark as usize,
        other => panic!("{other:?}"),
    };
    assert_eq!(watermark, 125, "the watermark is the last checkpoint's");
    let part2: Vec<String> = jobs[watermark..]
        .iter()
        .map(|req| render_response(&service.handle(req)))
        .collect();

    // Jobs 125..137 were decided twice (before the kill and after the
    // restore); both runs — and the uninterrupted reference — agree bit
    // for bit, and the union covers every job exactly once.
    assert_eq!(&part2[..], &reference[watermark..]);
    assert_eq!(&part1[watermark..], &part2[..137 - watermark]);
    match service.handle(&Request::Status) {
        Response::Status(s) => assert_eq!(s.watermark, 200),
        other => panic!("{other:?}"),
    }
}

fn checkpoint(service: &Service) -> u64 {
    match service.handle(&Request::Checkpoint) {
        Response::Checkpointed { seq } => seq,
        other => panic!("{other:?}"),
    }
}

/// Every session line of a checkpoint file is a version 2 snapshot:
/// live state only, no bin history and no id history.
fn assert_sessions_hold_live_state_only(text: &str) {
    for line in text.lines().skip(1) {
        assert!(line.contains("\"version\":2,"), "{line:.300}");
        for key in ["\"records\"", "\"watermark\"", "\"above\""] {
            assert!(!line.contains(key), "{key} in {line:.300}");
        }
    }
}

/// The checkpoint the previous build wrote after `stream()[..137]`
/// under `cfg_with_dir`: version 1 session lines, each listing every
/// bin its shard ever opened with every item ever placed in it.
fn version_1_checkpoint() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/v1-k2-first-fit-137.ckpt");
    std::fs::read_to_string(path).unwrap()
}

/// A checkpoint an older build wrote boots, and the resumed service
/// answers exactly as an uninterrupted one. Its session lines carry the
/// version 1 bin history, which restore reduces to live state; id lists
/// in them, which builds before the coordinator ledger wrote, are
/// ignored. The next checkpoint is version 2.
#[test]
fn a_version_1_checkpoint_boots_and_resumes_bit_identically() {
    let jobs = stream();
    let reference: Vec<String> = {
        let service = Service::start(cfg_with_dir(&fresh_dir("restart-v1-full"))).unwrap();
        jobs.iter()
            .map(|req| render_response(&service.handle(req)))
            .collect()
    };
    let v1 = version_1_checkpoint();
    let sessions: Vec<&str> = v1.lines().skip(1).collect();
    assert_eq!(sessions.len(), 2);
    assert!(sessions
        .iter()
        .all(|l| l.contains("\"version\":1,") && l.contains("\"records\":[{")));
    let with_ids = v1.replace(
        "\"watermark\":0,\"above\":[]",
        "\"watermark\":3,\"above\":[5,8]",
    );
    assert_ne!(with_ids, v1);
    for (name, text) in [("restart-v1", &v1), ("restart-v1-ids", &with_ids)] {
        let dir = fresh_dir(name);
        std::fs::write(dir.join(checkpoint_file_name(6)), text).unwrap();
        let service = Service::start(cfg_with_dir(&dir)).unwrap();
        assert_eq!(service.restored_seq(), Some(6), "{name}");
        let resumed: Vec<String> = jobs[137..]
            .iter()
            .map(|req| render_response(&service.handle(req)))
            .collect();
        assert_eq!(&resumed[..], &reference[137..], "{name}");
        let seq = checkpoint(&service);
        assert_sessions_hold_live_state_only(
            &std::fs::read_to_string(dir.join(checkpoint_file_name(seq))).unwrap(),
        );
    }
}

/// Shard sessions keep no id history, so under hash routing a K=2
/// checkpoint's session lines list no ids and cost what K=1's do, apart
/// from the second line's own header.
#[test]
fn sharded_checkpoints_hold_no_per_shard_id_history() {
    let jobs = torture_stream(20_000);
    let checkpoint_bytes = |shards: usize| {
        let dir = fresh_dir(&format!("restart-ids-k{shards}"));
        let mut cfg = ServeConfig::new(shards, "first-fit");
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.checkpoint_every = 1_000_000;
        let service = Service::start(cfg).unwrap();
        service.handle_batch(&jobs);
        let path = dir.join(checkpoint_file_name(checkpoint(&service)));
        let text = std::fs::read_to_string(path).unwrap();
        assert_sessions_hold_live_state_only(&text);
        text.len() as f64
    };
    let packer = online_packer("first-fit", AlgoParams { delta: 1, mu: 1.0 });
    let empty = OwnedSession::owned(ClairvoyanceMode::Clairvoyant, packer).snapshot();
    let header = (snapshot_to_json(&empty).len() + 1) as f64;
    let (k1, k2) = (checkpoint_bytes(1), checkpoint_bytes(2));
    assert!(
        (k2 - header - k1).abs() <= 0.05 * k1,
        "K=2: {k2} B, K=1: {k1} B, one session header {header} B"
    );
}

/// The watermark cannot absorb `u32::MAX`: once every lower id is
/// decided, deciding it keeps it above the watermark, and it stays a
/// duplicate like every lower id.
#[test]
fn the_largest_job_id_is_decided_once() {
    let dir = fresh_dir("restart-max-id");
    let seq = checkpoint(&Service::start(cfg_with_dir(&dir)).unwrap());
    let mut ck = read_serve_checkpoint(&dir.join(checkpoint_file_name(seq))).unwrap();
    ck.watermark = u32::MAX - 1;
    write_serve_checkpoint(&dir, &ck).unwrap();
    let service = Service::start(cfg_with_dir(&dir)).unwrap();
    let submit = |job: u32| {
        Request::Submit(Submit {
            tenant: "t".into(),
            job,
            size: None,
            size_raw: Some(Size::from_f64(0.1).raw()),
            arrival: 0,
            departure: 10,
        })
    };
    for job in [u32::MAX - 1, u32::MAX] {
        let resp = service.handle(&submit(job));
        assert!(matches!(resp, Response::Placed { .. }), "{resp:?}");
    }
    for job in [u32::MAX, 5] {
        match service.handle(&submit(job)) {
            Response::Rejected { reason, .. } => assert_eq!(reason, RejectReason::DuplicateJob),
            other => panic!("job {job}: {other:?}"),
        }
    }
    match service.handle(&Request::Status) {
        Response::Status(s) => assert_eq!(s.watermark, u32::MAX),
        other => panic!("{other:?}"),
    }
}

#[test]
fn torn_newest_checkpoint_falls_back_to_the_previous_good_one() {
    // Tear the newest checkpoint mid-file, as a crash mid-write would.
    damaged_newest_checkpoint_falls_back("restart-torn", |bytes| bytes[..bytes.len() / 2].to_vec());
}

/// Regression: a manifest nested far deeper than any real checkpoint
/// used to overflow the JSON parser's stack and abort the boot.
#[test]
fn deeply_nested_newest_checkpoint_falls_back_instead_of_aborting() {
    damaged_newest_checkpoint_falls_back("restart-nested", |_| {
        format!("{}\n", "[".repeat(100_000)).into_bytes()
    });
}

/// Regression: the manifest's shard count sized an allocation before any
/// session line was read, so a crafted count aborted the boot.
#[test]
fn a_crafted_shard_count_falls_back_instead_of_aborting() {
    damaged_newest_checkpoint_falls_back("restart-shards", |bytes| {
        let text = String::from_utf8(bytes.to_vec()).unwrap();
        let crafted = format!("\"shards\":{}", u64::MAX / 2);
        text.replacen("\"shards\":2", &crafted, 1).into_bytes()
    });
}

/// A session line that decodes but that a restore refuses — here an open
/// bin claiming it never had an item placed in it — sends the boot to the
/// previous checkpoint, as a torn file does.
#[test]
fn a_crafted_session_line_falls_back_instead_of_aborting() {
    damaged_newest_checkpoint_falls_back("restart-placed", |bytes| {
        let text = String::from_utf8(bytes.to_vec()).unwrap();
        let sessions = text.find('\n').unwrap();
        let (manifest, lines) = text.split_at(sessions);
        assert!(lines.contains("\"placed\":"));
        let crafted = lines.replacen("\"placed\":", "\"placed\":0,\"was\":", 1);
        format!("{manifest}{crafted}").into_bytes()
    });
}

/// Regression: a live item whose size is not a valid item size (here
/// 2^64 - 1) decoded, and restoring it panicked on the level arithmetic;
/// the restore now refuses it and the boot falls back.
#[test]
fn an_invalid_item_size_falls_back_instead_of_aborting() {
    damaged_newest_checkpoint_falls_back("restart-size", |bytes| {
        let text = String::from_utf8(bytes.to_vec()).unwrap();
        let sessions = text.find('\n').unwrap();
        let (manifest, lines) = text.split_at(sessions);
        let crafted = lines.replacen(
            "\"size_raw\":",
            &format!("\"size_raw\":{},\"was\":", u64::MAX),
            1,
        );
        assert_ne!(crafted, lines);
        format!("{manifest}{crafted}").into_bytes()
    });
}

/// Writes two checkpoints, rewrites the newest with `damage`, and checks
/// that the restart skips it and resumes from the older one.
fn damaged_newest_checkpoint_falls_back(name: &str, damage: impl Fn(&[u8]) -> Vec<u8>) {
    let dir = fresh_dir(name);
    let jobs = stream();
    // Explicit checkpoints only, so exactly two files exist.
    let mut cfg = cfg_with_dir(&dir);
    cfg.checkpoint_every = 1_000_000;
    let (first_seq, watermark_at_first) = {
        let service = Service::start(cfg.clone()).unwrap();
        for req in &jobs[..40] {
            service.handle(req);
        }
        let seq = match service.handle(&Request::Checkpoint) {
            Response::Checkpointed { seq } => seq,
            other => panic!("{other:?}"),
        };
        let watermark = match service.handle(&Request::Status) {
            Response::Status(s) => s.watermark,
            other => panic!("{other:?}"),
        };
        for req in &jobs[40..80] {
            service.handle(req);
        }
        match service.handle(&Request::Checkpoint) {
            Response::Checkpointed { seq: s2 } => assert!(s2 > seq),
            other => panic!("{other:?}"),
        }
        (seq, watermark)
    };

    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .max()
        .unwrap();
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, damage(&bytes)).unwrap();

    let service = Service::start(cfg).unwrap();
    assert_eq!(service.restored_seq(), Some(first_seq));
    assert_eq!(service.skipped_checkpoints(), &[newest]);
    match service.handle(&Request::Status) {
        Response::Status(s) => assert_eq!(s.watermark, watermark_at_first),
        other => panic!("{other:?}"),
    }
    // The restored service keeps serving from that point.
    for req in &jobs[watermark_at_first as usize..] {
        assert!(
            !matches!(service.handle(req), Response::Error { .. }),
            "restored service must keep serving"
        );
    }
}

/// The WAL prune floor is a manifest field, so the oldest kept file
/// yields it even when its session lines are torn.
#[test]
fn the_prune_floor_reads_only_the_oldest_manifest() {
    let dir = fresh_dir("restart-floor");
    let service = Service::start(cfg_with_dir(&dir)).unwrap();
    for req in &stream()[..60] {
        service.handle(req);
    }
    drop(service);
    // Auto-checkpoints at 25 and 50: the oldest holds floor 25.
    let oldest = dir.join(checkpoint_file_name(1));
    let text = std::fs::read_to_string(&oldest).unwrap();
    let manifest_end = text.find('\n').unwrap() + 1;
    let torn = &text[..manifest_end + (text.len() - manifest_end) / 2];
    std::fs::write(&oldest, torn).unwrap();
    assert!(read_serve_checkpoint(&oldest).is_err());
    assert_eq!(kept_checkpoint_floor(&dir).unwrap(), Some(25));
}

/// Checkpoint size follows the open bins, not the stream: the newest
/// checkpoint after a 10x longer stream is about as big, at K=1 and K=2.
#[test]
fn checkpoint_bytes_stay_flat_over_a_ten_times_longer_stream() {
    let newest_bytes = |shards: usize, jobs: u32| -> u64 {
        let mut cfg = ServeConfig::new(shards, "first-fit");
        cfg.checkpoint_dir = Some(fresh_dir(&format!("restart-flat-k{shards}-{jobs}")));
        cfg.checkpoint_every = 500;
        let service = Service::start(cfg).unwrap();
        service.handle_batch(&torture_stream(jobs));
        let text = match service.handle(&Request::Metrics) {
            Response::Metrics { text } => text,
            other => panic!("{other:?}"),
        };
        let gauge = "dbp_serve_checkpoint_bytes{algo=\"first-fit\"} ";
        text.lines()
            .find_map(|l| l.strip_prefix(gauge))
            .and_then(|v| v.parse().ok())
            .expect("checkpoint bytes gauge")
    };
    for shards in [1, 2] {
        let (short, long) = (newest_bytes(shards, 2_000), newest_bytes(shards, 20_000));
        assert!(
            long as f64 <= 1.25 * short as f64,
            "K={shards}: {short} B after 2,000 jobs, {long} B after 20,000"
        );
    }
}

#[test]
fn restore_refuses_a_mismatched_config_fingerprint() {
    let dir = fresh_dir("restart-mismatch");
    {
        let service = Service::start(cfg_with_dir(&dir)).unwrap();
        for req in &stream()[..30] {
            service.handle(req);
        }
        assert!(matches!(
            service.handle(&Request::Checkpoint),
            Response::Checkpointed { .. }
        ));
    }
    let mut other_algo = cfg_with_dir(&dir);
    other_algo.algo = "best-fit".into();
    assert!(Service::start(other_algo).is_err());
    let mut other_shards = cfg_with_dir(&dir);
    other_shards.shards = 3;
    assert!(Service::start(other_shards).is_err());
    let mut other_cap = cfg_with_dir(&dir);
    other_cap.fleet_cap = None;
    assert!(Service::start(other_cap).is_err());
    // The matching config still restores.
    assert!(Service::start(cfg_with_dir(&dir))
        .unwrap()
        .restored_seq()
        .is_some());
}

fn cfg_with_wal(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(2, "first-fit");
    cfg.fleet_cap = Some(6);
    cfg.checkpoint_dir = Some(dir.join("ckpt"));
    cfg.checkpoint_every = 25;
    cfg.wal_dir = Some(dir.join("wal"));
    cfg.fsync = dbp_serve::FsyncPolicy::Never; // the tests kill in-process
    cfg
}

#[test]
fn wal_replay_recovers_every_decision_past_the_checkpoint() {
    let jobs = stream();
    let full_dir = fresh_dir("restart-wal-full");
    let reference: Vec<String> = {
        let service = Service::start(cfg_with_wal(&full_dir)).unwrap();
        jobs.iter()
            .map(|req| render_response(&service.handle(req)))
            .collect()
    };

    // Die at 137 decisions: the newest checkpoint holds 125, the WAL
    // holds the other 12.
    let kill_dir = fresh_dir("restart-wal-kill");
    {
        let service = Service::start(cfg_with_wal(&kill_dir)).unwrap();
        let part1: Vec<String> = jobs[..137]
            .iter()
            .map(|req| render_response(&service.handle(req)))
            .collect();
        assert_eq!(&part1[..], &reference[..137]);
    }

    let service = Service::start(cfg_with_wal(&kill_dir)).unwrap();
    assert_eq!(service.restored_seq(), Some(5), "checkpoint restore first");
    let rec = service.recovery().expect("recovery stats with a WAL");
    assert_eq!(rec.replayed_frames, 12, "125 checkpointed + 12 replayed");
    assert_eq!(rec.truncated_files, 0);
    let watermark = match service.handle(&Request::Status) {
        Response::Status(s) => {
            assert_eq!(s.decision_seq, 137, "every decision survived");
            s.watermark as usize
        }
        other => panic!("{other:?}"),
    };
    assert_eq!(watermark, 137, "nothing to resubmit below 137");

    // Resuming from the watermark reproduces the reference exactly...
    let part2: Vec<String> = jobs[watermark..]
        .iter()
        .map(|req| render_response(&service.handle(req)))
        .collect();
    assert_eq!(&part2[..], &reference[watermark..]);
    // ...and replayed jobs are duplicate-rejected, not re-decided.
    let replayed = match &jobs[136] {
        Request::Submit(s) => s.clone(),
        other => panic!("{other:?}"),
    };
    match service.handle(&Request::Submit(replayed)) {
        Response::Rejected { reason, .. } => {
            assert_eq!(reason, dbp_serve::RejectReason::DuplicateJob)
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn wal_tolerates_a_torn_tail_but_refuses_a_rewritten_outcome() {
    let jobs = stream();
    let dir = fresh_dir("restart-wal-torn");
    // No auto-checkpoints: every decision lives in the WAL alone.
    let mut cfg = cfg_with_wal(&dir);
    cfg.checkpoint_every = 1_000_000;
    {
        let service = Service::start(cfg.clone()).unwrap();
        for req in &jobs[..60] {
            assert!(!matches!(service.handle(req), Response::Error { .. }));
        }
    }
    // Tear a few bytes off the fattest segment, as a mid-append crash
    // would: recovery truncates the tail and keeps serving.
    let seg = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .filter_map(|e| e.ok())
        .max_by_key(|e| e.metadata().unwrap().len())
        .unwrap()
        .path();
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);
    let watermark = {
        let service = Service::start(cfg.clone()).unwrap();
        let rec = service.recovery().unwrap();
        assert!(rec.truncated_files >= 1, "the torn tail must be detected");
        match service.handle(&Request::Status) {
            Response::Status(s) => {
                assert!(s.watermark < 60, "the torn decision is forgotten");
                s.watermark
            }
            other => panic!("{other:?}"),
        }
    };

    // Now rewrite a surviving frame's outcome byte and fix its CRC: the
    // log is internally consistent but lies about what was acknowledged.
    // Recovery must refuse to boot rather than serve diverged state.
    let mut bytes = std::fs::read(&seg).unwrap();
    let mut at = dbp_serve::wal::WAL_HEADER_LEN as usize;
    let mut last = None;
    while at + 8 <= bytes.len() {
        let plen = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        if at + 8 + plen > bytes.len() {
            break;
        }
        last = Some((at, plen));
        at += 8 + plen;
    }
    let (at, plen) = last.expect("frames survive the truncation");
    let outcome_off = at + 8 + 42;
    bytes[outcome_off] = 1 - bytes[outcome_off]; // Placed <-> Shed
    let crc = dbp_serve::wal::crc32(&bytes[at + 8..at + 8 + plen]);
    bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&seg, &bytes).unwrap();
    let err = match Service::start(cfg) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("a rewritten outcome must refuse to boot"),
    };
    assert!(err.contains("diverged"), "got: {err}");
    let _ = watermark;
}

#[test]
fn checkpoints_prune_replayed_wal_segments() {
    let dir = fresh_dir("restart-wal-prune");
    let jobs = stream();
    let cfg = cfg_with_wal(&dir);
    {
        let service = Service::start(cfg.clone()).unwrap();
        for req in &jobs {
            service.handle(req);
        }
        // 8 auto-checkpoints happened; rotation + pruning must have
        // dropped segments fully covered by the kept checkpoints. One
        // log keeps at most one segment per kept checkpoint: the one
        // each opened.
        let segments = std::fs::read_dir(dir.join("wal")).unwrap().count();
        assert!(
            segments <= KEPT_CHECKPOINTS,
            "pruning must bound the segment count, found {segments}"
        );
    }
    // And the pruned log still recovers to the full watermark.
    let service = Service::start(cfg).unwrap();
    match service.handle(&Request::Status) {
        Response::Status(s) => assert_eq!(s.watermark, 200),
        other => panic!("{other:?}"),
    }
}

/// WAL segment names under `wal_dir`, sorted and split into one-log
/// segments and the per-stream segments of older builds.
fn wal_segments(wal_dir: &Path) -> (Vec<String>, Vec<String>) {
    let mut names: Vec<String> = std::fs::read_dir(wal_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| wal::parse_segment_name(n).is_some())
        .collect();
    names.sort();
    names
        .into_iter()
        .partition(|n| wal::parse_segment_name(n).is_some_and(|(stream, _)| stream.is_none()))
}

/// Writes `frames` (all of `stream`) as one segment in the per-stream
/// layout older builds wrote: `wal-<stream>-<first_seq>.wal`, a
/// `DBPWAL1` header holding the stream, then the frames.
fn write_v1_segment(
    wal_dir: &Path,
    stream: u32,
    ckpt_seq: u64,
    frames: &[DecisionFrame],
) -> PathBuf {
    let first_seq = frames[0].seq;
    let path = wal_dir.join(format!("wal-{stream:03}-{first_seq:020}.wal"));
    let mut bytes = Vec::new();
    bytes.extend_from_slice(wal::WAL_MAGIC_V1);
    bytes.extend_from_slice(&stream.to_le_bytes());
    bytes.extend_from_slice(&first_seq.to_le_bytes());
    bytes.extend_from_slice(&ckpt_seq.to_le_bytes());
    for frame in frames {
        bytes.extend_from_slice(&wal::encode_frame(frame));
    }
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Rewrites every one-log segment under `wal_dir` as an older build
/// would have laid out the same frames — one file per stream — and
/// returns the file holding the newest frame.
fn rewrite_as_per_stream_segments(wal_dir: &Path) -> PathBuf {
    let (log, older) = wal_segments(wal_dir);
    assert!(!log.is_empty() && older.is_empty());
    let mut newest = (0, PathBuf::new());
    for name in log {
        let path = wal_dir.join(&name);
        let bytes = std::fs::read(&path).unwrap();
        let ckpt_seq = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let mut by_stream: BTreeMap<u32, Vec<DecisionFrame>> = BTreeMap::new();
        let mut at = wal::WAL_HEADER_LEN as usize;
        while at < bytes.len() {
            let plen = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let frame = wal::decode_payload(&bytes[at + 8..at + 8 + plen]).unwrap();
            by_stream.entry(frame.stream).or_default().push(frame);
            at += 8 + plen;
        }
        std::fs::remove_file(&path).unwrap();
        for (stream, frames) in by_stream {
            let written = write_v1_segment(wal_dir, stream, ckpt_seq, &frames);
            let last = frames.last().unwrap().seq;
            if last > newest.0 {
                newest = (last, written);
            }
        }
    }
    newest.1
}

/// Copies a service directory's checkpoints and WAL.
fn copy_service_dir(from: &Path, to: &Path) {
    for sub in ["ckpt", "wal"] {
        std::fs::create_dir_all(to.join(sub)).unwrap();
        for entry in std::fs::read_dir(from.join(sub)).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(sub).join(entry.file_name())).unwrap();
        }
    }
}

fn status(service: &Service) -> (u32, u64) {
    match service.handle(&Request::Status) {
        Response::Status(s) => (s.watermark, s.decision_seq),
        other => panic!("{other:?}"),
    }
}

/// A service boots on the per-stream WAL an older build left: the
/// watermark and every resumed response match an uninterrupted run byte
/// for byte, new frames land in the one log, and pruning deletes the
/// old files exactly once the one log alone reaches the kept floor. A
/// torn per-stream tail is still cut.
#[test]
fn a_per_stream_wal_from_an_older_build_boots_and_migrates_to_the_one_log() {
    let jobs = stream();
    let decide = |service: &Service, reqs: &[Request]| -> Vec<String> {
        reqs.iter()
            .map(|req| render_response(&service.handle(req)))
            .collect()
    };
    let reference = {
        let dir = fresh_dir("restart-wal-v1-reference");
        decide(&Service::start(cfg_with_wal(&dir)).unwrap(), &jobs)
    };

    // Die at 137 decisions: checkpoint 5 holds 125, the WAL the other
    // 12. Then lay the WAL out per stream, as an older build wrote it.
    let dir = fresh_dir("restart-wal-v1");
    assert_eq!(
        decide(&Service::start(cfg_with_wal(&dir)).unwrap(), &jobs[..137]),
        reference[..137]
    );
    let newest = rewrite_as_per_stream_segments(&dir.join("wal"));
    let (_, older) = wal_segments(&dir.join("wal"));
    assert!(
        older.len() >= 2,
        "both shard streams hold frames: {older:?}"
    );
    let torn_dir = fresh_dir("restart-wal-v1-torn");
    copy_service_dir(&dir, &torn_dir);

    let service = Service::start(cfg_with_wal(&dir)).unwrap();
    assert_eq!(service.restored_seq(), Some(5));
    assert_eq!(service.recovery().unwrap().replayed_frames, 12);
    assert_eq!(status(&service), (137, 137));
    // New frames go to one new one-log segment; the old files stay.
    let mut resumed = decide(&service, &jobs[137..140]);
    assert_eq!(
        wal_segments(&dir.join("wal")),
        (vec![wal::segment_file_name(138)], older.clone())
    );
    // Checkpoints at 150 and 175 keep floors 100 and 125, which the one
    // log (from 138) does not reach; the one at 200 keeps floor 150.
    resumed.extend(decide(&service, &jobs[140..176]));
    assert_eq!(wal_segments(&dir.join("wal")).1, older);
    resumed.extend(decide(&service, &jobs[176..]));
    assert_eq!(resumed, reference[137..]);
    let (log, left) = wal_segments(&dir.join("wal"));
    assert!(
        left.is_empty(),
        "per-stream segments survived the prune: {left:?}"
    );
    assert!(log.len() <= KEPT_CHECKPOINTS);
    drop(service);
    let service = Service::start(cfg_with_wal(&dir)).unwrap();
    assert_eq!(status(&service), (200, 200));

    // A torn tail in the per-stream file holding decision 137 is cut,
    // and the stream resumes from the decision before it.
    let torn = torn_dir.join("wal").join(newest.file_name().unwrap());
    let len = std::fs::metadata(&torn).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&torn).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);
    let service = Service::start(cfg_with_wal(&torn_dir)).unwrap();
    assert_eq!(service.recovery().unwrap().truncated_files, 1);
    assert_eq!(status(&service), (136, 136));
    assert_eq!(decide(&service, &jobs[136..]), reference[136..]);
}

#[test]
fn boot_without_checkpoints_is_fresh_and_checkpoint_requests_fail_typed() {
    let service = Service::start(ServeConfig::new(1, "first-fit")).unwrap();
    assert_eq!(service.restored_seq(), None);
    // No checkpoint dir configured: an explicit checkpoint request is a
    // protocol-level error, not a panic.
    assert!(matches!(
        service.handle(&Request::Checkpoint),
        Response::Error { .. }
    ));
}

#[test]
fn a_failed_checkpoint_rename_is_an_io_error_not_a_parse_error() {
    let dir = fresh_dir("restart-ckpt-rename");
    let service = Service::start(cfg_with_dir(&dir)).unwrap();
    let seq = match service.handle(&Request::Checkpoint) {
        Response::Checkpointed { seq } => seq,
        other => panic!("{other:?}"),
    };
    let mut ck = read_serve_checkpoint(&dir.join(checkpoint_file_name(seq))).unwrap();
    ck.seq += 1;
    let err = {
        // mkdir, temp-file write, sync, then the rename: the fourth IO
        // op of a checkpoint write.
        let _armed = FailGuard::fail_from(4);
        write_serve_checkpoint(&dir, &ck).unwrap_err()
    };
    assert!(matches!(err, DbpError::Io { .. }), "{err:?}");
    let msg = err.to_string();
    assert!(
        msg.starts_with("I/O error: committing") && msg.contains("ckpt_rename"),
        "{msg}"
    );
    assert!(!msg.contains("trace parse error"), "{msg}");
    // An explicit checkpoint request reports it the same way.
    let _armed = FailGuard::fail_from(4);
    match service.handle(&Request::Checkpoint) {
        Response::Error { what } => {
            assert!(what.contains("I/O error: committing"), "{what}");
            assert!(!what.contains("trace parse error"), "{what}");
        }
        other => panic!("{other:?}"),
    }
}
