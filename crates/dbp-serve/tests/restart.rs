//! Restart semantics: kill-and-resume bit-identity, torn-checkpoint
//! fallback, and config-fingerprint validation.

use dbp_core::{DbpError, Size};
use dbp_resilience::failpoint::FailGuard;
use dbp_serve::protocol::{render_response, Request, Response, Submit};
use dbp_serve::state::{checkpoint_file_name, read_serve_checkpoint, write_serve_checkpoint};
use dbp_serve::{ServeConfig, Service};
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
        // dropped segments fully covered by the kept checkpoints.
        let segments = std::fs::read_dir(dir.join("wal")).unwrap().count();
        assert!(
            segments <= 3 * 2 + 1,
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
