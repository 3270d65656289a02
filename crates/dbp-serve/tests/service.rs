//! Service-level behaviour: differential equivalence with plain
//! streaming sessions, typed rejects, and multi-tenant accounting.

use dbp_algos::registry::{online_packer, AlgoParams};
use dbp_core::stream::{Admission, StreamingSession};
use dbp_core::{ClairvoyanceMode, Item, Size};
use dbp_resilience::failpoint;
use dbp_serve::protocol::{render_response, RejectReason, Request, Response, Submit};
use dbp_serve::torture::{drive, torture_stream};
use dbp_serve::{FsyncPolicy, ServeConfig, Service};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

fn job(tenant: &str, id: u32, size: f64, arrival: i64, departure: i64) -> Submit {
    Submit {
        tenant: tenant.into(),
        job: id,
        size: None,
        size_raw: Some(Size::from_f64(size).raw()),
        arrival,
        departure,
    }
}

fn submit(tenant: &str, id: u32, size: f64, arrival: i64, departure: i64) -> Request {
    Request::Submit(job(tenant, id, size, arrival, departure))
}

/// A deterministic pseudo-random job stream (no RNG dependency).
fn stream(n: u32) -> Vec<(u32, f64, i64, i64)> {
    (0..n)
        .map(|i| {
            let size = 0.1 + 0.5 * f64::from(i.wrapping_mul(2_654_435_761) % 1000) / 1000.0;
            let arrival = i64::from(i);
            (i, size, arrival, arrival + 5 + i64::from(i % 37))
        })
        .collect()
}

/// Feeds one stream, in read batches of `batch` submissions, to an
/// uncapped `shards`-shard service and to `shards` plain streaming
/// sessions routed by the same `ShardRouter::route`: every placement
/// must agree on shard and bin.
fn service_matches_plain_sessions(shards: usize, batch: usize) {
    let cfg = ServeConfig::new(shards, "best-fit");
    let router = cfg.router;
    let service = Service::start(cfg).unwrap();
    let mut packers: Vec<_> = (0..shards)
        .map(|_| online_packer("best-fit", AlgoParams { delta: 1, mu: 1.0 }))
        .collect();
    let mut sessions: Vec<_> = packers
        .iter_mut()
        .map(|p| StreamingSession::new(ClairvoyanceMode::Clairvoyant, p.as_mut()))
        .collect();
    let jobs = stream(300);
    let submits: Vec<Submit> = jobs
        .iter()
        .map(|&(id, size, arrival, departure)| job("t", id, size, arrival, departure))
        .collect();
    let responses: Vec<Response> = submits
        .chunks(batch)
        .flat_map(|chunk| service.handle_batch(chunk))
        .collect();
    assert_eq!(responses.len(), jobs.len());
    for ((id, size, arrival, departure), resp) in jobs.into_iter().zip(responses) {
        let item = Item::new(id, Size::from_f64(size), arrival, departure);
        let want_shard = router.route(&item, shards);
        let expect = match sessions[want_shard]
            .arrive_capped(&item, usize::MAX)
            .unwrap()
        {
            Admission::Placed(bin) => bin,
            Admission::Shed => panic!("uncapped session shed item {id}"),
        };
        match resp {
            Response::Placed { shard, bin, .. } => {
                assert_eq!(shard, want_shard);
                assert_eq!(bin, expect.0, "job {id} diverged from the plain session");
            }
            other => panic!("job {id}: service answered {other:?}"),
        }
    }
    for session in sessions {
        let totals = session.finish().unwrap();
        assert!(totals.bins_opened > 0, "the stream never reached a shard");
    }
}

#[test]
fn single_shard_service_matches_a_plain_streaming_session() {
    for batch in [1, 7] {
        service_matches_plain_sessions(1, batch);
    }
}

#[test]
fn multi_shard_service_matches_independent_sessions() {
    for batch in [1, 7] {
        service_matches_plain_sessions(3, batch);
    }
}

/// Every file under `dir`, by name, with its bytes.
fn files_under(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for sub in ["ckpt", "wal"] {
        for entry in std::fs::read_dir(dir.join(sub)).unwrap() {
            let path = entry.unwrap().path();
            let name = format!("{sub}/{}", path.file_name().unwrap().to_string_lossy());
            files.insert(name, std::fs::read(&path).unwrap());
        }
    }
    files
}

/// Batching changes only the number of syncs: a `fsync always` service
/// with sheds and mid-batch checkpoints, fed one request at a time in
/// one directory and in read batches in another, gives byte-identical
/// responses, WAL segments and checkpoint files.
#[test]
fn read_batches_leave_responses_wal_and_checkpoints_byte_identical() {
    let root = std::env::temp_dir().join(format!("dbp-serve-batch-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let jobs = torture_stream(300);
    let boot = |name: &str| {
        let dir = root.join(name);
        let mut cfg = ServeConfig::new(2, "first-fit");
        cfg.fleet_cap = Some(5);
        cfg.checkpoint_dir = Some(dir.join("ckpt"));
        cfg.checkpoint_every = 20;
        cfg.wal_dir = Some(dir.join("wal"));
        cfg.fsync = FsyncPolicy::Always;
        (Service::start(cfg).unwrap(), dir)
    };
    let (single, single_dir) = boot("single");
    let one_at_a_time: Vec<String> = jobs
        .iter()
        .map(|s| render_response(&single.handle(&Request::Submit(s.clone()))))
        .collect();
    let (batched, batched_dir) = boot("batched");
    let (in_batches, failed_batch) = drive(&batched, &jobs);
    assert_eq!(failed_batch, None);
    assert_eq!(in_batches, one_at_a_time);
    assert!(
        one_at_a_time.iter().any(|r| r.contains("fleet_capacity")),
        "the stream must shed, or the fleet cap is untested"
    );
    drop((single, batched));
    let (a, b) = (files_under(&single_dir), files_under(&batched_dir));
    assert_eq!(a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>());
    for (name, bytes) in &a {
        assert!(bytes == &b[name], "{name} differs between the two runs");
    }
    assert!(a.keys().any(|n| n.starts_with("ckpt/")) && a.keys().any(|n| n.starts_with("wal/")));
    let _ = std::fs::remove_dir_all(&root);
}

/// A first-fit service's counter `name` from its `/metrics` text.
fn counter(service: &Service, name: &str) -> u64 {
    let text = match service.handle(&Request::Metrics) {
        Response::Metrics { text } => text,
        other => panic!("{other:?}"),
    };
    text.lines()
        .find_map(|l| {
            l.strip_prefix(name)?
                .strip_prefix("{algo=\"first-fit\"} ")?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no {name} in the exposition"))
}

/// One log for every shard: under `fsync always`, a read batch that
/// routes to both shards reaches the disk in one write and one
/// `fdatasync` — two failpoint IO ops, whatever the shard count.
#[test]
fn a_two_shard_read_batch_costs_one_write_and_one_sync() {
    let dir = std::env::temp_dir().join(format!("dbp-serve-one-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::new(2, "first-fit");
    cfg.wal_dir = Some(dir.clone());
    cfg.fsync = FsyncPolicy::Always;
    let service = Service::start(cfg).unwrap();
    let jobs = torture_stream(16);
    let shards_of = |responses: Vec<Response>| -> BTreeSet<usize> {
        responses
            .into_iter()
            .map(|r| match r {
                Response::Placed { shard, .. } => shard,
                other => panic!("{other:?}"),
            })
            .collect()
    };
    // The first batch opens the segment and fsyncs its directory.
    assert_eq!(shards_of(service.handle_batch(&jobs[..8])).len(), 2);
    let syncs = counter(&service, "dbp_serve_wal_syncs_total");
    let frames = counter(&service, "dbp_serve_wal_frames_total");
    failpoint::reset_thread();
    let responses = service.handle_batch(&jobs[8..]);
    let ops = failpoint::thread_ops();
    assert_eq!(
        shards_of(responses).len(),
        2,
        "the batch must route to both shards"
    );
    assert_eq!(ops, 2, "one wal_append and one wal_fsync per read batch");
    assert_eq!(counter(&service, "dbp_serve_wal_syncs_total") - syncs, 1);
    assert_eq!(counter(&service, "dbp_serve_wal_frames_total") - frames, 8);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `dbp_serve_*` family a service with a WAL and a checkpoint
/// directory exports, with its `# TYPE`, in exposition order. Adding,
/// renaming or retyping a family is a change to this list and to
/// `docs/observability.md`.
const SERVE_FAMILIES: &[(&str, &str)] = &[
    ("dbp_serve_jobs_total", "counter"),
    ("dbp_serve_placed_total", "counter"),
    ("dbp_serve_shed_total", "counter"),
    ("dbp_serve_rejected_total", "counter"),
    ("dbp_serve_checkpoint_seq", "counter"),
    ("dbp_serve_decision_seq", "counter"),
    ("dbp_serve_open_bins", "gauge"),
    ("dbp_serve_checkpoint_bytes", "gauge"),
    ("dbp_serve_checkpoint_ns", "histogram"),
    ("dbp_serve_place_ns", "histogram"),
    ("dbp_serve_submit_batch_size", "histogram"),
    ("dbp_serve_wal_frames_total", "counter"),
    ("dbp_serve_wal_bytes_total", "counter"),
    ("dbp_serve_wal_syncs_total", "counter"),
    ("dbp_serve_wal_frames_since_checkpoint", "gauge"),
    ("dbp_serve_wal_bytes_since_checkpoint", "gauge"),
    ("dbp_serve_wal_append_ns", "histogram"),
    ("dbp_serve_wal_commit_ns", "histogram"),
    ("dbp_serve_recovery_duration_ns", "gauge"),
    ("dbp_serve_recovery_replayed_frames", "gauge"),
    ("dbp_serve_recovery_wal_bytes", "gauge"),
    ("dbp_serve_recovery_truncated_files", "gauge"),
    ("dbp_serve_recovery_dropped_frames", "gauge"),
];

/// The golden `/metrics` scrape: a service booted with a WAL and a
/// checkpoint directory exports exactly [`SERVE_FAMILIES`], each with
/// one `# HELP` and one `# TYPE`, and every sample belongs to a declared
/// family.
#[test]
fn the_serve_exposition_exports_exactly_its_documented_families() {
    let root = std::env::temp_dir().join(format!("dbp-serve-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = ServeConfig::new(2, "first-fit");
    cfg.wal_dir = Some(root.join("wal"));
    cfg.checkpoint_dir = Some(root.join("ckpt"));
    cfg.checkpoint_every = 4;
    let service = Service::start(cfg).unwrap();
    let (acked, failed) = drive(&service, &torture_stream(10));
    assert_eq!((acked.len(), failed), (10, None));
    let text = match service.handle(&Request::Metrics) {
        Response::Metrics { text } => text,
        other => panic!("{other:?}"),
    };
    let typed: Vec<(&str, &str)> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' '))
        .collect();
    assert_eq!(typed, SERVE_FAMILIES, "the exported families moved");
    for (family, _) in SERVE_FAMILIES {
        let help = format!("# HELP {family} ");
        assert_eq!(
            text.lines().filter(|l| l.starts_with(&help)).count(),
            1,
            "{family}"
        );
    }
    for sample in text.lines().filter(|l| !l.starts_with('#')) {
        let name = sample.split(['{', ' ']).next().unwrap();
        let declared = SERVE_FAMILIES.iter().any(|(family, kind)| {
            name == *family
                || (*kind == "histogram"
                    && ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|suffix| name.strip_suffix(suffix) == Some(family)))
        });
        assert!(declared, "sample of an undeclared family: {sample}");
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fleet_cap_sheds_with_typed_rejects_then_recovers() {
    let mut cfg = ServeConfig::new(1, "first-fit");
    cfg.fleet_cap = Some(2);
    let service = Service::start(cfg).unwrap();
    // Three capacity-hogging jobs: two fill the fleet, the third is shed.
    for (job, expect_placed) in [(0u32, true), (1, true), (2, false)] {
        match service.handle(&submit("t", job, 0.9, 0, 50)) {
            Response::Placed { .. } => assert!(expect_placed, "job {job} should have been shed"),
            Response::Rejected { reason, .. } => {
                assert!(!expect_placed, "job {job} should have been placed");
                assert_eq!(reason, RejectReason::FleetCapacity);
            }
            other => panic!("job {job}: {other:?}"),
        }
    }
    // A shed is a *decision*: re-presenting the id is a duplicate.
    match service.handle(&submit("t", 2, 0.9, 10, 60)) {
        Response::Rejected { reason, .. } => assert_eq!(reason, RejectReason::DuplicateJob),
        other => panic!("{other:?}"),
    }
    // After the first two depart, capacity frees up and new jobs place.
    match service.handle(&submit("t", 3, 0.9, 100, 150)) {
        Response::Placed { .. } => {}
        other => panic!("job 3 should place after departures: {other:?}"),
    }
    // Sheds and placements both count; nothing surfaced as an error.
    match service.handle(&Request::Status) {
        Response::Status(s) => {
            assert_eq!(s.placed, 3);
            assert_eq!(s.shed, 1);
            assert_eq!(s.rejected, 1);
            assert_eq!(s.watermark, 4, "ids 0..4 are all decided");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn invalid_duplicate_and_stale_submissions_get_typed_rejects() {
    let service = Service::start(ServeConfig::new(2, "first-fit")).unwrap();
    let reject_of = |resp: Response| match resp {
        Response::Rejected { reason, .. } => reason,
        other => panic!("expected a reject, got {other:?}"),
    };
    assert!(matches!(
        service.handle(&submit("t", 0, 0.5, 10, 20)),
        Response::Placed { .. }
    ));
    // Duplicate id.
    assert_eq!(
        reject_of(service.handle(&submit("t", 0, 0.5, 11, 21))),
        RejectReason::DuplicateJob
    );
    // Arrival behind the stream clock.
    assert_eq!(
        reject_of(service.handle(&submit("t", 1, 0.5, 5, 20))),
        RejectReason::ArrivalOutOfOrder
    );
    // Sizes outside (0, 1] and an empty interval.
    assert_eq!(
        reject_of(service.handle(&submit("t", 2, 0.0, 12, 20))),
        RejectReason::InvalidJob
    );
    assert_eq!(
        reject_of(service.handle(&submit("t", 2, 1.5, 12, 20))),
        RejectReason::InvalidJob
    );
    assert_eq!(
        reject_of(service.handle(&submit("t", 2, 0.5, 12, 12))),
        RejectReason::InvalidJob
    );
    // Rejects are not decisions: the same ids, corrected, still work.
    assert!(matches!(
        service.handle(&submit("t", 1, 0.5, 12, 22)),
        Response::Placed { .. }
    ));
    assert!(matches!(
        service.handle(&submit("t", 2, 0.5, 13, 23)),
        Response::Placed { .. }
    ));
}

#[test]
fn tenants_are_accounted_separately_and_exposed_in_metrics() {
    let mut cfg = ServeConfig::new(1, "first-fit");
    cfg.fleet_cap = Some(1);
    let service = Service::start(cfg).unwrap();
    assert!(matches!(
        service.handle(&submit("alpha", 0, 0.9, 0, 50)),
        Response::Placed { .. }
    ));
    // beta's job needs a second server: shed, charged to beta.
    assert!(matches!(
        service.handle(&submit("beta", 1, 0.9, 1, 50)),
        Response::Rejected {
            reason: RejectReason::FleetCapacity,
            ..
        }
    ));
    // beta also sends a duplicate.
    assert!(matches!(
        service.handle(&submit("beta", 1, 0.9, 2, 50)),
        Response::Rejected {
            reason: RejectReason::DuplicateJob,
            ..
        }
    ));
    let text = match service.handle(&Request::Metrics) {
        Response::Metrics { text } => text,
        other => panic!("{other:?}"),
    };
    assert!(text.contains("dbp_serve_jobs_total{tenant=\"alpha\",outcome=\"placed\"} 1"));
    assert!(text.contains("dbp_serve_jobs_total{tenant=\"alpha\",outcome=\"shed\"} 0"));
    assert!(text.contains("dbp_serve_jobs_total{tenant=\"beta\",outcome=\"shed\"} 1"));
    assert!(text.contains("dbp_serve_jobs_total{tenant=\"beta\",outcome=\"rejected\"} 1"));
    assert!(text.contains("dbp_serve_jobs_total{tenant=\"beta\",outcome=\"submitted\"} 2"));
    assert!(text.contains("dbp_serve_open_bins{shard=\"0\"} 1"));
    assert!(text.contains("# TYPE dbp_serve_place_ns histogram"));
    // Only decided submissions (placed or shed) time a placement; the
    // duplicate was rejected before reaching a shard.
    assert!(text.contains("dbp_serve_place_ns_count{algo=\"first-fit\"} 2"));
}

#[test]
fn config_validation_catches_bad_parameters() {
    assert!(Service::start(ServeConfig::new(0, "first-fit")).is_err());
    assert!(Service::start(ServeConfig::new(1, "no-such-algo")).is_err());
    let mut cfg = ServeConfig::new(1, "first-fit");
    cfg.fleet_cap = Some(0);
    assert!(Service::start(cfg).is_err());
    let mut cfg = ServeConfig::new(1, "first-fit");
    cfg.checkpoint_every = 0;
    assert!(Service::start(cfg).is_err());
}

#[test]
fn a_poisoned_state_lock_degrades_to_typed_errors() {
    let service = Service::start(ServeConfig::new(1, "first-fit")).unwrap();
    assert!(matches!(
        service.handle(&submit("t", 0, 0.4, 0, 9)),
        Response::Placed { .. }
    ));
    // A handler panicking while holding the state lock poisons it. Every
    // later request must get a typed error — no panic, no unwrap crash —
    // and dropping the service must still be clean.
    service.poison_for_tests();
    for req in [
        submit("t", 1, 0.4, 1, 9),
        Request::Status,
        Request::Metrics,
        Request::Checkpoint,
    ] {
        match service.handle(&req) {
            Response::Error { what } => assert!(what.contains("poisoned"), "got: {what}"),
            other => panic!("expected a typed error, got {other:?}"),
        }
    }
    match service.handle(&Request::Shutdown) {
        Response::Error { what } => assert!(what.contains("poisoned")),
        other => panic!("expected a typed error, got {other:?}"),
    }
}
