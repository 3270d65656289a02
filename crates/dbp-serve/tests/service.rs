//! Service-level behaviour: differential equivalence with plain
//! streaming sessions, typed rejects, and multi-tenant accounting.

use dbp_bench::registry::{online_packer, AlgoParams};
use dbp_core::stream::{Admission, StreamingSession};
use dbp_core::{ClairvoyanceMode, Item, Size};
use dbp_serve::protocol::{RejectReason, Request, Response, Submit};
use dbp_serve::{ServeConfig, Service};

fn submit(tenant: &str, job: u32, size: f64, arrival: i64, departure: i64) -> Request {
    Request::Submit(Submit {
        tenant: tenant.into(),
        job,
        size: None,
        size_raw: Some(Size::from_f64(size).raw()),
        arrival,
        departure,
    })
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

/// Feeds one stream to an uncapped `shards`-shard service and to
/// `shards` plain streaming sessions routed by the same
/// `ShardRouter::route`: every placement must agree on shard and bin.
fn service_matches_plain_sessions(shards: usize) {
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
    for (id, size, arrival, departure) in stream(300) {
        let resp = service.handle(&submit("t", id, size, arrival, departure));
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
        let run = session.finish().unwrap();
        assert!(run.bins_opened() > 0, "the stream never reached a shard");
    }
}

#[test]
fn single_shard_service_matches_a_plain_streaming_session() {
    service_matches_plain_sessions(1);
}

#[test]
fn multi_shard_service_matches_independent_sessions() {
    service_matches_plain_sessions(3);
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
