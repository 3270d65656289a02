//! Chaos-runner invariants: every job is accounted for exactly once,
//! capacity is never exceeded post-recovery, and the degenerate
//! configuration reproduces a fault-free run.

use dbp_algos::registry::{clairvoyance_for, online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_core::{ClairvoyanceMode, Instance, RunRecorder, StreamingSession};
use dbp_resilience::chaos::{run_chaos, simulate_chaos, ChaosConfig, JobOutcome};
use dbp_resilience::fault::{AdmissionPolicy, FaultEvent, FaultKind, FaultPlan, RecoveryPolicy};
use dbp_sim::unit_billing;

fn workload() -> Instance {
    let mut triples = Vec::new();
    let mut state = 0xD1B5_4A32u64;
    let mut t = 0i64;
    for i in 0..30 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let size = 0.1 + (state >> 40) as f64 / (1u64 << 24) as f64 * 0.8;
        let dur = 5 + (state % 60) as i64;
        triples.push((size.min(0.9), t, t + dur));
        if i % 2 == 0 {
            t += 1 + (state % 4) as i64;
        }
    }
    Instance::from_triples(&triples)
}

#[test]
fn every_roster_packer_survives_seeded_faults() {
    let inst = workload();
    let params = AlgoParams::from_instance(&inst);
    let horizon = inst.last_departure().unwrap_or(1);
    let policies = [
        RecoveryPolicy::Immediate,
        RecoveryPolicy::Backoff {
            base: 2,
            cap: 16,
            max_retries: 3,
        },
        RecoveryPolicy::DropAfter { max_retries: 1 },
    ];
    for (ai, algo) in ONLINE_ALGOS.iter().enumerate() {
        let cfg = ChaosConfig {
            plan: FaultPlan::seeded(41 + ai as u64, horizon, 6),
            policy: policies[ai % policies.len()],
            fleet_cap: None,
            admission: AdmissionPolicy::Reject,
        };
        let mut packer = online_packer(algo, params);
        let rep = run_chaos(&inst, &mut *packer, clairvoyance_for(algo), &cfg).unwrap();
        rep.verify(&inst)
            .unwrap_or_else(|e| panic!("{algo}: oracle rejected the run: {e}"));
        assert_eq!(rep.outcomes.len(), inst.len(), "{algo}");
        assert_eq!(rep.faults_applied, 6, "{algo}");
        let c = rep.retry_counters();
        assert_eq!(
            c.jobs_completed + c.jobs_retried + c.jobs_dropped + c.jobs_rejected,
            inst.len() as u64,
            "{algo}: outcomes must partition the jobs"
        );
    }
}

#[test]
fn no_faults_no_cap_reproduces_the_plain_run() {
    let inst = workload();
    let params = AlgoParams::from_instance(&inst);
    for algo in ONLINE_ALGOS {
        let cfg = ChaosConfig::default();
        let mut packer = online_packer(algo, params);
        let rep = run_chaos(&inst, &mut *packer, clairvoyance_for(algo), &cfg).unwrap();
        rep.verify(&inst).unwrap();
        assert!(rep.outcomes.iter().all(|o| *o == JobOutcome::Completed));
        assert_eq!(rep.servers_killed, 0);
        // The run matches a plain streaming session fed the same items.
        let mut items = inst.items().to_vec();
        items.sort_by_key(|i| (i.arrival(), i.id()));
        let mut plain = online_packer(algo, params);
        let mut history = RunRecorder::new();
        let mut s =
            StreamingSession::with_observer(clairvoyance_for(algo), &mut *plain, &mut history);
        for item in &items {
            s.arrive(item).unwrap();
        }
        let totals = s.finish().unwrap();
        assert_eq!(
            (rep.run.usage, rep.run.bins_opened()),
            (totals.usage, totals.bins_opened)
        );
        assert_eq!(rep.run, history.into_run(), "{algo}");
    }
}

#[test]
fn crash_with_no_retries_drops_every_live_job() {
    // All three jobs are running at t=10 when the fleet crashes.
    let inst = Instance::from_triples(&[(0.4, 0, 30), (0.4, 2, 25), (0.5, 5, 40)]);
    let cfg = ChaosConfig {
        plan: FaultPlan::new(
            0,
            vec![FaultEvent {
                at: 10,
                kind: FaultKind::Crash,
            }],
        ),
        policy: RecoveryPolicy::DropAfter { max_retries: 0 },
        fleet_cap: None,
        admission: AdmissionPolicy::Reject,
    };
    let mut packer = online_packer("first-fit", AlgoParams::from_instance(&inst));
    let rep = run_chaos(&inst, &mut *packer, ClairvoyanceMode::NonClairvoyant, &cfg).unwrap();
    rep.verify(&inst).unwrap();
    assert!(rep
        .outcomes
        .iter()
        .all(|o| *o == JobOutcome::Dropped { retries: 0 }));
    assert_eq!(rep.jobs_displaced, 3);
    // Usage stops at the crash: both bins' lifetimes truncate to t=10.
    assert!(rep.run.bins.iter().all(|b| b.closed_at == 10));
}

#[test]
fn immediate_recovery_restarts_displaced_jobs() {
    let inst = Instance::from_triples(&[(0.6, 0, 20)]);
    let cfg = ChaosConfig {
        plan: FaultPlan::new(
            0,
            vec![FaultEvent {
                at: 5,
                kind: FaultKind::Crash,
            }],
        ),
        policy: RecoveryPolicy::Immediate,
        fleet_cap: None,
        admission: AdmissionPolicy::Reject,
    };
    let mut packer = online_packer("first-fit", AlgoParams::from_instance(&inst));
    let rep = run_chaos(&inst, &mut *packer, ClairvoyanceMode::NonClairvoyant, &cfg).unwrap();
    rep.verify(&inst).unwrap();
    assert_eq!(rep.outcomes, vec![JobOutcome::Retried { retries: 1 }]);
    assert_eq!(rep.submissions.len(), 2);
    // Restart-from-scratch: the retry runs its full 20-tick duration
    // from the failure instant.
    assert_eq!(rep.submissions[1].arrival, 5);
    assert_eq!(rep.submissions[1].departure, 25);
    assert_eq!(rep.run.usage, 5 + 20);
}

#[test]
fn backoff_delays_each_retry_and_eventually_drops() {
    // Crash at t=5, then at every retry landing point, so the job burns
    // its whole retry budget: resubmissions at 5+2, 7+4, 11+8.
    let inst = Instance::from_triples(&[(0.5, 0, 100)]);
    let crash_at = |at| FaultEvent {
        at,
        kind: FaultKind::Crash,
    };
    let cfg = ChaosConfig {
        plan: FaultPlan::new(
            0,
            vec![crash_at(5), crash_at(7), crash_at(11), crash_at(19)],
        ),
        policy: RecoveryPolicy::Backoff {
            base: 2,
            cap: 64,
            max_retries: 3,
        },
        fleet_cap: None,
        admission: AdmissionPolicy::Reject,
    };
    let mut packer = online_packer("first-fit", AlgoParams::from_instance(&inst));
    let rep = run_chaos(&inst, &mut *packer, ClairvoyanceMode::NonClairvoyant, &cfg).unwrap();
    rep.verify(&inst).unwrap();
    assert_eq!(rep.outcomes, vec![JobOutcome::Dropped { retries: 3 }]);
    let arrivals: Vec<i64> = rep.submissions.iter().map(|s| s.arrival).collect();
    assert_eq!(arrivals, vec![0, 7, 11, 19]);
}

#[test]
fn fleet_cap_queue_readmits_when_a_server_frees() {
    // Cap 1: the second job cannot open a second server at t=2 and is
    // queued until the first departs at t=10; it then runs 10..25.
    let inst = Instance::from_triples(&[(0.9, 0, 10), (0.9, 2, 17)]);
    let cfg = ChaosConfig {
        plan: FaultPlan::none(),
        policy: RecoveryPolicy::Immediate,
        fleet_cap: Some(1),
        admission: AdmissionPolicy::Queue,
    };
    let mut packer = online_packer("first-fit", AlgoParams::from_instance(&inst));
    let rep = run_chaos(&inst, &mut *packer, ClairvoyanceMode::NonClairvoyant, &cfg).unwrap();
    rep.verify(&inst).unwrap();
    assert_eq!(
        rep.outcomes,
        vec![JobOutcome::Completed, JobOutcome::Completed]
    );
    assert_eq!(rep.arrivals_shed, 1);
    let second = rep.submissions.last().unwrap();
    assert_eq!((second.arrival, second.departure), (10, 25));
    // Fleet never exceeded the cap.
    assert!(rep.run.fleet_series().max() <= 1);
}

#[test]
fn fleet_cap_reject_refuses_overflow_outright() {
    let inst = Instance::from_triples(&[(0.9, 0, 10), (0.9, 2, 17)]);
    let cfg = ChaosConfig {
        plan: FaultPlan::none(),
        policy: RecoveryPolicy::Immediate,
        fleet_cap: Some(1),
        admission: AdmissionPolicy::Reject,
    };
    let mut packer = online_packer("first-fit", AlgoParams::from_instance(&inst));
    let rep = run_chaos(&inst, &mut *packer, ClairvoyanceMode::NonClairvoyant, &cfg).unwrap();
    rep.verify(&inst).unwrap();
    assert_eq!(
        rep.outcomes,
        vec![JobOutcome::Completed, JobOutcome::Rejected]
    );
    assert_eq!(rep.run.bins.len(), 1);
}

#[test]
fn queue_rejects_when_no_server_will_ever_free() {
    // Cap 0: nothing is ever admitted, so queuing must not loop forever.
    let inst = Instance::from_triples(&[(0.5, 0, 10)]);
    let cfg = ChaosConfig {
        plan: FaultPlan::none(),
        policy: RecoveryPolicy::Immediate,
        fleet_cap: Some(0),
        admission: AdmissionPolicy::Queue,
    };
    let mut packer = online_packer("first-fit", AlgoParams::from_instance(&inst));
    let rep = run_chaos(&inst, &mut *packer, ClairvoyanceMode::NonClairvoyant, &cfg).unwrap();
    rep.verify(&inst).unwrap();
    assert_eq!(rep.outcomes, vec![JobOutcome::Rejected]);
}

#[test]
fn rack_failure_kills_only_the_failing_rack() {
    // Three 0.9 jobs → three bins (ids 0, 1, 2). Rack 1 of 2 holds bin 1.
    let inst = Instance::from_triples(&[(0.9, 0, 30), (0.9, 1, 30), (0.9, 2, 30)]);
    let cfg = ChaosConfig {
        plan: FaultPlan::new(
            0,
            vec![FaultEvent {
                at: 10,
                kind: FaultKind::RackFailure { rack: 1, racks: 2 },
            }],
        ),
        policy: RecoveryPolicy::DropAfter { max_retries: 0 },
        fleet_cap: None,
        admission: AdmissionPolicy::Reject,
    };
    let mut packer = online_packer("first-fit", AlgoParams::from_instance(&inst));
    let rep = run_chaos(&inst, &mut *packer, ClairvoyanceMode::NonClairvoyant, &cfg).unwrap();
    rep.verify(&inst).unwrap();
    assert_eq!(rep.servers_killed, 1);
    assert_eq!(
        rep.outcomes,
        vec![
            JobOutcome::Completed,
            JobOutcome::Dropped { retries: 0 },
            JobOutcome::Completed,
        ]
    );
}

#[test]
fn simulate_chaos_populates_retry_counters() {
    let inst = workload();
    let params = AlgoParams::from_instance(&inst);
    let horizon = inst.last_departure().unwrap_or(1);
    let cfg = ChaosConfig {
        plan: FaultPlan::seeded(9, horizon, 4),
        policy: RecoveryPolicy::Backoff {
            base: 1,
            cap: 8,
            max_retries: 2,
        },
        fleet_cap: Some(6),
        admission: AdmissionPolicy::Queue,
    };
    let mut packer = online_packer("first-fit", params);
    let rep = simulate_chaos(
        &inst,
        &mut *packer,
        ClairvoyanceMode::NonClairvoyant,
        unit_billing(),
        &cfg,
    )
    .unwrap();
    let retry = rep.retry.expect("chaos runs carry retry counters");
    assert_eq!(
        retry.jobs_completed + retry.jobs_retried + retry.jobs_dropped + retry.jobs_rejected,
        inst.len() as u64
    );
    // The observer stream saw the same failures and sheds the ledger did.
    assert_eq!(rep.counters.bins_failed, retry.servers_killed);
    assert_eq!(rep.counters.arrivals_shed, retry.arrivals_shed);
    assert_eq!(rep.cost, rep.usage as f64);
    assert!(rep.utilization > 0.0 && rep.utilization <= 1.0);
}
