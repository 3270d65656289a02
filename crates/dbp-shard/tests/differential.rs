//! Differential semantics: a sharded run is *defined* as running each
//! router-induced sub-stream through its own plain [`StreamingSession`].
//! These tests rebuild that definition by hand and demand bit-identical
//! per-shard runs and exact merged totals.

use dbp_algos::online::{AnyFit, ClassifyByDuration};
use dbp_core::online::ClairvoyanceMode;
use dbp_core::{Instance, OnlinePacker, RunRecorder, StreamingSession};
use dbp_shard::{ShardConfig, ShardRouter, ShardedSession};
use dbp_workloads::random::UniformWorkload;
use dbp_workloads::Workload;
use proptest::prelude::*;

fn duration_params(inst: &Instance) -> (i64, f64) {
    let durs: Vec<i64> = inst.items().iter().map(|it| it.duration()).collect();
    let min = durs.iter().copied().min().unwrap_or(1).max(1);
    let max = durs.iter().copied().max().unwrap_or(1).max(1);
    (min, max as f64 / min as f64)
}

fn packer_for(algo: &str, inst: &Instance) -> Box<dyn OnlinePacker + Send> {
    match algo {
        "ff" => Box::new(AnyFit::first_fit()),
        "bf" => Box::new(AnyFit::best_fit()),
        "cbd" => {
            let (delta, mu) = duration_params(inst);
            Box::new(ClassifyByDuration::with_known_durations(delta, mu))
        }
        other => panic!("unknown algo {other}"),
    }
}

/// Runs each shard's sub-stream through a plain session — the reference
/// semantics the sharded session must reproduce exactly.
fn reference_runs(
    inst: &Instance,
    algo: &str,
    router: ShardRouter,
    k: usize,
) -> Vec<dbp_core::OnlineRun> {
    (0..k)
        .map(|shard| {
            let mut packer = packer_for(algo, inst);
            let mut history = RunRecorder::new();
            let mut session = StreamingSession::with_observer(
                ClairvoyanceMode::Clairvoyant,
                packer.as_mut(),
                &mut history,
            );
            for item in inst.items() {
                if router.route(item, k) == shard {
                    session.arrive(item).expect("reference arrive");
                }
            }
            session.finish().expect("reference finish");
            history.into_run()
        })
        .collect()
}

fn check_instance(inst: &Instance, algo: &str, router: ShardRouter, k: usize) {
    let cfg = ShardConfig {
        threads: Some(2),
        batch: 13,
        collect_metrics: false,
        ..ShardConfig::new(k, router)
    };
    let packers: Vec<Box<dyn OnlinePacker + Send>> =
        (0..k).map(|_| packer_for(algo, inst)).collect();
    let mut fleet = ShardedSession::new(ClairvoyanceMode::Clairvoyant, packers, cfg).unwrap();
    for item in inst.items() {
        fleet.arrive(item).unwrap();
    }
    let report = fleet.finish().unwrap();
    let reference = reference_runs(inst, algo, router, k);
    let ctx = format!("{algo} router={} k={k}", report.router);
    assert_eq!(report.slices.len(), k, "{ctx}: slice count");
    for (slice, reference_run) in report.slices.iter().zip(&reference) {
        assert_eq!(
            &slice.run, reference_run,
            "{ctx}: shard {} diverges from its plain-session reference",
            slice.shard
        );
    }
    let reference_usage: u128 = reference.iter().map(|r| r.usage).sum();
    assert_eq!(report.usage, reference_usage, "{ctx}: merged usage");
    let reference_bins: u64 = reference.iter().map(|r| r.bins_opened() as u64).sum();
    assert_eq!(report.bins_opened, reference_bins, "{ctx}: merged bins");
}

#[test]
fn sharded_run_equals_per_shard_plain_sessions() {
    let inst = UniformWorkload::new(600).generate_seeded(11);
    for algo in ["ff", "bf", "cbd"] {
        for router in [
            ShardRouter::hash(),
            ShardRouter::SizeClass,
            ShardRouter::TagAffinity { rho: 20 },
        ] {
            for k in [1usize, 2, 3, 8] {
                check_instance(&inst, algo, router, k);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn random_instances_shard_differentially(
        seed in 0u64..1000,
        n in 20usize..200,
        k in 1usize..5,
        router_pick in 0usize..3,
    ) {
        let inst = UniformWorkload::new(n).generate_seeded(seed);
        let router = match router_pick {
            0 => ShardRouter::SeededHash { seed },
            1 => ShardRouter::SizeClass,
            _ => ShardRouter::TagAffinity { rho: 1 + (seed % 40) as i64 },
        };
        check_instance(&inst, "ff", router, k);
    }
}
