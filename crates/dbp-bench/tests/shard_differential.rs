//! Roster-wide sharded-vs-unsharded differential: for every online
//! roster algorithm, a sharded run must equal running each
//! router-induced sub-stream through its own plain session — per-shard
//! runs bit-identical, merged totals exact, and the merged packing valid
//! against the full instance.

use dbp_bench::registry::{online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_core::stream::StreamingSession;
use dbp_core::{ClairvoyanceMode, Instance, OnlineRun, RunRecorder};
use dbp_shard::{ShardConfig, ShardRouter, ShardedSession};
use dbp_workloads::random::PoissonWorkload;
use dbp_workloads::Workload;

fn workload_instance() -> Instance {
    PoissonWorkload::new(1.5, 1200).generate_seeded(5)
}

fn reference_runs(
    inst: &Instance,
    algo: &str,
    params: AlgoParams,
    router: ShardRouter,
    k: usize,
) -> Vec<OnlineRun> {
    (0..k)
        .map(|shard| {
            let mut packer = online_packer(algo, params);
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

#[test]
fn every_roster_algo_shards_differentially() {
    let inst = workload_instance();
    let params = AlgoParams::from_instance(&inst);
    let router = ShardRouter::hash();
    for algo in ONLINE_ALGOS {
        for k in [2usize, 3] {
            let cfg = ShardConfig {
                threads: Some(2),
                batch: 64,
                collect_metrics: false,
                ..ShardConfig::new(k, router)
            };
            let packers = (0..k).map(|_| online_packer(algo, params)).collect();
            let mut fleet =
                ShardedSession::new(ClairvoyanceMode::Clairvoyant, packers, cfg).unwrap();
            for item in inst.items() {
                fleet.arrive(item).unwrap();
            }
            let report = fleet.finish().unwrap();
            let reference = reference_runs(&inst, algo, params, router, k);
            let ctx = format!("{algo} k={k}");
            for (slice, reference_run) in report.slices.iter().zip(&reference) {
                assert_eq!(
                    &slice.run, reference_run,
                    "{ctx}: shard {} diverges from plain session",
                    slice.shard
                );
            }
            assert_eq!(
                report.usage,
                reference.iter().map(|r| r.usage).sum::<u128>(),
                "{ctx}: merged usage"
            );
            assert_eq!(report.items, inst.len() as u64, "{ctx}: exactly-once items");
            let merged = report.merged_run();
            merged
                .packing
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{ctx}: merged packing invalid: {e}"));
            assert_eq!(merged.usage, report.usage, "{ctx}: merged run usage");
        }
    }
}
