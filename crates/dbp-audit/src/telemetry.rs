//! The telemetry audit family: seeded sweeps proving that the
//! [`dbp_telemetry`] *work* histograms honor their determinism contract:
//!
//! 1. **Replay bit-identity** — two [`profile_stream`] runs over the
//!    same stream produce `==`-identical work histograms, and the
//!    candidate histogram agrees with the scalar counters
//!    ([`CheckId::TelemetryReplay`]).
//! 2. **Merge order-independence** — a sharded fleet's merged work
//!    histograms are identical across worker counts, equal the shard-order
//!    fold of the per-slice snapshots, and (for K = 1) equal the
//!    unsharded profile ([`CheckId::TelemetryMerge`]).
//!
//! Run (wall-clock) histograms are deliberately *not* compared — they
//! vary run to run by design; the audit only asserts the work half,
//! which is the half golden tests and the perf gate rely on.
//!
//! Cases reuse [`crate::fuzz::case_instance`] and the shard family's
//! router rotation, so a telemetry failure reproduces from
//! `(seed, case)` like every other audit failure.

use crate::diff::clairvoyance_for;
use crate::fuzz::{case_instance, isolated, run_sweep};
use crate::invariants::{CheckId, Violation};
use crate::shard::{case_router, stream_order};
use crate::AuditSummary;
use dbp_bench::registry::{online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_core::{DbpError, Instance, Item};
use dbp_shard::{ShardConfig, ShardReport, ShardRouter, ShardedSession};
use dbp_telemetry::{profile_stream, Profile, TelemetrySnapshot};

/// Telemetry-sweep configuration.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryAuditConfig {
    /// Number of generated cases.
    pub cases: u64,
    /// Master seed; instances and routers derive from it.
    pub seed: u64,
    /// Upper bound on generated instance size.
    pub max_items: usize,
    /// Worker threads for the sweep grid (`None` = available
    /// parallelism).
    pub threads: Option<usize>,
}

impl Default for TelemetryAuditConfig {
    fn default() -> Self {
        TelemetryAuditConfig {
            cases: 50,
            seed: 0,
            max_items: 32,
            threads: None,
        }
    }
}

fn run_profile(items: &[Item], algo: &str, params: AlgoParams) -> Result<Profile, DbpError> {
    let mut packer = online_packer(algo, params);
    // Tiny batches exercise the span chunking; sampled timing is fine —
    // the audit only reads work histograms, which timing never touches.
    profile_stream(clairvoyance_for(algo), packer.as_mut(), items, 8, false)
}

fn run_sharded_telemetry(
    items: &[Item],
    algo: &str,
    params: AlgoParams,
    router: ShardRouter,
    k: usize,
    workers: usize,
) -> Result<ShardReport, DbpError> {
    let cfg = ShardConfig {
        threads: Some(workers),
        batch: 4, // tiny batches exercise the flush boundaries
        collect_telemetry: true,
        ..ShardConfig::new(k, router)
    };
    let packers = (0..k).map(|_| online_packer(algo, params)).collect();
    let mut fleet = ShardedSession::new(clairvoyance_for(algo), packers, cfg)?;
    for item in items {
        fleet.arrive(item)?;
    }
    fleet.finish()
}

/// Extracts the fleet work metrics, reporting a violation when the
/// session failed to attach telemetry despite `collect_telemetry`.
fn fleet_work<'a>(
    report: &'a ShardReport,
    algo: &str,
    k: usize,
    workers: usize,
    out: &mut Vec<Violation>,
) -> Option<&'a dbp_telemetry::WorkMetrics> {
    match &report.telemetry {
        Some(t) => Some(&t.work),
        None => {
            out.push(Violation::new(
                CheckId::TelemetryMerge,
                format!("{algo} k={k} workers={workers}: fleet telemetry missing"),
            ));
            None
        }
    }
}

/// Runs one algorithm's telemetry audit on one instance for one
/// `(router, K)`: the replay bit-identity check plus the fleet merge
/// checks across worker counts 1 and 2.
pub fn audit_telemetry_algo(
    inst: &Instance,
    algo: &str,
    router: ShardRouter,
    k: usize,
) -> Vec<Violation> {
    let params = AlgoParams::from_instance(inst);
    let items = stream_order(inst);
    let mut out = Vec::new();

    // 1. Replay bit-identity of the single-session profile.
    let first = match run_profile(&items, algo, params) {
        Ok(p) => p,
        Err(e) => {
            return vec![Violation::new(
                CheckId::EngineError,
                format!("{algo}: profile run failed: {e}"),
            )]
        }
    };
    match run_profile(&items, algo, params) {
        Ok(second) => {
            if first.telemetry.work != second.telemetry.work {
                out.push(Violation::new(
                    CheckId::TelemetryReplay,
                    format!("{algo}: work histograms differ between two replays"),
                ));
            }
        }
        Err(e) => out.push(Violation::new(
            CheckId::EngineError,
            format!("{algo}: profile replay failed: {e}"),
        )),
    }
    // The candidates histogram strides deterministically: every
    // WORK_SAMPLE_INTERVAL-th placement contributes exactly one sample,
    // so a session that packed n items holds ceil(n / stride) of them.
    let expected_samples = first
        .counters
        .items_packed
        .div_ceil(dbp_telemetry::WORK_SAMPLE_INTERVAL as u64);
    if first.telemetry.work.candidates.count() != expected_samples {
        out.push(Violation::new(
            CheckId::TelemetryReplay,
            format!(
                "{algo}: {} candidate samples for {} placements (expected {})",
                first.telemetry.work.candidates.count(),
                first.counters.items_packed,
                expected_samples
            ),
        ));
    }

    // 2. Fleet merge across worker counts.
    let mut reports = Vec::new();
    for workers in [1usize, 2] {
        match run_sharded_telemetry(&items, algo, params, router, k, workers) {
            Ok(r) => reports.push((workers, r)),
            Err(e) => out.push(Violation::new(
                CheckId::EngineError,
                format!("{algo} k={k} workers={workers}: sharded run failed: {e}"),
            )),
        }
    }
    let works: Vec<_> = reports
        .iter()
        .filter_map(|(w, r)| fleet_work(r, algo, k, *w, &mut out).map(|work| (*w, work)))
        .collect();
    if let [(_, base), rest @ ..] = works.as_slice() {
        for (workers, work) in rest {
            if work != base {
                out.push(Violation::new(
                    CheckId::TelemetryMerge,
                    format!("{algo} k={k}: fleet work histograms differ at {workers} workers"),
                ));
            }
        }
        // The fleet fold must equal merging the per-slice snapshots in
        // shard order — the coordinator adds nothing and loses nothing.
        if let Some((_, report)) = reports.first() {
            let parts: Vec<TelemetrySnapshot> = report
                .slices
                .iter()
                .filter_map(|s| s.telemetry.clone())
                .collect();
            if parts.len() != report.slices.len() {
                out.push(Violation::new(
                    CheckId::TelemetryMerge,
                    format!("{algo} k={k}: a slice is missing its telemetry snapshot"),
                ));
            } else if TelemetrySnapshot::merged(&parts).work != **base {
                out.push(Violation::new(
                    CheckId::TelemetryMerge,
                    format!("{algo} k={k}: fleet work != shard-order fold of slice snapshots"),
                ));
            }
        }
        // A single-shard fleet saw the identical event stream as the
        // unsharded profiled session.
        if k == 1 && **base != first.telemetry.work {
            out.push(Violation::new(
                CheckId::TelemetryMerge,
                format!("{algo}: single-shard fleet work differs from the unsharded profile"),
            ));
        }
    }
    out
}

/// Audits one instance against the online roster for K ∈ {1, 3}, each
/// `(algorithm, K)` cell panic-isolated.
pub fn audit_telemetry_instance(
    inst: &Instance,
    router: ShardRouter,
) -> Vec<(String, Vec<Violation>)> {
    let mut out = Vec::new();
    for algo in ONLINE_ALGOS {
        for k in [1usize, 3] {
            let v = match isolated(|| audit_telemetry_algo(inst, algo, router, k)) {
                Ok(v) => v,
                Err(msg) => vec![Violation::new(
                    CheckId::Panic,
                    format!("{algo} k={k}: {msg}"),
                )],
            };
            out.push((format!("{algo}/k{k}"), v));
        }
    }
    out
}

/// Runs the telemetry sweep. Same containment guarantees as
/// [`crate::fuzz::run_audit`]: any panic is confined to its cell.
pub fn run_telemetry_audit(cfg: &TelemetryAuditConfig) -> AuditSummary {
    let (seed, max_items) = (cfg.seed, cfg.max_items);
    run_sweep(cfg.cases, cfg.threads, move |case_idx| {
        let (family, inst) = case_instance(seed, case_idx, max_items);
        let router = case_router(seed, case_idx);
        (
            format!("telemetry[{}]:{family}", router.name()),
            audit_telemetry_instance(&inst, router),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_telemetry_sweep_is_clean() {
        let cfg = TelemetryAuditConfig {
            cases: 6,
            seed: 7,
            ..Default::default()
        };
        let summary = run_telemetry_audit(&cfg);
        assert_eq!(summary.cases, 6);
        assert_eq!(summary.cells, 6 * ONLINE_ALGOS.len() * 2);
        assert!(
            summary.ok(),
            "telemetry violations on a clean roster: {:?}",
            summary.failures
        );
    }

    #[test]
    fn indexed_scan_depths_are_probes_not_pool_size() {
        // Regression pin for the `candidates_scanned` contract: a deep
        // fleet of ~600 near-full bins (63/64 items, none ever shares)
        // must leave the scan-depth histogram flat, because indexed
        // packers report the index nodes actually probed — O(1) for
        // best/worst/next fit, O(log B) for first fit — never the size
        // of the pool the index covers. Before the indexed fit queries
        // this histogram scaled with the fleet, and the engine's
        // pool-size fallback would silently re-inflate it if a roster
        // packer ever stopped reporting; alongside the sample-count
        // invariant (also pinned here, the one `telemetry-audit`
        // checks), this is what keeps the histograms honest.
        use dbp_core::{Item, Size};
        let items: Vec<Item> = (0..600)
            .map(|i| {
                Item::new(
                    i,
                    Size::from_ratio(63, 64).unwrap(),
                    i as i64,
                    10_000 + i as i64,
                )
            })
            .collect();
        let params = AlgoParams { delta: 1, mu: 1.0 };
        for algo in ["first-fit", "best-fit", "worst-fit", "next-fit"] {
            let profile = run_profile(&items, algo, params).unwrap();
            let work = &profile.telemetry.work;
            assert_eq!(
                work.candidates.count(),
                profile
                    .counters
                    .items_packed
                    .div_ceil(dbp_telemetry::WORK_SAMPLE_INTERVAL as u64),
                "{algo}: sample-count invariant broken"
            );
            assert!(
                work.candidates.max() <= 16,
                "{algo}: scan-depth histogram max {} on a ~600-bin fleet \
                 looks like pool size, not probes",
                work.candidates.max(),
            );
        }
    }

    #[test]
    fn replay_check_catches_a_seed_that_ran() {
        // One direct cell run: a clean roster must produce no violations
        // and the profile must exercise every histogram family.
        let (_, inst) = case_instance(11, 0, 24);
        let v = audit_telemetry_algo(&inst, "first-fit", ShardRouter::SizeClass, 3);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }
}
