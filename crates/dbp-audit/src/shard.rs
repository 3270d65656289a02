//! The shard audit family: seeded sweeps checking that a
//! [`ShardedSession`] is exactly what it claims to be — K independent
//! plain sessions plus a lossless merge:
//!
//! 1. **Per-shard bit-identity** — each shard's run equals a plain
//!    [`StreamingSession`] fed that shard's router-induced sub-stream,
//!    and a single-shard fleet equals the unsharded session on the full
//!    stream ([`CheckId::ShardMerge`]).
//! 2. **Exactly-once accounting** — every item lands in exactly one
//!    shard, merged totals equal the per-slice sums, and the stitched
//!    [`dbp_shard::ShardReport::merged_run`] passes the full coverage +
//!    capacity sweep against the original instance
//!    ([`CheckId::ShardAccounting`], with capacity breaches classified
//!    as [`CheckId::Capacity`]).
//!
//! Cases reuse [`crate::fuzz::case_instance`], so a shard failure
//! reproduces from `(seed, case)` exactly like a plain audit failure;
//! the router rotates with the case.

use crate::diff::clairvoyance_for;
use crate::fuzz::{case_instance, isolated, mix, run_sweep};
use crate::invariants::{CheckId, Violation};
use crate::shrink::{shrink_instance, ShrinkBudget};
use crate::AuditSummary;
use dbp_bench::registry::{online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_core::{DbpError, Instance, Item, OnlineRun, StreamingSession};
use dbp_shard::{ShardConfig, ShardRouter, ShardedSession};

/// Shard-sweep configuration.
#[derive(Clone, Copy, Debug)]
pub struct ShardAuditConfig {
    /// Number of generated cases.
    pub cases: u64,
    /// Master seed; instances and routers derive from it.
    pub seed: u64,
    /// Upper bound on generated instance size.
    pub max_items: usize,
    /// Worker threads for the sweep grid (`None` = available
    /// parallelism). Each cell's sharded sessions use 2 inner workers.
    pub threads: Option<usize>,
}

impl Default for ShardAuditConfig {
    fn default() -> Self {
        ShardAuditConfig {
            cases: 50,
            seed: 0,
            max_items: 32,
            threads: None,
        }
    }
}

/// The deterministic router for `(seed, case_idx)` — the three policies
/// rotate, with hash seeds and tag class widths that move with the case.
pub fn case_router(seed: u64, case_idx: u64) -> ShardRouter {
    let s = mix(seed ^ mix(case_idx).rotate_left(23));
    match s % 3 {
        0 => ShardRouter::SeededHash { seed: s >> 8 },
        1 => ShardRouter::SizeClass,
        _ => ShardRouter::TagAffinity {
            rho: 1 + ((s >> 8) % 40) as i64,
        },
    }
}

/// Stream-order items: the session contract wants non-decreasing
/// arrivals, which `case_instance` families don't all guarantee.
pub(crate) fn stream_order(inst: &Instance) -> Vec<Item> {
    let mut items = inst.items().to_vec();
    items.sort_by_key(|i| (i.arrival(), i.id()));
    items
}

fn run_reference_shard(
    items: &[Item],
    algo: &str,
    params: AlgoParams,
    router: ShardRouter,
    k: usize,
    shard: usize,
) -> Result<OnlineRun, DbpError> {
    let mut packer = online_packer(algo, params);
    let mut session = StreamingSession::new(clairvoyance_for(algo), packer.as_mut());
    for item in items {
        if router.route(item, k) == shard {
            session.arrive(item)?;
        }
    }
    session.finish()
}

/// Runs one algorithm's shard audit on one instance for one `(router, K)`:
/// the sharded run, its per-shard plain-session references, and the
/// merged-run coverage/capacity sweep.
pub fn audit_shard_algo(
    inst: &Instance,
    algo: &str,
    router: ShardRouter,
    k: usize,
) -> Vec<Violation> {
    let params = AlgoParams::from_instance(inst);
    let items = stream_order(inst);
    let mut out = Vec::new();

    let cfg = ShardConfig {
        threads: Some(2),
        batch: 4, // tiny batches exercise the flush boundaries
        collect_metrics: false,
        ..ShardConfig::new(k, router)
    };
    let sharded = (|| {
        let packers = (0..k).map(|_| online_packer(algo, params)).collect();
        let mut fleet = ShardedSession::new(clairvoyance_for(algo), packers, cfg)?;
        for item in &items {
            fleet.arrive(item)?;
        }
        fleet.finish()
    })();
    let report = match sharded {
        Ok(r) => r,
        Err(e) => {
            return vec![Violation::new(
                CheckId::EngineError,
                format!("{algo} k={k}: sharded run failed: {e}"),
            )]
        }
    };

    // Exactly-once accounting: coordinator total vs instance vs slices.
    if report.items != inst.len() as u64 {
        out.push(Violation::new(
            CheckId::ShardAccounting,
            format!(
                "{algo} k={k}: {} items routed for an instance of {}",
                report.items,
                inst.len()
            ),
        ));
    }
    let slice_items: u64 = report.slices.iter().map(|s| s.items).sum();
    if slice_items != report.items {
        out.push(Violation::new(
            CheckId::ShardAccounting,
            format!(
                "{algo} k={k}: slices hold {slice_items} items, coordinator routed {}",
                report.items
            ),
        ));
    }
    let slice_usage: u128 = report.slices.iter().map(|s| s.usage()).sum();
    if slice_usage != report.usage {
        out.push(Violation::new(
            CheckId::ShardAccounting,
            format!(
                "{algo} k={k}: merged usage {} but per-shard sum {slice_usage}",
                report.usage
            ),
        ));
    }

    // The stitched run must cover the instance exactly once and respect
    // capacity on every load segment.
    let merged = report.merged_run();
    if let Err(e) = merged.packing.validate(inst) {
        let check = match e {
            DbpError::CapacityExceeded { .. } => CheckId::Capacity,
            _ => CheckId::ShardAccounting,
        };
        out.push(Violation::new(
            check,
            format!("{algo} k={k}: merged run: {e}"),
        ));
    }
    if merged.usage != report.usage {
        out.push(Violation::new(
            CheckId::ShardAccounting,
            format!(
                "{algo} k={k}: merged run usage {} != report usage {}",
                merged.usage, report.usage
            ),
        ));
    }

    // Per-shard differential vs the plain-session reference.
    for slice in &report.slices {
        match run_reference_shard(&items, algo, params, router, k, slice.shard) {
            Ok(reference) => {
                if slice.run != reference {
                    out.push(Violation::new(
                        CheckId::ShardMerge,
                        format!(
                            "{algo} k={k}: shard {} diverges from its plain-session reference",
                            slice.shard
                        ),
                    ));
                }
            }
            Err(e) => out.push(Violation::new(
                CheckId::EngineError,
                format!(
                    "{algo} k={k}: reference run for shard {} failed: {e}",
                    slice.shard
                ),
            )),
        }
    }

    // K = 1 must equal the unsharded session on the full stream.
    if k == 1 {
        match run_reference_shard(&items, algo, params, router, 1, 0) {
            Ok(plain) if report.slices[0].run == plain => {}
            Ok(_) => out.push(Violation::new(
                CheckId::ShardMerge,
                format!("{algo}: single-shard fleet diverges from the unsharded session"),
            )),
            Err(e) => out.push(Violation::new(
                CheckId::EngineError,
                format!("{algo}: unsharded reference failed: {e}"),
            )),
        }
    }
    out
}

/// Audits one instance against the online roster for K ∈ {1, 2, 3},
/// each `(algorithm, K)` cell panic-isolated.
pub fn audit_shard_instance(inst: &Instance, router: ShardRouter) -> Vec<(String, Vec<Violation>)> {
    let mut out = Vec::new();
    for algo in ONLINE_ALGOS {
        for k in [1usize, 2, 3] {
            let v = match isolated(|| audit_shard_algo(inst, algo, router, k)) {
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

/// Runs the shard sweep. Same containment guarantees as
/// [`crate::fuzz::run_audit`]: any panic is confined to its cell.
pub fn run_shard_audit(cfg: &ShardAuditConfig) -> AuditSummary {
    let (seed, max_items) = (cfg.seed, cfg.max_items);
    run_sweep(cfg.cases, cfg.threads, move |case_idx| {
        let (family, inst) = case_instance(seed, case_idx, max_items);
        let router = case_router(seed, case_idx);
        (
            format!("shard[{}]:{family}", router.name()),
            audit_shard_instance(&inst, router),
        )
    })
}

/// Shrinks a shard failure to a minimal instance that still fails the
/// same `(algorithm, K)` under the same `(seed, case)`-derived router.
pub fn shrink_shard_failure(
    inst: &Instance,
    algo: &str,
    k: usize,
    seed: u64,
    case_idx: u64,
    budget: ShrinkBudget,
) -> Instance {
    let algo = algo.to_string();
    let router = case_router(seed, case_idx);
    shrink_instance(
        inst,
        move |candidate| match isolated(|| audit_shard_algo(candidate, &algo, router, k)) {
            Ok(v) => !v.is_empty(),
            Err(_) => true,
        },
        budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_routers_are_deterministic_and_varied() {
        assert_eq!(case_router(3, 2), case_router(3, 2));
        let kinds: std::collections::HashSet<String> = (0..24)
            .map(|case| {
                case_router(3, case)
                    .name()
                    .split(':')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert!(kinds.len() >= 2, "router families never varied: {kinds:?}");
    }

    #[test]
    fn small_shard_sweep_is_clean() {
        let cfg = ShardAuditConfig {
            cases: 8,
            seed: 5,
            ..Default::default()
        };
        let summary = run_shard_audit(&cfg);
        assert_eq!(summary.cases, 8);
        assert_eq!(summary.cells, 8 * ONLINE_ALGOS.len() * 3);
        assert!(
            summary.ok(),
            "shard violations on a clean roster: {:?}",
            summary.failures
        );
    }
}
