//! # dbp-audit — differential fuzzing and invariant auditing
//!
//! The paper's guarantees (Propositions 1–3, Theorems 4–5) are universally
//! quantified over all instances; hand-picked unit tests only sample that
//! space. This crate adversarially drives the repo's ground-truth oracles
//! against the full algorithm roster:
//!
//! * [`invariants`] — the checker: coverage/no-migration, capacity at every
//!   load segment, per-bin usage = span of members, total-usage accounting,
//!   the Proposition/exact-oracle bound chain, and the Theorem 4/5
//!   competitive-ratio ceilings.
//! * [`diff`] — the differential harness: batch engine vs. obs-trace
//!   replay vs. the independent reference engine vs. the linear-scan
//!   foil, bit-for-bit.
//! * [`fuzz`] — the seeded sweep over random + adversarial instance
//!   families, panic-isolated per cell via
//!   [`dbp_bench::grid::run_grid_checked`] so one poisoned case reports
//!   instead of aborting a million-case run.
//! * [`shrink`] — greedy counterexample reduction (drop items, shorten
//!   intervals, compact arrivals, round sizes) to a minimal failing
//!   instance.
//! * [`fixture`] — JSON persistence of shrunk counterexamples; checked-in
//!   fixtures under `fixtures/` replay through the roster in a regression
//!   test on every build.
//! * [`faulty`] — deliberately broken packers proving the catch → shrink →
//!   persist pipeline end to end (`dbp audit --self-test`).
//! * [`chaos`] — the fault-injection family: seeded [`dbp_resilience`]
//!   sweeps checking exactly-once job accounting, post-recovery capacity,
//!   and checkpoint/resume bit-identity across the roster.
//! * [`shard`] — the sharding family: seeded [`dbp_shard`] sweeps
//!   checking per-shard bit-identity against plain-session references,
//!   exactly-once item accounting, and the merged run's coverage +
//!   capacity against the original instance.
//! * [`vector`] — the dynamic *vector* bin packing family: per-axis
//!   capacity, the max-axis lower bound, indexed-vs-linear and
//!   dim-1-vs-scalar differentials, the streaming-vs-batch foil, plus
//!   per-axis JSON fixtures (shrunk by the same [`shrink`] loop).
//!
//! See `docs/auditing.md` for the invariant list, the shrink loop, the
//! fixture format, and how to reproduce any failure from its seed.

#![warn(missing_docs)]

pub mod chaos;
pub mod diff;
pub mod faulty;
pub mod fixture;
pub mod fuzz;
pub mod invariants;
pub mod shard;
pub mod shrink;
pub mod telemetry;
pub mod vector;

pub use chaos::{run_chaos_audit, ChaosAuditConfig};
pub use fuzz::{run_audit, AuditConfig, AuditSummary};
pub use invariants::{CheckId, Violation};
pub use shard::{run_shard_audit, ShardAuditConfig};
pub use telemetry::{run_telemetry_audit, TelemetryAuditConfig};
pub use vector::{run_vector_audit, VectorAuditConfig};

/// Silences the process-global panic hook for the guard's lifetime and
/// restores the previous hook on drop. Expected panics are the fuzzer's
/// bread and butter — a million-case sweep over `catch_unwind` cells must
/// not spray a million backtraces to stderr.
///
/// The hook is process-global state: overlapping guards restore in drop
/// order, so scope them around whole sweeps, not per-cell.
pub struct QuietPanics {
    prev: Option<PanicHook>,
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

impl QuietPanics {
    /// Installs the silent hook.
    pub fn new() -> QuietPanics {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Default for QuietPanics {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_panics_restores_the_previous_hook() {
        // Install a marker hook, silence it, drop the guard: the marker
        // must be back.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static HITS: AtomicUsize = AtomicUsize::new(0);

        let original = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {
            HITS.fetch_add(1, Ordering::SeqCst);
        }));
        {
            let _quiet = QuietPanics::new();
            let _ = fuzz::isolated(|| panic!("silenced"));
            assert_eq!(HITS.load(Ordering::SeqCst), 0, "hook was silenced");
        }
        let _ = fuzz::isolated(|| panic!("audible"));
        assert_eq!(HITS.load(Ordering::SeqCst), 1, "hook was restored");
        std::panic::set_hook(original);
    }
}
