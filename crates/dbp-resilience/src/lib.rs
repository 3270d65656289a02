//! Resilience layer for the streaming DBP engine: checkpoint/restore,
//! seeded fault injection, and graceful degradation under a fleet cap.
//!
//! The paper's model assumes servers never fail and capacity is
//! unbounded; production schedulers get neither. This crate closes the
//! gap in three pieces:
//!
//! * [`checkpoint`] — a versioned JSON encoding of
//!   [`dbp_core::SessionSnapshot`] (live state only, with a reader for
//!   the older format that also listed every bin ever opened), proven
//!   bit-identical on resume: a run checkpointed after any prefix of
//!   arrivals and restored into a fresh session makes the uninterrupted
//!   run's decisions, and a [`dbp_core::RunRecorder`] observing both
//!   sessions ends with exactly its [`dbp_core::OnlineRun`].
//! * [`fault`] — deterministic, seeded [`fault::FaultPlan`]s (spot
//!   revocations, whole-fleet crashes, correlated rack failures) plus
//!   the [`fault::RecoveryPolicy`] and [`fault::AdmissionPolicy`] knobs
//!   that decide what happens to displaced and shed jobs.
//! * [`failpoint`] — injectable IO failpoints (thread-local error
//!   injection plus a `DBP_CRASH_AT_IO` process-abort mode) that the
//!   durability torture harness uses to crash WAL and checkpoint IO at
//!   every boundary in turn.
//! * [`chaos`] — the runner that drives a live session through a fault
//!   plan, re-packs displaced jobs under the recovery policy, applies
//!   admission control at a fleet cap, and accounts for every job
//!   exactly once in a [`chaos::ChaosReport`] whose
//!   [`chaos::ChaosReport::verify`] is a self-contained oracle.
//!
//! Failure and shedding surface through the ordinary
//! [`dbp_core::observe::PackObserver`] stream (`bin_failed`,
//! `arrival_shed`), so traces and metrics pick them up with no extra
//! wiring; `dbp-audit`'s chaos family fuzzes the whole stack.

#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod failpoint;
pub mod fault;

pub use chaos::{
    simulate_chaos, ChaosConfig, ChaosReport, JobOutcome, SubmissionFate, SubmissionRecord,
};
pub use checkpoint::{
    durable_write, fsync_dir, snapshot_from_json, snapshot_to_json, write_snapshot_json,
    CHECKPOINT_FORMAT,
};
pub use fault::{AdmissionPolicy, FaultEvent, FaultKind, FaultPlan, RecoveryPolicy};
