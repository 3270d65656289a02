//! `dbp-serve` — a long-running multi-tenant scheduling service.
//!
//! The crate turns the repo's streaming MinUsageTime machinery into a
//! network-facing service: tenants submit jobs with clairvoyant
//! departure estimates over line-delimited JSON, and get back placement
//! decisions (or typed rejects) computed by the bench roster's online
//! packers, one streaming session per shard.
//!
//! The layering keeps every policy decision out of the transport:
//!
//! - [`protocol`] — the wire format, transport-agnostic (pure
//!   line ⇄ value mapping; an async front-end could reuse it as-is).
//! - [`service`] — shard sessions, admission control (global fleet cap
//!   with typed `fleet_capacity` rejects), exactly-once job ids via a
//!   dense watermark, and periodic checkpointing.
//! - [`state`] — the checkpoint codec: one manifest line plus one
//!   `dbp-resilience` session snapshot per shard, written durably
//!   (temp file + fsync + rename + directory fsync), restored
//!   newest-good-first so torn files fall back instead of failing the
//!   boot.
//! - [`wal`] — the write-ahead decision log: CRC-checked frames of
//!   every shard in one segment sequence rotated at checkpoints, one
//!   `write` and one `fdatasync` per read batch, torn-tail-tolerant
//!   recovery. With a WAL, restart = newest good checkpoint + replay,
//!   and acknowledged decisions survive `kill -9`.
//! - [`torture`] — the deterministic crash-point harness: injects an
//!   IO failure (or a real `abort`) at every WAL/checkpoint IO
//!   boundary in turn and proves recovery from each prefix.
//! - [`metrics`] — the Prometheus exposition (per-tenant counters,
//!   open-bin gauges, placement latency histogram).
//! - [`server`] — the blocking TCP front end and its tiny HTTP shim
//!   for `GET /metrics`.
//! - [`wire`] — seeded request lines, canonical and hostile, for the
//!   request decoder's differential test and hostile-input audits.
//!
//! Determinism is the contract throughout: restarting from a checkpoint
//! and replaying the same submissions yields bit-identical responses,
//! which the kill-and-resume differential test (and the CI smoke job's
//! `kill -9` drill) verify end to end.

#![warn(missing_docs)]

pub mod metrics;
pub mod protocol;
pub mod server;
pub mod service;
pub mod state;
pub mod torture;
pub mod wal;
pub mod wire;

pub use protocol::{parse_request, render_response, RejectReason, Request, Response};
pub use service::{RecoveryStats, ServeConfig, Service};
pub use state::{latest_good_checkpoint, ServeCheckpoint};
pub use wal::FsyncPolicy;
