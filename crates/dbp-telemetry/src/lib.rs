//! Hot-path telemetry for dynamic bin packing.
//!
//! `dbp-obs` answers *what the packer decided* (event traces, counters,
//! S(t) time series); this crate answers *how the run behaved as a
//! program*: latency distributions, scan-depth distributions, and a span
//! tree showing where wall-clock time went — the measurements the
//! ROADMAP's serve (p50/p99 SLOs) and indexed-hot-path items need.
//!
//! Four pieces:
//!
//! - [`hist::Histogram`] — a fixed 64-bucket log-linear histogram whose
//!   `record` is a handful of integer ops, cheap enough for the packing
//!   hot path, with derived equality so determinism is a plain `==`.
//! - [`recorder::TelemetryRecorder`] — the [`dbp_core::PackObserver`]
//!   that fills histograms, split across a hard determinism boundary:
//!   [`recorder::WorkMetrics`] (replay-exact, merged by summing) vs
//!   [`recorder::RunMetrics`] (wall-clock, zeroed on merge). It is the
//!   workspace's one source of decision latency: wall-clock reads are
//!   sampled 1-in-64 by default via [`dbp_core::PackObserver::wants_timing`]
//!   and arrive as [`dbp_core::OpKind::Decide`] durations (packing
//!   events carry no time), and per-placement work histograms strided
//!   1-in-16 placements
//!   (deterministically — the stride counts placements, so bit-identity
//!   survives). Telemetry costs 3.8–5.4% throughput by algorithm
//!   (three full `bench_telemetry` runs on a 2-vCPU host, cells run
//!   serially; recorded in `BENCH_telemetry.json`).
//! - [`span`] — cross-thread span profiling with folded-stack
//!   (flamegraph) and chrome://tracing exports.
//! - [`prom`] — Prometheus text-format exposition of counters, gauges
//!   and histograms.
//!
//! [`profile::profile_stream`] ties them together for `dbp prof`.

pub mod hist;
pub mod profile;
pub mod prom;
pub mod recorder;
pub mod span;

pub use hist::Histogram;
pub use profile::{profile_stream, Profile};
pub use prom::render_prometheus;
pub use recorder::{
    RunMetrics, TelemetryRecorder, TelemetrySnapshot, WorkMetrics, DEFAULT_TIMING_INTERVAL,
    WORK_SAMPLE_INTERVAL,
};
pub use span::{
    chrome_trace_json, folded_stacks, reparent_by_seq, stitch, SpanCollector, SpanRecord, NO_SEQ,
};
