//! # dbp-obs — observability for dynamic bin packing runs
//!
//! Consumers of the event stream defined in [`dbp_core::observe`]:
//!
//! * [`trace`] — a lossless JSONL trace format ([`trace::TraceWriter`]
//!   streams events; [`trace::parse_jsonl`] reads them back).
//! * [`replay`] — deterministic reconstruction of the instance and the
//!   exact run from a trace, with [`replay::Replay::verify`] as a
//!   self-contained correctness oracle.
//! * [`metrics`] — time-series aggregation: active bins, total level
//!   `S(t)`, `⌈S(t)⌉` (the LB3 integrand), per-bin utilization
//!   histograms, and the instantaneous ratio vs. LB3, with CSV export.
//! * [`counters`] — cheap scalar counters (items, bins, scan depth,
//!   decision latency) surfaced in `dbp-bench::Measurement` and
//!   `dbp-sim::SimReport`.
//! * [`offline`] — synthesizes the event stream for a finished offline
//!   [`dbp_core::Packing`], so all of the above work for offline packers
//!   too.
//! * [`vectrace`] — the line schema of vector runs: `PackEvent<SizeVec>`
//!   lines with per-axis raw fixed-point arrays (the same
//!   [`trace::TraceWriter`] streams them; [`vectrace::parse_jsonl`]
//!   reads them back bit-identically).
//!
//! Attach any combination of observers with [`dbp_core::observe::Tee`]:
//!
//! ```
//! use dbp_core::{Instance, OnlineEngine};
//! use dbp_core::observe::Tee;
//! use dbp_core::online::{Decision, ItemView, OnlinePacker, OpenBins};
//! use dbp_obs::counters::Counters;
//! use dbp_obs::metrics::MetricsAggregator;
//!
//! struct FirstFit;
//! impl OnlinePacker for FirstFit {
//!     fn name(&self) -> String { "ff".into() }
//!     fn place(&mut self, item: &ItemView, open: &OpenBins) -> Decision {
//!         open.iter().find(|b| b.fits(item.size))
//!             .map(|b| Decision::Existing(b.id()))
//!             .unwrap_or(Decision::NEW)
//!     }
//! }
//!
//! let inst = Instance::from_triples(&[(0.5, 0, 10), (0.5, 2, 8)]);
//! let mut obs = Tee(Counters::new(), MetricsAggregator::new());
//! let run = OnlineEngine::clairvoyant()
//!     .run_observed(&inst, &mut FirstFit, &mut obs)
//!     .unwrap();
//! let (counters, metrics) = (obs.0.snapshot(), obs.1.report());
//! assert_eq!(counters.items_packed, 2);
//! assert_eq!(metrics.usage(), run.usage);
//! ```

#![warn(missing_docs)]

pub mod counters;
pub mod json;
pub mod metrics;
pub mod offline;
pub mod replay;
pub mod trace;
pub mod vectrace;

pub use counters::{Counters, CountersSnapshot};
pub use metrics::{merge_reports, merge_step_series, MetricsAggregator, MetricsReport};
pub use offline::emit_packing;
pub use replay::{replay_events, replay_jsonl, Replay};
pub use trace::{
    events_to_jsonl, events_to_jsonl_tagged, parse_jsonl, parse_jsonl_tagged, LineSchema,
    TraceWriter,
};
