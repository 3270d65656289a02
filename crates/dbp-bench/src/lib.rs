//! # dbp-bench — experiment harness
//!
//! Shared machinery for the `exp_*` binaries (one per experiment row in
//! DESIGN.md §4) and the Criterion benchmarks:
//!
//! * [`registry`] — construct any online/offline packer by name, so every
//!   experiment sweeps the same algorithm roster (`dbp_algos::registry`,
//!   re-exported).
//! * [`measure`] — run a packer on an instance and compute usage and
//!   ratios against LB3 / exact `OPT_total`.
//! * [`grid`] — a lock-free scoped-thread parallel grid runner: evaluate an
//!   (algorithm × workload × seed) grid across CPU cores with
//!   deterministic output ordering.
//! * [`report`] — minimal aligned-table / CSV printers so each binary
//!   regenerates its figure as both human-readable rows and
//!   machine-readable CSV.
//! * [`reference`] — a deliberately naive seed-style engine used as the
//!   correctness foil and performance baseline for the indexed engine.

#![warn(missing_docs)]

pub mod check;
pub mod grid;
pub mod measure;
pub mod plot;
pub mod reference;
pub mod report;

pub use dbp_algos::registry;

pub use check::{parse_baseline, run_check, Baseline, CheckReport};
pub use grid::{run_grid, GridCell, GridResult};
pub use measure::{measure_offline, measure_online, Measurement};
pub use registry::{offline_packer, online_packer, OFFLINE_ALGOS, ONLINE_ALGOS};
