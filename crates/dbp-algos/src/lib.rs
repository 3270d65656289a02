//! # dbp-algos — every packing algorithm of the paper and its baselines
//!
//! Implements, from scratch, all algorithms studied or cited by *Ren & Tang,
//! SPAA 2016*:
//!
//! **Offline approximation algorithms (§4):**
//! * [`offline::DurationDescendingFirstFit`] — Theorem 1, 5-approximation.
//! * [`offline::DualColoring`] — Theorem 2, 4-approximation, with the full
//!   demand-chart Phase 1 and stripe-packing Phase 2.
//! * [`offline::ArrivalFirstFit`] — offline First Fit in arrival order
//!   (the offline twin of the online baseline, useful as a control).
//!
//! **Exact reference solvers ([`exact`]):**
//! * [`exact::opt_total`] — the paper's `OPT_total(R)` (the repacking
//!   adversary of §3.2) computed exactly: per-segment optimal classical bin
//!   packing by branch-and-bound, integrated over the load profile.
//! * [`exact::min_usage_packing`] — the true no-migration optimum for small
//!   instances, by exhaustive search with pruning.
//!
//! **Online algorithms (§5 and prior work):**
//! * [`online::AnyFit`] — First/Best/Worst/Next Fit (the non-clairvoyant
//!   baselines of Li et al. and Kamali et al.).
//! * [`online::HybridFirstFit`] — size-classified First Fit (Li et al.).
//! * [`online::ClassifyByDepartureTime`] — §5.2, parameter `ρ`.
//! * [`online::ClassifyByDuration`] — §5.3, parameters `b`, `α`.
//! * [`online::CombinedClassify`] — the §5.4/§6 future-work strategy:
//!   duration classes refined by departure-time classes.
//!
//! **Vector online algorithms** (dynamic *vector* bin packing, after
//! Murhekar et al. 2023): [`online::AnyFit`],
//! [`online::ClassifyByDepartureTime`] and [`online::ClassifyByDuration`]
//! pack any [`dbp_core::Demand`] type, so the same packers place
//! multi-resource items under all-axes feasibility, and
//! [`online::DotProductFit`] / [`online::MaxNormFit`] add the
//! vector-native placement heuristics.
//!
//! **Adversaries ([`adversary`]):** the executable Theorem 3 construction
//! that forces any deterministic online packer to a ratio of at least the
//! golden ratio.
//!
//! **Analysis instrumentation ([`instrument`]):** the three-stage usage
//! decomposition of §5.2 (Figures 6–7) computed on real runs.
//!
//! **Lookahead ([`lookahead`]):** a bounded-arrival-window model
//! interpolating between the online and offline problems, complementing
//! the paper's departure clairvoyance axis.
//!
//! **Roster ([`registry`]):** every packer above built by name, so the
//! CLI, the service, the experiments and the audits share one roster.

#![warn(missing_docs)]

pub mod adversary;
pub mod exact;
pub mod instrument;
pub mod lookahead;
pub mod offline;
pub mod online;
pub mod registry;
