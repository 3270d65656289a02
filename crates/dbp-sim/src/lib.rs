//! # dbp-sim — cloud server acquisition simulator
//!
//! The systems substrate the paper's introduction motivates: servers rented
//! pay-as-you-go, jobs scheduled onto them by an online packer, total
//! renting cost as the objective. This crate wraps any
//! [`dbp_core::OnlinePacker`] into a cluster simulation with:
//!
//! * **billing models** ([`Billing`]) — per-tick billing (the paper's exact
//!   objective) and per-hour round-up billing (AWS-style; Li et al.'s
//!   motivation), which rewards closing servers just before the next hour
//!   boundary;
//! * **cluster metrics** ([`SimReport`]) — renting cost, usage, peak
//!   concurrent servers, and mean utilization;
//! * **noisy clairvoyance** ([`NoisyEstimator`]) — departure-time estimates
//!   with controlled multiplicative error, for the §6 "inaccurate
//!   estimates" sensitivity experiment (E5). Estimates are a deterministic
//!   function of `(seed, item id)`, so runs are reproducible.
//!
//! ```
//! use dbp_core::online::ClairvoyanceMode;
//! use dbp_core::Instance;
//! use dbp_sim::{simulate, Billing};
//! use dbp_algos::online::ClassifyByDepartureTime;
//!
//! let trace = Instance::from_triples(&[(0.5, 0, 7_000), (0.5, 60, 7_100)]);
//! let mut packer = ClassifyByDepartureTime::new(600);
//! let report = simulate(
//!     &trace,
//!     &mut packer,
//!     ClairvoyanceMode::Clairvoyant,
//!     Billing::PerHour { ticks_per_hour: 3_600, price: 1.0 },
//! ).unwrap();
//! assert_eq!(report.cost, 2.0); // one server, two started hours
//! ```

#![warn(missing_docs)]

pub mod timeline;

use dbp_core::accounting::lower_bounds;
use dbp_core::observe::{NoopObserver, PackObserver, Tee};
use dbp_core::online::ClairvoyanceMode;
use dbp_core::{DbpError, Instance, Item, OnlineEngine, OnlinePacker, OnlineRun, Size, Time};
use dbp_obs::counters::{Counters, CountersSnapshot};
use std::sync::Arc;

/// How server time is billed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Billing {
    /// Cost = `price × usage_ticks` (the MinUsageTime objective).
    PerTick {
        /// Price per tick of server time.
        price: f64,
    },
    /// Cost = `price × Σ_server ⌈lifetime / ticks_per_hour⌉` — classic
    /// round-up hourly billing.
    PerHour {
        /// Ticks in one billing hour.
        ticks_per_hour: i64,
        /// Price per (started) hour.
        price: f64,
    },
    /// Two-tier fleet pricing: `reserved` servers are paid for the whole
    /// horizon at `reserved_price` per tick *whether used or not*; demand
    /// above the reserved count is served on demand at `on_demand_price`
    /// per server-tick. Captures the classic capacity-planning trade-off
    /// (reserved discount vs paying for idle capacity).
    Reserved {
        /// Number of always-on reserved servers.
        reserved: u32,
        /// Per-tick price of a reserved server (paid over the horizon).
        reserved_price: f64,
        /// Per-tick price of an on-demand server.
        on_demand_price: f64,
    },
}

impl Billing {
    /// A validated hourly billing model: rejects zero or negative
    /// `ticks_per_hour`, which would otherwise divide by zero (or silently
    /// wrap through a `u128` cast) inside [`Billing::cost`].
    pub fn per_hour(ticks_per_hour: i64, price: f64) -> Result<Billing, DbpError> {
        let billing = Billing::PerHour {
            ticks_per_hour,
            price,
        };
        billing.validate()?;
        Ok(billing)
    }

    /// Checks the model's parameters are inside their domains. Called by
    /// [`simulate`] so a bad struct-literal configuration fails as a
    /// [`DbpError::InvalidParameter`] instead of panicking mid-run.
    pub fn validate(&self) -> Result<(), DbpError> {
        // NaN prices are rejected too, not silently propagated into
        // every cost, so the test must be "not known to be >= 0".
        fn price_ok(what: &str, price: f64) -> Result<(), DbpError> {
            if price >= 0.0 {
                Ok(())
            } else {
                Err(DbpError::InvalidParameter {
                    what: format!("{what} {price} must be >= 0"),
                })
            }
        }
        match *self {
            Billing::PerTick { price } => price_ok("price", price),
            Billing::PerHour {
                ticks_per_hour,
                price,
            } => {
                if ticks_per_hour < 1 {
                    return Err(DbpError::InvalidParameter {
                        what: format!("ticks_per_hour {ticks_per_hour} must be >= 1"),
                    });
                }
                price_ok("price", price)
            }
            Billing::Reserved {
                reserved_price,
                on_demand_price,
                ..
            } => {
                price_ok("reserved_price", reserved_price)?;
                price_ok("on_demand_price", on_demand_price)
            }
        }
    }

    /// The cost of a run under this model. For [`Billing::Reserved`], the
    /// horizon is the hull of all bin lifetimes (a fleet exists only while
    /// something could run).
    ///
    /// # Panics
    /// [`Billing::PerHour`] with `ticks_per_hour < 1` divides by zero; use
    /// [`Billing::per_hour`] or [`Billing::validate`] to reject such
    /// configurations up front ([`simulate`] does).
    pub fn cost(&self, run: &OnlineRun) -> f64 {
        match *self {
            Billing::PerTick { price } => run.usage as f64 * price,
            Billing::PerHour {
                ticks_per_hour,
                price,
            } => {
                run.bins
                    .iter()
                    .map(|b| (b.usage()).div_ceil(ticks_per_hour as u128) as f64)
                    .sum::<f64>()
                    * price
            }
            Billing::Reserved {
                reserved,
                reserved_price,
                on_demand_price,
            } => {
                let horizon = run
                    .bins
                    .iter()
                    .map(|b| b.closed_at)
                    .max()
                    .unwrap_or(0)
                    .saturating_sub(run.bins.iter().map(|b| b.opened_at).min().unwrap_or(0));
                // On-demand server-ticks: fleet size above the reserved
                // count, integrated over time.
                let fleet = run.fleet_series();
                let mut overflow: i128 = 0;
                for w in fleet.points.windows(2) {
                    let above = (w[0].1 - reserved as i64).max(0) as i128;
                    overflow += above * (w[1].0 - w[0].0) as i128;
                }
                horizon as f64 * reserved as f64 * reserved_price
                    + overflow as f64 * on_demand_price
            }
        }
    }
}

/// The reserved-fleet size minimizing [`Billing::Reserved`] cost for a
/// given run, swept over `0..=peak` — the capacity-planning knob.
/// Returns `(best_reserved, best_cost)`.
pub fn optimal_reservation(
    run: &OnlineRun,
    reserved_price: f64,
    on_demand_price: f64,
) -> (u32, f64) {
    let peak = run.fleet_series().max().max(0) as u32;
    let mut best = (0u32, f64::INFINITY);
    for r in 0..=peak {
        let cost = Billing::Reserved {
            reserved: r,
            reserved_price,
            on_demand_price,
        }
        .cost(run);
        if cost < best.1 {
            best = (r, cost);
        }
    }
    best
}

/// Per-job retry accounting for a fault-injected run. Populated by the
/// `dbp-resilience` chaos runner; plain simulations leave
/// [`SimReport::retry`] as `None`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryCounters {
    /// Jobs that completed on their first attempt.
    pub jobs_completed: u64,
    /// Jobs that completed after at least one retry.
    pub jobs_retried: u64,
    /// Jobs dropped after exhausting the recovery policy's retry budget.
    pub jobs_dropped: u64,
    /// Jobs rejected outright by admission control.
    pub jobs_rejected: u64,
    /// Total resubmissions across all jobs.
    pub retries_total: u64,
    /// Servers killed by fault injection.
    pub servers_killed: u64,
    /// Job submissions displaced by a server failure.
    pub jobs_displaced: u64,
    /// Arrivals shed at the fleet-size cap.
    pub arrivals_shed: u64,
}

/// Cluster-level outcome of one scheduling run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Scheduler display name.
    pub scheduler: String,
    /// Total renting cost under the billing model.
    pub cost: f64,
    /// Total server usage in ticks (the paper's objective).
    pub usage: u128,
    /// Number of servers acquired over the run.
    pub servers_acquired: usize,
    /// Maximum concurrently open servers.
    pub peak_servers: usize,
    /// Mean utilization: time–space demand served / server time provided.
    pub utilization: f64,
    /// Ratio of usage to the Proposition 3 lower bound.
    pub ratio_vs_lb: f64,
    /// Run counters: placements, bins, scan depth, decision latency.
    pub counters: CountersSnapshot,
    /// Retry accounting for fault-injected runs; `None` for plain runs.
    pub retry: Option<RetryCounters>,
    /// The underlying run (packing, bin records).
    pub run: OnlineRun,
}

/// Runs `packer` over `inst` under the given clairvoyance mode and billing
/// model, collecting cluster metrics.
pub fn simulate(
    inst: &Instance,
    packer: &mut dyn OnlinePacker,
    mode: ClairvoyanceMode,
    billing: Billing,
) -> Result<SimReport, DbpError> {
    simulate_observed(inst, packer, mode, billing, &mut NoopObserver)
}

/// Like [`simulate`], but additionally streams every packing event to
/// `obs` (e.g. a [`dbp_obs::TraceWriter`] or
/// [`dbp_obs::MetricsAggregator`]). [`SimReport::counters`] is collected
/// in both paths via an internal [`Counters`] observer.
pub fn simulate_observed<O: PackObserver>(
    inst: &Instance,
    packer: &mut dyn OnlinePacker,
    mode: ClairvoyanceMode,
    billing: Billing,
    obs: &mut O,
) -> Result<SimReport, DbpError> {
    billing.validate()?;
    let mut counters = Counters::new();
    let mut tee = Tee(&mut counters, obs);
    let run = OnlineEngine::new(mode).run_observed(inst, packer, &mut tee)?;
    run.packing.validate(inst)?;
    let lb = lower_bounds(inst);
    let demand_ticks = lb.demand.ticks_f64();
    let utilization = if run.usage == 0 {
        1.0
    } else {
        demand_ticks / run.usage as f64
    };
    // Peak concurrent servers from the fleet timeline; its integral is a
    // cross-check on the engine's usage accounting.
    let fleet = run.fleet_series();
    let peak = fleet.max();
    debug_assert_eq!(fleet.integral() as u128, run.usage);
    Ok(SimReport {
        scheduler: packer.name(),
        cost: billing.cost(&run),
        usage: run.usage,
        servers_acquired: run.bins_opened(),
        peak_servers: peak as usize,
        utilization,
        ratio_vs_lb: if lb.best() == 0 {
            1.0
        } else {
            run.usage as f64 / lb.best() as f64
        },
        counters: counters.snapshot(),
        retry: None,
        run,
    })
}

/// Deterministic multiplicative departure-time noise: the estimated
/// duration is `duration × (1 + e)` with `e` uniform in
/// `[−max_rel_error, +max_rel_error]`, derived by hashing `(seed, id)`.
#[derive(Clone, Copy, Debug)]
pub struct NoisyEstimator {
    /// Hash seed (vary across trials).
    pub seed: u64,
    /// Maximum relative duration error, e.g. `0.2` for ±20%.
    pub max_rel_error: f64,
}

impl NoisyEstimator {
    /// Creates the estimator.
    pub fn new(seed: u64, max_rel_error: f64) -> Self {
        assert!((0.0..1.0).contains(&max_rel_error));
        NoisyEstimator {
            seed,
            max_rel_error,
        }
    }

    /// The estimated departure time for an item.
    pub fn estimate(&self, item: &Item) -> Time {
        let e = self.relative_error(item.id().0);
        let est = item.duration() as f64 * (1.0 + e);
        item.arrival() + (est.round() as i64).max(1)
    }

    /// The deterministic relative error for an item id, in
    /// `[−max_rel_error, +max_rel_error]`.
    pub fn relative_error(&self, id: u32) -> f64 {
        // SplitMix64 over (seed, id) for a uniform unit sample.
        let mut z = self.seed ^ ((id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        (2.0 * unit - 1.0) * self.max_rel_error
    }

    /// The corresponding engine mode.
    pub fn mode(&self) -> ClairvoyanceMode {
        let est = *self;
        ClairvoyanceMode::Noisy(Arc::new(move |r: &Item| est.estimate(r)))
    }
}

/// Convenience: the per-tick MinUsageTime billing at unit price.
pub fn unit_billing() -> Billing {
    Billing::PerTick { price: 1.0 }
}

/// Outcome of a [`recommend_rho`] sweep.
#[derive(Clone, Debug)]
pub struct RhoRecommendation {
    /// The candidate with the lowest simulated cost.
    pub best_rho: i64,
    /// The cost at `best_rho`.
    pub best_cost: f64,
    /// Theorem 4's closed-form suggestion `√μ·Δ` for comparison.
    pub theoretical_rho: i64,
    /// Every `(rho, cost)` evaluated, in candidate order.
    pub sweep: Vec<(i64, f64)>,
}

/// Parameter advisor: simulates classify-by-departure-time First Fit over
/// a *historical* trace for each candidate `ρ` and returns the cheapest
/// under the given billing, alongside Theorem 4's worst-case-optimal
/// `ρ = √μ·Δ`. Real traces are not worst cases, so the empirical best is
/// often larger than the theoretical one; operators should sweep (this
/// function) rather than trust the closed form when average cost matters.
///
/// When `candidates` is empty, a default geometric ladder around `√μ·Δ`
/// is used.
pub fn recommend_rho(
    inst: &Instance,
    candidates: &[i64],
    billing: Billing,
) -> Result<RhoRecommendation, DbpError> {
    let delta = inst.min_duration().unwrap_or(1);
    let mu = inst.mu().unwrap_or(1.0);
    let theoretical = ((mu.sqrt() * delta as f64).round() as i64).max(1);
    let ladder: Vec<i64> = if candidates.is_empty() {
        [
            theoretical / 8,
            theoretical / 4,
            theoretical / 2,
            theoretical,
            theoretical * 2,
            theoretical * 4,
            theoretical * 8,
        ]
        .iter()
        .map(|&r| r.max(1))
        .collect()
    } else {
        candidates.to_vec()
    };

    let mut sweep = Vec::with_capacity(ladder.len());
    let mut best: Option<(i64, f64)> = None;
    for &rho in &ladder {
        let mut packer = dbp_packers::CbdtShim::new(rho);
        let rep = simulate(inst, &mut packer, ClairvoyanceMode::Clairvoyant, billing)?;
        sweep.push((rho, rep.cost));
        if best.map(|(_, c)| rep.cost < c).unwrap_or(true) {
            best = Some((rho, rep.cost));
        }
    }
    let (best_rho, best_cost) = best.expect("nonempty ladder");
    Ok(RhoRecommendation {
        best_rho,
        best_cost,
        theoretical_rho: theoretical,
        sweep,
    })
}

/// A local CBDT implementation so `dbp-sim` does not depend on
/// `dbp-algos` (which would create a dependency cycle in dev-tests);
/// behaviourally identical to `dbp_algos::online::ClassifyByDepartureTime`
/// — asserted by a test over there.
mod dbp_packers {
    use dbp_core::interval::Time;
    use dbp_core::online::{Decision, ItemView, OnlinePacker, OpenBins};

    pub struct CbdtShim {
        rho: i64,
        epoch: Option<Time>,
    }

    impl CbdtShim {
        pub fn new(rho: i64) -> Self {
            CbdtShim {
                rho: rho.max(1),
                epoch: None,
            }
        }
    }

    impl OnlinePacker for CbdtShim {
        fn name(&self) -> String {
            format!("cbdt(rho={})", self.rho)
        }

        fn reset(&mut self) {
            self.epoch = None;
        }

        fn place(&mut self, item: &ItemView, open_bins: &OpenBins) -> Decision {
            if self.epoch.is_none() {
                self.epoch = Some(item.arrival);
            }
            let dep = item.departure.expect("requires clairvoyance");
            let off = dep - self.epoch.unwrap();
            let tag = ((off + self.rho - 1) / self.rho) as u64;
            for b in open_bins.iter_tag(tag) {
                if b.fits(item.size) {
                    return Decision::Existing(b.id());
                }
            }
            Decision::New { tag }
        }
    }
}

/// Mean size-weighted demand of an instance in ticks (for reporting).
pub fn demand_ticks(inst: &Instance) -> f64 {
    inst.demand() as f64 / Size::SCALE as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_algos::online::{AnyFit, ClassifyByDepartureTime};

    fn inst() -> Instance {
        Instance::from_triples(&[(0.5, 0, 100), (0.5, 5, 95), (0.5, 10, 200), (0.25, 50, 300)])
    }

    #[test]
    fn per_tick_cost_equals_usage() {
        let rep = simulate(
            &inst(),
            &mut AnyFit::first_fit(),
            ClairvoyanceMode::NonClairvoyant,
            unit_billing(),
        )
        .unwrap();
        assert_eq!(rep.cost, rep.usage as f64);
        assert!(rep.ratio_vs_lb >= 1.0);
        assert!(rep.utilization > 0.0 && rep.utilization <= 1.0);
        assert!(rep.peak_servers >= 1 && rep.peak_servers <= rep.servers_acquired);
    }

    #[test]
    fn per_hour_billing_rejects_nonpositive_tick_hours() {
        for bad in [0, -5] {
            match Billing::per_hour(bad, 1.0) {
                Err(DbpError::InvalidParameter { what }) => {
                    assert!(what.contains("ticks_per_hour"), "message names the field");
                }
                other => panic!("ticks_per_hour={bad} accepted: {other:?}"),
            }
            let raw = Billing::PerHour {
                ticks_per_hour: bad,
                price: 1.0,
            };
            let err = simulate(
                &inst(),
                &mut AnyFit::first_fit(),
                ClairvoyanceMode::NonClairvoyant,
                raw,
            )
            .unwrap_err();
            assert!(matches!(err, DbpError::InvalidParameter { .. }));
        }
        let ok = Billing::per_hour(60, 2.5).unwrap();
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn validate_rejects_negative_and_nan_prices() {
        let bad = [
            Billing::PerTick { price: -1.0 },
            Billing::PerTick { price: f64::NAN },
            Billing::PerHour {
                ticks_per_hour: 60,
                price: -0.5,
            },
            Billing::PerHour {
                ticks_per_hour: 60,
                price: f64::NAN,
            },
            Billing::Reserved {
                reserved: 2,
                reserved_price: -0.1,
                on_demand_price: 1.0,
            },
            Billing::Reserved {
                reserved: 2,
                reserved_price: 0.5,
                on_demand_price: -1.0,
            },
            Billing::Reserved {
                reserved: 2,
                reserved_price: f64::NAN,
                on_demand_price: 1.0,
            },
        ];
        for b in bad {
            let err = b.validate().unwrap_err();
            assert!(matches!(err, DbpError::InvalidParameter { .. }), "{b:?}");
            // simulate() refuses the same configurations up front.
            let err = simulate(
                &inst(),
                &mut AnyFit::first_fit(),
                ClairvoyanceMode::NonClairvoyant,
                b,
            )
            .unwrap_err();
            assert!(matches!(err, DbpError::InvalidParameter { .. }), "{b:?}");
        }
        // Zero prices are legal (free tiers are a real configuration).
        assert!(Billing::PerTick { price: 0.0 }.validate().is_ok());
        assert!(Billing::Reserved {
            reserved: 0,
            reserved_price: 0.0,
            on_demand_price: 0.0,
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn counters_ride_along_in_every_report() {
        let rep = simulate(
            &inst(),
            &mut AnyFit::first_fit(),
            ClairvoyanceMode::Clairvoyant,
            unit_billing(),
        )
        .unwrap();
        assert_eq!(rep.counters.items_packed as usize, inst().len());
        assert_eq!(rep.counters.bins_opened as usize, rep.servers_acquired);
        assert_eq!(rep.counters.bins_opened, rep.counters.bins_closed);
    }

    #[test]
    fn simulate_observed_streams_events_and_matches_plain_run() {
        use dbp_core::observe::EventLog;
        let mut log = EventLog::new();
        let observed = simulate_observed(
            &inst(),
            &mut AnyFit::first_fit(),
            ClairvoyanceMode::Clairvoyant,
            unit_billing(),
            &mut log,
        )
        .unwrap();
        let plain = simulate(
            &inst(),
            &mut AnyFit::first_fit(),
            ClairvoyanceMode::Clairvoyant,
            unit_billing(),
        )
        .unwrap();
        assert_eq!(observed.usage, plain.usage);
        assert_eq!(observed.run.packing, plain.run.packing);
        // The streamed events replay to the same run.
        let replay = dbp_obs::replay_events(&log.events).unwrap();
        replay.verify().unwrap();
        assert_eq!(replay.run.usage, observed.usage);
        assert_eq!(replay.run.packing, observed.run.packing);
    }

    #[test]
    fn hourly_billing_rounds_up() {
        // One bin alive 150 ticks, hour = 100 ticks → 2 hours billed.
        let one = Instance::from_triples(&[(0.5, 0, 150)]);
        let rep = simulate(
            &one,
            &mut AnyFit::first_fit(),
            ClairvoyanceMode::NonClairvoyant,
            Billing::PerHour {
                ticks_per_hour: 100,
                price: 3.0,
            },
        )
        .unwrap();
        assert_eq!(rep.cost, 6.0);
    }

    #[test]
    fn noisy_estimator_is_deterministic_and_bounded() {
        let est = NoisyEstimator::new(7, 0.25);
        let r = Item::new(3, Size::HALF, 0, 1000);
        let a = est.estimate(&r);
        let b = est.estimate(&r);
        assert_eq!(a, b);
        assert!((750..=1250).contains(&a), "estimate {a}");
        // Different seeds give different estimates (almost surely).
        let est2 = NoisyEstimator::new(8, 0.25);
        assert_ne!(est.relative_error(3), est2.relative_error(3));
    }

    #[test]
    fn noisy_estimator_same_seed_id_same_estimate_across_instances() {
        // Determinism must hold across *fresh* estimator values, not just
        // repeated calls on one value: rebuild the estimator every
        // iteration and compare against the first answer.
        for id in [0u32, 1, 7, 1_000_000] {
            let item = Item::new(id, Size::HALF, 3, 503);
            let first = NoisyEstimator::new(42, 0.3).estimate(&item);
            for _ in 0..10 {
                let est = NoisyEstimator::new(42, 0.3);
                assert_eq!(est.estimate(&item), first, "id {id}");
                assert_eq!(
                    est.relative_error(id),
                    NoisyEstimator::new(42, 0.3).relative_error(id)
                );
            }
            // A different seed decorrelates the same id.
            assert_ne!(
                NoisyEstimator::new(43, 0.3).relative_error(id),
                NoisyEstimator::new(42, 0.3).relative_error(id)
            );
        }
    }

    #[test]
    fn noisy_mode_still_produces_valid_runs() {
        let est = NoisyEstimator::new(1, 0.5);
        let rep = simulate(
            &inst(),
            &mut ClassifyByDepartureTime::new(50),
            est.mode(),
            unit_billing(),
        )
        .unwrap();
        // Validation happened inside simulate(); ratio sane.
        assert!(rep.ratio_vs_lb >= 1.0);
    }

    #[test]
    fn reserved_billing_cases() {
        // One server alive [0, 100). Reserved=1 at half price: cost = 100
        // × 0.5, no on-demand overflow.
        let one = Instance::from_triples(&[(0.5, 0, 100)]);
        let run = OnlineEngine::clairvoyant()
            .run(&one, &mut AnyFit::first_fit())
            .unwrap();
        let b = Billing::Reserved {
            reserved: 1,
            reserved_price: 0.5,
            on_demand_price: 1.0,
        };
        assert_eq!(b.cost(&run), 50.0);
        // Reserved=0: everything on demand at 1.0 → cost = usage.
        let b0 = Billing::Reserved {
            reserved: 0,
            reserved_price: 0.5,
            on_demand_price: 1.0,
        };
        assert_eq!(b0.cost(&run), run.usage as f64);
    }

    #[test]
    fn optimal_reservation_beats_endpoints() {
        // Base load of 1 server for the whole horizon plus a short burst:
        // reserving exactly the base load is optimal at a 50% discount.
        let inst = Instance::from_triples(&[
            (0.9, 0, 1000),  // base
            (0.9, 100, 200), // burst
            (0.9, 120, 180), // burst
        ]);
        let run = OnlineEngine::clairvoyant()
            .run(&inst, &mut AnyFit::first_fit())
            .unwrap();
        let (best_r, best_cost) = optimal_reservation(&run, 0.5, 1.0);
        assert_eq!(best_r, 1, "reserve the base load");
        for r in [0u32, 3] {
            let c = Billing::Reserved {
                reserved: r,
                reserved_price: 0.5,
                on_demand_price: 1.0,
            }
            .cost(&run);
            assert!(best_cost <= c, "r={r}: {c} < best {best_cost}");
        }
    }

    #[test]
    fn recommend_rho_sweeps_and_picks_minimum() {
        let inst = inst();
        let rec = recommend_rho(&inst, &[10, 50, 100, 400], unit_billing()).unwrap();
        assert_eq!(rec.sweep.len(), 4);
        let min = rec
            .sweep
            .iter()
            .map(|&(_, c)| c)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(rec.best_cost, min);
        assert!(rec.sweep.iter().any(|&(r, _)| r == rec.best_rho));
        assert!(rec.theoretical_rho >= 1);
    }

    #[test]
    fn recommend_rho_default_ladder() {
        let rec = recommend_rho(&inst(), &[], unit_billing()).unwrap();
        assert_eq!(rec.sweep.len(), 7);
        // Ladder brackets the theoretical value.
        assert!(rec.sweep.iter().any(|&(r, _)| r <= rec.theoretical_rho));
        assert!(rec.sweep.iter().any(|&(r, _)| r >= rec.theoretical_rho));
    }

    #[test]
    fn cbdt_shim_matches_dbp_algos_cbdt() {
        use dbp_algos::online::ClassifyByDepartureTime;
        let inst = inst();
        for rho in [7, 60, 150] {
            let mut shim = super::dbp_packers::CbdtShim::new(rho);
            let mut real = ClassifyByDepartureTime::new(rho);
            let a = simulate(
                &inst,
                &mut shim,
                ClairvoyanceMode::Clairvoyant,
                unit_billing(),
            )
            .unwrap();
            let b = simulate(
                &inst,
                &mut real,
                ClairvoyanceMode::Clairvoyant,
                unit_billing(),
            )
            .unwrap();
            assert_eq!(a.usage, b.usage, "rho={rho}");
            assert_eq!(a.servers_acquired, b.servers_acquired);
        }
    }

    #[test]
    fn zero_error_noise_matches_clairvoyant() {
        let est = NoisyEstimator::new(1, 0.0);
        let mut p1 = ClassifyByDepartureTime::new(50);
        let mut p2 = ClassifyByDepartureTime::new(50);
        let a = simulate(&inst(), &mut p1, est.mode(), unit_billing()).unwrap();
        let b = simulate(
            &inst(),
            &mut p2,
            ClairvoyanceMode::Clairvoyant,
            unit_billing(),
        )
        .unwrap();
        assert_eq!(a.usage, b.usage);
    }
}
