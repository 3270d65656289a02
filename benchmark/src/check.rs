//! Output checks: rebuild the packing from the stream and the decisions
//! the system returned, and refuse anything infeasible.
//!
//! The checker trusts nothing the system reports about its own state.
//! It sweeps the admitted jobs' intervals in time order and verifies, at
//! every instant, that no bin is over capacity, that the fleet never
//! holds more open bins than its cap, and that a bin that emptied (and
//! therefore closed) never receives another job. From the same sweep it
//! derives the usage of every bin (last departure minus first arrival)
//! and the Proposition 3 bound `LB3 = ∫⌈S(t)⌉dt` of the admitted jobs.

use crate::stats::Digest;
use dbp_core::accounting::lower_bounds;
use dbp_core::{Instance, Item, Size, Time};
use std::collections::HashMap;

/// One generated job, as the system sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Dense id, equal to the job's index in its stream.
    pub id: u32,
    /// Exact fixed-point size (`raw / 2^24` of a server).
    pub size_raw: u64,
    /// Arrival tick.
    pub arrival: Time,
    /// Departure tick (clairvoyant, exact).
    pub departure: Time,
}

/// What the system decided for one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Placed into `bin` of `shard` (bin ids are per shard).
    Placed {
        /// Owning shard.
        shard: u32,
        /// Bin id within the shard.
        bin: u32,
    },
    /// Turned away by the fleet cap.
    Shed,
}

/// What a feasible packing looks like from the outside.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackingStats {
    /// Admitted jobs.
    pub placed: usize,
    /// Jobs shed by the fleet cap.
    pub shed: usize,
    /// Distinct bins used.
    pub bins: usize,
    /// Most bins open at one instant.
    pub peak_open: usize,
    /// Total usage time in ticks over all bins.
    pub usage: u128,
    /// `LB3` of the admitted jobs, in ticks.
    pub lb3: u128,
}

impl PackingStats {
    /// Usage over its Proposition 3 lower bound (≥ 1 for any feasible
    /// packing).
    pub fn usage_ratio(&self) -> f64 {
        self.usage as f64 / self.lb3.max(1) as f64
    }

    /// Share of jobs admitted.
    pub fn admitted_ratio(&self) -> f64 {
        self.placed as f64 / (self.placed + self.shed).max(1) as f64
    }
}

#[derive(Default)]
struct BinState {
    level: u64,
    residents: u32,
    closed: bool,
    first_arrival: Time,
    last_departure: Time,
}

/// Rebuilds the packing `outcomes[i]` describes for `jobs[i]` and checks
/// it. Errors name the first violated rule.
pub fn check_packing(
    jobs: &[Job],
    outcomes: &[Outcome],
    fleet_cap: Option<usize>,
) -> Result<PackingStats, String> {
    if jobs.len() != outcomes.len() {
        return Err(format!(
            "{} jobs but {} decisions",
            jobs.len(),
            outcomes.len()
        ));
    }
    // (time, 0 = departure / 1 = arrival, job index): departures sort
    // first, because intervals are half-open and the engine sweeps every
    // departure due at `t` before it places an arrival at `t`.
    let mut events: Vec<(Time, u8, usize)> = Vec::with_capacity(jobs.len() * 2);
    let mut stats = PackingStats::default();
    for (i, (job, out)) in jobs.iter().zip(outcomes).enumerate() {
        match out {
            Outcome::Placed { .. } => {
                if job.departure <= job.arrival {
                    return Err(format!("job {} has an empty interval", job.id));
                }
                events.push((job.arrival, 1, i));
                events.push((job.departure, 0, i));
                stats.placed += 1;
            }
            Outcome::Shed => stats.shed += 1,
        }
    }
    events.sort_unstable();
    let mut bins: HashMap<(u32, u32), BinState> = HashMap::new();
    let mut open = 0usize;
    for (t, kind, i) in events {
        let job = &jobs[i];
        let Outcome::Placed { shard, bin } = outcomes[i] else {
            unreachable!("only placed jobs have events")
        };
        let st = bins.entry((shard, bin)).or_default();
        if kind == 1 {
            if st.closed {
                return Err(format!(
                    "job {} placed at t={t} into bin {shard}/{bin}, which closed earlier",
                    job.id
                ));
            }
            if st.residents == 0 {
                st.first_arrival = t;
                open += 1;
                stats.peak_open = stats.peak_open.max(open);
                if let Some(cap) = fleet_cap {
                    if open > cap {
                        return Err(format!(
                            "{open} bins open at t={t}, above the fleet cap {cap}"
                        ));
                    }
                }
            }
            st.residents += 1;
            st.level += job.size_raw;
            if st.level > Size::SCALE {
                return Err(format!(
                    "bin {shard}/{bin} overfull at t={t}: level {} > capacity {} after job {}",
                    st.level,
                    Size::SCALE,
                    job.id
                ));
            }
        } else {
            st.residents -= 1;
            st.level -= job.size_raw;
            st.last_departure = t;
            if st.residents == 0 {
                st.closed = true;
                open -= 1;
            }
        }
    }
    stats.bins = bins.len();
    stats.usage = bins
        .values()
        .map(|b| (b.last_departure - b.first_arrival) as u128)
        .sum();
    let admitted: Vec<Item> = jobs
        .iter()
        .zip(outcomes)
        .filter(|(_, o)| matches!(o, Outcome::Placed { .. }))
        .map(|(j, _)| Item::try_new(j.id, Size::from_raw(j.size_raw), j.arrival, j.departure))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("admitted job is invalid: {e}"))?;
    let inst = Instance::from_items(admitted).map_err(|e| format!("admitted jobs: {e}"))?;
    stats.lb3 = lower_bounds(&inst).lb3;
    if stats.usage < stats.lb3 {
        return Err(format!(
            "usage {} below LB3 {}: the accounting is broken",
            stats.usage, stats.lb3
        ));
    }
    Ok(stats)
}

/// Requires two decision lists to agree exactly; the error names the
/// first job where they part.
pub fn compare_decisions(what: &str, got: &[Outcome], reference: &[Outcome]) -> Result<(), String> {
    if let Some(i) = got.iter().zip(reference).position(|(a, b)| a != b) {
        return Err(format!(
            "{what}: job {i} decided {:?}, the reference decided {:?}",
            got[i], reference[i]
        ));
    }
    if got.len() != reference.len() {
        return Err(format!(
            "{what}: {} decisions against {} in the reference",
            got.len(),
            reference.len()
        ));
    }
    Ok(())
}

/// The digest of a decision list.
pub fn digest(outcomes: &[Outcome]) -> u64 {
    let mut d = Digest::default();
    for o in outcomes {
        match *o {
            Outcome::Placed { shard, bin } => d.push((u64::from(shard) << 32) | u64::from(bin)),
            Outcome::Shed => d.push(u64::MAX),
        }
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u32, frac: f64, a: Time, d: Time) -> Job {
        Job {
            id,
            size_raw: Size::from_f64(frac).raw(),
            arrival: a,
            departure: d,
        }
    }

    fn placed(shard: u32, bin: u32) -> Outcome {
        Outcome::Placed { shard, bin }
    }

    fn jobs() -> Vec<Job> {
        vec![
            job(0, 0.6, 0, 10),
            job(1, 0.3, 2, 8),
            job(2, 0.6, 3, 12),
            job(3, 0.5, 10, 14),
        ]
    }

    #[test]
    fn a_feasible_packing_passes_with_exact_usage() {
        let out = [placed(0, 0), placed(0, 0), placed(0, 1), placed(0, 2)];
        let s = check_packing(&jobs(), &out, Some(2)).unwrap();
        assert_eq!((s.placed, s.shed, s.bins, s.peak_open), (4, 0, 3, 2));
        // bin 0: [0,10), bin 1: [3,12), bin 2: [10,14)
        assert_eq!(s.usage, 10 + 9 + 4);
        assert!(s.usage >= s.lb3);
        assert!(s.usage_ratio() >= 1.0);
    }

    #[test]
    fn an_overfull_bin_is_caught() {
        // Jobs 0 and 2 (0.6 each) overlap on [3,10) in one bin.
        let out = [placed(0, 0), placed(0, 0), placed(0, 0), placed(0, 2)];
        let err = check_packing(&jobs(), &out, None).unwrap_err();
        assert!(err.contains("overfull"), "{err}");
    }

    #[test]
    fn a_flipped_decision_is_caught() {
        let reference = [placed(0, 0), placed(0, 0), placed(0, 1), placed(0, 2)];
        let mut flipped = reference;
        flipped[3] = placed(0, 5);
        // Still feasible, so only the differential comparison and the
        // digest can see it.
        assert!(check_packing(&jobs(), &flipped, None).is_ok());
        let err = compare_decisions("tcp", &flipped, &reference).unwrap_err();
        assert!(err.contains("job 3"), "{err}");
        assert_ne!(digest(&flipped), digest(&reference));
    }

    #[test]
    fn the_fleet_cap_and_closed_bins_are_enforced() {
        let out = [placed(0, 0), placed(0, 0), placed(1, 0), placed(0, 2)];
        let err = check_packing(&jobs(), &out, Some(1)).unwrap_err();
        assert!(err.contains("fleet cap"), "{err}");
        // Job 3 arrives at t=10 into bin 0/0, which emptied at t=10.
        let reopened = [placed(0, 0), placed(0, 0), placed(0, 1), placed(0, 0)];
        let err = check_packing(&jobs(), &reopened, None).unwrap_err();
        assert!(err.contains("closed earlier"), "{err}");
    }

    #[test]
    fn sheds_count_against_admission_not_usage() {
        let out = [placed(0, 0), placed(0, 0), Outcome::Shed, placed(0, 2)];
        let s = check_packing(&jobs(), &out, Some(1)).unwrap();
        assert_eq!((s.placed, s.shed), (3, 1));
        assert_eq!(s.admitted_ratio(), 0.75);
    }
}
