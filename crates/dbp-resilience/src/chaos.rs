//! The chaos runner: drives a live streaming session through a fault
//! plan with recovery and admission policies, accounting for every job
//! exactly once.
//!
//! ## Execution model
//!
//! Jobs and faults are merged into one time-ordered event stream (ties
//! go to job submissions, so a job arriving at the instant a fault fires
//! can itself be displaced by it). A displaced job restarts from
//! scratch: its resubmission occupies a fresh interval
//! `[retry_time, retry_time + duration)` under a fresh item id, so the
//! engine's monotone-id and monotone-clock invariants hold across
//! retries. A job shed at the fleet cap keeps its id (shed arrivals
//! leave no trace in the session) and — under
//! [`AdmissionPolicy::Queue`] — is re-presented at the next instant an
//! admitted job departs; when no admitted departure lies in the future
//! it is rejected, which bounds the queue and makes the run terminate.
//!
//! ## The oracle
//!
//! [`ChaosReport::verify`] re-derives everything from the submission
//! ledger and the finished run: every job ends in exactly one of
//! completed / retried-then-completed / dropped / rejected, every
//! admitted submission landed in exactly one bin, and no bin ever
//! exceeds unit capacity when each submission is credited only for its
//! *effective* interval (truncated at displacement). It deliberately
//! shares no state with the runner beyond the ledger it checks.

use crate::fault::{mix, AdmissionPolicy, FaultKind, FaultPlan, RecoveryPolicy};
use dbp_core::accounting::lower_bounds;
use dbp_core::observe::{NoopObserver, PackObserver, Tee};
use dbp_core::{
    Admission, BinId, ClairvoyanceMode, DbpError, Instance, Item, ItemId, OnlinePacker, OnlineRun,
    RunRecorder, Size, StreamingSession, Time,
};
use dbp_obs::counters::Counters;
use dbp_sim::{Billing, RetryCounters, SimReport};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Configuration of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// The fault schedule.
    pub plan: FaultPlan,
    /// What happens to displaced jobs.
    pub policy: RecoveryPolicy,
    /// Maximum concurrently open servers; `None` = unbounded (no
    /// admission control).
    pub fleet_cap: Option<usize>,
    /// What happens to arrivals shed at the cap.
    pub admission: AdmissionPolicy,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            plan: FaultPlan::none(),
            policy: RecoveryPolicy::Immediate,
            fleet_cap: None,
            admission: AdmissionPolicy::Reject,
        }
    }
}

/// The final status of one job (one entry per instance item).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Completed on the first attempt.
    Completed,
    /// Completed after `retries` resubmissions.
    Retried {
        /// Resubmissions consumed before the attempt that completed.
        retries: u32,
    },
    /// Displaced and dropped by the recovery policy after `retries`
    /// resubmissions.
    Dropped {
        /// Resubmissions consumed before the drop.
        retries: u32,
    },
    /// Refused by admission control at the fleet cap.
    Rejected,
}

/// How one submission (one attempt of one job) ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmissionFate {
    /// Ran to its scheduled departure.
    Completed,
    /// Its server was killed at `at` before the scheduled departure.
    Displaced {
        /// The failure instant.
        at: Time,
    },
    /// Shed at the fleet cap at `at`; never admitted.
    Shed {
        /// The shed instant.
        at: Time,
    },
}

/// One attempt of one job, as fed to the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmissionRecord {
    /// Index of the job in the instance's item list.
    pub job: usize,
    /// Attempt number: 0 for the original submission, `k` for retry `k`.
    pub attempt: u32,
    /// The item id this attempt used (fresh per retry).
    pub id: ItemId,
    /// When the attempt arrived.
    pub arrival: Time,
    /// Its scheduled departure (`arrival + original duration`).
    pub departure: Time,
    /// How it ended.
    pub fate: SubmissionFate,
}

/// The full outcome of a chaos run: the finished engine run plus the
/// per-job and per-submission ledger the oracle checks.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Packer display name.
    pub scheduler: String,
    /// The finished run (failed bins appear with truncated lifetimes).
    pub run: OnlineRun,
    /// Final status of each job, indexed like the instance's items.
    pub outcomes: Vec<JobOutcome>,
    /// Every attempt fed to the engine, in submission order.
    pub submissions: Vec<SubmissionRecord>,
    /// Fault events processed (fired whether or not servers were open).
    pub faults_applied: u64,
    /// Servers killed across all faults.
    pub servers_killed: u64,
    /// Submissions displaced by a server failure.
    pub jobs_displaced: u64,
    /// Submissions shed at the fleet cap.
    pub arrivals_shed: u64,
}

impl ChaosReport {
    /// Aggregates the ledger into [`RetryCounters`] for `SimReport`.
    pub fn retry_counters(&self) -> RetryCounters {
        let mut c = RetryCounters {
            servers_killed: self.servers_killed,
            jobs_displaced: self.jobs_displaced,
            arrivals_shed: self.arrivals_shed,
            ..RetryCounters::default()
        };
        for o in &self.outcomes {
            match *o {
                JobOutcome::Completed => c.jobs_completed += 1,
                JobOutcome::Retried { retries } => {
                    c.jobs_retried += 1;
                    c.retries_total += u64::from(retries);
                }
                JobOutcome::Dropped { retries } => {
                    c.jobs_dropped += 1;
                    c.retries_total += u64::from(retries);
                }
                JobOutcome::Rejected => c.jobs_rejected += 1,
            }
        }
        c
    }

    /// The chaos oracle: exactly-once job accounting and post-recovery
    /// capacity safety. See the module docs for what is checked.
    pub fn verify(&self, inst: &Instance) -> Result<(), DbpError> {
        let coverage = |what: String| DbpError::PackingCoverage { what };
        if self.outcomes.len() != inst.len() {
            return Err(coverage(format!(
                "{} outcomes for {} jobs",
                self.outcomes.len(),
                inst.len()
            )));
        }
        // Group the ledger by job, preserving submission order.
        let mut by_job: Vec<Vec<&SubmissionRecord>> = vec![Vec::new(); inst.len()];
        let mut by_id: HashMap<u32, &SubmissionRecord> = HashMap::new();
        for s in &self.submissions {
            if s.job >= inst.len() {
                return Err(coverage(format!("submission for unknown job {}", s.job)));
            }
            by_job[s.job].push(s);
            if by_id.insert(s.id.0, s).is_some() {
                return Err(coverage(format!("item id {} submitted twice", s.id.0)));
            }
        }
        for (job, subs) in by_job.iter().enumerate() {
            let completed = subs
                .iter()
                .filter(|s| s.fate == SubmissionFate::Completed)
                .count();
            let last = subs
                .last()
                .ok_or_else(|| coverage(format!("job {job} was never submitted")))?;
            match self.outcomes[job] {
                JobOutcome::Completed => {
                    if completed != 1 || last.fate != SubmissionFate::Completed || last.attempt != 0
                    {
                        return Err(coverage(format!(
                            "job {job} marked Completed but its ledger disagrees"
                        )));
                    }
                }
                JobOutcome::Retried { retries } => {
                    if completed != 1
                        || last.fate != SubmissionFate::Completed
                        || last.attempt != retries
                        || retries == 0
                    {
                        return Err(coverage(format!(
                            "job {job} marked Retried({retries}) but its ledger disagrees"
                        )));
                    }
                }
                JobOutcome::Dropped { retries } => {
                    let displaced = matches!(last.fate, SubmissionFate::Displaced { .. });
                    if completed != 0 || !displaced || last.attempt != retries {
                        return Err(coverage(format!(
                            "job {job} marked Dropped({retries}) but its ledger disagrees"
                        )));
                    }
                }
                JobOutcome::Rejected => {
                    let shed = matches!(last.fate, SubmissionFate::Shed { .. });
                    if completed != 0 || !shed {
                        return Err(coverage(format!(
                            "job {job} marked Rejected but its ledger disagrees"
                        )));
                    }
                }
            }
        }
        // Every admitted submission landed in exactly one bin; shed ones
        // in none.
        let mut placed: HashMap<u32, usize> = HashMap::new();
        for r in &self.run.bins {
            for id in &r.items {
                *placed.entry(id.0).or_insert(0) += 1;
            }
        }
        for s in &self.submissions {
            let n = placed.get(&s.id.0).copied().unwrap_or(0);
            let expect = match s.fate {
                SubmissionFate::Shed { .. } => 0,
                _ => 1,
            };
            if n != expect {
                return Err(coverage(format!(
                    "submission {} (job {}) appears in {n} bins, expected {expect}",
                    s.id.0, s.job
                )));
            }
        }
        for id in placed.keys() {
            if !by_id.contains_key(id) {
                return Err(coverage(format!("bin holds unknown item id {id}")));
            }
        }
        // Capacity: credit each submission for its effective interval
        // only (truncated at displacement) and sweep each bin's level.
        for (bin_idx, r) in self.run.bins.iter().enumerate() {
            let mut deltas: Vec<(Time, i128)> = Vec::new();
            for id in &r.items {
                let s = by_id[&id.0];
                let end = match s.fate {
                    SubmissionFate::Completed => s.departure,
                    SubmissionFate::Displaced { at } => at,
                    SubmissionFate::Shed { .. } => unreachable!("shed ids are never placed"),
                };
                if end <= s.arrival {
                    continue; // displaced at its own arrival instant
                }
                let raw = inst.items()[s.job].size().raw() as i128;
                deltas.push((s.arrival, raw));
                deltas.push((end, -raw));
            }
            // Departures settle before arrivals at the same instant.
            deltas.sort_by_key(|&(t, d)| (t, d));
            let mut level: i128 = 0;
            for (t, d) in deltas {
                level += d;
                if level > Size::SCALE as i128 {
                    return Err(DbpError::CapacityExceeded {
                        bin: bin_idx,
                        at: t,
                        level: level as f64 / Size::SCALE as f64,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Runs `packer` over `inst` under the fault plan and policies in `cfg`.
pub fn run_chaos(
    inst: &Instance,
    packer: &mut dyn OnlinePacker,
    mode: ClairvoyanceMode,
    cfg: &ChaosConfig,
) -> Result<ChaosReport, DbpError> {
    run_chaos_observed(inst, packer, mode, cfg, &mut NoopObserver)
}

/// A pending submission in the merged event stream. Ordered by
/// `(time, sequence number)` so equal-time submissions replay in the
/// order they were scheduled.
type PendingSub = Reverse<(Time, u64, usize, u32, u32)>; // (at, seq, job, attempt, id)

/// Like [`run_chaos`], but streams every packing event (including
/// `bin_failed` / `arrival_shed`) to `obs`.
pub fn run_chaos_observed<O: PackObserver>(
    inst: &Instance,
    packer: &mut dyn OnlinePacker,
    mode: ClairvoyanceMode,
    cfg: &ChaosConfig,
    obs: &mut O,
) -> Result<ChaosReport, DbpError> {
    for ev in &cfg.plan.events {
        if let FaultKind::RackFailure { rack, racks } = ev.kind {
            if racks == 0 || rack >= racks {
                return Err(DbpError::InvalidParameter {
                    what: format!("rack {rack} outside 0..{racks}"),
                });
            }
        }
    }
    let scheduler = packer.name();
    let mut history = RunRecorder::new();
    let mut session = StreamingSession::with_observer(mode, packer, Tee(obs, &mut history));

    let mut subs: BinaryHeap<PendingSub> = BinaryHeap::new();
    let mut seq: u64 = 0;
    for (job, item) in inst.items().iter().enumerate() {
        subs.push(Reverse((item.arrival(), seq, job, 0, item.id().0)));
        seq += 1;
    }
    let mut next_id: u32 = inst.items().iter().map(|i| i.id().0 + 1).max().unwrap_or(0);

    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; inst.len()];
    let mut submissions: Vec<SubmissionRecord> = Vec::with_capacity(inst.len());
    // Live admitted submissions: item id → index into `submissions`.
    let mut live: HashMap<u32, usize> = HashMap::new();
    // True departures of admitted submissions, for Queue readmission.
    let mut dep_heap: BinaryHeap<Reverse<Time>> = BinaryHeap::new();

    let mut faults_applied: u64 = 0;
    let mut servers_killed: u64 = 0;
    let mut jobs_displaced: u64 = 0;
    let mut arrivals_shed: u64 = 0;

    let mut fault_idx = 0usize;
    loop {
        let next_sub = subs.peek().map(|Reverse((at, ..))| *at);
        let next_fault = cfg.plan.events.get(fault_idx).map(|e| e.at);
        match (next_sub, next_fault) {
            (None, None) => break,
            // Ties go to submissions: a job arriving at a fault instant
            // is admitted first and may be displaced by that same fault.
            (Some(s), f) if f.is_none() || s <= f.unwrap() => {
                let Reverse((at, _, job, attempt, raw_id)) = subs.pop().expect("peeked");
                let src = &inst.items()[job];
                let item = Item::new(raw_id, src.size(), at, at + src.duration());
                let admitted = match cfg.fleet_cap {
                    None => {
                        session.arrive(&item)?;
                        true
                    }
                    Some(cap) => matches!(session.arrive_capped(&item, cap)?, Admission::Placed(_)),
                };
                if admitted {
                    live.insert(raw_id, submissions.len());
                    dep_heap.push(Reverse(item.departure()));
                    submissions.push(SubmissionRecord {
                        job,
                        attempt,
                        id: ItemId(raw_id),
                        arrival: at,
                        departure: item.departure(),
                        fate: SubmissionFate::Completed,
                    });
                } else {
                    arrivals_shed += 1;
                    submissions.push(SubmissionRecord {
                        job,
                        attempt,
                        id: ItemId(raw_id),
                        arrival: at,
                        departure: item.departure(),
                        fate: SubmissionFate::Shed { at },
                    });
                    match cfg.admission {
                        AdmissionPolicy::Reject => {
                            outcomes[job] = Some(JobOutcome::Rejected);
                        }
                        AdmissionPolicy::Queue => {
                            // Re-present when a server next frees up. Past
                            // departures are popped lazily; they cannot
                            // serve any later requeue either.
                            while matches!(dep_heap.peek(), Some(Reverse(t)) if *t <= at) {
                                dep_heap.pop();
                            }
                            match dep_heap.peek() {
                                Some(Reverse(t)) => {
                                    // Fresh id so every ledger entry is
                                    // uniquely keyed (a shed arrival left
                                    // no trace, so the old id would also
                                    // have been presentable).
                                    subs.push(Reverse((*t, seq, job, attempt, next_id)));
                                    seq += 1;
                                    next_id += 1;
                                }
                                None => outcomes[job] = Some(JobOutcome::Rejected),
                            }
                        }
                    }
                }
            }
            _ => {
                let ev = cfg.plan.events[fault_idx];
                fault_idx += 1;
                faults_applied += 1;
                // Settle departures first so victims are picked among
                // servers actually alive at the fault instant. The merged
                // ordering guarantees the clock has not passed `ev.at`.
                session.advance(ev.at)?;
                let open: Vec<BinId> = session.open_set().iter().map(|b| b.id()).collect();
                let victims: Vec<BinId> = match ev.kind {
                    FaultKind::Crash => open,
                    FaultKind::RackFailure { rack, racks } => {
                        open.into_iter().filter(|b| b.0 % racks == rack).collect()
                    }
                    FaultKind::SpotRevocation { count } => {
                        let mut pool = open;
                        let mut picked = Vec::new();
                        for j in 0..count.min(pool.len()) {
                            let draw =
                                mix(cfg.plan.seed, ((fault_idx as u64 - 1) << 32) | j as u64);
                            let k = (draw % pool.len() as u64) as usize;
                            picked.push(pool.swap_remove(k));
                        }
                        picked
                    }
                };
                for bin in victims {
                    let displaced = session.fail_bin(bin, ev.at)?;
                    servers_killed += 1;
                    for a in displaced {
                        jobs_displaced += 1;
                        let idx = live.remove(&a.id.0).ok_or_else(|| DbpError::Internal {
                            what: format!("displaced item {} has no live submission", a.id.0),
                        })?;
                        submissions[idx].fate = SubmissionFate::Displaced { at: ev.at };
                        let (job, attempt) = (submissions[idx].job, submissions[idx].attempt);
                        match cfg.policy.resubmit_at(ev.at, attempt + 1) {
                            None => {
                                outcomes[job] = Some(JobOutcome::Dropped { retries: attempt });
                            }
                            Some(rt) => {
                                // Restart from scratch under a fresh id.
                                subs.push(Reverse((rt, seq, job, attempt + 1, next_id)));
                                seq += 1;
                                next_id += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    session.finish()?;
    let run = history.into_run();
    for (&raw_id, &idx) in &live {
        debug_assert_eq!(submissions[idx].id.0, raw_id);
        let (job, attempt) = (submissions[idx].job, submissions[idx].attempt);
        outcomes[job] = Some(if attempt == 0 {
            JobOutcome::Completed
        } else {
            JobOutcome::Retried { retries: attempt }
        });
    }
    let outcomes = outcomes
        .into_iter()
        .enumerate()
        .map(|(job, o)| {
            o.ok_or_else(|| DbpError::Internal {
                what: format!("job {job} ended with no outcome"),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ChaosReport {
        scheduler,
        run,
        outcomes,
        submissions,
        faults_applied,
        servers_killed,
        jobs_displaced,
        arrivals_shed,
    })
}

/// Runs a chaos simulation and folds it into a [`SimReport`] with
/// [`SimReport::retry`] populated. `utilization` credits only the
/// effectively-served demand (truncated at displacement);
/// `ratio_vs_lb` still compares against the *fault-free* lower bound of
/// the original instance, so values below 1 are possible when jobs were
/// dropped or rejected.
pub fn simulate_chaos(
    inst: &Instance,
    packer: &mut dyn OnlinePacker,
    mode: ClairvoyanceMode,
    billing: Billing,
    cfg: &ChaosConfig,
) -> Result<SimReport, DbpError> {
    billing.validate()?;
    let mut counters = Counters::new();
    let rep = run_chaos_observed(inst, packer, mode, cfg, &mut counters)?;
    rep.verify(inst)?;
    let served_ticks: f64 = rep
        .submissions
        .iter()
        .filter_map(|s| {
            let end = match s.fate {
                SubmissionFate::Completed => s.departure,
                SubmissionFate::Displaced { at } => at,
                SubmissionFate::Shed { .. } => return None,
            };
            let len = (end - s.arrival).max(0) as f64;
            Some(len * inst.items()[s.job].size().raw() as f64 / Size::SCALE as f64)
        })
        .sum();
    let run = &rep.run;
    let fleet = run.fleet_series();
    let lb = lower_bounds(inst);
    Ok(SimReport {
        scheduler: rep.scheduler.clone(),
        cost: billing.cost(run),
        usage: run.usage,
        servers_acquired: run.bins_opened(),
        peak_servers: fleet.max() as usize,
        utilization: if run.usage == 0 {
            1.0
        } else {
            served_ticks / run.usage as f64
        },
        ratio_vs_lb: if lb.best() == 0 {
            1.0
        } else {
            run.usage as f64 / lb.best() as f64
        },
        counters: counters.snapshot(),
        retry: Some(rep.retry_counters()),
        run: rep.run,
    })
}
