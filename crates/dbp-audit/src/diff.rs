//! The differential harness: one algorithm, one instance, four
//! independently-implemented execution paths that must agree bit-for-bit.
//!
//! 1. **batch** — [`OnlineEngine::run`] (the production path);
//! 2. **stream** — a hand-driven [`StreamingSession`] that calls
//!    [`StreamingSession::advance_to`] before each arrival, exercising the
//!    explicit clock-advance path the batch wrapper never takes;
//! 3. **replay** — [`OnlineEngine::run_observed`] into an
//!    [`EventLog`], reconstructed by `dbp-obs` replay and re-verified —
//!    an oracle that recomputes the packing and usage from the event
//!    stream alone;
//! 4. **reference** — for `next-fit` only, the seed-style linear
//!    engine in [`dbp_bench::reference`], a fully independent
//!    implementation of the same semantics.
//!
//! Disagreement anywhere is a [`CheckId::Differential`] violation; an
//! engine error (the packer made an illegal decision) is
//! [`CheckId::EngineError`]. On top of the cross-checks, path 1's run goes
//! through the full invariant checker ([`check_run`]) and the Theorem 4/5
//! ceilings.

use crate::invariants::{
    check_packing, check_run, check_theorem_ceiling, CheckId, ExactBaselines, Violation,
};
use dbp_bench::reference::reference_next_fit;
use dbp_bench::registry::{
    needs_departures, offline_packer, online_packer, online_packer_linear, AlgoParams,
};
use dbp_core::observe::EventLog;
use dbp_core::stream::StreamingSession;
use dbp_core::{ClairvoyanceMode, Instance, OnlineEngine, OnlinePacker, OnlineRun};
use dbp_obs::replay::replay_events;

/// The clairvoyance mode each roster algorithm is audited under — the
/// same mapping the CLI's `compare` uses: classification strategies need
/// departure times, Any Fit variants are run honestly without them.
pub fn clairvoyance_for(algo: &str) -> ClairvoyanceMode {
    if needs_departures(algo) {
        ClairvoyanceMode::Clairvoyant
    } else {
        ClairvoyanceMode::NonClairvoyant
    }
}

/// Field-by-field run equality ([`OnlineRun`] carries no `PartialEq`):
/// placements, total usage, and every bin-lifetime record.
pub fn runs_equal(a: &OnlineRun, b: &OnlineRun) -> Result<(), String> {
    if a.packing != b.packing {
        return Err("placements differ".into());
    }
    if a.usage != b.usage {
        return Err(format!("usage {} != {}", a.usage, b.usage));
    }
    if a.bins.len() != b.bins.len() {
        return Err(format!("bin count {} != {}", a.bins.len(), b.bins.len()));
    }
    for (x, y) in a.bins.iter().zip(&b.bins) {
        if (x.id, x.opened_at, x.closed_at, x.tag, &x.items)
            != (y.id, y.opened_at, y.closed_at, y.tag, &y.items)
        {
            return Err(format!(
                "bin {} lifetime record differs: [{}, {}) tag {} items {:?} \
                 vs [{}, {}) tag {} items {:?}",
                x.id.0,
                x.opened_at,
                x.closed_at,
                x.tag,
                x.items,
                y.opened_at,
                y.closed_at,
                y.tag,
                y.items
            ));
        }
    }
    Ok(())
}

/// Audits one online packer on one instance through all applicable paths.
///
/// `algo` is only used for labeling and for the Theorem 4/5 ceiling and
/// reference-engine cross-checks (pass a non-roster name for custom
/// packers); `fresh` must return an identically-configured packer each
/// call, since every path needs untouched state.
pub fn audit_online_with<F>(
    inst: &Instance,
    algo: &str,
    mode: ClairvoyanceMode,
    exact: &ExactBaselines,
    mut fresh: F,
) -> Vec<Violation>
where
    F: FnMut() -> Box<dyn OnlinePacker + Send>,
{
    let engine = OnlineEngine::new(mode.clone());
    let mut out = Vec::new();

    let batch = match engine.run(inst, fresh().as_mut()) {
        Ok(run) => run,
        Err(e) => {
            out.push(Violation::new(
                CheckId::EngineError,
                format!("{algo}: batch run failed: {e}"),
            ));
            return out;
        }
    };

    out.extend(check_run(inst, &batch, exact));
    check_theorem_ceiling(algo, inst, batch.usage, exact, &mut out);

    // Path 2: hand-driven streaming with explicit clock advances.
    let mut packer = fresh();
    let mut session = StreamingSession::new(mode.clone(), packer.as_mut());
    let streamed = (|| -> Result<OnlineRun, dbp_core::DbpError> {
        for item in inst.items() {
            session.advance_to(item.arrival())?;
            session.arrive(item)?;
        }
        session.finish()
    })();
    match streamed {
        Ok(run) => {
            if let Err(why) = runs_equal(&batch, &run) {
                out.push(Violation::new(
                    CheckId::Differential,
                    format!("{algo}: stream vs batch: {why}"),
                ));
            }
        }
        Err(e) => out.push(Violation::new(
            CheckId::Differential,
            format!("{algo}: streaming path failed where batch succeeded: {e}"),
        )),
    }

    // Path 3: observe, replay from events, re-verify.
    let mut log = EventLog::new();
    match engine.run_observed(inst, fresh().as_mut(), &mut log) {
        Ok(observed) => {
            if let Err(why) = runs_equal(&batch, &observed) {
                out.push(Violation::new(
                    CheckId::Differential,
                    format!("{algo}: observed vs batch: {why}"),
                ));
            }
            match replay_events(&log.events) {
                Ok(replay) => {
                    if let Err(e) = replay.verify() {
                        out.push(Violation::new(
                            CheckId::Differential,
                            format!("{algo}: replay self-verification failed: {e}"),
                        ));
                    }
                    if replay.instance != *inst {
                        out.push(Violation::new(
                            CheckId::Differential,
                            format!("{algo}: replay reconstructed a different instance"),
                        ));
                    }
                    if let Err(why) = runs_equal(&batch, &replay.run) {
                        out.push(Violation::new(
                            CheckId::Differential,
                            format!("{algo}: replay vs batch: {why}"),
                        ));
                    }
                }
                Err(e) => out.push(Violation::new(
                    CheckId::Differential,
                    format!("{algo}: event stream does not replay: {e}"),
                )),
            }
        }
        Err(e) => out.push(Violation::new(
            CheckId::Differential,
            format!("{algo}: observed path failed where batch succeeded: {e}"),
        )),
    }

    // Path 4: the independent linear reference engine (Next Fit only).
    if algo == "next-fit" {
        let reference = reference_next_fit(inst);
        if reference.usage != batch.usage || reference.bins.len() != batch.bins.len() {
            out.push(Violation::new(
                CheckId::Differential,
                format!(
                    "{algo}: reference engine usage {} / {} bins vs batch {} / {}",
                    reference.usage,
                    reference.bins.len(),
                    batch.usage,
                    batch.bins.len()
                ),
            ));
        } else {
            for (rec, refbin) in batch.bins.iter().zip(&reference.bins) {
                if rec.opened_at != refbin.opened_at
                    || rec.closed_at != refbin.closed_at
                    || rec.items != refbin.items
                {
                    out.push(Violation::new(
                        CheckId::Differential,
                        format!("{algo}: reference engine bin {} differs", rec.id.0),
                    ));
                    break;
                }
            }
        }
    }

    out
}

/// Audits one online roster algorithm by name.
pub fn audit_online_algo(inst: &Instance, algo: &str, exact: &ExactBaselines) -> Vec<Violation> {
    let params = AlgoParams::from_instance(inst);
    let mode = clairvoyance_for(algo);
    let mut out = audit_online_with(inst, algo, mode.clone(), exact, || {
        online_packer(algo, params)
    });

    // Path 5: the linear-scan foil. Roster packers answer placements
    // from the OpenBins fit index; the seed's linear walk is kept as a
    // selectable differential witness, and every audited instance proves
    // the two paths bit-identical — packing, usage, and bin lifetime
    // records alike.
    let engine = OnlineEngine::new(mode);
    match (
        engine.run(inst, online_packer(algo, params).as_mut()),
        engine.run(inst, online_packer_linear(algo, params).as_mut()),
    ) {
        (Ok(indexed), Ok(linear)) => {
            if let Err(why) = runs_equal(&indexed, &linear) {
                out.push(Violation::new(
                    CheckId::Differential,
                    format!("{algo}: indexed vs linear scan: {why}"),
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => out.push(Violation::new(
            CheckId::Differential,
            format!("{algo}: indexed-vs-linear comparison failed to run: {e}"),
        )),
    }
    out
}

/// Audits one offline roster algorithm by name: packing invariants plus
/// the bound chain.
pub fn audit_offline_algo(inst: &Instance, algo: &str, exact: &ExactBaselines) -> Vec<Violation> {
    let packer = offline_packer(algo);
    let packing = packer.pack(inst);
    let usage = packing.total_usage(inst);
    check_packing(inst, &packing, Some(usage), exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::{exact_baselines, ExactLimits};
    use dbp_bench::registry::{OFFLINE_ALGOS, ONLINE_ALGOS};

    #[test]
    fn full_roster_passes_on_a_structured_instance() {
        let inst = Instance::from_triples(&[
            (0.6, 0, 10),
            (0.6, 2, 12),
            (0.3, 5, 7),
            (0.45, 6, 40),
            (0.9, 20, 30),
        ]);
        let exact = exact_baselines(&inst, ExactLimits::default());
        for algo in ONLINE_ALGOS {
            let v = audit_online_algo(&inst, algo, &exact);
            assert!(v.is_empty(), "{algo}: {v:?}");
        }
        for algo in OFFLINE_ALGOS {
            let v = audit_offline_algo(&inst, algo, &exact);
            assert!(v.is_empty(), "{algo}: {v:?}");
        }
    }

    #[test]
    fn runs_equal_spots_usage_drift() {
        let inst = Instance::from_triples(&[(0.5, 0, 10), (0.5, 1, 8)]);
        let mut ff = dbp_algos::online::AnyFit::first_fit();
        let a = OnlineEngine::non_clairvoyant().run(&inst, &mut ff).unwrap();
        let mut b = a.clone();
        b.usage += 3;
        assert!(runs_equal(&a, &b).is_err());
        assert!(runs_equal(&a, &a.clone()).is_ok());
    }
}
