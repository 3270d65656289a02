//! Roster-wide checkpoint/restore differential: for every online packer
//! in the bench roster, a session checkpointed after *each* prefix of
//! arrivals — round-tripped through the JSON encoding — and resumed in a
//! fresh session must finish with an [`OnlineRun`] identical to the
//! uninterrupted run's. The snapshot holds live state only, so one
//! [`RunRecorder`] observes the first session and the restored one and
//! rebuilds the whole run; the restored session's own totals must match
//! too.

use dbp_algos::registry::{clairvoyance_for, online_packer, AlgoParams, ONLINE_ALGOS};
use dbp_core::{Instance, Item, OnlineRun, RunRecorder, StreamingSession};
use dbp_resilience::{snapshot_from_json, snapshot_to_json};
use dbp_sim::NoisyEstimator;

/// A deterministic instance with bursts, shared departure ticks, and a
/// size mix that forces several bins for every roster algorithm.
fn workload() -> Instance {
    let mut triples = Vec::new();
    let mut state = 0x9E37_79B9u64;
    let mut t = 0i64;
    for i in 0..40 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let size = 0.05 + (state >> 33) as f64 / u32::MAX as f64 * 0.9;
        let dur = 3 + (state % 97) as i64;
        triples.push((size.min(0.95), t, t + dur));
        if i % 3 == 0 {
            t += (state % 5) as i64;
        }
    }
    Instance::from_triples(&triples)
}

fn arrivals(inst: &Instance) -> Vec<Item> {
    let mut items = inst.items().to_vec();
    items.sort_by_key(|i| (i.arrival(), i.id()));
    items
}

fn uninterrupted(algo: &str, inst: &Instance) -> OnlineRun {
    let params = AlgoParams::from_instance(inst);
    let mut packer = online_packer(algo, params);
    let mut history = RunRecorder::new();
    let mut s = StreamingSession::with_observer(clairvoyance_for(algo), &mut *packer, &mut history);
    for item in arrivals(inst) {
        s.arrive(&item).unwrap();
    }
    let totals = s.finish().unwrap();
    let run = history.into_run();
    assert_eq!(
        (totals.usage, totals.bins_opened),
        (run.usage, run.bins_opened())
    );
    run
}

#[test]
fn every_roster_packer_resumes_bit_identical_from_every_prefix() {
    let inst = workload();
    let items = arrivals(&inst);
    for algo in ONLINE_ALGOS {
        let params = AlgoParams::from_instance(&inst);
        let full = uninterrupted(algo, &inst);
        for cut in 0..=items.len() {
            let mut history = RunRecorder::new();
            let mut first = online_packer(algo, params);
            let mut s =
                StreamingSession::with_observer(clairvoyance_for(algo), &mut *first, &mut history);
            for item in &items[..cut] {
                s.arrive(item).unwrap();
            }
            let snap = s.snapshot();
            // Round-trip through the on-disk encoding: the resumed run
            // must not depend on anything the JSON cannot carry.
            let decoded = snapshot_from_json(&snapshot_to_json(&snap)).unwrap();
            assert_eq!(decoded, snap, "{algo}: lossy checkpoint at cut {cut}");
            drop(s);

            let mut second = online_packer(algo, params);
            let mut resumed = StreamingSession::restore_with_observer(
                clairvoyance_for(algo),
                &mut *second,
                &decoded,
                &mut history,
            )
            .unwrap();
            for item in &items[cut..] {
                resumed.arrive(item).unwrap();
            }
            let totals = resumed.finish().unwrap();
            assert_eq!(
                (totals.usage, totals.bins_opened),
                (full.usage, full.bins_opened()),
                "{algo}: resumed totals from cut {cut} diverged"
            );
            assert_eq!(
                history.into_run(),
                full,
                "{algo}: resume from cut {cut} diverged"
            );
        }
    }
}

#[test]
fn noisy_mode_resumes_bit_identical_when_estimator_is_reconstructed() {
    // The snapshot cannot carry the estimator closure; the caller must
    // reconstruct the same one. Same (seed, id) → same estimate, so the
    // resumed run is still bit-identical.
    let inst = workload();
    let items = arrivals(&inst);
    let est = NoisyEstimator::new(11, 0.3);
    let params = AlgoParams::from_instance(&inst);

    let mut base = online_packer("cbdt", params);
    let mut history = RunRecorder::new();
    let mut s = StreamingSession::with_observer(est.mode(), &mut *base, &mut history);
    for item in &items {
        s.arrive(item).unwrap();
    }
    let full_totals = s.finish().unwrap();
    let full = history.into_run();

    let cut = items.len() / 2;
    let mut history = RunRecorder::new();
    let mut first = online_packer("cbdt", params);
    let mut s = StreamingSession::with_observer(est.mode(), &mut *first, &mut history);
    for item in &items[..cut] {
        s.arrive(item).unwrap();
    }
    let snap = s.snapshot();
    drop(s);
    let mut second = online_packer("cbdt", params);
    let mut resumed = StreamingSession::restore_with_observer(
        NoisyEstimator::new(11, 0.3).mode(),
        &mut *second,
        &snap,
        &mut history,
    )
    .unwrap();
    for item in &items[cut..] {
        resumed.arrive(item).unwrap();
    }
    assert_eq!(resumed.finish().unwrap(), full_totals);
    assert_eq!(history.into_run(), full);
}
