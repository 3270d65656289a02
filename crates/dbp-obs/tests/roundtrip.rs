//! The PR's acceptance oracle: a JSONL trace replayed through
//! `dbp_obs::replay` must reconstruct the originating run bit-for-bit —
//! identical `usage` and identical bin assignments — across multiple
//! algorithms and random workloads, for both online and offline packers.

use dbp_algos::offline::{ArrivalFirstFit, DurationDescendingFirstFit};
use dbp_algos::online::{AnyFit, ClassifyByDepartureTime, ClassifyByDuration, HybridFirstFit};
use dbp_core::observe::{EventLog, Tee};
use dbp_core::{ClairvoyanceMode, Instance, Item, OfflinePacker, OnlineEngine, OnlinePacker, Size};
use dbp_obs::counters::Counters;
use dbp_obs::metrics::MetricsAggregator;
use dbp_obs::trace::{events_to_jsonl, parse_jsonl};
use dbp_obs::{emit_packing, replay_jsonl};

/// Deterministic xorshift64* PRNG — the workspace test convention for
/// randomness without a `rand` dependency in this crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random instance: sizes in (0, 1], arrivals spread over a horizon,
/// durations in [1, 200].
fn random_instance(seed: u64, n: usize) -> Instance {
    let mut rng = Rng(seed | 1);
    let mut items = Vec::with_capacity(n);
    for id in 0..n {
        let size = Size::from_raw(1 + rng.below(Size::SCALE));
        let arrival = rng.below(500) as i64;
        let duration = 1 + rng.below(200) as i64;
        items.push(Item::new(id as u32, size, arrival, arrival + duration));
    }
    Instance::from_items(items).unwrap()
}

fn online_packers() -> Vec<Box<dyn OnlinePacker>> {
    vec![
        Box::new(AnyFit::first_fit()),
        Box::new(AnyFit::best_fit()),
        Box::new(HybridFirstFit::new(3)),
        Box::new(ClassifyByDepartureTime::new(64)),
        Box::new(ClassifyByDuration::new(8, 2.0)),
    ]
}

#[test]
fn online_traces_replay_bit_for_bit() {
    for seed in [3, 17, 91] {
        let inst = random_instance(seed, 120);
        for mut packer in online_packers() {
            let mut log = EventLog::new();
            let run = OnlineEngine::clairvoyant()
                .run_observed(&inst, packer.as_mut(), &mut log)
                .unwrap();
            let text = events_to_jsonl(&log.events);
            let replay = replay_jsonl(&text).unwrap();
            replay.verify().unwrap();
            let name = packer.name();
            assert_eq!(
                replay.run.usage, run.usage,
                "usage drifted through the trace for {name} seed {seed}"
            );
            assert_eq!(
                replay.run.packing, run.packing,
                "bin assignments drifted through the trace for {name} seed {seed}"
            );
            assert_eq!(replay.run.bins.len(), run.bins.len());
            for (a, b) in replay.run.bins.iter().zip(&run.bins) {
                assert_eq!(
                    (a.id, a.opened_at, a.closed_at),
                    (b.id, b.opened_at, b.closed_at)
                );
                assert_eq!(a.items, b.items, "{name} seed {seed} bin {:?}", a.id);
            }
        }
    }
}

/// A trace written while `placement_decided` lines still carried the
/// wall-clock `decide_ns` (best fit on 23 Poisson items, written by that
/// build's `dbp pack --trace-out`) still replays and verifies, and
/// re-encoding it drops exactly that key.
#[test]
fn traces_with_decide_ns_still_replay() {
    let text = include_str!("../fixtures/decide-ns-trace.jsonl");
    let replay = replay_jsonl(text).unwrap();
    replay.verify().unwrap();
    assert_eq!((replay.run.usage, replay.run.bins_opened()), (652, 6));
    let without_decide_ns: String = text
        .lines()
        .map(|line| match line.find(",\"decide_ns\":") {
            Some(at) => format!("{}}}\n", &line[..at]),
            None => format!("{line}\n"),
        })
        .collect();
    assert_ne!(without_decide_ns, text, "the fixture carries decide_ns");
    assert_eq!(
        events_to_jsonl(&parse_jsonl(text).unwrap()),
        without_decide_ns
    );
}

#[test]
fn non_clairvoyant_traces_replay_with_hidden_departures() {
    let inst = random_instance(29, 80);
    let mut packer = AnyFit::first_fit();
    let mut log = EventLog::new();
    let run = OnlineEngine::non_clairvoyant()
        .run_observed(&inst, &mut packer, &mut log)
        .unwrap();
    let replay = replay_jsonl(&events_to_jsonl(&log.events)).unwrap();
    replay.verify().unwrap();
    // The trace records true departures even when the packer saw none,
    // so the instance (and hence usage) reconstructs exactly.
    assert_eq!(replay.run.usage, run.usage);
    assert_eq!(replay.run.packing, run.packing);
}

#[test]
fn noisy_traces_replay_against_true_departures() {
    use std::sync::Arc;
    let inst = random_instance(43, 80);
    let mode = ClairvoyanceMode::Noisy(Arc::new(|r: &Item| r.departure() + 7));
    let mut packer = ClassifyByDepartureTime::new(64);
    let mut log = EventLog::new();
    let run = OnlineEngine::new(mode)
        .run_observed(&inst, &mut packer, &mut log)
        .unwrap();
    let replay = replay_jsonl(&events_to_jsonl(&log.events)).unwrap();
    replay.verify().unwrap();
    assert_eq!(replay.run.usage, run.usage);
    assert_eq!(replay.run.packing, run.packing);
}

#[test]
fn offline_traces_replay_to_exact_usage() {
    let packers: Vec<Box<dyn OfflinePacker>> = vec![
        Box::new(ArrivalFirstFit::new()),
        Box::new(DurationDescendingFirstFit::default()),
    ];
    for seed in [7, 23] {
        let inst = random_instance(seed, 90);
        for packer in &packers {
            let packing = packer.pack(&inst);
            packing.validate(&inst).unwrap();
            let mut log = EventLog::new();
            emit_packing(&inst, &packing, &mut log).unwrap();
            let replay = replay_jsonl(&events_to_jsonl(&log.events)).unwrap();
            replay.verify().unwrap();
            assert_eq!(
                replay.run.usage,
                packing.total_usage(&inst),
                "{} seed {seed}",
                packer.name()
            );
            // Same bins as sets: offline packers may list a bin's items
            // in decision order while the trace is chronological.
            assert_eq!(replay.run.packing.num_bins(), packing.num_bins());
            for (bin, items) in packing.iter_bins() {
                let mut got = replay.run.packing.bin(bin).to_vec();
                let mut want = items.to_vec();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{} seed {seed}", packer.name());
            }
        }
    }
}

#[test]
fn observers_agree_with_each_other() {
    let inst = random_instance(57, 150);
    let mut packer = AnyFit::first_fit();
    let mut obs = Tee(
        Counters::new(),
        Tee(MetricsAggregator::new(), EventLog::new()),
    );
    let run = OnlineEngine::clairvoyant()
        .run_observed(&inst, &mut packer, &mut obs)
        .unwrap();
    let counters = obs.0.snapshot();
    let metrics = obs.1 .0.report();
    let log = &obs.1 .1;
    assert_eq!(counters.items_packed as usize, inst.len());
    assert_eq!(counters.bins_opened as usize, run.bins_opened());
    assert_eq!(counters.bins_opened, counters.bins_closed);
    assert_eq!(metrics.usage(), run.usage, "∫active_bins dt == usage");
    assert_eq!(metrics.items_packed as usize, inst.len());
    let lb = dbp_core::accounting::lower_bounds(&inst);
    assert_eq!(metrics.lb3(), lb.lb3, "observed ⌈S(t)⌉ integrates to LB3");
    let replay = dbp_obs::replay_events(&log.events).unwrap();
    replay.verify().unwrap();
    assert_eq!(replay.run.usage, run.usage);
}
