//! Event synthesis for offline packings.
//!
//! Offline packers ([`dbp_core::OfflinePacker`]) return a finished
//! [`Packing`] rather than making decisions inside the engine loop, so
//! there is no natural place for them to emit events. This module
//! replays a finished packing chronologically and synthesizes the same
//! event stream the online engine would have produced, which lets every
//! observer ([`crate::trace::TraceWriter`],
//! [`crate::metrics::MetricsAggregator`], [`crate::counters::Counters`])
//! and the replay oracle work uniformly across both packer families.
//!
//! Offline bins may go idle and be reused later; such a bin emits one
//! `BinOpened`/`BinClosed` pair per busy episode, so its replayed usage
//! is the span of its union of intervals — exactly what
//! [`Packing::total_usage`] charges.
//!
//! Synthesized `PlacementDecided` events carry `candidates_scanned = 0`:
//! the offline packer's decision procedure already ran, and its cost is
//! not attributable to individual placements.

use dbp_core::observe::{FitDecision, PackEvent, PackObserver};
use dbp_core::{BinId, DbpError, Instance, ItemId, Packing, Size, Time};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

struct BinSlot {
    level: Size,
    active: usize,
    opened_at: Time,
    episode_items: usize,
}

/// Walks `packing` chronologically over `inst` and feeds the synthesized
/// event stream to `obs`. Fails if the packing does not place every item
/// of the instance exactly once (items missing from the packing surface
/// as [`DbpError::PackingCoverage`]).
pub fn emit_packing<O: PackObserver>(
    inst: &Instance,
    packing: &Packing,
    obs: &mut O,
) -> Result<(), DbpError> {
    let mut bin_of: HashMap<ItemId, BinId> = HashMap::with_capacity(inst.len());
    for (bin, items) in packing.iter_bins() {
        for id in items {
            bin_of.insert(*id, bin);
        }
    }

    let mut slots: HashMap<BinId, BinSlot> = HashMap::new();
    let mut open_count = 0usize;
    // Departure queue mirrors the online engine: (time, item) min-heap,
    // departures at time t processed before arrivals at t.
    let mut departures: BinaryHeap<Reverse<(Time, ItemId, BinId, Size)>> = BinaryHeap::new();

    let drain = |slots: &mut HashMap<BinId, BinSlot>,
                 open_count: &mut usize,
                 departures: &mut BinaryHeap<Reverse<(Time, ItemId, BinId, Size)>>,
                 until: Time,
                 obs: &mut O| {
        while let Some(&Reverse((dt, _, bin, size))) = departures.peek() {
            if dt > until {
                break;
            }
            departures.pop();
            let slot = slots.get_mut(&bin).expect("departing from a known bin");
            slot.level = slot.level.saturating_sub(size);
            slot.active -= 1;
            if slot.active == 0 {
                *open_count -= 1;
                obs.on_event(&PackEvent::LevelChanged {
                    bin,
                    at: dt,
                    level: Size::ZERO,
                    open_bins: *open_count,
                });
                obs.on_event(&PackEvent::BinClosed {
                    bin,
                    at: dt,
                    opened_at: slot.opened_at,
                    items: slot.episode_items,
                });
                slots.remove(&bin);
            } else {
                obs.on_event(&PackEvent::LevelChanged {
                    bin,
                    at: dt,
                    level: slot.level,
                    open_bins: *open_count,
                });
            }
        }
    };

    for item in inst.items() {
        let at = item.arrival();
        drain(&mut slots, &mut open_count, &mut departures, at, obs);
        let bin = *bin_of
            .get(&item.id())
            .ok_or_else(|| DbpError::PackingCoverage {
                what: format!("item {} is not placed", item.id()),
            })?;
        obs.on_event(&PackEvent::ItemArrived {
            id: item.id(),
            size: item.size(),
            at,
            departure: item.departure(),
            visible_departure: Some(item.departure()),
        });
        let fresh = !slots.contains_key(&bin);
        if fresh {
            open_count += 1;
            slots.insert(
                bin,
                BinSlot {
                    level: Size::ZERO,
                    active: 0,
                    opened_at: at,
                    episode_items: 0,
                },
            );
            obs.on_event(&PackEvent::BinOpened { bin, at, tag: 0 });
        }
        let slot = slots.get_mut(&bin).expect("just ensured");
        slot.level += item.size();
        slot.active += 1;
        slot.episode_items += 1;
        obs.on_event(&PackEvent::PlacementDecided {
            id: item.id(),
            bin,
            fit_rule: if fresh {
                FitDecision::OpenedNew
            } else {
                FitDecision::Reused
            },
            candidates_scanned: 0,
        });
        obs.on_event(&PackEvent::LevelChanged {
            bin,
            at,
            level: slot.level,
            open_bins: open_count,
        });
        departures.push(Reverse((item.departure(), item.id(), bin, item.size())));
    }
    drain(&mut slots, &mut open_count, &mut departures, Time::MAX, obs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_events;
    use dbp_core::observe::EventLog;

    #[test]
    fn offline_events_replay_to_packing_usage() {
        // Bin 0 is reused after an idle gap: [0,10) then [20,30).
        let inst =
            Instance::from_triples(&[(0.5, 0, 10), (0.5, 0, 10), (0.25, 20, 30), (0.9, 5, 25)]);
        let packing =
            Packing::from_bins(vec![vec![ItemId(0), ItemId(1), ItemId(2)], vec![ItemId(3)]]);
        packing.validate(&inst).unwrap();
        let mut log = EventLog::new();
        emit_packing(&inst, &packing, &mut log).unwrap();
        let replay = replay_events(&log.events).unwrap();
        replay.verify().unwrap();
        assert_eq!(replay.run.usage, packing.total_usage(&inst));
        assert_eq!(replay.run.packing, packing);
        // The gap produces two episodes for bin 0 plus one for bin 1.
        assert_eq!(replay.run.bins.len(), 3);
    }

    #[test]
    fn unplaced_item_is_an_error() {
        let inst = Instance::from_triples(&[(0.5, 0, 10), (0.5, 1, 5)]);
        let packing = Packing::from_bins(vec![vec![ItemId(0)]]);
        let mut log = EventLog::new();
        assert!(matches!(
            emit_packing(&inst, &packing, &mut log),
            Err(DbpError::PackingCoverage { .. })
        ));
    }
}
