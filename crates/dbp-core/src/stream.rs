//! Streaming online packing: feed arrivals one at a time.
//!
//! [`crate::OnlineEngine::run`] takes a whole [`crate::Instance`] — fine
//! for experiments, but a real scheduler receives jobs as they arrive and
//! cannot hand over the future. [`StreamingSession`] is the incremental
//! twin: call [`StreamingSession::arrive`] per job (non-decreasing
//! arrival times), and the session returns the bin id the packer chose;
//! call [`StreamingSession::finish`] to flush remaining departures and
//! obtain the same [`OnlineRun`] the batch engine produces.
//!
//! The batch engine and the streaming session are verified to produce
//! identical runs on identical input order (see tests) — the batch path
//! is a thin convenience over this one conceptually, and both enforce the
//! same rules: capacity, bin closure on last departure, no migration.
//!
//! ## Observability
//!
//! The session is generic over a [`PackObserver`] that receives a
//! [`crate::observe::PackEvent`] for every arrival, placement, level
//! change, bin opening, and bin closure. The default [`NoopObserver`]
//! compiles all emission sites away (`O::ENABLED` is an associated
//! constant), so unobserved sessions cost exactly what they did before
//! the hooks existed. Attach an observer with
//! [`StreamingSession::with_observer`] or
//! [`crate::OnlineEngine::run_observed`].
//!
//! ## Borrowed or owned packer
//!
//! The session reaches its packer through a [`PackerHandle`]. The
//! default handle borrows (`&'p mut dyn OnlinePacker`), which is what
//! every constructor taking `&mut` builds. [`OwnedSession`] holds a
//! `Box<dyn OnlinePacker + Send>` instead, so the session is `Send +
//! 'static` and can sit in a struct next to other state — `dbp-serve`
//! keeps one per shard under its coordinator lock. Both handles resolve
//! to the same `&mut dyn OnlinePacker` per call, so the borrowed path
//! compiles to the code it always did.
//!
//! ## Hot-path complexity
//!
//! The session is built for unbounded streams: every per-arrival and
//! per-departure operation is O(1) expected (hash lookups) in the live
//! state, never in the stream's history. Bin records are indexed directly
//! by [`BinId`] (bins are numbered in opening order), the open set is the
//! indexed [`crate::openbins::OpenBins`] slab, and `placement` entries are
//! pruned when their item departs — see `docs/performance.md`.
//!
//! ## The id-watermark contract
//!
//! Duplicate item-id rejection does not keep every id ever seen. The
//! session maintains a *watermark* `w` such that every id `< w` has been
//! seen, plus the exact set of seen ids `≥ w`. Feed ids in roughly
//! increasing order (the natural choice for generated streams) and that
//! overflow set stays tiny — O(1) memory for a monotone id stream — while
//! duplicate detection stays exact for *any* id order. The current values
//! are observable via [`StreamingSession::id_watermark`] and
//! [`StreamingSession::dedupe_backlog`].

use crate::error::DbpError;
use crate::interval::Time;
use crate::item::{Item, ItemId};
use crate::observe::{FitDecision, NoopObserver, OpKind, PackEvent, PackObserver};
use crate::online::{
    ActiveItem, BinRecord, ClairvoyanceMode, Decision, ItemView, OnlinePacker, OnlineRun, OpenBin,
    PackerState,
};
use crate::openbins::OpenBins;
use crate::packing::{BinId, Packing};
use crate::size::Size;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::marker::PhantomData;

/// Snapshot format version written by [`StreamingSession::snapshot`] and
/// accepted by [`StreamingSession::restore`].
pub const SNAPSHOT_VERSION: u32 = 1;

/// One open bin's state inside a [`SessionSnapshot`].
///
/// Bins are listed in opening order; `items` preserves the bin's exact
/// internal item order (which is history-dependent because departures use
/// `swap_remove`, and which packers can observe via
/// [`OpenBin::items`]), so rebuilding bins from a snapshot reproduces
/// packer-visible state bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinSnapshot {
    /// The bin id (global opening order).
    pub id: BinId,
    /// When the bin was opened.
    pub opened_at: Time,
    /// The packer-supplied category tag.
    pub tag: u64,
    /// The resident items, in the bin's exact internal order.
    pub items: Vec<ActiveItem>,
}

/// A versioned, self-contained snapshot of a [`StreamingSession`]'s
/// state, sufficient to resume the stream bit-identically.
///
/// What is *not* captured: the [`ClairvoyanceMode`] (it may hold an
/// arbitrary estimator closure) and the packer object itself — the caller
/// reconstructs both and [`StreamingSession::restore`] verifies the
/// packer's name matches before handing it its saved [`PackerState`].
/// Hash-based collections are stored as sorted vectors and the departure
/// heap as a sorted list, so equal sessions produce byte-equal encodings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// `packer.name()` at snapshot time; restore refuses a mismatch.
    pub packer: String,
    /// The packer's saved internal state.
    pub packer_state: PackerState,
    /// Open bins in opening order.
    pub open_bins: Vec<BinSnapshot>,
    /// Full bin history (indexed by bin id).
    pub records: Vec<BinRecord>,
    /// Pending departures as sorted `(time, item)` pairs, cancelled
    /// entries already filtered out.
    pub departures: Vec<(Time, ItemId)>,
    /// The next bin id to assign.
    pub next_bin: u32,
    /// The session clock (last arrival / advance time).
    pub last_arrival: Option<Time>,
    /// Id-dedupe watermark (every id below it has been seen).
    pub watermark: u32,
    /// Seen ids at or above the watermark, sorted.
    pub above: Vec<u32>,
}

/// Outcome of a capacity-capped arrival
/// ([`StreamingSession::arrive_capped`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The item was admitted and placed in this bin.
    Placed(BinId),
    /// The packer needed a new server but the fleet cap was reached; the
    /// item was **not** admitted and no session state changed (beyond the
    /// clock advancing to the arrival time). The same item id may be
    /// re-presented later.
    Shed,
}

/// How a [`StreamingSession`] holds its packer: borrowed
/// (`&mut dyn OnlinePacker`, the default) or owned
/// (`Box<dyn OnlinePacker + Send>`, see [`OwnedSession`]).
pub trait PackerHandle {
    /// The packer, for queries.
    fn packer(&self) -> &dyn OnlinePacker;
    /// The packer, for decisions and state changes.
    fn packer_mut(&mut self) -> &mut dyn OnlinePacker;
}

impl PackerHandle for &mut dyn OnlinePacker {
    #[inline]
    fn packer(&self) -> &dyn OnlinePacker {
        &**self
    }
    #[inline]
    fn packer_mut(&mut self) -> &mut dyn OnlinePacker {
        &mut **self
    }
}

impl PackerHandle for Box<dyn OnlinePacker + Send> {
    #[inline]
    fn packer(&self) -> &dyn OnlinePacker {
        &**self
    }
    #[inline]
    fn packer_mut(&mut self) -> &mut dyn OnlinePacker {
        &mut **self
    }
}

/// A session that owns its packer: `Send + 'static`, so it can live in a
/// shared struct. Build one with [`StreamingSession::owned`] or
/// [`StreamingSession::restore_owned`].
pub type OwnedSession = StreamingSession<'static, NoopObserver, Box<dyn OnlinePacker + Send>>;

/// An in-progress online packing over a stream of arrivals.
pub struct StreamingSession<
    'p,
    O: PackObserver = NoopObserver,
    P: PackerHandle = &'p mut dyn OnlinePacker,
> {
    mode: ClairvoyanceMode,
    packer: P,
    /// Ties `'p` to the session when the handle does not borrow.
    _borrow: PhantomData<&'p mut ()>,
    obs: O,
    open: OpenBins,
    /// Indexed by `BinId` — bins are numbered in opening order, so the
    /// record for bin `b` is `records[b.0 as usize]`.
    records: Vec<BinRecord>,
    /// Bin of each *live* item; entries are pruned at departure.
    placement: HashMap<ItemId, BinId>,
    departures: BinaryHeap<Reverse<(Time, ItemId)>>,
    next_bin: u32,
    last_arrival: Option<Time>,
    /// Every id `< watermark` has been seen.
    watermark: u32,
    /// The exact set of seen ids `≥ watermark`.
    above: HashSet<u32>,
    /// Raw ids displaced by [`StreamingSession::fail_bin`] whose stale
    /// departure-heap entries must be skipped when they surface.
    cancelled: HashSet<u32>,
}

impl<'p> StreamingSession<'p, NoopObserver> {
    /// Starts an unobserved session; the packer's [`OnlinePacker::reset`]
    /// is invoked.
    pub fn new(mode: ClairvoyanceMode, packer: &'p mut dyn OnlinePacker) -> Self {
        Self::with_observer(mode, packer, NoopObserver)
    }

    /// Unobserved [`StreamingSession::restore_with_observer`].
    pub fn restore(
        mode: ClairvoyanceMode,
        packer: &'p mut dyn OnlinePacker,
        snap: &SessionSnapshot,
    ) -> Result<Self, DbpError> {
        Self::restore_with_observer(mode, packer, snap, NoopObserver)
    }
}

impl OwnedSession {
    /// Starts an unobserved session that owns `packer`; the packer's
    /// [`OnlinePacker::reset`] is invoked.
    pub fn owned(mode: ClairvoyanceMode, packer: Box<dyn OnlinePacker + Send>) -> Self {
        Self::start(mode, packer, NoopObserver)
    }

    /// [`StreamingSession::restore`] for a session that owns `packer`.
    pub fn restore_owned(
        mode: ClairvoyanceMode,
        packer: Box<dyn OnlinePacker + Send>,
        snap: &SessionSnapshot,
    ) -> Result<Self, DbpError> {
        Self::resume(mode, packer, snap, NoopObserver)
    }
}

impl<'p, O: PackObserver> StreamingSession<'p, O> {
    /// Starts a session that reports every packing event to `obs` (pass
    /// `&mut observer` to keep ownership). The packer's
    /// [`OnlinePacker::reset`] is invoked.
    pub fn with_observer(mode: ClairvoyanceMode, packer: &'p mut dyn OnlinePacker, obs: O) -> Self {
        Self::start(mode, packer, obs)
    }

    /// Reconstructs a session from a [`SessionSnapshot`], validating the
    /// snapshot as it goes: version and packer name must match, records
    /// must be indexed by bin id, every open bin must respect capacity,
    /// and live items / pending departures must correspond one-to-one.
    /// The packer is `reset()` and then handed its saved state.
    pub fn restore_with_observer(
        mode: ClairvoyanceMode,
        packer: &'p mut dyn OnlinePacker,
        snap: &SessionSnapshot,
        obs: O,
    ) -> Result<Self, DbpError> {
        Self::resume(mode, packer, snap, obs)
    }
}

impl<'p, O: PackObserver, P: PackerHandle> StreamingSession<'p, O, P> {
    fn start(mode: ClairvoyanceMode, mut packer: P, obs: O) -> Self {
        packer.packer_mut().reset();
        StreamingSession {
            mode,
            packer,
            _borrow: PhantomData,
            obs,
            open: OpenBins::new(),
            records: Vec::new(),
            placement: HashMap::new(),
            departures: BinaryHeap::new(),
            next_bin: 0,
            last_arrival: None,
            watermark: 0,
            above: HashSet::new(),
            cancelled: HashSet::new(),
        }
    }

    /// Captures the session's full state as a [`SessionSnapshot`]. Can be
    /// taken between any two calls; resuming via
    /// [`StreamingSession::restore`] and feeding the remaining stream
    /// produces a final [`OnlineRun`] bit-identical to an uninterrupted
    /// run (verified across the whole roster in `dbp-resilience`).
    pub fn snapshot(&self) -> SessionSnapshot {
        let open_bins = self
            .open
            .iter()
            .map(|b| BinSnapshot {
                id: b.id(),
                opened_at: b.opened_at(),
                tag: b.tag(),
                items: b.items().to_vec(),
            })
            .collect();
        // Stale heap entries for displaced items are filtered out here so
        // the restored session starts with an empty cancelled set.
        let mut departures: Vec<(Time, ItemId)> = self
            .departures
            .iter()
            .filter(|Reverse((_, id))| !self.cancelled.contains(&id.0))
            .map(|Reverse(p)| *p)
            .collect();
        departures.sort_unstable();
        let mut above: Vec<u32> = self.above.iter().copied().collect();
        above.sort_unstable();
        SessionSnapshot {
            version: SNAPSHOT_VERSION,
            packer: self.packer.packer().name(),
            packer_state: self.packer.packer().save_state(),
            open_bins,
            records: self.records.clone(),
            departures,
            next_bin: self.next_bin,
            last_arrival: self.last_arrival,
            watermark: self.watermark,
            above,
        }
    }

    fn resume(
        mode: ClairvoyanceMode,
        mut packer: P,
        snap: &SessionSnapshot,
        obs: O,
    ) -> Result<Self, DbpError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(DbpError::InvalidParameter {
                what: format!(
                    "unsupported snapshot version {} (this build reads version {SNAPSHOT_VERSION})",
                    snap.version
                ),
            });
        }
        let name = packer.packer().name();
        if name != snap.packer {
            return Err(DbpError::InvalidParameter {
                what: format!(
                    "snapshot was taken with packer '{}' but '{name}' was supplied",
                    snap.packer
                ),
            });
        }
        if snap.records.len() != snap.next_bin as usize {
            return Err(DbpError::InvalidParameter {
                what: format!(
                    "snapshot has {} bin records but next_bin is {}",
                    snap.records.len(),
                    snap.next_bin
                ),
            });
        }
        for (i, r) in snap.records.iter().enumerate() {
            if r.id.0 as usize != i {
                return Err(DbpError::InvalidParameter {
                    what: format!("bin record {i} carries id {:?}", r.id),
                });
            }
        }
        packer.packer_mut().reset();
        packer.packer_mut().restore_state(&snap.packer_state)?;
        let mut open = OpenBins::new();
        let mut placement = HashMap::new();
        // Re-inserting bins in opening order rebuilds both the global and
        // the per-tag intrusive order lists exactly (per-tag order is a
        // subsequence of global order); slab slot indices may differ from
        // the original session's but are not observable.
        for b in &snap.open_bins {
            if b.id.0 >= snap.next_bin || open.get(b.id).is_some() {
                return Err(DbpError::InvalidParameter {
                    what: format!("snapshot open bin {:?} is out of range or repeated", b.id),
                });
            }
            let mut items = b.items.iter().copied();
            let first = items.next().ok_or_else(|| DbpError::InvalidParameter {
                what: format!("snapshot open bin {:?} holds no items", b.id),
            })?;
            let mut bin = OpenBin::new(b.id, b.opened_at, b.tag, first);
            if placement.insert(first.id, b.id).is_some() {
                return Err(DbpError::DuplicateItemId { id: first.id.0 });
            }
            for a in items {
                bin.push_item(a, a.size)?;
                if placement.insert(a.id, b.id).is_some() {
                    return Err(DbpError::DuplicateItemId { id: a.id.0 });
                }
            }
            open.insert(bin);
        }
        let mut departures = BinaryHeap::with_capacity(snap.departures.len());
        for &(t, id) in &snap.departures {
            if !placement.contains_key(&id) {
                return Err(DbpError::InvalidParameter {
                    what: format!("snapshot pending departure for non-live item {id}"),
                });
            }
            departures.push(Reverse((t, id)));
        }
        if snap.departures.len() != placement.len() {
            return Err(DbpError::InvalidParameter {
                what: format!(
                    "snapshot has {} pending departures for {} live items",
                    snap.departures.len(),
                    placement.len()
                ),
            });
        }
        Ok(StreamingSession {
            mode,
            packer,
            _borrow: PhantomData,
            obs,
            open,
            records: snap.records.clone(),
            placement,
            departures,
            next_bin: snap.next_bin,
            last_arrival: snap.last_arrival,
            watermark: snap.watermark,
            above: snap.above.iter().copied().collect(),
            cancelled: HashSet::new(),
        })
    }

    fn visible_departure(&self, item: &Item) -> Option<Time> {
        match &self.mode {
            ClairvoyanceMode::Clairvoyant => Some(item.departure()),
            ClairvoyanceMode::NonClairvoyant => None,
            ClairvoyanceMode::Noisy(f) => Some(f(item).max(item.arrival() + 1)),
        }
    }

    /// Processes all departures up to and including time `t`. Each
    /// departure is O(1): the item's bin comes from the pruned
    /// `placement` map and the bin itself from the indexed open set.
    fn close_until(&mut self, t: Time) -> Result<(), DbpError> {
        while let Some(&Reverse((dt, id))) = self.departures.peek() {
            if dt > t {
                break;
            }
            self.departures.pop();
            // Items displaced by a server failure never depart normally;
            // their heap entries are stale and simply skipped.
            if self.cancelled.remove(&id.0) {
                continue;
            }
            let bin_id = self
                .placement
                .remove(&id)
                .ok_or_else(|| DbpError::Internal {
                    what: format!("departing item {id} has no live placement"),
                })?;
            // Routed through OpenBins so its fit indexes see the level
            // change; the level comes back from the same call, so the
            // observed path pays no second id lookup per departure.
            let (became_empty, level_after) =
                self.open
                    .remove_from(bin_id, id)
                    .ok_or_else(|| DbpError::Internal {
                        what: format!("departing item {id} maps to a closed bin"),
                    })??;
            if became_empty {
                self.open.remove(bin_id).expect("bin was open");
                let rec = &mut self.records[bin_id.0 as usize];
                rec.closed_at = dt;
                if O::ENABLED {
                    let (opened_at, items) = (rec.opened_at, rec.items.len());
                    self.obs.on_event(&PackEvent::LevelChanged {
                        bin: bin_id,
                        at: dt,
                        level: Size::ZERO,
                        open_bins: self.open.len(),
                    });
                    self.obs.on_event(&PackEvent::BinClosed {
                        bin: bin_id,
                        at: dt,
                        opened_at,
                        items,
                    });
                }
            } else if O::ENABLED {
                let open_bins = self.open.len();
                self.obs.on_event(&PackEvent::LevelChanged {
                    bin: bin_id,
                    at: dt,
                    level: level_after,
                    open_bins,
                });
            }
        }
        Ok(())
    }

    /// The number of currently open bins.
    pub fn open_bins(&self) -> usize {
        self.open.len()
    }

    /// The number of items currently resident in open bins. The
    /// `placement` map holds exactly these (departed items are pruned),
    /// so live memory tracks the *concurrent* load, not stream length.
    pub fn live_items(&self) -> usize {
        self.placement.len()
    }

    /// All item ids below this value have been seen (watermark dedupe
    /// contract; see the module docs).
    pub fn id_watermark(&self) -> u32 {
        self.watermark
    }

    /// Number of seen ids at or above the watermark still held for exact
    /// duplicate detection. Stays O(1) for monotone id streams.
    pub fn dedupe_backlog(&self) -> usize {
        self.above.len()
    }

    /// A cheap estimate of the session's live working-state heap
    /// footprint: the open-bin slab plus the live-placement map, the
    /// pending-departure heap, and the dedupe overflow set. Excludes the
    /// append-only bin history (`records`), which is run *output*, not
    /// working state. O(open bins); the engine benchmark samples this as
    /// its RSS proxy.
    pub fn approx_live_bytes(&self) -> usize {
        use std::mem::size_of;
        self.open.approx_bytes()
            + self.placement.capacity() * (size_of::<ItemId>() + size_of::<BinId>())
            + self.departures.capacity() * size_of::<Reverse<(Time, ItemId)>>()
            + self.above.capacity() * size_of::<u32>()
            + self.cancelled.capacity() * size_of::<u32>()
    }

    /// Advances simulated time to `t` without an arrival: departures up
    /// to and including `t` are processed and empty bins close. Lets an
    /// integrator observe fleet drain during idle periods (e.g. to emit
    /// scale-down signals) instead of waiting for the next arrival.
    ///
    /// `t` must be at least the last arrival time; subsequent arrivals
    /// must not precede `t`.
    pub fn advance_to(&mut self, t: Time) -> Result<(), DbpError> {
        if let Some(last) = self.last_arrival {
            if t < last {
                return Err(DbpError::BadDecision {
                    what: format!("cannot advance to {t} before last arrival {last}"),
                });
            }
        }
        self.last_arrival = Some(t);
        self.close_until(t)
    }

    /// Rejects arrivals that would move the session clock backwards.
    fn check_order(&self, now: Time) -> Result<(), DbpError> {
        if let Some(last) = self.last_arrival {
            if now < last {
                return Err(DbpError::BadDecision {
                    what: format!("arrivals must be non-decreasing: {now} after {last}"),
                });
            }
        }
        Ok(())
    }

    /// Commits an id into the dedupe state, rejecting duplicates.
    fn note_id(&mut self, raw_id: u32) -> Result<(), DbpError> {
        if raw_id < self.watermark || !self.above.insert(raw_id) {
            return Err(DbpError::DuplicateItemId { id: raw_id });
        }
        // Advance the watermark over contiguously-seen ids so monotone
        // streams keep the overflow set empty. `u32::MAX` cannot be
        // absorbed (the watermark would need to be MAX + 1), so it simply
        // stays in the overflow set.
        while self.watermark < u32::MAX && self.above.remove(&self.watermark) {
            self.watermark += 1;
        }
        Ok(())
    }

    /// Emits the arrival (and noisy-estimate) events for an admitted item.
    fn emit_arrival(&mut self, item: &Item, visible_dep: Option<Time>) {
        if O::ENABLED {
            self.obs.on_event(&PackEvent::ItemArrived {
                id: item.id(),
                size: item.size(),
                at: item.arrival(),
                departure: item.departure(),
                visible_departure: visible_dep,
            });
            if matches!(self.mode, ClairvoyanceMode::Noisy(_)) {
                self.obs.on_event(&PackEvent::EstimateUsed {
                    id: item.id(),
                    estimate: visible_dep.expect("noisy mode always estimates"),
                    actual: item.departure(),
                });
            }
        }
    }

    /// Drains departures due at `now`, then asks the packer for a
    /// decision — the timed core shared by [`StreamingSession::arrive`]
    /// and [`StreamingSession::arrive_capped`].
    ///
    /// Clock reads are the dominant observer cost (tens of nanoseconds
    /// each), so the timed path is shaped to minimise them: the
    /// sweep-end timestamp doubles as the decide-start timestamp (three
    /// reads per timed arrival, not four), and a sweep with no
    /// departures due is not timed at all (two reads — the common
    /// case). Consequently [`RunMetrics::depart_ns`] samples only sweeps
    /// that had at least one departure to process.
    ///
    /// [`RunMetrics::depart_ns`]: ../../dbp_telemetry/struct.RunMetrics.html
    fn sweep_and_decide(
        &mut self,
        item: &Item,
        visible_dep: Option<Time>,
        now: Time,
    ) -> Result<(Decision, u64), DbpError> {
        let view = ItemView {
            id: item.id(),
            size: item.size(),
            arrival: item.arrival(),
            departure: visible_dep,
        };
        if !(O::ENABLED && self.obs.wants_timing()) {
            self.close_until(now)?;
            return Ok((self.packer.packer_mut().place(&view, &self.open), 0));
        }
        let sweep_due = self
            .departures
            .peek()
            .is_some_and(|&Reverse((dt, _))| dt <= now);
        let decide_start = if sweep_due {
            let sweep_start = std::time::Instant::now();
            self.close_until(now)?;
            let sweep_end = std::time::Instant::now();
            self.obs.on_op(
                OpKind::Departures,
                sweep_end.duration_since(sweep_start).as_nanos() as u64,
            );
            sweep_end
        } else {
            std::time::Instant::now()
        };
        let decision = self.packer.packer_mut().place(&view, &self.open);
        Ok((decision, decide_start.elapsed().as_nanos() as u64))
    }

    /// Feeds one arrival. Arrival times must be non-decreasing and item
    /// ids unique; the chosen bin id is returned.
    pub fn arrive(&mut self, item: &Item) -> Result<BinId, DbpError> {
        let now = item.arrival();
        self.check_order(now)?;
        self.note_id(item.id().0)?;
        self.last_arrival = Some(now);
        let visible_dep = self.visible_departure(item);
        let (decision, decide_ns) = self.sweep_and_decide(item, visible_dep, now)?;
        self.emit_arrival(item, visible_dep);
        self.commit_decision(item, visible_dep, decision, decide_ns)
    }

    /// Feeds one arrival under a fleet-size cap (graceful degradation).
    ///
    /// Works like [`StreamingSession::arrive`] except that when the
    /// packer's decision would open a new server while `max_open_bins`
    /// are already open, the item is **shed**: an
    /// [`PackEvent::ArrivalShed`] event is emitted, no state changes
    /// (beyond the clock advancing to the arrival time and departures up
    /// to it closing), and [`Admission::Shed`] is returned. The caller's
    /// admission policy decides whether to queue the job for retry or
    /// reject it; the same item id may be re-presented later. Decisions
    /// that reuse an open bin are always admitted.
    ///
    /// Note that the packer is consulted *before* the item is committed,
    /// so a stateful packer may observe a shed arrival (e.g. CBDT pins
    /// its classification epoch to the first arrival it sees); this is
    /// deterministic and harmless for the roster packers.
    pub fn arrive_capped(
        &mut self,
        item: &Item,
        max_open_bins: usize,
    ) -> Result<Admission, DbpError> {
        let now = item.arrival();
        self.check_order(now)?;
        let raw_id = item.id().0;
        // Duplicate check only — the id is committed after admission so a
        // shed item's id stays usable.
        if raw_id < self.watermark || self.above.contains(&raw_id) {
            return Err(DbpError::DuplicateItemId { id: raw_id });
        }
        self.last_arrival = Some(now);
        let visible_dep = self.visible_departure(item);
        let (decision, decide_ns) = self.sweep_and_decide(item, visible_dep, now)?;
        if matches!(decision, Decision::New { .. }) && self.open.len() >= max_open_bins {
            if O::ENABLED {
                self.obs.on_event(&PackEvent::ArrivalShed {
                    id: item.id(),
                    at: now,
                    open_bins: self.open.len(),
                });
            }
            return Ok(Admission::Shed);
        }
        self.note_id(raw_id)?;
        self.emit_arrival(item, visible_dep);
        self.commit_decision(item, visible_dep, decision, decide_ns)
            .map(Admission::Placed)
    }

    /// Applies a placement decision and commits the item into the
    /// session's live state (shared tail of [`StreamingSession::arrive`]
    /// and [`StreamingSession::arrive_capped`]).
    fn commit_decision(
        &mut self,
        item: &Item,
        visible_dep: Option<Time>,
        decision: Decision,
        decide_ns: u64,
    ) -> Result<BinId, DbpError> {
        let now = item.arrival();
        let active = ActiveItem {
            id: item.id(),
            size: item.size(),
            departure: visible_dep,
        };
        let bin_id = match decision {
            Decision::Existing(bid) => {
                let level = self
                    .open
                    .push_to(bid, active, item.size())
                    .ok_or_else(|| DbpError::BadDecision {
                        what: format!("bin {bid:?} is not open (item {})", item.id()),
                    })??;
                if O::ENABLED {
                    // The packer reports how many candidates its `place`
                    // call actually probed — linear scans count bins
                    // visited, indexed packers count index nodes
                    // descended. Only packers that track neither fall
                    // back to the candidate-pool size; that fallback is
                    // out of the roster on purpose, because it would
                    // silently inflate scan-depth histograms the moment
                    // a packer answers from an index instead of a walk.
                    // Both reads are O(1) here — the engine must not pay
                    // an O(fleet) scan per placement just because an
                    // observer is attached.
                    let open_bins = self.open.len();
                    let scanned = self.packer.packer().last_scanned().unwrap_or(open_bins);
                    self.obs.on_event(&PackEvent::PlacementDecided {
                        id: item.id(),
                        bin: bid,
                        fit_rule: FitDecision::Reused,
                        candidates_scanned: scanned,
                        decide_ns,
                    });
                    self.obs.on_event(&PackEvent::LevelChanged {
                        bin: bid,
                        at: now,
                        level,
                        open_bins,
                    });
                }
                bid
            }
            Decision::New { tag } => {
                let bid = BinId(self.next_bin);
                self.next_bin += 1;
                let pool = self.open.len();
                self.open.insert(OpenBin::new(bid, now, tag, active));
                self.records.push(BinRecord {
                    id: bid,
                    opened_at: now,
                    closed_at: now,
                    tag,
                    items: Vec::new(),
                });
                if O::ENABLED {
                    let rejected = self.packer.packer().last_scanned().unwrap_or(pool);
                    self.obs.on_event(&PackEvent::BinOpened {
                        bin: bid,
                        at: now,
                        tag,
                    });
                    self.obs.on_event(&PackEvent::PlacementDecided {
                        id: item.id(),
                        bin: bid,
                        fit_rule: FitDecision::OpenedNew,
                        candidates_scanned: rejected,
                        decide_ns,
                    });
                    self.obs.on_event(&PackEvent::LevelChanged {
                        bin: bid,
                        at: now,
                        level: item.size(),
                        open_bins: pool + 1,
                    });
                }
                bid
            }
        };
        self.placement.insert(item.id(), bin_id);
        self.records[bin_id.0 as usize].items.push(item.id());
        self.departures.push(Reverse((item.departure(), item.id())));
        Ok(bin_id)
    }

    /// Kills an open server at time `at` (fault injection).
    ///
    /// Departures up to and including `at` are processed first (so a
    /// failure cannot displace items that had already left), then the bin
    /// is force-closed: its record's `closed_at` becomes the failure time
    /// and its still-resident items are removed from the live state and
    /// returned so the caller's recovery policy can resubmit or drop
    /// them. Their pending departure entries are cancelled. Emits
    /// [`PackEvent::BinFailed`] (instead of [`PackEvent::BinClosed`]).
    ///
    /// `at` must be at least the last arrival time; subsequent arrivals
    /// must not precede `at`.
    pub fn fail_bin(&mut self, bin: BinId, at: Time) -> Result<Vec<ActiveItem>, DbpError> {
        if let Some(last) = self.last_arrival {
            if at < last {
                return Err(DbpError::BadDecision {
                    what: format!("cannot fail a bin at {at} before last arrival {last}"),
                });
            }
        }
        self.last_arrival = Some(at);
        self.close_until(at)?;
        let state = self.open.remove(bin).ok_or_else(|| DbpError::BadDecision {
            what: format!("bin {bin:?} is not open at {at}"),
        })?;
        let displaced: Vec<ActiveItem> = state.items().to_vec();
        for a in &displaced {
            self.placement.remove(&a.id);
            self.cancelled.insert(a.id.0);
        }
        let rec = &mut self.records[bin.0 as usize];
        rec.closed_at = at;
        if O::ENABLED {
            self.obs.on_event(&PackEvent::BinFailed {
                bin,
                at,
                opened_at: rec.opened_at,
                displaced: displaced.len(),
                open_bins: self.open.len(),
            });
        }
        Ok(displaced)
    }

    /// Advances the session clock to `at`, closing every bin whose last
    /// item departs at or before it. Fault injectors call this before
    /// inspecting [`StreamingSession::open_set`] so victims are picked
    /// among the bins actually alive at the fault instant, not ones that
    /// had already drained.
    pub fn advance(&mut self, at: Time) -> Result<(), DbpError> {
        if let Some(last) = self.last_arrival {
            if at < last {
                return Err(DbpError::BadDecision {
                    what: format!("cannot advance to {at} before last arrival {last}"),
                });
            }
        }
        self.last_arrival = Some(at);
        self.close_until(at)
    }

    /// The currently open bins (fault injectors use this to pick
    /// victims; same view the packer sees).
    pub fn open_set(&self) -> &OpenBins {
        &self.open
    }

    /// The session clock: the latest arrival / advance / failure time.
    pub fn now(&self) -> Option<Time> {
        self.last_arrival
    }

    /// Flushes all remaining departures and returns the finished run.
    pub fn finish(self) -> Result<OnlineRun, DbpError> {
        self.finish_with_observer().map(|(run, _)| run)
    }

    /// Like [`StreamingSession::finish`], but also hands back the owned
    /// observer so callers that moved one in (rather than borrowing via
    /// `&mut obs`) can read its accumulated state — e.g. a per-shard
    /// counters/metrics bundle in `dbp-shard`.
    pub fn finish_with_observer(mut self) -> Result<(OnlineRun, O), DbpError> {
        if O::ENABLED && self.obs.wants_timing() {
            let started = std::time::Instant::now();
            self.close_until(Time::MAX)?;
            self.obs
                .on_op(OpKind::Finish, started.elapsed().as_nanos() as u64);
        } else {
            self.close_until(Time::MAX)?;
        }
        debug_assert!(self.open.is_empty());
        debug_assert!(self.placement.is_empty(), "placement pruned on departure");
        debug_assert!(self.cancelled.is_empty(), "stale entries all skipped");
        let usage: u128 = self.records.iter().map(|r| r.usage()).sum();
        let mut bins = vec![Vec::new(); self.next_bin as usize];
        for r in &self.records {
            bins[r.id.0 as usize] = r.items.clone();
        }
        Ok((
            OnlineRun {
                packing: Packing::from_bins(bins),
                usage,
                bins: self.records,
            },
            self.obs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::observe::EventLog;
    use crate::online::OnlineEngine;
    use crate::size::Size;

    struct FirstFit;
    impl OnlinePacker for FirstFit {
        fn name(&self) -> String {
            "ff".into()
        }
        fn place(&mut self, item: &ItemView, open: &OpenBins) -> Decision {
            open.iter()
                .find(|b| b.fits(item.size))
                .map(|b| Decision::Existing(b.id()))
                .unwrap_or(Decision::NEW)
        }
    }

    fn sample() -> Instance {
        Instance::from_triples(&[
            (0.5, 0, 10),
            (0.5, 2, 8),
            (0.5, 3, 9),
            (0.9, 5, 20),
            (0.1, 12, 30),
        ])
    }

    #[test]
    fn streaming_matches_batch_engine() {
        let inst = sample();
        let batch = OnlineEngine::clairvoyant()
            .run(&inst, &mut FirstFit)
            .unwrap();
        let mut packer = FirstFit;
        let mut session = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        for r in inst.items() {
            session.arrive(r).unwrap();
        }
        let streamed = session.finish().unwrap();
        assert_eq!(streamed.usage, batch.usage);
        assert_eq!(streamed.packing, batch.packing);
        assert_eq!(streamed.bins.len(), batch.bins.len());
    }

    #[test]
    fn rejects_out_of_order_arrivals() {
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        s.arrive(&Item::new(0, Size::HALF, 10, 20)).unwrap();
        let err = s.arrive(&Item::new(1, Size::HALF, 5, 20)).unwrap_err();
        assert!(matches!(err, DbpError::BadDecision { .. }));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        s.arrive(&Item::new(0, Size::HALF, 0, 5)).unwrap();
        let err = s.arrive(&Item::new(0, Size::HALF, 1, 6)).unwrap_err();
        assert!(matches!(err, DbpError::DuplicateItemId { id: 0 }));
    }

    #[test]
    fn open_bins_reflects_live_state() {
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        assert_eq!(s.open_bins(), 0);
        s.arrive(&Item::new(0, Size::from_f64(0.9), 0, 10)).unwrap();
        s.arrive(&Item::new(1, Size::from_f64(0.9), 1, 5)).unwrap();
        assert_eq!(s.open_bins(), 2);
        // Arriving at t=6 first closes the bin whose item left at 5.
        s.arrive(&Item::new(2, Size::from_f64(0.05), 6, 8)).unwrap();
        assert_eq!(s.open_bins(), 1);
        let run = s.finish().unwrap();
        assert_eq!(run.bins_opened(), 2);
    }

    #[test]
    fn advance_to_drains_idle_fleet() {
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        s.arrive(&Item::new(0, Size::HALF, 0, 10)).unwrap();
        s.arrive(&Item::new(1, Size::from_f64(0.9), 1, 20)).unwrap();
        assert_eq!(s.open_bins(), 2);
        s.advance_to(10).unwrap();
        assert_eq!(s.open_bins(), 1, "first bin drains at t=10");
        s.advance_to(25).unwrap();
        assert_eq!(s.open_bins(), 0);
        // Cannot go backwards, and later arrivals must respect the clock.
        assert!(s.advance_to(5).is_err());
        assert!(s.arrive(&Item::new(2, Size::HALF, 20, 30)).is_err());
        s.arrive(&Item::new(3, Size::HALF, 30, 40)).unwrap();
        let run = s.finish().unwrap();
        assert_eq!(run.bins_opened(), 3);
    }

    #[test]
    fn returned_bin_ids_match_records() {
        let inst = sample();
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        let mut assigned = Vec::new();
        for r in inst.items() {
            assigned.push((r.id(), s.arrive(r).unwrap()));
        }
        let run = s.finish().unwrap();
        for (item, bin) in assigned {
            assert!(run.packing.bin(bin).contains(&item));
        }
    }

    #[test]
    fn observed_session_emits_consistent_stream() {
        let inst = sample();
        let mut packer = FirstFit;
        let mut log = EventLog::new();
        let mut s =
            StreamingSession::with_observer(ClairvoyanceMode::Clairvoyant, &mut packer, &mut log);
        for r in inst.items() {
            s.arrive(r).unwrap();
        }
        let run = s.finish().unwrap();

        let mut arrived = 0usize;
        let mut placed = 0usize;
        let mut opened = 0usize;
        let mut closed_usage = 0u128;
        let mut closed = 0usize;
        for ev in &log.events {
            match ev {
                PackEvent::ItemArrived { departure, at, .. } => {
                    arrived += 1;
                    assert!(departure > at);
                }
                PackEvent::PlacementDecided { .. } => placed += 1,
                PackEvent::BinOpened { .. } => opened += 1,
                PackEvent::BinClosed { at, opened_at, .. } => {
                    closed += 1;
                    closed_usage += (at - opened_at) as u128;
                }
                _ => {}
            }
        }
        assert_eq!(arrived, inst.len());
        assert_eq!(placed, inst.len());
        assert_eq!(opened, run.bins_opened());
        assert_eq!(closed, run.bins_opened(), "every opened bin closes");
        assert_eq!(closed_usage, run.usage, "closures reconstruct usage");
    }

    #[test]
    fn observed_run_equals_unobserved_run() {
        let inst = sample();
        let batch = OnlineEngine::clairvoyant()
            .run(&inst, &mut FirstFit)
            .unwrap();
        let mut log = EventLog::new();
        let observed = OnlineEngine::clairvoyant()
            .run_observed(&inst, &mut FirstFit, &mut log)
            .unwrap();
        assert_eq!(observed.packing, batch.packing);
        assert_eq!(observed.usage, batch.usage);
        assert!(!log.events.is_empty());
    }

    #[test]
    fn noisy_session_emits_estimate_events() {
        use std::sync::Arc;
        let inst = Instance::from_triples(&[(0.5, 0, 10), (0.5, 1, 12)]);
        let mode = ClairvoyanceMode::Noisy(Arc::new(|r: &Item| r.departure() + 5));
        let mut packer = FirstFit;
        let mut log = EventLog::new();
        OnlineEngine::new(mode)
            .run_observed(&inst, &mut packer, &mut log)
            .unwrap();
        let estimates: Vec<_> = log
            .events
            .iter()
            .filter_map(|e| match e {
                PackEvent::EstimateUsed {
                    estimate, actual, ..
                } => Some((*estimate, *actual)),
                _ => None,
            })
            .collect();
        assert_eq!(estimates, vec![(15, 10), (17, 12)]);
    }

    #[test]
    fn long_stream_memory_stays_bounded() {
        // Regression for the pre-indexed engine, whose `seen` set and
        // unpruned `placement` map grew with stream *length*. Live state
        // must track the *concurrent* load: a 200k-item stream with at
        // most 3 overlapping jobs keeps placement at ≤ 3 entries and the
        // dedupe overflow set empty (monotone ids fold into the
        // watermark), while records/usage still cover the full history.
        const N: u32 = 200_000;
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        for k in 0..N {
            let t = k as Time;
            s.arrive(&Item::new(k, Size::from_f64(0.4), t, t + 3))
                .unwrap();
            assert!(s.live_items() <= 3, "placement must be pruned (k={k})");
            assert!(s.open_bins() <= 2, "fleet tracks concurrency (k={k})");
            assert_eq!(s.dedupe_backlog(), 0, "monotone ids leave no backlog");
            assert_eq!(s.id_watermark(), k + 1);
        }
        let run = s.finish().unwrap();
        let placed: usize = run.packing.iter_bins().map(|(_, v)| v.len()).sum();
        assert_eq!(placed, N as usize);
        assert!(run.bins_opened() > 10_000, "history is still complete");
    }

    #[test]
    fn out_of_order_ids_drain_into_watermark() {
        // Ids arrive pairwise swapped (1,0,3,2,…): the overflow set holds
        // at most the one id ahead of the watermark and drains as soon as
        // the gap fills. Duplicate detection stays exact throughout.
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        for pair in 0..500u32 {
            let (hi, lo) = (2 * pair + 1, 2 * pair);
            let t = pair as Time;
            s.arrive(&Item::new(hi, Size::from_f64(0.1), t, t + 2))
                .unwrap();
            assert_eq!(s.dedupe_backlog(), 1, "hi id waits above the watermark");
            assert_eq!(s.id_watermark(), lo);
            s.arrive(&Item::new(lo, Size::from_f64(0.1), t, t + 2))
                .unwrap();
            assert_eq!(s.dedupe_backlog(), 0, "gap filled, backlog drains");
            assert_eq!(s.id_watermark(), hi + 1);
        }
        // An id far below the watermark is rejected without any set entry.
        let err = s.arrive(&Item::new(7, Size::HALF, 600, 610)).unwrap_err();
        assert!(matches!(err, DbpError::DuplicateItemId { id: 7 }));
        s.finish().unwrap();
    }

    fn feed<'p, P: PackerHandle>(
        mut s: StreamingSession<'p, NoopObserver, P>,
        items: &[Item],
    ) -> StreamingSession<'p, NoopObserver, P> {
        for r in items {
            s.arrive(r).unwrap();
        }
        s
    }

    #[test]
    fn owned_session_is_send() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<OwnedSession>();
    }

    #[test]
    fn snapshot_restore_resumes_bit_identical() {
        // Cut the stream after every prefix length k, resume from the
        // snapshot, and require the finished run to equal the
        // uninterrupted one bit-for-bit — for the borrowed session and
        // for the one that owns its packer.
        let mode = || ClairvoyanceMode::Clairvoyant;
        let inst = sample();
        let mut packer = FirstFit;
        let full = feed(StreamingSession::new(mode(), &mut packer), inst.items())
            .finish()
            .unwrap();
        let owned = feed(
            OwnedSession::owned(mode(), Box::new(FirstFit)),
            inst.items(),
        )
        .finish()
        .unwrap();
        assert_eq!(owned, full, "owning the packer changed the run");
        for k in 0..=inst.len() {
            let (head, tail) = inst.items().split_at(k);
            let mut p1 = FirstFit;
            let snap = feed(StreamingSession::new(mode(), &mut p1), head).snapshot();
            let mut p2 = FirstFit;
            let s2 = StreamingSession::restore(mode(), &mut p2, &snap).unwrap();
            let resumed = feed(s2, tail).finish().unwrap();
            assert_eq!(resumed, full, "resume after {k} events diverged");

            let snap = feed(OwnedSession::owned(mode(), Box::new(FirstFit)), head).snapshot();
            let s2 = OwnedSession::restore_owned(mode(), Box::new(FirstFit), &snap).unwrap();
            let resumed = feed(s2, tail).finish().unwrap();
            assert_eq!(resumed, full, "owned resume after {k} events diverged");
        }
    }

    #[test]
    fn snapshot_round_trips_through_restore() {
        let inst = sample();
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        for r in inst.items().iter().take(3) {
            s.arrive(r).unwrap();
        }
        let snap = s.snapshot();
        drop(s);
        let mut p2 = FirstFit;
        let restored =
            StreamingSession::restore(ClairvoyanceMode::Clairvoyant, &mut p2, &snap).unwrap();
        assert_eq!(restored.snapshot(), snap, "snapshot of a restore is stable");
    }

    #[test]
    fn restore_rejects_mismatched_packer_and_version() {
        struct Other;
        impl OnlinePacker for Other {
            fn name(&self) -> String {
                "other".into()
            }
            fn place(&mut self, _: &ItemView, _: &OpenBins) -> Decision {
                Decision::NEW
            }
        }
        let mut packer = FirstFit;
        let s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        let snap = s.snapshot();
        drop(s);
        let mut other = Other;
        let err = StreamingSession::restore(ClairvoyanceMode::Clairvoyant, &mut other, &snap)
            .err()
            .expect("packer name mismatch");
        assert!(matches!(err, DbpError::InvalidParameter { .. }));
        let mut future = snap.clone();
        future.version = SNAPSHOT_VERSION + 1;
        let mut p2 = FirstFit;
        let err = StreamingSession::restore(ClairvoyanceMode::Clairvoyant, &mut p2, &future)
            .err()
            .expect("version mismatch");
        assert!(matches!(err, DbpError::InvalidParameter { .. }));
    }

    #[test]
    fn fail_bin_displaces_live_items() {
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        s.arrive(&Item::new(0, Size::from_f64(0.4), 0, 10)).unwrap();
        s.arrive(&Item::new(1, Size::from_f64(0.4), 1, 20)).unwrap();
        s.arrive(&Item::new(2, Size::from_f64(0.9), 2, 30)).unwrap();
        assert_eq!(s.open_bins(), 2);
        let displaced = s.fail_bin(BinId(0), 5).unwrap();
        let mut ids: Vec<u32> = displaced.iter().map(|a| a.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1], "both live items displaced");
        assert_eq!(s.open_bins(), 1);
        assert_eq!(s.live_items(), 1);
        // Failing a closed bin is an error.
        assert!(s.fail_bin(BinId(0), 6).is_err());
        let run = s.finish().unwrap();
        assert_eq!(run.bins[0].closed_at, 5, "record closed at failure time");
        assert_eq!(run.usage, 5 + 28);
    }

    #[test]
    fn fail_bin_does_not_displace_already_departed_items() {
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        s.arrive(&Item::new(0, Size::from_f64(0.4), 0, 5)).unwrap();
        s.arrive(&Item::new(1, Size::from_f64(0.4), 1, 20)).unwrap();
        // Failure at t=7: item 0 departed at 5, only item 1 is displaced.
        let displaced = s.fail_bin(BinId(0), 7).unwrap();
        assert_eq!(displaced.len(), 1);
        assert_eq!(displaced[0].id, ItemId(1));
        let run = s.finish().unwrap();
        assert_eq!(run.bins[0].closed_at, 7);
    }

    #[test]
    fn arrive_capped_sheds_and_leaves_no_trace() {
        let mut packer = FirstFit;
        let mut log = EventLog::new();
        let mut s =
            StreamingSession::with_observer(ClairvoyanceMode::Clairvoyant, &mut packer, &mut log);
        let a = s
            .arrive_capped(&Item::new(0, Size::from_f64(0.9), 0, 10), 1)
            .unwrap();
        assert_eq!(a, Admission::Placed(BinId(0)));
        // Would need a second server: shed.
        let a = s
            .arrive_capped(&Item::new(1, Size::from_f64(0.9), 1, 10), 1)
            .unwrap();
        assert_eq!(a, Admission::Shed);
        assert_eq!(s.live_items(), 1);
        // A reuse fits under the cap and is admitted.
        let a = s
            .arrive_capped(&Item::new(2, Size::from_f64(0.05), 2, 9), 1)
            .unwrap();
        assert_eq!(a, Admission::Placed(BinId(0)));
        // The shed id was not consumed: re-presenting it later works.
        let a = s
            .arrive_capped(&Item::new(1, Size::from_f64(0.9), 11, 20), 1)
            .unwrap();
        assert_eq!(a, Admission::Placed(BinId(1)));
        let run = s.finish().unwrap();
        assert_eq!(run.bins_opened(), 2);
        let shed: Vec<_> = log
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    PackEvent::ArrivalShed {
                        id: ItemId(1),
                        at: 1,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(shed.len(), 1, "exactly one shed event");
    }

    #[test]
    fn snapshot_after_failure_filters_cancelled_departures() {
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        s.arrive(&Item::new(0, Size::from_f64(0.4), 0, 10)).unwrap();
        s.arrive(&Item::new(1, Size::from_f64(0.9), 1, 30)).unwrap();
        s.fail_bin(BinId(0), 2).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.departures, vec![(30, ItemId(1))]);
        drop(s);
        let mut p2 = FirstFit;
        let s2 = StreamingSession::restore(ClairvoyanceMode::Clairvoyant, &mut p2, &snap).unwrap();
        let run = s2.finish().unwrap();
        assert_eq!(run.bins[0].closed_at, 2);
        assert_eq!(run.bins[1].closed_at, 30);
    }

    fn placement_scans(log: &EventLog) -> Vec<(FitDecision, usize)> {
        log.events
            .iter()
            .filter_map(|e| match e {
                PackEvent::PlacementDecided {
                    fit_rule,
                    candidates_scanned,
                    ..
                } => Some((*fit_rule, *candidates_scanned)),
                _ => None,
            })
            .collect()
    }

    /// Two 0.9 items force two bins; a 0.05 item then fits bin 0 after
    /// inspecting only it; a final 0.9 item rejects both before opening.
    fn scan_depth_instance() -> Instance {
        Instance::from_triples(&[(0.9, 0, 100), (0.9, 1, 100), (0.05, 2, 100), (0.9, 3, 100)])
    }

    #[test]
    fn candidates_scanned_uses_packer_reported_depth() {
        // A first-fit packer that reports its true scan depth through
        // `last_scanned` — the engine must pass the count through
        // verbatim.
        struct CountingFirstFit {
            scanned: usize,
        }
        impl OnlinePacker for CountingFirstFit {
            fn name(&self) -> String {
                "counting-ff".into()
            }
            fn place(&mut self, item: &ItemView, open: &OpenBins) -> Decision {
                self.scanned = 0;
                for b in open {
                    self.scanned += 1;
                    if b.fits(item.size) {
                        return Decision::Existing(b.id());
                    }
                }
                Decision::NEW
            }
            fn last_scanned(&self) -> Option<usize> {
                Some(self.scanned)
            }
        }
        let mut packer = CountingFirstFit { scanned: 0 };
        let mut log = EventLog::new();
        OnlineEngine::clairvoyant()
            .run_observed(&scan_depth_instance(), &mut packer, &mut log)
            .unwrap();
        assert_eq!(
            placement_scans(&log),
            vec![
                (FitDecision::OpenedNew, 0),
                (FitDecision::OpenedNew, 1),
                (FitDecision::Reused, 1),
                (FitDecision::OpenedNew, 2),
            ]
        );
    }

    #[test]
    fn candidates_scanned_falls_back_to_pool_size() {
        // The test FirstFit does not implement `last_scanned`, so every
        // placement reports the candidate-pool size: the number of bins
        // open when the decision was made.
        let mut packer = FirstFit;
        let mut log = EventLog::new();
        OnlineEngine::clairvoyant()
            .run_observed(&scan_depth_instance(), &mut packer, &mut log)
            .unwrap();
        assert_eq!(
            placement_scans(&log),
            vec![
                (FitDecision::OpenedNew, 0),
                (FitDecision::OpenedNew, 1),
                (FitDecision::Reused, 2),
                (FitDecision::OpenedNew, 2),
            ]
        );
    }
}
