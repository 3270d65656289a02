//! Streaming online packing: feed arrivals one at a time.
//!
//! [`crate::OnlineEngine::run`] takes a whole [`crate::Instance`] — fine
//! for experiments, but a real scheduler receives jobs as they arrive and
//! cannot hand over the future. [`StreamingSession`] is the incremental
//! engine: call [`StreamingSession::arrive`] per job (non-decreasing
//! arrival times), and the session returns the bin id the packer chose;
//! call [`StreamingSession::finish`] to flush remaining departures and
//! obtain the run's [`RunTotals`].
//!
//! The batch engine is a thin loop over this session, so both enforce the
//! same rules: capacity, bin closure on last departure, no migration.
//!
//! ## Live state only
//!
//! A job is placed from the open bins alone and never migrates, so the
//! session keeps exactly what the next decision needs: the open bins with
//! their live items, the pending departures, the clock, and two running
//! totals (the usage of every bin already closed and the bins opened).
//! It keeps no record of closed bins or departed items. The full
//! [`OnlineRun`] is rebuilt, by whoever wants it, from the session's
//! events: [`crate::online::RunRecorder`] is that observer, and
//! [`crate::OnlineEngine::run`] tees one in.
//!
//! ## Any demand type
//!
//! The session is generic over the [`Demand`] type `D` its packer
//! handle places, [`crate::Size`] by default: it admits [`Item<D>`]s
//! and shows their departures as one [`ClairvoyanceMode<D>`] says, so
//! the noisy estimator serves vector sessions too. Every mechanism
//! below — departures, snapshots, fleet caps, fault injection and
//! observation — is one body for both. [`VecStreamingSession`] is the
//! vector entry point for a borrowed [`VecOnlinePacker`].
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
//! state, never in the stream's history. The open set is the indexed
//! [`crate::openbins::OpenBins`] slab, each open bin counts the items
//! ever placed in it (for [`PackEvent::BinClosed`]'s `items`), a closing
//! bin adds its lifetime to one running usage total, and `placement`
//! entries are pruned when their item departs. Memory, snapshot size and
//! restore time therefore follow the open bins and live items, not the
//! stream's length — see `docs/performance.md`.
//!
//! ## Where ids are checked
//!
//! The session keeps no id history: it refuses only an id that is live
//! in it, which keeps `placement` one-to-one. Each id is checked once,
//! where jobs enter the system — [`crate::Instance::from_items`] for
//! batch runs of either demand type, a [`crate::IdLedger`] in the
//! `dbp-shard` and `dbp-serve` coordinators.

use crate::demand::Demand;
use crate::error::DbpError;
use crate::hash::{FoldMap, FoldSet, FoldState};
use crate::interval::Time;
use crate::item::{Item, ItemId};
use crate::observe::{FitDecision, NoopObserver, OpKind, PackEvent, PackObserver};
use crate::online::{
    lifetime, ActiveItem, ClairvoyanceMode, Decision, ItemView, OnlinePacker, OnlineRun, OpenBin,
    PackerState, RunRecorder, VecOnlinePacker, VecPackerRef,
};
use crate::openbins::OpenBins;
use crate::packing::BinId;
use crate::sizevec::{SizeVec, VecClairvoyance, VecInstance};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

/// Snapshot format version written by [`StreamingSession::snapshot`] and
/// accepted by [`StreamingSession::restore`]. Version 2 carries live
/// state only; version 1 documents (which also listed every bin ever
/// opened) are converted to it when decoded.
pub const SNAPSHOT_VERSION: u32 = 2;

/// What a finished session returns: the running totals it kept. The
/// full bin history is a [`RunRecorder`]'s to rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunTotals {
    /// Total usage time in ticks: every bin's lifetime, summed.
    pub usage: u128,
    /// Bins opened over the whole stream.
    pub bins_opened: usize,
}

/// One open bin's state inside a [`SessionSnapshot`].
///
/// Bins are listed in opening order; `items` preserves the bin's exact
/// internal item order (which is history-dependent because departures use
/// `swap_remove`, and which packers can observe via
/// [`OpenBin::items`]), so rebuilding bins from a snapshot reproduces
/// packer-visible state bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinSnapshot<D = crate::size::Size> {
    /// The bin id (global opening order).
    pub id: BinId,
    /// When the bin was opened.
    pub opened_at: Time,
    /// The packer-supplied category tag.
    pub tag: u64,
    /// Items ever placed in the bin, departed ones included (at least
    /// `items.len()`); [`PackEvent::BinClosed`] reports it.
    pub placed: u64,
    /// The resident items, in the bin's exact internal order.
    pub items: Vec<ActiveItem<D>>,
}

/// A versioned, self-contained snapshot of a [`StreamingSession`]'s
/// state, sufficient to resume the stream bit-identically. It holds live
/// state only, so its size follows the open bins and live items, not the
/// stream's length.
///
/// What is *not* captured: the [`ClairvoyanceMode`] (it may hold an
/// arbitrary estimator closure), the packer object itself — the caller
/// reconstructs both and [`StreamingSession::restore`] verifies the
/// packer's name matches before handing it its saved [`PackerState`] —
/// and the run's bin history, which a [`RunRecorder`] carried across the
/// restore keeps. The departure heap is stored as a sorted list, so
/// equal sessions produce byte-equal encodings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSnapshot<D = crate::size::Size> {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// `packer.name()` at snapshot time; restore refuses a mismatch.
    pub packer: String,
    /// The packer's saved internal state.
    pub packer_state: PackerState,
    /// Open bins in opening order.
    pub open_bins: Vec<BinSnapshot<D>>,
    /// Pending departures as sorted `(time, item)` pairs.
    pub departures: Vec<(Time, ItemId)>,
    /// The next bin id to assign: the number of bins opened so far.
    pub next_bin: u32,
    /// The session clock (last arrival / advance time).
    pub last_arrival: Option<Time>,
    /// Usage of every bin closed (or failed) so far, in ticks.
    pub closed_usage: u128,
    /// Always 0: sessions keep no id history (a v1 field, not written
    /// by version 2).
    pub watermark: u32,
    /// Always empty: sessions keep no id history (a v1 field, not
    /// written by version 2).
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
/// (`Box<dyn OnlinePacker + Send>`, see [`OwnedSession`]). The handle also
/// fixes the session's demand type.
pub trait PackerHandle {
    /// The demand type the packer places.
    type Demand: Demand;
    /// The packer, for queries.
    fn packer(&self) -> &dyn OnlinePacker<Self::Demand>;
    /// The packer, for decisions and state changes.
    fn packer_mut(&mut self) -> &mut dyn OnlinePacker<Self::Demand>;
}

impl<D: Demand> PackerHandle for &mut dyn OnlinePacker<D> {
    type Demand = D;
    #[inline]
    fn packer(&self) -> &dyn OnlinePacker<D> {
        &**self
    }
    #[inline]
    fn packer_mut(&mut self) -> &mut dyn OnlinePacker<D> {
        &mut **self
    }
}

impl<D: Demand> PackerHandle for Box<dyn OnlinePacker<D> + Send> {
    type Demand = D;
    #[inline]
    fn packer(&self) -> &dyn OnlinePacker<D> {
        &**self
    }
    #[inline]
    fn packer_mut(&mut self) -> &mut dyn OnlinePacker<D> {
        &mut **self
    }
}

impl PackerHandle for VecPackerRef<'_> {
    type Demand = SizeVec;
    #[inline]
    fn packer(&self) -> &dyn OnlinePacker<SizeVec> {
        self
    }
    #[inline]
    fn packer_mut(&mut self) -> &mut dyn OnlinePacker<SizeVec> {
        self
    }
}

/// The demand type of handle `P`.
type DemandOf<P> = <P as PackerHandle>::Demand;
/// The item type of handle `P`'s sessions.
type ItemOf<P> = Item<DemandOf<P>>;

/// A session that owns its packer: `Send + 'static`, so it can live in a
/// shared struct. Build one with [`StreamingSession::owned`] or
/// [`StreamingSession::restore_owned`].
pub type OwnedSession = StreamingSession<'static, NoopObserver, Box<dyn OnlinePacker + Send>>;

/// An in-progress online packing over a stream of arrivals, for any
/// demand type (fixed by the packer handle `P`).
pub struct StreamingSession<'p, O = NoopObserver, P: PackerHandle = &'p mut dyn OnlinePacker> {
    mode: ClairvoyanceMode<DemandOf<P>>,
    packer: P,
    /// Ties `'p` to the session when the handle does not borrow.
    _borrow: PhantomData<&'p mut ()>,
    obs: O,
    open: OpenBins<DemandOf<P>>,
    /// Bin of each *live* item; entries are pruned at departure.
    /// `dbp-serve` puts client job ids here, hence the keyed hash.
    placement: FoldMap<ItemId, BinId>,
    departures: BinaryHeap<Reverse<(Time, ItemId)>>,
    /// Bins are numbered in opening order, so this is also the number
    /// of bins opened so far.
    next_bin: u32,
    last_arrival: Option<Time>,
    /// Usage of every bin closed or failed so far.
    closed_usage: u128,
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
    /// snapshot as it goes: version and packer name must match, every
    /// item must have a valid size (in `(0, 1]` on every axis), every
    /// open bin must respect capacity, hold items, have opened no later
    /// than the session clock and have placed at least as many items as
    /// it holds, and live items / pending departures must correspond
    /// one-to-one, every departure after the clock. The packer is
    /// `reset()` and then handed its saved state.
    ///
    /// Hand `obs` the observer the snapshotted session reported to (a
    /// [`RunRecorder`], say) to keep one event stream across the restore.
    pub fn restore_with_observer(
        mode: ClairvoyanceMode,
        packer: &'p mut dyn OnlinePacker,
        snap: &SessionSnapshot,
        obs: O,
    ) -> Result<Self, DbpError> {
        Self::resume(mode, packer, snap, obs)
    }
}

impl<'p, P: PackerHandle, O: PackObserver<DemandOf<P>>> StreamingSession<'p, O, P> {
    /// Starts a session over any packer handle (and so any demand type)
    /// reporting to `obs`; the packer's [`OnlinePacker::reset`] is
    /// invoked. [`StreamingSession::new`] and friends are the scalar
    /// shorthands.
    pub fn start(mode: ClairvoyanceMode<DemandOf<P>>, mut packer: P, obs: O) -> Self {
        packer.packer_mut().reset();
        StreamingSession {
            mode,
            packer,
            _borrow: PhantomData,
            obs,
            open: OpenBins::new(),
            placement: FoldMap::default(),
            departures: BinaryHeap::new(),
            next_bin: 0,
            last_arrival: None,
            closed_usage: 0,
        }
    }

    /// Captures the session's state as a [`SessionSnapshot`], in time and
    /// size linear in the open bins and live items. Can be taken between
    /// any two calls; resuming via
    /// [`StreamingSession::restore`] and feeding the remaining stream
    /// makes the decisions, events and totals of an uninterrupted run, so
    /// a [`RunRecorder`] carried across the restore ends with the same
    /// [`OnlineRun`] (verified across the whole roster in
    /// `dbp-resilience`).
    pub fn snapshot(&self) -> SessionSnapshot<DemandOf<P>> {
        let open_bins = self
            .open
            .iter()
            .map(|b| BinSnapshot {
                id: b.id(),
                opened_at: b.opened_at(),
                tag: b.tag(),
                placed: b.placed(),
                items: b.items().to_vec(),
            })
            .collect();
        let mut departures: Vec<(Time, ItemId)> =
            self.departures.iter().map(|Reverse(p)| *p).collect();
        departures.sort_unstable();
        SessionSnapshot {
            version: SNAPSHOT_VERSION,
            packer: self.packer.packer().name(),
            packer_state: self.packer.packer().save_state(),
            open_bins,
            departures,
            next_bin: self.next_bin,
            last_arrival: self.last_arrival,
            closed_usage: self.closed_usage,
            watermark: 0,
            above: Vec::new(),
        }
    }

    fn resume(
        mode: ClairvoyanceMode<DemandOf<P>>,
        mut packer: P,
        snap: &SessionSnapshot<DemandOf<P>>,
        obs: O,
    ) -> Result<Self, DbpError> {
        let refuse = |what: String| DbpError::InvalidParameter { what };
        if snap.version != SNAPSHOT_VERSION {
            return Err(refuse(format!(
                "unsupported snapshot version {} (this build reads version {SNAPSHOT_VERSION})",
                snap.version
            )));
        }
        let name = packer.packer().name();
        if name != snap.packer {
            return Err(refuse(format!(
                "snapshot was taken with packer '{}' but '{name}' was supplied",
                snap.packer
            )));
        }
        // Each of `next_bin` bins spans at most 2^64 ticks, which also
        // keeps every later addition to the total far from overflowing.
        if snap.closed_usage > u128::from(snap.next_bin) * u128::from(u64::MAX) {
            return Err(refuse(format!(
                "snapshot closed_usage {} exceeds what {} bins can span",
                snap.closed_usage, snap.next_bin
            )));
        }
        packer.packer_mut().reset();
        packer.packer_mut().restore_state(&snap.packer_state)?;
        let mut open = OpenBins::new();
        // Sized once, from the items the snapshot holds rather than from a
        // count it claims.
        let live = snap.open_bins.iter().map(|b| b.items.len()).sum();
        let mut placement = FoldMap::with_capacity_and_hasher(live, FoldState::default());
        // Re-inserting bins in opening order rebuilds both the global and
        // the per-tag intrusive order lists exactly (per-tag order is a
        // subsequence of global order); slab slot indices may differ from
        // the original session's but are not observable.
        for b in &snap.open_bins {
            if b.id.0 >= snap.next_bin || open.get(b.id).is_some() {
                return Err(refuse(format!(
                    "snapshot open bin {:?} is out of range or repeated",
                    b.id
                )));
            }
            if snap.last_arrival.is_none_or(|now| b.opened_at > now) {
                return Err(refuse(format!(
                    "snapshot open bin {:?} opened at {} after the session clock {:?}",
                    b.id, b.opened_at, snap.last_arrival
                )));
            }
            if b.placed == 0 || b.placed < b.items.len() as u64 {
                return Err(refuse(format!(
                    "snapshot open bin {:?} placed {} items but holds {}",
                    b.id,
                    b.placed,
                    b.items.len()
                )));
            }
            // An item outside (0, 1] would break the level arithmetic
            // (a sum past `u64`, a gap below zero) on restore or later.
            if let Some(a) = b.items.iter().find(|a| !a.size.is_valid_item_size()) {
                return Err(refuse(format!(
                    "snapshot item {} in open bin {:?} has size {}, not a valid item size",
                    a.id, b.id, a.size
                )));
            }
            let mut items = b.items.iter().copied();
            let first = items
                .next()
                .ok_or_else(|| refuse(format!("snapshot open bin {:?} holds no items", b.id)))?;
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
            bin.set_placed(b.placed);
            open.insert(bin);
        }
        if snap.departures.len() != placement.len() {
            return Err(refuse(format!(
                "snapshot has {} pending departures for {} live items",
                snap.departures.len(),
                placement.len()
            )));
        }
        let mut departing =
            FoldSet::with_capacity_and_hasher(placement.len(), FoldState::default());
        let mut departures = BinaryHeap::with_capacity(snap.departures.len());
        for &(t, id) in &snap.departures {
            if !placement.contains_key(&id) || !departing.insert(id) {
                return Err(refuse(format!(
                    "snapshot pending departure for item {id} is not one per live item"
                )));
            }
            // Every departure at or before the clock was processed when
            // the clock got there, so none may still be pending.
            if snap.last_arrival.is_some_and(|now| t <= now) {
                return Err(refuse(format!(
                    "snapshot pending departure of item {id} at {t} is not after the session \
                     clock {:?}",
                    snap.last_arrival
                )));
            }
            departures.push(Reverse((t, id)));
        }
        Ok(StreamingSession {
            mode,
            packer,
            _borrow: PhantomData,
            obs,
            open,
            placement,
            departures,
            next_bin: snap.next_bin,
            last_arrival: snap.last_arrival,
            closed_usage: snap.closed_usage,
        })
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
                let bin = self.open.remove(bin_id).expect("bin was open");
                self.closed_usage += lifetime(bin.opened_at(), dt);
                if O::ENABLED {
                    let (opened_at, items) = (bin.opened_at(), bin.placed() as usize);
                    self.obs.on_event(&PackEvent::LevelChanged {
                        bin: bin_id,
                        at: dt,
                        level: level_after,
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

    /// A cheap estimate of the session's heap footprint: the open-bin
    /// slab plus the live-placement map and the pending-departure heap.
    /// That is all the session holds — it keeps no bin history — so the
    /// estimate follows the open bins and live items, not the stream's
    /// length. O(open bins); the engine benchmark samples this as its
    /// RSS proxy. Hash maps count their live entries, not their
    /// capacity: a map's growth depends on its per-process hash keys, and
    /// the estimate is a function of the stream alone.
    pub fn approx_live_bytes(&self) -> usize {
        use std::mem::size_of;
        self.open.approx_bytes()
            + self.placement.len() * (size_of::<ItemId>() + size_of::<BinId>())
            + self.departures.capacity() * size_of::<Reverse<(Time, ItemId)>>()
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

    /// Refuses an id still live here, which keeps `placement` one-to-one.
    fn check_not_live(&self, id: ItemId) -> Result<(), DbpError> {
        if self.placement.contains_key(&id) {
            return Err(DbpError::DuplicateItemId { id: id.0 });
        }
        Ok(())
    }

    /// Emits the arrival (and noisy-estimate) events for an admitted item.
    fn emit_arrival(&mut self, item: &ItemOf<P>, visible_dep: Option<Time>) {
        if O::ENABLED {
            self.obs.on_event(&PackEvent::ItemArrived {
                id: item.id(),
                size: item.size(),
                at: item.arrival(),
                departure: item.departure(),
                visible_departure: visible_dep,
            });
            if self.mode.is_noisy() {
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
    /// and [`StreamingSession::arrive_capped`]. A timed arrival's
    /// `place` call is reported as [`OpKind::Decide`], placed or shed.
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
        item: &ItemOf<P>,
        visible_dep: Option<Time>,
        now: Time,
    ) -> Result<Decision, DbpError> {
        let view = ItemView {
            id: item.id(),
            size: item.size(),
            arrival: item.arrival(),
            departure: visible_dep,
        };
        if !(O::ENABLED && self.obs.wants_timing()) {
            self.close_until(now)?;
            return Ok(self.packer.packer_mut().place(&view, &self.open));
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
        self.obs
            .on_op(OpKind::Decide, decide_start.elapsed().as_nanos() as u64);
        Ok(decision)
    }

    /// Feeds one arrival; the chosen bin id is returned. Arrival times
    /// must be non-decreasing. An id the session still holds is refused,
    /// but one whose departure it has processed, or that
    /// [`StreamingSession::fail_bin`] displaced, is not: a caller that
    /// needs each id decided once across the whole stream checks it in an
    /// [`crate::IdLedger`] first.
    pub fn arrive(&mut self, item: &ItemOf<P>) -> Result<BinId, DbpError> {
        let now = item.arrival();
        self.check_order(now)?;
        self.check_not_live(item.id())?;
        self.last_arrival = Some(now);
        let visible_dep = self.mode.visible_departure(item);
        let decision = self.sweep_and_decide(item, visible_dep, now)?;
        self.emit_arrival(item, visible_dep);
        self.commit_decision(item, visible_dep, decision)
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
        item: &ItemOf<P>,
        max_open_bins: usize,
    ) -> Result<Admission, DbpError> {
        let now = item.arrival();
        self.check_order(now)?;
        self.check_not_live(item.id())?;
        self.last_arrival = Some(now);
        let visible_dep = self.mode.visible_departure(item);
        let decision = self.sweep_and_decide(item, visible_dep, now)?;
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
        self.emit_arrival(item, visible_dep);
        self.commit_decision(item, visible_dep, decision)
            .map(Admission::Placed)
    }

    /// Applies a placement decision and commits the item into the
    /// session's live state (shared tail of [`StreamingSession::arrive`]
    /// and [`StreamingSession::arrive_capped`]).
    fn commit_decision(
        &mut self,
        item: &ItemOf<P>,
        visible_dep: Option<Time>,
        decision: Decision,
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
        self.departures.push(Reverse((item.departure(), item.id())));
        Ok(bin_id)
    }

    /// Kills an open server at time `at` (fault injection).
    ///
    /// Departures up to and including `at` are processed first (so a
    /// failure cannot displace items that had already left), then the bin
    /// is force-closed: its usage ends at the failure time
    /// and its still-resident items are removed from the live state and
    /// returned so the caller's recovery policy can resubmit or drop
    /// them. Their pending departures are dropped, so the session holds
    /// nothing of them and a caller may present their ids again. Emits
    /// [`PackEvent::BinFailed`] (instead of [`PackEvent::BinClosed`]).
    ///
    /// `at` must be at least the last arrival time; subsequent arrivals
    /// must not precede `at`.
    pub fn fail_bin(
        &mut self,
        bin: BinId,
        at: Time,
    ) -> Result<Vec<ActiveItem<DemandOf<P>>>, DbpError> {
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
        let displaced = state.items().to_vec();
        for a in &displaced {
            self.placement.remove(&a.id);
        }
        self.departures
            .retain(|Reverse((_, id))| self.placement.contains_key(id));
        self.closed_usage += lifetime(state.opened_at(), at);
        if O::ENABLED {
            self.obs.on_event(&PackEvent::BinFailed {
                bin,
                at,
                opened_at: state.opened_at(),
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
        self.advance_to(at)
    }

    /// The currently open bins (fault injectors use this to pick
    /// victims; same view the packer sees).
    pub fn open_set(&self) -> &OpenBins<DemandOf<P>> {
        &self.open
    }

    /// The session clock: the latest arrival / advance / failure time.
    pub fn now(&self) -> Option<Time> {
        self.last_arrival
    }

    /// Flushes all remaining departures and returns the run's totals.
    /// The full [`OnlineRun`] is what a [`RunRecorder`] observing the
    /// session rebuilt.
    pub fn finish(self) -> Result<RunTotals, DbpError> {
        self.finish_with_observer().map(|(totals, _)| totals)
    }

    /// Like [`StreamingSession::finish`], but also hands back the owned
    /// observer so callers that moved one in (rather than borrowing via
    /// `&mut obs`) can read its accumulated state — e.g. a per-shard
    /// counters/metrics bundle in `dbp-shard`.
    pub fn finish_with_observer(mut self) -> Result<(RunTotals, O), DbpError> {
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
        Ok((
            RunTotals {
                usage: self.closed_usage,
                bins_opened: self.next_bin as usize,
            },
            self.obs,
        ))
    }
}

/// A session streaming [`crate::VecItem`]s through a borrowed
/// [`VecOnlinePacker`]: the generic [`StreamingSession`] at
/// [`SizeVec`], under its own `new` so the scalar
/// [`StreamingSession::new`] stays unambiguous. Every session method is
/// reachable through `Deref`.
pub struct VecStreamingSession<'p, O = NoopObserver>(StreamingSession<'p, O, VecPackerRef<'p>>);

impl<'p> VecStreamingSession<'p> {
    /// Starts an unobserved vector session; the packer is reset.
    pub fn new(mode: VecClairvoyance, packer: &'p mut dyn VecOnlinePacker) -> Self {
        Self::with_observer(mode, packer, NoopObserver)
    }

    /// Streams a whole instance through a fresh session and returns the
    /// finished run, rebuilt by a [`RunRecorder`].
    pub fn run(
        mode: VecClairvoyance,
        inst: &VecInstance,
        packer: &mut dyn VecOnlinePacker,
    ) -> Result<OnlineRun, DbpError> {
        VecStreamingSession::run_observed(mode, inst, packer, NoopObserver)
    }
}

impl<'p, O: PackObserver<SizeVec>> VecStreamingSession<'p, O> {
    /// Starts a vector session reporting every packing event to `obs`.
    pub fn with_observer(
        mode: VecClairvoyance,
        packer: &'p mut dyn VecOnlinePacker,
        obs: O,
    ) -> Self {
        VecStreamingSession(StreamingSession::start(mode, VecPackerRef(packer), obs))
    }

    /// [`VecStreamingSession::run`] reporting to `obs`.
    pub fn run_observed(
        mode: VecClairvoyance,
        inst: &VecInstance,
        packer: &mut dyn VecOnlinePacker,
        obs: O,
    ) -> Result<OnlineRun, DbpError> {
        let mut recorder = RunRecorder::new();
        let mut session = VecStreamingSession::with_observer(
            mode,
            packer,
            crate::observe::Tee(obs, &mut recorder),
        );
        for item in inst.items() {
            session.arrive(item)?;
        }
        session.finish()?;
        Ok(recorder.into_run())
    }

    /// Flushes all remaining departures and returns the run's totals.
    pub fn finish(self) -> Result<RunTotals, DbpError> {
        self.0.finish()
    }

    /// The generic session underneath.
    pub fn into_inner(self) -> StreamingSession<'p, O, VecPackerRef<'p>> {
        self.0
    }
}

impl<'p, O> std::ops::Deref for VecStreamingSession<'p, O> {
    type Target = StreamingSession<'p, O, VecPackerRef<'p>>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<O> std::ops::DerefMut for VecStreamingSession<'_, O> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::item::Item;
    use crate::observe::EventLog;
    use crate::online::OnlineEngine;
    use crate::size::Size;
    use crate::sizevec::VecItem;

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
        let mut rec = RunRecorder::new();
        let mut session =
            StreamingSession::with_observer(ClairvoyanceMode::Clairvoyant, &mut packer, &mut rec);
        for r in inst.items() {
            session.arrive(r).unwrap();
        }
        let totals = session.finish().unwrap();
        assert_eq!(totals.usage, batch.usage);
        assert_eq!(totals.bins_opened, batch.bins_opened());
        assert_eq!(rec.into_run(), batch);
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
        assert_eq!(s.finish().unwrap().bins_opened, 2);
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
        assert_eq!(s.finish().unwrap().bins_opened, 3);
    }

    #[test]
    fn returned_bin_ids_match_records() {
        let inst = sample();
        let mut packer = FirstFit;
        let mut rec = RunRecorder::new();
        let mut s =
            StreamingSession::with_observer(ClairvoyanceMode::Clairvoyant, &mut packer, &mut rec);
        let mut assigned = Vec::new();
        for r in inst.items() {
            assigned.push((r.id(), s.arrive(r).unwrap()));
        }
        s.finish().unwrap();
        let run = rec.into_run();
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
        assert_eq!(opened, run.bins_opened);
        assert_eq!(closed, run.bins_opened, "every opened bin closes");
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
    fn live_bytes_are_a_function_of_the_stream_alone() {
        // Hash maps count their entries: under inserts and removes their
        // capacity depends on tombstones, and so on the per-process hash
        // keys, which moved the estimate between runs of one build.
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut peak = 0;
        for k in 0..20_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let size = Size::from_raw(1 + (state >> 40) % (Size::SCALE / 2));
            let t = Time::from(k / 2);
            let departure = t + 1 + (state % 400) as Time;
            s.arrive(&Item::new(k, size, t, departure)).unwrap();
            peak = peak.max(s.approx_live_bytes());
        }
        assert_eq!(
            (s.live_items(), s.approx_live_bytes(), peak),
            (404, 37_184, 38_480)
        );
    }

    #[test]
    fn long_stream_memory_stays_bounded() {
        // Live state must track the *concurrent* load, never the stream's
        // length: a 200k-item stream with at most 3 overlapping jobs
        // keeps placement at ≤ 3 entries and its snapshot at ≤ 2 bins,
        // while the totals still cover the whole stream.
        const N: u32 = 200_000;
        let mut packer = FirstFit;
        let mut s = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer);
        let mut live_bytes = 0;
        for k in 0..N {
            let t = k as Time;
            s.arrive(&Item::new(k, Size::from_f64(0.4), t, t + 3))
                .unwrap();
            assert!(s.live_items() <= 3, "placement must be pruned (k={k})");
            assert!(s.open_bins() <= 2, "fleet tracks concurrency (k={k})");
            if k == 1_000 {
                live_bytes = s.approx_live_bytes();
            }
        }
        assert_eq!(s.approx_live_bytes(), live_bytes, "no state grows");
        let snap = s.snapshot();
        assert!(snap.open_bins.len() <= 2 && snap.departures.len() <= 3);
        let run = s.finish().unwrap();
        assert!(run.bins_opened > 10_000, "totals cover the whole stream");
        assert_eq!(u128::from(snap.next_bin), run.bins_opened as u128);
    }

    fn feed<'p, O: PackObserver, P: PackerHandle<Demand = Size>>(
        mut s: StreamingSession<'p, O, P>,
        items: &[Item],
    ) -> StreamingSession<'p, O, P> {
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
        // snapshot, and require the finished run — rebuilt by one
        // recorder carried across the restore — to equal the
        // uninterrupted one bit-for-bit. The session that owns its
        // packer must end in the same state and totals.
        let mode = || ClairvoyanceMode::Clairvoyant;
        let inst = sample();
        let (head, last) = inst.items().split_at(inst.len() - 1);
        let mut packer = FirstFit;
        let mut rec = RunRecorder::new();
        let s = feed(
            StreamingSession::with_observer(mode(), &mut packer, &mut rec),
            head,
        );
        let before_last = s.snapshot();
        let totals = feed(s, last).finish().unwrap();
        let full = rec.into_run();
        let owned = feed(OwnedSession::owned(mode(), Box::new(FirstFit)), head);
        assert_eq!(
            owned.snapshot(),
            before_last,
            "owning the packer changed it"
        );
        assert_eq!(feed(owned, last).finish().unwrap(), totals);
        for k in 0..=inst.len() {
            let (head, tail) = inst.items().split_at(k);
            let mut rec = RunRecorder::new();
            let mut p1 = FirstFit;
            let snap = feed(
                StreamingSession::with_observer(mode(), &mut p1, &mut rec),
                head,
            )
            .snapshot();
            let mut p2 = FirstFit;
            let s2 =
                StreamingSession::restore_with_observer(mode(), &mut p2, &snap, &mut rec).unwrap();
            assert_eq!(feed(s2, tail).finish().unwrap(), totals, "cut {k}");
            assert_eq!(rec.into_run(), full, "resume after {k} events diverged");

            let snap = feed(OwnedSession::owned(mode(), Box::new(FirstFit)), head).snapshot();
            let s2 = OwnedSession::restore_owned(mode(), Box::new(FirstFit), &snap).unwrap();
            let resumed = feed(s2, tail).finish().unwrap();
            assert_eq!(resumed, totals, "owned resume after {k} events diverged");
        }
    }

    #[test]
    fn closed_bins_count_every_placement_across_a_restore() {
        // Bin 0 takes items 0..3; items 0 and 1 leave before the cut, so
        // the snapshot holds one live item but three placements.
        let items = [
            Item::new(0, Size::from_f64(0.3), 0, 2),
            Item::new(1, Size::from_f64(0.3), 1, 3),
            Item::new(2, Size::from_f64(0.3), 1, 9),
            Item::new(3, Size::from_f64(0.3), 5, 7),
        ];
        let mut packer = FirstFit;
        let mut s = feed(
            StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut packer),
            &items[..3],
        );
        s.advance_to(4).unwrap();
        let snap = s.snapshot();
        assert_eq!(
            (snap.open_bins[0].placed, snap.open_bins[0].items.len()),
            (3, 1)
        );
        let mut p2 = FirstFit;
        let mut log = EventLog::new();
        let s2 = StreamingSession::restore_with_observer(
            ClairvoyanceMode::Clairvoyant,
            &mut p2,
            &snap,
            &mut log,
        )
        .unwrap();
        let totals = feed(s2, &items[3..]).finish().unwrap();
        assert!(log.events.contains(&PackEvent::BinClosed {
            bin: BinId(0),
            at: 9,
            opened_at: 0,
            items: 4,
        }));
        assert_eq!(
            totals,
            RunTotals {
                usage: 9,
                bins_opened: 1
            }
        );
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
        let mut rec = RunRecorder::new();
        let mut s =
            StreamingSession::with_observer(ClairvoyanceMode::Clairvoyant, &mut packer, &mut rec);
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
        assert_eq!(s.finish().unwrap().usage, 5 + 28);
        let run = rec.into_run();
        assert_eq!(run.bins[0].closed_at, 5, "record closed at failure time");
        assert_eq!(
            run.bins[0].items,
            vec![ItemId(0), ItemId(1)],
            "displaced ids kept"
        );
        assert_eq!(run.usage, 5 + 28);
    }

    #[test]
    fn departed_and_displaced_ids_may_arrive_again() {
        let mut packer = FirstFit;
        let mut rec = RunRecorder::new();
        let mut s =
            StreamingSession::with_observer(ClairvoyanceMode::Clairvoyant, &mut packer, &mut rec);
        s.arrive(&Item::new(0, Size::from_f64(0.4), 0, 2)).unwrap();
        s.arrive(&Item::new(1, Size::from_f64(0.4), 1, 20)).unwrap();
        s.advance_to(3).unwrap();
        s.arrive(&Item::new(0, Size::from_f64(0.4), 3, 9)).unwrap();
        assert_eq!(s.fail_bin(BinId(0), 4).unwrap().len(), 2);
        // Item 1 returns with an earlier departure than the one the
        // failure dropped, and leaves at the new time.
        assert_eq!(
            s.arrive(&Item::new(1, Size::from_f64(0.4), 5, 7)).unwrap(),
            BinId(1)
        );
        assert_eq!(s.finish().unwrap().usage, 4 + 2);
        assert_eq!(rec.into_run().bins[1].closed_at, 7);
    }

    #[test]
    fn fail_bin_does_not_displace_already_departed_items() {
        let mut packer = FirstFit;
        let mut rec = RunRecorder::new();
        let mut s =
            StreamingSession::with_observer(ClairvoyanceMode::Clairvoyant, &mut packer, &mut rec);
        s.arrive(&Item::new(0, Size::from_f64(0.4), 0, 5)).unwrap();
        s.arrive(&Item::new(1, Size::from_f64(0.4), 1, 20)).unwrap();
        // Failure at t=7: item 0 departed at 5, only item 1 is displaced.
        let displaced = s.fail_bin(BinId(0), 7).unwrap();
        assert_eq!(displaced.len(), 1);
        assert_eq!(displaced[0].id, ItemId(1));
        s.finish().unwrap();
        assert_eq!(rec.into_run().bins[0].closed_at, 7);
    }

    /// Only an observer that asks gets timed: with the default
    /// `wants_timing` no op reaches it, and one that asks every time
    /// gets one `Decide` per arrival, shed arrivals included.
    #[test]
    fn decide_time_reaches_only_observers_that_ask() {
        /// Records ops; keeps the default `wants_timing`.
        struct Untimed(Vec<OpKind>);
        impl PackObserver for Untimed {
            fn on_event(&mut self, _: &PackEvent) {}
            fn on_op(&mut self, op: OpKind, _ns: u64) {
                self.0.push(op);
            }
        }
        /// Records ops; asks to time every arrival.
        struct Timed(Vec<OpKind>);
        impl PackObserver for Timed {
            fn on_event(&mut self, _: &PackEvent) {}
            fn wants_timing(&mut self) -> bool {
                true
            }
            fn on_op(&mut self, op: OpKind, _ns: u64) {
                self.0.push(op);
            }
        }
        fn drive<O: PackObserver>(obs: &mut O) -> usize {
            let mut packer = FirstFit;
            let mut s =
                StreamingSession::with_observer(ClairvoyanceMode::Clairvoyant, &mut packer, obs);
            let mut shed = 0;
            for k in 0..6 {
                let item = Item::new(k, Size::from_f64(0.9), i64::from(k), i64::from(k) + 3);
                shed += usize::from(s.arrive_capped(&item, 2).unwrap() == Admission::Shed);
            }
            s.finish().unwrap();
            shed
        }
        let mut untimed = Untimed(Vec::new());
        assert!(drive(&mut untimed) > 0, "the stream sheds");
        assert_eq!(untimed.0, [], "the default declines every clock read");
        let mut timed = Timed(Vec::new());
        drive(&mut timed);
        let decides = timed.0.iter().filter(|&&op| op == OpKind::Decide).count();
        assert_eq!(decides, 6, "one decide sample per arrival, shed or placed");
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
        assert_eq!(s.finish().unwrap().bins_opened, 2);
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
        let mut rec = RunRecorder::new();
        let mut s =
            StreamingSession::with_observer(ClairvoyanceMode::Clairvoyant, &mut packer, &mut rec);
        s.arrive(&Item::new(0, Size::from_f64(0.4), 0, 10)).unwrap();
        s.arrive(&Item::new(1, Size::from_f64(0.9), 1, 30)).unwrap();
        s.fail_bin(BinId(0), 2).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.departures, vec![(30, ItemId(1))]);
        assert_eq!(snap.closed_usage, 2, "the failed bin's usage is kept");
        drop(s);
        let mut p2 = FirstFit;
        let s2 = StreamingSession::restore_with_observer(
            ClairvoyanceMode::Clairvoyant,
            &mut p2,
            &snap,
            &mut rec,
        )
        .unwrap();
        assert_eq!(s2.finish().unwrap().usage, 2 + 29);
        let run = rec.into_run();
        assert_eq!((run.bins[0].closed_at, run.bins[1].closed_at), (2, 30));
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

    /// Vector First Fit over the whole fleet: the same body as the
    /// scalar test packer, at any demand type.
    struct AnyFirstFit;
    impl<D: Demand> OnlinePacker<D> for AnyFirstFit {
        fn name(&self) -> String {
            "ff".into()
        }
        fn place(&mut self, item: &ItemView<D>, open: &OpenBins<D>) -> Decision {
            open.iter()
                .find(|b| b.fits(item.size))
                .map(|b| Decision::Existing(b.id()))
                .unwrap_or(Decision::NEW)
        }
    }

    fn sv(fracs: &[f64]) -> SizeVec {
        SizeVec::from_f64s(fracs)
    }

    fn vec_sample() -> VecInstance {
        VecInstance::from_items(vec![
            VecItem::new(0, sv(&[0.5, 0.2]), 0, 10),
            VecItem::new(1, sv(&[0.5, 0.9]), 2, 8),
            VecItem::new(2, sv(&[0.5, 0.5]), 3, 9),
            VecItem::new(3, sv(&[0.9, 0.1]), 5, 20),
            VecItem::new(4, sv(&[0.1, 0.1]), 12, 30),
        ])
        .unwrap()
    }

    #[test]
    fn vector_axis_overflow_forces_new_bins() {
        // Item 1 fits item 0's bin on axis 0 (0.5+0.5) but not axis 1
        // (0.2+0.9): vector feasibility must open a second bin.
        let run = VecStreamingSession::run(
            VecClairvoyance::Clairvoyant,
            &vec_sample(),
            &mut AnyFirstFit,
        )
        .unwrap();
        assert_eq!(run.packing.bin_of(ItemId(0)), run.packing.bin_of(ItemId(2)));
        assert_ne!(run.packing.bin_of(ItemId(0)), run.packing.bin_of(ItemId(1)));
        let expect: u128 = run.bins.iter().map(|r| r.usage()).sum();
        assert_eq!(run.usage, expect);
    }

    #[test]
    fn dim1_vector_session_is_bit_identical_to_scalar_session() {
        let inst = sample();
        let scalar = OnlineEngine::clairvoyant()
            .run(&inst, &mut AnyFirstFit)
            .unwrap();
        let lifted = VecInstance::lift(&inst, 1);
        let vector =
            VecStreamingSession::run(VecClairvoyance::Clairvoyant, &lifted, &mut AnyFirstFit)
                .unwrap();
        assert_eq!(vector, scalar);
    }

    #[test]
    fn vector_session_reports_per_axis_levels_and_hides_departures() {
        let mut log = EventLog::new();
        let mut packer = AnyFirstFit;
        let mut s = VecStreamingSession::with_observer(
            VecClairvoyance::NonClairvoyant,
            &mut packer,
            &mut log,
        );
        for item in vec_sample().items() {
            s.arrive(item).unwrap();
        }
        s.advance_to(20).unwrap();
        assert_eq!(s.open_bins(), 1, "only the bin holding item 4 is left");
        s.finish().unwrap();
        let opened = log
            .events
            .iter()
            .filter(|e| matches!(e, PackEvent::BinOpened { .. }))
            .count();
        let closed = log
            .events
            .iter()
            .filter(|e| matches!(e, PackEvent::BinClosed { .. }))
            .count();
        assert_eq!((opened, closed), (3, 3));
        for e in &log.events {
            match e {
                PackEvent::LevelChanged { level, .. } => assert_eq!(level.dims(), 2),
                PackEvent::ItemArrived {
                    visible_departure, ..
                } => assert_eq!(*visible_departure, None),
                _ => {}
            }
        }
    }

    /// A vector session takes the noisy estimator too: its packer sees
    /// the estimate, the session reports it, and true departures still
    /// close the bins.
    #[test]
    fn vector_session_takes_noisy_estimates() {
        use std::sync::Arc;
        let mode = ClairvoyanceMode::Noisy(Arc::new(|r: &Item<SizeVec>| r.departure() + 5));
        let mut log = EventLog::new();
        let run =
            VecStreamingSession::run_observed(mode, &vec_sample(), &mut AnyFirstFit, &mut log)
                .unwrap();
        let truth = VecStreamingSession::run(
            ClairvoyanceMode::Clairvoyant,
            &vec_sample(),
            &mut AnyFirstFit,
        )
        .unwrap();
        assert_eq!(run, truth, "First Fit never reads a departure");
        let estimates: Vec<_> = log
            .events
            .iter()
            .filter_map(|e| match e {
                PackEvent::EstimateUsed {
                    estimate, actual, ..
                } => Some(estimate - actual),
                _ => None,
            })
            .collect();
        assert_eq!(estimates, vec![5; vec_sample().len()]);
    }
}
