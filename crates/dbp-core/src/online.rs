//! The online packing engine.
//!
//! Items are revealed in arrival order; an [`OnlinePacker`] must immediately
//! and irrevocably place each one (no migration, §3.1). The engine owns all
//! bin state, enforces capacity, closes a bin exactly when its last item
//! departs ("when all the items in a bin depart, the bin is closed", §5),
//! and accounts usage time exactly.
//!
//! ## Clairvoyance
//!
//! What a packer *sees* is controlled by [`ClairvoyanceMode`]:
//!
//! * [`ClairvoyanceMode::Clairvoyant`] — true departure times are visible at
//!   arrival (the paper's clairvoyant setting).
//! * [`ClairvoyanceMode::NonClairvoyant`] — departures are hidden
//!   (`None`), so classical Any Fit algorithms can be run honestly.
//! * [`ClairvoyanceMode::Noisy`] — the packer sees an *estimate* produced
//!   by a user function; actual departures still drive the simulation.
//!   This implements the §6 "inaccurate estimates" sensitivity study.
//!
//! The mode is generic over the demand type, like the items it reads, so
//! scalar and vector sessions take the same three.
//!
//! The engine never leaks future arrivals: a packer only observes the
//! current item and the currently open bins.

use crate::error::DbpError;
use crate::instance::Instance;
use crate::interval::Time;
use crate::item::{Item, ItemId};
use crate::packing::{BinId, Packing};
use crate::size::Size;
use crate::sizevec::SizeVec;

use crate::demand::Demand;
pub use crate::openbins::OpenBins;

use std::sync::Arc;

/// Controls what departure information packers observe, for items of
/// demand type `D` ([`Size`] unless stated).
#[derive(Clone)]
pub enum ClairvoyanceMode<D = Size> {
    /// True departures visible at arrival (the paper's setting).
    Clairvoyant,
    /// No departure information (`departure == None` in all views).
    NonClairvoyant,
    /// Departure *estimates* computed by the given function from the true
    /// item; actual dynamics still use the true departure.
    Noisy(Estimator<D>),
}

/// A departure estimator: the true item in, the estimate out.
type Estimator<D> = Arc<dyn Fn(&Item<D>) -> Time + Send + Sync>;

impl<D: Demand> ClairvoyanceMode<D> {
    /// The departure a packer sees for `item`: the truth, nothing, or
    /// the estimate (at least one tick after the arrival).
    #[inline]
    pub fn visible_departure(&self, item: &Item<D>) -> Option<Time> {
        match self {
            ClairvoyanceMode::Clairvoyant => Some(item.departure()),
            ClairvoyanceMode::NonClairvoyant => None,
            ClairvoyanceMode::Noisy(f) => Some(f(item).max(item.arrival() + 1)),
        }
    }

    /// Whether visible departures are estimates rather than the truth.
    pub fn is_noisy(&self) -> bool {
        matches!(self, ClairvoyanceMode::Noisy(_))
    }
}

impl<D> std::fmt::Debug for ClairvoyanceMode<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClairvoyanceMode::Clairvoyant => write!(f, "Clairvoyant"),
            ClairvoyanceMode::NonClairvoyant => write!(f, "NonClairvoyant"),
            ClairvoyanceMode::Noisy(_) => write!(f, "Noisy(..)"),
        }
    }
}

/// The packer's view of the arriving item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItemView<D = Size> {
    /// Item id.
    pub id: ItemId,
    /// Item demand.
    pub size: D,
    /// Arrival time (the current time).
    pub arrival: Time,
    /// Departure as visible under the engine's clairvoyance mode.
    pub departure: Option<Time>,
}

impl<D> ItemView<D> {
    /// Duration, if the departure is visible.
    pub fn duration(&self) -> Option<i64> {
        self.departure.map(|d| d - self.arrival)
    }
}

/// An item currently residing in an open bin, as visible to packers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActiveItem<D = Size> {
    /// Item id.
    pub id: ItemId,
    /// Item demand.
    pub size: D,
    /// Departure as visible under the engine's clairvoyance mode.
    pub departure: Option<Time>,
}

/// A currently open bin, as visible to packers.
///
/// Bins are presented in opening order (First Fit's "opened earliest"
/// tie-break is simply the first feasible element). Capacity is one on
/// every axis of the demand type.
#[derive(Clone, Debug)]
pub struct OpenBin<D = Size> {
    id: BinId,
    opened_at: Time,
    tag: u64,
    level: D,
    items: Vec<ActiveItem<D>>,
    /// Items ever placed here, departed ones included.
    placed: u64,
}

impl<D: Demand> OpenBin<D> {
    /// Creates a bin holding its first item (crate-internal: bins are only
    /// created by the engines).
    pub(crate) fn new(id: BinId, opened_at: Time, tag: u64, first: ActiveItem<D>) -> OpenBin<D> {
        OpenBin {
            id,
            opened_at,
            tag,
            level: first.size,
            items: vec![first],
            placed: 1,
        }
    }

    /// Adds an item, enforcing capacity.
    pub(crate) fn push_item(&mut self, active: ActiveItem<D>, size: D) -> Result<(), DbpError> {
        if !self.fits(size) {
            return Err(DbpError::BadDecision {
                what: format!(
                    "item {} of size {} does not fit bin {:?} (level {})",
                    active.id, size, self.id, self.level
                ),
            });
        }
        self.level = self.level.add(size);
        self.items.push(active);
        self.placed += 1;
        Ok(())
    }

    /// Sets the placed count of a bin rebuilt from a snapshot.
    pub(crate) fn set_placed(&mut self, placed: u64) {
        self.placed = placed;
    }

    /// Removes an item; returns whether the bin became empty.
    pub(crate) fn remove_item(&mut self, id: ItemId) -> Result<bool, DbpError> {
        let pos = self
            .items
            .iter()
            .position(|a| a.id == id)
            .ok_or_else(|| DbpError::Internal {
                what: format!("item {id} missing from its bin at departure"),
            })?;
        let removed = self.items.swap_remove(pos);
        self.level = self.level.sub(removed.size);
        Ok(self.items.is_empty())
    }

    /// Global bin id (opening order across the whole run).
    pub fn id(&self) -> BinId {
        self.id
    }

    /// When the bin was opened.
    pub fn opened_at(&self) -> Time {
        self.opened_at
    }

    /// The tag supplied by the packer when it opened this bin. Packers use
    /// tags to mark bin categories (e.g. the departure-time class of §5.2)
    /// without keeping parallel bookkeeping.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Current level (total demand of active items).
    pub fn level(&self) -> D {
        self.level
    }

    /// Remaining headroom (`capacity − level`, per axis).
    pub fn gap(&self) -> D {
        self.level.gap()
    }

    /// Whether `size` fits right now (on every axis). Because items never
    /// return and the current contents' levels only decrease in the
    /// future, fitting now implies fitting for the item's entire
    /// residence.
    pub fn fits(&self, size: D) -> bool {
        self.level.fits(size)
    }

    /// The active items in the bin.
    pub fn items(&self) -> &[ActiveItem<D>] {
        &self.items
    }

    /// How many items were ever placed in the bin, departed ones
    /// included.
    pub(crate) fn placed(&self) -> u64 {
        self.placed
    }
}

/// A packer's placement decision for one arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Place in the open bin with this id (must be open and must fit).
    Existing(BinId),
    /// Open a new bin carrying `tag` and place the item there.
    New {
        /// Category tag stored on the bin for the packer's later queries.
        tag: u64,
    },
}

impl Decision {
    /// A new bin with the default tag 0.
    pub const NEW: Decision = Decision::New { tag: 0 };
}

/// Opaque, serializable packer state captured in a checkpoint.
///
/// Most roster packers are pure functions of the arriving item and the
/// open set and carry no mutable state; those use the default empty
/// value. Stateful packers (CBDT's classification epoch, and the
/// combined classifier's) store named integer fields. Fields are kept
/// sorted by name so equal states compare equal bit-for-bit regardless
/// of insertion order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackerState {
    fields: Vec<(String, i64)>,
}

impl PackerState {
    /// An empty (stateless) packer state.
    pub fn new() -> PackerState {
        PackerState::default()
    }

    /// Sets `key` to `value`, replacing any existing entry.
    pub fn set(&mut self, key: &str, value: i64) {
        match self.fields.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.fields[i].1 = value,
            Err(i) => self.fields.insert(i, (key.to_string(), value)),
        }
    }

    /// Looks up `key`.
    pub fn get(&self, key: &str) -> Option<i64> {
        self.fields
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.fields[i].1)
    }

    /// Whether the state carries no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The fields in canonical (name-sorted) order.
    pub fn fields(&self) -> &[(String, i64)] {
        &self.fields
    }

    /// Builds a state from arbitrary-order fields (checkpoint decode).
    pub fn from_fields(mut fields: Vec<(String, i64)>) -> PackerState {
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        PackerState { fields }
    }
}

/// An online packing algorithm over demand type `D` ([`Size`] unless
/// stated). Algorithms whose rule does not depend on the demand type —
/// the Any-Fit family and the classification strategies — implement it
/// for every [`Demand`], so one body serves scalar and vector sessions.
pub trait OnlinePacker<D: Demand = Size> {
    /// Display name including parameterization, e.g. `"cbdt(rho=8)"`.
    fn name(&self) -> String;

    /// Called once before each run; resets internal state.
    fn reset(&mut self) {}

    /// Chooses where the arriving item goes.
    ///
    /// `open_bins` iterates in opening order (First Fit's "opened
    /// earliest" tie-break is simply the first feasible element); use
    /// [`OpenBins::iter_tag`] to scan a single category in O(category)
    /// instead of O(fleet), and [`OpenBins::get`] for O(1) lookup by id.
    /// For the Any-Fit rules, prefer the indexed queries
    /// ([`OpenBins::first_fit`], [`OpenBins::best_fit`],
    /// [`OpenBins::worst_fit`]): O(log category), decision-identical to
    /// the linear scans, and they hand back the probe count to report
    /// from [`OnlinePacker::last_scanned`].
    fn place(&mut self, item: &ItemView<D>, open_bins: &OpenBins<D>) -> Decision;

    /// How much work the most recent [`OnlinePacker::place`] call did to
    /// reach its decision, or `None` if this packer does not track it.
    /// For a linear scan this is the number of candidate bins inspected
    /// (including the chosen bin); for an indexed packer it is the number
    /// of index nodes actually probed, as returned by the
    /// [`OpenBins`] fit queries — *not* the size of the pool the index
    /// covers.
    ///
    /// Observability hook: the engine reads this — only while an observer
    /// is attached — to fill `candidates_scanned` in
    /// [`crate::observe::PackEvent::PlacementDecided`]. Packers that scan
    /// or probe candidates anyway can report the exact count for free;
    /// when `None` the engine falls back to the size of the open fleet
    /// (the candidate *pool*), which deliberately over-reports — a packer
    /// wanting faithful scan-depth histograms must implement this. The
    /// count is a pure function of the decision stream, so it is safe for
    /// replay-deterministic work metrics, and it is transient per-call
    /// state: it does not belong in [`OnlinePacker::save_state`].
    fn last_scanned(&self) -> Option<usize> {
        None
    }

    /// Captures internal state for a checkpoint
    /// ([`crate::stream::StreamingSession::snapshot`]). The default
    /// (stateless) implementation returns the empty state; packers whose
    /// decisions depend on run history must override this together with
    /// [`OnlinePacker::restore_state`].
    fn save_state(&self) -> PackerState {
        PackerState::new()
    }

    /// Restores state captured by [`OnlinePacker::save_state`]. Called
    /// after [`OnlinePacker::reset`] on the restore path. The default
    /// (stateless) implementation accepts only the empty state, so a
    /// snapshot carrying state cannot be silently dropped.
    fn restore_state(&mut self, state: &PackerState) -> Result<(), DbpError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(DbpError::InvalidParameter {
                what: format!(
                    "packer {} is stateless but the snapshot carries packer state",
                    self.name()
                ),
            })
        }
    }
}

/// The vector roster's packer interface: the four [`OnlinePacker`]
/// methods a vector session calls, as an object-safe trait of its own
/// so callers can box or implement it without naming the demand type.
/// Every `OnlinePacker<SizeVec>` is one.
pub trait VecOnlinePacker {
    /// Display name including parameterization.
    fn name(&self) -> String;
    /// Called once before each run; resets internal state.
    fn reset(&mut self) {}
    /// Chooses where the arriving item goes.
    fn place(&mut self, item: &VecItemView, open_bins: &VecOpenBins) -> Decision;
    /// Work done by the most recent `place` (see
    /// [`OnlinePacker::last_scanned`]).
    fn last_scanned(&self) -> Option<usize> {
        None
    }
}

/// The arriving-item view of a vector session.
pub type VecItemView = ItemView<SizeVec>;

/// The open-bin set of a vector session.
pub type VecOpenBins = OpenBins<SizeVec>;

impl<T: OnlinePacker<SizeVec> + ?Sized> VecOnlinePacker for T {
    fn name(&self) -> String {
        OnlinePacker::name(self)
    }
    fn reset(&mut self) {
        OnlinePacker::reset(self)
    }
    fn place(&mut self, item: &VecItemView, open_bins: &VecOpenBins) -> Decision {
        OnlinePacker::place(self, item, open_bins)
    }
    fn last_scanned(&self) -> Option<usize> {
        OnlinePacker::last_scanned(self)
    }
}

/// A borrowed `dyn VecOnlinePacker` seen as an `OnlinePacker<SizeVec>`:
/// the packer handle of [`crate::VecStreamingSession`].
pub struct VecPackerRef<'p>(pub(crate) &'p mut dyn VecOnlinePacker);

impl OnlinePacker<SizeVec> for VecPackerRef<'_> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn place(&mut self, item: &VecItemView, open_bins: &VecOpenBins) -> Decision {
        self.0.place(item, open_bins)
    }
    fn last_scanned(&self) -> Option<usize> {
        self.0.last_scanned()
    }
}

/// Record of one bin's lifetime after a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinRecord {
    /// The bin id (opening order).
    pub id: BinId,
    /// Opening time (arrival of its first item).
    pub opened_at: Time,
    /// Closing time (departure of its last item).
    pub closed_at: Time,
    /// The packer-supplied tag.
    pub tag: u64,
    /// Every item ever placed in the bin.
    pub items: Vec<ItemId>,
}

impl BinRecord {
    /// Usage time of this bin in ticks. For online runs bins hold at least
    /// one item at all times between open and close, so this equals the
    /// span of the bin's items.
    pub fn usage(&self) -> u128 {
        lifetime(self.opened_at, self.closed_at)
    }
}

/// The usage a bin accrues between `opened_at` and `closed_at`, in
/// ticks. Computed in `i128`, so no pair of `i64` times can overflow it;
/// a bin never closes before it opened, and a negative span would count
/// as zero.
pub(crate) fn lifetime(opened_at: Time, closed_at: Time) -> u128 {
    (i128::from(closed_at) - i128::from(opened_at)).max(0) as u128
}

/// The outcome of an online run, as a [`RunRecorder`] rebuilds it. Two
/// runs compare equal only when the full bin history matches
/// bit-for-bit (the checkpoint/restore differential tests rely on this).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OnlineRun {
    /// Item→bin assignment, convertible to a [`Packing`].
    pub packing: Packing,
    /// Total usage time in ticks.
    pub usage: u128,
    /// Per-bin lifetime records in opening order.
    pub bins: Vec<BinRecord>,
}

impl OnlineRun {
    /// Number of bins opened over the whole run.
    pub fn bins_opened(&self) -> usize {
        self.bins.len()
    }

    /// The open-server count over time (the fleet timeline an autoscaler
    /// would plot). Its integral equals the total usage and its max is the
    /// peak fleet size.
    pub fn fleet_series(&self) -> crate::stats::StepSeries {
        let mut deltas = Vec::with_capacity(self.bins.len() * 2);
        for b in &self.bins {
            deltas.push((b.opened_at, 1));
            deltas.push((b.closed_at, -1));
        }
        crate::stats::StepSeries::from_deltas(deltas)
    }
}

/// Rebuilds a run's full bin history from a session's events.
///
/// A [`crate::StreamingSession`] keeps only live state and two running
/// totals; the history of every bin ever opened is run *output*, so it
/// lives here, in an observer, and only callers that want it pay for it.
/// Tee one into a session (the batch engines do) and
/// [`RunRecorder::into_run`] returns the [`OnlineRun`] the session's
/// decisions add up to: records in opening order, each listing every
/// item ever placed in the bin in placement order, a failed bin closed at
/// its failure time with its displaced ids kept.
///
/// To record a stream that is checkpointed and resumed, hand the same
/// recorder to the first session and to the restored one
/// ([`crate::StreamingSession::restore_with_observer`]): the snapshot
/// carries no history, the recorder does. A recorder attached mid-stream
/// ignores events about bins it never saw open.
#[derive(Clone, Debug, Default)]
pub struct RunRecorder {
    bins: Vec<BinRecord>,
}

impl RunRecorder {
    /// An empty recorder.
    pub fn new() -> RunRecorder {
        RunRecorder::default()
    }

    /// The recorded run: the packing, the usage summed over the records,
    /// and the records themselves, indexed by bin id. A bin still open
    /// when the recording stopped has `closed_at` equal to its
    /// `opened_at`.
    pub fn into_run(self) -> OnlineRun {
        let usage = self.bins.iter().map(BinRecord::usage).sum();
        let packing = Packing::from_bins(self.bins.iter().map(|r| r.items.clone()).collect());
        OnlineRun {
            packing,
            usage,
            bins: self.bins,
        }
    }

    fn record(&mut self, bin: BinId) -> Option<&mut BinRecord> {
        self.bins.get_mut(bin.0 as usize)
    }
}

impl<D> crate::observe::PackObserver<D> for RunRecorder {
    fn on_event(&mut self, event: &crate::observe::PackEvent<D>) {
        use crate::observe::PackEvent;
        match *event {
            PackEvent::BinOpened { bin, at, tag } if bin.0 as usize == self.bins.len() => {
                self.bins.push(BinRecord {
                    id: bin,
                    opened_at: at,
                    closed_at: at,
                    tag,
                    items: Vec::new(),
                });
            }
            PackEvent::PlacementDecided { id, bin, .. } => {
                if let Some(r) = self.record(bin) {
                    r.items.push(id);
                }
            }
            PackEvent::BinClosed { bin, at, .. } | PackEvent::BinFailed { bin, at, .. } => {
                if let Some(r) = self.record(bin) {
                    r.closed_at = at;
                }
            }
            _ => {}
        }
    }
}

/// Drives an [`OnlinePacker`] over an instance.
#[derive(Clone, Debug)]
pub struct OnlineEngine {
    mode: ClairvoyanceMode,
}

impl OnlineEngine {
    /// Creates an engine with the given clairvoyance mode.
    pub fn new(mode: ClairvoyanceMode) -> Self {
        OnlineEngine { mode }
    }

    /// A clairvoyant engine (the paper's setting).
    pub fn clairvoyant() -> Self {
        Self::new(ClairvoyanceMode::Clairvoyant)
    }

    /// A non-clairvoyant engine.
    pub fn non_clairvoyant() -> Self {
        Self::new(ClairvoyanceMode::NonClairvoyant)
    }

    /// Runs the packer over the instance's items in arrival order.
    ///
    /// Departures at time `t` are processed before arrivals at time `t`
    /// (intervals are half-open), and a bin is closed — removed from the
    /// open set — the moment its last item departs. This is a convenience
    /// wrapper over [`crate::stream::StreamingSession`], which is the
    /// incremental API for real online integrations; both paths share one
    /// implementation, and a [`RunRecorder`] rebuilds the full run.
    pub fn run(
        &self,
        inst: &Instance,
        packer: &mut dyn OnlinePacker,
    ) -> Result<OnlineRun, DbpError> {
        self.run_observed(inst, packer, &mut crate::observe::NoopObserver)
    }

    /// Like [`OnlineEngine::run`], but reports every packing event to the
    /// given [`crate::observe::PackObserver`]. The observer is
    /// monomorphized in; with [`crate::observe::NoopObserver`] this
    /// compiles to exactly the unobserved loop.
    pub fn run_observed<O: crate::observe::PackObserver>(
        &self,
        inst: &Instance,
        packer: &mut dyn OnlinePacker,
        obs: &mut O,
    ) -> Result<OnlineRun, DbpError> {
        let mut recorder = RunRecorder::new();
        let mut session = crate::stream::StreamingSession::with_observer(
            self.mode.clone(),
            packer,
            crate::observe::Tee(obs, &mut recorder),
        );
        for item in inst.items() {
            session.arrive(item)?;
        }
        session.finish()?;
        Ok(recorder.into_run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First Fit on current levels only — the reference Any Fit algorithm.
    struct TestFirstFit;
    impl OnlinePacker for TestFirstFit {
        fn name(&self) -> String {
            "test-ff".into()
        }
        fn place(&mut self, item: &ItemView, open_bins: &OpenBins) -> Decision {
            for b in open_bins {
                if b.fits(item.size) {
                    return Decision::Existing(b.id());
                }
            }
            Decision::NEW
        }
    }

    /// Always opens a new bin.
    struct AlwaysNew;
    impl OnlinePacker for AlwaysNew {
        fn name(&self) -> String {
            "always-new".into()
        }
        fn place(&mut self, _: &ItemView, _: &OpenBins) -> Decision {
            Decision::NEW
        }
    }

    /// Greedily reuses the first open bin regardless of fit (to exercise
    /// engine feasibility rejection).
    struct BadPacker;
    impl OnlinePacker for BadPacker {
        fn name(&self) -> String {
            "bad".into()
        }
        fn place(&mut self, _: &ItemView, open_bins: &OpenBins) -> Decision {
            match open_bins.first() {
                Some(b) => Decision::Existing(b.id()),
                None => Decision::NEW,
            }
        }
    }

    #[test]
    fn first_fit_shares_bins() {
        let inst = Instance::from_triples(&[(0.5, 0, 10), (0.5, 2, 8), (0.5, 3, 9)]);
        let run = OnlineEngine::clairvoyant()
            .run(&inst, &mut TestFirstFit)
            .unwrap();
        run.packing.validate(&inst).unwrap();
        assert_eq!(run.bins_opened(), 2);
        // Bin 0 holds items 0 and 1 (both 0.5); item 2 opens bin 1.
        assert_eq!(run.usage, 10 + 6);
    }

    #[test]
    fn always_new_usage_is_total_duration() {
        let inst = Instance::from_triples(&[(0.1, 0, 10), (0.1, 2, 8), (0.1, 3, 9)]);
        let run = OnlineEngine::clairvoyant()
            .run(&inst, &mut AlwaysNew)
            .unwrap();
        assert_eq!(run.bins_opened(), 3);
        assert_eq!(run.usage, 10 + 6 + 6);
    }

    #[test]
    fn infeasible_decision_rejected() {
        let inst = Instance::from_triples(&[(0.8, 0, 10), (0.8, 2, 8)]);
        let err = OnlineEngine::clairvoyant()
            .run(&inst, &mut BadPacker)
            .unwrap_err();
        assert!(matches!(err, DbpError::BadDecision { .. }));
    }

    #[test]
    fn bin_closes_at_last_departure_and_is_not_reused() {
        // Item 0: [0,5). Item 1 arrives exactly at 5 — the bin holding item
        // 0 has closed, so a new bin must open even though levels allow it.
        let inst = Instance::from_triples(&[(0.5, 0, 5), (0.5, 5, 10)]);
        let run = OnlineEngine::clairvoyant()
            .run(&inst, &mut TestFirstFit)
            .unwrap();
        assert_eq!(run.bins_opened(), 2);
        assert_eq!(run.usage, 10);
        assert_eq!(run.bins[0].closed_at, 5);
        assert_eq!(run.bins[1].opened_at, 5);
    }

    #[test]
    fn non_clairvoyant_hides_departures() {
        struct AssertHidden;
        impl OnlinePacker for AssertHidden {
            fn name(&self) -> String {
                "assert-hidden".into()
            }
            fn place(&mut self, item: &ItemView, bins: &OpenBins) -> Decision {
                assert!(item.departure.is_none());
                for b in bins {
                    for a in b.items() {
                        assert!(a.departure.is_none());
                    }
                }
                Decision::NEW
            }
        }
        let inst = Instance::from_triples(&[(0.5, 0, 10), (0.5, 1, 4)]);
        OnlineEngine::non_clairvoyant()
            .run(&inst, &mut AssertHidden)
            .unwrap();
    }

    #[test]
    fn noisy_mode_shows_estimates_but_sim_uses_truth() {
        // Estimator always claims departure = arrival + 1000.
        struct Record(Vec<Time>);
        impl OnlinePacker for Record {
            fn name(&self) -> String {
                "record".into()
            }
            fn place(&mut self, item: &ItemView, _: &OpenBins) -> Decision {
                self.0.push(item.departure.unwrap());
                Decision::NEW
            }
        }
        let inst = Instance::from_triples(&[(0.5, 0, 10)]);
        let engine = OnlineEngine::new(ClairvoyanceMode::Noisy(Arc::new(|r: &Item| {
            r.arrival() + 1000
        })));
        let mut p = Record(Vec::new());
        let run = engine.run(&inst, &mut p).unwrap();
        assert_eq!(p.0, vec![1000]);
        // Usage still reflects the true departure.
        assert_eq!(run.usage, 10);
    }

    #[test]
    fn usage_equals_packing_span_sum() {
        let inst = Instance::from_triples(&[
            (0.4, 0, 7),
            (0.4, 1, 12),
            (0.4, 2, 5),
            (0.9, 3, 6),
            (0.2, 8, 30),
        ]);
        let run = OnlineEngine::clairvoyant()
            .run(&inst, &mut TestFirstFit)
            .unwrap();
        run.packing.validate(&inst).unwrap();
        assert_eq!(run.usage, run.packing.total_usage(&inst));
    }

    #[test]
    fn tags_are_preserved() {
        struct Tagger;
        impl OnlinePacker for Tagger {
            fn name(&self) -> String {
                "tagger".into()
            }
            fn place(&mut self, item: &ItemView, bins: &OpenBins) -> Decision {
                let tag = item.id.0 as u64 % 2;
                for b in bins {
                    if b.tag() == tag && b.fits(item.size) {
                        return Decision::Existing(b.id());
                    }
                }
                Decision::New { tag }
            }
        }
        let inst = Instance::from_triples(&[(0.3, 0, 10), (0.3, 1, 10), (0.3, 2, 10)]);
        let run = OnlineEngine::clairvoyant().run(&inst, &mut Tagger).unwrap();
        assert_eq!(run.bins_opened(), 2);
        assert_eq!(run.bins[0].tag, 0);
        assert_eq!(run.bins[1].tag, 1);
        // items 0 and 2 share the tag-0 bin
        assert_eq!(run.packing.bin(BinId(0)).len(), 2);
    }
}
