//! Packing-decision observability: structured events and the observer
//! hook the engines emit them through.
//!
//! The paper's analysis (§5, Figures 6–8) reasons about *when* bins open,
//! how levels evolve, and how usage decomposes over time — aggregate
//! numbers alone cannot answer those questions after the fact. This
//! module defines the event vocabulary ([`PackEvent`]) and the observer
//! trait ([`PackObserver`]) through which [`crate::OnlineEngine`] and
//! [`crate::stream::StreamingSession`] expose every packing decision as
//! it happens. Both are generic over the demand type: `PackEvent` (=
//! `PackEvent<Size>`) carries scalar sizes and levels, `PackEvent<SizeVec>`
//! per-axis vectors.
//!
//! ## Zero cost when disabled
//!
//! Observers are **monomorphized**: the engine is generic over the
//! observer type and every emission site is guarded by the associated
//! constant [`PackObserver::ENABLED`]. With the default
//! [`NoopObserver`], `ENABLED` is `false`, the guards constant-fold away,
//! and the compiled packing loop is identical to an unobserved one — no
//! timestamps are taken, no events are constructed.
//!
//! ## Events are deterministic; time is sampled
//!
//! Every [`PackEvent`] is a pure function of the arrival sequence. Time
//! reaches an observer only through [`PackObserver::on_op`], on arrivals
//! its [`PackObserver::wants_timing`] asked for; the default declines.
//!
//! Rich consumers (JSONL trace writing, time-series metrics, replay
//! validation) live in the `dbp-obs` crate; this module holds only what
//! the engines need to emit.

use crate::interval::Time;
use crate::item::ItemId;
use crate::packing::BinId;
use crate::size::Size;

/// How a placement was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FitDecision {
    /// The item was placed in an already-open bin.
    Reused,
    /// The packer opened a new bin for the item.
    OpenedNew,
}

/// One structured packing event, in engine emission order.
///
/// For a single arrival the engine emits, in order: any departure-driven
/// [`PackEvent::LevelChanged`] / [`PackEvent::BinClosed`] events up to the
/// arrival time, then [`PackEvent::ItemArrived`] (plus
/// [`PackEvent::EstimateUsed`] under noisy clairvoyance), then
/// [`PackEvent::BinOpened`] if the decision opened a bin, then
/// [`PackEvent::PlacementDecided`], then the placement's
/// [`PackEvent::LevelChanged`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PackEvent<D = Size> {
    /// An item was revealed to the packer.
    ItemArrived {
        /// The item id.
        id: ItemId,
        /// The item demand.
        size: D,
        /// Arrival time (current simulation time).
        at: Time,
        /// The *true* departure time driving the simulation.
        departure: Time,
        /// The departure the packer saw (`None` when non-clairvoyant).
        visible_departure: Option<Time>,
    },
    /// Noisy clairvoyance substituted an estimate for the true departure
    /// (emitted only under [`crate::ClairvoyanceMode::Noisy`]).
    EstimateUsed {
        /// The item id.
        id: ItemId,
        /// The estimated departure shown to the packer.
        estimate: Time,
        /// The true departure used by the simulation.
        actual: Time,
    },
    /// The packer chose a bin for the arriving item.
    PlacementDecided {
        /// The item id.
        id: ItemId,
        /// The chosen bin.
        bin: BinId,
        /// Whether an open bin was reused or a new one opened.
        fit_rule: FitDecision,
        /// How many candidate bins the packer inspected while deciding,
        /// as reported by `OnlinePacker::last_scanned` (for a reuse this
        /// includes the chosen bin; for a new bin all candidates were
        /// rejected). Packers that don't track their scans fall back to
        /// the candidate-pool size — the number of bins open when the
        /// decision was made. Deterministic for a given stream either
        /// way, and always O(1) for the engine to produce.
        candidates_scanned: usize,
    },
    /// A new bin was opened.
    BinOpened {
        /// The bin id (global opening order).
        bin: BinId,
        /// Opening time.
        at: Time,
        /// The packer-supplied category tag.
        tag: u64,
    },
    /// A bin's level changed (item placed or departed).
    LevelChanged {
        /// The bin whose level changed.
        bin: BinId,
        /// When.
        at: Time,
        /// The level after the change.
        level: D,
        /// Number of bins open after the change.
        open_bins: usize,
    },
    /// A bin's last item departed and the bin closed.
    BinClosed {
        /// The bin id.
        bin: BinId,
        /// Closing time.
        at: Time,
        /// When the bin had been opened.
        opened_at: Time,
        /// Total number of items the bin ever held.
        items: usize,
    },
    /// An open server failed under fault injection
    /// ([`crate::stream::StreamingSession::fail_bin`]): the bin closed at
    /// the failure time and its still-resident items were displaced.
    /// Emitted *instead of* [`PackEvent::BinClosed`] for the failed bin.
    BinFailed {
        /// The failed bin.
        bin: BinId,
        /// Failure time (becomes the bin's `closed_at`).
        at: Time,
        /// When the bin had been opened.
        opened_at: Time,
        /// Number of live items displaced by the failure.
        displaced: usize,
        /// Number of bins still open after the failure.
        open_bins: usize,
    },
    /// Admission control shed an arrival
    /// ([`crate::stream::StreamingSession::arrive_capped`]): the packer
    /// wanted a new server but the fleet cap was reached, so the item was
    /// not admitted and no session state changed.
    ArrivalShed {
        /// The shed item's id.
        id: ItemId,
        /// Arrival time of the shed item.
        at: Time,
        /// Number of open bins (equal to the fleet cap) at the time.
        open_bins: usize,
    },
}

/// A coarse-grained session operation whose wall-clock duration an
/// observer may receive through [`PackObserver::on_op`].
///
/// Unlike [`PackEvent`]s (which describe *what* the packer decided,
/// deterministically), op timings describe *where time went* and are
/// inherently run-specific: they belong on the wall-clock side of the
/// determinism boundary and must never feed merged or golden state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// The packer's `place` call for one arrival, shed arrivals
    /// included.
    Decide,
    /// Draining departures up to an arrival (the `close_until` sweep).
    Departures,
    /// A sharded session worker flushing one arrival batch.
    BatchFlush,
    /// Folding per-shard slices into the fleet report.
    Merge,
    /// The final drain in `finish` (all remaining departures).
    Finish,
}

/// A sink for [`PackEvent`]s.
///
/// Implementations are monomorphized into the engine; set
/// [`PackObserver::ENABLED`] to `false` (as [`NoopObserver`] does) to
/// compile every emission site away. The trait is deliberately not
/// dyn-compatible — composition is by type ([`Tee`], `Option<O>`), never
/// by boxing, so the disabled path stays free.
pub trait PackObserver<D = Size> {
    /// Whether the engine should construct and emit events at all. Guards
    /// every emission site; `false` makes observation free.
    const ENABLED: bool = true;

    /// Receives one event. Called synchronously from the packing loop, so
    /// implementations should be cheap and must not panic.
    fn on_event(&mut self, event: &PackEvent<D>);

    /// Asked once per arrival (before any clock is read) whether this
    /// observer wants wall-clock timing for it. Returning `true` makes
    /// the session time the arrival's `place` call
    /// ([`OpKind::Decide`]) and its departure sweep
    /// ([`OpKind::Departures`]) and report both through
    /// [`PackObserver::on_op`]; `false` skips the `Instant` reads
    /// entirely. Stateful implementations use this as a sampling hook
    /// (e.g. time 1 in 64 arrivals) to keep observation overhead off the
    /// hot path. The default declines.
    #[inline(always)]
    fn wants_timing(&mut self) -> bool {
        false
    }

    /// Receives the wall-clock duration of one coarse session operation.
    /// Only called when the surrounding arrival (or finish) was timed per
    /// [`PackObserver::wants_timing`]. Default: ignore.
    #[inline(always)]
    fn on_op(&mut self, _op: OpKind, _ns: u64) {}
}

/// The default observer: sees nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl<D> PackObserver<D> for NoopObserver {
    const ENABLED: bool = false;
    #[inline(always)]
    fn on_event(&mut self, _event: &PackEvent<D>) {}
}

impl<D, O: PackObserver<D>> PackObserver<D> for &mut O {
    const ENABLED: bool = O::ENABLED;
    #[inline(always)]
    fn on_event(&mut self, event: &PackEvent<D>) {
        (**self).on_event(event);
    }
    #[inline(always)]
    fn wants_timing(&mut self) -> bool {
        (**self).wants_timing()
    }
    #[inline(always)]
    fn on_op(&mut self, op: OpKind, ns: u64) {
        (**self).on_op(op, ns);
    }
}

/// An observer that may be absent at runtime. `None` still pays the
/// (branch-only) enabled path; use [`NoopObserver`] when absence is known
/// at compile time.
impl<D, O: PackObserver<D>> PackObserver<D> for Option<O> {
    const ENABLED: bool = O::ENABLED;
    #[inline(always)]
    fn on_event(&mut self, event: &PackEvent<D>) {
        if let Some(o) = self {
            o.on_event(event);
        }
    }
    #[inline(always)]
    fn wants_timing(&mut self) -> bool {
        match self {
            Some(o) => o.wants_timing(),
            None => false,
        }
    }
    #[inline(always)]
    fn on_op(&mut self, op: OpKind, ns: u64) {
        if let Some(o) = self {
            o.on_op(op, ns);
        }
    }
}

/// Fans events out to two observers in order. Nest for more:
/// `Tee(a, Tee(b, c))`. An arrival either side asks to time is timed,
/// and both sides' [`PackObserver::on_op`] see it, so tee at most one
/// sampler with observers that keep the default (which ignore ops).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<D, A: PackObserver<D>, B: PackObserver<D>> PackObserver<D> for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    #[inline(always)]
    fn on_event(&mut self, event: &PackEvent<D>) {
        self.0.on_event(event);
        self.1.on_event(event);
    }
    #[inline(always)]
    fn wants_timing(&mut self) -> bool {
        // Both sides must be asked so stateful samplers tick in lockstep;
        // `|` (not `||`) keeps the second call from being short-circuited.
        self.0.wants_timing() | self.1.wants_timing()
    }
    #[inline(always)]
    fn on_op(&mut self, op: OpKind, ns: u64) {
        self.0.on_op(op, ns);
        self.1.on_op(op, ns);
    }
}

/// Collects every event into a `Vec` — the simplest real observer, used
/// by tests and by in-memory consumers (replay cross-checks).
#[derive(Clone, Debug)]
pub struct EventLog<D = Size> {
    /// The recorded events, in emission order.
    pub events: Vec<PackEvent<D>>,
}

impl<D> Default for EventLog<D> {
    fn default() -> Self {
        EventLog { events: Vec::new() }
    }
}

impl<D> EventLog<D> {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<D: Clone> PackObserver<D> for EventLog<D> {
    fn on_event(&mut self, event: &PackEvent<D>) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_forwarding_preserves_enabled() {
        // Read through a fn so the checks exercise the associated consts
        // as values (clippy rejects assert! on bare constants).
        fn enabled<O: PackObserver>() -> bool {
            O::ENABLED
        }
        assert!(!enabled::<NoopObserver>());
        assert!(!enabled::<&mut NoopObserver>());
        assert!(enabled::<EventLog>());
        assert!(enabled::<&mut EventLog>());
        assert!(enabled::<Tee<NoopObserver, EventLog>>());
        assert!(!enabled::<Tee<NoopObserver, NoopObserver>>());
        assert!(enabled::<Option<EventLog>>());
    }

    #[test]
    fn timing_hooks_forward_and_tick_samplers() {
        /// Times every other arrival and records op durations.
        #[derive(Default)]
        struct Sampler {
            tick: u64,
            ops: Vec<(OpKind, u64)>,
        }
        impl PackObserver for Sampler {
            fn on_event(&mut self, _: &PackEvent) {}
            fn wants_timing(&mut self) -> bool {
                self.tick += 1;
                self.tick % 2 == 1
            }
            fn on_op(&mut self, op: OpKind, ns: u64) {
                self.ops.push((op, ns));
            }
        }

        assert!(!PackObserver::<Size>::wants_timing(&mut NoopObserver));
        assert!(
            !EventLog::<Size>::new().wants_timing(),
            "the default declines timing"
        );
        let mut none: Option<Sampler> = None;
        assert!(!none.wants_timing(), "absent observer declines timing");

        // Tee must tick *both* samplers even when the first already said
        // yes, or nested samplers would drift out of lockstep.
        let mut tee = Tee(Sampler::default(), Sampler::default());
        assert!(tee.wants_timing());
        assert!(!tee.wants_timing());
        assert_eq!((tee.0.tick, tee.1.tick), (2, 2));
        tee.on_op(OpKind::Finish, 42);
        assert_eq!(tee.0.ops, vec![(OpKind::Finish, 42)]);
        assert_eq!(tee.1.ops, vec![(OpKind::Finish, 42)]);

        let mut s = Sampler::default();
        let borrowed = &mut s;
        assert!(borrowed.wants_timing());
        borrowed.on_op(OpKind::Departures, 7);
        assert_eq!(s.ops, vec![(OpKind::Departures, 7)]);
    }

    #[test]
    fn tee_delivers_to_both() {
        let ev: PackEvent = PackEvent::BinOpened {
            bin: BinId(0),
            at: 3,
            tag: 7,
        };
        let mut tee = Tee(EventLog::new(), EventLog::new());
        tee.on_event(&ev);
        assert_eq!(tee.0.events, vec![ev.clone()]);
        assert_eq!(tee.1.events, vec![ev]);
    }

    #[test]
    fn option_observer_forwards_when_present() {
        let ev = PackEvent::BinClosed {
            bin: BinId(1),
            at: 9,
            opened_at: 2,
            items: 4,
        };
        let mut none: Option<EventLog> = None;
        none.on_event(&ev); // no-op, no panic
        let mut some = Some(EventLog::new());
        some.on_event(&ev);
        assert_eq!(some.unwrap().events.len(), 1);
    }
}
