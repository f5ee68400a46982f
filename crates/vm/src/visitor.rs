//! Streaming trace visitors: consume dynamic events once, as a stream.
//!
//! FlipTracker's per-injection analyses (ACL taint tracking, the six
//! resilience-pattern detectors, DDDG construction, outcome classification)
//! all consume the same event stream, yet historically each of them performed
//! its own full walk over a materialized [`Trace`].  A [`TraceVisitor`] turns
//! an analysis into a push-style consumer; any set of visitors can then be
//! driven over the events **once**, from either of two sources:
//!
//! * [`EventCursor`] walks a materialized [`Trace`] and feeds every event to
//!   every visitor in one fused pass — one trace walk no matter how many
//!   analyses ride along;
//! * [`crate::Vm::run_with_visitors_decoded`] feeds events straight from the
//!   interpreter as they execute, *without materializing a trace at all*:
//!   the run keeps only the interned location table and the reads of the
//!   event in flight, so campaign executors can classify outcomes and detect patterns
//!   in O(locations) memory instead of O(events).
//!
//! Both sources present events identically (same [`EventCtx`] fields, same
//! ordering), which is what lets the workspace property tests prove that the
//! fused/streaming analyses are bit-identical to the legacy multi-pass ones.
//!
//! # Visitor sets
//!
//! Both sources take the visitors as a [`VisitorSet`]: a slice or an array
//! of `&mut T` references.  The set's element type decides the dispatch.
//! `&mut [&mut detector]` is an array of one concrete visitor, so the
//! driver is compiled for that type and every callback is a direct,
//! inlinable call.  A heterogeneous set is a slice of
//! `&mut dyn TraceVisitor` and pays one virtual call per callback.
//!
//! # Settled visitors
//!
//! A visitor is [settled](TraceVisitor::settled) once no later event can
//! change what it reports.  When every visitor of a non-empty set is
//! settled, the walk stops delivering events: the interpreter runs the rest
//! of the program without recording, never to record again, and an
//! [`EventCursor`] stops walking.  The run itself is
//! unchanged — same outcome, steps and outputs — and every visitor still
//! gets [`TraceVisitor::on_finish`] with the real outcome.  After such a
//! detach, [`WalkEnd::events`] stops at the detach point instead of the end
//! of the event stream.
//!
//! # Watches
//!
//! Most events of an injection's run cannot change what a taint-driven
//! analysis reports: they read and write clean locations.  A visitor may
//! publish a [`Watch`] ([`TraceVisitor::watch`]), the set of events it must
//! see, and a live interpreter streaming to a one-visitor set delivers only
//! those.  Every other event is still executed and interned (event indices
//! and location ids stay those of a full delivery), but no [`TraceEvent`] or
//! [`EventCtx`] is built for it and no visitor callback runs, except that a
//! skipped `Load` reports its memory cell to
//! [`TraceVisitor::on_skipped_load`].  The watch is read again before every
//! event, so it follows the visitor's state as the run goes.
//!
//! The contract a watching visitor keeps: **an event its watch does not
//! want must leave its observable state unchanged**, save what
//! [`TraceVisitor::on_skipped_load`] records for a skipped load.  Delivering
//! more events than the watch asks for is always safe, so sets of several
//! visitors, visitors without a watch and [`EventCursor`] walks deliver
//! every event.  A visitor that counts events must take the count from
//! indices ([`EventCtx::index`], [`WalkEnd::events`]), not from the number
//! of calls.  Skipping never settles a set: [`TraceVisitor::settled`] is
//! read only after a delivered event.
//!
//! The pattern detector's watch (`ftkr_patterns::StreamingDetector`) is the
//! mirror of its own quiet-event test: an event is quiet when it comes after
//! the fault, reads and writes no tainted location, writes no cell a
//! Repeated-Additions chain follows, interns no location the detector's
//! tables do not cover yet, and no memory seed is pending.  A quiet event,
//! like any event before the fault that interns nothing new, only refreshes
//! the detector's last-load table, which is exactly what a skipped load
//! reports.

use crate::interp::RunOutcome;
use crate::location::Location;
use crate::trace::{LocationId, Trace, TraceEvent};
use crate::value::Value;

/// One dynamic event as seen by a visitor, with everything resolved against
/// the (possibly transient) location table of the producing run.
#[derive(Debug, Clone, Copy)]
pub struct EventCtx<'a> {
    /// Index of the event within the walk (0-based, dense).  For a full
    /// materialized trace this equals the index into `Trace::events`.
    pub index: usize,
    /// Absolute dynamic step of the event.  Equal to `index`, except in a
    /// walk of a snapshot-resumed trace, where it is offset by the trace's
    /// `base_step`.
    pub step: u64,
    /// The compact event.
    pub event: &'a TraceEvent,
    /// The event's operand reads, `(interned id, value observed)`.
    pub reads: &'a [(LocationId, Value)],
    /// The location table interned so far; `LocationId(i)` names entry `i`.
    /// Grows monotonically over a walk, so ids resolved early stay valid.
    pub locations: &'a [Location],
}

impl EventCtx<'_> {
    /// Resolve an interned id to its full location.
    pub fn location(&self, id: LocationId) -> Location {
        self.locations[id.index()]
    }

    /// The location written by the event, resolved, if any.
    pub fn written_location(&self) -> Option<Location> {
        self.event.write.map(|(id, _)| self.location(id))
    }
}

/// The events a visitor must see: published by [`TraceVisitor::watch`] and
/// read by a live interpreter before each event (see the
/// [module docs](self#watches)).
///
/// An event is wanted when any of these holds: [`Watch::all`]; its index is
/// [`Watch::strike`]; the location table has grown past [`Watch::known`];
/// it reads or writes a location set in [`Watch::tainted`]; or it writes a
/// location with an entry in [`Watch::chains`].
#[derive(Debug, Clone, Copy)]
pub struct Watch<'a> {
    /// Bitset over location ids, bit `i % 64` of word `i / 64`.  Ids past
    /// its end are clear.
    pub tainted: &'a [u64],
    /// Per location id: [`Watch::NO_CHAIN`] unless writes to it are
    /// wanted.  Ids past its end are not watched.
    pub chains: &'a [u32],
    /// The event index that is always wanted (where a fault strikes).
    pub strike: u64,
    /// How many locations the visitor's tables cover.  An event seen while
    /// the location table is longer is wanted, so the visitor can grow them.
    pub known: usize,
    /// Want every event.
    pub all: bool,
}

impl Watch<'_> {
    /// The [`Watch::chains`] entry of a location whose writes are not
    /// watched.
    pub const NO_CHAIN: u32 = u32::MAX;

    /// True when event `index`, with operand reads `reads` and written
    /// location `write`, must be delivered; `nlocs` is the length of the
    /// location table after the event's locations were interned.
    #[inline]
    pub fn wants(
        &self,
        index: usize,
        reads: &[(LocationId, Value)],
        write: Option<LocationId>,
        nlocs: usize,
    ) -> bool {
        if self.all || index as u64 == self.strike || nlocs > self.known {
            return true;
        }
        let tainted = |id: LocationId| {
            let i = id.index();
            self.tainted
                .get(i / 64)
                .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
        };
        if !self.tainted.is_empty()
            && (reads.iter().any(|&(id, _)| tainted(id)) || write.is_some_and(tainted))
        {
            return true;
        }
        write.is_some_and(|w| {
            self.chains
                .get(w.index())
                .is_some_and(|&c| c != Watch::NO_CHAIN)
        })
    }
}

/// End-of-walk summary handed to [`TraceVisitor::on_finish`].
#[derive(Debug, Clone, Copy)]
pub struct WalkEnd<'a> {
    /// One past the index of the last recorded event: the events delivered
    /// or skipped by a [watch](TraceVisitor::watch), plus the snapshot's
    /// prefix for a resumed run.  It equals the length of the event stream
    /// unless the set settled and the walk detached early (see
    /// [`TraceVisitor::settled`]).
    pub events: usize,
    /// The final location table of the walk.
    pub locations: &'a [Location],
    /// How the run ended — `Some` when the walk streamed from a live
    /// interpreter ([`crate::Vm::run_with_visitors_decoded`]), `None` when it
    /// walked an already-materialized trace.
    pub outcome: Option<RunOutcome>,
}

/// A push-style consumer of dynamic trace events.
///
/// Implementations are driven by an [`EventCursor`] (materialized trace) or
/// by the interpreter itself ([`crate::Vm::run_with_visitors_decoded`]); they
/// must not assume the events are retained anywhere after the callback
/// returns.
pub trait TraceVisitor {
    /// One dynamic event, in execution order.
    fn on_event(&mut self, ctx: &EventCtx<'_>);

    /// One operand read of the current event (called after
    /// [`TraceVisitor::on_event`], once per read, in operand order) — only
    /// delivered when [`TraceVisitor::wants_operand_reads`] returns true, so
    /// visitors that consume `ctx.reads` wholesale pay nothing for it.
    #[allow(unused_variables)]
    fn on_operand_read(&mut self, ctx: &EventCtx<'_>, nth: usize, id: LocationId, value: Value) {}

    /// The walk ended (trace exhausted, or the streamed run completed or
    /// trapped).
    fn on_finish(&mut self, end: &WalkEnd<'_>);

    /// Opt into per-operand [`TraceVisitor::on_operand_read`] callbacks.
    fn wants_operand_reads(&self) -> bool {
        false
    }

    /// True once no later event can change what this visitor reports.
    ///
    /// When every visitor of a set is settled, the walk stops delivering
    /// events (see the [module docs](self)); [`TraceVisitor::on_finish`]
    /// still follows, with the real outcome.  A visitor that settles after
    /// its k-th event receives exactly k events.  The default never settles.
    fn settled(&self) -> bool {
        false
    }

    /// The events this visitor must see, or `None` (the default) for every
    /// event.  A live interpreter streaming to this visitor alone skips the
    /// events the watch does not want; see the [module docs](self#watches)
    /// for the contract this puts on the visitor.
    fn watch(&self) -> Option<Watch<'_>> {
        None
    }

    /// A `Load` the [watch](TraceVisitor::watch) did not want: event
    /// `index` loaded memory cell `cell`.  The only callback a skipped
    /// event gets.
    #[allow(unused_variables)]
    fn on_skipped_load(&mut self, index: usize, cell: LocationId) {}
}

/// A set of visitors driven together over one event stream.
///
/// Implemented for slices and arrays of `&mut T`; see the
/// [module docs](self) for how the element type decides the dispatch.
pub trait VisitorSet {
    /// Deliver one event to every visitor, in order: its
    /// [`TraceVisitor::on_event`], then its operand reads if it
    /// [wants them](TraceVisitor::wants_operand_reads).
    fn visit(&mut self, ctx: &EventCtx<'_>);

    /// Deliver [`TraceVisitor::on_finish`] to every visitor, in order.
    fn finish(&mut self, end: &WalkEnd<'_>);

    /// True when the set is non-empty and every visitor is
    /// [settled](TraceVisitor::settled).  An empty set never settles: it
    /// is how recording runs that feed no visitor stream their events.
    fn settled(&self) -> bool;

    /// The [watch](TraceVisitor::watch) of a one-visitor set; `None`, so
    /// every event is delivered, for any other set.
    fn watch(&self) -> Option<Watch<'_>>;

    /// Deliver [`TraceVisitor::on_skipped_load`] to every visitor.
    fn skipped_load(&mut self, index: usize, cell: LocationId);
}

impl<T: TraceVisitor + ?Sized> VisitorSet for [&mut T] {
    #[inline]
    fn visit(&mut self, ctx: &EventCtx<'_>) {
        for v in self.iter_mut() {
            v.on_event(ctx);
            if v.wants_operand_reads() {
                for (nth, &(id, value)) in ctx.reads.iter().enumerate() {
                    v.on_operand_read(ctx, nth, id, value);
                }
            }
        }
    }

    fn finish(&mut self, end: &WalkEnd<'_>) {
        for v in self.iter_mut() {
            v.on_finish(end);
        }
    }

    #[inline]
    fn settled(&self) -> bool {
        !self.is_empty() && self.iter().all(|v| v.settled())
    }

    #[inline]
    fn watch(&self) -> Option<Watch<'_>> {
        match self {
            [only] => only.watch(),
            _ => None,
        }
    }

    #[inline]
    fn skipped_load(&mut self, index: usize, cell: LocationId) {
        for v in self.iter_mut() {
            v.on_skipped_load(index, cell);
        }
    }
}

impl<T: TraceVisitor + ?Sized, const N: usize> VisitorSet for [&mut T; N] {
    #[inline]
    fn visit(&mut self, ctx: &EventCtx<'_>) {
        self.as_mut_slice().visit(ctx);
    }

    fn finish(&mut self, end: &WalkEnd<'_>) {
        self.as_mut_slice().finish(end);
    }

    #[inline]
    fn settled(&self) -> bool {
        self.as_slice().settled()
    }

    #[inline]
    fn watch(&self) -> Option<Watch<'_>> {
        self.as_slice().watch()
    }

    #[inline]
    fn skipped_load(&mut self, index: usize, cell: LocationId) {
        self.as_mut_slice().skipped_load(index, cell);
    }
}

/// Drives any set of visitors over a materialized [`Trace`] in one fused
/// walk — the single-pass replacement for running one full trace scan per
/// analysis.
#[derive(Debug, Clone, Copy)]
pub struct EventCursor<'t> {
    trace: &'t Trace,
}

impl<'t> EventCursor<'t> {
    /// A cursor over the whole trace.
    pub fn new(trace: &'t Trace) -> Self {
        EventCursor { trace }
    }

    /// Walk the trace once, feeding every event to every visitor (in the
    /// given order), then deliver [`TraceVisitor::on_finish`] to each.  The
    /// walk stops early once the whole set is
    /// [settled](TraceVisitor::settled).
    pub fn run<V: VisitorSet + ?Sized>(&self, visitors: &mut V) {
        let trace = self.trace;
        let locations = trace.locations();
        let mut delivered = 0;
        for (index, event) in trace.events.iter().enumerate() {
            if visitors.settled() {
                break;
            }
            visitors.visit(&EventCtx {
                index,
                step: trace.step_of(index),
                event,
                reads: trace.reads_of(event),
                locations,
            });
            delivered = index + 1;
        }
        visitors.finish(&WalkEnd {
            events: delivered,
            locations,
            outcome: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, ResolvedEvent};
    use ftkr_ir::{BinKind, FunctionId, ValueId};

    struct Collect {
        events: Vec<(usize, u64)>,
        reads: Vec<(usize, LocationId)>,
        finished: Option<usize>,
    }

    impl TraceVisitor for Collect {
        fn on_event(&mut self, ctx: &EventCtx<'_>) {
            self.events.push((ctx.index, ctx.step));
        }
        fn on_operand_read(&mut self, ctx: &EventCtx<'_>, _n: usize, id: LocationId, _v: Value) {
            self.reads.push((ctx.index, id));
        }
        fn on_finish(&mut self, end: &WalkEnd<'_>) {
            self.finished = Some(end.events);
        }
        fn wants_operand_reads(&self) -> bool {
            true
        }
    }

    fn ev(read: Option<Location>, write: Option<Location>) -> ResolvedEvent {
        ResolvedEvent {
            func: FunctionId(0),
            frame: 0,
            inst: ValueId(0),
            line: 1,
            kind: EventKind::Bin(BinKind::FAdd),
            reads: read.into_iter().map(|l| (l, Value::F(1.0))).collect(),
            write: write.map(|l| (l, Value::F(2.0))),
        }
    }

    #[test]
    fn cursor_delivers_every_event_then_finish() {
        let t = Trace::from_resolved(vec![
            ev(None, Some(Location::mem(0))),
            ev(Some(Location::mem(0)), Some(Location::mem(1))),
        ]);
        let mut c = Collect {
            events: vec![],
            reads: vec![],
            finished: None,
        };
        EventCursor::new(&t).run(&mut [&mut c]);
        assert_eq!(c.events, vec![(0, 0), (1, 1)]);
        assert_eq!(c.reads.len(), 1);
        assert_eq!(c.finished, Some(2));
    }

    #[test]
    fn cursor_stops_once_every_visitor_is_settled() {
        let t = Trace::from_resolved(
            (0..5)
                .map(|i| ev(Some(Location::mem(i)), Some(Location::mem(i + 1))))
                .collect::<Vec<_>>(),
        );
        struct SettleAfter(usize, Collect);
        impl TraceVisitor for SettleAfter {
            fn on_event(&mut self, ctx: &EventCtx<'_>) {
                self.1.on_event(ctx);
            }
            fn on_finish(&mut self, end: &WalkEnd<'_>) {
                self.1.on_finish(end);
            }
            fn settled(&self) -> bool {
                self.1.events.len() >= self.0
            }
        }
        let collect = || Collect {
            events: vec![],
            reads: vec![],
            finished: None,
        };
        for k in 0..=6 {
            let mut v = SettleAfter(k, collect());
            EventCursor::new(&t).run(&mut [&mut v]);
            assert_eq!(v.1.events.len(), k.min(5));
            assert_eq!(v.1.finished, Some(k.min(5)));
        }
        // A set detaches only when every member is settled.
        let mut early = SettleAfter(1, collect());
        let mut never = collect();
        let mut set: [&mut dyn TraceVisitor; 2] = [&mut early, &mut never];
        EventCursor::new(&t).run(&mut set);
        assert_eq!(never.events.len(), 5);
        assert_eq!(early.1.events.len(), 5);
    }

    #[test]
    fn ctx_resolves_locations_and_writes() {
        let t = Trace::from_resolved(vec![ev(Some(Location::mem(3)), Some(Location::mem(4)))]);
        struct Check;
        impl TraceVisitor for Check {
            fn on_event(&mut self, ctx: &EventCtx<'_>) {
                assert_eq!(ctx.written_location(), Some(Location::mem(4)));
                let (id, _) = ctx.reads[0];
                assert_eq!(ctx.location(id), Location::mem(3));
            }
            fn on_finish(&mut self, end: &WalkEnd<'_>) {
                assert!(end.outcome.is_none());
            }
        }
        EventCursor::new(&t).run(&mut [&mut Check]);
    }
}
