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
    /// Absolute dynamic step of the event.  Equal to `index` for full-scope
    /// traces; differs by the `base_step` offset for window-scoped traces.
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

    /// True if the event reads the given interned id.
    pub fn reads_id(&self, id: LocationId) -> bool {
        self.reads.iter().any(|&(r, _)| r == id)
    }
}

/// End-of-walk summary handed to [`TraceVisitor::on_finish`].
#[derive(Debug, Clone, Copy)]
pub struct WalkEnd<'a> {
    /// Number of events the walk delivered.
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
    /// given order), then deliver [`TraceVisitor::on_finish`] to each.
    pub fn run(&self, visitors: &mut [&mut dyn TraceVisitor]) {
        let trace = self.trace;
        let locations = trace.locations();
        // Per-operand delivery is opt-in and constant per visitor: query it
        // once instead of once per event.
        let wants_reads: Vec<bool> = visitors.iter().map(|v| v.wants_operand_reads()).collect();
        for (index, event) in trace.events.iter().enumerate() {
            let ctx = EventCtx {
                index,
                step: trace.step_of(index),
                event,
                reads: trace.reads_of(event),
                locations,
            };
            for (v, &wants) in visitors.iter_mut().zip(&wants_reads) {
                v.on_event(&ctx);
                if wants {
                    for (nth, &(id, value)) in ctx.reads.iter().enumerate() {
                        v.on_operand_read(&ctx, nth, id, value);
                    }
                }
            }
        }
        let end = WalkEnd {
            events: trace.len(),
            locations,
            outcome: None,
        };
        for v in visitors.iter_mut() {
            v.on_finish(&end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::{BinKind, FunctionId, ValueId};
    use crate::trace::{EventKind, ResolvedEvent};

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
    fn ctx_resolves_locations_and_writes() {
        let t = Trace::from_resolved(vec![ev(Some(Location::mem(3)), Some(Location::mem(4)))]);
        struct Check;
        impl TraceVisitor for Check {
            fn on_event(&mut self, ctx: &EventCtx<'_>) {
                assert_eq!(ctx.written_location(), Some(Location::mem(4)));
                let (id, _) = ctx.reads[0];
                assert_eq!(ctx.location(id), Location::mem(3));
                assert!(ctx.reads_id(id));
            }
            fn on_finish(&mut self, end: &WalkEnd<'_>) {
                assert!(end.outcome.is_none());
            }
        }
        EventCursor::new(&t).run(&mut [&mut Check]);
    }
}
