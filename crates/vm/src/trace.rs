//! Dynamic instruction traces — compact, structure-of-arrays layout.
//!
//! A [`Trace`] is the central artifact of FlipTracker: every analysis
//! (code-region partitioning, DDDG construction, ACL tables, pattern
//! detection) consumes it.  Each [`TraceEvent`] records what the original
//! LLVM-Tracer stores per instruction — instruction identity, source line,
//! operand locations and values, and the location/value written — plus the
//! loop markers that drive the paper's code-region model.
//!
//! # Compact layout
//!
//! Traces routinely hold millions of events, so the representation is tuned
//! for bulk construction and scanning rather than per-event convenience:
//!
//! * every [`Location`] that appears in a trace is *interned* once and
//!   referred to by a dense [`LocationId`] (a `u32`), so events carry 4-byte
//!   ids instead of 24-byte `Location` enums and analyses can replace hash
//!   maps keyed by `Location` with flat vectors indexed by id;
//! * operand reads live in one shared *operand pool* owned by the trace; an
//!   event stores a `(offset, len)` [`ReadSpan`] into that pool instead of
//!   owning a per-event `Vec`, so recording a trace performs O(1) vector
//!   allocations instead of one per dynamic instruction.
//!
//! [`EventView`] and [`TraceSlice`] resolve ids back to full [`Location`]s
//! for consumers that need them; [`ResolvedEvent`] and [`TraceBuilder`]
//! provide the location-based construction API used by tests and tools.

use serde::{Deserialize, Serialize};

use ftkr_ir::{BinKind, CastKind, CmpKind, FunctionId, LoopId, LoopKind, OutputFormat, ValueId};

use crate::location::Location;
use crate::value::Value;

/// Dense index of an interned [`Location`] within one [`Trace`].
///
/// Ids are only meaningful relative to the trace that interned them: the same
/// location generally receives different ids in the clean and the faulty
/// trace of one injection experiment.  Resolve with [`Trace::location`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LocationId(pub u32);

impl LocationId {
    /// The raw index into the trace's location table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LocationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Span of one event's operand reads inside the trace's shared operand pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadSpan {
    /// First pool entry belonging to the event.
    pub offset: u32,
    /// Number of pool entries.
    pub len: u32,
}

impl ReadSpan {
    /// Empty span (no operands read).
    pub fn empty() -> Self {
        ReadSpan::default()
    }

    /// The pool range covered by the span.
    pub fn range(self) -> std::ops::Range<usize> {
        let start = self.offset as usize;
        start..start + self.len as usize
    }
}

/// Dynamic classification of an executed instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// Binary arithmetic/logical operation.
    Bin(BinKind),
    /// Comparison; `taken` is the boolean result.
    Cmp {
        /// Predicate.
        kind: CmpKind,
        /// Floating comparison?
        float: bool,
        /// Result of the comparison.
        result: bool,
    },
    /// Conversion.
    Cast(CastKind),
    /// Branch-free select.
    Select,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Stack allocation; `base`/`size` give the cells it created.
    Alloca {
        /// First cell of the allocation.
        base: u64,
        /// Number of cells.
        size: u64,
    },
    /// Pointer arithmetic.
    Gep,
    /// Call to another function of the module.
    Call {
        /// Callee function.
        callee: FunctionId,
    },
    /// Math intrinsic call.
    Intrinsic,
    /// Function return.
    Ret,
    /// Unconditional branch.
    Br,
    /// Conditional branch; `taken` tells which way it went (control-flow
    /// divergence between faulty and fault-free runs is detected from this).
    CondBr {
        /// True if the "then" target was taken.
        taken: bool,
    },
    /// Program output (printf model).
    Output {
        /// Formatting applied.
        format: OutputFormat,
    },
    /// Entry into a loop (one per loop execution, not per iteration).
    LoopBegin {
        /// Static loop id.
        id: LoopId,
        /// Static nesting depth.
        depth: u32,
        /// Loop classification.
        kind: LoopKind,
    },
    /// Exit from a loop.
    LoopEnd {
        /// Static loop id.
        id: LoopId,
    },
    /// Start of one loop iteration.
    LoopIter {
        /// Static loop id.
        id: LoopId,
    },
    /// No-op.
    Nop,
}

impl EventKind {
    /// True for the loop marker events.
    pub fn is_marker(&self) -> bool {
        matches!(
            self,
            EventKind::LoopBegin { .. } | EventKind::LoopEnd { .. } | EventKind::LoopIter { .. }
        )
    }
}

/// One executed instruction, in the compact encoding.
///
/// Operand reads are stored as a [`ReadSpan`] into the owning trace's operand
/// pool ([`Trace::reads_of`] resolves it); the written location is a dense
/// [`LocationId`] ([`Trace::location`] resolves it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Function the instruction belongs to.
    pub func: FunctionId,
    /// Dynamic invocation number of that function (frame id).
    pub frame: u32,
    /// Static instruction id within the function.
    pub inst: ValueId,
    /// Source line recorded for the instruction.
    pub line: u32,
    /// Dynamic classification.
    pub kind: EventKind,
    /// Span of operand reads inside the trace's operand pool.
    pub reads: ReadSpan,
    /// Location written (register defined or memory cell stored) and the
    /// value written, if any.
    pub write: Option<(LocationId, Value)>,
}

impl TraceEvent {
    /// The value written, if any.
    pub fn written_value(&self) -> Option<Value> {
        self.write.map(|(_, v)| v)
    }

    /// The id of the location written, if any (resolve with
    /// [`Trace::location`]).
    pub fn written_id(&self) -> Option<LocationId> {
        self.write.map(|(l, _)| l)
    }
}

/// One executed instruction with every location fully resolved — the
/// construction and inspection form of [`TraceEvent`], used by tests, tools
/// and the retained reference implementations.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedEvent {
    /// Function the instruction belongs to.
    pub func: FunctionId,
    /// Dynamic invocation number of that function (frame id).
    pub frame: u32,
    /// Static instruction id within the function.
    pub inst: ValueId,
    /// Source line recorded for the instruction.
    pub line: u32,
    /// Dynamic classification.
    pub kind: EventKind,
    /// Locations read by the instruction together with the values observed.
    pub reads: Vec<(Location, Value)>,
    /// Location and value written, if any.
    pub write: Option<(Location, Value)>,
}

/// A dynamic instruction trace (optionally produced by a run).
///
/// `events` is public for indexed access; the operand pool and the location
/// table are reached through [`Trace::reads_of`], [`Trace::location`] and
/// friends so their invariants (spans in bounds, ids dense) hold by
/// construction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Executed instructions, in order.
    pub events: Vec<TraceEvent>,
    /// Shared operand pool; each event's `reads` span indexes into it.
    pub(crate) pool: Vec<(LocationId, Value)>,
    /// Interned locations; `LocationId(i)` names `locations[i]`.
    pub(crate) locations: Vec<Location>,
    /// Dynamic step of the first recorded event (non-zero for traces of
    /// snapshot-resumed runs, which record only the resumed steps).
    pub(crate) base_step: u64,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Empty trace with pre-sized buffers: `events` capacity for the event
    /// vector and `operands` for the shared read pool.  Recording into a
    /// pre-sized trace performs no reallocation as long as the estimates
    /// hold, which is what makes tracing runs allocate O(1) vectors.
    pub fn with_capacity(events: usize, operands: usize) -> Self {
        Trace {
            events: Vec::with_capacity(events),
            pool: Vec::with_capacity(operands),
            locations: Vec::with_capacity(events / 2 + 16),
            base_step: 0,
        }
    }

    /// Number of dynamic instructions (including marker events).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no instruction was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Approximate heap footprint of the recorded trace in bytes (events,
    /// operand pool, location table).  An estimate over the inline
    /// struct sizes — good enough for cache byte-budget accounting, not an
    /// allocator-exact measurement.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.events.len() * size_of::<TraceEvent>()
            + self.pool.len() * size_of::<(LocationId, Value)>()
            + self.locations.len() * size_of::<Location>()
    }

    /// Dynamic step of the first recorded event: 0 for cold runs, the fork
    /// point for runs resumed from a snapshot.
    pub fn base_step(&self) -> u64 {
        self.base_step
    }

    /// Absolute dynamic step of the event at `idx`.
    pub fn step_of(&self, idx: usize) -> u64 {
        self.base_step + idx as u64
    }

    /// Number of distinct locations the trace touched (the id space is
    /// `0..num_locations()`, dense).
    pub fn num_locations(&self) -> usize {
        self.locations.len()
    }

    /// The interned location table (`LocationId(i)` names entry `i`).
    pub fn locations(&self) -> &[Location] {
        &self.locations
    }

    /// Resolve an interned id back to the full location.
    pub fn location(&self, id: LocationId) -> Location {
        self.locations[id.index()]
    }

    /// Find the id of a location, if the trace ever touched it.  Linear scan
    /// over the location table — fine for seeds and tests; hot paths should
    /// carry ids instead.
    pub fn location_id(&self, loc: &Location) -> Option<LocationId> {
        self.locations
            .iter()
            .position(|l| l == loc)
            .map(|i| LocationId(i as u32))
    }

    /// The `(id, value)` operand reads of an event.
    pub fn reads_of(&self, event: &TraceEvent) -> &[(LocationId, Value)] {
        &self.pool[event.reads.range()]
    }

    /// A resolved view of the event at `idx`.
    pub fn view(&self, idx: usize) -> EventView<'_> {
        EventView { trace: self, idx }
    }

    /// A borrowed sub-range of the trace (used for region instances).
    pub fn slice(&self, start: usize, end: usize) -> TraceSlice<'_> {
        let end = end.min(self.events.len());
        TraceSlice {
            trace: self,
            start: start.min(end),
            end,
        }
    }

    /// The whole trace as a slice.
    pub fn full(&self) -> TraceSlice<'_> {
        self.slice(0, self.events.len())
    }

    /// Iterate over `(dynamic index, event)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &TraceEvent)> {
        self.events.iter().enumerate()
    }

    /// Reconstruct the fully resolved form of the event at `idx`.
    pub fn resolved(&self, idx: usize) -> ResolvedEvent {
        let e = &self.events[idx];
        ResolvedEvent {
            func: e.func,
            frame: e.frame,
            inst: e.inst,
            line: e.line,
            kind: e.kind.clone(),
            reads: self
                .reads_of(e)
                .iter()
                .map(|&(id, v)| (self.location(id), v))
                .collect(),
            write: e.write.map(|(id, v)| (self.location(id), v)),
        }
    }

    /// Build a trace from resolved events (test/tool construction path; the
    /// interpreter records compact events directly).
    pub fn from_resolved(events: impl IntoIterator<Item = ResolvedEvent>) -> Trace {
        let mut b = TraceBuilder::new();
        for e in events {
            b.push(e);
        }
        b.finish()
    }
}

/// A resolved, copyable view of one event: the compact fields plus id →
/// [`Location`] resolution against the owning trace.
#[derive(Debug, Clone, Copy)]
pub struct EventView<'a> {
    trace: &'a Trace,
    idx: usize,
}

impl<'a> EventView<'a> {
    /// The compact event.
    pub fn event(&self) -> &'a TraceEvent {
        &self.trace.events[self.idx]
    }

    /// The owning trace.
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// Dynamic index within the owning trace.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// The `(id, value)` operand reads.
    pub fn read_ids(&self) -> &'a [(LocationId, Value)] {
        self.trace.reads_of(self.event())
    }

    /// The operand reads with locations resolved.
    pub fn reads(&self) -> impl Iterator<Item = (Location, Value)> + 'a {
        let trace = self.trace;
        self.read_ids()
            .iter()
            .map(move |&(id, v)| (trace.location(id), v))
    }

    /// The location and value written, resolved, if any.
    pub fn write(&self) -> Option<(Location, Value)> {
        self.event()
            .write
            .map(|(id, v)| (self.trace.location(id), v))
    }

    /// The location written, resolved, if any.
    pub fn written_location(&self) -> Option<Location> {
        self.write().map(|(l, _)| l)
    }
}

/// A borrowed contiguous range of a trace — the unit the code-region model
/// hands to per-region analyses (DDDG construction, instruction counts).
/// Splitting never copies events, mirroring the paper's observation that
/// trace splitting is what keeps per-region analysis tractable.
#[derive(Debug, Clone, Copy)]
pub struct TraceSlice<'a> {
    trace: &'a Trace,
    start: usize,
    end: usize,
}

impl<'a> TraceSlice<'a> {
    /// The underlying trace.
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// First event index (inclusive, in trace coordinates).
    pub fn start(&self) -> usize {
        self.start
    }

    /// Past-the-end event index (in trace coordinates).
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of events covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the slice covers no events.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// The covered compact events.
    pub fn events(&self) -> &'a [TraceEvent] {
        &self.trace.events[self.start..self.end]
    }

    /// Resolved view of the `rel`-th event of the slice.
    pub fn view(&self, rel: usize) -> EventView<'a> {
        self.trace.view(self.start + rel)
    }

    /// Iterate over `(relative index, resolved view)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, EventView<'a>)> + 'a {
        let trace = self.trace;
        let start = self.start;
        (start..self.end).map(move |idx| (idx - start, EventView { trace, idx }))
    }
}

/// Incremental construction of a [`Trace`] from resolved events, interning
/// locations through a hash map (the interpreter uses a faster dense scheme
/// internally; this builder is the general-purpose path).
#[derive(Debug, Default)]
pub struct TraceBuilder {
    trace: Trace,
    index: std::collections::HashMap<Location, LocationId>,
}

impl TraceBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Intern a location, returning its dense id.
    pub fn intern(&mut self, loc: Location) -> LocationId {
        if let Some(&id) = self.index.get(&loc) {
            return id;
        }
        let id = LocationId(u32::try_from(self.trace.locations.len()).expect("≤ 2^32 locations"));
        self.trace.locations.push(loc);
        self.index.insert(loc, id);
        id
    }

    /// Append one resolved event.
    pub fn push(&mut self, e: ResolvedEvent) {
        let offset = u32::try_from(self.trace.pool.len()).expect("≤ 2^32 operand reads");
        for (loc, v) in &e.reads {
            let id = self.intern(*loc);
            self.trace.pool.push((id, *v));
        }
        let reads = ReadSpan {
            offset,
            len: e.reads.len() as u32,
        };
        let write = e.write.map(|(loc, v)| (self.intern(loc), v));
        self.trace.events.push(TraceEvent {
            func: e.func,
            frame: e.frame,
            inst: e.inst,
            line: e.line,
            kind: e.kind,
            reads,
            write,
        });
    }

    /// Finish, yielding the compact trace.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(val: f64) -> ResolvedEvent {
        ResolvedEvent {
            func: FunctionId(0),
            frame: 0,
            inst: ValueId(0),
            line: 1,
            kind: EventKind::Bin(BinKind::FAdd),
            reads: vec![(Location::mem(0), Value::F(1.0))],
            write: Some((Location::mem(1), Value::F(val))),
        }
    }

    #[test]
    fn trace_counting_skips_markers() {
        let t = Trace::from_resolved(vec![
            event(1.0),
            ResolvedEvent {
                kind: EventKind::LoopIter { id: LoopId(0) },
                reads: vec![],
                write: None,
                ..event(0.0)
            },
        ]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.events.iter().filter(|e| !e.kind.is_marker()).count(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn event_accessors_resolve_through_the_trace() {
        let t = Trace::from_resolved(vec![event(4.0)]);
        let v = t.view(0);
        assert_eq!(v.event().written_value(), Some(Value::F(4.0)));
        assert_eq!(v.written_location(), Some(Location::mem(1)));
        assert_eq!(
            v.reads().collect::<Vec<_>>(),
            vec![(Location::mem(0), Value::F(1.0))]
        );
        assert!(!v.event().kind.is_marker());
        assert_eq!(v.read_ids().len(), 1);
    }

    #[test]
    fn interning_is_dense_and_deduplicated() {
        let t = Trace::from_resolved(vec![event(1.0), event(2.0), event(3.0)]);
        // Two distinct locations across three events.
        assert_eq!(t.num_locations(), 2);
        assert_eq!(t.location(LocationId(0)), Location::mem(0));
        assert_eq!(t.location_id(&Location::mem(1)), Some(LocationId(1)));
        assert_eq!(t.location_id(&Location::mem(77)), None);
        assert_eq!(t.pool.len(), 3);
        // Round trip through the resolved form.
        let r = t.resolved(1);
        assert_eq!(r.reads, vec![(Location::mem(0), Value::F(1.0))]);
        assert_eq!(r.write, Some((Location::mem(1), Value::F(2.0))));
    }

    #[test]
    fn slices_expose_views_in_slice_coordinates() {
        let t = Trace::from_resolved(vec![event(1.0), event(2.0), event(3.0)]);
        let s = t.slice(1, 3);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.view(0).event().written_value(), Some(Value::F(2.0)));
        let idxs: Vec<usize> = s.iter().map(|(i, _)| i).collect();
        assert_eq!(idxs, vec![0, 1]);
        // Slices clamp to the trace length.
        assert_eq!(t.slice(2, 100).len(), 1);
        assert!(t.slice(5, 3).is_empty());
        assert_eq!(t.full().len(), 3);
    }

    #[test]
    fn traces_serialize_with_pool_and_location_table() {
        let t = Trace::from_resolved(vec![event(1.0), event(2.0)]);
        let json = serde_json::to_string(&t).unwrap();
        // The compact layout is serialized as-is: events, shared pool,
        // interned location table.
        assert!(json.contains("\"events\""));
        assert!(json.contains("\"pool\""));
        assert!(json.contains("\"locations\""));
    }
}
