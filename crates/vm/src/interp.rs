//! The interpreter: executes a verified module, optionally recording a trace
//! and optionally flipping one bit somewhere along the way.

use ftkr_ir::decode::{DInst, DecodedFunction, DecodedModule, Reg, RegConst};
use ftkr_ir::inst::Intrinsic;
use ftkr_ir::{BinKind, CastKind, CmpKind, FunctionId, Module, ValueId, VerifyError};

use crate::fault::{FaultSpec, FaultTarget};
use crate::location::Location;
use crate::memory::{MemError, Memory};
use crate::output::ProgramOutput;
use crate::snapshot::{SnapshotImage, VmSnapshot};
use crate::trace::{EventKind, LocationId, ReadSpan, Trace, TraceEvent};
use crate::value::Value;
use crate::visitor::{EventCtx, TraceVisitor, VisitorSet, WalkEnd};

/// Reasons a run can abort; all of them map to the paper's *Crashed*
/// manifestation (crash or hang).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TrapKind {
    /// Load or store outside valid memory (the segmentation faults that
    /// dominate KMEANS input-location injections in the paper).
    OutOfBounds,
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// The dynamic step limit was exceeded (proxy for a hang).
    StepLimit,
    /// The call-depth limit was exceeded.
    CallDepth,
    /// An `alloca` exceeded the memory limit.
    OutOfMemory,
    /// An operand had the wrong runtime kind (e.g. a float used as address).
    TypeMismatch,
    /// A register was read before being defined.
    UninitializedRegister,
}

impl std::fmt::Display for TrapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TrapKind::OutOfBounds => "out-of-bounds memory access",
            TrapKind::DivisionByZero => "integer division by zero",
            TrapKind::StepLimit => "dynamic step limit exceeded (hang)",
            TrapKind::CallDepth => "call depth limit exceeded",
            TrapKind::OutOfMemory => "allocation limit exceeded",
            TrapKind::TypeMismatch => "operand kind mismatch",
            TrapKind::UninitializedRegister => "read of an undefined register",
        };
        f.write_str(s)
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RunOutcome {
    /// The program ran to completion (its verification phase decides whether
    /// the result is acceptable).
    Completed,
    /// The program crashed or hung.
    Trapped(TrapKind),
}

impl RunOutcome {
    /// True when the program completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }
}

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Record a dynamic trace (needed for analysis runs, not for campaign
    /// runs).
    pub record_trace: bool,
    /// Expected dynamic step count of the run (usually the step count of a
    /// prior untraced run).  Used to pre-size the trace's event and operand
    /// buffers so a tracing run performs O(1) vector allocations.
    pub trace_hint: Option<u64>,
    /// Optional single-bit fault to inject.
    pub fault: Option<FaultSpec>,
    /// Maximum dynamic instructions before the run is declared hung.
    pub max_steps: u64,
    /// Maximum memory cells (globals + stack).
    pub max_memory_cells: u64,
    /// Maximum call depth.
    pub max_call_depth: u32,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            record_trace: false,
            trace_hint: None,
            fault: None,
            max_steps: 200_000_000,
            max_memory_cells: 1 << 24,
            max_call_depth: 512,
        }
    }
}

impl VmConfig {
    /// Configuration for an analysis run: tracing on, no fault.
    pub fn tracing() -> Self {
        VmConfig {
            record_trace: true,
            ..Default::default()
        }
    }

    /// Tracing configuration pre-sized for a run of about `steps` dynamic
    /// instructions (typically the step count of a prior untraced run).
    pub fn tracing_sized(steps: u64) -> Self {
        VmConfig {
            record_trace: true,
            trace_hint: Some(steps),
            ..Default::default()
        }
    }

    /// Configuration for a faulty run without tracing (campaign run).
    pub fn with_fault(fault: FaultSpec) -> Self {
        VmConfig {
            fault: Some(fault),
            ..Default::default()
        }
    }

    /// Configuration for a faulty run *with* tracing (fine-grained analysis
    /// of one injection, e.g. the paper's Figure 7).
    pub fn tracing_with_fault(fault: FaultSpec) -> Self {
        VmConfig {
            record_trace: true,
            fault: Some(fault),
            ..Default::default()
        }
    }
}

/// Everything a run produces.  `PartialEq` compares outcome, step count,
/// outputs, memory image and trace — the full observable state, which is
/// what the snapshot/restore equivalence tests assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Number of dynamic instructions executed.
    pub steps: u64,
    /// The program's output stream.
    pub outputs: ProgramOutput,
    /// Final memory image (used by application verification phases).
    pub memory: Memory,
    /// The dynamic trace, when tracing was enabled.
    pub trace: Option<Trace>,
}

impl RunResult {
    /// Convenience: final contents of a global as floats.
    pub fn global_f64(&self, name: &str) -> Option<Vec<f64>> {
        self.memory.read_global_f64(name)
    }

    /// Convenience: final contents of a global as integers.
    pub fn global_i64(&self, name: &str) -> Option<Vec<i64>> {
        self.memory.read_global_i64(name)
    }
}

/// The interpreter.
#[derive(Debug, Clone)]
pub struct Vm {
    config: VmConfig,
}

/// One live call frame.  `Clone` (and `pub(crate)`) so [`VmSnapshot`] can
/// capture and restore the whole frame stack.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    func: FunctionId,
    frame_id: u32,
    /// Pc of the next instruction to execute (written back whenever the
    /// dispatch loop leaves the frame).
    pc: u32,
    /// The register file, laid out as results | arguments | constants |
    /// global bases (see [`Reg`]).
    regs: Vec<Option<Value>>,
    /// The [`LocationId`] a read of each register-file cell records, in the
    /// layout of `regs`: `NO_ID` for a result not interned yet (interned on
    /// first touch), `NO_LOC` for a cell that reads no location (constants,
    /// global bases, arguments the caller passed as constants).  The call
    /// writes its arguments' ids.  Allocated only when recording.
    reg_ids: Vec<u32>,
    stack_mark: u64,
    /// Register of the *caller* that receives this frame's return value.
    ret_dest: Option<(usize, ValueId)>,
}

impl Frame {
    /// A copy of a captured frame to resume in, with its id table only when
    /// the resumed run records.  The capturing prefix always records (see
    /// [`Vm::snapshot_at`]), so every captured frame carries its table.
    fn restored(&self, recording: bool) -> Frame {
        Frame {
            func: self.func,
            frame_id: self.frame_id,
            pc: self.pc,
            regs: self.regs.clone(),
            reg_ids: if recording {
                self.reg_ids.clone()
            } else {
                Vec::new()
            },
            stack_mark: self.stack_mark,
            ret_dest: self.ret_dest,
        }
    }

    /// Approximate bytes the frame holds: its inline struct plus its heap
    /// register file and id table.
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Frame>()
            + self.regs.len() * size_of::<Option<Value>>()
            + self.reg_ids.len() * size_of::<u32>()
    }
}

/// Sentinel for "location not interned yet" in the dense id tables.
const NO_ID: u32 = u32::MAX;
/// Sentinel for "reads no location" in [`Frame::reg_ids`].
const NO_LOC: u32 = u32::MAX - 1;

/// Operand resolution when recording: the value plus the interned id of the
/// location read — result registers and arguments; constants and globals
/// read none.
#[inline]
fn recorded_operand(
    frame: &mut Frame,
    locations: &mut Vec<Location>,
    reg: Reg,
) -> Result<(Value, Option<LocationId>), TrapKind> {
    let value = frame.regs[reg.index()].ok_or(TrapKind::UninitializedRegister)?;
    let loc = match frame.reg_ids[reg.index()] {
        NO_LOC => None,
        // Only result cells start out `NO_ID`, and a result's cell index is
        // its instruction's.
        NO_ID => Some(intern_reg(locations, frame, ValueId(reg.0))),
        id => Some(LocationId(id)),
    };
    Ok((value, loc))
}

/// A fresh [`Frame::reg_ids`] table for a frame of `df`: results not
/// interned yet, every other cell reading no location until a call writes
/// its arguments' ids.
fn reg_id_table(df: &DecodedFunction) -> Vec<u32> {
    let mut ids = vec![NO_LOC; df.num_regs()];
    ids[..df.num_insts].fill(NO_ID);
    ids
}

/// The id the next interned location gets; never one of the sentinels.
#[inline]
fn next_id(locations: &[Location]) -> u32 {
    u32::try_from(locations.len())
        .ok()
        .filter(|&id| id < NO_LOC)
        .expect("< 2^32 - 1 locations per trace")
}

/// A fresh register file for a frame of `df`: results and arguments
/// undefined, constant cells holding their constants and global bases.
fn register_file(df: &DecodedFunction, global_bases: &[u64]) -> Vec<Option<Value>> {
    let mut regs = vec![None; df.first_const()];
    regs.extend(df.consts.iter().map(|&c| {
        Some(match c {
            RegConst::I(v) => Value::I(v),
            RegConst::F(v) => Value::F(v),
            RegConst::Global(g) => Value::P(global_bases[g.index()]),
        })
    }));
    regs
}

/// Intern a register location through the frame's dense per-register table:
/// O(1), no hashing — the hot path of trace recording.
#[inline]
fn intern_reg(locations: &mut Vec<Location>, frame: &mut Frame, v: ValueId) -> LocationId {
    let slot = &mut frame.reg_ids[v.index()];
    if *slot == NO_ID {
        *slot = next_id(locations);
        locations.push(Location::reg(frame.func, frame.frame_id, v));
    }
    LocationId(*slot)
}

/// Intern a memory-cell location through the address-indexed dense table.
#[inline]
fn intern_mem(locations: &mut Vec<Location>, mem_ids: &mut Vec<u32>, addr: u64) -> LocationId {
    let a = addr as usize;
    if a >= mem_ids.len() {
        mem_ids.resize(a + 1, NO_ID);
    }
    let slot = &mut mem_ids[a];
    if *slot == NO_ID {
        *slot = next_id(locations);
        locations.push(Location::mem(addr));
    }
    LocationId(*slot)
}

impl Vm {
    /// Create an interpreter with the given configuration.
    pub fn new(config: VmConfig) -> Self {
        Vm { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Execute the module's `main` function.  Decodes (and so verifies) the
    /// module first; callers that run one module many times decode it once
    /// and use [`Vm::run_decoded`].
    pub fn run(&self, module: &Module) -> Result<RunResult, VerifyError> {
        let decoded = DecodedModule::decode(module);
        decoded.verdict()?;
        let interp = Interp::at_entry(module, &decoded, &self.config, false);
        Ok(interp.run_loop(Sink::without_visitors(false, 0)))
    }

    /// Execute the prefix `[0, step)` of the module's `main` function and
    /// capture the complete interpreter state as a [`VmSnapshot`], without
    /// materializing a trace.  The instruction at `step` has **not** executed
    /// when the snapshot is taken, so a fault at `at_step == step` lands
    /// correctly in a resumed run.
    ///
    /// The prefix is executed with trace recording forced on (streamed and
    /// discarded), so the snapshot's interning tables are exactly those a
    /// cold recording run builds over the same prefix — the property that
    /// keeps resumed traces and streamed event indices bit-identical to cold
    /// runs.  The [`Vm`]'s fault and limit configuration apply to the
    /// prefix unchanged (campaign executors capture with a fault-free
    /// configuration).
    ///
    /// Capture stops exactly at `step`, even between the two halves of a
    /// fused compare-branch: the frame's program counter then rests on the
    /// branch half, which a resumed run executes alone.
    ///
    /// Returns `Ok(None)` when the run finishes or traps before reaching
    /// `step` (including via `max_steps`): state past the end of the program
    /// does not exist. `step == 0` captures the initial state with the entry
    /// frame pushed.
    pub fn snapshot_at(
        &self,
        module: &Module,
        step: u64,
    ) -> Result<Option<VmSnapshot>, VerifyError> {
        let decoded = DecodedModule::decode(module);
        decoded.verdict()?;
        let mut config = self.config;
        config.record_trace = true;
        let mut interp = Interp::at_entry(module, &decoded, &config, true);
        // The prefix streams to no visitor: the snapshot keeps none of its
        // events.  An empty set never settles, so the whole prefix records
        // and interns like a cold recording run.
        let mut sink = Sink::without_visitors(true, 0);
        Ok(match interp.run_until(step, &mut sink) {
            None => Some(interp.capture()),
            Some(_) => None,
        })
    }

    /// [`Vm::run`] over tables already decoded from `module`: one dispatch
    /// slot per instruction over a flat register file, with fused
    /// compare-branch superinstructions.
    ///
    /// `decoded` must be [`DecodedModule::decode`] of this `module`.  The
    /// module is not verified again: this and the other `*_decoded` entry
    /// points return the verdict [`DecodedModule::decode`] stored.
    pub fn run_decoded(
        &self,
        module: &Module,
        decoded: &DecodedModule,
    ) -> Result<RunResult, VerifyError> {
        decoded.verdict()?;
        let interp = Interp::at_entry(module, decoded, &self.config, false);
        Ok(interp.run_loop(Sink::without_visitors(false, 0)))
    }

    /// Execute the module's `main` function, streaming every dynamic event to
    /// `visitors` **without materializing a trace**: the run keeps only the
    /// interned location table and the reads of the event in flight, so
    /// analyses ride along in O(locations) memory instead of O(events) — the
    /// no-materialization path campaign executors use to classify outcomes
    /// and detect patterns per injection (see [`crate::visitor`]).
    ///
    /// Visitors observe exactly the events a materialized trace with the same
    /// configuration would contain (same order, same operand reads, same
    /// interned ids); [`RunResult::trace`] is always `None`.  The fault and
    /// limit configuration of the [`Vm`] apply unchanged.
    ///
    /// `visitors` is a [`VisitorSet`]: `&mut [&mut v]` compiles the run for
    /// `v`'s type, with no virtual call per event.  Once every visitor is
    /// [settled](TraceVisitor::settled), the rest of the program runs
    /// without recording; the [`RunResult`] is the same either way.
    pub fn run_with_visitors_decoded<V: VisitorSet + ?Sized>(
        &self,
        module: &Module,
        decoded: &DecodedModule,
        visitors: &mut V,
    ) -> Result<RunResult, VerifyError> {
        decoded.verdict()?;
        let mut config = self.config;
        config.record_trace = true;
        let interp = Interp::at_entry(module, decoded, &config, true);
        Ok(interp.run_loop(Sink::streamed(visitors, 0)))
    }

    /// Resume execution from a snapshot and run to completion, exactly as if
    /// the capturing run had continued past the fork point.  Deterministic
    /// programs make the composition [`Vm::snapshot_at`] + resume equal to
    /// one uninterrupted run — outputs, final memory, outcome and step
    /// count — with one exception the campaign executors exploit: the
    /// [`Vm`]'s fault applies to the *resumed* steps, so a fault with
    /// `at_step >= snapshot.step()` strikes identically to a cold faulty
    /// run while the prefix is never re-executed.
    ///
    /// `max_steps` counts absolute steps (the prefix included), so hang
    /// detection behaves as in a cold run.  The memory-cell limit is the
    /// capturing run's (the image carries it); tracing follows this [`Vm`]'s
    /// configuration and records only resumed steps — the produced trace's
    /// `base_step` is the fork point.
    /// A snapshot captured between the two halves of a fused pair resumes by
    /// executing the branch half alone.
    pub fn resume_from_decoded(
        &self,
        module: &Module,
        decoded: &DecodedModule,
        snapshot: &VmSnapshot,
    ) -> Result<RunResult, VerifyError> {
        decoded.verdict()?;
        let interp = Interp::from_snapshot(module, decoded, &self.config, snapshot);
        let sink = Sink::without_visitors(false, snapshot.events_emitted() as usize);
        Ok(interp.run_loop(sink))
    }

    /// Resume execution from a snapshot, streaming every resumed event to
    /// `visitors` without materializing a trace (the fork-point analogue of
    /// [`Vm::run_with_visitors_decoded`]).  Event indices continue from
    /// [`VmSnapshot::events_emitted`] and the location table from the
    /// snapshot's interned prefix, so visitors observe exactly the suffix of
    /// the event stream a cold streamed run would deliver — prefix-primed
    /// consumers (e.g. streaming pattern detectors) compose bit-identically.
    /// Visitor sets and settling work as in [`Vm::run_with_visitors_decoded`].
    pub fn resume_with_visitors_decoded<V: VisitorSet + ?Sized>(
        &self,
        module: &Module,
        decoded: &DecodedModule,
        snapshot: &VmSnapshot,
        visitors: &mut V,
    ) -> Result<RunResult, VerifyError> {
        decoded.verdict()?;
        let mut config = self.config;
        config.record_trace = true;
        let interp = Interp::from_snapshot(module, decoded, &config, snapshot);
        let sink = Sink::streamed(visitors, snapshot.events_emitted() as usize);
        Ok(interp.run_loop(sink))
    }
}

struct Interp<'m> {
    /// The dispatch tables: one slot per instruction, flat register
    /// operands, fused superinstructions.
    decoded: &'m DecodedModule,
    config: VmConfig,
    memory: Memory,
    outputs: ProgramOutput,
    trace: Trace,
    /// Interned [`LocationId`] per memory cell (lazy, `NO_ID` sentinel).
    mem_ids: Vec<u32>,
    frames: Vec<Frame>,
    steps: u64,
    next_frame_id: u32,
    /// Absolute source lines per function, materialized from the decoded
    /// delta streams — only when the run records a trace.
    dlines: Vec<Vec<u32>>,
    /// Base address per [`GlobalId`](ftkr_ir::GlobalId), resolved once at
    /// construction.  Globals are laid out up front and never move, so a
    /// new frame's global-base cells never scan the name-keyed extents.
    global_bases: Vec<u64>,
}

/// Where the recording loop puts its events: appended to the run's trace
/// (materialized), or handed to visitors as they happen and dropped
/// (streamed — the trace then keeps only its location table).
struct Sink<'s, V: VisitorSet + ?Sized> {
    streaming: bool,
    visitors: &'s mut V,
    /// Absolute index of the next streamed event.
    emitted: usize,
    /// Every visitor is settled: the run records no further event.
    detached: bool,
}

impl Sink<'static, [&'static mut dyn TraceVisitor; 0]> {
    /// A sink with no visitor: a streaming one drops each event once it is
    /// recorded, a materializing one appends it to the trace.
    fn without_visitors(streaming: bool, emitted: usize) -> Self {
        Sink {
            streaming,
            visitors: &mut [],
            emitted,
            detached: false,
        }
    }
}

impl<'s, V: VisitorSet + ?Sized> Sink<'s, V> {
    /// A sink streaming to `visitors`, the next event being number
    /// `emitted`.
    fn streamed(visitors: &'s mut V, emitted: usize) -> Self {
        Sink {
            streaming: true,
            detached: visitors.settled(),
            visitors,
            emitted,
        }
    }

    /// Skip the event in flight, whose operand reads are
    /// `trace.pool[pool_start..]` and whose write is `write`, when the sink
    /// streams to a set whose [watch](crate::Watch) does not want it: the
    /// event keeps its index and its interned locations, a `Load` reports
    /// its memory cell (its last read), and nothing else happens.  Returns
    /// true when it skipped.
    #[inline]
    fn skip(
        &mut self,
        trace: &mut Trace,
        pool_start: usize,
        load: bool,
        write: Option<LocationId>,
    ) -> bool {
        if !self.streaming {
            return false;
        }
        let reads = &trace.pool[pool_start..];
        match self.visitors.watch() {
            Some(watch) if !watch.wants(self.emitted, reads, write, trace.locations.len()) => {}
            _ => return false,
        }
        if load {
            let &(cell, _) = reads.last().expect("a load reads its cell");
            self.visitors.skipped_load(self.emitted, cell);
        }
        self.emitted += 1;
        trace.pool.truncate(pool_start);
        true
    }

    /// Record the event of dynamic step `step`, whose operand reads are
    /// `trace.pool[pool_start..]`.  A streamed event is delivered to every
    /// visitor and its reads are dropped from the pool again.  Returns true
    /// when the delivery settled the whole set: the caller then stops
    /// recording.
    #[inline]
    fn emit(
        &mut self,
        trace: &mut Trace,
        step: u64,
        pool_start: usize,
        mut event: TraceEvent,
    ) -> bool {
        event.reads = ReadSpan {
            offset: u32::try_from(pool_start).expect("≤ 2^32 operand reads per trace"),
            len: (trace.pool.len() - pool_start) as u32,
        };
        if !self.streaming {
            trace.events.push(event);
            return false;
        }
        self.visitors.visit(&EventCtx {
            index: self.emitted,
            step,
            event: &event,
            reads: &trace.pool[pool_start..],
            locations: &trace.locations,
        });
        self.emitted += 1;
        trace.pool.truncate(pool_start);
        self.detached = self.visitors.settled();
        self.detached
    }
}

impl<'m> Interp<'m> {
    /// A fresh interpreter with the `main` frame pushed (the module must
    /// have passed `verify_executable`).
    fn at_entry(
        module: &'m Module,
        decoded: &'m DecodedModule,
        config: &VmConfig,
        streaming: bool,
    ) -> Self {
        // Pre-size the trace from the expected step count (clamped to the
        // step limit): tracing then allocates O(1) vectors instead of
        // growing them geometrically.  Streaming runs retain no events, so
        // they never pre-size.
        let trace = match config.trace_hint {
            Some(h) if config.record_trace && !streaming => {
                let h = usize::try_from(h.min(config.max_steps)).unwrap_or(usize::MAX);
                Trace::with_capacity(h, 2 * h)
            }
            _ => Trace::new(),
        };
        let mut interp = Interp::with_state(
            module,
            decoded,
            config,
            Memory::for_module(module, config.max_memory_cells),
            trace,
        );
        let (entry, _) = module
            .function_by_name("main")
            .expect("verify_executable guarantees main");
        let frame = interp.make_frame(entry);
        interp.frames.push(frame);
        interp
    }

    /// The interpreter around an initial memory image and trace, with the
    /// decoded side tables resolved: recording runs materialize the
    /// per-function source-line tables once, up front (O(static
    /// instructions)); untraced runs never touch lines.
    fn with_state(
        module: &'m Module,
        decoded: &'m DecodedModule,
        config: &VmConfig,
        memory: Memory,
        trace: Trace,
    ) -> Self {
        let dlines = if config.record_trace {
            decoded
                .functions
                .iter()
                .map(DecodedFunction::materialize_lines)
                .collect()
        } else {
            Vec::new()
        };
        let global_bases = module
            .globals
            .iter()
            .map(|g| {
                memory
                    .global_extent(&g.name)
                    .expect("verified global must be laid out")
                    .0
            })
            .collect();
        Interp {
            decoded,
            config: *config,
            memory,
            outputs: ProgramOutput::default(),
            trace,
            mem_ids: Vec::new(),
            frames: Vec::new(),
            steps: 0,
            next_frame_id: 0,
            dlines,
            global_bases,
        }
    }

    /// Capture the complete current state as a snapshot image.
    fn capture(&self) -> VmSnapshot {
        VmSnapshot::new(SnapshotImage {
            step: self.steps,
            next_frame_id: self.next_frame_id,
            memory: self.memory.clone(),
            frames: self.frames.clone(),
            outputs: self.outputs.clone(),
            locations: self.trace.locations.clone(),
            mem_ids: self.mem_ids.clone(),
        })
    }

    /// Rebuild an interpreter from a snapshot: every mutable slab is copied
    /// out of the shared image (copy-on-restore), so restores never alias.
    /// When the resumed configuration does not record, the interning tables
    /// are dropped instead of copied — a plain campaign resume pays for the
    /// memory image and frames only.
    fn from_snapshot(
        module: &'m Module,
        decoded: &'m DecodedModule,
        config: &VmConfig,
        snapshot: &VmSnapshot,
    ) -> Self {
        let img = snapshot.image();
        let recording = config.record_trace;
        let mut trace = Trace::new();
        // Resumed recording continues the prefix's interned location table,
        // so ids stay identical to a cold run's first-touch order.
        if recording {
            trace.locations = img.locations.clone();
        }
        // A resumed trace can only contain resumed steps: its base is the
        // fork point.
        trace.base_step = img.step;
        let mut interp = Interp::with_state(module, decoded, config, img.memory.clone(), trace);
        interp.frames = img
            .frames
            .iter()
            .map(|f| f.restored(recording))
            .collect();
        interp.outputs = img.outputs.clone();
        if recording {
            interp.mem_ids = img.mem_ids.clone();
        }
        interp.steps = img.step;
        interp.next_frame_id = img.next_frame_id;
        interp
    }

    /// Run to the end of the program, shared by cold runs (`emitted_start ==
    /// 0`) and snapshot-resumed runs (`emitted_start` = the fork point's
    /// streamed event cursor, so visitor indices continue absolutely).
    fn run_loop<V: VisitorSet + ?Sized>(mut self, mut sink: Sink<'_, V>) -> RunResult {
        let outcome = self
            .run_until(u64::MAX, &mut sink)
            .unwrap_or(RunOutcome::Trapped(TrapKind::StepLimit));

        if sink.streaming {
            sink.visitors.finish(&WalkEnd {
                events: sink.emitted,
                locations: &self.trace.locations,
                outcome: Some(outcome),
            });
        }

        // A trap can abort a step after its operand reads were pooled but
        // before the event was recorded; drop that dangling tail so the pool
        // length always equals the sum of the event spans.
        let pool_end = self
            .trace
            .events
            .last()
            .map_or(0, |e| e.reads.range().end);
        self.trace.pool.truncate(pool_end);

        RunResult {
            outcome,
            steps: self.steps,
            outputs: self.outputs,
            memory: self.memory,
            trace: if self.config.record_trace && !sink.streaming {
                Some(self.trace)
            } else {
                None
            },
        }
    }

    /// Execute until the step counter reaches `end` (`None`) or the program
    /// finishes or traps (`Some(outcome)`, a step limit included).
    ///
    /// Drives [`Interp::dispatch`] from boundary to boundary.  A boundary is
    /// a step where the dispatch configuration changes: the fault step (a
    /// memory fault strikes before it, a result fault flips what it writes),
    /// the step limit, and `end` itself (the capture step of
    /// [`Vm::snapshot_at`]).  Between boundaries the loop runs with no
    /// per-step checks; each call advances at least one step.
    ///
    /// A tracing run records from its first (or resumed) step until the sink
    /// detaches (every visitor settled); the rest of the run dispatches
    /// without recording, and recording never starts again.
    fn run_until<V: VisitorSet + ?Sized>(
        &mut self,
        end: u64,
        sink: &mut Sink<'_, V>,
    ) -> Option<RunOutcome> {
        loop {
            let now = self.steps;
            if now >= end {
                return None;
            }
            if now >= self.config.max_steps {
                return Some(RunOutcome::Trapped(TrapKind::StepLimit));
            }
            let mut stop = end.min(self.config.max_steps);
            let mut flip = None;
            if let Some(fault) = self.config.fault {
                if fault.at_step > now {
                    stop = stop.min(fault.at_step);
                } else if fault.at_step == now {
                    match fault.target {
                        FaultTarget::MemoryCell { addr } => {
                            if let Some(v) = self.memory.peek(addr) {
                                self.memory.poke(addr, v.flip_bit(fault.bit));
                            }
                        }
                        FaultTarget::InstructionResult => {
                            flip = Some(fault.bit);
                            stop = now + 1;
                        }
                    }
                }
            }
            let outcome = if self.config.record_trace && !sink.detached {
                self.dispatch::<true, V>(stop, flip, sink)
            } else {
                self.dispatch::<false, V>(stop, flip, sink)
            };
            if outcome.is_some() {
                return outcome;
            }
        }
    }

    fn make_frame(&mut self, func: FunctionId) -> Frame {
        let df = self.decoded.function(func);
        let frame_id = self.next_frame_id;
        self.next_frame_id += 1;
        Frame {
            func,
            frame_id,
            pc: 0,
            regs: register_file(df, &self.global_bases),
            reg_ids: if self.config.record_trace {
                reg_id_table(df)
            } else {
                Vec::new()
            },
            stack_mark: self.memory.stack_mark(),
            ret_dest: None,
        }
    }

    /// The dispatch loop: executes decoded instructions back to back until
    /// the step counter reaches `stop` (`None`) or the program finishes or
    /// traps (`Some(outcome)`).  Traces, interning order, traps, outputs and
    /// step accounting are those of the original instruction sequence, one
    /// dynamic step per instruction.
    ///
    /// `RECORD` selects the instantiation.  Without it the loop only
    /// executes — the campaign configuration, with no per-step bookkeeping.
    /// With it every step interns the locations it touches and pools its
    /// reads; then the sink skips the event (a streamed set whose watch does
    /// not want it) or takes it.  Recording never resumes once it stops
    /// (see [`Interp::run_until`]), so a call made without `RECORD` interns
    /// nothing and its frame carries no id table.
    ///
    /// `flip` is the bit a result fault flips in what this call's single
    /// step writes (the caller then passes `stop` one past the fault step).
    /// A fused compare-branch spans two steps and never crosses `stop`: when
    /// only its compare half fits, the loop executes that half and yields
    /// with the program counter on the branch half, which the next call
    /// executes alone.
    ///
    /// An emit that settles the sink's visitor set ends the call after its
    /// step (after the compare half, for a fused pair), so the caller can
    /// continue without `RECORD`.
    #[allow(clippy::too_many_lines)]
    fn dispatch<const RECORD: bool, V: VisitorSet + ?Sized>(
        &mut self,
        mut stop: u64,
        flip: Option<u8>,
        sink: &mut Sink<'_, V>,
    ) -> Option<RunOutcome> {
        let dm = self.decoded;
        // Split the interpreter into disjoint borrows once, so the loop can
        // hold one frame reference across operand resolution and the result
        // write instead of re-indexing `self.frames` per access, and keep
        // the step counter and the pc in registers instead of memory cells.
        let Interp {
            frames,
            memory,
            outputs,
            trace,
            mem_ids,
            steps,
            next_frame_id,
            config,
            global_bases,
            dlines,
            ..
        } = self;
        let mut frame_idx = frames.len() - 1;
        let mut df = dm.function(frames[frame_idx].func);
        let mut pc = frames[frame_idx].pc as usize;
        let mut lines: &[u32] = if RECORD {
            &dlines[frames[frame_idx].func.index()]
        } else {
            &[]
        };
        let mut nsteps = *steps;
        loop {
            if nsteps >= stop {
                frames[frame_idx].pc = pc as u32;
                *steps = nsteps;
                return None;
            }
            let frame = &mut frames[frame_idx];
            let (func, frame_id) = (frame.func, frame.frame_id);
            let at = pc;
            let slot = df.slots[at];
            let iid = slot.result;
            let pool_start = if RECORD { trace.pool.len() } else { 0 };
            // Most instructions simply advance the pc; control flow
            // overrides this.
            pc = at + 1;

            macro_rules! bail {
                ($trap:expr) => {{
                    *steps = nsteps;
                    return Some(RunOutcome::Trapped($trap));
                }};
            }
            // Read an operand, pooling the location it reads when recording.
            macro_rules! read {
                ($reg:expr) => {{
                    if RECORD {
                        match recorded_operand(frame, &mut trace.locations, $reg) {
                            Ok((v, loc)) => {
                                if let Some(l) = loc {
                                    trace.pool.push((l, v));
                                }
                                v
                            }
                            Err(t) => bail!(t),
                        }
                    } else {
                        match frame.regs[$reg.index()] {
                            Some(v) => v,
                            None => bail!(TrapKind::UninitializedRegister),
                        }
                    }
                }};
            }
            macro_rules! faulted {
                ($value:expr) => {
                    match flip {
                        Some(bit) => $value.flip_bit(bit),
                        None => $value,
                    }
                };
            }
            // Write the instruction's result register; the recorded write.
            macro_rules! set_result {
                ($value:expr) => {{
                    let value = $value;
                    frame.regs[iid.index()] = Some(value);
                    if RECORD {
                        Some((intern_reg(&mut trace.locations, frame, iid), value))
                    } else {
                        None
                    }
                }};
            }
            macro_rules! emit {
                ($kind:expr, $write:expr) => {
                    emit!(nsteps, iid, at, pool_start, $kind, $write)
                };
                ($step:expr, $inst:expr, $at:expr, $pool_start:expr, $kind:expr, $write:expr) => {
                    if RECORD {
                        let kind = $kind;
                        let write: Option<(LocationId, Value)> = $write;
                        let load = matches!(kind, EventKind::Load);
                        let written = write.map(|(id, _)| id);
                        if !sink.skip(trace, $pool_start, load, written) {
                            let event = TraceEvent {
                                func,
                                frame: frame_id,
                                inst: $inst,
                                line: lines[$at],
                                kind,
                                reads: ReadSpan::empty(),
                                write,
                            };
                            if sink.emit(trace, $step, $pool_start, event) {
                                // Settled: yield once this step completes
                                // (dead after the program's final return).
                                #[allow(unused_assignments)]
                                {
                                    stop = 0;
                                }
                            }
                        }
                    }
                };
            }

            match slot.inst {
                DInst::Bin { kind, lhs, rhs } => {
                    let a = read!(lhs);
                    let b = read!(rhs);
                    let result = match eval_bin(kind, a, b) {
                        Ok(v) => faulted!(v),
                        Err(t) => bail!(t),
                    };
                    let write = set_result!(result);
                    emit!(EventKind::Bin(kind), write);
                }
                DInst::Cmp {
                    kind,
                    float,
                    lhs,
                    rhs,
                } => {
                    let a = read!(lhs);
                    let b = read!(rhs);
                    let result = match eval_cmp(kind, float, a, b) {
                        Ok(r) => faulted!(Value::I(r as i64)),
                        Err(t) => bail!(t),
                    };
                    let write = set_result!(result);
                    emit!(
                        EventKind::Cmp {
                            kind,
                            float,
                            result: result.is_truthy(),
                        },
                        write
                    );
                }
                DInst::CmpBr {
                    kind,
                    float,
                    lhs,
                    rhs,
                    then_pc,
                    else_pc,
                } => {
                    // --- compare half ---
                    let a = read!(lhs);
                    let b = read!(rhs);
                    let result = match eval_cmp(kind, float, a, b) {
                        Ok(r) => faulted!(Value::I(r as i64)),
                        Err(t) => bail!(t),
                    };
                    let write = set_result!(result);
                    let taken = result.is_truthy();
                    emit!(
                        EventKind::Cmp {
                            kind,
                            float,
                            result: taken,
                        },
                        write
                    );
                    nsteps += 1;
                    if nsteps >= stop {
                        // The pc rests on the branch half's own slot.
                        continue;
                    }
                    // --- branch half: the next step, reading the compare's
                    // result register ---
                    let pool_start = if RECORD { trace.pool.len() } else { 0 };
                    if RECORD {
                        let id = intern_reg(&mut trace.locations, frame, iid);
                        trace.pool.push((id, result));
                    }
                    pc = (if taken { then_pc } else { else_pc }) as usize;
                    emit!(
                        nsteps,
                        df.slots[at + 1].result,
                        at + 1,
                        pool_start,
                        EventKind::CondBr { taken },
                        None
                    );
                }
                DInst::Cast { kind, src } => {
                    let v = read!(src);
                    let result = match eval_cast(kind, v) {
                        Ok(v) => faulted!(v),
                        Err(t) => bail!(t),
                    };
                    let write = set_result!(result);
                    emit!(EventKind::Cast(kind), write);
                }
                DInst::Select {
                    cond,
                    then_v,
                    else_v,
                } => {
                    let c = read!(cond);
                    let a = read!(then_v);
                    let b = read!(else_v);
                    let write = set_result!(faulted!(if c.is_truthy() { a } else { b }));
                    emit!(EventKind::Select, write);
                }
                DInst::Load { addr } => {
                    let a = read!(addr);
                    let Some(addr) = a.as_ptr() else {
                        bail!(TrapKind::TypeMismatch);
                    };
                    let loaded = match memory.load(addr) {
                        Ok(v) => v,
                        Err(MemError::OutOfBounds { .. }) => bail!(TrapKind::OutOfBounds),
                    };
                    if RECORD {
                        let id = intern_mem(&mut trace.locations, mem_ids, addr);
                        trace.pool.push((id, loaded));
                    }
                    let write = set_result!(faulted!(loaded));
                    emit!(EventKind::Load, write);
                }
                DInst::Store { addr, value } => {
                    let a = read!(addr);
                    let v = read!(value);
                    let Some(addr) = a.as_ptr() else {
                        bail!(TrapKind::TypeMismatch);
                    };
                    let stored = faulted!(v);
                    if let Err(MemError::OutOfBounds { .. }) = memory.store(addr, stored) {
                        bail!(TrapKind::OutOfBounds);
                    }
                    let write = if RECORD {
                        Some((intern_mem(&mut trace.locations, mem_ids, addr), stored))
                    } else {
                        None
                    };
                    emit!(EventKind::Store, write);
                }
                DInst::Alloca { size } => {
                    let Some(base) = memory.alloca(u64::from(size)) else {
                        bail!(TrapKind::OutOfMemory);
                    };
                    let write = set_result!(Value::P(base));
                    let size = u64::from(size);
                    emit!(EventKind::Alloca { base, size }, write);
                }
                DInst::Gep { base, index } => {
                    let b = read!(base);
                    let i = read!(index);
                    let (Some(base), Some(idx)) = (b.as_ptr(), i.as_i64()) else {
                        bail!(TrapKind::TypeMismatch);
                    };
                    let addr = (base as i64).wrapping_add(idx) as u64;
                    let write = set_result!(faulted!(Value::P(addr)));
                    emit!(EventKind::Gep, write);
                }
                DInst::Call { callee, args } => {
                    // The top frame is always `frame_idx`, so the depth
                    // check stays ahead of operand resolution without
                    // touching `frames` while `frame` is borrowed.
                    if (frame_idx + 1) as u32 >= config.max_call_depth {
                        bail!(TrapKind::CallDepth);
                    }
                    let cf = dm.function(callee);
                    let mut regs = register_file(cf, global_bases);
                    let arg_cells = cf.num_insts..cf.first_const();
                    let reg_ids = if RECORD {
                        let mut ids = reg_id_table(cf);
                        for (cell, k) in arg_cells.zip(args.range()) {
                            let (v, loc) = match recorded_operand(
                                frame,
                                &mut trace.locations,
                                df.args_pool[k],
                            ) {
                                Ok(x) => x,
                                Err(t) => bail!(t),
                            };
                            if let Some(l) = loc {
                                trace.pool.push((l, v));
                            }
                            regs[cell] = Some(v);
                            ids[cell] = loc.map_or(NO_LOC, |l| l.0);
                        }
                        ids
                    } else {
                        for (cell, k) in regs[arg_cells].iter_mut().zip(args.range()) {
                            *cell = Some(read!(df.args_pool[k]));
                        }
                        Vec::new()
                    };
                    emit!(EventKind::Call { callee }, None);
                    frame.pc = pc as u32;
                    let callee_id = *next_frame_id;
                    *next_frame_id += 1;
                    frames.push(Frame {
                        func: callee,
                        frame_id: callee_id,
                        pc: 0,
                        regs,
                        reg_ids,
                        stack_mark: memory.stack_mark(),
                        ret_dest: Some((frame_idx, iid)),
                    });
                    frame_idx += 1;
                    df = cf;
                    pc = 0;
                    if RECORD {
                        lines = &dlines[callee.index()];
                    }
                }
                DInst::CallIntrinsic { intrinsic, args } => {
                    let mut vals = Vec::with_capacity(args.len as usize);
                    for k in args.range() {
                        vals.push(read!(df.args_pool[k]));
                    }
                    let result = match eval_intrinsic(intrinsic, &vals) {
                        Ok(v) => faulted!(v),
                        Err(t) => bail!(t),
                    };
                    let write = set_result!(result);
                    emit!(EventKind::Intrinsic, write);
                }
                DInst::Ret { value } => {
                    let ret_val = match value {
                        Some(v) => Some(read!(v)),
                        None => None,
                    };
                    let done = frames.pop().expect("at least one frame");
                    memory.release_to(done.stack_mark);
                    let Some((caller_idx, dest)) = done.ret_dest else {
                        emit!(EventKind::Ret, None);
                        *steps = nsteps + 1;
                        return Some(RunOutcome::Completed);
                    };
                    let v = faulted!(ret_val.unwrap_or(Value::I(0)));
                    let caller = &mut frames[caller_idx];
                    caller.regs[dest.index()] = Some(v);
                    let write = if RECORD {
                        Some((intern_reg(&mut trace.locations, caller, dest), v))
                    } else {
                        None
                    };
                    emit!(EventKind::Ret, write);
                    frame_idx = caller_idx;
                    df = dm.function(caller.func);
                    pc = caller.pc as usize;
                    if RECORD {
                        lines = &dlines[caller.func.index()];
                    }
                }
                DInst::Br { target } => {
                    pc = target as usize;
                    emit!(EventKind::Br, None);
                }
                DInst::CondBr {
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    let c = read!(cond);
                    let taken = c.is_truthy();
                    pc = (if taken { then_pc } else { else_pc }) as usize;
                    emit!(EventKind::CondBr { taken }, None);
                }
                DInst::Output { value, format } => {
                    let v = read!(value);
                    outputs.emit(v, format);
                    emit!(EventKind::Output { format }, None);
                }
                DInst::LoopBegin { id, depth, kind } => {
                    emit!(EventKind::LoopBegin { id, depth, kind }, None);
                }
                DInst::LoopEnd { id } => {
                    emit!(EventKind::LoopEnd { id }, None);
                }
                DInst::LoopIter { id } => {
                    emit!(EventKind::LoopIter { id }, None);
                }
                DInst::Nop => {
                    emit!(EventKind::Nop, None);
                }
            }
            nsteps += 1;
        }
    }
}

fn eval_bin(kind: BinKind, a: Value, b: Value) -> Result<Value, TrapKind> {
    use BinKind::*;
    if kind.is_float() {
        let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
            return Err(TrapKind::TypeMismatch);
        };
        let r = match kind {
            FAdd => x + y,
            FSub => x - y,
            FMul => x * y,
            FDiv => x / y,
            FMin => x.min(y),
            FMax => x.max(y),
            _ => unreachable!("float op"),
        };
        return Ok(Value::F(r));
    }
    let (Some(x), Some(y)) = (a.as_i64(), b.as_i64()) else {
        return Err(TrapKind::TypeMismatch);
    };
    let r = match kind {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        SDiv => {
            if y == 0 {
                return Err(TrapKind::DivisionByZero);
            }
            x.wrapping_div(y)
        }
        SRem => {
            if y == 0 {
                return Err(TrapKind::DivisionByZero);
            }
            x.wrapping_rem(y)
        }
        And => x & y,
        Or => x | y,
        Xor => x ^ y,
        Shl => ((x as u64) << (y as u64 & 63)) as i64,
        LShr => ((x as u64) >> (y as u64 & 63)) as i64,
        AShr => x >> (y as u64 & 63),
        SMin => x.min(y),
        SMax => x.max(y),
        _ => unreachable!("integer op"),
    };
    Ok(Value::I(r))
}

fn eval_cmp(kind: CmpKind, float: bool, a: Value, b: Value) -> Result<bool, TrapKind> {
    if float {
        let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
            return Err(TrapKind::TypeMismatch);
        };
        Ok(match kind {
            CmpKind::Eq => x == y,
            CmpKind::Ne => x != y,
            CmpKind::Lt => x < y,
            CmpKind::Le => x <= y,
            CmpKind::Gt => x > y,
            CmpKind::Ge => x >= y,
        })
    } else {
        // Integer compares also accept pointers (address comparisons).
        let x = match a {
            Value::I(v) => v,
            Value::P(v) => v as i64,
            Value::F(_) => return Err(TrapKind::TypeMismatch),
        };
        let y = match b {
            Value::I(v) => v,
            Value::P(v) => v as i64,
            Value::F(_) => return Err(TrapKind::TypeMismatch),
        };
        Ok(match kind {
            CmpKind::Eq => x == y,
            CmpKind::Ne => x != y,
            CmpKind::Lt => x < y,
            CmpKind::Le => x <= y,
            CmpKind::Gt => x > y,
            CmpKind::Ge => x >= y,
        })
    }
}

fn eval_cast(kind: CastKind, v: Value) -> Result<Value, TrapKind> {
    match kind {
        CastKind::FpToSi => {
            let Some(x) = v.as_f64() else {
                return Err(TrapKind::TypeMismatch);
            };
            Ok(Value::I(x as i64))
        }
        CastKind::SiToFp => {
            let Some(x) = v.as_i64() else {
                return Err(TrapKind::TypeMismatch);
            };
            Ok(Value::F(x as f64))
        }
        CastKind::TruncI32 => {
            let Some(x) = v.as_i64() else {
                return Err(TrapKind::TypeMismatch);
            };
            Ok(Value::I((x as i32) as i64))
        }
        CastKind::FpRound32 => {
            let Some(x) = v.as_f64() else {
                return Err(TrapKind::TypeMismatch);
            };
            Ok(Value::F((x as f32) as f64))
        }
        CastKind::BitcastFtoI => {
            let Some(x) = v.as_f64() else {
                return Err(TrapKind::TypeMismatch);
            };
            Ok(Value::I(x.to_bits() as i64))
        }
        CastKind::BitcastItoF => {
            let Some(x) = v.as_i64() else {
                return Err(TrapKind::TypeMismatch);
            };
            Ok(Value::F(f64::from_bits(x as u64)))
        }
    }
}

fn eval_intrinsic(intrinsic: Intrinsic, args: &[Value]) -> Result<Value, TrapKind> {
    let get = |i: usize| -> Result<f64, TrapKind> {
        args.get(i)
            .and_then(|v| v.as_f64())
            .ok_or(TrapKind::TypeMismatch)
    };
    let r = match intrinsic {
        Intrinsic::Sqrt => get(0)?.sqrt(),
        Intrinsic::Fabs => get(0)?.abs(),
        Intrinsic::Pow => get(0)?.powf(get(1)?),
        Intrinsic::Exp => get(0)?.exp(),
        Intrinsic::Log => get(0)?.ln(),
        Intrinsic::Cos => get(0)?.cos(),
        Intrinsic::Sin => get(0)?.sin(),
    };
    Ok(Value::F(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::prelude::*;
    use ftkr_ir::Global;

    /// sum = 0; for i in 0..10 { sum += i }; store to global; output sum.
    fn sum_module() -> Module {
        let mut m = Module::new("sum");
        let g = m.add_global(Global::zeroed_i64("sum", 1));
        let mut b = FunctionBuilder::new("main");
        let acc = b.alloca("acc", 1);
        let zero = b.const_i64(0);
        b.store(acc, zero);
        let ten = b.const_i64(10);
        b.main_for("main_loop", zero, ten, |b, i| {
            let cur = b.load(acc);
            let next = b.add(cur, i);
            b.store(acc, next);
        });
        let total = b.load(acc);
        let gaddr = b.global_addr(g);
        b.store(gaddr, total);
        b.output(total, OutputFormat::Integer);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn sum_program_computes_45() {
        let r = Vm::new(VmConfig::default()).run(&sum_module()).unwrap();
        assert!(r.outcome.is_completed());
        assert_eq!(r.global_i64("sum").unwrap(), vec![45]);
        assert_eq!(r.outputs.records[0].text, "45");
        assert!(r.trace.is_none());
    }

    #[test]
    fn tracing_records_every_dynamic_instruction() {
        let r = Vm::new(VmConfig::tracing()).run(&sum_module()).unwrap();
        let trace = r.trace.unwrap();
        assert_eq!(trace.len() as u64, r.steps);
        assert_eq!(trace.base_step(), 0);
        // 10 iterations => 10 LoopIter markers.
        let iters = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LoopIter { .. }))
            .count();
        assert_eq!(iters, 10);
        // Every store event writes a memory location.
        assert!(trace
            .iter_views()
            .filter(|(_, v)| matches!(v.event().kind, EventKind::Store))
            .all(|(_, v)| v.written_location().map(|l| l.is_mem()).unwrap_or(false)));
        // The operand pool is exactly covered by the event spans.
        let span_sum: usize = trace.events.iter().map(|e| e.num_reads()).sum();
        assert_eq!(span_sum, trace.num_operands());
    }

    #[test]
    fn presized_tracing_produces_the_same_trace() {
        let module = sum_module();
        let untraced = Vm::new(VmConfig::default()).run(&module).unwrap();
        let plain = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let sized = Vm::new(VmConfig::tracing_sized(untraced.steps))
            .run(&module)
            .unwrap();
        let a = plain.trace.unwrap();
        let b = sized.trace.unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn function_calls_return_values_and_release_allocas() {
        let mut m = Module::new("m");
        let mut callee = FunctionBuilder::with_args("square", 1);
        let x = callee.arg(0);
        let sq = callee.fmul(x, x);
        let tmp = callee.alloca("tmp", 16);
        callee.store(tmp, sq);
        let back = callee.load(tmp);
        callee.ret(Some(back));
        m.add_function(callee.finish());

        let mut main = FunctionBuilder::new("main");
        let three = main.const_f64(3.0);
        let nine = main.call("square", vec![three]);
        main.output(nine, OutputFormat::Full);
        main.ret(None);
        m.add_function(main.finish());

        let r = Vm::new(VmConfig::default()).run(&m).unwrap();
        assert!(r.outcome.is_completed());
        assert_eq!(r.outputs.records[0].value.as_f64().unwrap(), 9.0);
        // The alloca made inside `square` is released: only globals remain.
        assert_eq!(r.memory.valid_len(), r.memory.globals_len());
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let one = b.const_i64(1);
        let zero = b.const_i64(0);
        b.sdiv(one, zero);
        b.ret(None);
        m.add_function(b.finish());
        let r = Vm::new(VmConfig::default()).run(&m).unwrap();
        assert_eq!(r.outcome, RunOutcome::Trapped(TrapKind::DivisionByZero));
    }

    #[test]
    fn out_of_bounds_store_traps() {
        let mut m = Module::new("m");
        m.add_global(Global::zeroed_f64("g", 2));
        let mut b = FunctionBuilder::new("main");
        let gaddr = b.global_addr(GlobalId(0));
        let idx = b.const_i64(100);
        let v = b.const_f64(1.0);
        b.store_idx(gaddr, idx, v);
        b.ret(None);
        m.add_function(b.finish());
        let r = Vm::new(VmConfig::default()).run(&m).unwrap();
        assert_eq!(r.outcome, RunOutcome::Trapped(TrapKind::OutOfBounds));
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let one = b.const_i64(1);
        b.while_loop(
            "forever",
            LoopKind::Main,
            |_b| one,
            |b| {
                b.add(one, one);
            },
        );
        b.ret(None);
        m.add_function(b.finish());
        let config = VmConfig {
            max_steps: 10_000,
            ..Default::default()
        };
        let r = Vm::new(config).run(&m).unwrap();
        assert_eq!(r.outcome, RunOutcome::Trapped(TrapKind::StepLimit));
    }

    #[test]
    fn result_fault_changes_the_computation() {
        let module = sum_module();
        // Find a dynamic add instruction in a fault-free traced run.
        let clean = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let trace = clean.trace.unwrap();
        let (step, _) = trace
            .iter()
            .find(|(_, e)| matches!(e.kind, EventKind::Bin(BinKind::Add)))
            .expect("sum program performs additions");
        let fault = FaultSpec::in_result(step as u64, 5);
        let faulty = Vm::new(VmConfig::with_fault(fault)).run(&module).unwrap();
        assert!(faulty.outcome.is_completed());
        assert_ne!(faulty.global_i64("sum").unwrap(), vec![45]);
    }

    #[test]
    fn memory_fault_at_step_zero_corrupts_initial_global()  {
        let module = sum_module();
        // Global `sum` occupies cell 0; flipping bit 3 before any instruction
        // gives it the value 8, but the program overwrites it => final value
        // is still 45 (the paper's Data Overwriting pattern).
        let fault = FaultSpec::in_memory(0, 0, 3);
        let r = Vm::new(VmConfig::with_fault(fault)).run(&module).unwrap();
        assert!(r.outcome.is_completed());
        assert_eq!(r.global_i64("sum").unwrap(), vec![45]);
    }

    #[test]
    fn faulty_and_clean_runs_have_identical_step_counts_when_completed() {
        let module = sum_module();
        let clean = Vm::new(VmConfig::default()).run(&module).unwrap();
        // A fault in a value that does not steer control flow keeps the step
        // count identical, which is what makes dynamic indices transferable
        // between runs.
        let fault = FaultSpec::in_result(20, 1);
        let faulty = Vm::new(VmConfig::with_fault(fault)).run(&module).unwrap();
        if faulty.outcome.is_completed() {
            assert_eq!(clean.steps, faulty.steps);
        }
    }

    #[test]
    fn intrinsics_evaluate() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let four = b.const_f64(4.0);
        let s = b.sqrt(four);
        b.output(s, OutputFormat::Full);
        let neg = b.const_f64(-3.5);
        let abs = b.fabs(neg);
        b.output(abs, OutputFormat::Full);
        let p = b.pow(b.const_f64(2.0), b.const_f64(10.0));
        b.output(p, OutputFormat::Full);
        b.ret(None);
        m.add_function(b.finish());
        let r = Vm::new(VmConfig::default()).run(&m).unwrap();
        let vals: Vec<f64> = r.outputs.values().iter().map(|v| v.as_f64().unwrap()).collect();
        assert_eq!(vals, vec![2.0, 3.5, 1024.0]);
    }

    #[test]
    fn verification_error_is_propagated() {
        let m = Module::new("empty");
        assert!(Vm::new(VmConfig::default()).run(&m).is_err());
    }

    fn decoded(m: &Module) -> DecodedModule {
        DecodedModule::decode(m)
    }

    /// A visitor that re-materializes the streamed events, for equivalence
    /// checks against ordinary tracing.
    #[derive(Default)]
    struct Rebuild {
        events: Vec<crate::ResolvedEvent>,
        steps: Vec<u64>,
        outcome: Option<RunOutcome>,
    }

    impl crate::TraceVisitor for Rebuild {
        fn on_event(&mut self, ctx: &crate::EventCtx<'_>) {
            self.steps.push(ctx.step);
            self.events.push(crate::ResolvedEvent {
                func: ctx.event.func,
                frame: ctx.event.frame,
                inst: ctx.event.inst,
                line: ctx.event.line,
                kind: ctx.event.kind.clone(),
                reads: ctx
                    .reads
                    .iter()
                    .map(|&(id, v)| (ctx.location(id), v))
                    .collect(),
                write: ctx.event.write.map(|(id, v)| (ctx.location(id), v)),
            });
        }
        fn on_finish(&mut self, end: &crate::WalkEnd<'_>) {
            self.outcome = end.outcome;
        }
    }

    #[test]
    fn streaming_visitors_see_exactly_the_materialized_trace() {
        let module = sum_module();
        let dm = decoded(&module);
        let traced = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let trace = traced.trace.unwrap();

        let mut rebuild = Rebuild::default();
        let streamed = Vm::new(VmConfig::default())
            .run_with_visitors_decoded(&module, &dm, &mut [&mut rebuild])
            .unwrap();

        assert!(streamed.trace.is_none(), "streaming must not materialize");
        assert_eq!(streamed.steps, traced.steps);
        assert_eq!(rebuild.outcome, Some(RunOutcome::Completed));
        assert_eq!(rebuild.events.len(), trace.len());
        for (i, got) in rebuild.events.iter().enumerate() {
            assert_eq!(got, &trace.resolved(i), "event {i} differs");
            assert_eq!(rebuild.steps[i], trace.step_of(i));
        }
        // The memory image and outputs match an untraced run's.
        assert_eq!(streamed.global_i64("sum").unwrap(), vec![45]);
    }

    #[test]
    fn streaming_respects_faults() {
        let module = sum_module();
        let fault = FaultSpec::in_result(20, 1);
        let traced = Vm::new(VmConfig::tracing_with_fault(fault))
            .run(&module)
            .unwrap();
        let trace = traced.trace.unwrap();

        let mut rebuild = Rebuild::default();
        let streamed = Vm::new(VmConfig::with_fault(fault))
            .run_with_visitors_decoded(&module, &decoded(&module), &mut [&mut rebuild])
            .unwrap();
        assert_eq!(rebuild.events.len(), trace.len());
        for (i, got) in rebuild.events.iter().enumerate() {
            assert_eq!(got, &trace.resolved(i), "faulty event {i} differs");
            assert_eq!(rebuild.steps[i], i as u64);
        }
        let untraced = Vm::new(VmConfig::with_fault(fault)).run(&module).unwrap();
        assert!(streamed == untraced, "streaming changed the faulty run");
    }

    #[test]
    fn streaming_reports_traps_through_on_finish() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let one = b.const_i64(1);
        let zero = b.const_i64(0);
        b.sdiv(one, zero);
        b.ret(None);
        m.add_function(b.finish());
        let mut rebuild = Rebuild::default();
        let r = Vm::new(VmConfig::default())
            .run_with_visitors_decoded(&m, &decoded(&m), &mut [&mut rebuild])
            .unwrap();
        assert_eq!(r.outcome, RunOutcome::Trapped(TrapKind::DivisionByZero));
        assert_eq!(
            rebuild.outcome,
            Some(RunOutcome::Trapped(TrapKind::DivisionByZero))
        );
        // The trapping instruction itself records no event (constants are
        // operands, so the division is the very first instruction).
        assert_eq!(rebuild.events.len(), 0);
    }

    // -- detaching settled visitors ------------------------------------------

    /// A visitor that settles after its `k`-th event.
    struct SettleAfter {
        k: usize,
        rebuild: Rebuild,
        end_events: Option<usize>,
        end_locations: Option<usize>,
    }

    impl SettleAfter {
        fn new(k: usize) -> Self {
            SettleAfter {
                k,
                rebuild: Rebuild::default(),
                end_events: None,
                end_locations: None,
            }
        }
    }

    impl crate::TraceVisitor for SettleAfter {
        fn on_event(&mut self, ctx: &crate::EventCtx<'_>) {
            self.rebuild.on_event(ctx);
        }
        fn on_finish(&mut self, end: &crate::WalkEnd<'_>) {
            self.end_events = Some(end.events);
            self.end_locations = Some(end.locations.len());
            self.rebuild.on_finish(end);
        }
        fn settled(&self) -> bool {
            self.rebuild.events.len() >= self.k
        }
    }

    /// Settling after every possible event count — on the compare half of
    /// a fused compare-branch included — delivers exactly that many events
    /// and leaves the run's result untouched, cold and resumed.
    #[test]
    fn a_settled_visitor_receives_exactly_its_events_and_the_run_is_unchanged() {
        let module = sum_module();
        let dm = decoded(&module);
        let full = Vm::new(VmConfig::tracing())
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        let untraced = Vm::new(VmConfig::default()).run(&module).unwrap();
        let fork = 7;
        let snap = Vm::new(VmConfig::default())
            .snapshot_at(&module, fork)
            .unwrap()
            .expect("mid-run step");
        let steps = full.len();
        let mut settled_on_compare_half = false;
        for k in 0..=steps + 1 {
            let mut cold = SettleAfter::new(k);
            let r = Vm::new(VmConfig::default())
                .run_with_visitors_decoded(&module, &dm, &mut [&mut cold])
                .unwrap();
            assert!(r == untraced, "settled after {k}: run changed");
            let delivered = k.min(steps);
            assert_eq!(cold.rebuild.events.len(), delivered, "settled after {k}");
            assert_eq!(cold.end_events, Some(delivered));
            assert_eq!(cold.rebuild.outcome, Some(RunOutcome::Completed));
            for (i, got) in cold.rebuild.events.iter().enumerate() {
                assert_eq!(got, &full.resolved(i), "settled after {k}: event {i}");
            }
            if let Some(last) = k.checked_sub(1).and_then(|i| full.events.get(i)) {
                // The last delivered event is the compare half of a fused pair.
                settled_on_compare_half |= dm
                    .function(last.func)
                    .slots
                    .iter()
                    .any(|s| s.result == last.inst && matches!(s.inst, DInst::CmpBr { .. }));
            }

            let mut resumed = SettleAfter::new(k);
            let r = Vm::new(VmConfig::default())
                .resume_with_visitors_decoded(&module, &dm, &snap, &mut [&mut resumed])
                .unwrap();
            assert!(r == untraced, "resumed, settled after {k}: run changed");
            let delivered = k.min(steps - fork as usize);
            assert_eq!(
                resumed.rebuild.events.len(),
                delivered,
                "resumed, settled after {k}"
            );
            assert_eq!(resumed.end_events, Some(fork as usize + delivered));
            for (i, got) in resumed.rebuild.events.iter().enumerate() {
                assert_eq!(
                    got,
                    &full.resolved(fork as usize + i),
                    "resumed after {k}: event {i}"
                );
            }
        }
        assert!(
            settled_on_compare_half,
            "no k settled between the halves of a fused pair"
        );
    }

    /// A trap after the detach still reaches `on_finish` with the trap.
    #[test]
    fn a_trap_after_the_detach_reaches_on_finish() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let zero = b.const_i64(0);
        let ten = b.const_i64(10);
        b.main_for("warm_up", zero, ten, |b, i| {
            b.add(i, i);
        });
        let one = b.const_i64(1);
        b.sdiv(one, zero);
        b.ret(None);
        m.add_function(b.finish());
        let untraced = Vm::new(VmConfig::default()).run(&m).unwrap();
        assert_eq!(
            untraced.outcome,
            RunOutcome::Trapped(TrapKind::DivisionByZero)
        );
        let mut v = SettleAfter::new(3);
        let r = Vm::new(VmConfig::default())
            .run_with_visitors_decoded(&m, &decoded(&m), &mut [&mut v])
            .unwrap();
        assert!(r == untraced);
        assert_eq!(v.rebuild.events.len(), 3);
        assert_eq!(v.end_events, Some(3));
        assert_eq!(
            v.rebuild.outcome,
            Some(RunOutcome::Trapped(TrapKind::DivisionByZero))
        );
    }

    /// Recording never resumes once it stops, so a run whose visitor is
    /// settled from the start interns nothing: not even the computed
    /// argument of a call.
    #[test]
    fn a_detached_run_interns_nothing() {
        let mut m = Module::new("m");
        let mut callee = FunctionBuilder::with_args("twice", 1);
        let x = callee.arg(0);
        let y = callee.fadd(x, x);
        callee.ret(Some(y));
        m.add_function(callee.finish());
        let mut main = FunctionBuilder::new("main");
        let one = main.const_f64(1.0);
        let two = main.fadd(one, one);
        let r = main.call("twice", vec![two]);
        main.output(r, OutputFormat::Full);
        main.ret(None);
        m.add_function(main.finish());

        let untraced = Vm::new(VmConfig::default()).run(&m).unwrap();
        let mut v = SettleAfter::new(0);
        let r = Vm::new(VmConfig::default())
            .run_with_visitors_decoded(&m, &decoded(&m), &mut [&mut v])
            .unwrap();
        assert!(v.rebuild.events.is_empty(), "a settled visitor gets no event");
        assert_eq!(v.end_locations, Some(0), "a detached run interns nothing");
        assert!(r == untraced, "detaching changed the run");
    }

    /// A visitor with a fixed watch: records the events it is delivered,
    /// the skipped loads it is told of, and the end of the walk.
    #[derive(Default)]
    struct Watching {
        tainted: Vec<u64>,
        chains: Vec<u32>,
        strike: u64,
        known: usize,
        delivered: Vec<usize>,
        skipped_loads: Vec<(usize, LocationId)>,
        end: Option<(usize, Option<RunOutcome>)>,
    }

    impl crate::TraceVisitor for Watching {
        fn on_event(&mut self, ctx: &crate::EventCtx<'_>) {
            self.delivered.push(ctx.index);
        }
        fn on_finish(&mut self, end: &crate::WalkEnd<'_>) {
            self.end = Some((end.events, end.outcome));
        }
        fn watch(&self) -> Option<crate::Watch<'_>> {
            Some(crate::Watch {
                tainted: &self.tainted,
                chains: &self.chains,
                strike: self.strike,
                known: self.known,
                all: false,
            })
        }
        fn on_skipped_load(&mut self, index: usize, cell: LocationId) {
            self.skipped_loads.push((index, cell));
        }
    }

    /// One fully delivered event: index, reads, written id, the location
    /// table's length after it, and its kind.
    type Seen = (
        usize,
        Vec<(LocationId, Value)>,
        Option<LocationId>,
        usize,
        EventKind,
    );

    /// Every event of a run, delivered in full (no watch).
    #[derive(Default)]
    struct Every(Vec<Seen>);

    impl crate::TraceVisitor for Every {
        fn on_event(&mut self, ctx: &crate::EventCtx<'_>) {
            self.0.push((
                ctx.index,
                ctx.reads.to_vec(),
                ctx.event.written_id(),
                ctx.locations.len(),
                ctx.event.kind.clone(),
            ));
        }
        fn on_finish(&mut self, _end: &crate::WalkEnd<'_>) {}
    }

    /// A watching visitor gets exactly the events its watch wants, cold and
    /// resumed, plus `on_skipped_load` for every skipped load and for
    /// nothing else; the walk's end counts the skipped events; the run is
    /// unchanged.  A set of two watching visitors is never gated.
    #[test]
    fn a_watching_visitor_receives_exactly_the_wanted_events() {
        let (mut skipped_loads, mut skipped_others) = (0, 0);
        for module in [sum_module(), call_module()] {
            let dm = decoded(&module);
            let vm = Vm::new(VmConfig::default());
            let untraced = vm.run(&module).unwrap();
            let mut every = Every::default();
            vm.run_with_visitors_decoded(&module, &dm, &mut [&mut every])
                .unwrap();
            let all = every.0;
            let n = all.len();
            assert_eq!(n as u64, untraced.steps);
            // Taint the first result a binary op writes, watch writes to the
            // last cell stored, strike mid-run, and cover the location table
            // as it stood a quarter into the run.
            let first_bin = all.iter().find(|e| matches!(e.4, EventKind::Bin(_)));
            let tainted_id = first_bin.and_then(|e| e.2).expect("a binary op").index();
            let mut tainted = vec![0u64; tainted_id / 64 + 1];
            tainted[tainted_id / 64] |= 1 << (tainted_id % 64);
            let last_store = all.iter().rev().find(|e| e.4 == EventKind::Store);
            let chained = last_store.and_then(|e| e.2).expect("a store").index();
            let mut chains = vec![crate::Watch::NO_CHAIN; chained + 1];
            chains[chained] = 0;
            let watching = || Watching {
                tainted: tainted.clone(),
                chains: chains.clone(),
                strike: n as u64 / 2,
                known: all[n / 4].3,
                ..Watching::default()
            };
            let expect = |w: &Watching, from: usize| {
                let watch = crate::TraceVisitor::watch(w).unwrap();
                let mut delivered = Vec::new();
                let mut loads = Vec::new();
                for (index, reads, write, nlocs, kind) in &all[from..] {
                    if watch.wants(*index, reads, *write, *nlocs) {
                        delivered.push(*index);
                    } else if *kind == EventKind::Load {
                        loads.push((*index, reads.last().unwrap().0));
                    }
                }
                (delivered, loads)
            };

            let mut cold = watching();
            let r = vm
                .run_with_visitors_decoded(&module, &dm, &mut [&mut cold])
                .unwrap();
            assert!(r == untraced, "{}: run changed", module.name);
            let (delivered, loads) = expect(&cold, 0);
            assert_eq!(cold.delivered, delivered, "{}", module.name);
            assert_eq!(cold.skipped_loads, loads, "{}", module.name);
            assert_eq!(cold.end, Some((n, Some(RunOutcome::Completed))));
            skipped_loads += loads.len();
            skipped_others += n - delivered.len() - loads.len();

            for fork in [1, n / 3, n - 1] {
                let snap = vm
                    .snapshot_at(&module, fork as u64)
                    .unwrap()
                    .expect("mid-run step");
                let mut resumed = watching();
                let r = vm
                    .resume_with_visitors_decoded(&module, &dm, &snap, &mut [&mut resumed])
                    .unwrap();
                assert!(
                    r == untraced,
                    "{} resumed at {fork}: run changed",
                    module.name
                );
                let (delivered, loads) = expect(&resumed, fork);
                assert_eq!(
                    resumed.delivered, delivered,
                    "{} resumed at {fork}",
                    module.name
                );
                assert_eq!(
                    resumed.skipped_loads, loads,
                    "{} resumed at {fork}",
                    module.name
                );
                assert_eq!(resumed.end, Some((n, Some(RunOutcome::Completed))));
            }

            let (mut a, mut b) = (watching(), watching());
            let mut set: [&mut dyn crate::TraceVisitor; 2] = [&mut a, &mut b];
            vm.run_with_visitors_decoded(&module, &dm, &mut set)
                .unwrap();
            for v in [&a, &b] {
                assert_eq!(
                    v.delivered,
                    (0..n).collect::<Vec<_>>(),
                    "{}: gated set",
                    module.name
                );
                assert!(v.skipped_loads.is_empty());
            }
        }
        assert!(skipped_loads > 0, "no load was skipped");
        assert!(skipped_others > 0, "only loads were skipped");
    }

    /// A trap after a stretch of skipped events still reaches `on_finish`,
    /// whose event count includes the skipped events.
    #[test]
    fn a_trap_after_skipped_events_reaches_on_finish() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let zero = b.const_i64(0);
        let ten = b.const_i64(10);
        b.main_for("warm_up", zero, ten, |b, i| {
            b.add(i, i);
        });
        let one = b.const_i64(1);
        b.sdiv(one, zero);
        b.ret(None);
        m.add_function(b.finish());
        let untraced = Vm::new(VmConfig::default()).run(&m).unwrap();
        assert_eq!(
            untraced.outcome,
            RunOutcome::Trapped(TrapKind::DivisionByZero)
        );
        // Wants nothing: no taint, no chain, no strike, every table covered.
        let mut v = Watching {
            strike: u64::MAX,
            known: usize::MAX,
            ..Watching::default()
        };
        let r = Vm::new(VmConfig::default())
            .run_with_visitors_decoded(&m, &decoded(&m), &mut [&mut v])
            .unwrap();
        assert!(r == untraced);
        assert!(v.delivered.is_empty());
        assert_eq!(
            v.end,
            Some((
                untraced.steps as usize,
                Some(RunOutcome::Trapped(TrapKind::DivisionByZero))
            ))
        );
    }

    // -- snapshot/restore --------------------------------------------------

    /// The call module of `function_calls_return_values_and_release_allocas`:
    /// steps 1..=5 execute inside the `square` frame.
    fn call_module() -> Module {
        let mut m = Module::new("m");
        let mut callee = FunctionBuilder::with_args("square", 1);
        let x = callee.arg(0);
        let sq = callee.fmul(x, x);
        let tmp = callee.alloca("tmp", 16);
        callee.store(tmp, sq);
        let back = callee.load(tmp);
        callee.ret(Some(back));
        m.add_function(callee.finish());
        let mut main = FunctionBuilder::new("main");
        let three = main.const_f64(3.0);
        let nine = main.call("square", vec![three]);
        main.output(nine, OutputFormat::Full);
        main.ret(None);
        m.add_function(main.finish());
        m
    }

    #[test]
    fn snapshot_at_step_zero_resumes_the_whole_run() {
        let module = sum_module();
        let vm = Vm::new(VmConfig::default());
        let cold = vm.run(&module).unwrap();
        let snap = vm.snapshot_at(&module, 0).unwrap().expect("step 0 exists");
        assert_eq!(snap.step(), 0);
        assert_eq!(snap.events_emitted(), 0);
        assert_eq!(snap.frame_depth(), 1, "entry frame is pushed");
        let resumed = vm
            .resume_from_decoded(&module, &decoded(&module), &snap)
            .unwrap();
        assert_eq!(resumed, cold);
    }

    #[test]
    fn snapshot_at_the_final_step_executes_one_instruction() {
        let module = sum_module();
        let vm = Vm::new(VmConfig::default());
        let cold = vm.run(&module).unwrap();
        let last = cold.steps - 1;
        let snap = vm
            .snapshot_at(&module, last)
            .unwrap()
            .expect("final step exists");
        assert_eq!(snap.step(), last);
        let resumed = vm
            .resume_from_decoded(&module, &decoded(&module), &snap)
            .unwrap();
        assert_eq!(resumed, cold);
        // One past the final step: the program completes first.
        assert!(vm.snapshot_at(&module, cold.steps).unwrap().is_none());
        assert!(vm.snapshot_at(&module, u64::MAX).unwrap().is_none());
    }

    #[test]
    fn snapshot_inside_a_callee_frame_restores_the_frame_stack() {
        let module = call_module();
        let vm = Vm::new(VmConfig::default());
        let cold = vm.run(&module).unwrap();
        // Step 3 is the callee's store: two live frames, one live alloca.
        let snap = vm.snapshot_at(&module, 3).unwrap().expect("mid-run step");
        assert_eq!(snap.frame_depth(), 2, "snapshot taken inside the callee");
        assert!(
            snap.memory_cells() > 0,
            "the callee's alloca is live at the fork point"
        );
        let resumed = vm
            .resume_from_decoded(&module, &decoded(&module), &snap)
            .unwrap();
        assert_eq!(resumed, cold);
        // The callee's alloca was released on return, as in the cold run.
        assert_eq!(resumed.memory.valid_len(), resumed.memory.globals_len());
    }

    #[test]
    fn snapshot_resident_bytes_count_every_frames_register_tables() {
        use std::mem::size_of;
        let module = call_module();
        let snap = Vm::new(VmConfig::default())
            .snapshot_at(&module, 3)
            .unwrap()
            .expect("mid-run step");
        let img = snap.image();
        assert_eq!(img.frames.len(), 2, "snapshot taken inside the callee");
        let mut tables = 0;
        for f in &img.frames {
            assert!(!f.regs.is_empty());
            assert_eq!(f.reg_ids.len(), f.regs.len(), "one id per register cell");
            tables +=
                f.regs.len() * size_of::<Option<Value>>() + f.reg_ids.len() * size_of::<u32>();
        }
        let inline = img.memory.resident_bytes()
            + img.frames.len() * size_of::<Frame>()
            + img.locations.len() * size_of::<Location>()
            + img.mem_ids.len() * size_of::<u32>()
            + size_of::<SnapshotImage>();
        assert_eq!(snap.resident_bytes(), inline + tables);
    }

    #[test]
    fn resumed_tracing_records_exactly_the_trace_tail() {
        let module = sum_module();
        let full = Vm::new(VmConfig::tracing())
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        let fork = 17u64;
        let snap = Vm::new(VmConfig::default())
            .snapshot_at(&module, fork)
            .unwrap()
            .expect("mid-run step");
        let resumed = Vm::new(VmConfig::tracing())
            .resume_from_decoded(&module, &decoded(&module), &snap)
            .unwrap()
            .trace
            .unwrap();
        assert_eq!(resumed.base_step(), fork);
        assert_eq!(resumed.len() as u64, full.len() as u64 - fork);
        for i in 0..resumed.len() {
            assert_eq!(
                resumed.resolved(i),
                full.resolved(fork as usize + i),
                "resumed event {i} differs"
            );
        }
    }

    #[test]
    fn double_restore_from_one_snapshot_does_not_leak_state() {
        let module = sum_module();
        let plain = Vm::new(VmConfig::default());
        let cold = plain.run(&module).unwrap();
        let snap = plain.snapshot_at(&module, 10).unwrap().expect("mid-run");

        // First restore runs with a fault that corrupts the accumulator…
        let fault = FaultSpec::in_memory(12, 0, 40);
        let faulty1 = Vm::new(VmConfig::with_fault(fault))
            .resume_from_decoded(&module, &decoded(&module), &snap)
            .unwrap();
        // …the second, fault-free restore must still equal the cold run: the
        // faulty resume must not have mutated the shared snapshot image.
        let clean = plain
            .resume_from_decoded(&module, &decoded(&module), &snap)
            .unwrap();
        assert_eq!(clean, cold);
        // And a repeated faulty restore reproduces the first bit-for-bit.
        let faulty2 = Vm::new(VmConfig::with_fault(fault))
            .resume_from_decoded(&module, &decoded(&module), &snap)
            .unwrap();
        assert_eq!(faulty1, faulty2);
    }

    #[test]
    fn fault_at_the_fork_step_strikes_identically_to_a_cold_run() {
        let module = sum_module();
        let fork = 20u64;
        let snap = Vm::new(VmConfig::default())
            .snapshot_at(&module, fork)
            .unwrap()
            .expect("mid-run step");
        // Both fault targets, striking exactly at the fork step: a memory
        // fault fires before the first resumed instruction, a result fault
        // applies to it.
        for fault in [
            FaultSpec::in_result(fork, 5),
            FaultSpec::in_memory(fork, 0, 3),
        ] {
            let vm = Vm::new(VmConfig::with_fault(fault));
            let cold = vm.run(&module).unwrap();
            let forked = vm
                .resume_from_decoded(&module, &decoded(&module), &snap)
                .unwrap();
            assert_eq!(forked, cold, "fault {fault:?}");
        }
    }

    // -- dispatch semantics ---------------------------------------------------

    /// Both dispatch instantiations (recording and not) execute the same
    /// program: they end in the same outcome, step count, outputs and
    /// memory.
    #[test]
    fn every_configuration_executes_the_same_program() {
        for module in [sum_module(), call_module()] {
            let plain = Vm::new(VmConfig::default()).run(&module).unwrap();
            let r = Vm::new(VmConfig::tracing()).run(&module).unwrap();
            assert_eq!(r.outcome, plain.outcome);
            assert_eq!(r.steps, plain.steps);
            assert_eq!(r.outputs, plain.outputs);
            assert_eq!(r.memory, plain.memory);
        }
    }

    /// Recorded source lines, delta-decoded from the dispatch tables, are the
    /// IR instructions' own lines.
    #[test]
    fn recorded_lines_are_the_instructions_source_lines() {
        for module in [sum_module(), call_module()] {
            let trace = Vm::new(VmConfig::tracing())
                .run(&module)
                .unwrap()
                .trace
                .unwrap();
            assert!(!trace.is_empty());
            for e in &trace.events {
                assert_eq!(e.line, module.function(e.func).inst(e.inst).line, "{e:?}");
            }
        }
    }

    /// A fault at every step, both targets: untraced and recording runs
    /// (both yield at the fault boundary) agree; the recorded run
    /// equals the clean trace before the fault; and a result fault flips
    /// exactly the value the struck instruction writes.
    #[test]
    fn faults_at_every_step_strike_identically_in_every_dispatch() {
        let module = sum_module();
        let clean = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let full = clean.trace.as_ref().unwrap();
        for step in 0..clean.steps {
            for fault in [
                FaultSpec::in_result(step, 7),
                FaultSpec::in_memory(step, 0, 3),
            ] {
                let traced = Vm::new(VmConfig::tracing_with_fault(fault))
                    .run(&module)
                    .unwrap();
                let untraced = Vm::new(VmConfig::with_fault(fault)).run(&module).unwrap();
                assert_eq!(untraced.outcome, traced.outcome, "fault {fault:?}");
                assert_eq!(untraced.steps, traced.steps, "fault {fault:?}");
                assert_eq!(untraced.outputs, traced.outputs, "fault {fault:?}");
                assert_eq!(untraced.memory, traced.memory, "fault {fault:?}");

                let t = traced.trace.as_ref().unwrap();
                let at = step as usize;
                for i in 0..at.min(t.len()) {
                    assert_eq!(t.resolved(i), full.resolved(i), "fault {fault:?} event {i}");
                }
                let struck = full.resolved(at);
                let faults_result = matches!(fault.target, FaultTarget::InstructionResult)
                    && !matches!(struck.kind, EventKind::Alloca { .. });
                if let (true, Some((loc, v))) = (faults_result, struck.write) {
                    assert_eq!(
                        t.resolved(at).write,
                        Some((loc, v.flip_bit(7))),
                        "step {step}"
                    );
                }
            }
        }
    }

    /// Capture at every step of a loop whose compare-branches are fused —
    /// each branch half included — and resume untraced, traced and streamed:
    /// every resume equals the cold run, and a fault at the fork step strikes
    /// exactly as it does cold.
    #[test]
    fn capture_at_every_step_resumes_like_the_cold_run() {
        use ftkr_ir::decode::DInst;

        let module = sum_module();
        let dm = decoded(&module);
        assert!(
            dm.functions.iter().any(|f| f
                .slots
                .iter()
                .any(|s| matches!(s.inst, DInst::CmpBr { .. }))),
            "the loop header must fuse into a compare-branch"
        );
        let plain = Vm::new(VmConfig::default());
        let cold = plain.run(&module).unwrap();
        let full = Vm::new(VmConfig::tracing())
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        let mut cold_stream = Rebuild::default();
        plain
            .run_with_visitors_decoded(&module, &dm, &mut [&mut cold_stream])
            .unwrap();

        let mut branch_halves = 0;
        for fork in 0..cold.steps {
            let snap = plain.snapshot_at(&module, fork).unwrap().expect("mid-run");
            assert_eq!(snap.step(), fork);
            let at = fork as usize;
            if at > 0
                && matches!(full.events[at].kind, EventKind::CondBr { .. })
                && matches!(full.events[at - 1].kind, EventKind::Cmp { .. })
            {
                branch_halves += 1;
            }

            let resumed = plain.resume_from_decoded(&module, &dm, &snap).unwrap();
            assert_eq!(resumed, cold, "untraced resume at fork {fork}");

            let traced = Vm::new(VmConfig::tracing())
                .resume_from_decoded(&module, &dm, &snap)
                .unwrap();
            assert_eq!(traced.steps, cold.steps, "traced resume at fork {fork}");
            assert_eq!(traced.outputs, cold.outputs, "traced resume at fork {fork}");
            assert_eq!(traced.memory, cold.memory, "traced resume at fork {fork}");
            let tail = traced.trace.unwrap();
            assert_eq!(tail.base_step(), fork);
            assert_eq!(tail.len(), full.len() - at);
            for i in 0..tail.len() {
                assert_eq!(
                    tail.resolved(i),
                    full.resolved(at + i),
                    "fork {fork} event {i}"
                );
            }

            let mut streamed = Rebuild::default();
            let streamed_run = plain
                .resume_with_visitors_decoded(&module, &dm, &snap, &mut [&mut streamed])
                .unwrap();
            assert_eq!(streamed_run, cold, "streamed resume at fork {fork}");
            let skip = snap.events_emitted() as usize;
            assert_eq!(streamed.events, cold_stream.events[skip..], "fork {fork}");
            assert_eq!(streamed.steps, cold_stream.steps[skip..], "fork {fork}");

            for fault in [
                FaultSpec::in_result(fork, 5),
                FaultSpec::in_memory(fork, 0, 3),
            ] {
                let vm = Vm::new(VmConfig::with_fault(fault));
                let forked = vm.resume_from_decoded(&module, &dm, &snap).unwrap();
                assert_eq!(
                    forked,
                    vm.run(&module).unwrap(),
                    "fork {fork} fault {fault:?}"
                );
            }
        }
        assert!(
            branch_halves > 0,
            "some fork points fall between fused halves"
        );
    }

    /// Every step limit stops the run after exactly that many steps — also
    /// between the halves of a fused pair — with the recorded trace equal to
    /// the clean trace's prefix and the untraced run in the same state.
    #[test]
    fn step_limits_stop_after_exactly_the_limit() {
        let module = sum_module();
        let clean = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let full = clean.trace.as_ref().unwrap();
        for limit in 0..=clean.steps {
            let config = |record_trace| VmConfig {
                max_steps: limit,
                record_trace,
                ..Default::default()
            };
            let traced = Vm::new(config(true)).run(&module).unwrap();
            let untraced = Vm::new(config(false)).run(&module).unwrap();
            let expected = if limit < clean.steps {
                RunOutcome::Trapped(TrapKind::StepLimit)
            } else {
                RunOutcome::Completed
            };
            assert_eq!(traced.outcome, expected, "limit {limit}");
            assert_eq!(traced.steps, limit, "limit {limit}");
            assert_eq!(untraced.outcome, expected, "limit {limit}");
            assert_eq!(untraced.steps, limit, "limit {limit}");
            assert_eq!(untraced.outputs, traced.outputs, "limit {limit}");
            assert_eq!(untraced.memory, traced.memory, "limit {limit}");
            let t = traced.trace.unwrap();
            assert_eq!(t.len() as u64, limit);
            for i in 0..t.len() {
                assert_eq!(t.resolved(i), full.resolved(i), "limit {limit} event {i}");
            }
        }
    }

    #[test]
    fn a_trap_mid_program_stops_before_the_trapping_step() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let one = b.const_i64(1);
        let zero = b.const_i64(0);
        let x = b.add(one, one);
        b.sdiv(x, zero);
        b.ret(None);
        m.add_function(b.finish());
        let traced = Vm::new(VmConfig::tracing()).run(&m).unwrap();
        let untraced = Vm::new(VmConfig::default()).run(&m).unwrap();
        for r in [&traced, &untraced] {
            assert_eq!(r.outcome, RunOutcome::Trapped(TrapKind::DivisionByZero));
            assert_eq!(r.steps, 1, "the trapping division is not counted");
        }
        assert_eq!(untraced.memory, traced.memory);
        // Only the add is recorded; the division's pooled read is dropped.
        let t = traced.trace.unwrap();
        assert_eq!(t.len(), 1);
        assert!(matches!(t.events[0].kind, EventKind::Bin(BinKind::Add)));
        let span_sum: usize = t.events.iter().map(|e| e.num_reads()).sum();
        assert_eq!(span_sum, t.num_operands());
    }
}
