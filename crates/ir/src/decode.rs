//! Pre-decoded execution tables: each function of a verified module
//! lowered once into one dense array of dispatch slots over a flat
//! per-frame register file.
//!
//! The IR keeps heap [`Op`] enums reached through three indirections
//! (function → block → instruction table).  [`DecodedModule::decode`]
//! verifies the module once, stores the verdict, and lowers every function
//! into a [`DecodedFunction`] — the only form the `ftkr-vm` interpreter
//! executes — with:
//!
//! - **one slot per instruction** ([`Slot`]), indexed by the instruction's
//!   *pc*, its position in block order: the decoded instruction with block
//!   targets resolved to pcs, its result register and the fused-tail flag.
//!   A dispatched step is one slot load;
//! - **flat register operands** ([`Reg`]): every operand is an index into
//!   one per-frame register file laid out as results | arguments |
//!   constants | global bases, so a read is one indexed load (recording
//!   runs keep a parallel table of the location each cell reads);
//! - **pre-resolved callees**: `Op::Call`'s by-name lookup becomes a stored
//!   [`FunctionId`];
//! - **typed slots**: the hot binary operations (`FAdd`, `FSub`, `FMul`,
//!   `FDiv`, `Add`, `Sub`, `Mul`) each have a slot of their own kind, so
//!   dispatch selects the operation once and checks the operand kinds inline;
//! - **integer immediates**: an integer `Add` or `Mul` with an
//!   [`Operand::ConstI`] on either side ([`DInst::AddI`], [`DInst::MulI`])
//!   and an integer compare-branch against one ([`DInst::CmpBrI`]) carry the
//!   constant in the slot.  Only commutative integer operations move a
//!   constant to the right; float operands never swap, since a NaN result's
//!   payload depends on operand order;
//! - **fused pairs** under one head/tail protocol ([`DInst::fuses_next`]): a
//!   `Cmp` consumed by the block-terminating `CondBr` (the dominant loop
//!   back-edge shape: [`DInst::CmpBr`], [`DInst::CmpBrI`],
//!   [`DInst::FCmpBr`]), and a `Gep` whose result the next `Load` or `Store`
//!   uses as its address ([`DInst::GepLoad`], [`DInst::GepStore`]), execute
//!   as one dispatch;
//! - **delta-encoded source lines**: per-instruction lines are stored as
//!   `i16` deltas against the previous instruction (with an escape table for
//!   rare large jumps) and materialized only by tracing runs.
//!
//! Decoding is pure table construction: the decoded program is *semantically
//! identical* to the original — one dynamic step per original instruction,
//! fused pairs included.  A call frame's program counter is the pc of its
//! next instruction, and the second half of a fused pair keeps a slot of its
//! own (an ordinary `CondBr`, `Load` or `Store` flagged [`Slot::tail`]), so
//! a run that must stop between the two halves — at a fault step, the step
//! limit, a snapshot's capture step, or once its visitors settle — resumes
//! on the tail slot alone, without depending on fusion.

use crate::function::{Function, FunctionId};
use crate::global::GlobalId;
use crate::inst::{
    BinKind, CastKind, CmpKind, Intrinsic, LoopId, LoopKind, Op, Operand, OutputFormat, ValueId,
};
use crate::module::Module;
use crate::verify::{verify_executable, VerifyError};

/// A flat index into a frame's register file.
///
/// | cells | hold |
/// |-------|------|
/// | `[0, num_insts)` | the result of instruction [`ValueId`]`(index)` |
/// | `[num_insts, num_insts + num_args)` | the frame's arguments |
/// | from `num_insts + num_args` | [`DecodedFunction::consts`], in order |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reg(pub u32);

impl Reg {
    /// The cell index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The value a constant cell of the register file starts with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegConst {
    /// Integer constant.
    I(i64),
    /// Float constant.
    F(f64),
    /// Base address of a global.
    Global(GlobalId),
}

impl RegConst {
    /// Pool identity: floats compare by bit pattern, so `-0.0` and NaN
    /// payloads keep cells of their own.
    fn same(self, other: RegConst) -> bool {
        match (self, other) {
            (RegConst::I(a), RegConst::I(b)) => a == b,
            (RegConst::F(a), RegConst::F(b)) => a.to_bits() == b.to_bits(),
            (RegConst::Global(a), RegConst::Global(b)) => a == b,
            _ => false,
        }
    }
}

/// Span into [`DecodedFunction::args_pool`] holding a call's argument
/// registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgSpan {
    /// First pooled operand.
    pub offset: u32,
    /// Number of operands.
    pub len: u32,
}

impl ArgSpan {
    /// The pool range covered by this span.
    pub fn range(self) -> std::ops::Range<usize> {
        self.offset as usize..(self.offset + self.len) as usize
    }
}

/// One decoded instruction: the flat, heap-free lowering of an [`Op`].
///
/// Block targets are pcs (the slot index of the target block's first
/// instruction); `Alloca` drops its debug name and `Call` its callee string
/// (both resolved at decode time).
///
/// The hot binary operations have slots of their own kind (`FAdd` … `Mul`),
/// and integer `Add` and `Mul` with a constant operand carry it as an
/// immediate (`AddI`, `MulI`).  The fused heads ([`DInst::fuses_next`]) —
/// `CmpBr`, `CmpBrI`, `FCmpBr`, `GepLoad` and `GepStore` — each cover *two*
/// original instructions: their own and the next one, which reads their
/// result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DInst {
    /// Float addition (`BinKind::FAdd`).
    FAdd {
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Float subtraction (`BinKind::FSub`).
    FSub {
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Float multiplication (`BinKind::FMul`).
    FMul {
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Float division (`BinKind::FDiv`).
    FDiv {
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Integer addition (`BinKind::Add`) of two registers.
    Add {
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Integer subtraction (`BinKind::Sub`).
    Sub {
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Integer multiplication (`BinKind::Mul`) of two registers.
    Mul {
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Integer addition of an [`Operand::ConstI`], on either side of the
    /// original `Add` (addition commutes).
    AddI {
        /// The other operand.
        lhs: Reg,
        /// The constant.
        imm: i64,
    },
    /// Integer multiplication by an [`Operand::ConstI`], on either side of
    /// the original `Mul` (multiplication commutes).
    MulI {
        /// The other operand.
        lhs: Reg,
        /// The constant.
        imm: i64,
    },
    /// Any other binary arithmetic/logical operation.
    Bin {
        /// Opcode.
        kind: BinKind,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Comparison producing 0/1 (unfused form).
    Cmp {
        /// Predicate.
        kind: CmpKind,
        /// Float comparison?
        float: bool,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Fused integer compare + conditional branch: the compare's result
    /// register is still written (later instructions may read it), then the
    /// branch consumes it — one dispatch, two dynamic steps.  The next slot
    /// is the branch half on its own.
    CmpBr {
        /// Predicate.
        kind: CmpKind,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
        /// Pc taken when the compare is true.
        then_pc: u32,
        /// Pc taken when the compare is false.
        else_pc: u32,
    },
    /// [`DInst::CmpBr`] whose right operand is an [`Operand::ConstI`].
    CmpBrI {
        /// Predicate.
        kind: CmpKind,
        /// Left operand.
        lhs: Reg,
        /// The constant right operand.
        imm: i64,
        /// Pc taken when the compare is true.
        then_pc: u32,
        /// Pc taken when the compare is false.
        else_pc: u32,
    },
    /// [`DInst::CmpBr`] over a float compare.
    FCmpBr {
        /// Predicate.
        kind: CmpKind,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
        /// Pc taken when the compare is true.
        then_pc: u32,
        /// Pc taken when the compare is false.
        else_pc: u32,
    },
    /// Numeric conversion.
    Cast {
        /// Conversion kind.
        kind: CastKind,
        /// Source operand.
        src: Reg,
    },
    /// Ternary select.
    Select {
        /// Condition.
        cond: Reg,
        /// Value when truthy.
        then_v: Reg,
        /// Value when falsy.
        else_v: Reg,
    },
    /// Memory load.
    Load {
        /// Address operand.
        addr: Reg,
    },
    /// Memory store.
    Store {
        /// Address operand.
        addr: Reg,
        /// Stored value.
        value: Reg,
    },
    /// Stack allocation of `size` cells.
    Alloca {
        /// Number of 8-byte cells.
        size: u32,
    },
    /// Pointer arithmetic.
    Gep {
        /// Base pointer.
        base: Reg,
        /// Cell index.
        index: Reg,
    },
    /// Fused gep + load: the gep's result register is written, then the
    /// next instruction loads through it — one dispatch, two dynamic steps.
    /// The next slot is the load on its own.
    GepLoad {
        /// Base pointer.
        base: Reg,
        /// Cell index.
        index: Reg,
    },
    /// Fused gep + store: the gep's result register is written, then the
    /// next instruction stores `value` through it.  The next slot is the
    /// store on its own.
    GepStore {
        /// Base pointer.
        base: Reg,
        /// Cell index.
        index: Reg,
        /// The store's value operand.
        value: Reg,
    },
    /// Function call with a pre-resolved callee.
    Call {
        /// Callee function (resolved from the name at decode time).
        callee: FunctionId,
        /// Argument registers in [`DecodedFunction::args_pool`].
        args: ArgSpan,
    },
    /// Intrinsic call.
    CallIntrinsic {
        /// Which intrinsic.
        intrinsic: Intrinsic,
        /// Argument registers in [`DecodedFunction::args_pool`].
        args: ArgSpan,
    },
    /// Return, optionally with a value.
    Ret {
        /// Returned operand, if any.
        value: Option<Reg>,
    },
    /// Unconditional branch.
    Br {
        /// Target pc.
        target: u32,
    },
    /// Conditional branch (unfused, or the branch half of a fused pair).
    CondBr {
        /// Condition operand.
        cond: Reg,
        /// Pc taken when truthy.
        then_pc: u32,
        /// Pc taken when falsy.
        else_pc: u32,
    },
    /// Program output.
    Output {
        /// Emitted operand.
        value: Reg,
        /// Rendering format.
        format: OutputFormat,
    },
    /// Loop-entry marker.
    LoopBegin {
        /// Loop id.
        id: LoopId,
        /// Nesting depth.
        depth: u32,
        /// Loop classification.
        kind: LoopKind,
    },
    /// Loop-exit marker.
    LoopEnd {
        /// Loop id.
        id: LoopId,
    },
    /// Loop-iteration marker.
    LoopIter {
        /// Loop id.
        id: LoopId,
    },
    /// No-op.
    Nop,
}

impl DInst {
    /// True for the head of a fused pair: the slot also executes the next
    /// instruction, whose own slot is flagged [`Slot::tail`].
    #[inline]
    pub fn fuses_next(&self) -> bool {
        matches!(
            self,
            DInst::CmpBr { .. }
                | DInst::CmpBrI { .. }
                | DInst::FCmpBr { .. }
                | DInst::GepLoad { .. }
                | DInst::GepStore { .. }
        )
    }
}

/// One dispatch slot: everything the interpreter needs to execute the
/// instruction at a pc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// The decoded instruction.
    pub inst: DInst,
    /// The original instruction id: the event's instruction and, for
    /// instructions with a result, the result register ([`Reg`]`(result.0)`).
    pub result: ValueId,
    /// True on the second half of a fused pair: the plain `CondBr`, `Load`
    /// or `Store` that reads the head's result, directly after the head
    /// slot.  Fused dispatch executes both halves from the head; execution
    /// lands here only when a boundary (a snapshot, a step limit, a fault, a
    /// settled visitor set) splits the pair.
    pub tail: bool,
}

// Dispatch copies a slot per step: keep it within half a cache line.
const _: () = assert!(std::mem::size_of::<Slot>() <= 32);

/// Escape entry for a source-line delta that does not fit in an `i16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineEscape {
    /// Pc of the instruction.
    pub at: u32,
    /// Absolute source line at that pc.
    pub line: u32,
}

/// One function lowered into dense decoded tables.  Every per-instruction
/// table is indexed by pc; the entry block starts at pc 0.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFunction {
    /// One dispatch slot per original instruction.
    pub slots: Vec<Slot>,
    /// Delta-encoded source lines: `i16` delta per pc against the previous
    /// pc's line (pc 0 is a delta against line 0).  [`i16::MIN`] marks an
    /// escape to [`DecodedFunction::line_escapes`].
    pub line_deltas: Vec<i16>,
    /// Escape table for deltas outside the `i16` range, sorted by pc.
    pub line_escapes: Vec<LineEscape>,
    /// Initial values of the register file's constant cells (deduplicated
    /// constants and global bases), from [`DecodedFunction::first_const`] on.
    pub consts: Vec<RegConst>,
    /// Call-argument register pool (spanned by [`ArgSpan`]s).
    pub args_pool: Vec<Reg>,
    /// Argument count (mirrors [`Function::num_args`]).
    pub num_args: u32,
    /// Static instruction count of the original function: the number of
    /// result registers.
    pub num_insts: usize,
}

impl DecodedFunction {
    /// Materialize the absolute source line of every pc by prefix-summing
    /// the delta stream (tracing runs call this once per function; untraced
    /// runs never touch lines).
    pub fn materialize_lines(&self) -> Vec<u32> {
        let mut lines = Vec::with_capacity(self.line_deltas.len());
        let mut cur: i64 = 0;
        let mut esc = self.line_escapes.iter().peekable();
        for (i, &d) in self.line_deltas.iter().enumerate() {
            if d == i16::MIN {
                let e = esc
                    .next()
                    .expect("an i16::MIN delta always has an escape entry");
                debug_assert_eq!(e.at as usize, i);
                cur = i64::from(e.line);
            } else {
                cur += i64::from(d);
            }
            lines.push(u32::try_from(cur).expect("decoded lines are non-negative"));
        }
        lines
    }

    /// The first constant cell of the register file.
    #[inline]
    pub fn first_const(&self) -> usize {
        self.num_insts + self.num_args as usize
    }

    /// Size of one frame's register file.
    #[inline]
    pub fn num_regs(&self) -> usize {
        self.first_const() + self.consts.len()
    }
}

/// A module lowered into per-function decoded tables (indexable by
/// [`FunctionId`]) together with its [`verify_executable`] verdict.  Built
/// once per module with [`DecodedModule::decode`] and shared read-only by
/// every decoded run, none of which re-verifies.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedModule {
    /// Decoded functions, in [`Module`] order (empty when the module failed
    /// verification).
    pub functions: Vec<DecodedFunction>,
    verdict: Result<(), VerifyError>,
}

impl DecodedModule {
    /// Verify `module` as an executable ([`verify_executable`]) and, when it
    /// passes, lower every function into decoded tables.  A module that
    /// fails keeps its error as the verdict and lowers nothing: the
    /// lowering relies on the verified invariants (resolvable callees, in-range
    /// targets).
    pub fn decode(module: &Module) -> DecodedModule {
        let verdict = verify_executable(module);
        let functions = if verdict.is_ok() {
            module
                .functions
                .iter()
                .map(|f| decode_function(module, f))
                .collect()
        } else {
            Vec::new()
        };
        DecodedModule { functions, verdict }
    }

    /// The module's [`verify_executable`] verdict, computed once by
    /// [`DecodedModule::decode`].
    pub fn verdict(&self) -> Result<(), VerifyError> {
        self.verdict.clone()
    }

    /// The decoded form of a function.
    #[inline]
    pub fn function(&self, id: FunctionId) -> &DecodedFunction {
        &self.functions[id.index()]
    }

    /// Approximate resident size in bytes (tables only).
    pub fn resident_bytes(&self) -> usize {
        self.functions
            .iter()
            .map(|f| {
                f.slots.len() * std::mem::size_of::<Slot>()
                    + f.line_deltas.len() * 2
                    + f.line_escapes.len() * std::mem::size_of::<LineEscape>()
                    + f.consts.len() * std::mem::size_of::<RegConst>()
                    + f.args_pool.len() * 4
            })
            .sum()
    }
}

struct FnDecoder {
    /// Pc of each block's first instruction.
    block_pc: Vec<u32>,
    num_insts: u32,
    num_args: u32,
    consts: Vec<RegConst>,
    args_pool: Vec<Reg>,
}

impl FnDecoder {
    fn operand(&mut self, op: Operand) -> Reg {
        let c = match op {
            Operand::Value(v) => return Reg(v.0),
            Operand::Arg(i) => return Reg(self.num_insts + i),
            Operand::ConstI(c) => RegConst::I(c),
            Operand::ConstF(c) => RegConst::F(c),
            Operand::Global(g) => RegConst::Global(g),
        };
        // The constant cells are deduplicated: functions reuse a handful of
        // literals and globals across many instructions.
        let k = self
            .consts
            .iter()
            .position(|&x| x.same(c))
            .unwrap_or_else(|| {
                self.consts.push(c);
                self.consts.len() - 1
            });
        Reg(self.num_insts + self.num_args + k as u32)
    }

    fn span(&mut self, args: &[Operand]) -> ArgSpan {
        let offset = u32::try_from(self.args_pool.len()).expect("≤ 2^32 pooled call arguments");
        for &a in args {
            let r = self.operand(a);
            self.args_pool.push(r);
        }
        ArgSpan {
            offset,
            len: args.len() as u32,
        }
    }

    fn pc(&self, block: crate::block::BlockId) -> u32 {
        self.block_pc[block.index()]
    }

    /// A binary operation in its kind's slot.  Integer `Add` and `Mul`
    /// commute, so a constant on either side becomes the immediate; float
    /// operands never swap, since a NaN result's payload depends on operand
    /// order.
    fn bin(&mut self, kind: BinKind, lhs: Operand, rhs: Operand) -> DInst {
        if let (
            BinKind::Add | BinKind::Mul,
            (other, Operand::ConstI(imm)) | (Operand::ConstI(imm), other),
        ) = (kind, (lhs, rhs))
        {
            let lhs = self.operand(other);
            return if kind == BinKind::Add {
                DInst::AddI { lhs, imm }
            } else {
                DInst::MulI { lhs, imm }
            };
        }
        let (lhs, rhs) = (self.operand(lhs), self.operand(rhs));
        match kind {
            BinKind::FAdd => DInst::FAdd { lhs, rhs },
            BinKind::FSub => DInst::FSub { lhs, rhs },
            BinKind::FMul => DInst::FMul { lhs, rhs },
            BinKind::FDiv => DInst::FDiv { lhs, rhs },
            BinKind::Add => DInst::Add { lhs, rhs },
            BinKind::Sub => DInst::Sub { lhs, rhs },
            BinKind::Mul => DInst::Mul { lhs, rhs },
            kind => DInst::Bin { kind, lhs, rhs },
        }
    }

    /// The fused head lowering of instruction `id` (`op`) when `next`, the
    /// following instruction of its block, reads its result: a `Cmp` the
    /// block-terminating `CondBr` branches on, or a `Gep` a `Load` or
    /// `Store` uses as its address.
    fn fused_head(&mut self, id: ValueId, op: &Op, next: &Op) -> Option<DInst> {
        let result = Operand::Value(id);
        Some(match (op, next) {
            (
                &Op::Cmp {
                    kind,
                    float,
                    lhs,
                    rhs,
                },
                &Op::CondBr {
                    cond,
                    then_b,
                    else_b,
                },
            ) if cond == result => {
                let (then_pc, else_pc) = (self.pc(then_b), self.pc(else_b));
                match (float, rhs) {
                    (true, _) => DInst::FCmpBr {
                        kind,
                        lhs: self.operand(lhs),
                        rhs: self.operand(rhs),
                        then_pc,
                        else_pc,
                    },
                    (false, Operand::ConstI(imm)) => DInst::CmpBrI {
                        kind,
                        lhs: self.operand(lhs),
                        imm,
                        then_pc,
                        else_pc,
                    },
                    (false, _) => DInst::CmpBr {
                        kind,
                        lhs: self.operand(lhs),
                        rhs: self.operand(rhs),
                        then_pc,
                        else_pc,
                    },
                }
            }
            (&Op::Gep { base, index }, &Op::Load { addr }) if addr == result => DInst::GepLoad {
                base: self.operand(base),
                index: self.operand(index),
            },
            (&Op::Gep { base, index }, &Op::Store { addr, value }) if addr == result => {
                DInst::GepStore {
                    base: self.operand(base),
                    index: self.operand(index),
                    value: self.operand(value),
                }
            }
            _ => return None,
        })
    }

    fn lower(&mut self, module: &Module, op: &Op) -> DInst {
        match op {
            Op::Bin { kind, lhs, rhs } => self.bin(*kind, *lhs, *rhs),
            Op::Cmp {
                kind,
                float,
                lhs,
                rhs,
            } => DInst::Cmp {
                kind: *kind,
                float: *float,
                lhs: self.operand(*lhs),
                rhs: self.operand(*rhs),
            },
            Op::Cast { kind, src } => DInst::Cast {
                kind: *kind,
                src: self.operand(*src),
            },
            Op::Select {
                cond,
                then_v,
                else_v,
            } => DInst::Select {
                cond: self.operand(*cond),
                then_v: self.operand(*then_v),
                else_v: self.operand(*else_v),
            },
            Op::Load { addr } => DInst::Load {
                addr: self.operand(*addr),
            },
            Op::Store { addr, value } => DInst::Store {
                addr: self.operand(*addr),
                value: self.operand(*value),
            },
            Op::Alloca { size, .. } => DInst::Alloca { size: *size },
            Op::Gep { base, index } => DInst::Gep {
                base: self.operand(*base),
                index: self.operand(*index),
            },
            Op::Call { callee, args } => {
                let (callee_id, _) = module
                    .function_by_name(callee)
                    .expect("verified callee exists");
                DInst::Call {
                    callee: callee_id,
                    args: self.span(args),
                }
            }
            Op::CallIntrinsic { intrinsic, args } => DInst::CallIntrinsic {
                intrinsic: *intrinsic,
                args: self.span(args),
            },
            Op::Ret { value } => DInst::Ret {
                value: value.map(|v| self.operand(v)),
            },
            Op::Br { target } => DInst::Br {
                target: self.pc(*target),
            },
            Op::CondBr {
                cond,
                then_b,
                else_b,
            } => DInst::CondBr {
                cond: self.operand(*cond),
                then_pc: self.pc(*then_b),
                else_pc: self.pc(*else_b),
            },
            Op::Output { value, format } => DInst::Output {
                value: self.operand(*value),
                format: *format,
            },
            Op::LoopBegin {
                id, depth, kind, ..
            } => DInst::LoopBegin {
                id: *id,
                depth: *depth,
                kind: *kind,
            },
            Op::LoopEnd { id } => DInst::LoopEnd { id: *id },
            Op::LoopIter { id } => DInst::LoopIter { id: *id },
            Op::Nop => DInst::Nop,
        }
    }
}

fn decode_function(module: &Module, func: &Function) -> DecodedFunction {
    let mut block_pc = Vec::with_capacity(func.blocks.len());
    let mut total = 0u32;
    for block in &func.blocks {
        block_pc.push(total);
        total = u32::try_from(total as usize + block.insts.len())
            .expect("≤ 2^32 instructions per function");
    }
    let mut d = FnDecoder {
        block_pc,
        num_insts: func.num_insts() as u32,
        num_args: func.num_args,
        consts: Vec::new(),
        args_pool: Vec::new(),
    };
    let mut slots: Vec<Slot> = Vec::with_capacity(total as usize);
    let mut line_deltas = Vec::with_capacity(total as usize);
    let mut line_escapes = Vec::new();
    let mut prev_line: i64 = 0;

    for block in &func.blocks {
        for (i, &iid) in block.insts.iter().enumerate() {
            let inst = func.inst(iid);
            let pc = slots.len() as u32;

            // Delta-encode this pc's source line.
            let delta = i64::from(inst.line) - prev_line;
            if delta > i64::from(i16::MAX) || delta <= i64::from(i16::MIN) {
                line_deltas.push(i16::MIN);
                line_escapes.push(LineEscape {
                    at: pc,
                    line: inst.line,
                });
            } else {
                line_deltas.push(delta as i16);
            }
            prev_line = i64::from(inst.line);

            // A block's first slot never follows a head: heads are never
            // terminators, and a pair never crosses a block boundary.
            let tail = slots.last().is_some_and(|s| s.inst.fuses_next());
            let head = match block.insts.get(i + 1) {
                Some(&next) if !tail => d.fused_head(iid, &inst.op, &func.inst(next).op),
                _ => None,
            };
            let lowered = head.unwrap_or_else(|| d.lower(module, &inst.op));
            slots.push(Slot {
                inst: lowered,
                result: iid,
                tail,
            });
        }
    }

    DecodedFunction {
        slots,
        line_deltas,
        line_escapes,
        consts: d.consts,
        args_pool: d.args_pool,
        num_args: func.num_args,
        num_insts: func.num_insts(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::global::Global;

    fn loop_module() -> Module {
        let mut m = Module::new("loop");
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
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    /// `main` calls a two-argument function that reads both arguments, a
    /// float constant and a global.
    fn call_module() -> Module {
        let mut m = Module::new("call");
        let g = m.add_global(Global::zeroed_f64("out", 1));
        let mut f = FunctionBuilder::with_args("axpy", 2);
        let (x, y) = (f.arg(0), f.arg(1));
        let two = f.const_f64(2.0);
        let ax = f.fmul(two, x);
        let r = f.fadd(ax, y);
        let gaddr = f.global_addr(g);
        f.store(gaddr, r);
        f.ret(Some(r));
        m.add_function(f.finish());
        let mut b = FunctionBuilder::new("main");
        let one = b.const_f64(1.0);
        let r = b.call("axpy", vec![one, one]);
        b.output(r, OutputFormat::Full);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn decode_covers_every_instruction_once() {
        let m = loop_module();
        let dm = DecodedModule::decode(&m);
        let f = &m.functions[0];
        let df = &dm.functions[0];
        let total: usize = f.blocks.iter().map(|b| b.insts.len()).sum();
        assert_eq!(df.slots.len(), total);
        assert_eq!(df.line_deltas.len(), total);
        // Slots follow block order, each carrying its instruction's id.
        let order: Vec<ValueId> = f.blocks.iter().flat_map(|b| b.insts.clone()).collect();
        let ids: Vec<ValueId> = df.slots.iter().map(|s| s.result).collect();
        assert_eq!(ids, order);
    }

    #[test]
    fn loop_back_edge_is_fused() {
        let m = loop_module();
        let dm = DecodedModule::decode(&m);
        let slots = &dm.functions[0].slots;
        let fused = slots.iter().filter(|s| s.inst.fuses_next()).count();
        assert!(
            slots
                .iter()
                .any(|s| matches!(s.inst, DInst::CmpBrI { imm: 10, .. })),
            "the for-loop header compare+branch must fuse, with its bound as the immediate"
        );
        // Each fused slot is followed by exactly one branch-half slot that
        // branches on the compare's result to the same pcs.
        let tails = slots.iter().filter(|s| s.tail).count();
        assert_eq!(tails, fused);
        for (pc, s) in slots.iter().enumerate() {
            if let DInst::CmpBr {
                then_pc, else_pc, ..
            }
            | DInst::CmpBrI {
                then_pc, else_pc, ..
            }
            | DInst::FCmpBr {
                then_pc, else_pc, ..
            } = s.inst
            {
                assert_eq!(
                    slots[pc + 1].inst,
                    DInst::CondBr {
                        cond: Reg(s.result.0),
                        then_pc,
                        else_pc
                    }
                );
                assert!(slots[pc + 1].tail);
            }
        }
    }

    #[test]
    fn operands_index_the_flat_register_file() {
        let m = call_module();
        let dm = DecodedModule::decode(&m);
        let f = &m.functions[0];
        let df = &dm.functions[0];
        assert_eq!(df.first_const(), f.num_insts() + 2);
        // 2.0 and the global base: one cell each.
        assert_eq!(
            df.consts,
            vec![RegConst::F(2.0), RegConst::Global(GlobalId(0))]
        );
        assert_eq!(df.num_regs(), f.num_insts() + 4);
        let DInst::FMul { lhs, rhs } = df.slots[0].inst else {
            panic!("slot 0 is the multiply: {:?}", df.slots[0]);
        };
        assert_eq!(lhs, Reg(df.first_const() as u32), "the constant 2.0");
        assert_eq!(rhs, Reg(f.num_insts() as u32), "argument 0");
        let DInst::FAdd { lhs, rhs } = df.slots[1].inst else {
            panic!("slot 1 is the add: {:?}", df.slots[1]);
        };
        assert_eq!(lhs, Reg(df.slots[0].result.0), "the multiply's result");
        assert_eq!(rhs, Reg(f.num_insts() as u32 + 1), "argument 1");
        // The caller's two `1.0` arguments share one constant cell.
        let main = &dm.functions[1];
        let DInst::Call { callee, args } = main.slots[0].inst else {
            panic!("main starts with the call: {:?}", main.slots[0]);
        };
        assert_eq!(callee, FunctionId(0));
        assert_eq!(
            main.args_pool[args.range()],
            [Reg(main.first_const() as u32); 2]
        );
    }

    /// Integer constants become immediates only for `Add` and `Mul`, on
    /// either side; `Sub` and float operations keep their constant cells in
    /// source order.  A gep fuses with the load or store right after it that
    /// uses it as the address, and with nothing else.
    #[test]
    fn immediates_and_gep_pairs_lower_only_where_they_keep_semantics() {
        let mut m = Module::new("m");
        let g = m.add_global(Global::zeroed_i64("a", 4));
        let mut b = FunctionBuilder::new("main");
        let base = b.global_addr(g);
        let one = b.const_i64(1);
        let x = b.load(base);
        let right = b.add(x, Operand::ConstI(3));
        let left = b.mul(Operand::ConstI(5), right);
        let sub = b.sub(left, one);
        let p = b.gep(base, one);
        let y = b.load(p);
        let q = b.gep(base, y);
        b.store(q, sub);
        let r = b.gep(base, one);
        b.store(base, r);
        let two = b.const_f64(2.0);
        let h = b.fsub(two, two);
        b.output(h, OutputFormat::Full);
        b.ret(None);
        m.add_function(b.finish());
        let dm = DecodedModule::decode(&m);
        let df = &dm.functions[0];
        let reg = |o: Operand| match o {
            Operand::Value(v) => Reg(v.0),
            other => panic!("not a result: {other:?}"),
        };
        let insts: Vec<DInst> = df.slots.iter().map(|s| s.inst).collect();
        assert_eq!(
            insts[1],
            DInst::AddI {
                lhs: reg(x),
                imm: 3
            }
        );
        assert_eq!(
            insts[2],
            DInst::MulI {
                lhs: reg(right),
                imm: 5
            }
        );
        let DInst::Sub { lhs, rhs } = insts[3] else {
            panic!("{:?}", insts[3]);
        };
        assert_eq!(
            (lhs, df.consts[rhs.index() - df.first_const()]),
            (reg(left), RegConst::I(1))
        );
        assert!(matches!(insts[4], DInst::GepLoad { .. }));
        assert_eq!(insts[5], DInst::Load { addr: reg(p) });
        assert_eq!(
            insts[6],
            DInst::GepStore {
                base: Reg(df.first_const() as u32),
                index: reg(y),
                value: reg(sub)
            }
        );
        assert_eq!(
            insts[7],
            DInst::Store {
                addr: reg(q),
                value: reg(sub)
            }
        );
        // The gep is the stored value, not the address: no fusion.
        assert!(matches!(insts[8], DInst::Gep { .. }));
        let DInst::FSub { lhs, rhs } = insts[10] else {
            panic!("{:?}", insts[10]);
        };
        assert_eq!(lhs, rhs, "the two 2.0 operands share one cell");
        let tails: Vec<usize> = (0..df.slots.len())
            .filter(|&pc| df.slots[pc].tail)
            .collect();
        assert_eq!(tails, [5, 7]);
    }

    #[test]
    fn decode_stores_the_verification_verdict() {
        let dm = DecodedModule::decode(&loop_module());
        assert_eq!(dm.verdict(), Ok(()));
        // A module without `main` is not executable: nothing is lowered and
        // the verdict keeps the error for every run of the tables.
        let mut m = loop_module();
        m.functions[0].name = "not_main".into();
        let dm = DecodedModule::decode(&m);
        assert_eq!(dm.verdict(), Err(VerifyError::NoMain));
        assert!(dm.functions.is_empty());
    }

    #[test]
    fn delta_lines_materialize_to_the_original_lines() {
        let m = loop_module();
        let dm = DecodedModule::decode(&m);
        let f = &m.functions[0];
        let df = &dm.functions[0];
        let lines = df.materialize_lines();
        for (pc, s) in df.slots.iter().enumerate() {
            assert_eq!(lines[pc], f.inst(s.result).line, "line at pc {pc}");
        }
    }

    #[test]
    fn line_escape_handles_large_deltas() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        b.set_line(1);
        let x = b.const_i64(1);
        let y = b.add(x, x);
        b.set_line(200_000);
        let z = b.add(y, y);
        b.set_line(2);
        b.output(z, OutputFormat::Integer);
        b.ret(None);
        m.add_function(b.finish());
        let dm = DecodedModule::decode(&m);
        let df = &dm.functions[0];
        assert!(!df.line_escapes.is_empty(), "a 200k jump cannot fit in i16");
        let lines = df.materialize_lines();
        let f = &m.functions[0];
        for (pc, s) in df.slots.iter().enumerate() {
            assert_eq!(lines[pc], f.inst(s.result).line);
        }
    }
}
