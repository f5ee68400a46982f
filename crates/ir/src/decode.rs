//! Pre-decoded execution tables: each verified function lowered once into a
//! dense flat opcode/operand array for direct-threaded dispatch.
//!
//! The IR keeps heap [`Op`] enums reached through three indirections
//! (function → block → instruction table).  [`DecodedModule::decode`]
//! flattens every function into a contiguous [`DInst`] array — the only
//! form the `ftkr-vm` interpreter executes — with:
//!
//! - **packed operands** ([`DOperand`]): one `u32` per operand, tagged with
//!   the operand class and indexing a per-function constant pool — no enum
//!   matching and no `Vec` clones on the call path;
//! - **pre-resolved callees**: `Op::Call`'s by-name lookup becomes a stored
//!   [`FunctionId`];
//! - **fused compare-branch superinstructions** ([`DInst::CmpBr`]): a `Cmp`
//!   immediately consumed by the block-terminating `CondBr` executes as one
//!   dispatch (the dominant loop back-edge shape);
//! - **delta-encoded source lines**: per-instruction lines are stored as
//!   `i16` deltas against the previous instruction (with an escape table for
//!   rare large jumps) and materialized only by tracing runs.
//!
//! Decoding is pure table construction: the decoded program is *semantically
//! identical* to the original — one dynamic step per original instruction,
//! fused pairs included — and call frames keep their original
//! `(block, ip)` program counters, so VM snapshots do not depend on fusion.

use crate::block::BlockId;
use crate::function::{Function, FunctionId};
use crate::inst::{
    BinKind, CastKind, CmpKind, Intrinsic, LoopId, LoopKind, Op, Operand, OutputFormat, ValueId,
};
use crate::module::Module;

/// Operand-class tag of a [`DOperand`] (top 3 bits of the packed word).
const TAG_SHIFT: u32 = 29;
/// Payload mask of a [`DOperand`] (low 29 bits).
const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;

const TAG_VALUE: u32 = 0;
const TAG_ARG: u32 = 1;
const TAG_CONST_I: u32 = 2;
const TAG_CONST_F: u32 = 3;
const TAG_GLOBAL: u32 = 4;

/// A packed operand: 3-bit class tag plus a 29-bit payload.
///
/// | tag | payload |
/// |-----|---------|
/// | register | [`ValueId`] index |
/// | argument | argument position |
/// | int const | index into [`DecodedFunction::consts_i`] |
/// | float const | index into [`DecodedFunction::consts_f`] |
/// | global | [`crate::GlobalId`] index |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DOperand(u32);

/// Unpacked view of a [`DOperand`], produced by [`DOperand::unpack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DOperandKind {
    /// Read of the register holding instruction `ValueId(payload)`'s result.
    Value(ValueId),
    /// Read of argument `payload` of the current frame.
    Arg(u32),
    /// Integer constant at `consts_i[payload]`.
    ConstI(u32),
    /// Float constant at `consts_f[payload]`.
    ConstF(u32),
    /// Base address of global `payload`.
    Global(u32),
}

impl DOperand {
    fn pack(tag: u32, payload: u32) -> Self {
        debug_assert!(payload <= PAYLOAD_MASK, "operand payload overflows 29 bits");
        DOperand((tag << TAG_SHIFT) | payload)
    }

    /// Unpack into the tagged view the dispatch loop matches on.
    #[inline]
    pub fn unpack(self) -> DOperandKind {
        let payload = self.0 & PAYLOAD_MASK;
        match self.0 >> TAG_SHIFT {
            TAG_VALUE => DOperandKind::Value(ValueId(payload)),
            TAG_ARG => DOperandKind::Arg(payload),
            TAG_CONST_I => DOperandKind::ConstI(payload),
            TAG_CONST_F => DOperandKind::ConstF(payload),
            _ => DOperandKind::Global(payload),
        }
    }
}

/// Span into [`DecodedFunction::args_pool`] holding a call's packed
/// arguments.
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
/// Block targets are raw block indices; `Alloca` drops its debug name and
/// `Call` its callee string (both resolved at decode time).  The fused
/// [`DInst::CmpBr`] covers *two* original instructions (the compare and the
/// block-terminating conditional branch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DInst {
    /// Binary arithmetic/logical operation.
    Bin {
        /// Opcode.
        kind: BinKind,
        /// Left operand.
        lhs: DOperand,
        /// Right operand.
        rhs: DOperand,
    },
    /// Comparison producing 0/1 (unfused form).
    Cmp {
        /// Predicate.
        kind: CmpKind,
        /// Float comparison?
        float: bool,
        /// Left operand.
        lhs: DOperand,
        /// Right operand.
        rhs: DOperand,
    },
    /// Fused compare + conditional branch superinstruction: the compare's
    /// result register is still written (later instructions may read it),
    /// then the branch consumes it — one dispatch, two dynamic steps.
    CmpBr {
        /// Predicate.
        kind: CmpKind,
        /// Float comparison?
        float: bool,
        /// Left operand.
        lhs: DOperand,
        /// Right operand.
        rhs: DOperand,
        /// Block taken when the compare is true.
        then_b: u32,
        /// Block taken when the compare is false.
        else_b: u32,
    },
    /// Numeric conversion.
    Cast {
        /// Conversion kind.
        kind: CastKind,
        /// Source operand.
        src: DOperand,
    },
    /// Ternary select.
    Select {
        /// Condition.
        cond: DOperand,
        /// Value when truthy.
        then_v: DOperand,
        /// Value when falsy.
        else_v: DOperand,
    },
    /// Memory load.
    Load {
        /// Address operand.
        addr: DOperand,
    },
    /// Memory store.
    Store {
        /// Address operand.
        addr: DOperand,
        /// Stored value.
        value: DOperand,
    },
    /// Stack allocation of `size` cells.
    Alloca {
        /// Number of 8-byte cells.
        size: u32,
    },
    /// Pointer arithmetic.
    Gep {
        /// Base pointer.
        base: DOperand,
        /// Cell index.
        index: DOperand,
    },
    /// Function call with a pre-resolved callee.
    Call {
        /// Callee function (resolved from the name at decode time).
        callee: FunctionId,
        /// Packed arguments in [`DecodedFunction::args_pool`].
        args: ArgSpan,
    },
    /// Intrinsic call.
    CallIntrinsic {
        /// Which intrinsic.
        intrinsic: Intrinsic,
        /// Packed arguments in [`DecodedFunction::args_pool`].
        args: ArgSpan,
    },
    /// Return, optionally with a value.
    Ret {
        /// Returned operand, if any.
        value: Option<DOperand>,
    },
    /// Unconditional branch.
    Br {
        /// Target block index.
        target: u32,
    },
    /// Conditional branch (unfused form).
    CondBr {
        /// Condition operand.
        cond: DOperand,
        /// Block taken when truthy.
        then_b: u32,
        /// Block taken when falsy.
        else_b: u32,
    },
    /// Program output.
    Output {
        /// Emitted operand.
        value: DOperand,
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

/// Set on a [`DecodedFunction::flat_map`] entry whose linearized position is
/// the *second* original instruction (the `CondBr`) of a fused
/// [`DInst::CmpBr`] pair.  Execution normally never lands there — fused
/// dispatch advances past both — but a VM snapshot captured between the
/// compare and the branch (or a step limit reached there) leaves the program
/// counter at exactly that position, and the dispatch loop then runs the
/// branch half alone.
pub const FUSED_TAIL: u32 = 1 << 31;

/// Escape entry for a source-line delta that does not fit in an `i16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineEscape {
    /// Linearized instruction position.
    pub at: u32,
    /// Absolute source line at that position.
    pub line: u32,
}

/// One function lowered into dense decoded tables.
///
/// Instructions are addressed two ways: the VM keeps its original
/// `(block, ip)` program counter (the snapshot format) and maps it through
/// `lin_base`/`flat_map` to a [`DInst`];
/// per-instruction metadata (original [`ValueId`], source line) is indexed by
/// the *linearized* position `lin_base[block] + ip`.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFunction {
    /// Flat decoded instruction array (fused pairs occupy one slot).
    pub code: Vec<DInst>,
    /// Prefix sums of original block lengths: linearized position of the
    /// first instruction of each block.
    pub lin_base: Vec<u32>,
    /// Linearized position → flat index into `code`, with [`FUSED_TAIL`] set
    /// on the branch half of a fused pair.
    pub flat_map: Vec<u32>,
    /// Linearized position → original instruction id (= result register).
    pub lin_iids: Vec<u32>,
    /// Delta-encoded source lines: `i16` delta per linearized position
    /// against the previous position's line (position 0 is a delta against
    /// line 0).  [`i16::MIN`] marks an escape to [`DecodedFunction::line_escapes`].
    pub line_deltas: Vec<i16>,
    /// Escape table for deltas outside the `i16` range, sorted by position.
    pub line_escapes: Vec<LineEscape>,
    /// Integer constant pool.
    pub consts_i: Vec<i64>,
    /// Float constant pool.
    pub consts_f: Vec<f64>,
    /// Packed call-argument pool (spanned by [`ArgSpan`]s).
    pub args_pool: Vec<DOperand>,
    /// Argument count (mirrors [`Function::num_args`]).
    pub num_args: u32,
    /// Static instruction count of the original function.
    pub num_insts: usize,
}

impl DecodedFunction {
    /// Materialize the absolute source line of every linearized position by
    /// prefix-summing the delta stream (tracing runs call this once per
    /// function; untraced runs never touch lines).
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

    /// Linearized position of `(block, ip)`.
    #[inline]
    pub fn lin(&self, block: BlockId, ip: usize) -> usize {
        self.lin_base[block.index()] as usize + ip
    }
}

/// A module lowered into per-function decoded tables (indexable by
/// [`FunctionId`]).  Built once per module with [`DecodedModule::decode`] and
/// shared read-only by every decoded run.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedModule {
    /// Decoded functions, in [`Module`] order.
    pub functions: Vec<DecodedFunction>,
}

impl DecodedModule {
    /// Lower every function of `module` into decoded tables.
    ///
    /// The module must satisfy the same invariants the interpreter relies on
    /// (callees resolvable by name); run it through
    /// [`crate::verify::verify_module`] first.
    pub fn decode(module: &Module) -> DecodedModule {
        DecodedModule {
            functions: module
                .functions
                .iter()
                .map(|f| decode_function(module, f))
                .collect(),
        }
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
                f.code.len() * std::mem::size_of::<DInst>()
                    + (f.lin_base.len() + f.flat_map.len() + f.lin_iids.len()) * 4
                    + f.line_deltas.len() * 2
                    + f.line_escapes.len() * std::mem::size_of::<LineEscape>()
                    + f.consts_i.len() * 8
                    + f.consts_f.len() * 8
                    + f.args_pool.len() * 4
            })
            .sum()
    }
}

struct FnDecoder<'f> {
    func: &'f Function,
    consts_i: Vec<i64>,
    consts_f: Vec<f64>,
    args_pool: Vec<DOperand>,
}

impl FnDecoder<'_> {
    fn operand(&mut self, op: Operand) -> DOperand {
        match op {
            Operand::Value(v) => DOperand::pack(TAG_VALUE, v.0),
            Operand::Arg(i) => DOperand::pack(TAG_ARG, i),
            Operand::ConstI(c) => {
                // Constant pools are deduplicated: functions reuse a handful
                // of literals across many instructions.
                let idx = self
                    .consts_i
                    .iter()
                    .position(|&x| x == c)
                    .unwrap_or_else(|| {
                        self.consts_i.push(c);
                        self.consts_i.len() - 1
                    });
                DOperand::pack(TAG_CONST_I, idx as u32)
            }
            Operand::ConstF(c) => {
                let idx = self
                    .consts_f
                    .iter()
                    .position(|&x| x.to_bits() == c.to_bits())
                    .unwrap_or_else(|| {
                        self.consts_f.push(c);
                        self.consts_f.len() - 1
                    });
                DOperand::pack(TAG_CONST_F, idx as u32)
            }
            Operand::Global(g) => DOperand::pack(TAG_GLOBAL, g.0),
        }
    }

    fn span(&mut self, args: &[Operand]) -> ArgSpan {
        let offset = u32::try_from(self.args_pool.len()).expect("≤ 2^32 pooled call arguments");
        for &a in args {
            let d = self.operand(a);
            self.args_pool.push(d);
        }
        ArgSpan {
            offset,
            len: args.len() as u32,
        }
    }

    fn lower(&mut self, module: &Module, op: &Op) -> DInst {
        match op {
            Op::Bin { kind, lhs, rhs } => DInst::Bin {
                kind: *kind,
                lhs: self.operand(*lhs),
                rhs: self.operand(*rhs),
            },
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
            Op::Br { target } => DInst::Br { target: target.0 },
            Op::CondBr {
                cond,
                then_b,
                else_b,
            } => DInst::CondBr {
                cond: self.operand(*cond),
                then_b: then_b.0,
                else_b: else_b.0,
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

/// True when the instruction at block position `i` is a `Cmp` whose result is
/// consumed by the immediately following block-terminating `CondBr` — the
/// fusable superinstruction shape.
fn fusable(func: &Function, block_insts: &[ValueId], i: usize) -> bool {
    if i + 2 != block_insts.len() {
        // The CondBr must be the block terminator, i.e. the pair must sit at
        // the end of the block.
        return false;
    }
    let cmp_id = block_insts[i];
    if !matches!(func.inst(cmp_id).op, Op::Cmp { .. }) {
        return false;
    }
    match &func.inst(block_insts[i + 1]).op {
        Op::CondBr { cond, .. } => *cond == Operand::Value(cmp_id),
        _ => false,
    }
}

fn decode_function(module: &Module, func: &Function) -> DecodedFunction {
    let mut d = FnDecoder {
        func,
        consts_i: Vec::new(),
        consts_f: Vec::new(),
        args_pool: Vec::new(),
    };
    let total: usize = func.blocks.iter().map(|b| b.insts.len()).sum();
    let mut code = Vec::with_capacity(total);
    let mut lin_base = Vec::with_capacity(func.blocks.len());
    let mut flat_map = Vec::with_capacity(total);
    let mut lin_iids = Vec::with_capacity(total);
    let mut line_deltas = Vec::with_capacity(total);
    let mut line_escapes = Vec::new();
    let mut prev_line: i64 = 0;

    for block in &func.blocks {
        lin_base.push(u32::try_from(flat_map.len()).expect("≤ 2^32 instructions per function"));
        let mut i = 0;
        while i < block.insts.len() {
            let iid = block.insts[i];
            let inst = func.inst(iid);
            let flat = code.len() as u32;
            let lin = flat_map.len() as u32;

            // Delta-encode this position's source line.
            let delta = i64::from(inst.line) - prev_line;
            if delta > i64::from(i16::MAX) || delta <= i64::from(i16::MIN) {
                line_deltas.push(i16::MIN);
                line_escapes.push(LineEscape {
                    at: lin,
                    line: inst.line,
                });
            } else {
                line_deltas.push(delta as i16);
            }
            prev_line = i64::from(inst.line);

            if fusable(d.func, &block.insts, i) {
                let br_id = block.insts[i + 1];
                let &Op::Cmp {
                    kind,
                    float,
                    lhs,
                    rhs,
                } = &inst.op
                else {
                    unreachable!("fusable checked the cmp shape");
                };
                let &Op::CondBr { then_b, else_b, .. } = &func.inst(br_id).op else {
                    unreachable!("fusable checked the condbr shape");
                };
                code.push(DInst::CmpBr {
                    kind,
                    float,
                    lhs: d.operand(lhs),
                    rhs: d.operand(rhs),
                    then_b: then_b.0,
                    else_b: else_b.0,
                });
                flat_map.push(flat);
                lin_iids.push(iid.0);
                // The branch half: its own line delta and metadata, but its
                // flat entry points back at the fused slot with FUSED_TAIL.
                let br_line = func.inst(br_id).line;
                let br_delta = i64::from(br_line) - prev_line;
                if br_delta > i64::from(i16::MAX) || br_delta <= i64::from(i16::MIN) {
                    line_deltas.push(i16::MIN);
                    line_escapes.push(LineEscape {
                        at: lin + 1,
                        line: br_line,
                    });
                } else {
                    line_deltas.push(br_delta as i16);
                }
                prev_line = i64::from(br_line);
                flat_map.push(flat | FUSED_TAIL);
                lin_iids.push(br_id.0);
                i += 2;
            } else {
                code.push(d.lower(module, &inst.op));
                flat_map.push(flat);
                lin_iids.push(iid.0);
                i += 1;
            }
        }
    }

    DecodedFunction {
        code,
        lin_base,
        flat_map,
        lin_iids,
        line_deltas,
        line_escapes,
        consts_i: d.consts_i,
        consts_f: d.consts_f,
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

    #[test]
    fn decode_covers_every_instruction_once() {
        let m = loop_module();
        let dm = DecodedModule::decode(&m);
        let f = &m.functions[0];
        let df = &dm.functions[0];
        let total: usize = f.blocks.iter().map(|b| b.insts.len()).sum();
        assert_eq!(df.flat_map.len(), total);
        assert_eq!(df.lin_iids.len(), total);
        assert_eq!(df.line_deltas.len(), total);
        // Fused pairs shrink the flat code array below the original count.
        assert!(df.code.len() <= total);
        // Every flat index referenced by the map exists.
        for &p in &df.flat_map {
            assert!(((p & !FUSED_TAIL) as usize) < df.code.len());
        }
    }

    #[test]
    fn loop_back_edge_is_fused() {
        let m = loop_module();
        let dm = DecodedModule::decode(&m);
        let fused = dm.functions[0]
            .code
            .iter()
            .filter(|i| matches!(i, DInst::CmpBr { .. }))
            .count();
        assert!(fused >= 1, "the for-loop header compare+branch must fuse");
        // Each fused slot has exactly one FUSED_TAIL map entry.
        let tails = dm.functions[0]
            .flat_map
            .iter()
            .filter(|&&p| p & FUSED_TAIL != 0)
            .count();
        assert_eq!(tails, fused);
    }

    #[test]
    fn delta_lines_materialize_to_the_original_lines() {
        let m = loop_module();
        let dm = DecodedModule::decode(&m);
        let f = &m.functions[0];
        let df = &dm.functions[0];
        let lines = df.materialize_lines();
        let mut lin = 0;
        for block in &f.blocks {
            for &iid in &block.insts {
                assert_eq!(lines[lin], f.inst(iid).line, "line at lin {lin}");
                assert_eq!(df.lin_iids[lin], iid.0);
                lin += 1;
            }
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
        let mut lin = 0;
        for block in &f.blocks {
            for &iid in &block.insts {
                assert_eq!(lines[lin], f.inst(iid).line);
                lin += 1;
            }
        }
    }

    #[test]
    fn operands_pack_and_unpack() {
        assert_eq!(
            DOperand::pack(TAG_VALUE, 12).unpack(),
            DOperandKind::Value(ValueId(12))
        );
        assert_eq!(DOperand::pack(TAG_ARG, 3).unpack(), DOperandKind::Arg(3));
        assert_eq!(
            DOperand::pack(TAG_CONST_I, 0).unpack(),
            DOperandKind::ConstI(0)
        );
        assert_eq!(
            DOperand::pack(TAG_CONST_F, 7).unpack(),
            DOperandKind::ConstF(7)
        );
        assert_eq!(
            DOperand::pack(TAG_GLOBAL, 2).unpack(),
            DOperandKind::Global(2)
        );
    }
}
