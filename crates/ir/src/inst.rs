//! Instructions, operands and opcodes.
//!
//! Every instruction in a [`crate::Function`] is identified by its
//! [`ValueId`]: the index of the instruction in the function's instruction
//! table.  Instructions that produce a value (most of them) define the SSA
//! register with that same id, so "the result of instruction `%17`" and
//! "register `%17`" are the same thing — exactly how LLVM numbering behaves
//! and how LLVM-Tracer names trace entries in the original FlipTracker.

use serde::{Deserialize, Serialize};

use crate::block::BlockId;
use crate::global::GlobalId;
use crate::types::Ty;

/// Index of an instruction (and of the SSA register it defines) within a
/// function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ValueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Identifier of a static loop within a function (assigned by the builder in
/// nesting order).  Dynamic region partitioning keys off these ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LoopId(pub u32);

impl std::fmt::Display for LoopId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "loop{}", self.0)
    }
}

/// Classification of a structured loop, used when the trace is partitioned
/// into code regions ("first-level inner loops" in the paper's model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoopKind {
    /// The application's main (outermost) computation loop.
    Main,
    /// Any nested loop; `depth` 1 is a first-level inner loop.
    Inner,
}

/// An operand of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// The SSA register defined by another instruction of the same function.
    Value(ValueId),
    /// A function argument (0-based).
    Arg(u32),
    /// An immediate 64-bit integer.
    ConstI(i64),
    /// An immediate 64-bit float.
    ConstF(f64),
    /// The base address of a module global.
    Global(GlobalId),
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Value(v) => write!(f, "{v}"),
            Operand::Arg(a) => write!(f, "arg{a}"),
            Operand::ConstI(c) => write!(f, "{c}"),
            Operand::ConstF(c) => write!(f, "{c:?}"),
            Operand::Global(g) => write!(f, "@g{}", g.0),
        }
    }
}

/// Binary arithmetic / logical opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinKind {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (traps on division by zero).
    SDiv,
    /// Integer remainder (traps on division by zero).
    SRem,
    /// Floating addition.
    FAdd,
    /// Floating subtraction.
    FSub,
    /// Floating multiplication.
    FMul,
    /// Floating division.
    FDiv,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Logical shift right (the paper's "Shifting" pattern).
    LShr,
    /// Arithmetic shift right.
    AShr,
    /// Integer minimum (modelled as an instruction; used by sorting kernels).
    SMin,
    /// Integer maximum.
    SMax,
    /// Floating minimum.
    FMin,
    /// Floating maximum.
    FMax,
}

impl BinKind {
    /// Result type of the operation.
    pub fn result_ty(self) -> Ty {
        match self {
            BinKind::FAdd
            | BinKind::FSub
            | BinKind::FMul
            | BinKind::FDiv
            | BinKind::FMin
            | BinKind::FMax => Ty::F64,
            _ => Ty::I64,
        }
    }

    /// True for floating-point arithmetic.
    pub fn is_float(self) -> bool {
        self.result_ty() == Ty::F64
    }

    /// True for the shift family (`Shl`, `LShr`, `AShr`).
    pub fn is_shift(self) -> bool {
        matches!(self, BinKind::Shl | BinKind::LShr | BinKind::AShr)
    }

    /// True for additive operations (integer or floating add/sub), the raw
    /// material of the paper's *Repeated Additions* pattern.
    pub fn is_additive(self) -> bool {
        matches!(
            self,
            BinKind::Add | BinKind::Sub | BinKind::FAdd | BinKind::FSub
        )
    }

    /// Mnemonic used by the textual printer (LLVM-flavoured).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinKind::Add => "add",
            BinKind::Sub => "sub",
            BinKind::Mul => "mul",
            BinKind::SDiv => "sdiv",
            BinKind::SRem => "srem",
            BinKind::FAdd => "fadd",
            BinKind::FSub => "fsub",
            BinKind::FMul => "fmul",
            BinKind::FDiv => "fdiv",
            BinKind::And => "and",
            BinKind::Or => "or",
            BinKind::Xor => "xor",
            BinKind::Shl => "shl",
            BinKind::LShr => "lshr",
            BinKind::AShr => "ashr",
            BinKind::SMin => "smin",
            BinKind::SMax => "smax",
            BinKind::FMin => "fmin",
            BinKind::FMax => "fmax",
        }
    }
}

/// Comparison predicates (shared between integer and float compares).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpKind {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpKind {
    /// Mnemonic used by the textual printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpKind::Eq => "eq",
            CmpKind::Ne => "ne",
            CmpKind::Lt => "lt",
            CmpKind::Le => "le",
            CmpKind::Gt => "gt",
            CmpKind::Ge => "ge",
        }
    }
}

/// Conversion opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CastKind {
    /// f64 -> i64 (truncation towards zero); the paper's *Truncation* pattern.
    FpToSi,
    /// i64 -> f64.
    SiToFp,
    /// Truncate an i64 to its low 32 bits (sign-extended back to i64).
    TruncI32,
    /// Round an f64 to f32 precision (stored widened back to f64).
    FpRound32,
    /// Reinterpret the raw bits of an f64 as an i64.
    BitcastFtoI,
    /// Reinterpret the raw bits of an i64 as an f64.
    BitcastItoF,
}

impl CastKind {
    /// Result type of the conversion.
    pub fn result_ty(self) -> Ty {
        match self {
            CastKind::FpToSi | CastKind::TruncI32 | CastKind::BitcastFtoI => Ty::I64,
            CastKind::SiToFp | CastKind::FpRound32 | CastKind::BitcastItoF => Ty::F64,
        }
    }

    /// True for conversions that discard information (the truncation family).
    pub fn is_truncating(self) -> bool {
        matches!(
            self,
            CastKind::FpToSi | CastKind::TruncI32 | CastKind::FpRound32
        )
    }

    /// Mnemonic used by the textual printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastKind::FpToSi => "fptosi",
            CastKind::SiToFp => "sitofp",
            CastKind::TruncI32 => "trunc.i32",
            CastKind::FpRound32 => "fpround.f32",
            CastKind::BitcastFtoI => "bitcast.f2i",
            CastKind::BitcastItoF => "bitcast.i2f",
        }
    }
}

/// Output formatting directive for [`Op::Output`]; models the `printf`
/// formats through which corrupted mantissa bits can be dropped
/// (the paper's Truncation pattern finds `%12.6e` in LULESH).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OutputFormat {
    /// Full-precision value (all 64 bits significant).
    Full,
    /// Scientific notation with the given number of significant decimal
    /// digits after the point (e.g. `%12.6e` is `Scientific(6)`).
    Scientific(u8),
    /// Integer rendering of the value.
    Integer,
}

/// Intrinsic functions evaluated directly by the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Intrinsic {
    /// `sqrt(x)`.
    Sqrt,
    /// `fabs(x)`.
    Fabs,
    /// `pow(x, y)`.
    Pow,
    /// `exp(x)`.
    Exp,
    /// `log(x)`.
    Log,
    /// `cos(x)`.
    Cos,
    /// `sin(x)`.
    Sin,
}

impl Intrinsic {
    /// Number of arguments the intrinsic expects.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Pow => 2,
            _ => 1,
        }
    }

    /// Name used by the textual printer.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Fabs => "fabs",
            Intrinsic::Pow => "pow",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Cos => "cos",
            Intrinsic::Sin => "sin",
        }
    }
}

/// The operation performed by an instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Binary arithmetic or logical operation.
    Bin {
        /// Opcode.
        kind: BinKind,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Comparison producing 0 or 1 (i64).
    Cmp {
        /// Predicate.
        kind: CmpKind,
        /// True when the operands are compared as floats.
        float: bool,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Conversion.
    Cast {
        /// Conversion opcode.
        kind: CastKind,
        /// Source operand.
        src: Operand,
    },
    /// `result = cond ? then_v : else_v` without a branch.
    Select {
        /// Condition (non-zero = true).
        cond: Operand,
        /// Value when true.
        then_v: Operand,
        /// Value when false.
        else_v: Operand,
    },
    /// Load the 8-byte cell at `addr`.
    Load {
        /// Address operand (must hold a pointer).
        addr: Operand,
    },
    /// Store `value` to the 8-byte cell at `addr`.  Produces no result.
    Store {
        /// Address operand (must hold a pointer).
        addr: Operand,
        /// Value to store.
        value: Operand,
    },
    /// Allocate `size` 8-byte cells in the current frame; result is the base
    /// pointer.  The cells are released when the frame returns (this is what
    /// makes KMEANS-style "temporal corrupted locations freed at return"
    /// observable in the ACL analysis).
    Alloca {
        /// Number of 8-byte cells.
        size: u32,
        /// Debug name of the allocation.
        name: String,
    },
    /// Pointer arithmetic: `result = base + index` (in cells).
    Gep {
        /// Base pointer operand.
        base: Operand,
        /// Element index operand (i64).
        index: Operand,
    },
    /// Call another function of the module.
    Call {
        /// Callee name (resolved by the verifier/VM).
        callee: String,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// Call a VM-evaluated math intrinsic.
    CallIntrinsic {
        /// Which intrinsic.
        intrinsic: Intrinsic,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// Return from the current function.
    Ret {
        /// Optional return value.
        value: Option<Operand>,
    },
    /// Unconditional branch.
    Br {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch.
    CondBr {
        /// Condition (non-zero = true).
        cond: Operand,
        /// Target when true.
        then_b: BlockId,
        /// Target when false.
        else_b: BlockId,
    },
    /// Emit a value to the program's output stream (printf model).
    Output {
        /// Value to print.
        value: Operand,
        /// Formatting (controls how many bits survive into the output).
        format: OutputFormat,
    },
    /// Marker: execution enters an instance of the loop body region.
    LoopBegin {
        /// Static loop id.
        id: LoopId,
        /// Nesting depth (0 = main loop, 1 = first-level inner loop, ...).
        depth: u32,
        /// Loop classification.
        kind: LoopKind,
        /// Human-readable region name (e.g. `cg_b`).
        name: String,
    },
    /// Marker: execution leaves an instance of the loop body region.
    LoopEnd {
        /// Static loop id.
        id: LoopId,
    },
    /// Marker: a new iteration of the loop body starts (emitted at the top of
    /// every dynamic iteration; used for per-iteration region partitioning,
    /// e.g. Figure 6 of the paper).
    LoopIter {
        /// Static loop id.
        id: LoopId,
    },
    /// No operation (used by tests and as a padding instruction).
    Nop,
}

impl Op {
    /// Does the instruction define an SSA value?
    pub fn has_result(&self) -> bool {
        !matches!(
            self,
            Op::Store { .. }
                | Op::Ret { .. }
                | Op::Br { .. }
                | Op::CondBr { .. }
                | Op::Output { .. }
                | Op::LoopBegin { .. }
                | Op::LoopEnd { .. }
                | Op::LoopIter { .. }
                | Op::Nop
        )
    }

    /// Is this a block terminator?
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Ret { .. } | Op::Br { .. } | Op::CondBr { .. })
    }

    /// All operands read by this instruction, in a fixed order.
    pub fn operands(&self) -> Vec<Operand> {
        match self {
            Op::Bin { lhs, rhs, .. } | Op::Cmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Op::Cast { src, .. } => vec![*src],
            Op::Select {
                cond,
                then_v,
                else_v,
            } => vec![*cond, *then_v, *else_v],
            Op::Load { addr } => vec![*addr],
            Op::Store { addr, value } => vec![*addr, *value],
            Op::Alloca { .. } => vec![],
            Op::Gep { base, index } => vec![*base, *index],
            Op::Call { args, .. } | Op::CallIntrinsic { args, .. } => args.clone(),
            Op::Ret { value } => value.iter().copied().collect(),
            Op::Br { .. } => vec![],
            Op::CondBr { cond, .. } => vec![*cond],
            Op::Output { value, .. } => vec![*value],
            Op::LoopBegin { .. } | Op::LoopEnd { .. } | Op::LoopIter { .. } | Op::Nop => vec![],
        }
    }

    /// Short opcode name used by traces, DOT output and the printer.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Bin { kind, .. } => kind.mnemonic(),
            Op::Cmp { float: false, .. } => "icmp",
            Op::Cmp { float: true, .. } => "fcmp",
            Op::Cast { kind, .. } => kind.mnemonic(),
            Op::Select { .. } => "select",
            Op::Load { .. } => "load",
            Op::Store { .. } => "store",
            Op::Alloca { .. } => "alloca",
            Op::Gep { .. } => "gep",
            Op::Call { .. } => "call",
            Op::CallIntrinsic { .. } => "call.intrinsic",
            Op::Ret { .. } => "ret",
            Op::Br { .. } => "br",
            Op::CondBr { .. } => "condbr",
            Op::Output { .. } => "output",
            Op::LoopBegin { .. } => "loop.begin",
            Op::LoopEnd { .. } => "loop.end",
            Op::LoopIter { .. } => "loop.iter",
            Op::Nop => "nop",
        }
    }
}

/// A single IR instruction: an operation plus source metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Source line number attributed to this instruction (used to report
    /// pattern locations back to the user, as in Table I of the paper).
    pub line: u32,
}

impl Inst {
    /// Create an instruction with an explicit source line.
    pub fn new(op: Op, line: u32) -> Self {
        Inst { op, line }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_classification_matches_llvm_expectations() {
        assert!(Op::Load {
            addr: Operand::Arg(0)
        }
        .has_result());
        assert!(!Op::Store {
            addr: Operand::Arg(0),
            value: Operand::ConstI(1)
        }
        .has_result());
        assert!(!Op::Br { target: BlockId(0) }.has_result());
        assert!(Op::Br { target: BlockId(0) }.is_terminator());
        assert!(!Op::Nop.is_terminator());
    }

    #[test]
    fn operands_enumeration_is_complete_for_binary_ops() {
        let op = Op::Bin {
            kind: BinKind::FAdd,
            lhs: Operand::Value(ValueId(1)),
            rhs: Operand::ConstF(2.0),
        };
        assert_eq!(op.operands().len(), 2);
        assert_eq!(op.mnemonic(), "fadd");
    }

    #[test]
    fn shift_and_additive_classification() {
        assert!(BinKind::LShr.is_shift());
        assert!(BinKind::Shl.is_shift());
        assert!(!BinKind::Add.is_shift());
        assert!(BinKind::FAdd.is_additive());
        assert!(BinKind::Sub.is_additive());
        assert!(!BinKind::FMul.is_additive());
    }

    #[test]
    fn cast_truncation_classification() {
        assert!(CastKind::FpToSi.is_truncating());
        assert!(CastKind::TruncI32.is_truncating());
        assert!(CastKind::FpRound32.is_truncating());
        assert!(!CastKind::SiToFp.is_truncating());
        assert!(!CastKind::BitcastFtoI.is_truncating());
    }

    #[test]
    fn intrinsic_arity() {
        assert_eq!(Intrinsic::Pow.arity(), 2);
        assert_eq!(Intrinsic::Sqrt.arity(), 1);
    }

    #[test]
    fn value_id_display() {
        assert_eq!(format!("{}", ValueId(42)), "%42");
        assert_eq!(format!("{}", Operand::Arg(1)), "arg1");
        assert_eq!(format!("{}", LoopId(2)), "loop2");
    }
}
