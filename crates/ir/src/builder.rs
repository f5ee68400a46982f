//! Structured-control-flow builder for [`crate::Function`]s.
//!
//! The benchmark kernels in `ftkr-apps` are written against this API.  It
//! mirrors how a C front end lowers structured code to LLVM IR: loop bodies
//! and branch arms are closures, induction variables live in `alloca` slots
//! (exactly what `clang -O0` produces), and every emitted instruction carries
//! the current source line so the analyses can report pattern locations back
//! in terms of the original benchmark source, as Table I of the paper does.

use crate::block::{Block, BlockId};
use crate::function::{Function, LoopInfo};
use crate::global::GlobalId;
use crate::inst::{
    BinKind, CastKind, CmpKind, Inst, Intrinsic, LoopId, LoopKind, Op, Operand, OutputFormat,
    ValueId,
};

/// Builds one function with structured control flow.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    cur_block: BlockId,
    line: u32,
    next_loop: u32,
    loop_depth: u32,
}

impl FunctionBuilder {
    /// Start building a function with no arguments.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_args(name, 0)
    }

    /// Start building a function with `num_args` arguments.
    pub fn with_args(name: impl Into<String>, num_args: u32) -> Self {
        FunctionBuilder {
            func: Function::new(name, num_args),
            cur_block: BlockId(0),
            line: 1,
            next_loop: 0,
            loop_depth: 0,
        }
    }

    /// Set the source line attributed to subsequently emitted instructions.
    pub fn set_line(&mut self, line: u32) -> &mut Self {
        self.line = line;
        self
    }

    /// Current source line.
    pub fn line(&self) -> u32 {
        self.line
    }

    /// Current loop nesting depth (0 outside any loop).
    pub fn loop_depth(&self) -> u32 {
        self.loop_depth
    }

    /// Finish the function.  If the current block lacks a terminator a
    /// `ret void` is appended so the result always verifies.
    pub fn finish(mut self) -> Function {
        let needs_ret = match self.func.blocks[self.cur_block.index()].last() {
            Some(last) => !self.func.inst(last).op.is_terminator(),
            None => true,
        };
        if needs_ret {
            self.push(Op::Ret { value: None });
        }
        self.func
    }

    // ----- raw emission --------------------------------------------------

    /// Append an instruction to the current block, returning the id of the
    /// SSA register it defines (also returned for void instructions so
    /// callers can ignore it uniformly).
    pub fn push(&mut self, op: Op) -> ValueId {
        let id = ValueId(self.func.insts.len() as u32);
        self.func.insts.push(Inst::new(op, self.line));
        self.func.blocks[self.cur_block.index()].insts.push(id);
        id
    }

    fn push_val(&mut self, op: Op) -> Operand {
        Operand::Value(self.push(op))
    }

    fn new_block(&mut self, label: impl Into<String>) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Block::new(label));
        id
    }

    fn switch_to(&mut self, block: BlockId) {
        self.cur_block = block;
    }

    // ----- operands ------------------------------------------------------

    /// Integer immediate.
    pub fn const_i64(&self, v: i64) -> Operand {
        Operand::ConstI(v)
    }

    /// Floating immediate.
    pub fn const_f64(&self, v: f64) -> Operand {
        Operand::ConstF(v)
    }

    /// The `i`-th function argument.
    pub fn arg(&self, i: u32) -> Operand {
        Operand::Arg(i)
    }

    /// The base address of a module global.
    pub fn global_addr(&self, g: GlobalId) -> Operand {
        Operand::Global(g)
    }

    // ----- arithmetic ----------------------------------------------------

    /// Generic binary operation.
    pub fn bin(&mut self, kind: BinKind, lhs: Operand, rhs: Operand) -> Operand {
        self.push_val(Op::Bin { kind, lhs, rhs })
    }

    /// Integer add.
    pub fn add(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::Add, a, b)
    }
    /// Integer subtract.
    pub fn sub(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::Sub, a, b)
    }
    /// Integer multiply.
    pub fn mul(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::Mul, a, b)
    }
    /// Integer divide.
    pub fn sdiv(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::SDiv, a, b)
    }
    /// Integer remainder.
    pub fn srem(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::SRem, a, b)
    }
    /// Float add.
    pub fn fadd(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::FAdd, a, b)
    }
    /// Float subtract.
    pub fn fsub(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::FSub, a, b)
    }
    /// Float multiply.
    pub fn fmul(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::FMul, a, b)
    }
    /// Float divide.
    pub fn fdiv(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::FDiv, a, b)
    }
    /// Bitwise and.
    pub fn and(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::And, a, b)
    }
    /// Bitwise or.
    pub fn or(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::Or, a, b)
    }
    /// Bitwise xor.
    pub fn xor(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::Xor, a, b)
    }
    /// Shift left.
    pub fn shl(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::Shl, a, b)
    }
    /// Logical shift right.
    pub fn lshr(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::LShr, a, b)
    }
    /// Arithmetic shift right.
    pub fn ashr(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::AShr, a, b)
    }
    /// Integer minimum.
    pub fn smin(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::SMin, a, b)
    }
    /// Integer maximum.
    pub fn smax(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::SMax, a, b)
    }
    /// Float minimum.
    pub fn fmin(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::FMin, a, b)
    }
    /// Float maximum.
    pub fn fmax(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::FMax, a, b)
    }

    /// Integer comparison producing 0/1.
    pub fn icmp(&mut self, kind: CmpKind, lhs: Operand, rhs: Operand) -> Operand {
        self.push_val(Op::Cmp {
            kind,
            float: false,
            lhs,
            rhs,
        })
    }

    /// Floating comparison producing 0/1.
    pub fn fcmp(&mut self, kind: CmpKind, lhs: Operand, rhs: Operand) -> Operand {
        self.push_val(Op::Cmp {
            kind,
            float: true,
            lhs,
            rhs,
        })
    }

    /// Conversion.
    pub fn cast(&mut self, kind: CastKind, src: Operand) -> Operand {
        self.push_val(Op::Cast { kind, src })
    }

    /// f64 -> i64 truncation.
    pub fn fptosi(&mut self, src: Operand) -> Operand {
        self.cast(CastKind::FpToSi, src)
    }
    /// i64 -> f64 conversion.
    pub fn sitofp(&mut self, src: Operand) -> Operand {
        self.cast(CastKind::SiToFp, src)
    }
    /// Round an f64 to f32 precision.
    pub fn fpround32(&mut self, src: Operand) -> Operand {
        self.cast(CastKind::FpRound32, src)
    }

    /// Branch-free select.
    pub fn select(&mut self, cond: Operand, then_v: Operand, else_v: Operand) -> Operand {
        self.push_val(Op::Select {
            cond,
            then_v,
            else_v,
        })
    }

    // ----- memory --------------------------------------------------------

    /// Allocate `size` cells in the current frame and return the base pointer.
    pub fn alloca(&mut self, name: impl Into<String>, size: u32) -> Operand {
        self.push_val(Op::Alloca {
            size,
            name: name.into(),
        })
    }

    /// Pointer arithmetic `base + index` (in 8-byte cells).
    pub fn gep(&mut self, base: Operand, index: Operand) -> Operand {
        self.push_val(Op::Gep { base, index })
    }

    /// Load the cell at `addr`.
    pub fn load(&mut self, addr: Operand) -> Operand {
        self.push_val(Op::Load { addr })
    }

    /// Store `value` into the cell at `addr`.
    pub fn store(&mut self, addr: Operand, value: Operand) {
        self.push(Op::Store { addr, value });
    }

    /// Convenience: `load(gep(base, index))`.
    pub fn load_idx(&mut self, base: Operand, index: Operand) -> Operand {
        let p = self.gep(base, index);
        self.load(p)
    }

    /// Convenience: `store(gep(base, index), value)`.
    pub fn store_idx(&mut self, base: Operand, index: Operand, value: Operand) {
        let p = self.gep(base, index);
        self.store(p, value);
    }

    // ----- calls and output ---------------------------------------------

    /// Call another function of the module by name.
    pub fn call(&mut self, callee: impl Into<String>, args: Vec<Operand>) -> Operand {
        self.push_val(Op::Call {
            callee: callee.into(),
            args,
        })
    }

    /// Call a math intrinsic.
    pub fn intrinsic(&mut self, intrinsic: Intrinsic, args: Vec<Operand>) -> Operand {
        self.push_val(Op::CallIntrinsic { intrinsic, args })
    }

    /// `sqrt(x)`.
    pub fn sqrt(&mut self, x: Operand) -> Operand {
        self.intrinsic(Intrinsic::Sqrt, vec![x])
    }
    /// `fabs(x)`.
    pub fn fabs(&mut self, x: Operand) -> Operand {
        self.intrinsic(Intrinsic::Fabs, vec![x])
    }
    /// `pow(x, y)`.
    pub fn pow(&mut self, x: Operand, y: Operand) -> Operand {
        self.intrinsic(Intrinsic::Pow, vec![x, y])
    }

    /// Emit a value to the program's output stream.
    pub fn output(&mut self, value: Operand, format: OutputFormat) {
        self.push(Op::Output { value, format });
    }

    /// Return from the function.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.push(Op::Ret { value });
    }

    // ----- structured control flow ----------------------------------------

    /// `if (cond) { then }`.
    pub fn if_then(&mut self, cond: Operand, then_body: impl FnOnce(&mut Self)) {
        let then_b = self.new_block("then");
        let join_b = self.new_block("join");
        self.push(Op::CondBr {
            cond,
            then_b,
            else_b: join_b,
        });
        self.switch_to(then_b);
        then_body(self);
        self.branch_to_if_open(join_b);
        self.switch_to(join_b);
    }

    fn branch_to_if_open(&mut self, target: BlockId) {
        let open = match self.func.blocks[self.cur_block.index()].last() {
            Some(last) => !self.func.inst(last).op.is_terminator(),
            None => true,
        };
        if open {
            self.push(Op::Br { target });
        }
    }

    /// General `while` loop.  `cond` is evaluated in the header block on
    /// every iteration; `body` runs while it is non-zero.  Returns the
    /// [`LoopId`] of the created loop.
    pub fn while_loop(
        &mut self,
        name: impl Into<String>,
        kind: LoopKind,
        cond: impl FnOnce(&mut Self) -> Operand,
        body: impl FnOnce(&mut Self),
    ) -> LoopId {
        let name = name.into();
        let id = LoopId(self.next_loop);
        self.next_loop += 1;
        let depth = self.loop_depth;
        let line_start = self.line;

        self.push(Op::LoopBegin {
            id,
            depth,
            kind,
            name: name.clone(),
        });

        let header = self.new_block(format!("{name}.header"));
        let body_b = self.new_block(format!("{name}.body"));
        let exit_b = self.new_block(format!("{name}.exit"));

        self.push(Op::Br { target: header });
        self.switch_to(header);
        let c = cond(self);
        self.push(Op::CondBr {
            cond: c,
            then_b: body_b,
            else_b: exit_b,
        });

        self.switch_to(body_b);
        self.push(Op::LoopIter { id });
        self.loop_depth += 1;
        body(self);
        self.loop_depth -= 1;
        self.branch_to_if_open(header);

        self.switch_to(exit_b);
        self.push(Op::LoopEnd { id });

        let line_end = self.line;
        self.func.loops.push(LoopInfo {
            id,
            name,
            depth,
            kind,
            line_start,
            line_end,
        });
        id
    }

    /// Counted loop `for (i = start; i < end; i += step)`.  The body closure
    /// receives the current induction value as an `i64` operand.
    pub fn for_loop(
        &mut self,
        name: impl Into<String>,
        kind: LoopKind,
        start: Operand,
        end: Operand,
        step: i64,
        body: impl FnOnce(&mut Self, Operand),
    ) -> LoopId {
        let name = name.into();
        let slot = self.alloca(format!("{name}.iv"), 1);
        self.store(slot, start);
        self.while_loop(
            name,
            kind,
            |b| {
                let iv = b.load(slot);
                b.icmp(CmpKind::Lt, iv, end)
            },
            |b| {
                let iv = b.load(slot);
                body(b, iv);
                let next = b.add(iv, Operand::ConstI(step));
                b.store(slot, next);
            },
        )
    }

    /// Counted first-level inner loop (the default code-region granularity of
    /// the paper).
    pub fn region_for(
        &mut self,
        name: impl Into<String>,
        start: Operand,
        end: Operand,
        body: impl FnOnce(&mut Self, Operand),
    ) -> LoopId {
        self.for_loop(name, LoopKind::Inner, start, end, 1, body)
    }

    /// Counted main loop (depth-0 loop of the program).
    pub fn main_for(
        &mut self,
        name: impl Into<String>,
        start: Operand,
        end: Operand,
        body: impl FnOnce(&mut Self, Operand),
    ) -> LoopId {
        self.for_loop(name, LoopKind::Main, start, end, 1, body)
    }

    /// Read-only access to the function under construction (for tests).
    pub fn peek(&self) -> &Function {
        &self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;

    #[test]
    fn finish_appends_missing_return() {
        let b = FunctionBuilder::new("empty");
        let f = b.finish();
        assert_eq!(f.num_insts(), 1);
        assert!(matches!(f.insts[0].op, Op::Ret { value: None }));
    }

    #[test]
    fn for_loop_emits_markers_and_loop_info() {
        let mut b = FunctionBuilder::new("looper");
        b.set_line(10);
        let zero = b.const_i64(0);
        let ten = b.const_i64(10);
        b.for_loop("body", LoopKind::Inner, zero, ten, 1, |b, iv| {
            b.add(iv, Operand::ConstI(1));
        });
        b.set_line(20);
        b.ret(None);
        let f = b.finish();
        assert_eq!(f.loops.len(), 1);
        assert_eq!(f.loops[0].name, "body");
        assert_eq!(f.loops[0].line_start, 10);
        let count = |pred: fn(&Op) -> bool| f.insts.iter().filter(|i| pred(&i.op)).count();
        assert_eq!(count(|op| matches!(op, Op::LoopBegin { .. })), 1);
        assert_eq!(count(|op| matches!(op, Op::LoopEnd { .. })), 1);
        assert_eq!(count(|op| matches!(op, Op::LoopIter { .. })), 1);
        let mut m = Module::new("m");
        m.add_function(f);
        assert!(m.verify().is_ok());
    }

    #[test]
    fn nested_loops_track_depth() {
        let mut b = FunctionBuilder::new("nest");
        let zero = b.const_i64(0);
        let three = b.const_i64(3);
        b.main_for("outer", zero, three, |b, _i| {
            let z = b.const_i64(0);
            let two = b.const_i64(2);
            b.region_for("inner", z, two, |b, _j| {
                b.add(Operand::ConstI(1), Operand::ConstI(1));
            });
        });
        let f = b.finish();
        assert_eq!(f.loops.len(), 2);
        let outer = f.loops.iter().find(|l| l.name == "outer").unwrap();
        let inner = f.loops.iter().find(|l| l.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.kind, LoopKind::Main);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.kind, LoopKind::Inner);
    }

    #[test]
    fn store_and_load_helpers_compose() {
        let mut b = FunctionBuilder::new("mem");
        let buf = b.alloca("buf", 4);
        let idx = b.const_i64(2);
        let val = b.const_f64(1.5);
        b.store_idx(buf, idx, val);
        let out = b.load_idx(buf, idx);
        b.output(out, OutputFormat::Full);
        b.ret(None);
        let f = b.finish();
        let mut m = Module::new("m");
        m.add_function(f);
        assert!(m.verify().is_ok());
    }
}
