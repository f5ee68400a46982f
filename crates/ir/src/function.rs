//! Functions: instruction tables plus basic blocks and loop metadata.

use serde::{Deserialize, Serialize};

use crate::block::{Block, BlockId};
use crate::inst::{Inst, LoopId, LoopKind, ValueId};

/// Index of a function within a [`crate::Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FunctionId(pub u32);

impl FunctionId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Static description of a structured loop inside a function, recorded by the
/// builder.  The trace partitioner uses this table to map dynamic
/// `LoopBegin`/`LoopEnd` markers back to named code regions and source lines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopInfo {
    /// Loop id (unique within the function).
    pub id: LoopId,
    /// Region name (e.g. `cg_b`).
    pub name: String,
    /// Nesting depth: 0 for the main loop, 1 for first-level inner loops.
    pub depth: u32,
    /// Classification.
    pub kind: LoopKind,
    /// First source line of the loop body.
    pub line_start: u32,
    /// Last source line of the loop body.
    pub line_end: u32,
}

/// A function: a flat instruction table, basic blocks referencing it, and
/// loop metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Function name (callees are resolved by name).
    pub name: String,
    /// Number of arguments.
    pub num_args: u32,
    /// Instruction table; `ValueId(i)` is `insts[i]`.
    pub insts: Vec<Inst>,
    /// Basic blocks; `BlockId(i)` is `blocks[i]`.  Block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Structured-loop metadata recorded by the builder.
    pub loops: Vec<LoopInfo>,
}

impl Function {
    /// Create an empty function with one (entry) block.
    pub fn new(name: impl Into<String>, num_args: u32) -> Self {
        Function {
            name: name.into(),
            num_args,
            insts: Vec::new(),
            blocks: vec![Block::new("entry")],
            loops: Vec::new(),
        }
    }

    /// The instruction behind a [`ValueId`].
    pub fn inst(&self, id: ValueId) -> &Inst {
        &self.insts[id.index()]
    }

    /// The block behind a [`BlockId`].
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Static count of instructions.
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Loop metadata for a loop id, if recorded.
    pub fn loop_info(&self, id: LoopId) -> Option<&LoopInfo> {
        self.loops.iter().find(|l| l.id == id)
    }

    /// Iterate over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Iterate over `(ValueId, &Inst)` pairs in table order.
    pub fn iter_insts(&self) -> impl Iterator<Item = (ValueId, &Inst)> {
        self.insts
            .iter()
            .enumerate()
            .map(|(i, inst)| (ValueId(i as u32), inst))
    }

    /// Render the function as LLVM-flavoured text (for debugging and docs).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "define {}({} args) {{", self.name, self.num_args);
        for (bid, block) in self.iter_blocks() {
            let _ = writeln!(s, "{bid}: ; {}", block.label);
            for &iid in &block.insts {
                let inst = self.inst(iid);
                let ops: Vec<String> = inst.op.operands().iter().map(|o| o.to_string()).collect();
                if inst.op.has_result() {
                    let _ = writeln!(
                        s,
                        "  {iid} = {} {}  ; line {}",
                        inst.op.mnemonic(),
                        ops.join(", "),
                        inst.line
                    );
                } else {
                    let _ = writeln!(
                        s,
                        "  {} {}  ; line {}",
                        inst.op.mnemonic(),
                        ops.join(", "),
                        inst.line
                    );
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Op, Operand};

    #[test]
    fn new_function_has_entry_block() {
        let f = Function::new("f", 2);
        assert_eq!(f.entry(), BlockId(0));
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.num_args, 2);
        assert_eq!(f.num_insts(), 0);
    }

    #[test]
    fn text_rendering_mentions_instructions() {
        let mut f = Function::new("f", 0);
        f.insts.push(Inst::new(
            Op::Bin {
                kind: crate::inst::BinKind::Add,
                lhs: Operand::ConstI(1),
                rhs: Operand::ConstI(2),
            },
            7,
        ));
        f.blocks[0].insts.push(ValueId(0));
        f.insts.push(Inst::new(Op::Ret { value: None }, 8));
        f.blocks[0].insts.push(ValueId(1));
        let text = f.to_text();
        assert!(text.contains("add"));
        assert!(text.contains("line 7"));
        assert!(text.contains("ret"));
        assert_eq!(
            f.insts
                .iter()
                .filter(|i| matches!(i.op, Op::Bin { .. }))
                .count(),
            1
        );
    }
}
