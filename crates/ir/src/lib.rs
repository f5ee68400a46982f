//! `ftkr-ir` — a compact, LLVM-like SSA intermediate representation.
//!
//! The FlipTracker paper analyses *dynamic traces of LLVM IR instructions*
//! produced by LLVM-Tracer.  This crate provides the equivalent substrate for
//! the Rust reproduction: a small register-based IR with basic blocks,
//! explicit memory operations, structured loop markers, and per-instruction
//! source line numbers.  Programs are built with [`builder::FunctionBuilder`]
//! (a structured-control-flow front end) and executed by the `ftkr-vm`
//! interpreter, which natively emits the dynamic instruction trace that all
//! downstream FlipTracker analyses (DDDG, ACL, pattern detection, fault
//! injection) consume.
//!
//! # Quick tour
//!
//! ```
//! use ftkr_ir::prelude::*;
//!
//! let mut module = Module::new("demo");
//! let g = module.add_global(Global::zeroed_f64("acc", 1));
//! let mut f = FunctionBuilder::new("main");
//! f.set_line(10);
//! let base = f.global_addr(g);
//! let v = f.const_f64(2.0);
//! f.store(base, v);
//! f.ret(None);
//! module.add_function(f.finish());
//! assert!(module.verify().is_ok());
//! ```

pub mod block;
pub mod builder;
pub mod decode;
pub mod function;
pub mod global;
pub mod inst;
pub mod module;
pub mod types;
pub mod verify;

pub use block::{Block, BlockId};
pub use builder::FunctionBuilder;
pub use decode::{DInst, DecodedFunction, DecodedModule, Reg, RegConst, Slot};
pub use function::{Function, FunctionId};
pub use global::{Global, GlobalId};
pub use inst::{
    BinKind, CastKind, CmpKind, Inst, Intrinsic, LoopId, LoopKind, Op, Operand, OutputFormat,
    ValueId,
};
pub use module::Module;
pub use types::Ty;
pub use verify::VerifyError;

/// Convenience re-exports for building and inspecting programs.
pub mod prelude {
    pub use crate::builder::FunctionBuilder;
    pub use crate::function::{Function, FunctionId};
    pub use crate::global::{Global, GlobalId};
    pub use crate::inst::{
        BinKind, CastKind, CmpKind, Inst, Intrinsic, LoopId, LoopKind, Op, Operand, OutputFormat,
        ValueId,
    };
    pub use crate::module::Module;
    pub use crate::types::Ty;
    pub use crate::{Block, BlockId};
}
