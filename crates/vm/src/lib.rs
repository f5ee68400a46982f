//! `ftkr-vm` — interpreter, dynamic tracer and fault-injection hooks.
//!
//! This crate plays the role that LLVM + LLVM-Tracer + FlipIt play in the
//! original FlipTracker implementation: it executes `ftkr-ir` programs,
//! records a *dynamic instruction trace* (opcode, operand locations and
//! values, result location and value, source line, loop/region markers), and
//! can flip a single bit of a chosen dynamic value or memory cell to mimic a
//! transient soft error reaching application state.
//!
//! The three fault manifestations of the paper map onto [`RunOutcome`]:
//! a run either completes (and is then judged by the application's own
//! verification phase, yielding *Verification Success* or *Verification
//! Failed*), or it traps/hangs, which corresponds to *Crashed*.
//!
//! ```
//! use ftkr_ir::prelude::*;
//! use ftkr_vm::{Vm, VmConfig};
//!
//! let mut module = Module::new("demo");
//! let mut f = FunctionBuilder::new("main");
//! let one = f.const_f64(1.0);
//! let two = f.const_f64(2.0);
//! let x = f.fadd(one, two);
//! f.output(x, OutputFormat::Full);
//! f.ret(None);
//! module.add_function(f.finish());
//!
//! let result = Vm::new(VmConfig::default()).run(&module).unwrap();
//! assert!(result.outcome.is_completed());
//! assert_eq!(result.outputs.records[0].value.as_f64().unwrap(), 3.0);
//! ```

pub mod fault;
pub mod interp;
pub mod location;
pub mod memory;
pub mod output;
pub mod snapshot;
pub mod trace;
pub mod value;
pub mod visitor;

pub use fault::{FaultSpec, FaultTarget};
pub use ftkr_ir::decode::DecodedModule;
pub use interp::{RunOutcome, RunResult, TrapKind, Vm, VmConfig};
pub use location::Location;
pub use memory::Memory;
pub use output::{OutputRecord, ProgramOutput};
pub use snapshot::VmSnapshot;
pub use trace::{
    EventKind, EventView, LocationId, ReadSpan, ResolvedEvent, Trace, TraceBuilder, TraceEvent,
    TraceSlice,
};
pub use value::Value;
pub use visitor::{EventCtx, EventCursor, TraceVisitor, VisitorSet, WalkEnd, Watch};
