//! `ftkr-mpi` — an in-process SPMD message-passing simulator.
//!
//! The original FlipTracker extends LLVM-Tracer to instrument MPI programs:
//! each MPI process writes its own trace file, and the tracing-overhead
//! experiment (Figure 4 of the paper) compares instrumented vs. plain runs at
//! 64 processes.  This crate provides the equivalent substrate without an MPI
//! installation: ranks are threads, messages travel over `std::sync::mpsc`
//! channels, and the one collective (`allreduce`) is implemented on top of
//! point-to-point sends.  Execution is deterministic for the
//! single-program-multiple-data patterns the benchmark kernels use, which is
//! what lets faulty and fault-free runs be matched without the
//! record-and-replay machinery the paper needs for real MPI.
//!
//! The simulator carries no fault hooks.  SPMD fault campaigns evaluate
//! their exchange in the calling thread (`ftkr_inject::spmd::exchange`,
//! which also defines the message faults); Figure 4's tracing-overhead
//! experiment runs real thread-per-rank jobs here.

pub mod comm;
pub mod spmd;

pub use comm::{Communicator, Message, ReduceOp};
pub use spmd::{run_spmd, SpmdError};
