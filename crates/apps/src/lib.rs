//! `ftkr-apps` — miniaturized HPC benchmark kernels built on the FlipTracker IR.
//!
//! The FlipTracker paper evaluates ten programs: eight NAS Parallel
//! Benchmarks (CG, MG, IS, LU, BT, SP, DC, FT with input Class S), the
//! LULESH proxy application (`-s 3`), and Rodinia KMEANS.  This crate
//! provides faithful miniaturized kernels of all ten, written against the
//! `ftkr-ir` builder so that the interpreter can trace them, inject faults
//! into them, and extract resilience patterns from them.
//!
//! The kernels preserve what the paper's analysis depends on:
//!
//! * the loop structure (a main computation loop containing a chain of
//!   first-level inner loops, which become the code regions of Table I);
//! * the specific code excerpts the paper discusses — CG's `sprnvc` and
//!   `conj_grad` dot products, MG's `mg3P` smoother (Repeated Additions),
//!   IS's bucket shift (Shifting), LULESH's `hourgam` aggregation (Dead
//!   Corrupted Locations) and `%12.6e` output (Truncation), and KMEANS's
//!   minimum-distance conditional (Conditional Statements);
//! * a verification phase with an application-appropriate tolerance, which
//!   is what turns a completed faulty run into *Verification Success* or
//!   *Verification Failed*.
//!
//! Problem sizes are scaled down so that statistically sized fault-injection
//! campaigns finish on a laptop; the paper's findings are about dataflow
//! *patterns*, which are preserved (see DESIGN.md for the substitution
//! argument).

pub mod apps;
pub mod common;
pub mod spec;
pub mod spmd;

pub use apps::cg::CgVariant;
pub use apps::{
    all_apps, all_apps_sized, app_by_name, app_by_name_sized, bt, bt_sized, cg, cg_with, dc,
    dc_sized, ft, ft_sized, is, kmeans, lu, lu_sized, lulesh, mg, sp, sp_sized,
};
pub use spec::{App, AppSize, Verifier};
pub use spmd::{spmd_decomposition, SpmdDecomposition};
