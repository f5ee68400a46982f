//! `ftkr-acl` — the Alive Corrupted Locations (ACL) table.
//!
//! Section III-C of the FlipTracker paper tracks, after every dynamic
//! instruction of a faulty run, how many corrupted locations are still
//! *alive* — i.e. will be referenced again and have not been overwritten by a
//! clean value.  A decrease in that number is the low-level signal of natural
//! fault tolerance; the instructions at which corrupted locations die are the
//! candidate members of resilience computation patterns.
//!
//! The construction is a taint analysis over the dynamic trace (the paper
//! notes the kinship with dynamic taint analysis from security research) with
//! two FlipTracker-specific twists:
//!
//! 1. locations whose value will never be referenced again are removed from
//!    the alive set (liveness comes from a backward last-use pass), and
//! 2. locations overwritten by an *uncorrupted* value are removed as well
//!    (the Data Overwriting pattern).
//!
//! [`AclTable::build`] produces the per-instruction counts (the last row of
//! the paper's Figure 3), the birth/death log of every corrupted location,
//! and the final corrupted set.
//!
//! The builder runs once per injection, which makes it the most expensive
//! analysis stage of Table-I-scale hunts; it therefore works in the trace's
//! dense [`ftkr_vm::LocationId`] space (flat last-access tables and a bitmap
//! taint set).  The original hash-based algorithm is kept as a test oracle
//! in the workspace's integration-test support, where the property tests
//! diff the two on random traces.
//!
//! Construction is event-incremental: [`table::TaintSweep`] advances one
//! dynamic event at a time.  [`AclTable::build`] runs the sweep over a
//! recorded trace; the fused per-injection pipeline in `ftkr_patterns`
//! drives the same sweep next to the six pattern detectors in a single pass.

pub mod table;

pub use table::{AclDeath, AclTable, DeathCause, StepTaint, TaintSweep};
