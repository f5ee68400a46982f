//! `ftkr-patterns` — detectors for the six resilience computation patterns.
//!
//! Section VI of the FlipTracker paper defines six patterns that make HPC
//! code naturally resilient to bit flips:
//!
//! 1. **Dead Corrupted Locations (DCL)** — corrupted temporaries are
//!    aggregated into fewer outputs and then never used again;
//! 2. **Repeated Additions (RA)** — a corrupted value is repeatedly updated
//!    with clean addends, amortizing the error until it is acceptable;
//! 3. **Conditional Statements (CS)** — a comparison reads corrupted data but
//!    still takes the same branch as the fault-free run;
//! 4. **Shifting** — shift operations discard the corrupted bits;
//! 5. **Truncation** — precision-losing conversions or formatted output drop
//!    the corrupted bits before the user sees them;
//! 6. **Data Overwriting (DO)** — the corrupted location is overwritten with
//!    a clean value.
//!
//! [`fused`] is the detection pipeline: one fused detector bank evaluates
//! all six patterns in a single walk over the faulty events — fused with the
//! exact ACL sweep over a materialized trace ([`fused::analyze_fused`]), or
//! streamed straight from the interpreter with no materialized faulty trace
//! at all ([`fused::StreamingDetector`]).  The two fused drivers are
//! independent implementations (exact backward-looking sweep vs. forward
//! taint with deferred deaths); the workspace property tests hold them
//! bit-identical to each other, and golden-snapshot tests pin the exact
//! instances they emit on recorded traces (the coverage the retired legacy
//! multi-pass `detect_all` reference used to provide).
//! [`rates::static_rates`] computes the per-application *pattern rates* that
//! feed the resilience-prediction model of the paper's second use case
//! (Table IV), and [`summary`] maps detected instances back onto code
//! regions for Table I.

//! [`divergence`] extends the comparison to multi-rank (SPMD) executions:
//! per-rank digests of clean vs. faulty runs classify each injection as
//! masked, contained in its rank, or spread across a communicator boundary.

pub mod divergence;
pub mod fused;
pub mod kinds;
pub mod rates;
pub mod summary;

pub use divergence::{classify_ranks, state_fnv, RankDigest, RankDivergence};
pub use fused::{analyze_fused, FusedAnalysis, FusedInjection, StreamingDetector};
pub use kinds::{PatternInstance, PatternKind};
pub use rates::{dynamic_rates, static_rates, PatternRates};
pub use summary::{assign_to_regions, RegionPatternSummary};
