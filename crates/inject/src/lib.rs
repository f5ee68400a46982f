//! `ftkr-inject` — statistically sized fault-injection campaigns.
//!
//! This crate reproduces the FlipIt-based injection methodology of
//! Section IV-C of the FlipTracker paper:
//!
//! * faults are uniformly distributed single bit flips over a *population* of
//!   injection sites (dynamic instruction results, or memory cells holding a
//!   code region's input variables at the instant the region instance
//!   begins);
//! * the number of injections per target is chosen with the statistical
//!   model of Leveugle et al. (95 % confidence / 3 % margin of error for the
//!   evaluation, 99 % / 1 % for the case studies);
//! * each faulty run is classified as *Verification Success*, *Verification
//!   Failed* or *Crashed*, and the campaign reports the success rate of
//!   Eq. (1).
//!
//! Faulty runs are independent, so campaigns fan out across cores with rayon.
//! Each worker runs inside a panic-isolation perimeter (`catch_unwind`), so a
//! poisoned test records [`Outcome::HarnessError`] instead of losing the
//! shard, and abnormal ends carry their crash kind ([`CrashKind`]) so hangs,
//! memory traps, arithmetic traps and OOM are distinguishable while the
//! paper's three-way crashed rate stays derivable.  The [`chaos`] module
//! turns the harness's own failure modes into seeded, replayable faults.
//!
//! The [`spmd`] module extends campaigns to `nranks`-way SPMD jobs: the
//! fault lands in one rank's VM, run as a test of the same kernel (or, for
//! [`plan::CampaignTarget::Messages`] campaigns, in one message payload),
//! the exchange is evaluated in the calling thread, and a rank-divergence
//! detector classifies every completed test as masked, contained, or spread.

pub mod batch;
pub mod campaign;
pub mod chaos;
pub mod outcome;
pub mod plan;
pub mod sites;
pub mod spmd;
pub mod stats;

pub use batch::{BatchContext, BatchScan, LaneState};
pub use campaign::{
    hang_budget, sample_site_fault, Campaign, CampaignReport, FaultBeforeCheckpoint, Verdict,
    DEFAULT_SEED,
};
pub use chaos::{FailPlan, FailSite};
pub use outcome::{CampaignCounts, CrashCounts, CrashKind, Outcome};
pub use plan::{CampaignPlan, CampaignTarget, IndexRange, RankTarget};
pub use sites::{input_sites, internal_sites, FaultSite, TargetClass};
pub use spmd::{DivergenceCounts, SpmdCampaignReport, SpmdCleanState, SpmdFaults, SpmdHarness};
pub use stats::{sample_size, Confidence};
