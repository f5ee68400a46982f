//! `fliptracker` — the user-facing FlipTracker framework.
//!
//! This crate ties the substrates together into the workflow of the paper
//! (Figure 1): trace an application, partition the trace into code regions,
//! inject faults, build DDDGs and ACL tables, extract resilience computation
//! patterns, and run the two use cases (resilience-aware rewriting and
//! resilience prediction).
//!
//! * [`session`] — the analysis session: one application, one cached clean
//!   reference run, every driver's entry point, and the executor for
//!   serializable campaign plans;
//! * [`pipeline`] — single-injection analysis through the composable
//!   [`pipeline::InjectionAnalysisBuilder`]: one fused walk per injection
//!   (streamed with no materialized faulty trace, or materialized with the
//!   full ACL table and region tolerance cases);
//! * [`campaign`] — campaigns with streaming per-injection pattern analysis
//!   ([`session::Session::run_plan_analyzed`]);
//! * [`regions`] — region-level views of an application;
//! * [`integrity`] — the shared FNV-1a checksum / atomic-write primitives
//!   used by both the crash-consistent shard manifests and the `ftkr_serve`
//!   wire protocol;
//! * [`experiments`] — regenerates every table and figure of the paper's
//!   evaluation (Table I/II, Figures 4–7);
//! * [`use_cases`] — Use Case 1 (Table III) and Use Case 2 (Table IV);
//! * [`effort`] — knobs that trade statistical rigor for wall-clock time.
//!
//! ```no_run
//! use fliptracker::prelude::*;
//!
//! let session = Session::by_name("MG").expect("MG exists");
//! let analysis = session.analyze(None).expect("analysis");
//! println!("{} pattern instances", analysis.patterns.len());
//! ```

pub mod campaign;
pub mod effort;
pub mod experiments;
pub mod integrity;
pub mod pipeline;
pub mod regions;
pub mod session;
pub mod use_cases;

pub use campaign::{AnalyzedCampaignReport, PatternTally};
pub use effort::Effort;
pub use pipeline::{InjectionAnalysis, InjectionAnalysisBuilder, InjectionReport};
pub use regions::RegionView;
pub use session::{execute_plan, execute_plan_spmd, PlanError, Session};

/// Common imports for examples and the experiment harness.
pub mod prelude {
    pub use crate::effort::Effort;
    pub use crate::experiments;
    pub use crate::pipeline::InjectionAnalysis;
    pub use crate::regions::RegionView;
    pub use crate::session::{execute_plan, execute_plan_spmd, PlanError, Session};
    pub use crate::use_cases;
    pub use ftkr_apps::{all_apps, all_apps_sized, app_by_name, app_by_name_sized, App, AppSize};
    pub use ftkr_inject::{CampaignPlan, CampaignTarget, IndexRange, RankTarget, TargetClass};
    pub use ftkr_patterns::PatternKind;
}
