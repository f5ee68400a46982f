//! The analysis session: one application, one cached clean reference run.
//!
//! FlipTracker's workflow is "one clean reference run, thousands of faulty
//! runs compared against it" — yet every driver used to re-trace the clean
//! run and re-partition its regions independently.  A [`Session`] owns an
//! [`App`] and lazily computes, caches and shares everything the drivers
//! derive from the fault-free execution:
//!
//! * the traced clean run, the one fault-free execution every step count,
//!   site list and SPMD clean state is read from;
//! * the code-region partition and the per-region views of Table I;
//! * the main-loop iteration partition of Figure 6;
//! * per-region DDDGs and fault-site lists, keyed by campaign target.
//!
//! Every experiment driver goes through a `Session`; none of them runs the
//! tracer directly.  A `Session` is also the executor for serializable
//! [`CampaignPlan`]s: [`Session::run_plan`] resolves the plan's symbolic
//! target against the partitions of the cached clean trace, as the paper
//! takes regions and iterations from the traced fault-free run, and replays
//! exactly the plan's index-range shard.
//!
//! A `Session` is `Send + Sync`: its lazy caches are `OnceLock`s and
//! mutex-guarded maps handing out `Arc`s, so a resident server
//! (`ftkr_serve`) can keep one hot session per application and share it
//! across worker threads — clean runs, DDDGs, site lists, and fork-point
//! checkpoints are computed once and reused by every concurrent campaign.
//!
//! Every campaign test resumes from a fault-free checkpoint, and
//! `Session::population` alone picks which: the one at a forked plan's
//! earliest site, or the step-0 one, which starts a test at program entry.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use ftkr_apps::{app_by_name, spmd_decomposition, App};
use ftkr_dddg::Dddg;
use ftkr_inject::{
    input_sites, internal_sites, Campaign, CampaignPlan, CampaignReport, CampaignTarget, FailPlan,
    FaultSite, IndexRange, Outcome, RankTarget, SpmdCampaignReport, SpmdCleanState, SpmdFaults,
    SpmdHarness, TargetClass,
};
use ftkr_patterns::{assign_to_regions, state_fnv, PatternRates, RegionPatternSummary};
use ftkr_trace::{
    instance_slice, partition_iterations, partition_regions, RegionInstance, RegionSelector,
};
use ftkr_vm::{DecodedModule, FaultSpec, RunResult, Trace, Vm, VmConfig, VmSnapshot};

use crate::effort::Effort;
use crate::experiments::{SuccessRatePoint, SuccessRateSeries};
use crate::pipeline::{InjectionAnalysis, InjectionAnalysisBuilder};
use crate::regions::{region_views as region_views_from, RegionView};

/// Cache of fault-site lists, keyed by campaign target and class.
type SiteCache = Mutex<HashMap<(CampaignTarget, TargetClass), Arc<Vec<FaultSite>>>>;

/// What `Session::population` resolves for an executor: the site list,
/// the index shard, and the checkpoint every test starts from.
type Population = (Arc<Vec<FaultSite>>, IndexRange, VmSnapshot);

/// Why a [`CampaignPlan`] could not be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan names an application the registry does not know.
    UnknownApp(String),
    /// The plan was handed to a session that owns a different application.
    AppMismatch {
        /// The session's application.
        session_app: String,
        /// The plan's application.
        plan_app: String,
    },
    /// The plan's target does not resolve in this application (unknown
    /// region name or out-of-range iteration index).
    UnknownTarget(String),
    /// The session's application was built at a non-registry problem size.
    /// Plans carry only the application *name*, so an executor would rebuild
    /// the app at the quick registry size and resolve the plan's target
    /// against a different fault-free run — planning and execution are
    /// therefore restricted to quick-size sessions ([`Session::by_name`]).
    NonRegistrySize {
        /// The session's application.
        app: String,
        /// The size the session's build was constructed at.
        size: ftkr_apps::AppSize,
    },
    /// The plan requires the multi-rank executor (`ranks != 1`, or a
    /// message-fault population) but was handed to a single-VM entry point.
    /// Use [`Session::run_plan_spmd`].
    SpmdPlan {
        /// Ranks the plan asks for.
        ranks: u32,
    },
    /// The plan's application has no SPMD decomposition in the registry
    /// (`ftkr_apps::spmd_decomposition`), so it cannot run multi-rank.
    NoSpmdDecomposition(String),
    /// The fork-point executor was handed a checkpoint later than the
    /// plan's earliest fault site.  The session forks at the earliest site,
    /// so its own plans cannot trip this.
    FaultBeforeCheckpoint(ftkr_inject::FaultBeforeCheckpoint),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownApp(name) => write!(f, "unknown application {name:?}"),
            PlanError::AppMismatch {
                session_app,
                plan_app,
            } => write!(
                f,
                "plan targets application {plan_app:?} but the session owns {session_app:?}"
            ),
            PlanError::UnknownTarget(target) => {
                write!(f, "campaign target {target} does not resolve")
            }
            PlanError::NonRegistrySize { app, size } => write!(
                f,
                "application {app:?} was built at {size:?}; campaign plans only \
                 resolve against the quick-size registry (Session::by_name)"
            ),
            PlanError::SpmdPlan { ranks } => write!(
                f,
                "plan requires the multi-rank executor ({ranks} ranks or a \
                 message-fault population); use Session::run_plan_spmd"
            ),
            PlanError::NoSpmdDecomposition(app) => write!(
                f,
                "application {app:?} has no SPMD decomposition; multi-rank \
                 campaigns need one (ftkr_apps::spmd_decomposition)"
            ),
            PlanError::FaultBeforeCheckpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The sampling seed the figure drivers derive per campaign point.
/// [`Session::plan`] defaults a plan's seed to the same derivation, so
/// per-region results reproduce across entry points and across processes.
pub fn figure_seed(target_label: &str, class: TargetClass) -> u64 {
    0xC0FFEE ^ target_label.len() as u64 ^ ((class as u64) << 32)
}

/// The seed of the whole-program success-rate campaigns (Tables III/IV and
/// [`CampaignTarget::WholeProgram`] plans).
pub const WHOLE_PROGRAM_SEED: u64 = 0xAB5C155A;

/// One application plus every cached artifact of its fault-free run.
///
/// All caches are lazy, and the program runs fault-free once: the traced
/// clean run answers every question about the fault-free execution.
pub struct Session {
    app: App,
    /// Fault-free traced run (the reference for every comparison).
    clean: OnceLock<RunResult>,
    /// Pre-decoded dispatch tables of the application module (one slot per
    /// instruction over a flat register file, fused superinstructions) and
    /// its verification verdict, built once and shared by every campaign
    /// executor.
    decoded: OnceLock<DecodedModule>,
    /// First-level-inner code-region instances of the clean trace.
    regions: OnceLock<Vec<RegionInstance>>,
    /// Representative per-region views (Table I rows).
    views: OnceLock<Vec<RegionView>>,
    /// Main-loop iteration instances (Figure 6 targets).
    iterations: OnceLock<Vec<RegionInstance>>,
    /// Per-instance DDDGs, keyed by event range in the clean trace.
    dddgs: Mutex<HashMap<(usize, usize), Arc<Dddg>>>,
    /// Fault-site lists, keyed by campaign target and class.
    sites: SiteCache,
    /// Fork-point checkpoints of the fault-free run, keyed by capture step.
    checkpoints: Mutex<HashMap<u64, VmSnapshot>>,
}

impl Session {
    /// Open a session for an application.
    pub fn new(app: App) -> Self {
        Session {
            app,
            clean: OnceLock::new(),
            decoded: OnceLock::new(),
            regions: OnceLock::new(),
            views: OnceLock::new(),
            iterations: OnceLock::new(),
            dddgs: Mutex::new(HashMap::new()),
            sites: Mutex::new(HashMap::new()),
            checkpoints: Mutex::new(HashMap::new()),
        }
    }

    /// Open a session by application name (the registry the campaign plans
    /// resolve against — always the quick problem size, so a plan's target
    /// resolves to the same sites in any executor process).  Sized builds
    /// for the in-process experiment drivers come from
    /// `ftkr_apps::all_apps_sized` + [`Session::new`].
    pub fn by_name(name: &str) -> Option<Self> {
        app_by_name(name).map(Session::new)
    }

    /// The application this session analyses.
    pub fn app(&self) -> &App {
        &self.app
    }

    /// The dispatch tables of the application module (computed and verified
    /// once, shared by the clean runs, the SPMD ranks, the analysis pipeline
    /// and every campaign executor).
    pub fn decoded_module(&self) -> &DecodedModule {
        self.decoded
            .get_or_init(|| DecodedModule::decode(&self.app.module))
    }

    // -- the clean reference run ------------------------------------------

    /// The fault-free traced run: the session's one clean execution
    /// (computed once, shared by every driver).
    pub fn clean_run(&self) -> &RunResult {
        self.clean.get_or_init(|| {
            let result = Vm::new(VmConfig::tracing())
                .run_decoded(&self.app.module, self.decoded_module())
                .expect("benchmark module must verify");
            assert!(
                result.outcome.is_completed(),
                "fault-free {} run must complete, got {:?}",
                self.app.name,
                result.outcome
            );
            result
        })
    }

    /// The clean dynamic trace.
    pub fn clean_trace(&self) -> &Trace {
        self.clean_run().trace.as_ref().expect("tracing enabled")
    }

    /// Dynamic step count of the fault-free run.
    pub fn clean_steps(&self) -> u64 {
        self.clean_run().steps
    }

    /// The dynamic step limit for faulty runs (hang detection):
    /// [`ftkr_inject::hang_budget`] of the fault-free step count.
    pub fn max_steps(&self) -> u64 {
        ftkr_inject::hang_budget(self.clean_steps())
    }

    /// Classify a completed faulty run by the paper's three manifestations:
    /// trapped/hung runs crash — carrying the crash kind their trap folds to
    /// ([`ftkr_inject::CrashKind`]) — and completed runs are judged by the
    /// application's verification phase.
    pub fn classify(&self, result: &RunResult) -> Outcome {
        match result.outcome {
            ftkr_vm::RunOutcome::Trapped(trap) => Outcome::crashed(trap),
            ftkr_vm::RunOutcome::Completed => {
                if self.app.verify(result) {
                    Outcome::VerificationSuccess
                } else {
                    Outcome::VerificationFailed
                }
            }
        }
    }

    /// Run the application with `fault` injected, recording a trace
    /// pre-sized from the clean step count (the Figure 7 / Table I
    /// fine-grained analysis configuration).
    pub fn traced_faulty_run(&self, fault: FaultSpec) -> RunResult {
        let config = VmConfig {
            record_trace: true,
            trace_hint: Some(self.clean_steps()),
            fault: Some(fault),
            max_steps: self.max_steps(),
        };
        Vm::new(config)
            .run_decoded(&self.app.module, self.decoded_module())
            .expect("benchmark module must verify")
    }

    // -- partitions --------------------------------------------------------

    /// The first-level-inner code-region instances of the clean run.
    pub fn regions(&self) -> &[RegionInstance] {
        self.regions.get_or_init(|| {
            partition_regions(
                self.clean_trace(),
                &self.app.module,
                &RegionSelector::FirstLevelInner,
            )
        })
    }

    /// The representative per-region views (first instance of each named
    /// region in main-loop iteration 0 — the rows of Table I).
    pub fn region_views(&self) -> &[RegionView] {
        self.views
            .get_or_init(|| region_views_from(&self.app, self.clean_trace()))
    }

    /// The main-loop iteration instances (each iteration treated as one code
    /// region, as in Figure 6).
    pub fn iterations(&self) -> &[RegionInstance] {
        self.iterations.get_or_init(|| {
            partition_iterations(
                self.clean_trace(),
                &self.app.module,
                Some(self.app.main_loop),
            )
        })
    }

    /// The DDDG of one region instance of the clean trace (cached per event
    /// range, shared as an `Arc` across threads).
    pub fn dddg(&self, instance: &RegionInstance) -> Arc<Dddg> {
        let key = (instance.start, instance.end);
        if let Some(g) = self.dddgs.lock().expect("dddg cache poisoned").get(&key) {
            return Arc::clone(g);
        }
        // Build outside the lock (construction replays the clean trace); a
        // racing builder's graph is identical, and the first insert wins so
        // every caller converges on one canonical Arc.
        let g = Arc::new(Dddg::from_slice(instance_slice(
            self.clean_trace(),
            instance,
        )));
        Arc::clone(
            self.dddgs
                .lock()
                .expect("dddg cache poisoned")
                .entry(key)
                .or_insert(g),
        )
    }

    // -- campaign targets --------------------------------------------------

    /// The dynamic-step window `[start, end)` of a campaign target in the
    /// fault-free run.
    pub fn target_window(&self, target: &CampaignTarget) -> Result<(u64, u64), PlanError> {
        match target {
            CampaignTarget::WholeProgram => Ok((0, self.clean_steps())),
            CampaignTarget::Region { name } => {
                let view = self
                    .region_views()
                    .iter()
                    .find(|v| &v.name == name)
                    .ok_or_else(|| PlanError::UnknownTarget(format!("region {name:?}")))?;
                Ok((view.instance.start as u64, view.instance.end as u64))
            }
            CampaignTarget::Iteration { index } => {
                let inst = self.iterations().get(*index).ok_or_else(|| {
                    PlanError::UnknownTarget(format!("main-loop iteration {index}"))
                })?;
                Ok((inst.start as u64, inst.end as u64))
            }
            // Message payloads are not dynamic instructions: their population
            // is the clean communication census, not a trace window.
            CampaignTarget::Messages => Err(PlanError::UnknownTarget(
                "message payloads (no dynamic window; SPMD executor only)".to_string(),
            )),
        }
    }

    /// The fault-site list of a campaign target (cached).  Input sites for
    /// [`CampaignTarget::WholeProgram`] are empty: input locations are a
    /// per-region notion.
    pub fn sites(
        &self,
        target: &CampaignTarget,
        class: TargetClass,
    ) -> Result<Arc<Vec<FaultSite>>, PlanError> {
        let key = (target.clone(), class);
        if let Some(s) = self.sites.lock().expect("site cache poisoned").get(&key) {
            return Ok(Arc::clone(s));
        }
        let (start, end) = self.target_window(target)?;
        let list = match (target, class) {
            (CampaignTarget::WholeProgram, TargetClass::Input) => Vec::new(),
            (_, TargetClass::Internal) => {
                internal_sites(self.clean_trace(), start as usize, end as usize)
            }
            (_, TargetClass::Input) => {
                let instance = self.instance_at(start as usize, end as usize)?;
                let dddg = self.dddg(&instance);
                input_sites(start as usize, &dddg.inputs())
            }
        };
        let list = Arc::new(list);
        Ok(Arc::clone(
            self.sites
                .lock()
                .expect("site cache poisoned")
                .entry(key)
                .or_insert(list),
        ))
    }

    /// Find the partitioned instance covering exactly `[start, end)`.
    fn instance_at(&self, start: usize, end: usize) -> Result<RegionInstance, PlanError> {
        self.regions()
            .iter()
            .chain(self.iterations())
            .find(|i| i.start == start && i.end == end)
            .cloned()
            .ok_or_else(|| PlanError::UnknownTarget(format!("instance at events [{start}, {end})")))
    }

    // -- fork-point checkpoints -------------------------------------------

    /// The fault-free VM state at dynamic step `step`, captured once and then
    /// shared by every fork (a [`VmSnapshot`] clone is one `Arc` bump).
    /// Returns `None` when the fault-free run finishes at or before `step`.
    ///
    /// Capturing replays the prefix in a throwaway interpreter; it never
    /// touches the session's cached clean run.
    pub fn checkpoint_at(&self, step: u64) -> Option<VmSnapshot> {
        if let Some(snap) = self
            .checkpoints
            .lock()
            .expect("checkpoint cache poisoned")
            .get(&step)
        {
            return Some(snap.clone());
        }
        let snap = Vm::new(VmConfig::default())
            .snapshot_at(&self.app.module, step)
            .expect("benchmark module must verify")?;
        Some(
            self.checkpoints
                .lock()
                .expect("checkpoint cache poisoned")
                .entry(step)
                .or_insert(snap)
                .clone(),
        )
    }

    // -- cache accounting --------------------------------------------------

    /// Approximate heap footprint of every cached artifact, in bytes: the
    /// clean traced run, partitions, DDDGs, site lists, and fork-point
    /// checkpoints.  An estimate over inline struct sizes (not
    /// allocator-exact) — the currency of the `ftkr_serve` session cache's
    /// LRU byte budget.  Grows monotonically as lazy caches fill.
    pub fn resident_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut bytes = size_of::<Session>() as u64;
        if let Some(run) = self.clean.get() {
            if let Some(trace) = &run.trace {
                bytes += trace.resident_bytes() as u64;
            }
            bytes += run.memory.resident_bytes() as u64;
        }
        for instances in [self.regions.get(), self.iterations.get()]
            .into_iter()
            .flatten()
        {
            bytes += (instances.len() * size_of::<RegionInstance>()) as u64;
        }
        if let Some(views) = self.views.get() {
            bytes += (views.len() * size_of::<RegionView>()) as u64;
        }
        for g in self.dddgs.lock().expect("dddg cache poisoned").values() {
            bytes += (g.num_nodes() * size_of::<ftkr_dddg::DddgNode>()
                + g.num_edges() * size_of::<ftkr_dddg::DddgEdge>()) as u64;
        }
        for s in self.sites.lock().expect("site cache poisoned").values() {
            bytes += (s.len() * size_of::<FaultSite>()) as u64;
        }
        for snap in self
            .checkpoints
            .lock()
            .expect("checkpoint cache poisoned")
            .values()
        {
            bytes += snap.resident_bytes() as u64;
        }
        bytes
    }

    // -- campaigns ---------------------------------------------------------

    /// A campaign against this application, judged by its verification
    /// phase, with the hang-detection step limit already set.  It runs the
    /// session's cached dispatch tables ([`Session::decoded_module`]) and
    /// step-0 checkpoint, so neither creating it nor any of its tests
    /// decodes or verifies the module again.
    pub(crate) fn campaign(
        &self,
        seed: u64,
    ) -> Campaign<'_, impl Fn(&RunResult) -> bool + Sync + '_> {
        let app = &self.app;
        let verify = move |r: &RunResult| app.verify(r);
        Campaign::new(&app.module, self.decoded_module(), self.entry(), verify)
            .with_max_steps(self.max_steps())
            .with_seed(seed)
    }

    /// The step-0 checkpoint: where a test from program entry starts.
    fn entry(&self) -> VmSnapshot {
        self.checkpoint_at(0)
            .expect("step 0 precedes the end of every run")
    }

    /// A serializable plan for a campaign against this application.  The
    /// target must resolve here ([`Session::target_window`]); the plan
    /// carries it symbolically, and executors derive its sites from their
    /// own clean trace.
    ///
    /// The default seed is the one the in-process drivers use for the same
    /// target ([`figure_seed`] for region/iteration points, the
    /// whole-program driver seed otherwise), so a sharded plan with
    /// `n_tests = effort.tests_per_point` reproduces the corresponding
    /// [`Session::figure5`] / [`Session::figure6`] /
    /// [`Session::whole_program_success_rate`] number bit-for-bit.  Override
    /// with [`CampaignPlan::with_seed`].
    pub fn plan(
        &self,
        target: CampaignTarget,
        class: TargetClass,
        n_tests: u64,
    ) -> Result<CampaignPlan, PlanError> {
        self.require_registry_size()?;
        self.target_window(&target)?;
        let seed = match target {
            CampaignTarget::WholeProgram => WHOLE_PROGRAM_SEED,
            _ => figure_seed(&target.label(), class),
        };
        Ok(CampaignPlan::new(self.app.name, target, class, n_tests).with_seed(seed))
    }

    /// Execute a campaign plan (or one shard of it).  The plan names the
    /// application, and the session supplies its registry-defined
    /// verification phase.
    ///
    /// The faulty runs fork from a cached fault-free checkpoint at the
    /// plan's earliest site ([`Session::checkpoint_at`]) instead of each
    /// re-executing the clean prefix; a whole-program population starts at
    /// step 0, so its tests resume from the step-0 checkpoint.  The fault
    /// sequence is a pure function of `(seed, index)` either way, and the
    /// VM prefix is deterministic, so the report is bit-identical to
    /// [`Session::run_plan_cold`] — the equivalence the
    /// `checkpoint_equivalence` integration suite holds over the whole
    /// application registry.
    pub fn run_plan(&self, plan: &CampaignPlan) -> Result<CampaignReport, PlanError> {
        self.run_plan_chaos(plan, FailPlan::none())
    }

    /// [`Session::run_plan`] with a fail-point schedule armed: restore
    /// failures and verifier panics fire deterministically per test index
    /// ([`FailPlan::fires`]), exercising the per-test degradation (a fork
    /// past step 0 restarts from the step-0 checkpoint, tallied in
    /// `CampaignCounts::degraded`) and panic-isolation (`HarnessError`)
    /// paths.  With [`FailPlan::none`] this *is* `run_plan`.
    pub fn run_plan_chaos(
        &self,
        plan: &CampaignPlan,
        chaos: FailPlan,
    ) -> Result<CampaignReport, PlanError> {
        self.prologue(plan)?;
        self.run_population(plan, true, chaos)
    }

    /// Execute a campaign plan with every faulty run forked from the
    /// step-0 checkpoint, re-executing the whole clean prefix — the
    /// reference executor [`Session::run_plan`] must stay byte-identical
    /// to.  Kept public (and exercised by the equivalence suite) so the
    /// fork-point path is always checkable against a run from program
    /// entry.
    pub fn run_plan_cold(&self, plan: &CampaignPlan) -> Result<CampaignReport, PlanError> {
        self.prologue(plan)?;
        self.run_population(plan, false, FailPlan::none())
    }

    /// The plain campaign kernel over a plan's `Session::population`.
    fn run_population(
        &self,
        plan: &CampaignPlan,
        fork: bool,
        chaos: FailPlan,
    ) -> Result<CampaignReport, PlanError> {
        let (sites, shard, start) = self.population(plan, fork)?;
        let (module, decoded) = (&self.app.module, self.decoded_module());
        self.campaign(plan.seed)
            .with_chaos(chaos)
            .run_range_with(
                &sites,
                shard,
                &start,
                |_, _, vm, snap| {
                    let result = vm.resume_from_decoded(module, decoded, snap);
                    (result.expect("module verifies"), ())
                },
                |(), ()| (),
            )
            .map(|(report, ())| report)
            .map_err(PlanError::FaultBeforeCheckpoint)
    }

    /// What every single-VM executor checks before its first test: the
    /// plan is valid here, and it is not an SPMD plan.
    pub(crate) fn prologue(&self, plan: &CampaignPlan) -> Result<(), PlanError> {
        self.check_plan(plan)?;
        if plan.is_spmd() {
            // The single-VM executors cannot honour multi-rank or
            // message-fault plans; refuse with a typed error instead of
            // silently running the wrong campaign at `ranks = 1`.
            return Err(PlanError::SpmdPlan { ranks: plan.ranks });
        }
        Ok(())
    }

    /// A computation-fault plan's sites, index shard and the checkpoint
    /// every test starts from: with `fork`, the fault-free checkpoint at
    /// the earliest site; otherwise, or with no site, the step-0 one.  The
    /// one place that decides where a campaign test starts.
    pub(crate) fn population(
        &self,
        plan: &CampaignPlan,
        fork: bool,
    ) -> Result<Population, PlanError> {
        let sites = self.sites(&plan.target, plan.class)?;
        let shard = plan.shard.intersect(IndexRange::full(plan.n_tests));
        // Fork at the earliest step any fault can strike: safe for every
        // test, and as late as possible (maximum prefix saved).
        let step = match sites.iter().map(|s| s.at_step).min() {
            Some(step) if fork => step,
            _ => 0,
        };
        let start = self
            .checkpoint_at(step)
            .expect("sites lie inside the fault-free run");
        Ok((sites, shard, start))
    }

    // -- multi-rank (SPMD) campaigns --------------------------------------

    /// Build the SPMD harness of this session's application: the registry
    /// decomposition supplies the boundary/coupling/state semantics, the
    /// verifier's reduction scalar plays the per-rank allreduce partial, and
    /// the hang budget matches the single-VM campaigns.
    fn spmd_harness(&self, nranks: u32) -> Result<SpmdHarness<'_>, PlanError> {
        let decomp = spmd_decomposition(self.app.name)
            .ok_or_else(|| PlanError::NoSpmdDecomposition(self.app.name.to_string()))?;
        let app = &self.app;
        Ok(SpmdHarness {
            module: &self.app.module,
            decoded: self.decoded_module(),
            entry: self.entry(),
            nranks: nranks.max(1) as usize,
            coupling: decomp.coupling,
            max_steps: self.max_steps(),
            combine_rel_tol: decomp.combine_rel_tol,
            partial: Box::new(move |r| app.reduction_scalar(r)),
            boundary: Box::new(move |r| {
                r.global_f64(decomp.boundary_global)
                    .and_then(|v| v.get(decomp.boundary_index).copied())
                    .unwrap_or(0.0)
            }),
            state_digest: Box::new(move |r| state_fnv(r, decomp.state_globals)),
        })
    }

    /// The fault-free SPMD execution at `nranks` ranks: per-rank clean
    /// digests, the clean combined value, and the message census
    /// message-fault campaigns sample from.  Every rank's local run is the
    /// session's clean run ([`Session::clean_run`]); only the exchange
    /// depends on the rank count.
    pub fn spmd_clean_state(&self, nranks: u32) -> Result<Arc<SpmdCleanState>, PlanError> {
        let harness = self.spmd_harness(nranks)?;
        Ok(Arc::new(harness.clean_state(self.clean_run())))
    }

    /// Build a multi-rank campaign plan.  Like [`Session::plan`] but with a
    /// rank count and rank-targeting spec; [`CampaignTarget::Messages`]
    /// plans name no trace target (their population is the clean
    /// communication census, sized at execution time).
    pub fn plan_spmd(
        &self,
        target: CampaignTarget,
        class: TargetClass,
        n_tests: u64,
        ranks: u32,
        rank_target: RankTarget,
    ) -> Result<CampaignPlan, PlanError> {
        self.require_registry_size()?;
        if spmd_decomposition(self.app.name).is_none() {
            return Err(PlanError::NoSpmdDecomposition(self.app.name.to_string()));
        }
        let plan = match target {
            CampaignTarget::Messages => {
                let seed = figure_seed(&target.label(), class);
                CampaignPlan::new(self.app.name, target, class, n_tests).with_seed(seed)
            }
            _ => self.plan(target, class, n_tests)?,
        };
        Ok(plan.with_ranks(ranks, rank_target))
    }

    /// Execute a multi-rank campaign plan (or one shard of it): each test is
    /// a `ranks`-way job with the fault landing in exactly one rank's VM
    /// (computation targets) or one message payload (the
    /// [`CampaignTarget::Messages`] population), and every completed test
    /// is classified by the rank-divergence detector.  Pure per
    /// `(seed, index)` like the single-VM executors, so shard reports merge
    /// bit-identically.
    ///
    /// Serial plans (`ranks = 1`, computation targets) are accepted — they
    /// run as one-rank jobs, which is how the serial column of the
    /// serial-vs-parallel comparison is produced with identical machinery.
    /// The injected rank's run is a test of the campaign kernel, forked from
    /// the same checkpoint [`Session::run_plan`] uses; the exchange is
    /// evaluated in the calling thread ([`ftkr_inject::spmd::exchange`]).
    pub fn run_plan_spmd(&self, plan: &CampaignPlan) -> Result<SpmdCampaignReport, PlanError> {
        self.check_plan(plan)?;
        let harness = self.spmd_harness(plan.ranks)?;
        let clean = harness.clean_state(self.clean_run());
        let report = match plan.target {
            CampaignTarget::Messages => {
                let shard = plan.shard.intersect(IndexRange::full(plan.n_tests));
                harness.run_range(&clean, &SpmdFaults::Messages, plan.seed, shard)
            }
            _ => {
                let (sites, shard, start) = self.population(plan, true)?;
                let faults = SpmdFaults::Computation {
                    sites: &sites,
                    rank_target: plan.rank_target,
                    snapshot: &start,
                };
                harness.run_range(&clean, &faults, plan.seed, shard)
            }
        };
        report.map_err(PlanError::FaultBeforeCheckpoint)
    }

    /// Shared validation of [`Session::run_plan`]-family entry points.
    pub(crate) fn check_plan(&self, plan: &CampaignPlan) -> Result<(), PlanError> {
        self.require_registry_size()?;
        if !plan.app.eq_ignore_ascii_case(self.app.name) {
            return Err(PlanError::AppMismatch {
                session_app: self.app.name.to_string(),
                plan_app: plan.app.clone(),
            });
        }
        Ok(())
    }

    /// Plans name the application symbolically, so both planning and
    /// execution must happen on the build every executor process resolves —
    /// the quick registry size.  A `ClassW` session would resolve targets
    /// against a different fault-free run.
    pub(crate) fn require_registry_size(&self) -> Result<(), PlanError> {
        if self.app.size != ftkr_apps::AppSize::Quick {
            return Err(PlanError::NonRegistrySize {
                app: self.app.name.to_string(),
                size: self.app.size,
            });
        }
        Ok(())
    }

    /// Measured success rate of one campaign point (the unit of Figures 5
    /// and 6), or `None` when the target has no site of that class.  Every
    /// test starts at program entry.
    pub fn success_rate_point(
        &self,
        target: &CampaignTarget,
        class: TargetClass,
        effort: &Effort,
    ) -> Result<Option<SuccessRatePoint>, PlanError> {
        let label = target.label();
        if self.sites(target, class)?.is_empty() {
            return Ok(None);
        }
        let plan = CampaignPlan::new(self.app.name, target.clone(), class, effort.tests_per_point)
            .with_seed(figure_seed(&label, class));
        let report = self.run_population(&plan, false, FailPlan::none())?;
        Ok(Some(SuccessRatePoint {
            program: self.app.name.to_string(),
            target: label,
            class,
            success_rate: report.success_rate(),
            crash_rate: report.counts.crash_rate(),
            injections: report.counts.total(),
        }))
    }

    // -- the per-application slices of the paper's experiments ------------

    /// This application's bars of Figure 5: success rate per code region
    /// (representative instance, iteration 0), internal and input locations.
    pub fn figure5(&self, effort: &Effort) -> SuccessRateSeries {
        let mut points = Vec::new();
        let names: Vec<String> = self.region_views().iter().map(|v| v.name.clone()).collect();
        for name in names {
            let target = CampaignTarget::Region { name };
            for class in [TargetClass::Internal, TargetClass::Input] {
                if let Some(p) = self
                    .success_rate_point(&target, class, effort)
                    .expect("region views resolve")
                {
                    points.push(p);
                }
            }
        }
        SuccessRateSeries { points }
    }

    /// This application's bars of Figure 6: success rate per main-loop
    /// iteration, internal and input locations.
    pub fn figure6(&self, effort: &Effort, max_iterations: usize) -> SuccessRateSeries {
        let mut points = Vec::new();
        let n = self.iterations().len().min(max_iterations);
        for index in 0..n {
            let target = CampaignTarget::Iteration { index };
            for class in [TargetClass::Internal, TargetClass::Input] {
                if let Some(p) = self
                    .success_rate_point(&target, class, effort)
                    .expect("iteration index in range")
                {
                    points.push(p);
                }
            }
        }
        SuccessRateSeries { points }
    }

    /// Measured whole-program success rate: a campaign over the internal
    /// sites of the entire execution.
    pub fn whole_program_success_rate(&self, effort: &Effort) -> f64 {
        let plan = CampaignPlan::new(
            self.app.name,
            CampaignTarget::WholeProgram,
            TargetClass::Internal,
            effort.tests_per_point,
        )
        .with_seed(WHOLE_PROGRAM_SEED);
        self.run_population(&plan, false, FailPlan::none())
            .expect("whole-program target always resolves")
            .success_rate()
    }

    /// Per-pattern dynamic rates of the clean run (the features of Use
    /// Case 2).
    pub fn pattern_rates(&self) -> PatternRates {
        ftkr_patterns::dynamic_rates(&self.app.module, self.clean_trace())
    }

    /// The Table-I row set: for every named region, inject
    /// `effort.analysis_injections` faults into its representative instance,
    /// run the detectors, and union the pattern kinds found.
    ///
    /// Each injection goes through the streaming [`Session::injection`]
    /// pipeline: patterns are detected as the faulty run executes, and no
    /// faulty trace is materialized.
    pub fn region_table(&self, effort: &Effort) -> Vec<RegionPatternSummary> {
        self.region_views()
            .iter()
            .map(|view| {
                let mut found = std::collections::BTreeSet::new();
                let sites = self
                    .sites(
                        &CampaignTarget::Region {
                            name: view.name.clone(),
                        },
                        TargetClass::Internal,
                    )
                    .expect("region views resolve");
                if !sites.is_empty() {
                    // Deterministically spread the analysis injections over
                    // the region's sites and over different bit positions.
                    for k in 0..effort.analysis_injections {
                        let site = sites[(k * sites.len() / effort.analysis_injections.max(1))
                            .min(sites.len() - 1)];
                        let bit = [30u8, 52, 12, 40, 3, 61][k % 6];
                        let fault = site.with_bit(bit);
                        let report = self.injection(fault).run();
                        let by_region = assign_to_regions(&report.patterns, self.regions());
                        if let Some(kinds) = by_region.get(&view.name) {
                            found.extend(kinds.iter().copied());
                        }
                    }
                }
                RegionPatternSummary {
                    region: view.name.clone(),
                    lines: view.lines,
                    instructions: view.instructions,
                    patterns: found,
                }
            })
            .collect()
    }

    // -- single-injection analysis (the Figure 1 pipeline) ----------------

    /// Pick a default injection target: the first value-producing
    /// instruction inside the first instance of the first named region,
    /// flipping a mid-mantissa bit.
    fn default_fault(&self) -> Option<FaultSpec> {
        let clean = self.clean_trace();
        let first = self
            .regions()
            .iter()
            .find(|r| self.app.regions.contains(&r.key.name))?;
        let step = (first.start..first.end).find(|&i| {
            let e = &clean.events[i];
            e.write.is_some()
                && matches!(
                    e.kind,
                    ftkr_vm::EventKind::Bin(_) | ftkr_vm::EventKind::Load
                )
        })?;
        Some(FaultSpec::in_result(step as u64, 30))
    }

    /// Open a composable per-injection analysis for one fault: patterns-only
    /// by default (streamed, no materialized faulty trace), with the ACL
    /// table and per-region DDDG cases opt-in.  This is the single analysis
    /// entry point every driver goes through.
    pub fn injection(&self, fault: FaultSpec) -> InjectionAnalysisBuilder<'_> {
        InjectionAnalysisBuilder::new(self, fault)
    }

    /// Run the full FlipTracker analysis for one injected fault.
    ///
    /// When `fault` is `None` a representative fault is chosen automatically
    /// (first arithmetic instruction of the first named region, bit 30).
    /// Returns `None` only if the application has no injectable site.
    pub fn analyze(&self, fault: Option<FaultSpec>) -> Option<InjectionAnalysis> {
        let fault = match fault {
            Some(f) => f,
            None => self.default_fault()?,
        };
        let report = self.injection(fault).with_acl().with_region_cases().run();
        Some(InjectionAnalysis {
            fault,
            outcome: report.outcome,
            acl: report.acl.expect("acl requested"),
            patterns: report.patterns,
            regions: self.regions().to_vec(),
            region_cases: report.region_cases,
            clean_steps: self.clean_steps(),
        })
    }
}

/// Execute a campaign plan in a fresh session, resolving the application in
/// the registry — the entry point a shard process uses after parsing a plan
/// from JSON.
pub fn execute_plan(plan: &CampaignPlan) -> Result<CampaignReport, PlanError> {
    Session::by_name(&plan.app)
        .ok_or_else(|| PlanError::UnknownApp(plan.app.clone()))?
        .run_plan(plan)
}

/// Execute a multi-rank campaign plan in a fresh session — the SPMD
/// counterpart of [`execute_plan`], used by shard processes after parsing a
/// plan whose `ranks`/`rank_target`/message-target fields make it an SPMD
/// plan ([`CampaignPlan::is_spmd`] — though serial plans run here too, as
/// one-rank SPMD jobs).
pub fn execute_plan_spmd(plan: &CampaignPlan) -> Result<SpmdCampaignReport, PlanError> {
    Session::by_name(&plan.app)
        .ok_or_else(|| PlanError::UnknownApp(plan.app.clone()))?
        .run_plan_spmd(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_effort() -> Effort {
        let mut e = Effort::quick();
        e.tests_per_point = 8;
        e
    }

    #[test]
    fn session_is_shareable_across_worker_threads() {
        // The ftkr_serve session cache hands one hot Session to every worker
        // thread; the compiler must agree that is sound.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();

        // Lazy caches grow the resident-byte estimate monotonically.
        let session = Session::by_name("IS").unwrap();
        let empty = session.resident_bytes();
        let _ = session.clean_trace();
        let traced = session.resident_bytes();
        assert!(traced > empty, "{traced} !> {empty}");
        let _ = session
            .sites(&CampaignTarget::WholeProgram, TargetClass::Internal)
            .unwrap();
        assert!(session.resident_bytes() > traced);
    }

    #[test]
    fn session_caches_one_clean_run_and_shares_partitions() {
        let session = Session::by_name("IS").expect("IS exists");
        // The step count is the one clean run's: the program runs
        // fault-free once, traced…
        let steps = session.clean_steps();
        assert!(steps > 1000);
        assert!(
            session.clean.get().is_some(),
            "the step count is the traced run's"
        );
        // …and the traced run is shared by reference.
        let t1: *const Trace = session.clean_trace();
        let t2: *const Trace = session.clean_trace();
        assert_eq!(t1, t2);
        assert_eq!(session.clean_run().steps, steps);
        assert_eq!(session.region_views().len(), session.app().regions.len());
        assert!(!session.iterations().is_empty());
    }

    #[test]
    fn session_site_lists_are_cached_and_class_distinct() {
        let session = Session::by_name("IS").unwrap();
        let target = CampaignTarget::Region {
            name: session.app().regions[0].clone(),
        };
        let internal = session.sites(&target, TargetClass::Internal).unwrap();
        let again = session.sites(&target, TargetClass::Internal).unwrap();
        assert!(Arc::ptr_eq(&internal, &again));
        let input = session.sites(&target, TargetClass::Input).unwrap();
        assert!(!Arc::ptr_eq(&internal, &input));
        assert!(internal.iter().all(|s| s.class == TargetClass::Internal));
        assert!(input.iter().all(|s| s.class == TargetClass::Input));
    }

    #[test]
    fn unknown_targets_and_apps_are_rejected() {
        let session = Session::by_name("SP").unwrap();
        let bogus = CampaignTarget::Region {
            name: "nope".to_string(),
        };
        assert!(matches!(
            session.sites(&bogus, TargetClass::Internal),
            Err(PlanError::UnknownTarget(_))
        ));
        let plan = CampaignPlan::new("MG", CampaignTarget::WholeProgram, TargetClass::Internal, 4);
        assert!(matches!(
            session.run_plan(&plan),
            Err(PlanError::AppMismatch { .. })
        ));
        let plan = CampaignPlan::new(
            "NOPE",
            CampaignTarget::WholeProgram,
            TargetClass::Internal,
            4,
        );
        assert!(matches!(execute_plan(&plan), Err(PlanError::UnknownApp(_))));
        // A plan naming a region this app does not have (a stale plan) is
        // rejected in a fresh session instead of sampling a wrong population.
        let stale = CampaignPlan::new("SP", bogus, TargetClass::Internal, 4);
        assert!(matches!(
            execute_plan(&stale),
            Err(PlanError::UnknownTarget(_))
        ));
    }

    #[test]
    fn spmd_plans_route_to_the_spmd_executor_only() {
        let session = Session::by_name("MG").unwrap();
        let target = CampaignTarget::Region {
            name: session.app().regions[0].clone(),
        };
        let plan = session
            .plan_spmd(target, TargetClass::Internal, 6, 4, RankTarget::Sweep)
            .unwrap();
        assert!(plan.is_spmd());
        // The single-VM executors refuse with a typed error...
        assert!(matches!(
            session.run_plan(&plan),
            Err(PlanError::SpmdPlan { ranks: 4 })
        ));
        assert!(matches!(
            session.run_plan_cold(&plan),
            Err(PlanError::SpmdPlan { ranks: 4 })
        ));
        assert!(matches!(
            session.run_plan_analyzed(&plan),
            Err(PlanError::SpmdPlan { ranks: 4 })
        ));
        assert!(matches!(
            session.run_plan_analyzed_cold(&plan),
            Err(PlanError::SpmdPlan { ranks: 4 })
        ));
        // ...and the SPMD executor runs it: every test is a 4-rank job.
        let report = session.run_plan_spmd(&plan).unwrap();
        assert_eq!(report.ranks, 4);
        assert_eq!(report.report.n_tests, 6);
        assert_eq!(report.per_rank.len(), 4);
        assert_eq!(
            report.per_rank.iter().map(|c| c.total()).sum::<u64>(),
            6 * 4
        );
        // Fresh-session entry point matches the session path bit-for-bit.
        let again = execute_plan_spmd(&plan).unwrap();
        assert_eq!(again.to_json(), report.to_json());
    }

    #[test]
    fn message_fault_plans_sample_the_communication_census() {
        let session = Session::by_name("MG").unwrap();
        let plan = session
            .plan_spmd(
                CampaignTarget::Messages,
                TargetClass::Internal,
                5,
                4,
                RankTarget::Sweep,
            )
            .unwrap();
        let report = session.run_plan_spmd(&plan).unwrap();
        assert_eq!(report.report.n_tests, 5);
        // Population is the census size × 64 bits: 4 halo + 3 gather +
        // 3 result messages at 4 ranks.
        assert_eq!(report.report.population, 10 * 64);
        // No VM runs in a message campaign, so nothing can crash.
        assert_eq!(report.report.counts.crashed(), 0);
        let d = report.divergence;
        assert_eq!(d.masked + d.contained + d.spread, 5);
        // But a single-VM executor cannot sample messages at all — even a
        // one-rank message plan must be refused.
        let serial = plan.clone().with_ranks(1, RankTarget::Sweep);
        assert!(matches!(
            session.run_plan(&serial),
            Err(PlanError::SpmdPlan { ranks: 1 })
        ));
        assert!(matches!(
            session.run_plan_analyzed(&plan),
            Err(PlanError::SpmdPlan { ranks: 4 })
        ));
        assert!(matches!(
            session.run_plan_analyzed_cold(&serial),
            Err(PlanError::SpmdPlan { ranks: 1 })
        ));
    }

    #[test]
    fn apps_without_a_decomposition_refuse_spmd_plans() {
        let session = Session::by_name("LU").unwrap();
        let target = CampaignTarget::Region {
            name: session.app().regions[0].clone(),
        };
        assert!(matches!(
            session.plan_spmd(
                target.clone(),
                TargetClass::Internal,
                4,
                4,
                RankTarget::Sweep
            ),
            Err(PlanError::NoSpmdDecomposition(_))
        ));
        let plan = CampaignPlan::new("LU", target, TargetClass::Internal, 4)
            .with_ranks(4, RankTarget::Sweep);
        assert!(matches!(
            session.run_plan_spmd(&plan),
            Err(PlanError::NoSpmdDecomposition(_))
        ));
    }

    #[test]
    fn non_registry_size_sessions_refuse_to_plan_or_execute() {
        // A Class-W session cannot plan (its target would resolve in a
        // fault-free run no executor process reproduces) nor execute a plan
        // (it would resolve a quick-registry plan against the wrong run).
        let class_w = Session::new(ftkr_apps::lu_sized(ftkr_apps::AppSize::ClassW));
        let target = CampaignTarget::Region {
            name: class_w.app().regions[0].clone(),
        };
        assert!(matches!(
            class_w.plan(target.clone(), TargetClass::Internal, 4),
            Err(PlanError::NonRegistrySize { .. })
        ));
        let quick_plan = Session::by_name("LU")
            .unwrap()
            .plan(target, TargetClass::Internal, 4)
            .unwrap();
        assert!(matches!(
            class_w.run_plan(&quick_plan),
            Err(PlanError::NonRegistrySize { .. })
        ));
        assert!(matches!(
            class_w.run_plan_analyzed(&quick_plan),
            Err(PlanError::NonRegistrySize { .. })
        ));
    }

    #[test]
    fn plan_execution_forks_from_a_checkpoint_and_matches_the_cold_path() {
        let session = Session::by_name("IS").unwrap();
        let region = session.app().regions.last().unwrap().clone();
        let plan = session
            .plan(
                CampaignTarget::Region { name: region },
                TargetClass::Internal,
                12,
            )
            .unwrap()
            .with_seed(5);
        let checkpoint_steps = |session: &Session| {
            let mut steps: Vec<u64> = session
                .checkpoints
                .lock()
                .unwrap()
                .keys()
                .copied()
                .collect();
            steps.sort_unstable();
            steps
        };
        let cold = session.run_plan_cold(&plan).unwrap();
        assert_eq!(
            checkpoint_steps(&session),
            [0],
            "the cold path starts at step 0 only"
        );
        let forked = session.run_plan(&plan).unwrap();
        assert_eq!(
            checkpoint_steps(&session).len(),
            2,
            "a mid-run fault population must fork from a later checkpoint"
        );
        assert_eq!(forked, cold);
        // The checkpoint is captured once and reused across executions.
        let captured = session.checkpoints.lock().unwrap().len();
        let again = session.run_plan(&plan).unwrap();
        assert_eq!(again, cold);
        assert_eq!(session.checkpoints.lock().unwrap().len(), captured);
    }

    #[test]
    fn whole_program_plans_fork_from_the_step_zero_checkpoint() {
        let session = Session::by_name("IS").unwrap();
        let plan = session
            .plan(CampaignTarget::WholeProgram, TargetClass::Internal, 16)
            .unwrap();
        let report = session.run_plan(&plan).unwrap();
        let steps: Vec<u64> = session
            .checkpoints
            .lock()
            .unwrap()
            .keys()
            .copied()
            .collect();
        assert_eq!(
            steps,
            [0],
            "a whole-program population starts at step 0: its tests fork from there"
        );
        assert_eq!(report, session.run_plan_cold(&plan).unwrap());
    }

    #[test]
    fn chaos_restore_failures_degrade_per_test_without_changing_outcomes() {
        let session = Session::by_name("IS").unwrap();
        let region = session.app().regions.last().unwrap().clone();
        let plan = session
            .plan(
                CampaignTarget::Region { name: region },
                TargetClass::Internal,
                16,
            )
            .unwrap()
            .with_seed(21);
        let undisturbed = session.run_plan(&plan).unwrap();
        assert!(!undisturbed.is_tainted());
        let chaos = FailPlan {
            restore_fail: 512,
            ..FailPlan::uniform(13, 0)
        };
        let shaken = session.run_plan_chaos(&plan, chaos).unwrap();
        // Restores failed for ~half the tests, each fell back to the cold
        // executor: the report is tainted but the outcome tallies match.
        assert!(shaken.counts.degraded > 0, "{:?}", shaken.counts);
        assert!(shaken.is_tainted());
        let mut cleaned = shaken.counts;
        cleaned.degraded = 0;
        assert_eq!(cleaned, undisturbed.counts);
    }

    #[test]
    fn checkpoints_past_the_end_of_the_run_are_unavailable() {
        let session = Session::by_name("IS").unwrap();
        let steps = session.clean_steps();
        assert!(session.checkpoint_at(steps).is_none());
        assert!(session.checkpoint_at(steps / 2).is_some());
    }

    #[test]
    fn figure5_series_covers_every_region_with_both_classes_possible() {
        let session = Session::by_name("IS").unwrap();
        let series = session.figure5(&quick_effort());
        for view in session.region_views() {
            assert!(
                series
                    .points
                    .iter()
                    .any(|p| p.target == view.name && p.class == TargetClass::Internal),
                "missing internal point for {}",
                view.name
            );
        }
        for p in &series.points {
            assert!((0.0..=1.0).contains(&p.success_rate));
        }
    }

    #[test]
    fn analyze_through_session_matches_pipeline_entry_point() {
        let app = ftkr_apps::mg();
        let session = Session::new(app.clone());
        let a = session.analyze(None).expect("MG has injectable sites");
        // The pipeline's builder, composed as `analyze` composes it.
        let b = session
            .injection(a.fault)
            .with_acl()
            .with_region_cases()
            .run();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(Some(a.acl.counts), b.acl.map(|acl| acl.counts));
        assert_eq!(a.clean_steps, session.clean_steps());
    }
}
