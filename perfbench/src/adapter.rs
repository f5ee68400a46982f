//! The one file through which the benchmark calls the FlipTracker crates.
//!
//! Everything else in the benchmark (timing, statistics, the output gate,
//! span bookkeeping) works on the plain types defined here: [`Bench`],
//! [`Reply`] and [`Digest`].  A change to the program's public run surface
//! therefore touches this file and nothing else in the benchmark.

use std::sync::Arc;

use fliptracker::{execute_plan_spmd, Effort, Session};
use ftkr_dddg::Dddg;
use ftkr_inject::{
    sample_site_fault, BatchContext, BatchScan, CampaignPlan, CampaignReport, CampaignTarget,
    FaultSite, IndexRange, Outcome, RankTarget, TargetClass,
};
use ftkr_mpi::{run_spmd, ReduceOp};
use ftkr_patterns::StreamingDetector;
use ftkr_trace::{instance_slice, partition_iterations, partition_regions, RegionSelector};
use ftkr_vm::{
    DecodedModule, EventCtx, FaultSpec, RunResult, TraceVisitor, Vm, VmConfig, VmSnapshot, WalkEnd,
};

use crate::spans::Spans;

/// The workloads.  `BENCHMARK.json` gates the first two; the SPMD and
/// per-injection workloads are run by hand (their spread on a shared
/// two-vCPU host is wider than any bound the benchmark may declare).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every named region of all ten apps, internal and input sites,
    /// through `Session::run_plan`.
    Fig5Regions,
    /// Every main-loop iteration of all ten apps, internal sites, through
    /// `Session::run_plan_analyzed`.
    Fig6Analyzed,
    /// MG and CG at four ranks (regions, whole program, messages), through
    /// `Session::run_plan_spmd`.
    Spmd4,
    /// The Figure-1 per-injection pipeline with ACL and region cases, one
    /// injection per call.
    DeepAnalysis,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig5Regions,
        Workload::Fig6Analyzed,
        Workload::Spmd4,
        Workload::DeepAnalysis,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Regions => "fig5_regions",
            Workload::Fig6Analyzed => "fig6_analyzed",
            Workload::Spmd4 => "spmd4",
            Workload::DeepAnalysis => "deep_analysis",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload's calls can keep busy: the rayon pool for
    /// the campaign executors, one thread for the per-injection pipeline.
    pub fn workers(self) -> usize {
        match self {
            Workload::DeepAnalysis => 1,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Tests per plan: the figure drivers' standard effort (200 tests per
/// campaign point) for the region figure, fewer where one test costs more.
fn tests_per_plan(workload: Workload) -> u64 {
    match workload {
        Workload::Fig5Regions => Effort::standard().tests_per_point,
        Workload::Fig6Analyzed => 48,
        Workload::Spmd4 => 48,
        Workload::DeepAnalysis => 1,
    }
}

/// Injections per named region in `deep_analysis` (the standard effort's
/// Table-I analysis spread).
fn injections_per_region() -> usize {
    Effort::standard().analysis_injections
}

/// The seed under which every plan keeps the seed the figure drivers use.
pub const DEFAULT_SEED: u64 = 0;

/// Per-seed salt XORed into every plan seed: zero for the default seed, so
/// that seed reproduces the figure seeds exactly.
fn salt(seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        0
    } else {
        splitmix(seed)
    }
}

/// Distinct fault sets a run cycles through: pass `p` of a run draws the
/// faults of pass seed `p % PASS_SEEDS`, so a run samples several times more
/// faults than one pass holds, and the first pass of the default seed is
/// exactly the figure drivers' campaign.
pub const PASS_SEEDS: usize = 8;

/// Salt XORed into the plan seeds of pass seed `p` (zero for the first).
fn pass_salt(p: usize) -> u64 {
    if p == 0 {
        0
    } else {
        splitmix(0x7A55_0000 + p as u64)
    }
}

/// The item running `plan`, its seed XORed with `salt`, through `wrap`:
/// one call per pass seed.
fn campaign_item(
    label: String,
    app: usize,
    plan: CampaignPlan,
    salt: u64,
    sites: Arc<Vec<FaultSite>>,
    wrap: fn(CampaignPlan) -> Call,
) -> Item {
    let seed = plan.seed ^ salt;
    Item {
        label,
        app,
        calls: (0..PASS_SEEDS)
            .map(|p| wrap(plan.clone().with_seed(seed ^ pass_salt(p))))
            .collect(),
        sites,
        seed,
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The names of the registry's applications, in registry order.
pub fn registry_names() -> Vec<&'static str> {
    ftkr_apps::all_apps().iter().map(|a| a.name).collect()
}

/// A 64-bit FNV-1a digest of a report's canonical serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one top-level call returned, reduced to what the gate checks.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Tests classified (injections analysed in `deep_analysis`).
    pub tests: u64,
    /// Harness errors plus tests degraded from the forked to the cold path.
    pub harness_failures: u64,
    /// Digest of the full report.
    pub digest: Digest,
}

/// The raw result of one call; summarised outside the timed region.
pub enum Reply {
    Plain(CampaignReport),
    Analyzed(fliptracker::AnalyzedCampaignReport),
    Spmd(ftkr_inject::SpmdCampaignReport),
    Deep(fliptracker::InjectionReport),
}

/// A campaign report's summary; `json` is the full report's serialization.
fn campaign_summary(r: &CampaignReport, json: &str) -> Summary {
    Summary {
        tests: r.n_tests,
        harness_failures: r.counts.harness_errors + r.counts.degraded,
        digest: Digest(fnv(json.as_bytes(), FNV_OFFSET)),
    }
}

impl Reply {
    pub fn summary(&self) -> Summary {
        match self {
            Reply::Plain(r) => campaign_summary(r, &r.to_json()),
            Reply::Analyzed(r) => campaign_summary(&r.report, &r.to_json()),
            Reply::Spmd(r) => campaign_summary(&r.report, &r.to_json()),
            Reply::Deep(r) => {
                let acl = r
                    .acl
                    .as_ref()
                    .expect("the deep pipeline builds the ACL table");
                let text = format!(
                    "{:?}|{:?}|{:?}|{}|{}|{}|{}|{}",
                    r.outcome,
                    r.patterns,
                    r.region_cases,
                    r.faulty_steps,
                    acl.births.len(),
                    acl.deaths.len(),
                    acl.final_corrupted.len(),
                    acl.tainted_reads.iter().filter(|&&t| t).count(),
                );
                let mut h = fnv(text.as_bytes(), FNV_OFFSET);
                for c in &acl.counts {
                    h = fnv(&c.to_le_bytes(), h);
                }
                Summary {
                    tests: 1,
                    harness_failures: u64::from(r.outcome == Outcome::HarnessError),
                    digest: Digest(h),
                }
            }
        }
    }
}

/// One top-level call of a workload.
enum Call {
    Plain(CampaignPlan),
    Analyzed(CampaignPlan),
    Spmd(CampaignPlan),
    Deep(FaultSpec),
}

/// One item of a workload: a call against one application's session, plus
/// what the per-layer replay needs to re-derive its faults.
struct Item {
    label: String,
    app: usize,
    /// One call per pass seed ([`PASS_SEEDS`]).
    calls: Vec<Call>,
    /// The site list the call's faults are drawn from (empty for message
    /// plans, which sample the communication census instead).
    sites: Arc<Vec<FaultSite>>,
    /// Sampling seed of the first pass's faults.
    seed: u64,
}

/// A workload set up and ready to run: fresh sessions with every lazy
/// artifact the calls need already computed.
pub struct Bench {
    workload: Workload,
    sessions: Vec<Session>,
    items: Vec<Item>,
}

fn open(name: &str, spans: &Spans) -> Session {
    spans
        .time("apps.session_open", || Session::by_name(name))
        .expect("registry application")
}

fn fork_step(sites: &[FaultSite]) -> u64 {
    sites.iter().map(|s| s.at_step).min().unwrap_or(0)
}

impl Bench {
    /// Open fresh sessions and compute everything the first call of each
    /// item would otherwise compute lazily: clean runs, partitions, site
    /// lists, decoded tables, fork-point checkpoints, SPMD clean state.
    pub fn setup(workload: Workload, seed: u64, names: &[&str], spans: &Spans) -> Bench {
        let salt = salt(seed);
        let apps: Vec<&str> = match workload {
            Workload::Spmd4 => vec!["MG", "CG"],
            _ => names.to_vec(),
        };
        let n = tests_per_plan(workload);
        let mut sessions = Vec::new();
        let mut items = Vec::new();
        for (a, name) in apps.iter().enumerate() {
            let s = open(name, spans);
            match workload {
                Workload::Fig5Regions => {
                    spans.time("session.region_views", || s.region_views().len());
                    for region in s.app().regions.clone() {
                        for class in [TargetClass::Internal, TargetClass::Input] {
                            let target = CampaignTarget::Region {
                                name: region.clone(),
                            };
                            let sites = spans
                                .time("inject.sites", || s.sites(&target, class))
                                .expect("named region resolves");
                            if sites.is_empty() {
                                continue;
                            }
                            let plan = s.plan(target, class, n).expect("quick-size session");
                            warm_fork(&s, &sites, spans);
                            let label = format!("{name}/{region}/{}", class_label(class));
                            items.push(campaign_item(label, a, plan, salt, sites, Call::Plain));
                        }
                    }
                    spans.time("session.decoded_module", || s.decoded_module());
                }
                Workload::Fig6Analyzed => {
                    let iterations = spans.time("session.iterations", || s.iterations().len());
                    for index in 0..iterations {
                        let target = CampaignTarget::Iteration { index };
                        let class = TargetClass::Internal;
                        let sites = spans
                            .time("inject.sites", || s.sites(&target, class))
                            .expect("iteration in range");
                        if sites.is_empty() {
                            continue;
                        }
                        let plan = s.plan(target, class, n).expect("quick-size session");
                        warm_fork(&s, &sites, spans);
                        let label = format!("{name}/iter{index}");
                        items.push(campaign_item(label, a, plan, salt, sites, Call::Analyzed));
                    }
                    spans.time("session.decoded_module", || s.decoded_module());
                }
                Workload::Spmd4 => {
                    spans.time("session.region_views", || s.region_views().len());
                    let mut targets: Vec<CampaignTarget> = s
                        .app()
                        .regions
                        .iter()
                        .map(|r| CampaignTarget::Region { name: r.clone() })
                        .collect();
                    targets.push(CampaignTarget::WholeProgram);
                    targets.push(CampaignTarget::Messages);
                    let class = TargetClass::Internal;
                    for target in targets {
                        let sites = match target {
                            CampaignTarget::Messages => Arc::new(Vec::new()),
                            _ => spans
                                .time("inject.sites", || s.sites(&target, class))
                                .expect("target resolves"),
                        };
                        let label = format!("{name}/{}", target.label());
                        let plan = s
                            .plan_spmd(target, class, n, 4, RankTarget::Sweep)
                            .expect("MG and CG have SPMD decompositions");
                        items.push(campaign_item(label, a, plan, salt, sites, Call::Spmd));
                    }
                    spans
                        .time("session.spmd_clean_state", || s.spmd_clean_state(4))
                        .expect("MG and CG have SPMD decompositions");
                }
                Workload::DeepAnalysis => {
                    spans.time("session.region_views", || s.region_views().len());
                    let instances = spans.time("session.regions", || s.regions().to_vec());
                    spans.time("session.dddgs", || {
                        for inst in &instances {
                            s.dddg(inst);
                        }
                    });
                    let k = injections_per_region();
                    for region in s.app().regions.clone() {
                        let target = CampaignTarget::Region {
                            name: region.clone(),
                        };
                        let sites = spans
                            .time("inject.sites", || s.sites(&target, TargetClass::Internal))
                            .expect("named region resolves");
                        if sites.is_empty() {
                            continue;
                        }
                        let seed = fliptracker::session::figure_seed(
                            &target.label(),
                            TargetClass::Internal,
                        ) ^ salt;
                        for j in 0..k {
                            items.push(Item {
                                label: format!("{name}/{region}/{j}"),
                                app: a,
                                calls: (0..PASS_SEEDS)
                                    .map(|p| {
                                        let pass = pass_salt(p);
                                        Call::Deep(deep_fault(
                                            &sites,
                                            j,
                                            k,
                                            seed ^ pass,
                                            salt ^ pass,
                                        ))
                                    })
                                    .collect(),
                                sites: Arc::clone(&sites),
                                seed,
                            });
                        }
                    }
                }
            }
            sessions.push(s);
        }
        Bench {
            workload,
            sessions,
            items,
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn label(&self, i: usize) -> &str {
        &self.items[i].label
    }

    /// Issue item `i`'s top-level call with the faults of pass seed `pass`.
    /// This is the timed region.
    pub fn call(&self, i: usize, pass: usize) -> Reply {
        let item = &self.items[i];
        let s = &self.sessions[item.app];
        match &item.calls[pass] {
            Call::Plain(plan) => Reply::Plain(s.run_plan(plan).expect("plan executes")),
            Call::Analyzed(plan) => {
                Reply::Analyzed(s.run_plan_analyzed(plan).expect("plan executes"))
            }
            Call::Spmd(plan) => Reply::Spmd(s.run_plan_spmd(plan).expect("plan executes")),
            Call::Deep(fault) => {
                Reply::Deep(s.injection(*fault).with_acl().with_region_cases().run())
            }
        }
    }

    /// Item `i` through its reference executor: the cold executors for the
    /// single-VM campaigns, a fresh session for the SPMD and per-injection
    /// paths.
    pub fn reference(&self, i: usize, pass: usize) -> Reply {
        let item = &self.items[i];
        let s = &self.sessions[item.app];
        match &item.calls[pass] {
            Call::Plain(plan) => Reply::Plain(s.run_plan_cold(plan).expect("plan executes")),
            Call::Analyzed(plan) => {
                Reply::Analyzed(s.run_plan_analyzed_cold(plan).expect("plan executes"))
            }
            Call::Spmd(plan) => Reply::Spmd(execute_plan_spmd(plan).expect("plan executes")),
            Call::Deep(fault) => {
                let fresh = Session::by_name(s.app().name).expect("registry application");
                Reply::Deep(fresh.injection(*fault).with_acl().with_region_cases().run())
            }
        }
    }
}

fn class_label(class: TargetClass) -> &'static str {
    match class {
        TargetClass::Internal => "internal",
        TargetClass::Input => "input",
    }
}

/// Capture the fork-point checkpoint a forked campaign over `sites` uses.
fn warm_fork(s: &Session, sites: &[FaultSite], spans: &Spans) {
    let fork = fork_step(sites);
    if fork > 0 {
        spans.time("session.checkpoint_at", || s.checkpoint_at(fork));
    }
}

/// Bit positions of the Table-I driver's analysis injections
/// (`Session::region_table`), cycled over a region's injections.
const TABLE_I_BITS: [u8; 6] = [30, 52, 12, 40, 3, 61];

/// The `j`-th of `k` analysis injections into a region.  The default seed
/// spreads them over the region's sites exactly as the Table-I driver does;
/// any other seed draws the site from `(seed, j)`.  Either way the bit is
/// the Table-I driver's `j`-th, so every seed injects the same mix of
/// mantissa, exponent and integer bits, and runs on different seeds differ
/// in where the faults strike, not in how many are catastrophic.
fn deep_fault(sites: &[FaultSite], j: usize, k: usize, seed: u64, salt: u64) -> FaultSpec {
    let bit = TABLE_I_BITS[j % TABLE_I_BITS.len()];
    if salt == 0 {
        sites[(j * sites.len() / k.max(1)).min(sites.len() - 1)].with_bit(bit)
    } else {
        FaultSpec {
            bit,
            ..sample_site_fault(seed, sites, j as u64)
        }
    }
}

// ---------------------------------------------------------------------------
// Per-layer replay (the traced run).
// ---------------------------------------------------------------------------

/// A visitor that only counts events: the streaming cost without analysis.
#[derive(Default)]
struct CountingVisitor {
    events: u64,
}

impl TraceVisitor for CountingVisitor {
    fn on_event(&mut self, _ctx: &EventCtx<'_>) {
        self.events += 1;
    }

    fn on_finish(&mut self, _end: &WalkEnd<'_>) {}
}

/// Faults replayed per item in the traced run, and how many of them also go
/// through a traced faulty run and the materialized analyses.
const REPLAY_FAULTS: u64 = 8;
const REPLAY_TRACED: u64 = 2;
/// Exchange-only SPMD jobs timed per traced run.
const MPI_JOBS: usize = 200;

impl Bench {
    /// Replay the workload layer by layer: each public call of each crate is
    /// timed in its own span, and exact counts are recorded beside them.
    pub fn replay_layers(&self, spans: &Spans) {
        for (a, s) in self.sessions.iter().enumerate() {
            let app = s.app();
            let module = &app.module;
            let id = spans.next_id();
            spans.with_id(id, || {
                spans.time("ir.decode", || DecodedModule::decode(module));
                let clean = spans
                    .time("vm.run.legacy", || Vm::new(VmConfig::default()).run(module))
                    .expect("registry module verifies");
                spans.count("vm.legacy_steps", clean.steps);
                let traced = spans
                    .time("vm.run.traced", || {
                        Vm::new(VmConfig::tracing_sized(clean.steps)).run(module)
                    })
                    .expect("registry module verifies");
                let trace = traced.trace.as_ref().expect("tracing enabled");
                spans.count("vm.traced_events", trace.len() as u64);
                spans.time("trace.partition", || {
                    partition_regions(trace, module, &RegionSelector::FirstLevelInner);
                    partition_iterations(trace, module, Some(app.main_loop));
                });
                for view in s.region_views() {
                    spans.time("dddg.from_slice", || {
                        Dddg::from_slice(instance_slice(trace, &view.instance))
                    });
                }
                if ftkr_apps::spmd_decomposition(app.name).is_some() {
                    let state = s.spmd_clean_state(4).expect("app has a decomposition");
                    spans.count("mpi.census_jobs", 1);
                    spans.count("mpi.census_messages", state.census.len() as u64);
                    spans.count(
                        "mpi.census_bytes",
                        state.census.iter().map(|m| m.len as u64 * 8).sum(),
                    );
                }
            });
            let ctx = BatchContext::new(s.clean_run());
            for item in self
                .items
                .iter()
                .filter(|it| it.app == a && !it.sites.is_empty())
            {
                let id = spans.next_id();
                spans.with_id(id, || self.replay_item(s, item, &ctx, spans));
            }
        }
        for _ in 0..MPI_JOBS {
            spans
                .time("mpi.run_spmd", || {
                    run_spmd(4, |mut comm| {
                        let rank = comm.rank();
                        let size = comm.size();
                        comm.send((rank + 1) % size, 9, vec![rank as f64]);
                        let halo = comm.recv(Some((rank + size - 1) % size), Some(9)).data[0];
                        comm.allreduce_scalar(halo, ReduceOp::Sum)
                    })
                })
                .expect("exchange-only job completes");
        }
    }

    fn replay_item(&self, s: &Session, item: &Item, ctx: &BatchContext<'_>, spans: &Spans) {
        let app = s.app();
        let module = &app.module;
        let decoded = s.decoded_module();
        let clean = s.clean_trace();
        let sites = item.sites.as_slice();
        let max_steps = s.max_steps();
        let fork = fork_step(sites);
        let snap: Option<VmSnapshot> = if fork > 0 {
            spans
                .time("vm.snapshot_at", || {
                    Vm::new(VmConfig::default()).snapshot_at(module, fork)
                })
                .expect("registry module verifies")
        } else {
            None
        };
        let primed = snap.as_ref().map(|snap| {
            spans.time("patterns.primed", || {
                StreamingDetector::primed(
                    clean,
                    snap.events_emitted() as usize,
                    snap.num_locations(),
                )
            })
        });
        let faults: Vec<FaultSpec> = match item.calls[0] {
            Call::Deep(fault) => vec![fault],
            _ => (0..REPLAY_FAULTS)
                .map(|i| sample_site_fault(item.seed, sites, i))
                .collect(),
        };
        let base = snap.as_ref().map_or(0, |snap| snap.step());
        let config = |fault| VmConfig {
            fault: Some(fault),
            max_steps,
            ..VmConfig::default()
        };
        for (i, &fault) in faults.iter().enumerate() {
            spans
                .time("ir.verify_executable", || {
                    ftkr_ir::verify::verify_executable(module)
                })
                .expect("registry module verifies");
            let result: RunResult = match &snap {
                Some(snap) => {
                    let budget = VmConfig {
                        max_steps: snap.step(),
                        ..VmConfig::default()
                    };
                    spans
                        .time("vm.restore", || {
                            Vm::new(budget).resume_from_decoded(module, decoded, snap)
                        })
                        .expect("registry module verifies");
                    spans.time("vm.resume_from_decoded", || {
                        Vm::new(config(fault)).resume_from_decoded(module, decoded, snap)
                    })
                }
                None => spans.time("vm.resume_from_decoded", || {
                    Vm::new(config(fault)).run_decoded(module, decoded)
                }),
            }
            .expect("registry module verifies");
            spans.count("vm.tests", 1);
            spans.count("vm.fork_steps", base);
            spans.count("vm.executed_steps", result.steps - base);
            if result.outcome.is_completed() {
                spans.time("apps.verify", || app.verify(&result));
            }
            if self.workload == Workload::Spmd4 {
                // SPMD ranks run the legacy interpreter cold, on every test.
                let rank = spans
                    .time("vm.run.legacy", || Vm::new(config(fault)).run(module))
                    .expect("registry module verifies");
                spans.count("vm.legacy_steps", rank.steps);
            }

            let mut counter = CountingVisitor::default();
            match &snap {
                Some(snap) => spans.time("vm.visit.noop", || {
                    Vm::new(config(fault)).resume_with_visitors_decoded(
                        module,
                        decoded,
                        snap,
                        &mut [&mut counter],
                    )
                }),
                None => spans.time("vm.visit.noop", || {
                    Vm::new(config(fault)).run_with_visitors_decoded(
                        module,
                        decoded,
                        &mut [&mut counter],
                    )
                }),
            }
            .expect("registry module verifies");
            spans.count("vm.visited_events", counter.events);
            spans.count("vm.visited_steps", result.steps - base);
            let mut detector = match &primed {
                Some(p) => p.fork(fault),
                None => StreamingDetector::new(clean, fault),
            };
            match &snap {
                Some(snap) => spans.time("vm.visit.detector", || {
                    Vm::new(config(fault)).resume_with_visitors_decoded(
                        module,
                        decoded,
                        snap,
                        &mut [&mut detector],
                    )
                }),
                None => spans.time("vm.visit.detector", || {
                    Vm::new(config(fault)).run_with_visitors_decoded(
                        module,
                        decoded,
                        &mut [&mut detector],
                    )
                }),
            }
            .expect("registry module verifies");

            if (i as u64) < REPLAY_TRACED {
                let faulty = spans.time("vm.run.traced", || s.traced_faulty_run(fault));
                let ftrace = faulty.trace.as_ref().expect("tracing enabled");
                spans.count("vm.traced_events", ftrace.len() as u64);
                spans.time("acl.analyze_fused", || {
                    ftkr_patterns::analyze_fused(ftrace, clean, &fault)
                });
                spans.count("acl.events", ftrace.len() as u64);
                spans.time("pipeline.acl", || s.injection(fault).with_acl().run());
                spans.time("pipeline.acl_regions", || {
                    s.injection(fault).with_acl().with_region_cases().run()
                });
            }
        }
        let lanes = match &item.calls[0] {
            Call::Plain(p) | Call::Analyzed(p) | Call::Spmd(p) => p.n_tests,
            Call::Deep(_) => injections_per_region() as u64,
        };
        let scan = spans.time("inject.sweep", || {
            BatchScan::sweep(item.seed, sites, IndexRange::full(lanes), ctx)
        });
        spans.count("inject.lanes", lanes);
        spans.count("inject.masked_lanes", scan.masked());
    }
}
