//! Parallel fault-injection campaigns.
//!
//! Every campaign test that runs a VM goes through one kernel,
//! [`Campaign::run_range_with`]: per test it derives the fault from
//! `(seed, index)`, runs the caller's faulty-run closure inside a
//! panic-isolation perimeter, classifies the result and folds the caller's
//! per-test product.  Single-VM campaigns run there, and so does the
//! injected rank of an SPMD test ([`crate::spmd`]).  Every test resumes
//! from a fault-free start snapshot; a test from program entry is one
//! resumed from the step-0 checkpoint.  A test that panics — a poisoned
//! verifier, a harness bug — records an [`Outcome::HarnessError`] instead of
//! tearing down the whole shard, and a test started past step 0 whose
//! checkpoint restore fails restarts from the step-0 checkpoint, recorded in
//! [`CampaignCounts::degraded`].  Both failure modes are injectable on
//! purpose via a seeded [`FailPlan`], which is how the chaos suite proves
//! the recovery paths actually work.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use ftkr_ir::Module;
use ftkr_vm::{DecodedModule, FaultSpec, RunOutcome, RunResult, Vm, VmConfig, VmSnapshot};

use crate::chaos::{FailPlan, FailSite};
use crate::outcome::{CampaignCounts, Outcome};
use crate::plan::IndexRange;
use crate::sites::FaultSite;

/// The seed campaigns sample with unless the caller overrides it.
pub const DEFAULT_SEED: u64 = 0xF11B_7EAC;

/// The dynamic step budget for a faulty run over a clean execution of
/// `clean_steps` dynamic instructions: ten times the fault-free length plus
/// slack for short programs.  Every session campaign runs under it.  A run
/// that exhausts it traps with `TrapKind::StepLimit` and classifies as a
/// hang ([`CrashKind::Hang`](crate::CrashKind::Hang)).
///
/// Pass the clean run's [`RunResult::steps`], never its trace's length: a
/// trace resumed from a snapshot records only part of the run, so its
/// `len()` undercounts dynamic steps and would shrink the budget.
pub fn hang_budget(clean_steps: u64) -> u64 {
    clean_steps * 10 + 10_000
}

/// Result of a campaign (or of one index-range shard of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Outcome tallies.
    pub counts: CampaignCounts,
    /// Number of injection tests performed.
    pub n_tests: u64,
    /// Size of the site population the tests were sampled from
    /// (`sites × 64 bits`).
    pub population: u64,
    /// The sampling seed the tests were derived from — shard reports of one
    /// campaign share it, which is how [`CampaignReport::merge`] detects
    /// reports that cannot belong together.
    pub seed: u64,
}

impl CampaignReport {
    /// Success rate of the campaign (Eq. 1 of the paper).
    pub fn success_rate(&self) -> f64 {
        self.counts.success_rate()
    }

    /// True when `other` can be a shard of the same campaign as `self`
    /// (same seed, same site population).
    pub fn same_campaign(&self, other: &CampaignReport) -> bool {
        self.population == other.population && self.seed == other.seed
    }

    /// True when this report records harness-level trouble (lost tests or
    /// degraded executions) and should be re-executed rather than trusted
    /// as final — see [`CampaignCounts::is_tainted`].
    pub fn is_tainted(&self) -> bool {
        self.counts.is_tainted()
    }

    /// The report of a shard whose executor was lost entirely (a campaign
    /// server worker that died and exhausted its retries): every test is
    /// tallied as a harness error, so the loss is visible — and taints the
    /// merged report — instead of silently shrinking `n_tests`.  Mergeable
    /// with the sibling shards of the same campaign (same population and
    /// seed).
    pub fn harness_lost(n_tests: u64, population: u64, seed: u64) -> CampaignReport {
        CampaignReport {
            counts: CampaignCounts {
                harness_errors: n_tests,
                ..CampaignCounts::default()
            },
            n_tests,
            population,
            seed,
        }
    }

    /// Combine the report of another shard of the same campaign.  Because
    /// each test's fault is a pure function of `(seed, index)`, merging the
    /// shard reports of any partition of `[0, n_tests)` is bit-identical to
    /// running the whole campaign in one process.
    ///
    /// # Panics
    /// Panics if the two reports disagree on the sampling seed or the site
    /// population (they then cannot be shards of one campaign); use
    /// [`CampaignReport::same_campaign`] to check first.
    pub fn merge(mut self, other: &CampaignReport) -> CampaignReport {
        assert_eq!(
            self.population, other.population,
            "cannot merge reports drawn from different site populations"
        );
        assert_eq!(
            self.seed, other.seed,
            "cannot merge reports sampled with different seeds"
        );
        self.counts = self.counts.merge(other.counts);
        self.n_tests += other.n_tests;
        self
    }

    /// Serialize for hand-off to a coordinating process.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports serialize")
    }

    /// Parse a report previously written by [`CampaignReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// A fork-point campaign whose site list reaches back before its
/// checkpoint: a fault sampled there would have to strike inside the
/// restored prefix, which a forked run never executes.  Returned by
/// [`Campaign::run_range_with`] before any test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBeforeCheckpoint {
    /// The earliest site's dynamic step.
    pub at_step: u64,
    /// The checkpoint's dynamic step.
    pub checkpoint: u64,
}

impl std::fmt::Display for FaultBeforeCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault site at step {} precedes the checkpoint at step {}: \
             it cannot strike in a forked run",
            self.at_step, self.checkpoint
        )
    }
}

impl std::error::Error for FaultBeforeCheckpoint {}

/// SplitMix64-style mixing of a campaign seed and a test index: the root of
/// every per-test derivation (fault sampling, rank sweeps), decorrelating
/// streams drawn from sequential indices under one seed.
pub(crate) fn mix_index(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault injected by test `index` of a campaign with `seed`: sampled
/// uniformly from `sites × 64 bits` by an RNG derived from `(seed, index)`.
/// Shared by the single-VM and SPMD executors, which is what makes a serial
/// and a parallel campaign over the same site list draw the *same fault
/// population* — the property the serial-vs-parallel comparison relies on.
pub fn sample_site_fault(seed: u64, sites: &[FaultSite], index: u64) -> FaultSpec {
    let mut rng = StdRng::seed_from_u64(mix_index(seed, index));
    let site = sites[rng.random_range(0..sites.len())];
    let bit = rng.random_range(0..64u32) as u8;
    site.with_bit(bit)
}

/// Whether a completed faulty run is acceptable, given the run and its
/// test's product (see [`Campaign::run_range_with`]).  A
/// `Fn(&RunResult) -> bool` verifier ignores the product.
pub trait Verdict<X>: Sync {
    /// True when the run passes verification.
    fn accepts(&self, result: &RunResult, product: &X) -> bool;
}

impl<X, F: Fn(&RunResult) -> bool + Sync> Verdict<X> for F {
    fn accepts(&self, result: &RunResult, _: &X) -> bool {
        self(result)
    }
}

/// A fault-injection campaign against one program.
///
/// The verifier plays the role of the application's verification phase:
/// given the run result of a *completed* faulty run it decides whether the
/// output is acceptable.  Trapped runs are classified as
/// [`Outcome::Crashed`] (carrying their [`CrashKind`](crate::CrashKind))
/// before the verifier is consulted.
pub struct Campaign<'m, F> {
    module: &'m Module,
    /// The module's dispatch tables and verification verdict.
    decoded: &'m DecodedModule,
    /// The fault-free state at step 0: where a test whose restore failed
    /// restarts.
    entry: VmSnapshot,
    verify: F,
    max_steps: u64,
    seed: u64,
    chaos: FailPlan,
}

impl<'m, F> Campaign<'m, F> {
    /// A campaign for `module` judged by `verify`, over tables the caller
    /// already decoded and its step-0 checkpoint `entry`, so creating the
    /// campaign neither decodes nor verifies.  `decoded` must be
    /// [`DecodedModule::decode`] of this `module`, and `entry` its
    /// fault-free [`Vm::snapshot_at`] step 0.
    pub fn new(
        module: &'m Module,
        decoded: &'m DecodedModule,
        entry: VmSnapshot,
        verify: F,
    ) -> Self {
        Campaign {
            module,
            decoded,
            entry,
            verify,
            max_steps: VmConfig::default().max_steps,
            seed: DEFAULT_SEED,
            chaos: FailPlan::none(),
        }
    }

    /// Set the dynamic step limit used for faulty runs (hang detection).
    /// A sensible value is [`hang_budget`] of the fault-free step count.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Set the sampling seed (campaigns are deterministic given the seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Arm a fail-point schedule: restore failures and verifier panics fire
    /// deterministically per test index, exercising the degradation and
    /// panic-isolation paths.  The default is [`FailPlan::none`].
    pub fn with_chaos(mut self, chaos: FailPlan) -> Self {
        self.chaos = chaos;
        self
    }

    fn config(&self, fault: FaultSpec) -> VmConfig {
        VmConfig {
            fault: Some(fault),
            max_steps: self.max_steps,
            ..VmConfig::default()
        }
    }

    /// The untraced faulty run, resumed from `snapshot`.
    pub(crate) fn untraced(&self, vm: Vm, snapshot: &VmSnapshot) -> RunResult {
        vm.resume_from_decoded(self.module, self.decoded, snapshot)
            .expect("campaign module must verify")
    }

    /// The campaign kernel: run the tests `[range.start, range.end)`, each
    /// resumed from the fault-free `start` snapshot, and assemble their
    /// report.
    ///
    /// `run` executes one faulty run: it gets the test's index and fault, a
    /// [`Vm`] configured with that fault and the campaign's step budget, and
    /// the snapshot to resume from — `start`, or the step-0 checkpoint for a
    /// test whose restore failed.  It returns the run result the test is
    /// classified by, plus a per-test product — an analysis that rode along
    /// the run, or what followed it.  A trapped run classifies by its trap;
    /// a completed one by the campaign's [`Verdict`], which may read the
    /// product.  `fold` combines the products of the tests that did not end
    /// as [`Outcome::HarnessError`]; a degraded test contributes the product
    /// of its restart.
    ///
    /// Every test runs inside the panic perimeter: a panicking run, a
    /// failed restore and a panicking verdict are contained per test, and
    /// the armed [`FailPlan`] fires per test index.  A start past step 0
    /// that fails restarts from the step-0 checkpoint and counts as
    /// degraded; a start at step 0 has no restore to fail.  Sampling,
    /// sharding and report assembly do not depend on `start`, so a forked
    /// campaign's report equals the one started from the step-0 checkpoint
    /// whenever `run` executes the faulty run faithfully and the verdict is
    /// the campaign verifier's.
    ///
    /// The tests run in parallel, one worker per available core; each
    /// one's fault is [`sample_site_fault`] of `(seed, index)`, and the
    /// per-test counts and products fold in index order whatever the
    /// schedule.
    ///
    /// # Errors
    /// [`FaultBeforeCheckpoint`] when a site precedes `start`; checked
    /// once, before any test runs.
    pub fn run_range_with<X: Default + Send>(
        &self,
        sites: &[FaultSite],
        range: IndexRange,
        start: &VmSnapshot,
        run: impl Fn(u64, FaultSpec, Vm, &VmSnapshot) -> (RunResult, X) + Sync,
        fold: impl Fn(X, X) -> X + Sync,
    ) -> Result<(CampaignReport, X), FaultBeforeCheckpoint>
    where
        F: Verdict<X>,
    {
        if let Some(at_step) = sites.iter().map(|s| s.at_step).min() {
            if at_step < start.step() {
                return Err(FaultBeforeCheckpoint {
                    at_step,
                    checkpoint: start.step(),
                });
            }
        }
        let mut report = CampaignReport {
            counts: CampaignCounts::default(),
            n_tests: 0,
            population: sites.len() as u64 * 64,
            seed: self.seed,
        };
        if sites.is_empty() || range.is_empty() {
            return Ok((report, X::default()));
        }
        let (counts, product) = ordered_fold(
            range,
            |index| self.test(index, sites, start, &run),
            |a: (CampaignCounts, X), b| (a.0.merge(b.0), fold(a.1, b.1)),
        );
        report.counts = counts;
        report.n_tests = range.len();
        Ok((report, product))
    }

    /// One test of the kernel: derive its fault, execute (from `start`,
    /// restarting from the step-0 checkpoint when a later start fails),
    /// classify, and tally.  Returns the test's counts and its product.
    fn test<X: Default>(
        &self,
        index: u64,
        sites: &[FaultSite],
        start: &VmSnapshot,
        run: &impl Fn(u64, FaultSpec, Vm, &VmSnapshot) -> (RunResult, X),
    ) -> (CampaignCounts, X)
    where
        F: Verdict<X>,
    {
        let fault = sample_site_fault(self.seed, sites, index);
        let execute = |snap: &VmSnapshot| {
            catch_unwind(AssertUnwindSafe(|| {
                if snap.step() > 0 {
                    self.chaos.trip(FailSite::RestoreCheckpoint, index);
                }
                run(index, fault, Vm::new(self.config(fault)), snap)
            }))
            .ok()
        };
        // A fork that failed at the harness level restarts from program
        // entry: bit-identical classification, just slower.
        let (executed, degraded) = match execute(start) {
            Some(done) => (Some(done), false),
            None if start.step() > 0 => (execute(&self.entry), true),
            None => (None, false),
        };
        let outcome = match &executed {
            Some((result, product)) => self.classify(result, product, index),
            None => Outcome::HarnessError,
        };
        let mut counts = CampaignCounts {
            degraded: u64::from(degraded),
            ..CampaignCounts::default()
        };
        counts.record(outcome);
        // A harness-errored test contributes no product: its analysis
        // cannot be trusted, and the taint marks it for re-execution.
        match executed {
            Some((_, product)) if outcome != Outcome::HarnessError => (counts, product),
            _ => (counts, X::default()),
        }
    }

    /// Classify a finished run: traps map to their [`CrashKind`]
    /// (`TrapKind::StepLimit` is the hang bucket), completed runs are judged
    /// by the verdict — itself inside the panic perimeter, so a poisoned
    /// verifier yields [`Outcome::HarnessError`] instead of killing the
    /// worker.
    ///
    /// [`CrashKind`]: crate::CrashKind
    fn classify<X>(&self, result: &RunResult, product: &X, index: u64) -> Outcome
    where
        F: Verdict<X>,
    {
        match result.outcome {
            RunOutcome::Trapped(trap) => Outcome::crashed(trap),
            RunOutcome::Completed => catch_unwind(AssertUnwindSafe(|| {
                self.chaos.trip(FailSite::Verifier, index);
                if self.verify.accepts(result, product) {
                    Outcome::VerificationSuccess
                } else {
                    Outcome::VerificationFailed
                }
            }))
            .unwrap_or(Outcome::HarnessError),
        }
    }
}

/// Blocks per worker of [`ordered_fold`]: enough that uneven test costs
/// even out across workers, few enough that the block partials stay cheap.
const BLOCKS_PER_THREAD: usize = 8;

/// Map every index of `range` through `test` and fold the results with
/// `op`, in index order: the kernel's one parallel loop.  One scoped worker
/// per available core (capped at the test count; inline when that is 1)
/// claims blocks of indices from a shared counter, so a worker that draws
/// cheap tests takes more blocks instead of idling behind a slow one.  Each
/// block folds from `R::default()`, and the block partials fold in block
/// order, so the result is exact for an associative `op` even when it is
/// not commutative.  A worker's panic is re-raised with its own payload.
fn ordered_fold<R: Default + Send>(
    range: IndexRange,
    test: impl Fn(u64) -> R + Sync,
    op: impl Fn(R, R) -> R + Sync,
) -> R {
    let len = range.len() as usize;
    let fold = |lo: usize, hi: usize| {
        let indices = range.start + lo as u64..range.start + hi as u64;
        indices.map(&test).fold(R::default(), &op)
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = threads.min(len);
    if threads <= 1 {
        return fold(0, len);
    }
    let block = len.div_ceil(threads * BLOCKS_PER_THREAD);
    // The counter hands out block starts; the partials come back through
    // `join`, so `Relaxed` publishes nothing it would have to order.
    let next = AtomicUsize::new(0);
    let (next, fold) = (&next, &fold);
    let claim = move || {
        let lo = next.fetch_add(block, Ordering::Relaxed);
        (lo < len).then(|| (lo, fold(lo, (lo + block).min(len))))
    };
    let mut partials: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| scope.spawn(move || std::iter::from_fn(claim).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    partials.sort_unstable_by_key(|&(lo, _)| lo);
    partials.into_iter().map(|(_, r)| r).fold(R::default(), op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::{input_sites, internal_sites};
    use ftkr_ir::prelude::*;
    use ftkr_ir::Global;

    /// A small program with a verification phase: it sums 1.0 sixteen times
    /// into a global and "verifies" that the result is within 5% of 16.
    fn module() -> Module {
        let mut m = Module::new("sum16");
        let g = m.add_global(Global::zeroed_f64("total", 1));
        let mut b = FunctionBuilder::new("main");
        let gaddr = b.global_addr(g);
        let zero = b.const_i64(0);
        let n = b.const_i64(16);
        b.main_for("accumulate", zero, n, |b, _i| {
            let cur = b.load(gaddr);
            let one = b.const_f64(1.0);
            let next = b.fadd(cur, one);
            b.store(gaddr, next);
        });
        let total = b.load(gaddr);
        b.output(total, OutputFormat::Scientific(6));
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    fn verify(result: &RunResult) -> bool {
        result
            .global_f64("total")
            .map(|v| (v[0] - 16.0).abs() / 16.0 < 0.05)
            .unwrap_or(false)
    }

    /// The traced fault-free run.  Tests derive sites from the trace and the
    /// hang budget from `steps` (via [`hang_budget`]) — never from
    /// `trace.len()`, which undercounts dynamic steps for a partial trace.
    fn clean_run(module: &Module) -> RunResult {
        Vm::new(VmConfig::tracing()).run(module).unwrap()
    }

    /// What a campaign borrows from its caller: the module's decoded
    /// tables, and its step-0 checkpoint.
    struct Kernel {
        decoded: DecodedModule,
        entry: VmSnapshot,
    }

    impl Kernel {
        fn of(module: &Module) -> Kernel {
            Kernel {
                decoded: DecodedModule::decode(module),
                entry: Vm::new(VmConfig::default())
                    .snapshot_at(module, 0)
                    .unwrap()
                    .expect("step 0 exists"),
            }
        }

        /// A campaign over these tables judged by `verify`.
        fn campaign<'m, F>(&'m self, module: &'m Module, verify: F) -> Campaign<'m, F> {
            Campaign::new(module, &self.decoded, self.entry.clone(), verify)
        }
    }

    /// The plain campaign with every test forked from `start`: the kernel
    /// around the untraced run.
    fn run_from<F: Fn(&RunResult) -> bool + Sync>(
        campaign: &Campaign<'_, F>,
        sites: &[FaultSite],
        range: IndexRange,
        start: &VmSnapshot,
    ) -> Result<CampaignReport, FaultBeforeCheckpoint> {
        campaign
            .run_range_with(
                sites,
                range,
                start,
                |_, _, vm, snap| (campaign.untraced(vm, snap), ()),
                |(), ()| (),
            )
            .map(|(report, ())| report)
    }

    /// The plain campaign with every test from program entry.
    fn run_range<F: Fn(&RunResult) -> bool + Sync>(
        campaign: &Campaign<'_, F>,
        sites: &[FaultSite],
        range: IndexRange,
    ) -> CampaignReport {
        run_from(campaign, sites, range, &campaign.entry).expect("no site precedes step 0")
    }

    #[test]
    fn fault_free_program_passes_its_own_verification() {
        let m = module();
        let r = Vm::new(VmConfig::default()).run(&m).unwrap();
        assert!(verify(&r));
    }

    #[test]
    fn campaign_over_internal_sites_produces_mixed_outcomes() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        assert!(!sites.is_empty());
        let campaign = k
            .campaign(&m, verify)
            .with_max_steps(hang_budget(clean.steps));
        let report = run_range(&campaign, &sites, IndexRange::full(200));
        assert_eq!(report.counts.total(), 200);
        assert_eq!(report.population, sites.len() as u64 * 64);
        // No chaos armed: nothing may be lost or degraded.
        assert!(!report.is_tainted());
        assert_eq!(report.counts.harness_errors, 0);
        // The legacy three-way crashed bucket is the sum of the per-kind
        // tallies by construction.
        assert_eq!(
            report.counts.crashed(),
            crate::CrashKind::ALL
                .iter()
                .map(|&k| report.counts.crashes.count(k))
                .sum::<u64>()
        );
        // Low-order mantissa flips are tolerated, so some runs succeed; flips
        // in the loop counter or addresses crash or corrupt, so not all do.
        assert!(
            report.success_rate() > 0.05,
            "rate {}",
            report.success_rate()
        );
        assert!(
            report.success_rate() < 1.0,
            "rate {}",
            report.success_rate()
        );
    }

    #[test]
    fn campaigns_are_deterministic_given_a_seed() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let max_steps = hang_budget(clean.steps);
        let seeded = |seed| {
            let campaign = k
                .campaign(&m, verify)
                .with_seed(seed)
                .with_max_steps(max_steps);
            run_range(&campaign, &sites, IndexRange::full(64))
        };
        let (c1, c2, c3) = (seeded(7), seeded(7), seeded(8));
        assert_eq!(c1.counts, c2.counts);
        // A different seed samples different faults (overwhelmingly likely to
        // change at least one tally for this program).
        assert!(c1.counts != c3.counts || c1.counts.total() == c3.counts.total());
    }

    #[test]
    fn input_site_campaign_on_the_accumulator_is_resilient_to_overwrites() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        // The accumulator cell is overwritten by the first loop iteration, so
        // input faults at step 0 are frequently masked (Data Overwriting).
        let sites = input_sites(0, &[(ftkr_vm::Location::mem(0), ftkr_vm::Value::F(0.0))]);
        let campaign = k
            .campaign(&m, verify)
            .with_max_steps(hang_budget(clean.steps));
        let report = run_range(&campaign, &sites, IndexRange::full(64));
        assert!(
            report.success_rate() > 0.9,
            "rate {}",
            report.success_rate()
        );
    }

    #[test]
    fn per_index_fault_derivation_is_deterministic_and_shardable() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let max_steps = hang_budget(clean.steps);
        let campaign = k
            .campaign(&m, verify)
            .with_seed(42)
            .with_max_steps(max_steps);
        // The fault of test i is a pure function of (seed, i).
        for i in [0u64, 1, 7, 63] {
            assert_eq!(
                sample_site_fault(42, &sites, i),
                sample_site_fault(42, &sites, i)
            );
        }
        // Replaying every index on its own reproduces the parallel tally —
        // the property that makes campaigns shardable by index range.
        let report = run_range(&campaign, &sites, IndexRange::full(48));
        let replay = (0..48)
            .map(|i| run_range(&campaign, &sites, IndexRange::new(i, i + 1)).counts)
            .fold(CampaignCounts::default(), CampaignCounts::merge);
        assert_eq!(report.counts, replay);
        // Neighbouring indices do not all sample the same site.
        let distinct: std::collections::HashSet<u64> = (0..16)
            .map(|i| sample_site_fault(42, &sites, i).at_step)
            .collect();
        assert!(distinct.len() > 4, "indices collapse onto {distinct:?}");
    }

    #[test]
    fn empty_site_list_yields_empty_report() {
        let m = module();
        let k = Kernel::of(&m);
        let campaign = k.campaign(&m, verify);
        let report = run_range(&campaign, &[], IndexRange::full(100));
        assert_eq!(report.counts.total(), 0);
        assert_eq!(report.n_tests, 0);
    }

    #[test]
    fn sharded_run_ranges_merge_bit_identically_to_the_monolithic_run() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let campaign = k
            .campaign(&m, verify)
            .with_seed(1234)
            .with_max_steps(hang_budget(clean.steps));
        let monolithic = run_range(&campaign, &sites, IndexRange::full(60));
        // Three deliberately uneven shards covering [0, 60).
        let shards = [
            IndexRange::new(0, 1),
            IndexRange::new(1, 44),
            IndexRange::new(44, 60),
        ];
        let merged = shards
            .iter()
            .map(|&r| run_range(&campaign, &sites, r))
            .reduce(|a, b| a.merge(&b))
            .unwrap();
        assert_eq!(merged, monolithic);
        // A report survives the JSON round trip unchanged.
        let back = CampaignReport::from_json(&merged.to_json()).unwrap();
        assert_eq!(back, merged);
    }

    #[test]
    fn fork_point_campaign_matches_the_cold_campaign_bit_for_bit() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        // Restrict sites to the second half of the trace, then checkpoint at
        // the earliest sampled step: every fault lands at or after the fork.
        let window_start = trace.len() / 2;
        let sites = internal_sites(trace, window_start, trace.len());
        assert!(!sites.is_empty());
        let fork = sites.iter().map(|s| s.at_step).min().unwrap();
        let snapshot = Vm::new(VmConfig::default())
            .snapshot_at(&m, fork)
            .unwrap()
            .expect("fork step is mid-run");
        let campaign = k
            .campaign(&m, verify)
            .with_seed(99)
            .with_max_steps(hang_budget(clean.steps));
        let cold = run_range(&campaign, &sites, IndexRange::full(120));
        let forked = run_from(&campaign, &sites, IndexRange::full(120), &snapshot).unwrap();
        assert_eq!(forked, cold);
        assert_eq!(forked.counts.degraded, 0, "no chaos: no degradation");
        // Sharded fork-point ranges merge exactly like cold ones.
        let merged = [IndexRange::new(0, 37), IndexRange::new(37, 120)]
            .iter()
            .map(|&r| run_from(&campaign, &sites, r, &snapshot).unwrap())
            .reduce(|a, b| a.merge(&b))
            .unwrap();
        assert_eq!(merged, cold);
    }

    #[test]
    fn fork_point_campaign_rejects_sites_before_the_checkpoint_up_front() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let fork = trace.len() as u64 / 2;
        let snapshot = Vm::new(VmConfig::default())
            .snapshot_at(&m, fork)
            .unwrap()
            .unwrap();
        // The verifier panics if any test runs: the site list is rejected
        // before the first worker starts.
        let campaign = k.campaign(&m, |_r: &RunResult| -> bool { panic!("no test may run") });
        let sites = internal_sites(trace, 0, trace.len());
        assert_eq!(
            run_from(&campaign, &sites, IndexRange::full(32), &snapshot),
            Err(FaultBeforeCheckpoint {
                at_step: 0,
                checkpoint: fork,
            })
        );
        // A site list starting exactly at the checkpoint is accepted, and an
        // empty one has nothing to reject.
        let late = internal_sites(trace, fork as usize, trace.len());
        let poisoned = run_from(&campaign, &late, IndexRange::full(4), &snapshot).unwrap();
        assert_eq!(poisoned.n_tests, 4);
        let empty = run_from(&campaign, &[], IndexRange::full(4), &snapshot).unwrap();
        assert_eq!(empty.n_tests, 0);
    }

    #[test]
    fn panicking_verifier_is_isolated_as_a_harness_error() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let poisoned = k
            .campaign(&m, |_r: &RunResult| -> bool { panic!("verifier bug") })
            .with_max_steps(hang_budget(clean.steps));
        // The shard survives; every completed run classifies as a harness
        // error, and trapped runs still classify by their crash kind.
        let report = run_range(&poisoned, &sites, IndexRange::full(32));
        assert_eq!(report.counts.total(), 32);
        assert_eq!(report.counts.success, 0);
        assert_eq!(report.counts.failed, 0);
        assert!(report.counts.harness_errors > 0, "{:?}", report.counts);
        assert!(report.is_tainted());
        assert_eq!(
            report.counts.harness_errors + report.counts.crashed(),
            32,
            "completed runs become harness errors, trapped runs keep their kind"
        );
    }

    #[test]
    fn chaos_verifier_panics_taint_exactly_the_scheduled_tests() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let chaos = FailPlan {
            verifier_panic: 512,
            ..FailPlan::uniform(77, 0)
        };
        let campaign = k
            .campaign(&m, verify)
            .with_seed(5)
            .with_max_steps(hang_budget(clean.steps))
            .with_chaos(chaos);
        let report = run_range(&campaign, &sites, IndexRange::full(64));
        assert!(
            report.counts.harness_errors > 0,
            "~half the verdicts are poisoned"
        );
        assert!(report.is_tainted());
        // The schedule is a pure function of (seed, index): re-running
        // reproduces the tainted tally bit-identically.
        let again = run_range(&campaign, &sites, IndexRange::full(64));
        assert_eq!(report, again);
    }

    #[test]
    fn chaos_restore_failures_degrade_to_the_cold_path_with_identical_outcomes() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let window_start = trace.len() / 2;
        let sites = internal_sites(trace, window_start, trace.len());
        let fork = sites.iter().map(|s| s.at_step).min().unwrap();
        let snapshot = Vm::new(VmConfig::default())
            .snapshot_at(&m, fork)
            .unwrap()
            .expect("fork step is mid-run");
        let max_steps = hang_budget(clean.steps);
        let reference = k
            .campaign(&m, verify)
            .with_seed(11)
            .with_max_steps(max_steps);
        let reference = run_range(&reference, &sites, IndexRange::full(48));
        let chaos = FailPlan {
            restore_fail: 512,
            ..FailPlan::uniform(3, 0)
        };
        let shaken = k
            .campaign(&m, verify)
            .with_seed(11)
            .with_max_steps(max_steps)
            .with_chaos(chaos);
        let degraded = run_from(&shaken, &sites, IndexRange::full(48), &snapshot).unwrap();
        // Roughly half the restores failed — but every degraded test
        // restarted from program entry, so the outcome tallies are identical.
        assert!(degraded.counts.degraded > 0, "{:?}", degraded.counts);
        assert!(degraded.is_tainted());
        let mut cleaned = degraded.counts;
        cleaned.degraded = 0;
        assert_eq!(cleaned, reference.counts);
    }

    #[test]
    fn the_kernel_folds_the_product_of_the_path_each_test_took() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, trace.len() / 2, trace.len());
        let fork = sites.iter().map(|s| s.at_step).min().unwrap();
        let snapshot = Vm::new(VmConfig::default())
            .snapshot_at(&m, fork)
            .unwrap()
            .expect("fork step is mid-run");
        let range = IndexRange::full(64);
        let chaos = FailPlan {
            restore_fail: 512,
            verifier_panic: 512,
            ..FailPlan::uniform(29, 0)
        };
        let campaign = k
            .campaign(&m, verify)
            .with_seed(17)
            .with_max_steps(hang_budget(clean.steps))
            .with_chaos(chaos);
        // The product counts the tests that ran (forked, from entry).
        let (report, (forked, cold)) = campaign
            .run_range_with(
                &sites,
                range,
                &snapshot,
                |_, _, vm, snap| {
                    let path = if snap.step() > 0 {
                        (1u64, 0u64)
                    } else {
                        (0, 1)
                    };
                    (campaign.untraced(vm, snap), path)
                },
                |a, b| (a.0 + b.0, a.1 + b.1),
            )
            .unwrap();
        assert_eq!(
            report,
            run_from(&campaign, &sites, range, &snapshot).unwrap(),
            "the product does not change the report"
        );
        // Which tests the schedule degrades and poisons: a verifier panic
        // only strikes a run that completed.
        let undisturbed = k
            .campaign(&m, verify)
            .with_seed(17)
            .with_max_steps(hang_budget(clean.steps));
        let (mut want_forked, mut want_cold) = (0, 0);
        for i in range.start..range.end {
            let completed = run_range(&undisturbed, &sites, IndexRange::new(i, i + 1))
                .counts
                .crashed()
                == 0;
            if completed && chaos.fires(FailSite::Verifier, i) {
                continue;
            }
            if chaos.fires(FailSite::RestoreCheckpoint, i) {
                want_cold += 1;
            } else {
                want_forked += 1;
            }
        }
        // Degraded tests fold their restart's product; poisoned tests fold
        // nothing.
        assert!(want_cold > 0 && want_forked > 0);
        assert!(report.counts.harness_errors > 0 && report.counts.degraded > 0);
        assert_eq!((forked, cold), (want_forked, want_cold));
        assert_eq!(forked + cold + report.counts.harness_errors, report.n_tests);
    }

    /// Uneven per-test cost makes workers finish their blocks out of order;
    /// the products must still fold in index order, on any core count.
    #[test]
    fn products_fold_in_index_order_whatever_the_schedule() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let campaign = k.campaign(&m, verify);
        for len in 0..=257u64 {
            let range = IndexRange::new(3, 3 + len);
            let (report, order) = campaign
                .run_range_with(
                    &sites,
                    range,
                    &k.entry,
                    |index, _, _, _| {
                        let spin = if index.is_multiple_of(7) { 20_000 } else { 10 };
                        let mut x = index;
                        for _ in 0..spin {
                            x = std::hint::black_box(
                                x.wrapping_mul(6364136223846793005).wrapping_add(1),
                            );
                        }
                        (clean.clone(), vec![index])
                    },
                    |mut a: Vec<u64>, b| {
                        a.extend(b);
                        a
                    },
                )
                .unwrap();
            let want: Vec<u64> = (range.start..range.end).collect();
            assert_eq!(order, want, "range of length {len}");
            assert_eq!(report.counts.success, len);
        }
    }

    /// A panic outside the per-test perimeter is not a harness error: one
    /// in `fold` surfaces from the kernel with its own payload.
    #[test]
    fn a_panic_in_fold_surfaces_with_its_own_payload() {
        let m = module();
        let k = Kernel::of(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let campaign = k.campaign(&m, verify);
        let err = catch_unwind(AssertUnwindSafe(|| {
            campaign.run_range_with(
                &sites,
                IndexRange::full(64),
                &k.entry,
                |index, _, _, _| (clean.clone(), vec![index]),
                |mut a: Vec<u64>, b| {
                    if let Some(i) = b.iter().find(|&&i| i == 40) {
                        panic!("fold saw test {i}");
                    }
                    a.extend(b);
                    a
                },
            )
        }))
        .expect_err("fold panicked");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("fold saw test 40")
        );
    }

    #[test]
    #[should_panic(expected = "different site populations")]
    fn merging_reports_of_different_populations_panics() {
        let a = CampaignReport {
            counts: CampaignCounts::default(),
            n_tests: 0,
            population: 64,
            seed: 1,
        };
        let b = CampaignReport {
            population: 128,
            ..a
        };
        assert!(!a.same_campaign(&b));
        let _ = a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "different seeds")]
    fn merging_reports_of_different_seeds_panics() {
        let a = CampaignReport {
            counts: CampaignCounts::default(),
            n_tests: 0,
            population: 64,
            seed: 1,
        };
        let b = CampaignReport { seed: 2, ..a };
        assert!(!a.same_campaign(&b));
        let _ = a.merge(&b);
    }
}
