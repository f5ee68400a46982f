//! Campaigns with per-injection pattern analysis, on the no-materialization
//! path: every test of the campaign streams its faulty run through the
//! fused detector bank ([`ftkr_patterns::StreamingDetector`]), so outcomes
//! are classified **and** resilience patterns tallied without ever
//! materializing a faulty trace — O(locations) memory per worker, for
//! campaigns of any length.
//!
//! An analyzed campaign is the plain campaign kernel
//! ([`ftkr_inject::Campaign::run_range_with`]) with a detector attached.
//! This module supplies only what differs: it primes the detector once
//! over the clean prefix up to the start snapshot, hands the kernel a
//! per-test run that streams through a fork of it, and folds the pattern
//! tallies.  Fault sampling, sharding, the panic perimeter, the restart of
//! a failed restore from the step-0 checkpoint and classification are the
//! kernel's, so each test is executed **once** and the embedded
//! [`CampaignReport`] is bit-identical to [`Session::run_plan`] on the same
//! plan — and analyzed shard reports merge exactly like plain ones.

use serde::{Deserialize, Serialize};

use ftkr_inject::{CampaignPlan, CampaignReport, FailPlan};
use ftkr_patterns::{PatternKind, StreamingDetector};
use ftkr_vm::VmSnapshot;

use crate::session::{PlanError, Session};

/// Per-pattern instance tallies over a campaign (one counter per pattern
/// kind, serialization-friendly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternTally {
    /// Dead Corrupted Locations instances.
    pub dcl: u64,
    /// Repeated Additions instances.
    pub ra: u64,
    /// Conditional Statement instances.
    pub cs: u64,
    /// Shifting instances.
    pub shifting: u64,
    /// Truncation instances.
    pub truncation: u64,
    /// Data Overwriting instances.
    pub overwriting: u64,
}

impl PatternTally {
    /// Record `n` instances of one kind.
    pub fn record(&mut self, kind: PatternKind, n: u64) {
        match kind {
            PatternKind::DeadCorruptedLocations => self.dcl += n,
            PatternKind::RepeatedAdditions => self.ra += n,
            PatternKind::ConditionalStatement => self.cs += n,
            PatternKind::Shifting => self.shifting += n,
            PatternKind::Truncation => self.truncation += n,
            PatternKind::DataOverwriting => self.overwriting += n,
        }
    }

    /// The counter for one kind.
    pub fn count(&self, kind: PatternKind) -> u64 {
        match kind {
            PatternKind::DeadCorruptedLocations => self.dcl,
            PatternKind::RepeatedAdditions => self.ra,
            PatternKind::ConditionalStatement => self.cs,
            PatternKind::Shifting => self.shifting,
            PatternKind::Truncation => self.truncation,
            PatternKind::DataOverwriting => self.overwriting,
        }
    }

    /// Total instances across all kinds.
    pub fn total(&self) -> u64 {
        PatternKind::ALL.iter().map(|&k| self.count(k)).sum()
    }

    /// Componentwise sum.
    pub fn merge(mut self, other: PatternTally) -> PatternTally {
        for kind in PatternKind::ALL {
            self.record(kind, other.count(kind));
        }
        self
    }
}

/// A campaign report enriched with streaming pattern analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzedCampaignReport {
    /// The plain outcome tally — bit-identical to running the same plan
    /// through [`Session::run_plan`].
    pub report: CampaignReport,
    /// Pattern instances observed across all injections of the shard.
    pub patterns: PatternTally,
    /// Number of injections that exhibited at least one pattern instance.
    pub tests_with_patterns: u64,
}

impl AnalyzedCampaignReport {
    /// Merge the report of another shard of the same campaign (panics on
    /// seed/population mismatch, like [`CampaignReport::merge`]).
    pub fn merge(mut self, other: &AnalyzedCampaignReport) -> AnalyzedCampaignReport {
        self.report = self.report.merge(&other.report);
        self.patterns = self.patterns.merge(other.patterns);
        self.tests_with_patterns += other.tests_with_patterns;
        self
    }

    /// Serialize for hand-off to a coordinating process.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports serialize")
    }

    /// Parse a report previously written by
    /// [`AnalyzedCampaignReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

impl Session {
    /// Execute a campaign plan (or one shard of it) with streaming pattern
    /// analysis: each test's faulty run is consumed by the fused detector
    /// bank as it executes — no faulty trace is materialized for any of the
    /// plan's injections.  The clean reference trace *is* materialized once
    /// (pattern detection aligns faulty events against it).
    ///
    /// Like [`Session::run_plan`], mid-run fault populations fork from a
    /// fault-free checkpoint: one detector is primed over the clean prefix
    /// ([`StreamingDetector::primed`]), and every test forks it
    /// ([`StreamingDetector::fork`]) and resumes the VM from the snapshot.
    /// Both the outcome tally and the pattern tally are bit-identical to
    /// [`Session::run_plan_analyzed_cold`].
    pub fn run_plan_analyzed(
        &self,
        plan: &CampaignPlan,
    ) -> Result<AnalyzedCampaignReport, PlanError> {
        self.run_plan_analyzed_chaos(plan, FailPlan::none())
    }

    /// [`Session::run_plan_analyzed`] with a fail-point schedule armed — the
    /// analyzed twin of [`Session::run_plan_chaos`].  A failed checkpoint
    /// restore restarts that test from the step-0 checkpoint with a detector
    /// primed there (bit-identical patterns, by the fork equivalence), and a
    /// panicking verifier records [`Outcome::HarnessError`] and contributes
    /// no pattern instances.
    ///
    /// [`Outcome::HarnessError`]: ftkr_inject::Outcome::HarnessError
    pub fn run_plan_analyzed_chaos(
        &self,
        plan: &CampaignPlan,
        chaos: FailPlan,
    ) -> Result<AnalyzedCampaignReport, PlanError> {
        self.run_plan_analyzed_with(plan, true, chaos)
    }

    /// The reference executor of [`Session::run_plan_analyzed`]: every
    /// faulty run is forked from the step-0 checkpoint, so it re-executes
    /// the clean prefix and its detector streams from event zero.  Kept
    /// public (and exercised by the equivalence suite) as the baseline the
    /// fork-point path is held byte-identical to.
    pub fn run_plan_analyzed_cold(
        &self,
        plan: &CampaignPlan,
    ) -> Result<AnalyzedCampaignReport, PlanError> {
        self.run_plan_analyzed_with(plan, false, FailPlan::none())
    }

    fn run_plan_analyzed_with(
        &self,
        plan: &CampaignPlan,
        fork: bool,
        chaos: FailPlan,
    ) -> Result<AnalyzedCampaignReport, PlanError> {
        self.prologue(plan)?;
        let (sites, shard, start) = self.population(plan, fork)?;
        let clean = self.clean_trace();
        let module = &self.app().module;
        let decoded = self.decoded_module();
        let prime = |snap: &VmSnapshot| {
            StreamingDetector::primed(clean, snap.step() as usize, snap.num_locations())
        };
        // One detector is primed over the clean prefix up to the start; every
        // test forks it (cheap clone) instead of re-streaming the prefix.  A
        // test restarted from step 0 primes its own.
        let primed = prime(&start);
        // ONE streamed faulty run per test: the detector observes the events
        // as they execute, and the run result classifies the outcome.
        let (report, (patterns, tests_with_patterns)) = self
            .campaign(plan.seed)
            .with_chaos(chaos)
            .run_range_with(
                &sites,
                shard,
                &start,
                |_, fault, vm, snap| {
                    let mut detector = if snap.step() == start.step() {
                        primed.fork(fault)
                    } else {
                        prime(snap).fork(fault)
                    };
                    let result = vm.resume_with_visitors_decoded(
                        module,
                        decoded,
                        snap,
                        &mut [&mut detector],
                    );
                    let mut tally = PatternTally::default();
                    for (kind, n) in detector.kind_counts() {
                        tally.record(kind, n as u64);
                    }
                    let product = (tally, u64::from(tally.total() > 0));
                    (result.expect("module verifies"), product)
                },
                |a, b| (a.0.merge(b.0), a.1 + b.1),
            )
            .map_err(PlanError::FaultBeforeCheckpoint)?;
        Ok(AnalyzedCampaignReport {
            report,
            patterns,
            tests_with_patterns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_inject::{CampaignTarget, TargetClass};

    #[test]
    fn analyzed_campaign_counts_match_the_plain_campaign_bit_identically() {
        let session = Session::by_name("IS").expect("IS exists");
        let plan = session
            .plan(
                CampaignTarget::Region {
                    name: session.app().regions[0].clone(),
                },
                TargetClass::Internal,
                16,
            )
            .unwrap()
            .with_seed(2024);
        let plain = session.run_plan(&plan).unwrap();
        let analyzed = session.run_plan_analyzed(&plan).unwrap();
        assert_eq!(analyzed.report, plain);
        // Low-order-bit faults in a resilient region do produce patterns.
        assert!(
            analyzed.patterns.total() > 0,
            "expected some pattern instances: {analyzed:?}"
        );
        assert!(analyzed.tests_with_patterns <= plain.n_tests);
    }

    #[test]
    fn analyzed_fork_point_execution_matches_the_cold_executor_byte_for_byte() {
        let session = Session::by_name("IS").unwrap();
        let plan = session
            .plan(
                CampaignTarget::Region {
                    name: session.app().regions.last().unwrap().clone(),
                },
                TargetClass::Internal,
                16,
            )
            .unwrap()
            .with_seed(31337);
        let cold = session.run_plan_analyzed_cold(&plan).unwrap();
        let forked = session.run_plan_analyzed(&plan).unwrap();
        assert_eq!(forked.to_json(), cold.to_json());
    }

    #[test]
    fn analyzed_chaos_restore_failures_degrade_without_changing_the_analysis() {
        let session = Session::by_name("IS").unwrap();
        let plan = session
            .plan(
                CampaignTarget::Region {
                    name: session.app().regions.last().unwrap().clone(),
                },
                TargetClass::Internal,
                16,
            )
            .unwrap()
            .with_seed(404);
        let undisturbed = session.run_plan_analyzed(&plan).unwrap();
        let chaos = FailPlan {
            restore_fail: 512,
            ..FailPlan::uniform(8, 0)
        };
        let shaken = session.run_plan_analyzed_chaos(&plan, chaos).unwrap();
        assert!(
            shaken.report.counts.degraded > 0,
            "{:?}",
            shaken.report.counts
        );
        assert!(shaken.report.is_tainted());
        // Degraded tests restart from the step-0 checkpoint with a detector
        // primed there: outcome tallies AND pattern tallies are unchanged.
        let mut cleaned = shaken.clone();
        cleaned.report.counts.degraded = 0;
        assert_eq!(cleaned, undisturbed);
    }

    #[test]
    fn analyzed_verifier_panics_are_isolated_and_contribute_no_patterns() {
        let session = Session::by_name("IS").unwrap();
        let plan = session
            .plan(
                CampaignTarget::Region {
                    name: session.app().regions[0].clone(),
                },
                TargetClass::Internal,
                16,
            )
            .unwrap()
            .with_seed(505);
        let undisturbed = session.run_plan_analyzed(&plan).unwrap();
        let chaos = FailPlan {
            verifier_panic: 1024,
            ..FailPlan::uniform(1, 0)
        };
        let poisoned = session.run_plan_analyzed_chaos(&plan, chaos).unwrap();
        // Every completed run's verdict is poisoned; trapped runs keep their
        // crash kind, and no poisoned test contributes pattern instances.
        assert_eq!(poisoned.report.counts.success, 0);
        assert_eq!(poisoned.report.counts.failed, 0);
        assert_eq!(
            poisoned.report.counts.harness_errors + poisoned.report.counts.crashed(),
            undisturbed.report.counts.total()
        );
        assert!(poisoned.report.is_tainted());
        // The schedule replays bit-identically.
        assert_eq!(
            poisoned,
            session.run_plan_analyzed_chaos(&plan, chaos).unwrap()
        );
    }

    #[test]
    fn analyzed_shards_merge_like_plain_shards() {
        let session = Session::by_name("IS").unwrap();
        let plan = session
            .plan(
                CampaignTarget::Region {
                    name: session.app().regions[1].clone(),
                },
                TargetClass::Internal,
                12,
            )
            .unwrap()
            .with_seed(7);
        let monolithic = session.run_plan_analyzed(&plan).unwrap();
        let merged = plan
            .shards(3)
            .iter()
            .map(|shard| session.run_plan_analyzed(shard).unwrap())
            .reduce(|a, b| a.merge(&b))
            .unwrap();
        assert_eq!(merged, monolithic);
        // And the JSON round trip is lossless.
        let back = AnalyzedCampaignReport::from_json(&merged.to_json()).unwrap();
        assert_eq!(back, merged);
    }
}
