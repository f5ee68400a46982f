//! Multi-rank (SPMD) fault-campaign executor.
//!
//! Each test of an SPMD campaign runs the application as an `nranks`-way
//! [`run_spmd`] job with the fault landing in exactly one place: one rank's
//! VM for computation faults ([`SpmdFaults::Computation`]), or one message
//! payload at a communicator boundary for message faults
//! ([`SpmdFaults::Messages`]).  Every rank executes the *same* kernel module
//! — a symmetric block partition of an `nranks×` larger problem (see
//! `ftkr_apps::spmd`) — and the ranks exchange values under a fixed,
//! deterministic protocol:
//!
//! 1. each rank sends its boundary value to the next rank in the ring and
//!    receives its predecessor's (directed receives, one message per edge);
//! 2. the received halo is folded into the local partial:
//!    `coupled = partial + coupling × halo`;
//! 3. an allreduce combines the coupled contributions into the global value
//!    every rank verifies against its clean counterpart.
//!
//! Determinism carries over from the single-VM campaigns: each test's fault
//! is a pure function of `(seed, index)` (the *same* function the serial
//! executor uses, so serial and parallel campaigns draw identical fault
//! populations), every receive is directed, and the reduction order is fixed
//! by rank index.  Shard reports therefore merge bit-identically, the same
//! bar the PR-3/PR-6 machinery holds.
//!
//! Ranks not hosting the fault do not re-execute the VM: the kernel is
//! deterministic, so their local results are the cached clean ones, and only
//! the exchange runs for real.  Message-fault tests execute no VM at all.
//! A rank whose faulty VM traps (or whose harness panics) still completes
//! the exchange with its (deterministic) final state, so no rank can strand
//! a peer in a blocking receive.

use std::panic::{self, AssertUnwindSafe};

use ftkr_ir::Module;
use ftkr_mpi::{run_spmd, Communicator, MsgFault, ReduceOp, SendRecord};
use ftkr_patterns::divergence::{classify_ranks, RankDigest, RankDivergence};
use ftkr_vm::{DecodedModule, FaultSpec, RunOutcome, RunResult, Vm, VmConfig};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::campaign::{mix_index, sample_site_fault, CampaignReport};
use crate::outcome::{CampaignCounts, CrashKind, Outcome};
use crate::plan::{IndexRange, RankTarget};
use crate::sites::FaultSite;

/// Tag of the ring halo-exchange messages (collectives use negative tags).
const TAG_HALO: i64 = 9;

/// Salt decorrelating the rank-sweep stream from the fault-sampling stream
/// derived from the same `(seed, index)`.
const RANK_SWEEP_SALT: u64 = 0x52A6_4B01_9E3C_7D55;

/// Salt decorrelating the message-choice stream likewise.
const MSG_CHOICE_SALT: u64 = 0x6D5F_AA11_C3E8_2B99;

/// How the application under campaign behaves as one rank of an SPMD job.
/// The closures carry the app-specific semantics (which globals play the
/// partial/boundary/state roles); everything else — execution, exchange,
/// classification — is generic.
pub struct SpmdHarness<'m> {
    /// The kernel every rank executes.
    pub module: &'m Module,
    /// The kernel's dispatch tables ([`DecodedModule::decode`] of `module`).
    pub decoded: &'m DecodedModule,
    /// Ranks per job.
    pub nranks: usize,
    /// Weight of the received halo in a rank's combined contribution.
    pub coupling: f64,
    /// Dynamic step budget of a faulty run (hang detection).
    pub max_steps: u64,
    /// Relative tolerance of the combined-value verification against the
    /// clean combined value.
    pub combine_rel_tol: f64,
    /// A rank's allreduce contribution, read from a finished local run.
    pub partial: Box<dyn Fn(&RunResult) -> f64 + Sync + 'm>,
    /// The boundary value a rank exports to its ring neighbour.
    pub boundary: Box<dyn Fn(&RunResult) -> f64 + Sync + 'm>,
    /// Digest of a rank's observable output state (see
    /// [`ftkr_patterns::divergence::state_fnv`]).
    pub state_digest: Box<dyn Fn(&RunResult) -> u64 + Sync + 'm>,
}

/// Which fault population an SPMD campaign draws from.
pub enum SpmdFaults<'s> {
    /// Single-bit computation faults from a site list (the population the
    /// serial campaigns use), landing in one rank's VM per test.
    Computation {
        /// The shared site population.
        sites: &'s [FaultSite],
        /// Which rank hosts the fault.
        rank_target: RankTarget,
    },
    /// Single-bit payload corruptions of the messages recorded in the clean
    /// census, applied at the send boundary.
    Messages,
}

/// One rank's local execution summary — everything the exchange and the
/// divergence comparison need, without holding the full [`RunResult`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankLocal {
    /// Dynamic instructions executed.
    pub steps: u64,
    /// The crash class of a trapped run.
    pub crash: Option<CrashKind>,
    /// True when the harness (not the program) failed.
    pub harness: bool,
    /// State digest of the finished run.
    pub state_fnv: u64,
    /// Allreduce contribution.
    pub partial: f64,
    /// Exported boundary value.
    pub boundary: f64,
}

/// The cached fault-free SPMD execution: per-rank clean digests, the clean
/// combined value, and the message census the message-fault population is
/// drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmdCleanState {
    /// Clean local execution (identical on every rank by symmetry).
    pub local: RankLocal,
    /// Clean per-rank digests (the divergence baseline).
    pub digests: Vec<RankDigest>,
    /// Clean combined (allreduced) value.
    pub global: f64,
    /// Every message of the clean execution, rank-0-first in send order —
    /// the canonical message population.
    pub census: Vec<SendRecord>,
}

/// Masked / contained / spread tallies — the merge-compatible extension of
/// [`CampaignCounts`] the rank-divergence detector fills in.  Tests that
/// crash or lose their harness are not classified (containment is a
/// silent-data-flow property), so `classified()` can be smaller than the
/// report's test count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DivergenceCounts {
    /// No rank's digest differed from clean.
    pub masked: u64,
    /// Only the injected rank diverged.
    pub contained: u64,
    /// A non-injected rank diverged: the fault crossed a rank boundary.
    pub spread: u64,
}

impl DivergenceCounts {
    /// Record one classified test.
    pub fn record(&mut self, divergence: RankDivergence) {
        match divergence {
            RankDivergence::Masked => self.masked += 1,
            RankDivergence::Contained => self.contained += 1,
            RankDivergence::Spread => self.spread += 1,
        }
    }

    /// Number of tests that were classified at all.
    pub fn classified(&self) -> u64 {
        self.masked + self.contained + self.spread
    }

    /// Of the tests whose corruption became observable, the fraction that
    /// stayed inside the injected rank.  `0` when nothing diverged.
    pub fn containment_rate(&self) -> f64 {
        let diverged = self.contained + self.spread;
        if diverged == 0 {
            0.0
        } else {
            self.contained as f64 / diverged as f64
        }
    }

    /// Element-wise sum (shard merging).
    pub fn merge(self, other: DivergenceCounts) -> DivergenceCounts {
        DivergenceCounts {
            masked: self.masked + other.masked,
            contained: self.contained + other.contained,
            spread: self.spread + other.spread,
        }
    }
}

/// The report of an SPMD campaign (or one shard of it): the job-level tally,
/// per-rank outcome tallies, and the divergence classification.  Merging is
/// index-disjoint addition, bit-identical for any partition of the index
/// space — the same contract as [`CampaignReport::merge`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpmdCampaignReport {
    /// Ranks per job.
    pub ranks: u32,
    /// Job-level outcome tallies (a job crashes when any rank crashes;
    /// succeeds when every rank's combined value verifies).
    pub report: CampaignReport,
    /// Per-rank outcome tallies, indexed by rank.
    pub per_rank: Vec<CampaignCounts>,
    /// Rank-divergence classification of the completed tests.
    pub divergence: DivergenceCounts,
}

impl SpmdCampaignReport {
    /// An empty report for the given campaign identity.
    pub fn empty(ranks: u32, seed: u64, population: u64) -> Self {
        SpmdCampaignReport {
            ranks,
            report: CampaignReport {
                counts: CampaignCounts::default(),
                n_tests: 0,
                population,
                seed,
            },
            per_rank: vec![CampaignCounts::default(); ranks as usize],
            divergence: DivergenceCounts::default(),
        }
    }

    /// Merge two shard reports of the same campaign.
    ///
    /// # Panics
    ///
    /// Panics when the reports disagree on rank count, seed, or population —
    /// they cannot be shards of one campaign.
    pub fn merge(&self, other: &SpmdCampaignReport) -> SpmdCampaignReport {
        assert_eq!(self.ranks, other.ranks, "rank count mismatch in merge");
        SpmdCampaignReport {
            ranks: self.ranks,
            report: self.report.merge(&other.report),
            per_rank: self
                .per_rank
                .iter()
                .zip(&other.per_rank)
                .map(|(a, b)| a.merge(*b))
                .collect(),
            divergence: self.divergence.merge(other.divergence),
        }
    }

    /// Serialize for hand-off to another process.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("SPMD reports serialize")
    }

    /// Parse a report previously written by [`SpmdCampaignReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// The fault of one SPMD test, fully determined by `(seed, index)`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TestFault {
    Computation { rank: usize, spec: FaultSpec },
    Message(MsgFault),
}

impl<'m> SpmdHarness<'m> {
    /// Execute the kernel once in this thread, with an optional fault.
    fn run_local(&self, fault: Option<FaultSpec>) -> RunResult {
        let config = VmConfig {
            fault,
            max_steps: self.max_steps,
            ..VmConfig::default()
        };
        Vm::new(config)
            .run_decoded(self.module, self.decoded)
            .expect("module verifies")
    }

    /// Summarize a finished local run.
    fn local_of(&self, result: &RunResult) -> RankLocal {
        RankLocal {
            steps: result.steps,
            crash: match result.outcome {
                RunOutcome::Completed => None,
                RunOutcome::Trapped(trap) => Some(CrashKind::from_trap(trap)),
            },
            harness: false,
            state_fnv: (self.state_digest)(result),
            partial: (self.partial)(result),
            boundary: (self.boundary)(result),
        }
    }

    /// The sentinel a rank reports when its harness (not its program)
    /// panicked mid-test.  It still joins the exchange, so peers never
    /// block on a dead rank.
    fn harness_sentinel() -> RankLocal {
        RankLocal {
            steps: 0,
            crash: None,
            harness: true,
            state_fnv: 0,
            partial: 0.0,
            boundary: 0.0,
        }
    }

    /// The fixed exchange protocol every rank runs, clean or faulty:
    /// ring halo, coupling, allreduce.  Returns (coupled, global).
    fn exchange(&self, comm: &mut Communicator, local: &RankLocal) -> (f64, f64) {
        let rank = comm.rank();
        let next = (rank + 1) % self.nranks;
        let prev = (rank + self.nranks - 1) % self.nranks;
        comm.send(next, TAG_HALO, vec![local.boundary]);
        let halo = comm.recv(Some(prev), Some(TAG_HALO)).data[0];
        let coupled = local.partial + self.coupling * halo;
        let global = comm.allreduce_scalar(coupled, ReduceOp::Sum);
        (coupled, global)
    }

    /// Run the fault-free SPMD job once: one local kernel execution (every
    /// rank's clean result is identical by symmetry), then the real exchange
    /// with a send census enabled.
    ///
    /// # Panics
    ///
    /// Panics if the fault-free run traps — a broken harness, not a fault
    /// effect.
    pub fn clean_state(&self) -> SpmdCleanState {
        let result = self.run_local(None);
        assert!(
            result.outcome.is_completed(),
            "fault-free SPMD local run trapped"
        );
        let local = self.local_of(&result);
        let ranks = run_spmd(self.nranks, |mut comm| {
            comm.record_census();
            let (coupled, global) = self.exchange(&mut comm, &local);
            (coupled, global, comm.take_census())
        })
        .expect("clean SPMD job completes");
        let census: Vec<SendRecord> = ranks.iter().flat_map(|(_, _, c)| c.clone()).collect();
        assert!(!census.is_empty(), "SPMD exchange produced no messages");
        let digests = ranks
            .iter()
            .map(|(coupled, global, _)| RankDigest {
                steps: local.steps,
                trapped: false,
                state_fnv: local.state_fnv,
                partial_bits: local.partial.to_bits(),
                coupled_bits: coupled.to_bits(),
                global_bits: global.to_bits(),
            })
            .collect();
        SpmdCleanState {
            local,
            digests,
            global: ranks[0].1,
            census,
        }
    }

    /// Whether a rank's combined value verifies against the clean one.
    fn accept(&self, clean: &SpmdCleanState, global: f64) -> bool {
        if !global.is_finite() {
            return false;
        }
        let scale = clean.global.abs().max(1.0);
        (global - clean.global).abs() <= self.combine_rel_tol * scale
    }

    /// The fault of test `index` — a pure function of `(seed, index)` (plus
    /// the clean census for message campaigns).
    fn fault_for_index(
        &self,
        clean: &SpmdCleanState,
        faults: &SpmdFaults<'_>,
        seed: u64,
        index: u64,
    ) -> TestFault {
        match faults {
            SpmdFaults::Computation { sites, rank_target } => {
                let rank = match rank_target {
                    RankTarget::Rank(r) => (*r as usize) % self.nranks,
                    RankTarget::Sweep => {
                        (mix_index(seed ^ RANK_SWEEP_SALT, index) % self.nranks as u64) as usize
                    }
                };
                TestFault::Computation {
                    rank,
                    spec: sample_site_fault(seed, sites, index),
                }
            }
            SpmdFaults::Messages => {
                // The population is `census × 64 bits`, so both the message
                // and the flipped bit are drawn per test — otherwise a small
                // census (one self-halo message at `nranks = 1`) would
                // collapse every test onto the one flip `MsgFault::derive`
                // fixes per `(seed, site, ordinal)`.
                let mut rng = StdRng::seed_from_u64(mix_index(seed ^ MSG_CHOICE_SALT, index));
                let record = &clean.census[rng.random_range(0..clean.census.len())];
                TestFault::Message(MsgFault {
                    site: record.site(),
                    ordinal: record.ordinal,
                    word: rng.random_range(0..record.len.max(1)),
                    bit: rng.random_range(0..64u32) as u8,
                })
            }
        }
    }

    /// Execute one test as an SPMD job and tally it.
    fn run_test(
        &self,
        clean: &SpmdCleanState,
        fault: TestFault,
        singleton: &mut SpmdCampaignReport,
    ) {
        let injected = match fault {
            TestFault::Computation { rank, .. } => rank,
            // A corrupted payload first becomes part of the *receiving*
            // rank's state.
            TestFault::Message(f) => f.site.to,
        };
        let job = run_spmd(self.nranks, |mut comm| {
            let rank = comm.rank();
            let local = match fault {
                TestFault::Computation { rank: target, spec } if target == rank => {
                    match panic::catch_unwind(AssertUnwindSafe(|| self.run_local(Some(spec)))) {
                        Ok(result) => self.local_of(&result),
                        Err(_) => Self::harness_sentinel(),
                    }
                }
                TestFault::Message(f) => {
                    if f.site.from == rank {
                        comm.arm_fault(f);
                    }
                    clean.local
                }
                // Clean-rank elision: the kernel is deterministic, so a
                // non-injected rank's local result is the cached clean one;
                // only the exchange runs for real.
                TestFault::Computation { .. } => clean.local,
            };
            let (coupled, global) = self.exchange(&mut comm, &local);
            (local, coupled, global)
        });

        let ranks = match job {
            Ok(ranks) => ranks,
            Err(_) => {
                // A rank died inside the exchange itself: the whole job is a
                // harness loss, per rank and overall.
                singleton.report.counts.record(Outcome::HarnessError);
                singleton.report.n_tests += 1;
                for counts in &mut singleton.per_rank {
                    counts.record(Outcome::HarnessError);
                }
                return;
            }
        };

        let mut job_outcome: Option<Outcome> = None;
        let mut harness_lost = false;
        let mut all_accept = true;
        for (rank, (local, _, global)) in ranks.iter().enumerate() {
            let outcome = if local.harness {
                harness_lost = true;
                Outcome::HarnessError
            } else if let Some(kind) = local.crash {
                Outcome::Crashed(kind)
            } else if self.accept(clean, *global) {
                Outcome::VerificationSuccess
            } else {
                all_accept = false;
                Outcome::VerificationFailed
            };
            singleton.per_rank[rank].record(outcome);
            if job_outcome.is_none() {
                match outcome {
                    Outcome::HarnessError | Outcome::Crashed(_) => job_outcome = Some(outcome),
                    _ => {}
                }
            }
        }
        let job_outcome = job_outcome.unwrap_or(if all_accept {
            Outcome::VerificationSuccess
        } else {
            Outcome::VerificationFailed
        });
        singleton.report.counts.record(job_outcome);
        singleton.report.n_tests += 1;

        // Divergence is a silent-data-flow property: only completed jobs
        // (no crash, no harness loss) are classified.
        if !harness_lost && ranks.iter().all(|(l, _, _)| l.crash.is_none()) {
            let digests: Vec<RankDigest> = ranks
                .iter()
                .map(|(local, coupled, global)| RankDigest {
                    steps: local.steps,
                    trapped: false,
                    state_fnv: local.state_fnv,
                    partial_bits: local.partial.to_bits(),
                    coupled_bits: coupled.to_bits(),
                    global_bits: global.to_bits(),
                })
                .collect();
            singleton
                .divergence
                .record(classify_ranks(&clean.digests, &digests, injected));
        }
    }

    /// Run the tests `[range.start, range.end)` of the SPMD campaign
    /// `(seed, faults)` and tally them.  Pure per index, so any partition of
    /// the index space merges bit-identically to the monolithic run.
    pub fn run_range(
        &self,
        clean: &SpmdCleanState,
        faults: &SpmdFaults<'_>,
        seed: u64,
        range: IndexRange,
    ) -> SpmdCampaignReport {
        let population = match faults {
            SpmdFaults::Computation { sites, .. } => sites.len() as u64 * 64,
            SpmdFaults::Messages => clean.census.len() as u64 * 64,
        };
        let ranks = self.nranks as u32;
        let empty = SpmdCampaignReport::empty(ranks, seed, population);
        if population == 0 || range.is_empty() {
            return empty;
        }
        (range.start..range.end)
            .into_par_iter()
            .map(|index| {
                let fault = self.fault_for_index(clean, faults, seed, index);
                let mut singleton = SpmdCampaignReport::empty(ranks, seed, population);
                self.run_test(clean, fault, &mut singleton);
                singleton
            })
            .reduce(|| empty.clone(), |a, b| a.merge(&b))
    }
}

use rayon::prelude::*;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::TargetClass;
    use ftkr_ir::prelude::*;
    use ftkr_ir::Global;

    /// The same small sum16 kernel the single-VM campaign tests use: sums
    /// 1.0 sixteen times into a global the harness reads back.
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

    fn harness<'m>(
        module: &'m Module,
        decoded: &'m DecodedModule,
        nranks: usize,
    ) -> SpmdHarness<'m> {
        SpmdHarness {
            module,
            decoded,
            nranks,
            coupling: 0.125,
            max_steps: 100_000,
            combine_rel_tol: 0.05,
            partial: Box::new(|r| r.global_f64("total").map_or(0.0, |v| v[0])),
            boundary: Box::new(|r| r.global_f64("total").map_or(0.0, |v| v[0])),
            state_digest: Box::new(|r| ftkr_patterns::divergence::state_fnv(r, &["total"])),
        }
    }

    fn sites() -> Vec<FaultSite> {
        (4..40)
            .map(|step| FaultSite {
                at_step: step,
                mem_addr: None,
                class: TargetClass::Internal,
            })
            .collect()
    }

    #[test]
    fn clean_state_is_symmetric_and_has_a_census() {
        let module = module();
        let decoded = DecodedModule::decode(&module);
        let h = harness(&module, &decoded, 4);
        let clean = h.clean_state();
        assert_eq!(clean.digests.len(), 4);
        assert!(clean.digests.iter().all(|d| d == &clean.digests[0]));
        // 4 halo + 3 gather + 3 result messages.
        assert_eq!(clean.census.len(), 10);
        // Clean global: 4 ranks × (16 + 0.125·16) = 72.
        assert_eq!(clean.global, 72.0);
    }

    #[test]
    fn computation_campaign_merges_shards_bit_identically() {
        let module = module();
        let decoded = DecodedModule::decode(&module);
        let h = harness(&module, &decoded, 3);
        let clean = h.clean_state();
        let sites = sites();
        let faults = SpmdFaults::Computation {
            sites: &sites,
            rank_target: RankTarget::Sweep,
        };
        let monolithic = h.run_range(&clean, &faults, 0xFEED, IndexRange::full(24));
        assert_eq!(monolithic.report.n_tests, 24);
        assert_eq!(
            monolithic.per_rank.iter().map(|c| c.total()).sum::<u64>(),
            24 * 3,
            "every rank tallies every test"
        );
        // Repeated run: byte-identical.
        let again = h.run_range(&clean, &faults, 0xFEED, IndexRange::full(24));
        assert_eq!(monolithic.to_json(), again.to_json());
        // Uneven shard split: bit-identical merge.
        let merged = IndexRange::full(24)
            .split(5)
            .into_iter()
            .map(|shard| h.run_range(&clean, &faults, 0xFEED, shard))
            .reduce(|a, b| a.merge(&b))
            .expect("five shards");
        assert_eq!(merged, monolithic);
        assert_eq!(merged.to_json(), monolithic.to_json());
    }

    #[test]
    fn rank_targeted_campaign_hits_only_the_named_rank() {
        let module = module();
        let decoded = DecodedModule::decode(&module);
        let h = harness(&module, &decoded, 3);
        let clean = h.clean_state();
        let sites = sites();
        let faults = SpmdFaults::Computation {
            sites: &sites,
            rank_target: RankTarget::Rank(1),
        };
        let report = h.run_range(&clean, &faults, 7, IndexRange::full(12));
        // Ranks 0 and 2 never host the fault; under clean-rank elision their
        // VMs never even run, so they can only fail via a spread global.
        assert_eq!(report.per_rank[0].crashed(), 0);
        assert_eq!(report.per_rank[2].crashed(), 0);
        assert_eq!(report.report.n_tests, 12);
    }

    #[test]
    fn message_campaign_classifies_containment_and_spread() {
        let module = module();
        let decoded = DecodedModule::decode(&module);
        let h = harness(&module, &decoded, 4);
        let clean = h.clean_state();
        let report = h.run_range(&clean, &SpmdFaults::Messages, 3, IndexRange::full(40));
        assert_eq!(report.report.n_tests, 40);
        // No VM runs in a message campaign: nothing can crash or hang.
        assert_eq!(report.report.counts.crashed(), 0);
        assert_eq!(report.report.counts.harness_errors, 0);
        assert_eq!(report.divergence.classified(), 40);
        // The census mixes result-broadcast edges (corruption lands in one
        // rank: contained) with halo/gather edges (corruption reaches the
        // global sum: spread) — both classes must appear.
        assert!(report.divergence.contained > 0, "no contained message faults");
        assert!(report.divergence.spread > 0, "no spread message faults");
        // And the campaign is deterministic.
        let again = h.run_range(&clean, &SpmdFaults::Messages, 3, IndexRange::full(40));
        assert_eq!(report, again);
    }

    #[test]
    fn message_faults_fire_even_at_one_rank() {
        // One rank, one self-halo message: the bit is still drawn per test,
        // so high-bit flips must become visible as contained divergence
        // (there is no peer to spread to).
        let module = module();
        let decoded = DecodedModule::decode(&module);
        let h = harness(&module, &decoded, 1);
        let clean = h.clean_state();
        let report = h.run_range(&clean, &SpmdFaults::Messages, 5, IndexRange::full(32));
        assert_eq!(report.report.n_tests, 32);
        assert!(
            report.divergence.contained > 0,
            "no self-halo corruption became visible: {:?}",
            report.divergence
        );
        assert_eq!(report.divergence.spread, 0);
    }

    #[test]
    fn single_rank_jobs_degenerate_cleanly() {
        let module = module();
        let decoded = DecodedModule::decode(&module);
        let h = harness(&module, &decoded, 1);
        let clean = h.clean_state();
        assert_eq!(clean.census.len(), 1, "one self-halo message");
        let sites = sites();
        let faults = SpmdFaults::Computation {
            sites: &sites,
            rank_target: RankTarget::Sweep,
        };
        let report = h.run_range(&clean, &faults, 11, IndexRange::full(10));
        assert_eq!(report.ranks, 1);
        assert_eq!(report.report.n_tests, 10);
        // With one rank there are no peers to spread to.
        assert_eq!(report.divergence.spread, 0);
    }

    #[test]
    fn trapped_ranks_are_excluded_from_divergence_and_never_masked() {
        // A trapped rank still completes the exchange (its deterministic
        // final state joins the halo/allreduce so no peer blocks), but crash
        // effects are not silent data flow: such tests must not enter the
        // divergence classification at all — in particular the sentinel-
        // completed exchange can never inflate `masked`.  The invariant that
        // pins it: every completed (non-crashed, non-harness-lost) job is
        // classified exactly once, so classified() + crashed + harness
        // errors == n_tests.
        let module = module();
        let decoded = DecodedModule::decode(&module);
        let h = harness(&module, &decoded, 3);
        let clean = h.clean_state();
        let sites = sites();
        let faults = SpmdFaults::Computation {
            sites: &sites,
            rank_target: RankTarget::Sweep,
        };
        let report = h.run_range(&clean, &faults, 0xFEED, IndexRange::full(60));
        let crashed = report.report.counts.crashed();
        assert!(
            crashed > 0,
            "the population must include trapping faults (bit-63 flips of \
             the induction-variable update hang): {:?}",
            report.report.counts
        );
        assert_eq!(
            report.divergence.classified() + crashed + report.report.counts.harness_errors,
            report.report.n_tests,
            "crashed jobs leaked into the divergence classification"
        );
    }
}
