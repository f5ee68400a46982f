//! Multi-rank (SPMD) fault campaigns.
//!
//! Each test of an SPMD campaign models the application as an `nranks`-way
//! job with the fault landing in exactly one place: one rank's VM for
//! computation faults ([`SpmdFaults::Computation`]), or one message payload
//! at a send boundary for message faults ([`SpmdFaults::Messages`]).  Every
//! rank executes the *same* kernel module — a symmetric block partition of
//! an `nranks×` larger problem (see `ftkr_apps::spmd`) — then the ranks
//! exchange a ring halo and allreduce their halo-coupled partials into the
//! global value every rank verifies against its clean counterpart.
//!
//! No test needs a thread per rank.  The kernel is deterministic, so a rank
//! that does not host the fault has the cached clean local result, and
//! [`exchange`] evaluates the protocol in the calling thread.  The message
//! faults ([`MsgFault`]) and the send census ([`SendRecord`]) are defined
//! here, next to it; the workspace's `tests/spmd_exchange.rs` holds
//! [`exchange`] bit for bit to a thread-per-rank reference built on plain
//! `ftkr_mpi` sends and receives.  A computation-fault test's one VM
//! run — the injected rank's — is a test of the campaign kernel
//! ([`Campaign::run_range_with`]), resumed from the caller's checkpoint,
//! whose verdict is job acceptance after the exchange.  Message-fault tests
//! run no VM: they are a sequential fold over [`exchange`].  The clean state
//! summarises the caller's fault-free run ([`SpmdHarness::clean_state`]);
//! the harness runs no VM of its own.
//!
//! Each test's fault is a pure function of `(seed, index)` (the *same*
//! function the serial executor uses, so serial and parallel campaigns draw
//! identical fault populations), so shard reports merge bit-identically.

use ftkr_ir::Module;
use ftkr_patterns::divergence::{classify_ranks, RankDigest, RankDivergence};
use ftkr_vm::{DecodedModule, RunOutcome, RunResult, VmSnapshot};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::campaign::{mix_index, Campaign, CampaignReport, FaultBeforeCheckpoint, Verdict};
use crate::outcome::{CampaignCounts, CrashKind, Outcome};
use crate::plan::{IndexRange, RankTarget};
use crate::sites::FaultSite;

/// Tag of the ring halo-exchange messages.
const TAG_HALO: i64 = 9;
/// Tag of a contribution gathered to rank 0 by the allreduce.
const TAG_GATHER: i64 = -1;
/// Tag of the reduced value rank 0 sends back.
const TAG_RESULT: i64 = -2;

/// A directed send boundary: messages travelling `from → to`.  The unit a
/// message fault targets — each (site, ordinal) pair names exactly one
/// message of a job's exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgSite {
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
}

/// A single-bit payload corruption at a send boundary: the `ordinal`-th
/// message on `site` has one bit of one payload word flipped before it
/// leaves the sending rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgFault {
    /// The directed edge the corrupted message travels.
    pub site: MsgSite,
    /// Which message on that edge (0-based, counted per edge in send order).
    pub ordinal: u64,
    /// Payload word to corrupt (reduced modulo the payload length).
    pub word: usize,
    /// Bit of the word's IEEE-754 representation to flip (0–63).
    pub bit: u8,
}

/// One send of a job's exchange.  The census, rank 0's sends first and
/// each rank's in send order, is the message population message faults
/// are drawn from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendRecord {
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// Tag the message was sent with.
    pub tag: i64,
    /// Ordinal of the message on its directed edge (0-based).
    pub ordinal: u64,
    /// Payload length in words.
    pub len: usize,
}

impl SendRecord {
    /// The directed edge this send travelled.
    pub fn site(&self) -> MsgSite {
        MsgSite {
            from: self.from,
            to: self.to,
        }
    }
}

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
    /// The kernel's fault-free state at step 0 ([`ftkr_vm::Vm::snapshot_at`]):
    /// a test whose restore failed restarts from it.
    pub entry: VmSnapshot,
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
        /// The fault-free checkpoint the injected rank's run resumes from
        /// (the step-0 one to run from program entry).  No site may precede
        /// it.
        snapshot: &'s VmSnapshot,
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
    /// State digest of the finished run.
    pub state_fnv: u64,
    /// Allreduce contribution.
    pub partial: f64,
    /// Exported boundary value.
    pub boundary: f64,
}

impl RankLocal {
    /// The rank's divergence digest once the exchange gave it `coupled` and
    /// `global`.
    fn digest(&self, coupled: f64, global: f64) -> RankDigest {
        RankDigest {
            steps: self.steps,
            trapped: false,
            state_fnv: self.state_fnv,
            partial_bits: self.partial.to_bits(),
            coupled_bits: coupled.to_bits(),
            global_bits: global.to_bits(),
        }
    }
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
/// silent-data-flow property), so the three tallies can sum to less than
/// the report's test count.
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
///
/// Every test is tallied once per rank, so each `per_rank` entry totals
/// `report.n_tests`.  A test whose harness failed (the job tallies
/// [`Outcome::HarnessError`]) is a harness error on every rank too, and is
/// not classified in `divergence`.
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

/// Evaluate the exchange protocol of one job in the calling thread.
///
/// `locals` holds each rank's `(boundary, partial)`; `fault`, when given,
/// flips its bit in the one message it names.  Returns each rank's
/// `(coupled, global)` and the job's send census.  The protocol, as a
/// thread-per-rank job would run it: each rank sends its boundary to the
/// next rank in the ring and folds the halo it receives,
/// `coupled = partial + coupling × halo`; then an allreduce gathers every
/// contribution to rank 0, which sums them in rank order and sends the sum
/// back.  Ordinals count per directed edge in send order (with 1 and 2
/// ranks the halo and collective messages share edges), the census lists
/// rank 0's sends first, and every payload is one word, so a fault's
/// `word % len` is word 0.
///
/// Each `coupled` and the sum are canonicalized where they are computed: a
/// NaN there becomes [`f64::NAN`].  Which payload an `f64` sum of NaNs
/// carries depends on operand order, which the optimizer may commute, so
/// only the canonical NaN is the same in every build.  A NaN is returned
/// with another payload only when a fault flipped a bit of the message
/// carrying it.
pub fn exchange(
    locals: &[(f64, f64)],
    coupling: f64,
    fault: Option<MsgFault>,
) -> (Vec<(f64, f64)>, Vec<SendRecord>) {
    let n = locals.len();
    let mut census: Vec<SendRecord> = Vec::with_capacity(2 * n);
    for from in 0..n {
        // Every rank sends its halo, then rank 0 the reduced value to each
        // peer and every other rank its contribution to rank 0.
        let collective: Vec<(usize, i64)> = match from {
            _ if n == 1 => Vec::new(),
            0 => (1..n).map(|to| (to, TAG_RESULT)).collect(),
            _ => vec![(0, TAG_GATHER)],
        };
        for (to, tag) in [((from + 1) % n, TAG_HALO)].into_iter().chain(collective) {
            let ordinal = census
                .iter()
                .filter(|m| (m.from, m.to) == (from, to))
                .count() as u64;
            census.push(SendRecord {
                from,
                to,
                tag,
                ordinal,
                len: 1,
            });
        }
    }
    // A value as its receiver sees it: the armed fault flips its bit in the
    // one message whose edge and ordinal it names.
    let deliver = |from: usize, to: usize, tag: i64, value: f64| {
        let sent = census
            .iter()
            .find(|m| (m.from, m.to, m.tag) == (from, to, tag));
        match (fault, sent) {
            (Some(f), Some(m)) if f.site == m.site() && f.ordinal == m.ordinal => {
                f64::from_bits(value.to_bits() ^ (1u64 << f.bit))
            }
            _ => value,
        }
    };
    let coupled: Vec<f64> = (0..n)
        .map(|rank| {
            let prev = (rank + n - 1) % n;
            let halo = deliver(prev, rank, TAG_HALO, locals[prev].0);
            canonical_nan(locals[rank].1 + coupling * halo)
        })
        .collect();
    let sum = canonical_nan((1..n).fold(coupled[0], |acc, rank| {
        acc + deliver(rank, 0, TAG_GATHER, coupled[rank])
    }));
    // Rank 0 keeps its own sum: no message carries it.
    let ranks = (0..n)
        .map(|rank| (coupled[rank], deliver(0, rank, TAG_RESULT, sum)))
        .collect();
    (ranks, census)
}

/// `x`, with any NaN replaced by the canonical [`f64::NAN`].
fn canonical_nan(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

/// The per-rank outcomes and divergence classes of one test, or their sum
/// over many: the product the campaign kernel folds.
#[derive(Debug, Clone, Default)]
struct RankTally {
    per_rank: Vec<CampaignCounts>,
    divergence: DivergenceCounts,
}

impl RankTally {
    /// Element-wise sum.  The kernel's empty product has no ranks yet.
    fn merge(mut self, other: RankTally) -> RankTally {
        if self.per_rank.len() < other.per_rank.len() {
            self.per_rank
                .resize(other.per_rank.len(), CampaignCounts::default());
        }
        for (a, b) in self.per_rank.iter_mut().zip(other.per_rank) {
            *a = a.merge(b);
        }
        self.divergence = self.divergence.merge(other.divergence);
        self
    }

    /// Whether every rank of a one-test tally verified its global.
    fn accepted(&self) -> bool {
        self.per_rank.iter().all(|c| c.success == c.total())
    }
}

/// An SPMD job passes when every rank's combined value verifies.
struct JobAccepted;

impl Verdict<RankTally> for JobAccepted {
    fn accepts(&self, _: &RunResult, tally: &RankTally) -> bool {
        tally.accepted()
    }
}

impl<'m> SpmdHarness<'m> {
    /// Summarize a finished local run.
    fn local_of(&self, result: &RunResult) -> RankLocal {
        RankLocal {
            steps: result.steps,
            crash: match result.outcome {
                RunOutcome::Completed => None,
                RunOutcome::Trapped(trap) => Some(CrashKind::from_trap(trap)),
            },
            state_fnv: (self.state_digest)(result),
            partial: (self.partial)(result),
            boundary: (self.boundary)(result),
        }
    }

    /// The fault-free job over `clean`, the kernel's fault-free run: every
    /// rank's clean local result is that run by symmetry, and the exchange
    /// over them gives the clean globals and the census, the message
    /// population.
    ///
    /// # Panics
    ///
    /// Panics if the fault-free run trapped — a broken harness, not a fault
    /// effect.
    pub fn clean_state(&self, clean: &RunResult) -> SpmdCleanState {
        assert!(
            clean.outcome.is_completed(),
            "fault-free SPMD local run trapped"
        );
        let local = self.local_of(clean);
        let values = vec![(local.boundary, local.partial); self.nranks];
        let (ranks, census) = exchange(&values, self.coupling, None);
        SpmdCleanState {
            local,
            digests: ranks.iter().map(|&(c, g)| local.digest(c, g)).collect(),
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

    /// Exchange the ranks' locals (`fault` armed, if any) and tally the job:
    /// each rank's outcome and, when no rank crashed, its divergence class
    /// with the fault landing in rank `injected`.
    fn judge(
        &self,
        clean: &SpmdCleanState,
        locals: &[RankLocal],
        fault: Option<MsgFault>,
        injected: usize,
    ) -> RankTally {
        let values: Vec<(f64, f64)> = locals.iter().map(|l| (l.boundary, l.partial)).collect();
        let (ranks, _) = exchange(&values, self.coupling, fault);
        let mut tally = RankTally {
            per_rank: vec![CampaignCounts::default(); locals.len()],
            divergence: DivergenceCounts::default(),
        };
        for ((counts, local), &(_, global)) in tally.per_rank.iter_mut().zip(locals).zip(&ranks) {
            counts.record(match local.crash {
                Some(kind) => Outcome::Crashed(kind),
                None if self.accept(clean, global) => Outcome::VerificationSuccess,
                None => Outcome::VerificationFailed,
            });
        }
        // Divergence is a silent-data-flow property: only jobs in which no
        // rank crashed are classified.
        if locals.iter().all(|l| l.crash.is_none()) {
            let digests: Vec<RankDigest> = locals
                .iter()
                .zip(&ranks)
                .map(|(local, &(coupled, global))| local.digest(coupled, global))
                .collect();
            tally
                .divergence
                .record(classify_ranks(&clean.digests, &digests, injected));
        }
        tally
    }

    /// Run the tests `[range.start, range.end)` of the SPMD campaign
    /// `(seed, faults)` and tally them.  Pure per index, so any partition of
    /// the index space merges bit-identically to the monolithic run.
    ///
    /// # Errors
    ///
    /// [`FaultBeforeCheckpoint`] when a computation site precedes the
    /// snapshot; checked before any test runs.
    pub fn run_range(
        &self,
        clean: &SpmdCleanState,
        faults: &SpmdFaults<'_>,
        seed: u64,
        range: IndexRange,
    ) -> Result<SpmdCampaignReport, FaultBeforeCheckpoint> {
        let (report, tally) = match *faults {
            SpmdFaults::Computation {
                sites,
                rank_target,
                snapshot,
            } => {
                let campaign =
                    Campaign::new(self.module, self.decoded, self.entry.clone(), JobAccepted)
                        .with_max_steps(self.max_steps)
                        .with_seed(seed);
                campaign.run_range_with(
                    sites,
                    range,
                    snapshot,
                    |index, _, vm, snap| {
                        let result = campaign.untraced(vm, snap);
                        let rank = match rank_target {
                            RankTarget::Rank(r) => r as usize % self.nranks,
                            RankTarget::Sweep => {
                                (mix_index(seed ^ RANK_SWEEP_SALT, index) % self.nranks as u64)
                                    as usize
                            }
                        };
                        // Clean-rank elision: the kernel is deterministic, so
                        // every other rank's local result is the clean one.
                        let mut locals = vec![clean.local; self.nranks];
                        locals[rank] = self.local_of(&result);
                        let tally = self.judge(clean, &locals, None, rank);
                        (result, tally)
                    },
                    RankTally::merge,
                )?
            }
            SpmdFaults::Messages => {
                let mut report = CampaignReport {
                    counts: CampaignCounts::default(),
                    n_tests: range.len(),
                    population: clean.census.len() as u64 * 64,
                    seed,
                };
                let locals = vec![clean.local; self.nranks];
                let tally = (range.start..range.end).fold(RankTally::default(), |sum, index| {
                    // The population is `census × 64 bits`, so both the
                    // message and the flipped bit are drawn per test.
                    let mut rng = StdRng::seed_from_u64(mix_index(seed ^ MSG_CHOICE_SALT, index));
                    let record = &clean.census[rng.random_range(0..clean.census.len())];
                    let fault = MsgFault {
                        site: record.site(),
                        ordinal: record.ordinal,
                        word: rng.random_range(0..record.len.max(1)),
                        bit: rng.random_range(0..64u32) as u8,
                    };
                    // A corrupted payload first becomes part of the
                    // *receiving* rank's state.
                    let tally = self.judge(clean, &locals, Some(fault), fault.site.to);
                    report.counts.record(if tally.accepted() {
                        Outcome::VerificationSuccess
                    } else {
                        Outcome::VerificationFailed
                    });
                    sum.merge(tally)
                });
                (report, tally)
            }
        };
        let mut per_rank = tally.per_rank;
        per_rank.resize(self.nranks, CampaignCounts::default());
        for counts in &mut per_rank {
            counts.harness_errors += report.n_tests - counts.total();
        }
        Ok(SpmdCampaignReport {
            ranks: self.nranks as u32,
            report,
            per_rank,
            divergence: tally.divergence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::TargetClass;
    use ftkr_ir::prelude::*;
    use ftkr_ir::Global;
    use ftkr_vm::{Vm, VmConfig};

    /// Number of tests the divergence tallies classified at all.
    fn classified(counts: &DivergenceCounts) -> u64 {
        counts.masked + counts.contained + counts.spread
    }

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

    /// What a harness and its clean state are built from: the kernel's
    /// decoded tables, its step-0 checkpoint and its fault-free run.
    struct Kernel {
        decoded: DecodedModule,
        entry: VmSnapshot,
        clean: RunResult,
    }

    fn kernel(module: &Module) -> Kernel {
        let vm = Vm::new(VmConfig::default());
        Kernel {
            decoded: DecodedModule::decode(module),
            entry: vm.snapshot_at(module, 0).unwrap().expect("step 0 exists"),
            clean: vm.run(module).unwrap(),
        }
    }

    fn harness<'m>(module: &'m Module, kernel: &'m Kernel, nranks: usize) -> SpmdHarness<'m> {
        SpmdHarness {
            module,
            decoded: &kernel.decoded,
            entry: kernel.entry.clone(),
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
        let k = kernel(&module);
        let h = harness(&module, &k, 4);
        let clean = h.clean_state(&k.clean);
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
        let k = kernel(&module);
        let h = harness(&module, &k, 3);
        let clean = h.clean_state(&k.clean);
        let sites = sites();
        let faults = SpmdFaults::Computation {
            sites: &sites,
            rank_target: RankTarget::Sweep,
            snapshot: &k.entry,
        };
        let monolithic = h
            .run_range(&clean, &faults, 0xFEED, IndexRange::full(24))
            .unwrap();
        assert_eq!(monolithic.report.n_tests, 24);
        assert_eq!(
            monolithic.per_rank.iter().map(|c| c.total()).sum::<u64>(),
            24 * 3,
            "every rank tallies every test"
        );
        // Repeated run: byte-identical.
        let again = h
            .run_range(&clean, &faults, 0xFEED, IndexRange::full(24))
            .unwrap();
        assert_eq!(monolithic.to_json(), again.to_json());
        // Uneven shard split: bit-identical merge.
        let merged = IndexRange::full(24)
            .split(5)
            .into_iter()
            .map(|shard| h.run_range(&clean, &faults, 0xFEED, shard).unwrap())
            .reduce(|a, b| a.merge(&b))
            .expect("five shards");
        assert_eq!(merged, monolithic);
        assert_eq!(merged.to_json(), monolithic.to_json());
    }

    #[test]
    fn forked_computation_campaign_matches_the_cold_one() {
        let module = module();
        let k = kernel(&module);
        let h = harness(&module, &k, 3);
        let clean = h.clean_state(&k.clean);
        let sites = sites();
        let snapshot = Vm::new(VmConfig::default())
            .snapshot_at(&module, sites[0].at_step)
            .unwrap()
            .expect("the first site is mid-run");
        let faults = |snapshot| SpmdFaults::Computation {
            sites: &sites,
            rank_target: RankTarget::Sweep,
            snapshot,
        };
        let cold = h
            .run_range(&clean, &faults(&k.entry), 0xFEED, IndexRange::full(48))
            .unwrap();
        let forked = h
            .run_range(&clean, &faults(&snapshot), 0xFEED, IndexRange::full(48))
            .unwrap();
        assert_eq!(forked.to_json(), cold.to_json());
        assert_eq!(forked.report.counts.degraded, 0);
        // A site before the checkpoint is refused before any test runs.
        let late = Vm::new(VmConfig::default())
            .snapshot_at(&module, sites[1].at_step)
            .unwrap()
            .expect("mid-run");
        assert!(h
            .run_range(&clean, &faults(&late), 0xFEED, IndexRange::full(4))
            .is_err());
    }

    #[test]
    fn a_panicking_harness_is_a_harness_error_on_every_rank() {
        let module = module();
        let k = kernel(&module);
        let mut h = harness(&module, &k, 3);
        let clean = h.clean_state(&k.clean);
        // The state digest panics on every result but the clean one.
        h.state_digest = Box::new(|r| {
            let total = r.global_f64("total").map_or(0.0, |v| v[0]);
            assert_eq!(total, 16.0, "poisoned state digest");
            ftkr_patterns::divergence::state_fnv(r, &["total"])
        });
        let sites = sites();
        let faults = SpmdFaults::Computation {
            sites: &sites,
            rank_target: RankTarget::Sweep,
            snapshot: &k.entry,
        };
        let n_tests = 48;
        let report = h
            .run_range(&clean, &faults, 0xFEED, IndexRange::full(n_tests))
            .unwrap();
        let lost = report.report.counts.harness_errors;
        assert!(lost > 0, "no test reached the poisoned digest: {report:?}");
        assert!(lost < n_tests, "every test was lost: {report:?}");
        assert_eq!(report.report.n_tests, n_tests);
        for counts in &report.per_rank {
            assert_eq!(counts.total(), n_tests, "a rank lost tests: {report:?}");
            assert_eq!(counts.harness_errors, lost);
        }
        assert_eq!(
            classified(&report.divergence) + report.report.counts.crashed() + lost,
            n_tests,
            "a harness error leaked into the divergence classification"
        );
        let merged = IndexRange::full(n_tests)
            .split(5)
            .into_iter()
            .map(|shard| h.run_range(&clean, &faults, 0xFEED, shard).unwrap())
            .reduce(|a, b| a.merge(&b))
            .expect("five shards");
        assert_eq!(merged.to_json(), report.to_json());
    }

    #[test]
    fn rank_targeted_campaign_hits_only_the_named_rank() {
        let module = module();
        let k = kernel(&module);
        let h = harness(&module, &k, 3);
        let clean = h.clean_state(&k.clean);
        let sites = sites();
        let faults = SpmdFaults::Computation {
            sites: &sites,
            rank_target: RankTarget::Rank(1),
            snapshot: &k.entry,
        };
        let report = h
            .run_range(&clean, &faults, 7, IndexRange::full(12))
            .unwrap();
        // Ranks 0 and 2 never host the fault; under clean-rank elision their
        // VMs never even run, so they can only fail via a spread global.
        assert_eq!(report.per_rank[0].crashed(), 0);
        assert_eq!(report.per_rank[2].crashed(), 0);
        assert_eq!(report.report.n_tests, 12);
    }

    #[test]
    fn message_campaign_classifies_containment_and_spread() {
        let module = module();
        let k = kernel(&module);
        let h = harness(&module, &k, 4);
        let clean = h.clean_state(&k.clean);
        let report = h
            .run_range(&clean, &SpmdFaults::Messages, 3, IndexRange::full(40))
            .unwrap();
        assert_eq!(report.report.n_tests, 40);
        // No VM runs in a message campaign: nothing can crash or hang.
        assert_eq!(report.report.counts.crashed(), 0);
        assert_eq!(report.report.counts.harness_errors, 0);
        assert_eq!(classified(&report.divergence), 40);
        // The census mixes result-broadcast edges (corruption lands in one
        // rank: contained) with halo/gather edges (corruption reaches the
        // global sum: spread) — both classes must appear.
        assert!(
            report.divergence.contained > 0,
            "no contained message faults"
        );
        assert!(report.divergence.spread > 0, "no spread message faults");
        // And the campaign is deterministic.
        let again = h
            .run_range(&clean, &SpmdFaults::Messages, 3, IndexRange::full(40))
            .unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn message_faults_fire_even_at_one_rank() {
        // One rank, one self-halo message: the bit is still drawn per test,
        // so high-bit flips must become visible as contained divergence
        // (there is no peer to spread to).
        let module = module();
        let k = kernel(&module);
        let h = harness(&module, &k, 1);
        let clean = h.clean_state(&k.clean);
        let report = h
            .run_range(&clean, &SpmdFaults::Messages, 5, IndexRange::full(32))
            .unwrap();
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
        let k = kernel(&module);
        let h = harness(&module, &k, 1);
        let clean = h.clean_state(&k.clean);
        assert_eq!(clean.census.len(), 1, "one self-halo message");
        let sites = sites();
        let faults = SpmdFaults::Computation {
            sites: &sites,
            rank_target: RankTarget::Sweep,
            snapshot: &k.entry,
        };
        let report = h
            .run_range(&clean, &faults, 11, IndexRange::full(10))
            .unwrap();
        assert_eq!(report.ranks, 1);
        assert_eq!(report.report.n_tests, 10);
        // With one rank there are no peers to spread to.
        assert_eq!(report.divergence.spread, 0);
    }

    #[test]
    fn trapped_ranks_are_excluded_from_divergence_and_never_masked() {
        // A trapped rank's final state still joins the exchange (its peers'
        // outcomes depend on it), but crash effects are not silent data
        // flow: such tests must not enter the divergence classification at
        // all, so they can never inflate `masked`.  The invariant that pins
        // it: every completed (non-crashed, non-harness-lost) job is
        // classified exactly once, so classified + crashed + harness
        // errors == n_tests.
        let module = module();
        let k = kernel(&module);
        let h = harness(&module, &k, 3);
        let clean = h.clean_state(&k.clean);
        let sites = sites();
        let faults = SpmdFaults::Computation {
            sites: &sites,
            rank_target: RankTarget::Sweep,
            snapshot: &k.entry,
        };
        let report = h
            .run_range(&clean, &faults, 0xFEED, IndexRange::full(60))
            .unwrap();
        let crashed = report.report.counts.crashed();
        assert!(
            crashed > 0,
            "the population must include trapping faults (bit-63 flips of \
             the induction-variable update hang): {:?}",
            report.report.counts
        );
        assert_eq!(
            classified(&report.divergence) + crashed + report.report.counts.harness_errors,
            report.report.n_tests,
            "crashed jobs leaked into the divergence classification"
        );
    }
}
