//! Serializable campaign plans: process-portable descriptions of a
//! fault-injection campaign, or of one shard of it.
//!
//! [`Campaign`](crate::Campaign) borrows a module and a verifier closure, so
//! it cannot leave the process that built it.  A [`CampaignPlan`] can: it
//! names the application (resolved against the app registry by the executor),
//! describes the target population symbolically, and carries the sampling
//! seed plus an index-range shard — everything a fresh process needs to
//! replay exactly the tests `[shard.start, shard.end)` of the monolithic
//! campaign `(seed, n_tests)`.  Because each test's fault is a pure function
//! of `(seed, index)` and faulty runs are deterministic, merging the shard
//! reports of any partition of `[0, n_tests)` is bit-identical to the
//! monolithic tally ([`CampaignReport::merge`](crate::CampaignReport::merge)).
//!
//! The JSON shape (`plan.to_json()`) is stable and small, e.g.:
//!
//! ```json
//! {
//!   "app": "MG",
//!   "target": {"Region": {"name": "mg_a"}},
//!   "class": "Internal",
//!   "seed": 12648430,
//!   "n_tests": 1067,
//!   "shard": {"start": 0, "end": 534}
//! }
//! ```

use serde::{Deserialize, Serialize};

use crate::sites::TargetClass;

/// A half-open range of campaign test indices `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IndexRange {
    /// First test index of the range.
    pub start: u64,
    /// Past-the-end test index.
    pub end: u64,
}

impl IndexRange {
    /// The range `[start, end)` (empty when `start >= end`).
    pub fn new(start: u64, end: u64) -> Self {
        IndexRange {
            start,
            end: end.max(start),
        }
    }

    /// The full index space of an `n_tests` campaign: `[0, n_tests)`.
    pub fn full(n_tests: u64) -> Self {
        IndexRange {
            start: 0,
            end: n_tests,
        }
    }

    /// Number of indices in the range.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True when the range contains no index.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Split into `k` contiguous, non-overlapping shards that cover this
    /// range exactly; the remainder is spread one index at a time over the
    /// leading shards, so shard sizes differ by at most one.  Empty shards
    /// are produced when `k` exceeds the range length, keeping the shard
    /// count predictable for manifest writers.
    pub fn split(&self, k: usize) -> Vec<IndexRange> {
        let k = k.max(1) as u64;
        let base = self.len() / k;
        let remainder = self.len() % k;
        let mut shards = Vec::with_capacity(k as usize);
        let mut cursor = self.start;
        for i in 0..k {
            let size = base + u64::from(i < remainder);
            shards.push(IndexRange::new(cursor, cursor + size));
            cursor += size;
        }
        shards
    }

    /// The intersection of two ranges (possibly empty).
    pub fn intersect(&self, other: IndexRange) -> IndexRange {
        IndexRange::new(self.start.max(other.start), self.end.min(other.end))
    }
}

/// Which site population of the application a campaign draws faults from.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CampaignTarget {
    /// Every value-producing dynamic instruction of the whole execution.
    WholeProgram,
    /// The representative instance of a named code region (its first
    /// instance in main-loop iteration 0, as in the paper's Figure 5).
    Region {
        /// Region name (e.g. `mg_a`).
        name: String,
    },
    /// One main-loop iteration, treated as a single code region (Figure 6).
    Iteration {
        /// Zero-based main-loop iteration index.
        index: usize,
    },
    /// Message payloads at the SPMD communicator boundaries, instead of a
    /// computation-site population.  Only the multi-rank executor accepts
    /// this target; the single-VM executors reject it with a typed error.
    Messages,
}

impl CampaignTarget {
    /// A short stable label for reports (`whole`, region name, `iterN`).
    pub fn label(&self) -> String {
        match self {
            CampaignTarget::WholeProgram => "whole".to_string(),
            CampaignTarget::Region { name } => name.clone(),
            CampaignTarget::Iteration { index } => format!("iter{}", index + 1),
            CampaignTarget::Messages => "messages".to_string(),
        }
    }
}

/// Which rank of an SPMD job a computation-fault campaign injects into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RankTarget {
    /// Sweep the fault population across ranks: test `index` lands in rank
    /// `mix(seed, index) % ranks` — a pure function of `(seed, index)`, so
    /// shards agree without coordination.
    #[default]
    Sweep,
    /// Every test injects into the one named rank.
    Rank(u32),
}

/// A serializable fault-injection campaign (or one shard of it) that any
/// process can execute from JSON.  Verification is not a closure here: the
/// executor resolves `app` in the application registry and uses the
/// application's own verification phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignPlan {
    /// Application name, resolved by the executor's app registry.
    pub app: String,
    /// Which site population to draw faults from.
    pub target: CampaignTarget,
    /// Input or internal locations.
    pub class: TargetClass,
    /// Sampling seed of the *whole* campaign (shards share it).
    pub seed: u64,
    /// Total number of tests of the whole campaign.
    pub n_tests: u64,
    /// The slice of `[0, n_tests)` this plan executes.
    pub shard: IndexRange,
    /// Number of SPMD ranks each test runs with.  Defaults to `1` (the
    /// single-VM campaigns of PRs 1–8), so plan JSON written before the
    /// multi-rank executor existed keeps parsing and executing unchanged.
    #[serde(default = "default_ranks")]
    pub ranks: u32,
    /// Which rank computation faults land in (ignored by single-rank plans
    /// and by [`CampaignTarget::Messages`] plans, whose faulty rank is the
    /// corrupted message's sender).
    #[serde(default)]
    pub rank_target: RankTarget,
}

/// Serde default for [`CampaignPlan::ranks`]: pre-PR-9 plans are single-rank.
fn default_ranks() -> u32 {
    1
}

impl CampaignPlan {
    /// A monolithic plan (one shard covering every test index).
    pub fn new(
        app: impl Into<String>,
        target: CampaignTarget,
        class: TargetClass,
        n_tests: u64,
    ) -> Self {
        CampaignPlan {
            app: app.into(),
            target,
            class,
            seed: crate::campaign::DEFAULT_SEED,
            n_tests,
            shard: IndexRange::full(n_tests),
            ranks: 1,
            rank_target: RankTarget::Sweep,
        }
    }

    /// Set the sampling seed (shared by every shard of the campaign).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run every test as an `ranks`-way SPMD job (see `crate::spmd`).
    pub fn with_ranks(mut self, ranks: u32, rank_target: RankTarget) -> Self {
        self.ranks = ranks.max(1);
        self.rank_target = rank_target;
        self
    }

    /// True when this plan needs the multi-rank executor: it either runs
    /// more than one rank or targets message payloads (which exist only at
    /// SPMD communicator boundaries).
    pub fn is_spmd(&self) -> bool {
        self.ranks != 1 || matches!(self.target, CampaignTarget::Messages)
    }

    /// The shard manifest: `k` plans whose index ranges partition this
    /// plan's shard.  Executing every entry (in any process, in any order)
    /// and merging the reports reproduces this plan's tally bit-identically.
    pub fn shards(&self, k: usize) -> Vec<CampaignPlan> {
        self.shard
            .split(k)
            .into_iter()
            .map(|shard| CampaignPlan {
                shard,
                ..self.clone()
            })
            .collect()
    }

    /// Serialize for hand-off to another process.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plans serialize")
    }

    /// Parse a plan previously written by [`CampaignPlan::to_json`].
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_the_range_with_near_equal_contiguous_shards() {
        let range = IndexRange::full(10);
        let shards = range.split(3);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0], IndexRange::new(0, 4));
        assert_eq!(shards[1], IndexRange::new(4, 7));
        assert_eq!(shards[2], IndexRange::new(7, 10));
        assert_eq!(shards.iter().map(IndexRange::len).sum::<u64>(), 10);

        // More shards than indices: trailing shards are empty, count holds.
        let tiny = IndexRange::full(2).split(4);
        assert_eq!(tiny.len(), 4);
        assert_eq!(tiny.iter().map(IndexRange::len).sum::<u64>(), 2);
        assert!(tiny[2].is_empty() && tiny[3].is_empty());
    }

    #[test]
    fn shard_manifest_partitions_the_plan() {
        let plan = CampaignPlan::new(
            "MG",
            CampaignTarget::Region {
                name: "mg_a".to_string(),
            },
            TargetClass::Internal,
            100,
        )
        .with_seed(7);
        let shards = plan.shards(3);
        assert_eq!(shards.len(), 3);
        assert!(shards.iter().all(|s| s.seed == 7 && s.n_tests == 100));
        assert_eq!(shards[0].shard.start, 0);
        assert_eq!(shards[2].shard.end, 100);
        for pair in shards.windows(2) {
            assert_eq!(pair[0].shard.end, pair[1].shard.start);
        }
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = CampaignPlan::new(
            "IS",
            CampaignTarget::Iteration { index: 2 },
            TargetClass::Input,
            64,
        )
        .with_seed(99);
        let text = plan.to_json();
        let back = CampaignPlan::from_json(&text).expect("plan parses");
        assert_eq!(back, plan);

        let whole = CampaignPlan::new(
            "SP",
            CampaignTarget::WholeProgram,
            TargetClass::Internal,
            16,
        );
        assert_eq!(CampaignPlan::from_json(&whole.to_json()).unwrap(), whole);
    }

    #[test]
    fn unknown_plan_keys_are_ignored_like_real_serde() {
        // Real serde ignores fields a struct does not declare, so a plan
        // written by a build that had one more option still parses here.
        let plan = CampaignPlan::new(
            "LU",
            CampaignTarget::Region {
                name: "lu_blts".to_string(),
            },
            TargetClass::Internal,
            24,
        )
        .with_seed(7);
        let text = plan.to_json();
        let body = text.strip_prefix('{').expect("a plan is a JSON object");
        // Plans written while the batched executor existed carry a
        // `batched` flag, and plans written while executors recorded
        // region-scoped clean traces carry a `window`; today's plans carry
        // neither, and old ones still parse.
        assert!(!text.contains("batched"), "{text}");
        assert!(!text.contains("window"), "{text}");
        for extra in [
            r#""retired_flag": true,"#,
            r#""retired_table": {"rows": [[1, 2.5], []], "note": "a } in a string"},"#,
            r#""batched": true,"#,
            r#""batched": false,"#,
            r#""window": [10, 900],"#,
            r#""window": null,"#,
        ] {
            let widened = format!("{{{extra}{body}");
            assert_eq!(
                CampaignPlan::from_json(&widened).expect("plan parses"),
                plan
            );
        }
    }

    #[test]
    fn pre_pr9_plan_json_without_ranks_still_parses_and_shards() {
        // Plan JSON written before the multi-rank executor existed has no
        // `ranks` / `rank_target` keys.  It must keep parsing as a
        // single-rank sweep plan, and sharding it must preserve that.
        let legacy = r#"{
            "app": "MG",
            "target": {"Region": {"name": "mg_a"}},
            "class": "Internal",
            "seed": 12648430,
            "n_tests": 1067,
            "shard": {"start": 0, "end": 534},
            "window": [1200, 3400]
        }"#;
        let plan = CampaignPlan::from_json(legacy).expect("legacy plan parses");
        assert_eq!(plan.ranks, 1);
        assert_eq!(plan.rank_target, RankTarget::Sweep);
        assert!(!plan.is_spmd());
        // Identical to the same plan built with explicit ranks: 1.
        let explicit = CampaignPlan {
            ranks: 1,
            rank_target: RankTarget::Sweep,
            ..plan.clone()
        };
        assert_eq!(plan, explicit);
        for shard in plan.shards(3) {
            assert_eq!(shard.ranks, 1);
            assert!(!shard.is_spmd());
            // Round-tripping a shard through today's JSON keeps it readable.
            assert_eq!(CampaignPlan::from_json(&shard.to_json()).unwrap(), shard);
        }
    }

    #[test]
    fn spmd_fields_round_trip_and_flag_the_plan() {
        let plan = CampaignPlan::new(
            "MG",
            CampaignTarget::Region {
                name: "mg_b".to_string(),
            },
            TargetClass::Internal,
            32,
        )
        .with_ranks(4, RankTarget::Rank(2));
        assert!(plan.is_spmd());
        assert_eq!(CampaignPlan::from_json(&plan.to_json()).unwrap(), plan);

        let messages = CampaignPlan::new("CG", CampaignTarget::Messages, TargetClass::Internal, 16)
            .with_ranks(4, RankTarget::Sweep);
        assert!(messages.is_spmd());
        assert_eq!(messages.target.label(), "messages");
        assert_eq!(
            CampaignPlan::from_json(&messages.to_json()).unwrap(),
            messages
        );

        // Messages at one rank still needs the SPMD executor (the message
        // population only exists at communicator boundaries).
        let serial_messages =
            CampaignPlan::new("CG", CampaignTarget::Messages, TargetClass::Internal, 8);
        assert!(serial_messages.is_spmd());
    }

    #[test]
    fn target_labels_are_stable() {
        assert_eq!(CampaignTarget::WholeProgram.label(), "whole");
        assert_eq!(
            CampaignTarget::Region {
                name: "cg_b".into()
            }
            .label(),
            "cg_b"
        );
        assert_eq!(CampaignTarget::Iteration { index: 0 }.label(), "iter1");
    }
}
