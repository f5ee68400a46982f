//! Self-directed fault injection: a deterministic fail-point registry that
//! turns the harness's *own* failure modes into injectable, replayable
//! faults.
//!
//! FlipTracker injects faults into applications; this module injects faults
//! into FlipTracker.  A [`FailPlan`] is a seeded schedule that decides, as a
//! pure function of `(seed, site, ordinal)`, whether a harness operation
//! fails at a given invocation — no wall clock, no global state, no
//! environment variables — so a chaos campaign is exactly as deterministic
//! and shardable as the fault campaigns it stresses:
//!
//! * [`FailSite::RestoreCheckpoint`] — a snapshot restore fails; the
//!   executor must restart the test from the step-0 checkpoint (program
//!   entry).
//! * [`FailSite::Verifier`] — the verification closure panics; the
//!   executor's `catch_unwind` isolation must record a
//!   [`HarnessError`](crate::Outcome::HarnessError) instead of losing the
//!   shard.
//! * [`FailSite::ReportWrite`] — a shard-report write crashes mid-write;
//!   the atomic temp-file + rename protocol must leave no corrupt final
//!   report behind.
//! * [`FailSite::ReportCorrupt`] — a written report is corrupted on disk
//!   (torn sector, bit rot); the checksum footer must catch it on read.
//! * [`FailSite::TransientIo`] — an I/O operation fails transiently; the
//!   bounded-retry loop must absorb it.
//! * [`FailSite::WorkerJob`] — a campaign-server worker dies mid-shard; the
//!   daemon must retry the job or degrade it to harness-error tallies
//!   instead of crashing.
//!
//! Rates are expressed per 1024 invocations.  [`FailPlan::none`] never
//! fires, which is the production configuration: every chaos check compiles
//! down to a `rate == 0` test on the hot path.

use serde::{Deserialize, Serialize};

/// A harness operation a [`FailPlan`] can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailSite {
    /// Restoring a VM checkpoint past step 0 at the start of a forked
    /// test.
    RestoreCheckpoint,
    /// Running the application's verification phase on a completed run.
    Verifier,
    /// Writing a shard report (the process dies mid-write).
    ReportWrite,
    /// Corrupting a shard report after it reached the disk.
    ReportCorrupt,
    /// A transient I/O failure (absorbable by retry).
    TransientIo,
    /// A campaign-server worker thread dying mid-shard-job (per job
    /// attempt ordinal).
    WorkerJob,
}

impl FailSite {
    fn salt(self) -> u64 {
        match self {
            FailSite::RestoreCheckpoint => 0x52E5_70FE,
            FailSite::Verifier => 0x7E51_F1E5,
            FailSite::ReportWrite => 0x3217_EC4A,
            FailSite::ReportCorrupt => 0xC0FF_B17E,
            FailSite::TransientIo => 0x10E4_4047,
            FailSite::WorkerJob => 0x9088_30B5,
        }
    }
}

/// A seeded, deterministic fail-point schedule.  `Copy` and serializable so
/// campaign executors can thread it through parallel workers and CLI
/// subcommands without shared state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailPlan {
    /// Schedule seed; two plans with the same seed and rates fire
    /// identically.
    pub seed: u64,
    /// Per-1024 rate of checkpoint-restore failures (per test index).
    pub restore_fail: u16,
    /// Per-1024 rate of verifier panics (per test index).
    pub verifier_panic: u16,
    /// Per-1024 rate of mid-write crashes (per write ordinal).
    pub write_crash: u16,
    /// Per-1024 rate of on-disk report corruption (per write ordinal).
    pub corrupt_report: u16,
    /// Per-1024 rate of transient I/O failures (per attempt ordinal).
    pub transient_io: u16,
    /// Per-1024 rate of campaign-server workers dying mid-shard-job (per
    /// job attempt ordinal).
    pub worker_job: u16,
}

impl FailPlan {
    /// The production schedule: no fail point ever fires.
    pub const fn none() -> FailPlan {
        FailPlan {
            seed: 0,
            restore_fail: 0,
            verifier_panic: 0,
            write_crash: 0,
            corrupt_report: 0,
            transient_io: 0,
            worker_job: 0,
        }
    }

    /// A schedule that fires every site at the given per-1024 `rate`.
    pub const fn uniform(seed: u64, rate: u16) -> FailPlan {
        FailPlan {
            seed,
            restore_fail: rate,
            verifier_panic: rate,
            write_crash: rate,
            corrupt_report: rate,
            transient_io: rate,
            worker_job: rate,
        }
    }

    /// True when no site can ever fire.
    pub fn is_none(&self) -> bool {
        self.restore_fail == 0
            && self.verifier_panic == 0
            && self.write_crash == 0
            && self.corrupt_report == 0
            && self.transient_io == 0
            && self.worker_job == 0
    }

    fn rate(&self, site: FailSite) -> u16 {
        match site {
            FailSite::RestoreCheckpoint => self.restore_fail,
            FailSite::Verifier => self.verifier_panic,
            FailSite::ReportWrite => self.write_crash,
            FailSite::ReportCorrupt => self.corrupt_report,
            FailSite::TransientIo => self.transient_io,
            FailSite::WorkerJob => self.worker_job,
        }
    }

    /// Whether `site` fails at invocation `ordinal` — a pure function of
    /// `(seed, site, ordinal)` (SplitMix64 mixing), so schedules replay
    /// identically in any process and any execution order.
    pub fn fires(&self, site: FailSite, ordinal: u64) -> bool {
        let rate = self.rate(site);
        if rate == 0 {
            return false;
        }
        let mut z = self
            .seed
            .wrapping_add(site.salt().wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add(ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z & 0x3FF) < u64::from(rate)
    }

    /// The message chaos-injected panics carry; the chaos harness and tests
    /// use it to tell injected panics from real bugs.
    pub const PANIC_TAG: &'static str = "ftkr-chaos";

    /// Panic (with the chaos tag) when `site` fires at `ordinal` — the
    /// helper executors call inside their `catch_unwind` perimeter.
    pub fn trip(&self, site: FailSite, ordinal: u64) {
        if self.fires(site, ordinal) {
            panic!(
                "{}: injected {site:?} failure at ordinal {ordinal}",
                Self::PANIC_TAG
            );
        }
    }
}

impl Default for FailPlan {
    fn default() -> Self {
        FailPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fires() {
        let plan = FailPlan::none();
        assert!(plan.is_none());
        for ordinal in 0..2048 {
            for site in [
                FailSite::RestoreCheckpoint,
                FailSite::Verifier,
                FailSite::ReportWrite,
                FailSite::ReportCorrupt,
                FailSite::TransientIo,
            ] {
                assert!(!plan.fires(site, ordinal));
            }
        }
    }

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let a = FailPlan::uniform(42, 256);
        let b = FailPlan::uniform(42, 256);
        let c = FailPlan::uniform(43, 256);
        let pattern = |p: &FailPlan| -> Vec<bool> {
            (0..512).map(|i| p.fires(FailSite::Verifier, i)).collect()
        };
        assert_eq!(pattern(&a), pattern(&b));
        assert_ne!(
            pattern(&a),
            pattern(&c),
            "different seeds, different schedule"
        );
    }

    #[test]
    fn rates_are_roughly_honored() {
        // 256/1024 = 25 %: over 4096 ordinals expect ~1024 firings; accept a
        // generous band (the mix is a hash, not a perfect sampler).
        let plan = FailPlan::uniform(7, 256);
        let fired = (0..4096)
            .filter(|&i| plan.fires(FailSite::ReportWrite, i))
            .count();
        assert!((700..1400).contains(&fired), "fired {fired} of 4096");
    }

    #[test]
    fn sites_fire_independently() {
        let plan = FailPlan::uniform(9, 512);
        let verifier: Vec<bool> = (0..256)
            .map(|i| plan.fires(FailSite::Verifier, i))
            .collect();
        let restore: Vec<bool> = (0..256)
            .map(|i| plan.fires(FailSite::RestoreCheckpoint, i))
            .collect();
        assert_ne!(verifier, restore, "sites must have decorrelated schedules");
    }

    #[test]
    #[should_panic(expected = "ftkr-chaos")]
    fn trip_panics_with_the_chaos_tag() {
        FailPlan::uniform(1, 1024).trip(FailSite::Verifier, 0);
    }
}
