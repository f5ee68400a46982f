//! Fault manifestation outcomes and campaign tallies.
//!
//! The paper's fault model distinguishes three manifestations — *Verification
//! Success*, *Verification Failed* and *Crashed* — but abnormal ends are not
//! all alike: a hang caught by the step limit, a segmentation fault and a
//! division by zero say different things about how a flipped bit propagated.
//! [`Outcome::Crashed`] therefore carries a [`CrashKind`] derived from the
//! VM's [`TrapKind`], and [`CampaignCounts`] tallies crashes per kind while
//! keeping the paper's three-way rates derivable ([`CampaignCounts::crashed`]
//! is always the sum of the per-kind counters).
//!
//! Two further counters account for the *harness's own* failures, so a
//! campaign report is honest about how it was produced:
//!
//! * [`Outcome::HarnessError`] — the injection harness itself failed (a
//!   panicking verifier, a poisoned worker); the test tells us nothing about
//!   the application.
//! * [`CampaignCounts::degraded`] — tests whose checkpoint restore failed
//!   and that restarted from the step-0 checkpoint, re-executing the whole
//!   clean prefix.  Their outcomes are still correct (a run from program
//!   entry is the reference), but the report records that the fast path
//!   did not hold.
//!
//! A report with either counter non-zero is *tainted*: resumable manifests
//! re-execute such shards (`ftkr_bench::shard`), which is what makes chaos
//! campaigns converge to byte-identical fault-free reports.

use serde::{Deserialize, Serialize};

use ftkr_vm::TrapKind;

/// Coarse classes of abnormal end, folded from the VM's [`TrapKind`].
///
/// The classes mirror how faults manifest on real hardware: a hang (caught
/// by the step-limit watchdog), a memory trap (segmentation fault, including
/// stack exhaustion), an arithmetic trap (SIGFPE), allocation exhaustion,
/// and a catch-all for malformed execution states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CrashKind {
    /// The dynamic step limit was exceeded ([`TrapKind::StepLimit`]) — the
    /// proxy for a hang.
    Hang,
    /// An invalid memory access: out-of-bounds load/store, or call-depth
    /// exhaustion (a stack overflow manifests as a segmentation fault).
    MemoryTrap,
    /// An arithmetic trap (integer division or remainder by zero).
    ArithmeticTrap,
    /// The allocation limit was exceeded.
    OutOfMemory,
    /// Any other malformed execution state (operand kind mismatch, read of
    /// an undefined register).
    Other,
}

impl CrashKind {
    /// Every kind, in tally order.
    pub const ALL: [CrashKind; 5] = [
        CrashKind::Hang,
        CrashKind::MemoryTrap,
        CrashKind::ArithmeticTrap,
        CrashKind::OutOfMemory,
        CrashKind::Other,
    ];

    /// Fold a VM trap into its crash class.
    pub fn from_trap(trap: TrapKind) -> CrashKind {
        match trap {
            TrapKind::StepLimit => CrashKind::Hang,
            TrapKind::OutOfBounds | TrapKind::CallDepth => CrashKind::MemoryTrap,
            TrapKind::DivisionByZero => CrashKind::ArithmeticTrap,
            TrapKind::OutOfMemory => CrashKind::OutOfMemory,
            TrapKind::TypeMismatch | TrapKind::UninitializedRegister => CrashKind::Other,
        }
    }

    /// Short stable label (report columns, bench records).
    pub fn label(self) -> &'static str {
        match self {
            CrashKind::Hang => "hang",
            CrashKind::MemoryTrap => "memory_trap",
            CrashKind::ArithmeticTrap => "arithmetic_trap",
            CrashKind::OutOfMemory => "oom",
            CrashKind::Other => "other_trap",
        }
    }
}

/// The fault manifestations of the paper's fault model, with abnormal ends
/// classified per [`CrashKind`] and the harness's own failures kept apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Outcome {
    /// The program finished and its verification phase accepted the result
    /// (bitwise identical or within the application's tolerance).
    VerificationSuccess,
    /// The program finished but verification rejected the result — silent
    /// data corruption that was not tolerated.
    VerificationFailed,
    /// The program crashed or hung; the payload says how.
    Crashed(CrashKind),
    /// The *harness* failed, not the program: the test's worker panicked
    /// (e.g. inside the verifier) and was isolated by `catch_unwind`.  The
    /// test is unaccounted for; a report containing harness errors is
    /// tainted and should be re-executed.
    HarnessError,
}

impl Outcome {
    /// The crashed outcome for a VM trap.
    pub fn crashed(trap: TrapKind) -> Outcome {
        Outcome::Crashed(CrashKind::from_trap(trap))
    }
}

/// Per-[`CrashKind`] crash tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashCounts {
    /// Hangs ([`CrashKind::Hang`], via [`TrapKind::StepLimit`]).
    pub hang: u64,
    /// Memory traps (out-of-bounds, call-depth exhaustion).
    pub memory_trap: u64,
    /// Arithmetic traps (division by zero).
    pub arithmetic_trap: u64,
    /// Allocation-limit exhaustion.
    pub oom: u64,
    /// Other malformed execution states.
    pub other: u64,
}

impl CrashCounts {
    /// Record one crash of the given kind.
    pub fn record(&mut self, kind: CrashKind) {
        match kind {
            CrashKind::Hang => self.hang += 1,
            CrashKind::MemoryTrap => self.memory_trap += 1,
            CrashKind::ArithmeticTrap => self.arithmetic_trap += 1,
            CrashKind::OutOfMemory => self.oom += 1,
            CrashKind::Other => self.other += 1,
        }
    }

    /// The counter for one kind.
    pub fn count(&self, kind: CrashKind) -> u64 {
        match kind {
            CrashKind::Hang => self.hang,
            CrashKind::MemoryTrap => self.memory_trap,
            CrashKind::ArithmeticTrap => self.arithmetic_trap,
            CrashKind::OutOfMemory => self.oom,
            CrashKind::Other => self.other,
        }
    }

    /// Total crashes across every kind — the legacy *Crashed* tally.
    pub fn total(&self) -> u64 {
        CrashKind::ALL.iter().map(|&k| self.count(k)).sum()
    }

    /// Componentwise sum (used by the parallel reduction and shard merges).
    pub fn merge(mut self, other: CrashCounts) -> CrashCounts {
        self.hang += other.hang;
        self.memory_trap += other.memory_trap;
        self.arithmetic_trap += other.arithmetic_trap;
        self.oom += other.oom;
        self.other += other.other;
        self
    }
}

/// Tally of outcomes over a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignCounts {
    /// Number of Verification Success runs.
    pub success: u64,
    /// Number of Verification Failed runs.
    pub failed: u64,
    /// Crashed runs, tallied per [`CrashKind`]; their sum
    /// ([`CampaignCounts::crashed`]) is the paper's three-way crash bucket.
    pub crashes: CrashCounts,
    /// Tests lost to harness failures ([`Outcome::HarnessError`]): the
    /// worker panicked and `catch_unwind` isolated it.  Non-zero taints the
    /// report.
    pub harness_errors: u64,
    /// Tests forked past step 0 that restarted from the step-0 checkpoint
    /// after a failed restore.  Their outcomes are counted normally
    /// in the buckets above; this is bookkeeping about *how* they ran, and
    /// non-zero taints the report.
    pub degraded: u64,
}

impl CampaignCounts {
    /// Record one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::VerificationSuccess => self.success += 1,
            Outcome::VerificationFailed => self.failed += 1,
            Outcome::Crashed(kind) => self.crashes.record(kind),
            Outcome::HarnessError => self.harness_errors += 1,
        }
    }

    /// Total crashed runs — the paper's legacy *Crashed* count, always the
    /// sum of the per-kind tallies.
    pub fn crashed(&self) -> u64 {
        self.crashes.total()
    }

    /// Total number of runs (harness errors included: the tests were spent,
    /// even though they classify nothing).
    pub fn total(&self) -> u64 {
        self.success + self.failed + self.crashed() + self.harness_errors
    }

    /// The paper's success rate (Eq. 1): successes over total injections.
    pub fn success_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.success as f64 / self.total() as f64
        }
    }

    /// Fraction of runs that crashed.
    pub fn crash_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.crashed() as f64 / self.total() as f64
        }
    }

    /// True when the tally records harness-level trouble — lost tests or
    /// degraded executions.  Resumable manifests re-execute tainted shards,
    /// so persisted campaign results converge to the fault-free tally.
    pub fn is_tainted(&self) -> bool {
        self.harness_errors > 0 || self.degraded > 0
    }

    /// Merge two tallies (used by the parallel reduction).
    pub fn merge(mut self, other: CampaignCounts) -> CampaignCounts {
        self.success += other.success;
        self.failed += other.failed;
        self.crashes = self.crashes.merge(other.crashes);
        self.harness_errors += other.harness_errors;
        self.degraded += other.degraded;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_and_rates() {
        let mut c = CampaignCounts::default();
        for _ in 0..6 {
            c.record(Outcome::VerificationSuccess);
        }
        for _ in 0..3 {
            c.record(Outcome::VerificationFailed);
        }
        c.record(Outcome::Crashed(CrashKind::Hang));
        assert_eq!(c.total(), 10);
        assert!((c.success_rate() - 0.6).abs() < 1e-12);
        assert!((c.crash_rate() - 0.1).abs() < 1e-12);
        assert!(!c.is_tainted());
    }

    #[test]
    fn empty_campaign_has_zero_rates() {
        let c = CampaignCounts::default();
        assert_eq!(c.success_rate(), 0.0);
        assert_eq!(c.crash_rate(), 0.0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn per_kind_crash_tallies_sum_to_the_legacy_crashed_count() {
        let mut c = CampaignCounts::default();
        for kind in CrashKind::ALL {
            c.record(Outcome::Crashed(kind));
            c.record(Outcome::Crashed(kind));
        }
        assert_eq!(c.crashed(), 2 * CrashKind::ALL.len() as u64);
        assert_eq!(
            c.crashed(),
            CrashKind::ALL
                .iter()
                .map(|&k| c.crashes.count(k))
                .sum::<u64>()
        );
        assert_eq!(c.total(), c.crashed());
    }

    #[test]
    fn every_trap_kind_folds_into_a_crash_class() {
        use ftkr_vm::TrapKind::*;
        assert_eq!(CrashKind::from_trap(StepLimit), CrashKind::Hang);
        assert_eq!(CrashKind::from_trap(OutOfBounds), CrashKind::MemoryTrap);
        assert_eq!(CrashKind::from_trap(CallDepth), CrashKind::MemoryTrap);
        assert_eq!(
            CrashKind::from_trap(DivisionByZero),
            CrashKind::ArithmeticTrap
        );
        assert_eq!(CrashKind::from_trap(OutOfMemory), CrashKind::OutOfMemory);
        assert_eq!(CrashKind::from_trap(TypeMismatch), CrashKind::Other);
        assert_eq!(
            CrashKind::from_trap(UninitializedRegister),
            CrashKind::Other
        );
    }

    #[test]
    fn harness_errors_and_degraded_runs_taint_the_tally() {
        let mut c = CampaignCounts::default();
        c.record(Outcome::HarnessError);
        assert_eq!(c.harness_errors, 1);
        assert_eq!(c.crashed(), 0, "a harness error is not a program crash");
        assert_eq!(c.total(), 1);
        assert!(c.is_tainted());

        let mut d = CampaignCounts::default();
        d.record(Outcome::VerificationSuccess);
        d.degraded += 1;
        assert!(d.is_tainted());
        assert_eq!(d.total(), 1, "degraded is bookkeeping, not an outcome");
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = CampaignCounts {
            success: 1,
            failed: 2,
            ..CampaignCounts::default()
        };
        a.crashes.hang = 3;
        a.crashes.memory_trap = 1;
        a.harness_errors = 1;
        a.degraded = 2;
        let mut b = CampaignCounts {
            success: 10,
            failed: 20,
            ..CampaignCounts::default()
        };
        b.crashes.hang = 30;
        b.crashes.arithmetic_trap = 4;
        let m = a.merge(b);
        assert_eq!(m.success, 11);
        assert_eq!(m.failed, 22);
        assert_eq!(m.crashes.hang, 33);
        assert_eq!(m.crashes.memory_trap, 1);
        assert_eq!(m.crashes.arithmetic_trap, 4);
        assert_eq!(m.crashed(), 38);
        assert_eq!(m.harness_errors, 1);
        assert_eq!(m.degraded, 2);
    }
}
