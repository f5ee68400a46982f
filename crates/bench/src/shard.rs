//! Crash-consistent shard-manifest maintenance for distributed campaigns.
//!
//! A coordinator writes `plan.json` plus `plan_shard_<i>.json` (see the
//! `campaign_shard plan` subcommand); workers execute shards into
//! `report_<i>.json`.  Machines die, writes tear, disks rot — this module
//! makes every failure mode either invisible or recoverable:
//!
//! * **Atomic writes.**  [`write_report`](fliptracker::integrity::write_report)
//!   writes to a temp file in the same directory and renames it over the
//!   destination, so a crash at any instant leaves either the previous
//!   intact report or no report — never a torn one.
//! * **Checksum footers.**  Every report carries an FNV-1a footer line
//!   (`#ftkr-checksum:<hex>`); [`verify_checksum`] catches silent on-disk
//!   corruption that would still parse as JSON (a truncated-but-valid
//!   prefix, a flipped digit in a tally).
//! * **Taint awareness.**  A report whose counts record harness errors or
//!   degraded runs ([`CampaignReport::is_tainted`]) is treated like a
//!   missing one: the shard re-executes, so a resumed manifest always
//!   converges to the tallies of an undisturbed run.
//! * **Bounded retry.**  Transient I/O failures are absorbed by
//!   [`IO_RETRIES`](fliptracker::integrity::IO_RETRIES) attempts with
//!   deterministic spin backoff — no wall clock, so chaos schedules replay
//!   identically.
//!
//! [`resume_manifest`] scans a directory, re-executes **only** the shards
//! whose report is missing, torn, corrupt or tainted, and returns the
//! merged tally — bit-identical to the monolithic campaign no matter how
//! many times the manifest crashed and resumed in between.

use std::io;
use std::path::{Path, PathBuf};

use fliptracker::integrity::{verify_checksum, write_report_chaos};
use fliptracker::{execute_plan, PlanError};
use ftkr_inject::{CampaignPlan, CampaignReport, FailPlan};

/// Why a manifest operation failed, preserving the failing shard index and
/// the underlying cause (replaces the old stringly `Result<_, String>`).
#[derive(Debug)]
pub enum ShardError {
    /// The directory contains no `plan_shard_0.json`.
    NotAManifest(PathBuf),
    /// A shard's plan file could not be read.
    PlanRead {
        /// The shard whose plan failed to read.
        shard: usize,
        /// The plan file.
        path: PathBuf,
        /// The I/O failure.
        cause: io::Error,
    },
    /// A shard's plan file is not valid plan JSON.
    PlanParse {
        /// The shard whose plan failed to parse.
        shard: usize,
        /// The plan file.
        path: PathBuf,
        /// The parse failure.
        cause: serde_json::Error,
    },
    /// The campaign executor refused a shard's plan.
    Execute {
        /// The shard whose plan was refused.
        shard: usize,
        /// The executor's reason.
        cause: PlanError,
    },
    /// A shard's report could not be written (even after retries).
    ReportWrite {
        /// The shard whose report failed to persist.
        shard: usize,
        /// The report file.
        path: PathBuf,
        /// The I/O failure of the last attempt.
        cause: io::Error,
    },
}

impl ShardError {
    /// The shard index the error occurred on, if it names one.
    pub fn shard(&self) -> Option<usize> {
        match self {
            ShardError::NotAManifest(_) => None,
            ShardError::PlanRead { shard, .. }
            | ShardError::PlanParse { shard, .. }
            | ShardError::Execute { shard, .. }
            | ShardError::ReportWrite { shard, .. } => Some(*shard),
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NotAManifest(dir) => write!(
                f,
                "{}: no plan_shard_0.json — not a shard manifest directory",
                dir.display()
            ),
            ShardError::PlanRead { shard, path, cause } => {
                write!(f, "shard {shard}: cannot read {}: {cause}", path.display())
            }
            ShardError::PlanParse { shard, path, cause } => {
                write!(
                    f,
                    "shard {shard}: {} is not a plan: {cause}",
                    path.display()
                )
            }
            ShardError::Execute { shard, cause } => {
                write!(f, "shard {shard}: {cause}")
            }
            ShardError::ReportWrite { shard, path, cause } => {
                write!(f, "shard {shard}: cannot write {}: {cause}", path.display())
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::NotAManifest(_) => None,
            ShardError::PlanRead { cause, .. } | ShardError::ReportWrite { cause, .. } => {
                Some(cause)
            }
            ShardError::PlanParse { cause, .. } => Some(cause),
            ShardError::Execute { cause, .. } => Some(cause),
        }
    }
}

/// What a resume pass did to one manifest directory.
#[derive(Debug, Clone)]
pub struct ResumeSummary {
    /// Shard indices whose report was missing, torn, corrupt or tainted and
    /// was (re-)executed by this pass.
    pub executed: Vec<usize>,
    /// Shard indices whose report was already present, checksummed and
    /// untainted.
    pub intact: Vec<usize>,
    /// The merged report over all shards of the manifest.
    pub merged: CampaignReport,
}

/// The plan file of shard `index` in a manifest directory.
pub fn shard_plan_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("plan_shard_{index}.json"))
}

/// The report file of shard `index` in a manifest directory.
pub fn shard_report_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("report_{index}.json"))
}

/// The shard indices present in a manifest directory: `0..k` for the first
/// missing `plan_shard_<k>.json`.
pub fn manifest_shards(dir: &Path) -> Vec<usize> {
    let mut shards = Vec::new();
    while shard_plan_path(dir, shards.len()).exists() {
        let i = shards.len();
        shards.push(i);
    }
    shards
}

// -- crash-consistent report files ----------------------------------------

/// Read a shard report back, demanding the full crash-consistency contract:
/// present, checksummed, parseable, and untainted.  Anything less returns
/// `None` — the caller re-executes the shard.
pub fn read_intact_report(path: &Path) -> Option<CampaignReport> {
    let text = std::fs::read_to_string(path).ok()?;
    let payload = verify_checksum(&text)?;
    let report = CampaignReport::from_json(payload).ok()?;
    (!report.is_tainted()).then_some(report)
}

// -- resuming a manifest ---------------------------------------------------

/// Scan a manifest directory and re-execute exactly the shards whose report
/// is missing, torn, corrupt, or tainted by harness errors / degraded runs;
/// write the fresh reports (crash-consistently) next to the plans and return
/// the merged tally.
pub fn resume_manifest(dir: &Path) -> Result<ResumeSummary, ShardError> {
    resume_manifest_chaos(dir, FailPlan::none())
}

/// [`resume_manifest`] with a fail-point schedule armed on the report
/// *writes* (transient I/O, keyed by shard index) — the hook the chaos suite
/// uses to prove the retry loop absorbs flaky disks during recovery.  The
/// shard executions themselves run fault-free: resume is the recovery pass
/// that must converge.
pub fn resume_manifest_chaos(dir: &Path, chaos: FailPlan) -> Result<ResumeSummary, ShardError> {
    let shards = manifest_shards(dir);
    if shards.is_empty() {
        return Err(ShardError::NotAManifest(dir.to_path_buf()));
    }

    let mut executed = Vec::new();
    let mut intact = Vec::new();
    let mut reports: Vec<CampaignReport> = Vec::with_capacity(shards.len());

    for &i in &shards {
        let report_path = shard_report_path(dir, i);
        // An intact (checksummed, parseable, untainted) report is kept
        // as-is: the campaign derivation is deterministic, so re-running
        // could only reproduce it.
        if let Some(report) = read_intact_report(&report_path) {
            intact.push(i);
            reports.push(report);
            continue;
        }

        let plan_path = shard_plan_path(dir, i);
        let text = std::fs::read_to_string(&plan_path).map_err(|cause| ShardError::PlanRead {
            shard: i,
            path: plan_path.clone(),
            cause,
        })?;
        let plan = CampaignPlan::from_json(&text).map_err(|cause| ShardError::PlanParse {
            shard: i,
            path: plan_path.clone(),
            cause,
        })?;
        let report =
            execute_plan(&plan).map_err(|cause| ShardError::Execute { shard: i, cause })?;
        write_report_chaos(&report_path, &report.to_json(), chaos, i as u64).map_err(|cause| {
            ShardError::ReportWrite {
                shard: i,
                path: report_path.clone(),
                cause,
            }
        })?;
        executed.push(i);
        reports.push(report);
    }

    let merged = reports
        .into_iter()
        .reduce(|a, b| a.merge(&b))
        .expect("at least one shard");
    Ok(ResumeSummary {
        executed,
        intact,
        merged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fliptracker::integrity::{with_checksum, write_report, CHECKSUM_PREFIX};

    #[test]
    fn checksum_round_trip_accepts_only_the_exact_payload() {
        let payload = "{\n  \"x\": 1\n}";
        let framed = with_checksum(payload);
        assert_eq!(verify_checksum(&framed), Some(payload));
        // Any payload mutation is caught.
        let torn = framed.replace('1', "2");
        assert_eq!(verify_checksum(&torn), None);
        // A missing or malformed footer is caught.
        assert_eq!(verify_checksum(payload), None);
        assert_eq!(
            verify_checksum(&format!("{payload}\n{CHECKSUM_PREFIX}zz\n")),
            None
        );
        // Truncation to a valid-JSON prefix is caught too.
        let truncated = &framed[..framed.len() / 2];
        assert_eq!(verify_checksum(truncated), None);
    }

    #[test]
    fn atomic_writes_survive_injected_mid_write_crashes() {
        let dir = std::env::temp_dir().join("ftkr_shard_atomic_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report_0.json");

        // A fault-free write round-trips.
        write_report(&path, "{\"v\": 1}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(verify_checksum(&text), Some("{\"v\": 1}"));

        // A mid-write crash (always fires) must leave the old file intact.
        let crashy = FailPlan {
            write_crash: 1024,
            ..FailPlan::uniform(1, 0)
        };
        assert!(write_report_chaos(&path, "{\"v\": 2}", crashy, 0).is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            verify_checksum(&text),
            Some("{\"v\": 1}"),
            "old report survives"
        );

        // Post-rename corruption lands on disk — and the checksum catches it.
        let rotten = FailPlan {
            corrupt_report: 1024,
            ..FailPlan::uniform(1, 0)
        };
        write_report_chaos(&path, "{\"v\": 3}", rotten, 0).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(verify_checksum(&text), None, "corruption must not verify");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retries_absorb_transient_io_but_not_a_dead_disk() {
        let dir = std::env::temp_dir().join("ftkr_shard_retry_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report_0.json");

        // A moderate transient rate: some attempt within IO_RETRIES lands.
        let flaky = FailPlan {
            transient_io: 512,
            ..FailPlan::uniform(33, 0)
        };
        let mut failures = 0;
        for ordinal in 0..16u64 {
            if write_report_chaos(&path, "{\"v\": 1}", flaky, ordinal).is_err() {
                failures += 1;
            }
        }
        // P(all IO_RETRIES=4 attempts fail at 50 %) = 6.25 % per write; the
        // schedule is deterministic, so this bound is exact for seed 33.
        assert!(failures <= 4, "retries absorbed too little: {failures}/16");

        // A dead disk (always fails) exhausts the retries.
        let dead = FailPlan {
            transient_io: 1024,
            ..FailPlan::uniform(1, 0)
        };
        assert!(write_report_chaos(&path, "{\"v\": 1}", dead, 0).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_error_preserves_the_failing_shard_and_cause() {
        let dir = std::env::temp_dir().join("ftkr_shard_error_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // An empty directory is not a manifest.
        let err = resume_manifest(&dir).unwrap_err();
        assert!(matches!(err, ShardError::NotAManifest(_)));
        assert_eq!(err.shard(), None);
        assert!(err.to_string().contains("not a shard manifest"));

        // A manifest whose shard-1 plan is garbage: the error names shard 1
        // and carries the parse failure as its source.
        std::fs::write(
            shard_plan_path(&dir, 0),
            ftkr_inject::CampaignPlan::new(
                "IS",
                ftkr_inject::CampaignTarget::WholeProgram,
                ftkr_inject::TargetClass::Internal,
                2,
            )
            .to_json(),
        )
        .unwrap();
        std::fs::write(shard_plan_path(&dir, 1), "{not json").unwrap();
        let err = resume_manifest(&dir).unwrap_err();
        assert_eq!(err.shard(), Some(1));
        assert!(matches!(err, ShardError::PlanParse { shard: 1, .. }));
        assert!(std::error::Error::source(&err).is_some());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
