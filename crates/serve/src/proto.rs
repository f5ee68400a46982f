//! The request/response vocabulary of the campaign service.
//!
//! Messages are externally-tagged JSON enums carried in [`crate::wire`]
//! frames.  Reports travel as their canonical
//! [`AnalyzedCampaignReport::to_json`](fliptracker::AnalyzedCampaignReport::to_json)
//! text inside a string field rather than as re-serialized structures, so
//! the bytes a watcher receives for the final report are exactly the bytes
//! an offline `campaign_shard run` of the same plan would print — the
//! byte-identity contract the loopback suite diffs.

use ftkr_inject::{CampaignPlan, FailPlan};
use serde::{Deserialize, Serialize};

/// A client-to-server message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Submit a campaign plan for execution as `shards` parallel shard
    /// jobs.  `chaos` arms the *server's own* fail points (worker-job
    /// deaths) — the campaign itself always runs fault-free.
    Submit {
        /// The plan to execute (validated against the registry on arrival).
        plan: CampaignPlan,
        /// How many shard jobs to split the plan into (clamped to ≥ 1).
        shards: u64,
        /// Fail-point schedule for the server's own machinery.
        chaos: FailPlan,
    },
    /// Poll one job's progress.
    Status {
        /// The job id returned by [`Response::Submitted`].
        job: u64,
    },
    /// Subscribe to a job: the server replays the shard deltas recorded so
    /// far, then streams the rest live, ending with [`Response::Final`].
    Watch {
        /// The job id returned by [`Response::Submitted`].
        job: u64,
    },
    /// Ask for server-wide counters (jobs, shards, session-cache traffic).
    Stats,
    /// Stop accepting work, drain in-flight jobs, and exit.
    Shutdown,
}

/// A server-to-client message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// A submission was accepted and queued.
    Submitted {
        /// The id to poll or watch.
        job: u64,
    },
    /// A job's current progress.
    Status(JobStatus),
    /// One shard of a watched job completed.  Deltas are per-shard and
    /// merge-order-independent: folding the `report` fields of every delta
    /// (in any order) with `AnalyzedCampaignReport::merge` reproduces the
    /// final report's tallies.
    Delta {
        /// The watched job.
        job: u64,
        /// The shard that completed.
        shard: u64,
        /// Shards completed so far (including this one).
        done: u64,
        /// Total shards of the job.
        total: u64,
        /// The shard's own `AnalyzedCampaignReport::to_json` text.
        report: String,
    },
    /// A watched job finished: the merged report over all shards, in shard
    /// order — byte-identical to the offline execution of the same plan.
    Final {
        /// The watched job.
        job: u64,
        /// The merged `AnalyzedCampaignReport::to_json` text.
        report: String,
    },
    /// Server-wide counters.
    Stats(ServeStats),
    /// The server acknowledges a shutdown request and is draining.
    ShuttingDown,
    /// The request failed; a typed kind plus human-readable detail.
    Error(WireError),
}

/// How far a job has progressed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobStatus {
    /// The job id.
    pub job: u64,
    /// The application the job's plan targets.
    pub app: String,
    /// Total shard jobs of the plan.
    pub shards_total: u64,
    /// Shard jobs completed (successfully or degraded).
    pub shards_done: u64,
    /// Shards whose worker died and exhausted its retries: their tests are
    /// tallied as harness errors in the final report (degradation, not
    /// loss).
    pub shards_lost: u64,
    /// True once the final merged report exists.
    pub done: bool,
}

/// Server-wide counters reported by [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Jobs accepted since the server started.
    pub jobs_submitted: u64,
    /// Jobs whose final merged report exists.
    pub jobs_completed: u64,
    /// Shard jobs executed to a report (including retried attempts that
    /// eventually succeeded).
    pub shards_executed: u64,
    /// Shard jobs lost to worker deaths after retries (degraded to
    /// harness-error tallies).
    pub shards_lost: u64,
    /// Worker panics absorbed by the job-level isolation perimeter.
    pub worker_panics: u64,
    /// Session-cache traffic.
    pub cache: CacheStats,
}

/// Session-cache counters (one hot [`fliptracker::Session`] per
/// application, LRU-evicted under a byte budget).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found a hot session.
    pub hits: u64,
    /// Lookups that had to open (and warm) a fresh session.
    pub misses: u64,
    /// Sessions evicted to honor the byte budget.
    pub evictions: u64,
    /// Resident sessions right now.
    pub sessions: u64,
    /// Estimated bytes held by resident sessions right now.
    pub resident_bytes: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
}

/// What kind of failure a [`WireError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireErrorKind {
    /// The frame or its JSON payload was malformed (bad magic, oversized,
    /// checksum mismatch, or not a [`Request`]).
    Protocol,
    /// The submitted plan was rejected (unknown app, unresolvable target,
    /// non-registry size, …).
    Plan,
    /// The named job does not exist.
    UnknownJob,
    /// The server is draining and no longer accepts submissions.
    ShuttingDown,
}

/// A typed error crossing the wire — the serve-side analogue of
/// `ShardError`, never a bare string result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireError {
    /// The failure category (machine-matchable).
    pub kind: WireErrorKind,
    /// Human-readable detail (the underlying typed error's `Display`).
    pub detail: String,
}

impl WireError {
    /// Build an error of `kind` from any displayable cause.
    pub fn new(kind: WireErrorKind, cause: &dyn std::fmt::Display) -> WireError {
        WireError {
            kind,
            detail: cause.to_string(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_inject::{CampaignTarget, TargetClass};

    #[test]
    fn requests_and_responses_round_trip_the_wire_encoding() {
        let plan = CampaignPlan::new(
            "LU",
            CampaignTarget::Region {
                name: "rhs".to_string(),
            },
            TargetClass::Internal,
            64,
        );
        let req = Request::Submit {
            plan,
            shards: 3,
            chaos: FailPlan::none(),
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        match back {
            Request::Submit { plan, shards, .. } => {
                assert_eq!(plan.app, "LU");
                assert_eq!(shards, 3);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let resp = Response::Delta {
            job: 7,
            shard: 2,
            done: 1,
            total: 3,
            report: "{}".to_string(),
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert!(matches!(
            back,
            Response::Delta {
                job: 7,
                shard: 2,
                ..
            }
        ));
    }

    #[test]
    fn wire_errors_stay_typed_across_serialization() {
        let err = WireError::new(WireErrorKind::UnknownJob, &"job 99 was never submitted");
        let json = serde_json::to_string(&Response::Error(err.clone())).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        match back {
            Response::Error(e) => {
                assert_eq!(e.kind, WireErrorKind::UnknownJob);
                assert_eq!(e, err);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
