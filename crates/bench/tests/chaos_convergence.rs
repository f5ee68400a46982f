//! Property suite for the chaos harness: campaigns are pure functions of
//! `(seed, index)`, so a sharded campaign executed under an *arbitrary*
//! seeded fail-point schedule — checkpoint-restore failures, verifier
//! panics, mid-write crashes, on-disk corruption, flaky I/O — must, once
//! [`resume_manifest`] repairs the manifest, produce a merged report
//! byte-identical to the undisturbed fault-free run.  The analyzed executor
//! has the same contract: a tainted analyzed report re-executed fault-free
//! reconverges to the undisturbed analysis.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use fliptracker::integrity::write_report_chaos;
use fliptracker::Session;
use ftkr_bench::shard::resume_manifest;
use ftkr_inject::{CampaignPlan, CampaignTarget, FailPlan, TargetClass};
use proptest::prelude::*;

const N_TESTS: u64 = 12;
const K_SHARDS: usize = 3;

/// Monotone counter so concurrent proptest cases never share a scratch dir.
static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ftkr-chaos-{tag}-{}-{n}", std::process::id()))
}

/// The standard small campaign the properties run: the app's first named
/// region, internal sites, a fixed seed — cheap enough to execute a handful
/// of times per proptest case.
fn region_plan(session: &Session) -> CampaignPlan {
    session
        .plan(
            CampaignTarget::Region {
                name: session.app().regions[0].clone(),
            },
            TargetClass::Internal,
            N_TESTS,
        )
        .expect("registry region resolves")
        .with_seed(0xF1A6)
}

/// Run the full coordinator story for one app under one fail-point schedule:
/// shard the plan, execute every shard with chaos armed (in the executor
/// *and* in the report writer), then resume the manifest fault-free and
/// demand bit-identical convergence with the undisturbed monolithic run.
fn assert_manifest_converges(app: &str, chaos: FailPlan) {
    let session = Session::by_name(app).unwrap_or_else(|| panic!("{app} exists"));
    let plan = region_plan(&session);
    let reference = session.run_plan(&plan).expect("fault-free reference run");

    let dir = scratch_dir(app);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create manifest dir");
    for (i, shard) in plan.shards(K_SHARDS).iter().enumerate() {
        std::fs::write(dir.join(format!("plan_shard_{i}.json")), shard.to_json())
            .expect("write shard plan");
        let report = session
            .run_plan_chaos(shard, chaos)
            .expect("chaos shard run");
        // The write itself runs under the same schedule: it may tear (no
        // file), corrupt (checksum catches it), or succeed with a tainted
        // payload — resume must repair all three.
        let _ = write_report_chaos(
            &dir.join(format!("report_{i}.json")),
            &report.to_json(),
            chaos,
            i as u64,
        );
    }

    let summary = resume_manifest(&dir).expect("resume succeeds");
    assert_eq!(
        summary.merged, reference,
        "{app}: resumed merge differs from the undisturbed run under {chaos:?}"
    );
    assert_eq!(summary.merged.to_json(), reference.to_json());

    // Recovery is idempotent: a second resume finds only intact shards and
    // re-executes nothing.
    let again = resume_manifest(&dir).expect("second resume succeeds");
    assert!(
        again.executed.is_empty(),
        "{app}: resume must be idempotent"
    );
    assert_eq!(again.merged, reference);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The analyzed twin: chaos either leaves the report untainted (in which
/// case it is already byte-identical to the undisturbed analysis) or taints
/// it, and the fault-free re-execution — what resume does for a tainted
/// shard — reconverges exactly.
fn assert_analyzed_reconverges(app: &str, chaos: FailPlan) {
    let session = Session::by_name(app).unwrap_or_else(|| panic!("{app} exists"));
    let plan = region_plan(&session);
    let reference = session
        .run_plan_analyzed(&plan)
        .expect("fault-free analysis");
    let chaotic = session
        .run_plan_analyzed_chaos(&plan, chaos)
        .expect("chaos analysis");
    if chaotic.report.is_tainted() {
        let rerun = session.run_plan_analyzed(&plan).expect("recovery re-run");
        assert_eq!(
            rerun.to_json(),
            reference.to_json(),
            "{app}: fault-free re-run after taint must reconverge"
        );
    } else {
        // Nothing fired: restore failures and verifier panics both taint, so
        // an untainted chaotic report must already be the reference.
        assert_eq!(
            chaotic.to_json(),
            reference.to_json(),
            "{app}: untainted chaos run must be byte-identical under {chaos:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn sharded_chaos_converges_on_is(
        seed in any::<u64>(),
        restore_fail in 0u16..321,
        verifier_panic in 0u16..321,
        write_crash in 0u16..321,
        corrupt_report in 0u16..321,
        transient_io in 0u16..321,
    ) {
        assert_manifest_converges("IS", FailPlan {
            seed, restore_fail, verifier_panic, write_crash, corrupt_report, transient_io,
            worker_job: 0,
        });
    }

    #[test]
    fn sharded_chaos_converges_on_lu(
        seed in any::<u64>(),
        restore_fail in 0u16..321,
        verifier_panic in 0u16..321,
        write_crash in 0u16..321,
        corrupt_report in 0u16..321,
        transient_io in 0u16..321,
    ) {
        assert_manifest_converges("LU", FailPlan {
            seed, restore_fail, verifier_panic, write_crash, corrupt_report, transient_io,
            worker_job: 0,
        });
    }

    #[test]
    fn sharded_chaos_converges_on_mg(
        seed in any::<u64>(),
        restore_fail in 0u16..321,
        verifier_panic in 0u16..321,
        write_crash in 0u16..321,
        corrupt_report in 0u16..321,
        transient_io in 0u16..321,
    ) {
        assert_manifest_converges("MG", FailPlan {
            seed, restore_fail, verifier_panic, write_crash, corrupt_report, transient_io,
            worker_job: 0,
        });
    }

    #[test]
    fn analyzed_chaos_reconverges(
        app_idx in 0usize..3,
        seed in any::<u64>(),
        restore_fail in 0u16..321,
        verifier_panic in 0u16..321,
    ) {
        let app = ["IS", "LU", "MG"][app_idx];
        assert_analyzed_reconverges(app, FailPlan {
            seed, restore_fail, verifier_panic,
            write_crash: 0, corrupt_report: 0, transient_io: 0, worker_job: 0,
        });
    }
}
