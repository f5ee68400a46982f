//! Integration test for the campaign resume driver: a manifest with a
//! deleted, a truncated, and a taint-marked shard report is resumed,
//! re-executing exactly those shards, and the merged tally is bit-identical
//! to the monolithic campaign.

use fliptracker::integrity::write_report;
use fliptracker::{PlanError, Session};
use ftkr_bench::shard::{manifest_shards, resume_manifest, ShardError};
use ftkr_inject::{CampaignTarget, FailPlan, RankTarget, TargetClass};

fn write(path: &std::path::Path, text: &str) {
    std::fs::write(path, format!("{text}\n")).expect("write manifest file");
}

#[test]
fn resume_reexecutes_only_missing_corrupt_and_tainted_shards() {
    let session = Session::by_name("IS").expect("IS exists");
    let plan = session
        .plan(
            CampaignTarget::Region {
                name: session.app().regions[0].clone(),
            },
            TargetClass::Internal,
            24,
        )
        .expect("region resolves")
        .with_seed(4242);
    let monolithic = session.run_plan(&plan).expect("monolithic run");

    // Coordinator: write a 4-shard manifest and "execute" every shard
    // through the crash-consistent writer.
    let dir = std::env::temp_dir().join(format!("ftkr-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create manifest dir");
    write(&dir.join("plan.json"), &plan.to_json());
    for (i, shard) in plan.shards(4).iter().enumerate() {
        write(&dir.join(format!("plan_shard_{i}.json")), &shard.to_json());
        let report = session.run_plan(shard).expect("shard run");
        write_report(&dir.join(format!("report_{i}.json")), &report.to_json())
            .expect("write shard report");
    }
    assert_eq!(manifest_shards(&dir), vec![0, 1, 2, 3]);

    // Shard 1's report was truncated mid-write (the checksum footer catches
    // it), a worker died before writing shard 2, and shard 3's worker ran
    // under harness faults: its verifier panicked on some tests, so the
    // report is valid JSON with a valid checksum — but tainted.
    std::fs::write(dir.join("report_1.json"), "{\"counts\":{\"succ").expect("corrupt report");
    std::fs::remove_file(dir.join("report_2.json")).expect("delete report");
    let shard3 = &plan.shards(4)[3];
    let chaos = FailPlan {
        verifier_panic: 512,
        ..FailPlan::uniform(9, 0)
    };
    let tainted = session
        .run_plan_chaos(shard3, chaos)
        .expect("chaos shard run");
    assert!(
        tainted.is_tainted(),
        "chaos must poison at least one verdict"
    );
    write_report(&dir.join("report_3.json"), &tainted.to_json()).expect("write tainted report");

    let summary = resume_manifest(&dir).expect("resume succeeds");
    assert_eq!(
        summary.executed,
        vec![1, 2, 3],
        "only the broken shards re-run"
    );
    assert_eq!(summary.intact, vec![0]);
    assert_eq!(summary.merged, monolithic);

    // The repaired reports landed on disk: a second resume is a no-op with
    // the same merged tally.
    let again = resume_manifest(&dir).expect("second resume succeeds");
    assert!(again.executed.is_empty());
    assert_eq!(again.intact, vec![0, 1, 2, 3]);
    assert_eq!(again.merged, monolithic);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_non_manifest_directories() {
    let dir = std::env::temp_dir().join(format!("ftkr-resume-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    assert!(matches!(
        resume_manifest(&dir),
        Err(ShardError::NotAManifest(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_spmd_manifests_without_writing_a_report() {
    let session = Session::by_name("MG").expect("MG exists");
    let plan = session
        .plan_spmd(
            CampaignTarget::Region {
                name: "mg_a".to_string(),
            },
            TargetClass::Internal,
            8,
            4,
            RankTarget::Sweep,
        )
        .expect("MG decomposes");
    let dir = std::env::temp_dir().join(format!("ftkr-resume-spmd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create manifest dir");
    for (i, shard) in plan.shards(2).iter().enumerate() {
        write(&dir.join(format!("plan_shard_{i}.json")), &shard.to_json());
    }

    // Resume runs the single-VM executor, which refuses a multi-rank plan.
    let err = resume_manifest(&dir).unwrap_err();
    assert!(
        matches!(
            err,
            ShardError::Execute {
                shard: 0,
                cause: PlanError::SpmdPlan { ranks: 4 }
            }
        ),
        "{err}"
    );
    assert!(!dir.join("report_0.json").exists());
    assert!(!dir.join("report_1.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
