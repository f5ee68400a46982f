//! End-to-end tests of the `campaign_shard` binary: one `plan` / `run` /
//! `merge` set serves single-VM and SPMD campaigns, the plan saying which
//! executor it needs and the report saying which kind it is.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fliptracker::Session;
use ftkr_inject::CampaignPlan;

/// Run `campaign_shard` with `args` and collect its output.
fn campaign_shard(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign_shard"))
        .args(args)
        .output()
        .expect("campaign_shard starts")
}

/// Run `campaign_shard` and demand success; returns its stdout.
fn ok(args: &[&str]) -> String {
    let out = campaign_shard(args);
    assert!(
        out.status.success(),
        "campaign_shard {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftkr-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `campaign_shard plan <spec> <dir>`, `spec` being the space-separated
/// arguments before the manifest directory.
fn plan(spec: &str, dir: &str) {
    let mut args = vec!["plan"];
    args.extend(spec.split_whitespace());
    args.push(dir);
    ok(&args);
}

fn path(dir: &Path, name: &str) -> String {
    dir.join(name).to_str().expect("UTF-8 path").to_string()
}

#[test]
fn plan_with_ranks_writes_an_spmd_plan_and_run_prints_its_spmd_report() {
    let dir = scratch("spmd-run");
    let manifest = path(&dir, "mg");
    plan("MG region:mg_a internal 8 7 4 sweep 2", &manifest);
    let plan_path = format!("{manifest}/plan.json");
    let plan = CampaignPlan::from_json(&std::fs::read_to_string(&plan_path).unwrap()).unwrap();
    assert_eq!(plan.ranks, 4);
    assert!(plan.is_spmd());

    let printed = ok(&["run", &plan_path]);
    let expected = Session::by_name("MG")
        .unwrap()
        .run_plan_spmd(&plan)
        .expect("SPMD run")
        .to_json();
    assert_eq!(printed, format!("{expected}\n"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_refuses_a_report_of_the_other_kind_and_names_it() {
    let dir = scratch("merge-kinds");
    let plain = path(&dir, "plain");
    let spmd = path(&dir, "spmd");
    plan("MG region:mg_a internal 4 7 1", &plain);
    plan("MG region:mg_a internal 4 7 4 sweep 1", &spmd);
    let plain_report = path(&dir, "plain_report.json");
    let spmd_report = path(&dir, "spmd_report.json");
    ok(&["run", &format!("{plain}/plan.json"), &plain_report]);
    ok(&["run", &format!("{spmd}/plan.json"), &spmd_report]);

    for (first, second) in [(&plain_report, &spmd_report), (&spmd_report, &plain_report)] {
        let out = campaign_shard(&["merge", first, second]);
        assert!(!out.status.success(), "merge of {first} and {second}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(second.as_str()), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_of_an_empty_object_names_the_missing_field() {
    let dir = scratch("merge-empty");
    let empty = path(&dir, "empty.json");
    std::fs::write(&empty, "{}").expect("write");
    let out = campaign_shard(&["merge", &empty]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(empty.as_str()), "{stderr}");
    assert!(stderr.contains("missing field `counts`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_analyzed_refuses_an_spmd_plan() {
    let dir = scratch("analyzed-spmd");
    let manifest = path(&dir, "mg");
    plan("MG region:mg_a internal 4 7 4 sweep 1", &manifest);
    let out = campaign_shard(&["run", "--analyzed", &format!("{manifest}/plan.json")]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("multi-rank executor"));
    let _ = std::fs::remove_dir_all(&dir);
}
