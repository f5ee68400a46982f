//! Campaign reports whose tests start at program entry, against frozen
//! fixtures.
//!
//! `tests/fixtures/start_reports.txt` holds the FNV-1a digest of each
//! report's JSON below, as recorded by executors that ran a test starting
//! at step 0 cold, from program entry: whole-program analyzed campaigns on
//! every registry application; plain and analyzed campaigns under a fixed
//! fail-point schedule (restore failures and verifier panics, so `degraded`
//! and `harness_errors` are pinned too) on a whole-program and a region
//! plan of IS, LU and MG; and the in-process figure drivers on the same
//! targets.  Every test now resumes from a fault-free checkpoint, the
//! step-0 one for these starts and for a degraded test; every byte must
//! stay.

mod support;

use fliptracker::integrity::fnv1a;
use fliptracker::prelude::*;
use ftkr_inject::FailPlan;
use support::{hex, LineFixtures};

/// Tests per whole-program analyzed plan.
const WHOLE_TESTS: u64 = 12;

/// Tests per chaos plan.
const CHAOS_TESTS: u64 = 24;

/// The fail-point schedule of the chaos entries: restore failures only
/// fire for region plans (their tests start past step 0), verifier panics
/// for every plan.
const CHAOS: FailPlan = FailPlan {
    seed: 0x5747_C4A0,
    restore_fail: 384,
    verifier_panic: 192,
    ..FailPlan::none()
};

/// Every `(key, report JSON)` the fixture pins for one application.
fn reports(session: &Session, chaos: bool) -> Vec<(String, String)> {
    let app = session.app().name;
    let whole = session
        .plan(
            CampaignTarget::WholeProgram,
            TargetClass::Internal,
            WHOLE_TESTS,
        )
        .unwrap();
    let mut out = vec![(
        format!("{app} whole analyzed"),
        session.run_plan_analyzed(&whole).unwrap().to_json(),
    )];
    if !chaos {
        return out;
    }
    let region = session.app().regions.last().unwrap().clone();
    let targets = [
        ("whole".to_string(), CampaignTarget::WholeProgram),
        (region.clone(), CampaignTarget::Region { name: region }),
    ];
    for (label, target) in targets {
        let plan = session
            .plan(target.clone(), TargetClass::Internal, CHAOS_TESTS)
            .unwrap();
        let report = session.run_plan_chaos(&plan, CHAOS).unwrap();
        // The schedule must reach both recovery paths the fixture pins.
        assert!(
            report.counts.harness_errors > 0,
            "{app} {label}: {report:?}"
        );
        let forked = matches!(target, CampaignTarget::Region { .. });
        assert_eq!(
            report.counts.degraded > 0,
            forked,
            "{app} {label}: {report:?}"
        );
        out.push((format!("{app} {label} chaos"), report.to_json()));
        out.push((
            format!("{app} {label} analyzed-chaos"),
            session
                .run_plan_analyzed_chaos(&plan, CHAOS)
                .unwrap()
                .to_json(),
        ));
        let mut effort = Effort::quick();
        effort.tests_per_point = CHAOS_TESTS;
        let point = session
            .success_rate_point(&target, TargetClass::Internal, &effort)
            .unwrap()
            .expect("the target has internal sites");
        out.push((
            format!("{app} {label} success-rate-point"),
            format!(
                "{} {:016x} {:016x} {}",
                point.target,
                point.success_rate.to_bits(),
                point.crash_rate.to_bits(),
                point.injections
            ),
        ));
    }
    let mut effort = Effort::quick();
    effort.tests_per_point = CHAOS_TESTS;
    let rate = session.whole_program_success_rate(&effort);
    out.push((
        format!("{app} whole-program-success-rate"),
        format!("{:016x}", rate.to_bits()),
    ));
    out
}

#[test]
fn entry_start_reports_match_the_frozen_fixture() {
    let fixtures = LineFixtures::load("start_reports.txt");
    let mut lines = String::new();
    let mut mismatched = Vec::new();
    for app in all_apps() {
        let chaos = ["IS", "LU", "MG"].contains(&app.name);
        let session = Session::new(app);
        for (key, json) in reports(&session, chaos) {
            let digest = hex(fnv1a(json.as_bytes()));
            if fixtures.get(&key) != digest {
                mismatched.push(key.clone());
            }
            lines.push_str(&format!("{key} {digest}\n"));
        }
    }
    assert!(
        mismatched.is_empty(),
        "reports differ from the fixture for {mismatched:?}; this run:\n{lines}"
    );
}
