//! SPMD campaign reports against frozen fixtures.
//!
//! `tests/fixtures/spmd_reports.txt` holds the FNV-1a digest of
//! `Session::run_plan_spmd(plan).to_json()` for every SPMD plan below, as
//! recorded by the executor that ran each test as a thread-per-rank job
//! with a cold local run.  The current executor (a forked kernel run plus
//! the exchange evaluated in the calling thread) must reproduce every byte.

mod support;

use fliptracker::integrity::fnv1a;
use fliptracker::prelude::*;
use support::{hex, LineFixtures};

/// Tests per plan.
const N_TESTS: u64 = 16;

/// Every SPMD plan of `session`'s application the fixture pins, keyed as in
/// the fixture file: 1–4 ranks; every region plus the whole program, in
/// each class that has sites, rank-swept; the whole program injected into
/// the last rank only; and the message population.
fn plans(session: &Session) -> Vec<(String, CampaignPlan)> {
    let app = session.app().name;
    let mut targets: Vec<CampaignTarget> = session
        .app()
        .regions
        .iter()
        .map(|name| CampaignTarget::Region { name: name.clone() })
        .collect();
    targets.push(CampaignTarget::WholeProgram);
    let mut plans = Vec::new();
    for ranks in 1..=4u32 {
        for target in &targets {
            for class in [TargetClass::Internal, TargetClass::Input] {
                if session.sites(target, class).unwrap().is_empty() {
                    continue;
                }
                let plan = session
                    .plan_spmd(target.clone(), class, N_TESTS, ranks, RankTarget::Sweep)
                    .unwrap();
                let key = format!("{app} ranks={ranks} {} {class:?} sweep", target.label());
                plans.push((key, plan));
            }
        }
        let last = RankTarget::Rank(ranks - 1);
        let plan = session
            .plan_spmd(
                CampaignTarget::WholeProgram,
                TargetClass::Internal,
                N_TESTS,
                ranks,
                last,
            )
            .unwrap();
        plans.push((
            format!("{app} ranks={ranks} whole Internal rank{}", ranks - 1),
            plan,
        ));
        let plan = session
            .plan_spmd(
                CampaignTarget::Messages,
                TargetClass::Internal,
                N_TESTS,
                ranks,
                RankTarget::Sweep,
            )
            .unwrap();
        plans.push((format!("{app} ranks={ranks} messages"), plan));
    }
    plans
}

#[test]
fn spmd_reports_match_the_frozen_fixture() {
    let fixtures = LineFixtures::load("spmd_reports.txt");
    let mut lines = String::new();
    let mut mismatched = Vec::new();
    for app in ["MG", "CG"] {
        let session = Session::by_name(app).expect("registry app");
        for (key, plan) in plans(&session) {
            let report = session.run_plan_spmd(&plan).expect("SPMD plan executes");
            let digest = hex(fnv1a(report.to_json().as_bytes()));
            if fixtures.get(&key) != digest {
                mismatched.push(key.clone());
            }
            lines.push_str(&format!("{key} {digest}\n"));
        }
    }
    assert!(
        mismatched.is_empty(),
        "SPMD reports differ from the fixture for {mismatched:?}; this run:\n{lines}"
    );
}
