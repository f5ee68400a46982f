//! Cold-run equivalence of the fork-point checkpoint/restore executor.
//!
//! `Session::run_plan` / `Session::run_plan_analyzed` fork every faulty run
//! of a mid-run campaign from a fault-free [`ftkr_vm::VmSnapshot`] instead of
//! re-executing the clean prefix.  The optimization is only admissible if it
//! is *invisible*: this suite holds the fork-point executors to byte-identical
//! report JSON against the reference executors (`Session::run_plan_cold` /
//! `Session::run_plan_analyzed_cold`), whose tests start from the step-0
//! checkpoint and so re-execute the whole clean prefix, for every
//! application in the registry, every named region, both site classes, and
//! across arbitrary shard splits merged back together.  Runs from program
//! entry are frozen in `tests/fixtures/start_reports.txt`.

use fliptracker::prelude::*;

/// Seed chosen so the suite samples a different fault population than the
/// figure drivers' default seeds.
const SEED: u64 = 0xC0DE_5EED;

/// Every registry application, every named region: the fork-point campaign
/// report is byte-identical to the cold one, and a 3-way shard split of the
/// fork-point campaign merges back to the same bytes.
#[test]
fn fork_point_reports_match_cold_reports_for_every_app_and_region() {
    for app in all_apps() {
        let name = app.name;
        let session = Session::new(app);
        let regions = session.app().regions.clone();
        for region in regions {
            let plan = session
                .plan(
                    CampaignTarget::Region {
                        name: region.clone(),
                    },
                    TargetClass::Internal,
                    6,
                )
                .expect("registry regions resolve")
                .with_seed(SEED);
            let cold = session.run_plan_cold(&plan).unwrap().to_json();
            let forked = session.run_plan(&plan).unwrap().to_json();
            assert_eq!(forked, cold, "{name} region {region:?} internal sites");

            let merged = plan
                .shards(3)
                .iter()
                .map(|shard| session.run_plan(shard).unwrap())
                .reduce(|a, b| a.merge(&b))
                .unwrap();
            assert_eq!(
                merged.to_json(),
                cold,
                "{name} region {region:?} sharded fork-point merge"
            );
        }
    }
}

/// The streaming-analysis executor under the same bar: for every registry
/// application, the analyzed fork-point report (outcome tally, pattern tally
/// and tests-with-patterns) is byte-identical to the cold analyzed report on
/// a representative region, and analyzed fork-point shards merge identically.
#[test]
fn fork_point_analyzed_reports_match_cold_for_every_app() {
    for app in all_apps() {
        let name = app.name;
        let session = Session::new(app);
        let regions = session.app().regions.clone();
        for region in regions {
            let plan = session
                .plan(
                    CampaignTarget::Region {
                        name: region.clone(),
                    },
                    TargetClass::Internal,
                    4,
                )
                .expect("registry regions resolve")
                .with_seed(SEED ^ 1);
            let cold = session.run_plan_analyzed_cold(&plan).unwrap().to_json();
            let forked = session.run_plan_analyzed(&plan).unwrap().to_json();
            assert_eq!(forked, cold, "{name} region {region:?} analyzed");

            let merged = plan
                .shards(2)
                .iter()
                .map(|shard| session.run_plan_analyzed(shard).unwrap())
                .reduce(|a, b| a.merge(&b))
                .unwrap();
            assert_eq!(
                merged.to_json(),
                cold,
                "{name} region {region:?} analyzed sharded merge"
            );
        }
    }
}

/// Input-class campaigns (faults seeded into a region's DDDG input locations
/// at the region boundary — the earliest possible strike step, exactly the
/// fork step) fork identically too.
#[test]
fn input_class_campaigns_fork_identically() {
    for app in all_apps() {
        let name = app.name;
        let session = Session::new(app);
        let region = session.app().regions[0].clone();
        let plan = session
            .plan(
                CampaignTarget::Region {
                    name: region.clone(),
                },
                TargetClass::Input,
                6,
            )
            .expect("registry regions resolve")
            .with_seed(SEED ^ 2);
        let cold = session.run_plan_cold(&plan).unwrap().to_json();
        let forked = session.run_plan(&plan).unwrap().to_json();
        assert_eq!(forked, cold, "{name} region {region:?} input sites");
    }
}

/// Main-loop iteration targets — including the *last* iteration, whose
/// window sits at the far end of the run and therefore saves the longest
/// prefix — fork identically.
#[test]
fn iteration_targets_fork_identically_including_the_last_iteration() {
    for name in ["LU", "MG"] {
        let session = Session::by_name(name).unwrap();
        let n = session.iterations().len();
        assert!(n >= 2, "{name} has a partitioned main loop");
        for index in [0, n - 1] {
            let plan = session
                .plan(
                    CampaignTarget::Iteration { index },
                    TargetClass::Internal,
                    6,
                )
                .unwrap()
                .with_seed(SEED ^ 3);
            let cold = session.run_plan_cold(&plan).unwrap().to_json();
            let forked = session.run_plan(&plan).unwrap().to_json();
            assert_eq!(forked, cold, "{name} iteration {index}");
        }
    }
}

/// The cross-process story stays intact: a coordinator plans, shard
/// executors parse the plan from JSON in fresh sessions, resolve its sites
/// from their own clean trace and run it through the fork-point path, and
/// the merged shard reports are byte-identical to the coordinator's
/// cold-start reference.
#[test]
fn fresh_shard_sessions_fork_and_merge_to_the_cold_reference() {
    let coordinator = Session::by_name("IS").unwrap();
    let region = coordinator.app().regions[0].clone();
    let plan = coordinator
        .plan(
            CampaignTarget::Region { name: region },
            TargetClass::Internal,
            12,
        )
        .unwrap()
        .with_seed(SEED ^ 4);
    let reference = coordinator.run_plan_cold(&plan).unwrap();

    let merged = plan
        .shards(3)
        .iter()
        .map(|shard| {
            let wire = shard.to_json();
            let parsed = CampaignPlan::from_json(&wire).unwrap();
            let executor = Session::by_name(&parsed.app).unwrap();
            executor.run_plan(&parsed).unwrap()
        })
        .reduce(|a, b| a.merge(&b))
        .unwrap();
    assert_eq!(merged.to_json(), reference.to_json());
}

/// Whole-program campaigns sample sites from step zero on, so there is no
/// prefix to save: the executor forks every test from the step-0
/// checkpoint and still produces the reference bytes.
#[test]
fn whole_program_plans_fork_from_the_step_zero_checkpoint() {
    let session = Session::by_name("IS").unwrap();
    let plan = session
        .plan(CampaignTarget::WholeProgram, TargetClass::Internal, 8)
        .unwrap()
        .with_seed(SEED ^ 5);
    let cold = session.run_plan_cold(&plan).unwrap().to_json();
    let forked = session.run_plan(&plan).unwrap().to_json();
    assert_eq!(forked, cold);
}
