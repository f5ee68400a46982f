//! Registry-wide spec-conformance harness: every [`App`] in `all_apps()` —
//! present and future — is held to the same bar the paper's analyses assume.
//!
//! For each application the harness asserts that
//!
//! * the fault-free run completes and passes the app's own verification;
//! * every declared code region resolves to a non-empty dynamic window of
//!   the clean trace (so the Table-I / Figure-5 drivers have a population);
//! * every declared region yields a non-empty internal fault-site list (and
//!   the input-class list at least resolves);
//! * a quick-effort sharded campaign over the first region merges
//!   bit-identically to the monolithic run, through the JSON plan wire
//!   format a real shard worker would use.
//!
//! Plus two cross-size properties for the promoted NPB kernels: Class-W
//! scaling preserves the region set and verification, and campaign reports
//! are byte-identical across repeated runs (seed determinism).

use fliptracker::prelude::*;
use ftkr_apps::{all_apps, all_apps_sized, AppSize};

/// The five kernels this PR promotes (scaled by the size knob).
const PROMOTED: [&str; 5] = ["LU", "BT", "SP", "DC", "FT"];

#[test]
fn conformance_clean_run_verifies_for_every_app() {
    for app in all_apps() {
        assert!(
            app.module.verify().is_ok(),
            "{}: malformed module",
            app.name
        );
        let result = app.run_clean();
        assert!(
            app.verify(&result),
            "{}: fault-free run fails its own verification",
            app.name
        );
        assert!(
            result.outcome.is_completed(),
            "{}: fault-free run did not complete",
            app.name
        );
    }
}

#[test]
fn conformance_every_declared_region_resolves_to_a_nonempty_window() {
    for app in all_apps() {
        let name = app.name;
        let session = Session::new(app);
        let views = session.region_views();
        assert_eq!(
            views.len(),
            session.app().regions.len(),
            "{name}: some declared region has no representative instance"
        );
        for view in views {
            assert!(
                view.instance.end > view.instance.start,
                "{name}/{}: empty dynamic window",
                view.name
            );
            assert!(
                view.instructions > 0,
                "{name}/{}: zero instructions",
                view.name
            );
            let (start, end) = session
                .target_window(&CampaignTarget::Region {
                    name: view.name.clone(),
                })
                .unwrap_or_else(|e| panic!("{name}/{}: window does not resolve: {e}", view.name));
            assert!(start < end, "{name}/{}: degenerate window", view.name);
        }
        // The main loop partitions into at least one iteration instance.
        assert!(
            !session.iterations().is_empty(),
            "{name}: main loop produced no iteration instances"
        );
    }
}

#[test]
fn conformance_every_region_has_a_nonempty_internal_site_list() {
    for app in all_apps() {
        let name = app.name;
        let regions = app.regions.clone();
        let session = Session::new(app);
        for region in &regions {
            let target = CampaignTarget::Region {
                name: region.clone(),
            };
            let internal = session
                .sites(&target, TargetClass::Internal)
                .unwrap_or_else(|e| panic!("{name}/{region}: internal sites: {e}"));
            assert!(
                !internal.is_empty(),
                "{name}/{region}: no internal fault sites"
            );
            // Input sites may legitimately be empty (a region can read no
            // live-in locations) but the derivation must not error.
            session
                .sites(&target, TargetClass::Input)
                .unwrap_or_else(|e| panic!("{name}/{region}: input sites: {e}"));
        }
    }
}

#[test]
fn conformance_sharded_quick_campaign_merges_bit_identically_for_every_app() {
    for app in all_apps() {
        let name = app.name;
        let region = app.regions[0].clone();
        let session = Session::new(app);
        let plan = session
            .plan(
                CampaignTarget::Region { name: region },
                TargetClass::Internal,
                9,
            )
            .unwrap_or_else(|e| panic!("{name}: plan: {e}"));
        let reference = session.run_plan(&plan).expect("monolithic run");

        // Three uneven shards over the JSON wire format, each executed by a
        // fresh session, exactly as a shard worker would.
        let merged = plan
            .shards(3)
            .iter()
            .map(|shard| {
                let wire = shard.to_json();
                execute_plan(&CampaignPlan::from_json(&wire).expect("plan parses"))
                    .expect("shard executes")
            })
            .reduce(|a, b| a.merge(&b))
            .expect("three shards");
        assert_eq!(merged, reference, "{name}: sharded tally differs");
        assert_eq!(
            merged.to_json(),
            reference.to_json(),
            "{name}: sharded report JSON differs"
        );
    }
}

#[test]
fn class_w_scaling_preserves_regions_and_verification_for_the_promoted_apps() {
    let quick = all_apps_sized(AppSize::Quick);
    let class_w = all_apps_sized(AppSize::ClassW);
    assert_eq!(quick.len(), class_w.len());
    for (q, w) in quick.iter().zip(&class_w) {
        assert_eq!(q.name, w.name);
        // Scaling changes inputs only: same region names, same region count,
        // same main loop.
        assert_eq!(q.regions, w.regions, "{}: region set changed", q.name);
        assert_eq!(q.main_loop, w.main_loop);
        if PROMOTED.contains(&q.name) {
            let result = w.run_clean();
            assert!(
                w.verify(&result),
                "{}: Class-W run fails verification",
                w.name
            );
            assert!(
                result.steps > q.run_clean().steps,
                "{}: Class-W must be strictly larger",
                w.name
            );
            // The scaled build still resolves every declared region.
            let session = Session::new(w.clone());
            assert_eq!(session.region_views().len(), w.regions.len());
        }
    }
}

#[test]
fn analyzed_campaign_reports_are_byte_identical_across_repeated_runs() {
    // Seed determinism of the *analyzed* campaign path, for one promoted
    // and one original app: the same plan (app, seed, shard split) must
    // produce byte-identical AnalyzedCampaignReport JSON on every
    // execution.  (The plain CampaignReport half of this property is
    // covered by the proptest in tests/property_based.rs over random
    // seeds and shard splits.)
    for (name, seed) in [("LU", 0xDEAD_BEEFu64), ("IS", 42u64)] {
        let session = Session::by_name(name).expect("known app");
        let region = session.app().regions[0].clone();
        let plan = session
            .plan(
                CampaignTarget::Region { name: region },
                TargetClass::Internal,
                10,
            )
            .unwrap()
            .with_seed(seed);

        let analyzed: Vec<String> = (0..2)
            .map(|_| {
                Session::by_name(name)
                    .unwrap()
                    .run_plan_analyzed(&plan)
                    .expect("analyzed plan executes")
                    .to_json()
            })
            .collect();
        assert_eq!(
            analyzed[0], analyzed[1],
            "{name}: AnalyzedCampaignReport JSON differs"
        );

        // And a two-way shard split of the analyzed campaign merges to the
        // same bytes as the monolithic analyzed run.
        let merged = plan
            .shards(2)
            .iter()
            .map(|shard| {
                Session::by_name(name)
                    .unwrap()
                    .run_plan_analyzed(shard)
                    .expect("shard executes")
            })
            .reduce(|a, b| a.merge(&b))
            .expect("two shards");
        assert_eq!(
            merged.to_json(),
            analyzed[0],
            "{name}: merged analyzed shards differ from the monolithic run"
        );
    }
}

#[test]
fn spmd_campaign_reports_are_byte_identical_across_runs_and_shard_splits() {
    // Multi-rank determinism for both SPMD-decomposed registry apps: a
    // seeded 4-rank campaign produces byte-identical per-rank tallies on
    // every execution, and any uneven shard split — each shard executed by
    // a fresh session through the JSON wire format — merges to the exact
    // bytes of the monolithic run.  Both fault populations are held to the
    // bar: computation sites (rank-swept) and message payloads.
    for (name, seed) in [("MG", 0x5D_EEDu64), ("CG", 0xC0_FFEEu64)] {
        let session = Session::by_name(name).expect("decomposed app");
        let region = session.app().regions[0].clone();
        let plans = [
            session
                .plan_spmd(
                    CampaignTarget::Region { name: region },
                    TargetClass::Internal,
                    10,
                    4,
                    RankTarget::Sweep,
                )
                .expect("computation plan"),
            session
                .plan_spmd(
                    CampaignTarget::Messages,
                    TargetClass::Internal,
                    10,
                    4,
                    RankTarget::Sweep,
                )
                .expect("message plan"),
        ];
        for plan in plans {
            let plan = plan.with_seed(seed);
            let label = format!("{name}/{}", plan.target.label());
            let reference = session.run_plan_spmd(&plan).expect("monolithic run");
            assert_eq!(reference.report.n_tests, 10, "{label}: test count");
            assert_eq!(reference.per_rank.len(), 4, "{label}: rank tallies");

            let again = session.run_plan_spmd(&plan).expect("repeated run");
            assert_eq!(
                again.to_json(),
                reference.to_json(),
                "{label}: repeated run differs"
            );

            // Three uneven shards (10 = 4 + 3 + 3), fresh session each.
            let merged = plan
                .shards(3)
                .iter()
                .map(|shard| {
                    let wire = shard.to_json();
                    execute_plan_spmd(&CampaignPlan::from_json(&wire).expect("plan parses"))
                        .expect("shard executes")
                })
                .reduce(|a, b| a.merge(&b))
                .expect("three shards");
            assert_eq!(merged, reference, "{label}: sharded tally differs");
            assert_eq!(
                merged.to_json(),
                reference.to_json(),
                "{label}: sharded report JSON differs"
            );
        }
    }
}
