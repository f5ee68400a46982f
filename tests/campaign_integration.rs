//! Integration tests for the statistically sized fault-injection campaigns
//! and the experiment drivers (quick-effort versions of the paper's
//! evaluation harness).

use fliptracker::prelude::*;
use ftkr_inject::TargetClass;

fn tiny_effort() -> Effort {
    let mut e = Effort::quick();
    e.tests_per_point = 16;
    e.analysis_injections = 2;
    e.timing_runs = 1;
    e.ranks = 2;
    e
}

#[test]
fn whole_program_success_rates_are_probabilities_and_apps_differ() {
    let effort = tiny_effort();
    let dc = Session::new(app_by_name("DC").unwrap()).whole_program_success_rate(&effort);
    let mg = Session::new(app_by_name("MG").unwrap()).whole_program_success_rate(&effort);
    assert!((0.0..=1.0).contains(&dc));
    assert!((0.0..=1.0).contains(&mg));
}

#[test]
fn table1_reports_every_region_of_all_ten_apps() {
    let table = fliptracker::experiments::table1(&tiny_effort());
    assert_eq!(table.programs.len(), 10);
    let names: Vec<&str> = table.programs.iter().map(|p| p.program.as_str()).collect();
    assert_eq!(
        names,
        vec!["CG", "MG", "LU", "BT", "IS", "DC", "SP", "FT", "KMEANS", "LULESH"]
    );
    // Table-IV order; region counts: CG 5, MG 4, LU 4, BT 4, IS 3, DC 4,
    // SP 4, FT 3, KMEANS 4, LULESH 1.
    let total_rows: usize = table.programs.iter().map(|p| p.rows.len()).sum();
    assert_eq!(total_rows, 5 + 4 + 4 + 4 + 3 + 4 + 4 + 3 + 4 + 1);
    // Every promoted app contributes at least three named regions.
    for promoted in ["LU", "BT", "SP", "DC", "FT"] {
        let p = table
            .programs
            .iter()
            .find(|p| p.program == promoted)
            .unwrap();
        assert!(p.rows.len() >= 3, "{promoted} has {} rows", p.rows.len());
    }
    // Every row has a line range and a dynamic instruction count.
    for p in &table.programs {
        for r in &p.rows {
            assert!(
                r.instructions > 0,
                "{}/{} has no instructions",
                p.program,
                r.region
            );
        }
    }
    assert!(table.to_text().contains("LULESH"));
}

#[test]
fn fig6_produces_per_iteration_series_with_internal_and_input_bars() {
    let series = fliptracker::experiments::fig6(&tiny_effort(), 3);
    assert!(!series.points.is_empty());
    // CG runs at least 3 iterations; both target classes must be present.
    assert!(series.rate("CG", "iter1", TargetClass::Internal).is_some());
    assert!(series.rate("CG", "iter1", TargetClass::Input).is_some());
    for p in &series.points {
        assert!((0.0..=1.0).contains(&p.success_rate));
        assert!((0.0..=1.0).contains(&p.crash_rate));
    }
}

#[test]
fn fig4_measures_tracing_overhead_for_all_ten_programs() {
    let fig = fliptracker::experiments::fig4(&tiny_effort());
    assert_eq!(fig.rows.len(), 10);
    for row in &fig.rows {
        assert!(row.seconds_plain > 0.0);
        assert!(row.seconds_traced > 0.0);
        assert_eq!(row.ranks, 2);
    }
    assert!(fig.to_text().contains("mean overhead"));
}

#[test]
fn campaign_plan_json_round_trip_reexecutes_identically_in_fresh_sessions() {
    let session = Session::by_name("IS").expect("IS exists");
    let plan = session
        .plan(
            CampaignTarget::Region {
                name: "is_b".to_string(),
            },
            TargetClass::Internal,
            24,
        )
        .expect("is_b resolves")
        .with_seed(3);
    let reference = session.run_plan(&plan).expect("in-process run");

    // The distribution story: each shard travels as JSON and is executed by
    // a fresh session (execute_plan resolves the app registry, so
    // verification needs no closure), then the reports merge back.
    let merged = plan
        .shards(2)
        .iter()
        .map(|shard| {
            let wire = shard.to_json();
            execute_plan(&CampaignPlan::from_json(&wire).expect("plan parses"))
                .expect("shard executes")
        })
        .reduce(|a, b| a.merge(&b))
        .expect("two shards");
    assert_eq!(merged, reference);
    assert_eq!(merged.counts.total(), 24);
}

#[test]
fn whole_program_plans_execute_from_json_without_a_window() {
    let plan = CampaignPlan::new(
        "SP",
        CampaignTarget::WholeProgram,
        TargetClass::Internal,
        16,
    )
    .with_seed(11);
    let report = execute_plan(&CampaignPlan::from_json(&plan.to_json()).unwrap())
        .expect("SP whole-program plan executes");
    assert_eq!(report.counts.total(), 16);
    assert!(report.population > 0);
}

#[test]
fn table4_prediction_pipeline_produces_ten_rows_and_a_fit() {
    let table = use_cases::table4(&tiny_effort());
    assert_eq!(table.rows.len(), 10);
    for row in &table.rows {
        assert!((0.0..=1.0).contains(&row.measured), "{row:?}");
        assert!((0.0..=1.0).contains(&row.predicted), "{row:?}");
        assert!(row.rates.iter().all(|r| *r >= 0.0));
    }
    assert!(table.r_squared <= 1.0);
    assert!(table.to_text().contains("R-square"));
}
