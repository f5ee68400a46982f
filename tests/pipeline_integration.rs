//! Cross-crate integration tests: the full FlipTracker pipeline
//! (trace → regions → DDDG → ACL → patterns) on the benchmark kernels.

use fliptracker::prelude::*;
use ftkr_acl::AclTable;
use ftkr_dddg::Dddg;
use ftkr_trace::{instance_slice, partition_regions, RegionSelector};
use ftkr_vm::{EventKind, FaultSpec, Location, Vm, VmConfig};

#[test]
fn analysis_pipeline_completes_for_every_region_app() {
    for name in fliptracker::experiments::REGION_APPS {
        let app = app_by_name(name).unwrap();
        let analysis = Session::new(app)
            .analyze(None)
            .unwrap_or_else(|| panic!("{name} has no injectable site"));
        assert!(
            !analysis.regions.is_empty(),
            "{name}: no code regions were found"
        );
        assert!(
            analysis.acl.counts.len() as u64 >= analysis.fault.at_step,
            "{name}: ACL table shorter than the injection point"
        );
    }
}

#[test]
fn dddgs_of_region_instances_are_acyclic_and_have_inputs() {
    let app = ftkr_apps::cg();
    let clean = Vm::new(VmConfig::tracing())
        .run(&app.module)
        .unwrap()
        .trace
        .unwrap();
    let regions = partition_regions(&clean, &app.module, &RegionSelector::FirstLevelInner);
    let mut analysed = 0;
    for inst in regions.iter().filter(|r| r.main_iteration == Some(0)) {
        let dddg = Dddg::from_slice(instance_slice(&clean, inst));
        assert!(
            dddg.edges().iter().all(|e| e.from < e.to),
            "{}: cyclic DDDG",
            inst.key.name
        );
        if app.regions.contains(&inst.key.name) {
            assert!(
                !dddg.inputs().is_empty(),
                "{}: a CG compute region must read inputs",
                inst.key.name
            );
            analysed += 1;
        }
    }
    assert!(
        analysed >= 5,
        "expected all five cg regions, saw {analysed}"
    );
}

#[test]
fn is_bucket_shift_masks_low_bit_faults_end_to_end() {
    let app = ftkr_apps::is();
    let clean = Vm::new(VmConfig::tracing()).run(&app.module).unwrap();
    let trace = clean.trace.as_ref().unwrap();
    // Find a load of a key inside the is_b region and flip a low bit that the
    // bucket shift discards.
    let regions = partition_regions(trace, &app.module, &RegionSelector::named(["is_b"]));
    let inst = &regions[0];
    // The key_array is the first global of the IS module (cells 0..NUM_KEYS),
    // so a load reading one of those cells is a key load (induction-variable
    // loads read stack cells above the globals).
    let step = (inst.start..inst.end)
        .find(|&i| {
            matches!(trace.events[i].kind, EventKind::Load)
                && trace
                    .view(i)
                    .reads()
                    .any(|(l, _)| matches!(l, Location::Mem { addr } if addr < 64))
        })
        .expect("is_b loads keys");
    let fault = FaultSpec::in_result(step as u64, 1);
    let analysis = Session::new(app).analyze(Some(fault)).unwrap();
    assert_eq!(
        analysis.outcome,
        ftkr_inject::Outcome::VerificationSuccess,
        "a low-bit key corruption must still sort correctly"
    );
    assert!(
        analysis
            .patterns
            .iter()
            .any(|p| p.kind == PatternKind::Shifting),
        "expected the Shifting pattern, got {:?}",
        analysis.patterns.iter().map(|p| p.kind).collect::<Vec<_>>()
    );
}

#[test]
fn lulesh_acl_trajectory_rises_and_falls() {
    let fig = fliptracker::experiments::fig7();
    assert!(
        fig.max_count >= 2,
        "the hourglass aggregation spreads the error"
    );
    assert!(
        fig.decrease_events > 0,
        "corrupted locations must die (DCL)"
    );
}

#[test]
fn mg_error_magnitude_shrinks_across_mg3p_invocations() {
    let table = fliptracker::experiments::table2(10, 40);
    assert_eq!(table.rows.len(), 4);
    let finite: Vec<&fliptracker::experiments::Table2Row> = table
        .rows
        .iter()
        .filter(|r| r.error_magnitude.is_finite())
        .collect();
    assert!(
        finite.len() >= 2,
        "need at least two finite error magnitudes"
    );
    assert!(
        finite.last().unwrap().error_magnitude <= finite.first().unwrap().error_magnitude,
        "repeated additions must amortize the error: {table:?}"
    );
}

#[test]
fn overwritten_preinit_faults_are_tolerated_by_cg() {
    let app = ftkr_apps::cg();
    // The z vector (second global, cells 24..48) is zero-initialized by the
    // init loop before use: corrupting it beforehand must be overwritten.
    let fault = FaultSpec::in_memory(0, 30, 60);
    let analysis = Session::new(app).analyze(Some(fault)).unwrap();
    assert_eq!(analysis.outcome, ftkr_inject::Outcome::VerificationSuccess);
    assert!(analysis
        .patterns
        .iter()
        .any(|p| p.kind == PatternKind::DataOverwriting));
}

#[test]
fn acl_tables_are_internally_consistent_on_real_traces() {
    let app = ftkr_apps::kmeans();
    let clean = Vm::new(VmConfig::tracing()).run(&app.module).unwrap();
    let trace = clean.trace.as_ref().unwrap();
    let fault = FaultSpec::in_memory(0, 3, 45);
    let config = VmConfig {
        fault: Some(fault),
        ..VmConfig::tracing()
    };
    let faulty_run = Vm::new(config).run(&app.module).unwrap();
    let faulty = faulty_run.trace.unwrap();
    let acl = AclTable::from_fault(&faulty, &fault);
    // Counts never go negative (u32) and every death has a matching birth.
    assert!(acl.births.len() >= acl.deaths.len() || !acl.final_corrupted.is_empty());
    assert_eq!(acl.counts.len(), faulty.len());
    assert_eq!(acl.tainted_reads.len(), faulty.len());
    // The seeded location is among the births.
    assert!(acl.births.iter().any(|(_, loc)| *loc == Location::mem(3)));
    let _ = trace;
}
