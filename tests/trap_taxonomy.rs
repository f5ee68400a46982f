//! Integration suite for the failure taxonomy: abnormal campaign ends carry
//! their crash kind, hangs land in the hang bucket (not generic crash), the
//! per-kind tallies merge bit-identically across shards, and their sum is
//! the paper's legacy three-way crashed count.

use fliptracker::Session;
use ftkr_inject::{hang_budget, CampaignCounts, CrashKind, IndexRange, Outcome, TargetClass};
use ftkr_ir::BinKind;
use ftkr_vm::{EventKind, FaultSpec, RunOutcome, TrapKind, Value, Vm, VmConfig};

/// Steps of integer `add` results around the first main-loop iteration
/// boundary — the induction-variable bump lives here (`for_loop` lowers the
/// `iv` advance to an integer add stored back to the loop slot right before
/// the next header re-loads it).  Adds *inside* the body are usually array
/// index math whose sign flip traps out of bounds instead of hanging, so the
/// boundary cluster is where loop-bound flips turn into genuine hangs.
fn loop_counter_candidates(session: &Session) -> Vec<u64> {
    let trace = session.clean_trace();
    let iter0 = &session.iterations()[0];
    let window = iter0.end.saturating_sub(80)..(iter0.end + 40).min(trace.events.len());
    window
        .filter(|&i| {
            let e = &trace.events[i];
            matches!(e.kind, EventKind::Bin(BinKind::Add))
                && matches!(e.written_value(), Some(Value::I(_)))
        })
        .map(|i| i as u64)
        .collect()
}

/// Flipping the sign bit of a loop-bound (induction-variable) add makes the
/// counter hugely negative: the header comparison stays true for ~2^63
/// iterations and the run exhausts its step budget — `TrapKind::StepLimit`,
/// which the taxonomy must classify as a *hang*, not a generic crash.
fn assert_hang_classification(app: &str) {
    let session = Session::by_name(app).unwrap_or_else(|| panic!("{app} exists"));
    let candidates = loop_counter_candidates(&session);
    assert!(
        !candidates.is_empty(),
        "{app}: no integer add in the first main-loop iteration"
    );

    let budget = hang_budget(session.clean_steps());
    let mut hangs = 0u64;
    for &step in candidates.iter().take(24) {
        let fault = FaultSpec::in_result(step, 63);
        let result = Vm::new(VmConfig {
            fault: Some(fault),
            max_steps: budget,
            ..VmConfig::default()
        })
        .run(&session.app().module)
        .expect("module verifies");
        if result.outcome == RunOutcome::Trapped(TrapKind::StepLimit) {
            hangs += 1;
            // The taxonomy must put this exact run in the hang bucket.
            assert_eq!(
                Outcome::crashed(TrapKind::StepLimit),
                Outcome::Crashed(CrashKind::Hang)
            );
            assert_eq!(session.classify(&result), Outcome::Crashed(CrashKind::Hang));
        }
    }
    assert!(
        hangs > 0,
        "{app}: no loop-bound flip hung within {budget} steps \
         ({} candidates tried)",
        candidates.len().min(24)
    );
}

#[test]
fn loop_bound_flips_hang_on_cg() {
    assert_hang_classification("CG");
}

#[test]
fn loop_bound_flips_hang_on_lu() {
    assert_hang_classification("LU");
}

#[test]
fn loop_bound_flips_hang_on_mg() {
    assert_hang_classification("MG");
}

#[test]
fn every_trap_kind_folds_into_exactly_one_crash_bucket() {
    let traps = [
        (TrapKind::StepLimit, CrashKind::Hang),
        (TrapKind::OutOfBounds, CrashKind::MemoryTrap),
        (TrapKind::CallDepth, CrashKind::MemoryTrap),
        (TrapKind::DivisionByZero, CrashKind::ArithmeticTrap),
        (TrapKind::OutOfMemory, CrashKind::OutOfMemory),
        (TrapKind::TypeMismatch, CrashKind::Other),
        (TrapKind::UninitializedRegister, CrashKind::Other),
    ];
    let mut counts = CampaignCounts::default();
    for (trap, kind) in traps {
        assert_eq!(Outcome::crashed(trap), Outcome::Crashed(kind));
        counts.record(Outcome::crashed(trap));
    }
    // Seven trapped runs, distributed over the kinds, summing to the legacy
    // crashed bucket.
    assert_eq!(counts.crashed(), 7);
    assert_eq!(counts.crashes.count(CrashKind::Hang), 1);
    assert_eq!(counts.crashes.count(CrashKind::MemoryTrap), 2);
    assert_eq!(counts.crashes.count(CrashKind::ArithmeticTrap), 1);
    assert_eq!(counts.crashes.count(CrashKind::OutOfMemory), 1);
    assert_eq!(counts.crashes.count(CrashKind::Other), 2);
    assert_eq!(
        CrashKind::ALL
            .iter()
            .map(|&k| counts.crashes.count(k))
            .sum::<u64>(),
        counts.crashed()
    );
}

#[test]
fn per_kind_tallies_merge_bit_identically_across_shards() {
    // A campaign whose population includes crash-prone faults (pointer and
    // loop-counter flips), sharded three ways: the per-kind crash tallies of
    // the merged shards must be bit-identical to the monolithic run, and
    // their sum must stay the legacy crashed count.
    let session = Session::by_name("MG").expect("MG exists");
    let target = ftkr_inject::CampaignTarget::Region {
        name: session.app().regions[0].clone(),
    };
    let plan = session
        .plan(target, TargetClass::Internal, 90)
        .expect("resolves")
        .with_seed(0xD15EA5E);
    let monolithic = session.run_plan_cold(&plan).expect("runs");
    let merged = [
        IndexRange::new(0, 13),
        IndexRange::new(13, 55),
        IndexRange::new(55, 90),
    ]
    .into_iter()
    .map(|shard| {
        let shard = ftkr_inject::CampaignPlan {
            shard,
            ..plan.clone()
        };
        session.run_plan_cold(&shard).expect("runs")
    })
    .reduce(|a, b| a.merge(&b))
    .expect("three shards");
    assert_eq!(merged, monolithic);
    assert_eq!(
        CrashKind::ALL
            .iter()
            .map(|&k| merged.counts.crashes.count(k))
            .sum::<u64>(),
        merged.counts.crashed()
    );
    // The three-way rates of the paper stay derivable from the widened
    // counts: success + failed + crashed partitions the (untainted) total.
    assert_eq!(merged.counts.harness_errors, 0);
    assert_eq!(
        merged.counts.success + merged.counts.failed + merged.counts.crashed(),
        merged.counts.total()
    );
    // And the JSON round trip preserves every per-kind tally.
    let back = ftkr_inject::CampaignReport::from_json(&merged.to_json()).expect("parses");
    assert_eq!(back, merged);
}
