//! Registry-wide streaming equivalence: for every application, the
//! `StreamingDetector` streamed from a live run — cold from program entry,
//! and forked from a fault-free checkpoint — finds exactly the patterns
//! `analyze_fused` finds over the materialized faulty trace, and the
//! streamed run's `RunResult` equals the untraced run's.
//!
//! The faults are the figure-6 population (campaign-sampled result faults
//! in each main-loop iteration) plus memory-cell faults on each iteration's
//! inputs.  A detector that settles detaches from the run, which then
//! finishes without recording; the suite asserts that this happened, so the
//! detached path is held to the same bar.
//!
//! The detector also publishes a watch, and a run streaming to it alone
//! skips the events it does not want.  Each streamed run is therefore
//! repeated with every event delivered (the detector behind a wrapper with
//! no watch), and the two must agree on patterns, per-kind counts,
//! `RunResult` and `events_seen`; the suite asserts that the watch would
//! have skipped events, so the gated path is held to the same bar.

use fliptracker::prelude::*;
use ftkr_patterns::{analyze_fused, PatternInstance, PatternKind, StreamingDetector};
use ftkr_vm::{EventCtx, FaultSpec, RunResult, TraceVisitor, Vm, VmConfig, WalkEnd};

/// Seed for the sampled faults, distinct from the figure drivers' seeds.
const SEED: u64 = 0x57AE_A11E;
/// Result faults sampled per main-loop iteration.
const RESULT_FAULTS: u64 = 3;
/// Memory-cell faults per main-loop iteration (from its input sites).
const MEMORY_FAULTS: usize = 2;

/// True when the detector stopped observing before the run's last event
/// (every step of a full-scope run is one event).
fn detached(detector: &StreamingDetector<'_>, result: &RunResult) -> bool {
    (detector.events_seen() as u64) < result.steps
}

/// A detector delivered every event: it forwards every callback but
/// publishes no watch, so the run skips nothing.  It counts the delivered
/// events the detector's watch does not want.
struct FullDelivery<'c> {
    detector: StreamingDetector<'c>,
    unwanted: usize,
}

impl<'c> FullDelivery<'c> {
    fn new(detector: StreamingDetector<'c>) -> Self {
        FullDelivery {
            detector,
            unwanted: 0,
        }
    }
}

impl TraceVisitor for FullDelivery<'_> {
    fn on_event(&mut self, ctx: &EventCtx<'_>) {
        let watch = self.detector.watch().expect("the detector watches");
        let wanted = watch.wants(
            ctx.index,
            ctx.reads,
            ctx.event.written_id(),
            ctx.locations.len(),
        );
        self.unwanted += usize::from(!wanted);
        self.detector.on_event(ctx);
    }

    fn on_finish(&mut self, end: &WalkEnd<'_>) {
        self.detector.on_finish(end);
    }

    fn settled(&self) -> bool {
        self.detector.settled()
    }
}

/// Hold a gated streamed run to its full-delivery twin: same `RunResult`,
/// `events_seen`, per-kind counts and patterns, and counts equal to the
/// kinds of the patterns.  Returns the gated run's patterns.
fn gated_equals_full_delivery(
    what: &str,
    gated: StreamingDetector<'_>,
    gated_result: &RunResult,
    full: StreamingDetector<'_>,
    full_result: &RunResult,
) -> Vec<PatternInstance> {
    assert!(gated_result == full_result, "{what}: gated result");
    assert_eq!(
        gated.events_seen(),
        full.events_seen(),
        "{what}: events_seen"
    );
    let counts = gated.kind_counts();
    assert_eq!(counts, full.kind_counts(), "{what}: kind counts");
    let patterns = gated.into_patterns();
    let kinds = PatternKind::ALL.map(|k| (k, patterns.iter().filter(|p| p.kind == k).count()));
    assert_eq!(counts, kinds, "{what}: counts are the patterns' kinds");
    assert_eq!(patterns, full.into_patterns(), "{what}: gated patterns");
    patterns
}

#[test]
fn streamed_patterns_and_results_match_the_materialized_reference_for_every_app() {
    // Runs whose detector settled before the end, per path.
    let (mut cold_detached, mut forked_detached) = (0, 0);
    // Delivered events the watch does not want, per path.
    let (mut cold_unwanted, mut forked_unwanted) = (0, 0);
    let mut faults_checked = 0;
    for app in all_apps() {
        let name = app.name;
        let session = Session::new(app);
        let module = &session.app().module;
        let decoded = session.decoded_module();
        let clean = session.clean_trace();
        let campaign = session.campaign(SEED);
        for index in 0..session.iterations().len() {
            let target = CampaignTarget::Iteration { index };
            let internal = session.sites(&target, TargetClass::Internal).unwrap();
            let inputs = session.sites(&target, TargetClass::Input).unwrap();
            let mut faults: Vec<FaultSpec> = Vec::new();
            if !internal.is_empty() {
                faults.extend((0..RESULT_FAULTS).map(|i| campaign.fault_for_index(&internal, i)));
            }
            let memory_sites = inputs.iter().filter(|s| s.mem_addr.is_some());
            faults.extend(
                memory_sites
                    .take(MEMORY_FAULTS)
                    .zip([52u8, 17])
                    .map(|(s, bit)| s.with_bit(bit)),
            );
            let Some(fork) = faults.iter().map(|f| f.at_step).min() else {
                continue;
            };
            let snapshot = session.checkpoint_at(fork);
            let primed = snapshot.as_ref().map(|snap| {
                StreamingDetector::primed(
                    clean,
                    snap.events_emitted() as usize,
                    snap.num_locations(),
                )
            });

            for fault in faults {
                let vm = Vm::new(VmConfig {
                    fault: Some(fault),
                    max_steps: session.max_steps(),
                    ..VmConfig::default()
                });
                let faulty = session.traced_faulty_run(fault);
                let trace = faulty.trace.as_ref().expect("traced run");
                let reference = analyze_fused(trace, clean, &fault).patterns;

                let untraced = vm.run_decoded(module, decoded).unwrap();
                let mut cold = StreamingDetector::new(clean, fault);
                let cold_result = vm
                    .run_with_visitors_decoded(module, decoded, &mut [&mut cold])
                    .unwrap();
                assert!(
                    cold_result == untraced,
                    "{name} iter {index} {fault:?}: cold result"
                );
                cold_detached += usize::from(detached(&cold, &cold_result));
                let mut full = FullDelivery::new(StreamingDetector::new(clean, fault));
                let full_result = vm
                    .run_with_visitors_decoded(module, decoded, &mut [&mut full])
                    .unwrap();
                cold_unwanted += full.unwanted;
                let what = format!("{name} iter {index} {fault:?}: cold");
                let patterns = gated_equals_full_delivery(
                    &what,
                    cold,
                    &cold_result,
                    full.detector,
                    &full_result,
                );
                assert_eq!(patterns, reference, "{what}");

                if let (Some(snap), Some(primed)) = (&snapshot, &primed) {
                    let resumed = vm.resume_from_decoded(module, decoded, snap).unwrap();
                    assert!(resumed == untraced, "{name} iter {index} {fault:?}: resume");
                    let mut forked = primed.fork(fault);
                    let forked_result = vm
                        .resume_with_visitors_decoded(module, decoded, snap, &mut [&mut forked])
                        .unwrap();
                    assert!(
                        forked_result == untraced,
                        "{name} iter {index} {fault:?}: forked result"
                    );
                    forked_detached += usize::from(detached(&forked, &forked_result));
                    let mut full = FullDelivery::new(primed.fork(fault));
                    let full_result = vm
                        .resume_with_visitors_decoded(module, decoded, snap, &mut [&mut full])
                        .unwrap();
                    forked_unwanted += full.unwanted;
                    let what = format!("{name} iter {index} {fault:?}: forked");
                    let patterns = gated_equals_full_delivery(
                        &what,
                        forked,
                        &forked_result,
                        full.detector,
                        &full_result,
                    );
                    assert_eq!(patterns, reference, "{what}");
                }
                faults_checked += 1;
            }
        }
    }
    assert!(
        faults_checked >= 100,
        "only {faults_checked} faults checked"
    );
    assert!(cold_detached > 0, "no cold streamed run detached");
    assert!(forked_detached > 0, "no forked streamed run detached");
    assert!(cold_unwanted > 0, "no cold streamed run skipped an event");
    assert!(
        forked_unwanted > 0,
        "no forked streamed run skipped an event"
    );
}
