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

use fliptracker::prelude::*;
use ftkr_patterns::{analyze_fused, StreamingDetector};
use ftkr_vm::{FaultSpec, RunResult, Vm, VmConfig};

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

#[test]
fn streamed_patterns_and_results_match_the_materialized_reference_for_every_app() {
    // Runs whose detector settled before the end, per path.
    let (mut cold_detached, mut forked_detached) = (0, 0);
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
                assert_eq!(
                    cold.into_patterns(),
                    reference,
                    "{name} iter {index} {fault:?}: cold"
                );

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
                    assert_eq!(
                        forked.into_patterns(),
                        reference,
                        "{name} iter {index} {fault:?}: forked"
                    );
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
}
