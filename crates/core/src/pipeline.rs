//! Single-injection analysis: the core FlipTracker workflow of Figure 1,
//! built around one fused walk per injection.
//!
//! [`InjectionAnalysisBuilder`] (from [`Session::injection`]) is the one
//! entry point every driver goes through — `Session`'s table/figure drivers,
//! `experiments.rs`, and the campaign executors alike.  It composes what the
//! caller needs and picks the cheapest execution mode that provides it:
//!
//! * **patterns only** (the default) — the faulty run is *streamed*: outcome
//!   classification and all six pattern detectors ride the interpreter via
//!   [`ftkr_patterns::StreamingDetector`], and no faulty trace is ever
//!   materialized (O(locations) memory instead of O(events));
//! * **`with_acl`** — the faulty trace is materialized once and a single
//!   [`ftkr_vm::EventCursor`] walk produces the full [`AclTable`] *and* the
//!   pattern instances, fused ([`ftkr_patterns::analyze_fused`]);
//! * **`with_region_cases`** — additionally extracts the per-region DDDG
//!   deltas; all matched region DDDGs are built in one further shared walk
//!   ([`ftkr_dddg::DddgExtractor`]) instead of one pass per region.
//!
//! Either way the per-injection analysis consumes the faulty events once.
//! (The legacy `detect_all` seven-pass pipeline is gone; golden-snapshot and
//! cross-driver property tests hold the fused walks to its exact output.)

use ftkr_acl::AclTable;
use ftkr_dddg::{compare_io, DddgExtractor, ToleranceCase};
use ftkr_inject::Outcome;
use ftkr_patterns::{PatternInstance, StreamingDetector};
use ftkr_trace::{partition_regions, RegionInstance, RegionSelector};
use ftkr_vm::{EventCursor, FaultSpec, Vm, VmConfig};

use crate::session::Session;

/// Everything FlipTracker learns from one injected fault (the full-depth
/// result; [`Session::analyze`] returns it).
#[derive(Debug, Clone)]
pub struct InjectionAnalysis {
    /// The fault that was injected.
    pub fault: FaultSpec,
    /// Outcome of the faulty run (success / failed / crashed).
    pub outcome: Outcome,
    /// ACL table of the faulty run.
    pub acl: AclTable,
    /// Pattern instances detected in the faulty run.
    pub patterns: Vec<PatternInstance>,
    /// Region instances of the fault-free run (the code-region model).
    pub regions: Vec<RegionInstance>,
    /// Per-region tolerance classification from the DDDG comparison
    /// (only regions the error actually reached are interesting).
    pub region_cases: Vec<(String, ToleranceCase)>,
    /// Dynamic length of the fault-free trace.
    pub clean_steps: u64,
}

impl InjectionAnalysis {
    /// Names of the regions in which the error was masked or attenuated.
    pub fn tolerant_regions(&self) -> Vec<String> {
        self.region_cases
            .iter()
            .filter(|(_, case)| case.is_tolerant())
            .map(|(name, _)| name.clone())
            .collect()
    }
}

/// What one injection produced, at whatever depth the builder requested.
#[derive(Debug, Clone)]
pub struct InjectionReport {
    /// The fault that was injected.
    pub fault: FaultSpec,
    /// Outcome of the faulty run.
    pub outcome: Outcome,
    /// Pattern instances detected in the faulty run.
    pub patterns: Vec<PatternInstance>,
    /// The full ACL table — `Some` whenever the analysis materialized the
    /// faulty trace ([`InjectionAnalysisBuilder::with_acl`] or
    /// [`InjectionAnalysisBuilder::with_region_cases`]; the fused walk
    /// produces it either way), `None` on the streaming path.
    pub acl: Option<AclTable>,
    /// Per-region DDDG tolerance cases — non-empty only when requested with
    /// [`InjectionAnalysisBuilder::with_region_cases`] (and the error reached
    /// some region).
    pub region_cases: Vec<(String, ToleranceCase)>,
    /// Dynamic step count of the faulty run.
    pub faulty_steps: u64,
    /// True when the analysis materialized a faulty trace; false on the
    /// streaming path.
    pub materialized: bool,
}

/// Composable per-injection analysis: pick the outputs, get the cheapest
/// single-walk execution that provides them.  Create with
/// [`Session::injection`].
pub struct InjectionAnalysisBuilder<'s> {
    session: &'s Session,
    fault: FaultSpec,
    acl: bool,
    region_cases: bool,
}

impl<'s> InjectionAnalysisBuilder<'s> {
    pub(crate) fn new(session: &'s Session, fault: FaultSpec) -> Self {
        InjectionAnalysisBuilder {
            session,
            fault,
            acl: false,
            region_cases: false,
        }
    }

    /// Also build the full [`AclTable`] (forces trace materialization; the
    /// table and the patterns still come from one fused walk).
    pub fn with_acl(mut self) -> Self {
        self.acl = true;
        self
    }

    /// Also classify per-region DDDG tolerance cases (forces trace
    /// materialization; all matched region DDDGs are extracted in one shared
    /// walk).
    pub fn with_region_cases(mut self) -> Self {
        self.region_cases = true;
        self
    }

    /// Run the analysis.
    pub fn run(self) -> InjectionReport {
        let session = self.session;
        let fault = self.fault;
        let clean = session.clean_trace();

        if !self.acl && !self.region_cases {
            // Streaming mode: outcome + patterns with no materialized faulty
            // trace.
            let config = VmConfig {
                fault: Some(fault),
                max_steps: session.max_steps(),
                ..VmConfig::default()
            };
            let mut detector = StreamingDetector::new(clean, fault);
            let result = Vm::new(config)
                .run_with_visitors_decoded(
                    &session.app().module,
                    session.decoded_module(),
                    &mut [&mut detector],
                )
                .expect("benchmark module must verify");
            let outcome = session.classify(&result);
            return InjectionReport {
                fault,
                outcome,
                patterns: detector.into_patterns(),
                acl: None,
                region_cases: Vec::new(),
                faulty_steps: result.steps,
                materialized: false,
            };
        }

        // Materialized mode: one traced faulty run, one fused walk for
        // ACL + patterns, and (optionally) one more shared walk for every
        // matched region DDDG.
        let faulty_run = session.traced_faulty_run(fault);
        let outcome = session.classify(&faulty_run);
        let faulty = faulty_run.trace.expect("tracing was enabled");
        let fused = ftkr_patterns::analyze_fused(&faulty, clean, &fault);

        let mut region_cases = Vec::new();
        if self.region_cases {
            let regions = session.regions();
            let faulty_regions = partition_regions(
                &faulty,
                &session.app().module,
                &RegionSelector::FirstLevelInner,
            );
            // Match clean/faulty instances until region-level control flow
            // diverges; only instances overlapping the fault's dynamic
            // lifetime are analysed.
            let mut matched: Vec<&RegionInstance> = Vec::new();
            for (clean_inst, faulty_inst) in regions.iter().zip(&faulty_regions) {
                if clean_inst.key != faulty_inst.key {
                    break;
                }
                matched.push(faulty_inst);
            }
            let analysed: Vec<(usize, &RegionInstance)> = matched
                .iter()
                .enumerate()
                .filter(|(_, f)| f.end > fault.at_step as usize)
                .map(|(i, f)| (i, *f))
                .collect();

            // All faulty-region DDDGs from ONE walk over the faulty trace.
            let mut extractors: Vec<DddgExtractor> = analysed
                .iter()
                .map(|(_, f)| DddgExtractor::new(f.start, f.end))
                .collect();
            {
                let mut refs: Vec<&mut DddgExtractor> = extractors.iter_mut().collect();
                EventCursor::new(&faulty).run(&mut refs[..]);
            }

            for ((clean_pos, faulty_inst), extractor) in analysed.into_iter().zip(extractors) {
                let clean_inst = &regions[clean_pos];
                let clean_dddg = session.dddg(clean_inst);
                let faulty_dddg = extractor.into_dddg();
                let cmp = compare_io(
                    &clean_dddg,
                    &faulty_dddg,
                    clean.slice(clean_inst.end.min(clean.len()), clean.len()),
                    faulty.slice(faulty_inst.end.min(faulty.len()), faulty.len()),
                );
                if cmp.case != ToleranceCase::NotAffected {
                    region_cases.push((clean_inst.key.name.clone(), cmp.case));
                }
            }
        }

        InjectionReport {
            fault,
            outcome,
            patterns: fused.patterns,
            acl: Some(fused.acl),
            region_cases,
            faulty_steps: faulty_run.steps,
            materialized: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_injection_analysis_runs_end_to_end_on_mg() {
        let analysis = Session::new(ftkr_apps::mg())
            .analyze(None)
            .expect("MG has injectable sites");
        assert!(!analysis.regions.is_empty());
        assert!(analysis.acl.counts.len() as u64 > 0);
        // The injected error must have produced at least one corrupted
        // location at some point.
        assert!(analysis.acl.max_count() >= 1);
        assert!(analysis.clean_steps > 1000);
    }

    #[test]
    fn memory_fault_into_kmeans_feature_array_is_tolerated_by_the_conditional() {
        // Corrupt a low-order mantissa bit of the first feature before
        // execution starts (the features global is laid out first).
        let fault = FaultSpec::in_memory(0, 0, 2);
        let analysis = Session::new(ftkr_apps::kmeans())
            .analyze(Some(fault))
            .unwrap();
        assert_eq!(analysis.outcome, Outcome::VerificationSuccess);
        assert!(
            analysis
                .patterns
                .iter()
                .any(|p| p.kind == ftkr_patterns::PatternKind::ConditionalStatement),
            "expected the Figure-10 conditional to mask the error, got {:?}",
            analysis.patterns.iter().map(|p| p.kind).collect::<Vec<_>>()
        );
    }

    #[test]
    fn streaming_and_materialized_builder_modes_agree() {
        let session = Session::by_name("IS").expect("IS exists");
        let clean = session.clean_trace();
        let step = (clean.len() / 3) as u64;
        let fault = FaultSpec::in_result(step, 33);

        let light = session.injection(fault).run();
        assert!(!light.materialized);
        assert!(light.acl.is_none());

        let deep = session
            .injection(fault)
            .with_acl()
            .with_region_cases()
            .run();
        assert!(deep.materialized);
        let acl = deep.acl.as_ref().expect("acl requested");

        // The streaming path found exactly the instances the fused
        // materialized walk found, and both classified the run identically.
        assert_eq!(light.patterns, deep.patterns);
        assert_eq!(light.outcome, deep.outcome);
        assert_eq!(light.faulty_steps, deep.faulty_steps);

        // And the fused ACL equals the standalone dense construction.
        let faulty = session.traced_faulty_run(fault).trace.unwrap();
        let reference = AclTable::from_fault(&faulty, &fault);
        assert_eq!(acl.counts, reference.counts);
        assert_eq!(acl.tainted_reads, reference.tainted_reads);
    }
}
