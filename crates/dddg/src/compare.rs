//! Comparing the DDDGs of matched faulty and fault-free region instances.
//!
//! Section III-D of the paper identifies fault tolerance by comparing the
//! values of input and output locations between a faulty run and a matching
//! fault-free run:
//!
//! * **Case 1** — at least one corrupted input location, but every output
//!   location is correct: the region masked the error.
//! * **Case 2** — corrupted inputs and outputs exist, but the error magnitude
//!   (Eq. 2) shrinks across the region: the region attenuated the error.

use std::collections::HashMap;

use ftkr_vm::{Location, Value};

use crate::graph::Dddg;

/// Outcome of the comparison of one region instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToleranceCase {
    /// The inputs were already clean; the region never saw the error.
    NotAffected,
    /// Case 1: corrupted inputs, clean outputs — the region masked the error.
    Masked,
    /// Case 2: the error survived but its magnitude decreased.
    Attenuated,
    /// The error survived and did not decrease.
    Propagated,
}

impl ToleranceCase {
    /// True for the two cases the paper counts as natural fault tolerance.
    pub fn is_tolerant(&self) -> bool {
        matches!(self, ToleranceCase::Masked | ToleranceCase::Attenuated)
    }
}

/// Detailed result of an input/output comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct IoComparison {
    /// Input locations whose values differ, with (clean, faulty) values.
    pub corrupted_inputs: Vec<(Location, Value, Value)>,
    /// Output locations whose values differ, with (clean, faulty) values.
    pub corrupted_outputs: Vec<(Location, Value, Value)>,
    /// Largest relative error among corrupted inputs.
    pub max_input_error: f64,
    /// Largest relative error among corrupted outputs.
    pub max_output_error: f64,
    /// Classification.
    pub case: ToleranceCase,
}

fn diff(
    clean: &[(Location, Value)],
    faulty: &[(Location, Value)],
) -> (Vec<(Location, Value, Value)>, f64) {
    let clean_map: HashMap<Location, Value> = clean.iter().copied().collect();
    let faulty_map: HashMap<Location, Value> = faulty.iter().copied().collect();
    let mut corrupted = Vec::new();
    let mut max_err: f64 = 0.0;
    for (loc, cv) in &clean_map {
        if let Some(fv) = faulty_map.get(loc) {
            if !fv.bit_eq(*cv) {
                corrupted.push((*loc, *cv, *fv));
                max_err = max_err.max(fv.error_magnitude(*cv));
            }
        }
    }
    // Locations present only in the faulty run (control-flow divergence made
    // the region touch different data) also count as corrupted.
    for (loc, fv) in &faulty_map {
        if !clean_map.contains_key(loc) {
            corrupted.push((*loc, *fv, *fv));
            max_err = f64::INFINITY;
        }
    }
    corrupted.sort_by_key(|(l, _, _)| *l);
    (corrupted, max_err)
}

/// Compare the inputs and outputs of a matched pair of region-instance DDDGs.
///
/// `clean_later` / `faulty_later` are the trace slices following each
/// instance (of the same traces the DDDGs were built from) and are used to
/// decide which written locations are true outputs (live after the region).
/// Pass empty slices to fall back to leaf outputs.
pub fn compare_io(
    clean: &Dddg,
    faulty: &Dddg,
    clean_later: ftkr_vm::TraceSlice<'_>,
    faulty_later: ftkr_vm::TraceSlice<'_>,
) -> IoComparison {
    let clean_inputs = clean.inputs();
    let faulty_inputs = faulty.inputs();
    let clean_outputs = if clean_later.is_empty() {
        clean.leaf_outputs()
    } else {
        clean.outputs_live_after(clean_later)
    };
    let faulty_outputs = if faulty_later.is_empty() {
        faulty.leaf_outputs()
    } else {
        faulty.outputs_live_after(faulty_later)
    };

    let (corrupted_inputs, max_input_error) = diff(&clean_inputs, &faulty_inputs);
    let (corrupted_outputs, max_output_error) = diff(&clean_outputs, &faulty_outputs);

    let case = if corrupted_inputs.is_empty() {
        ToleranceCase::NotAffected
    } else if corrupted_outputs.is_empty() {
        ToleranceCase::Masked
    } else if max_output_error < max_input_error {
        ToleranceCase::Attenuated
    } else {
        ToleranceCase::Propagated
    };

    IoComparison {
        corrupted_inputs,
        corrupted_outputs,
        max_input_error,
        max_output_error,
        case,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::{BinKind, FunctionId, ValueId};
    use ftkr_vm::{EventKind, ResolvedEvent, Trace};

    fn ev(reads: Vec<(Location, Value)>, write: Option<(Location, Value)>) -> ResolvedEvent {
        ResolvedEvent {
            func: FunctionId(0),
            frame: 0,
            inst: ValueId(0),
            line: 1,
            kind: EventKind::Bin(BinKind::FAdd),
            reads,
            write,
        }
    }

    /// One-event region followed by a read of m[1] (so m[1] is an output).
    fn region_trace(region: ResolvedEvent) -> Trace {
        Trace::from_resolved(vec![
            region,
            ev(vec![(Location::mem(1), Value::F(0.0))], None),
        ])
    }

    /// Region computing m[1] = m[0] * 0 — any error in m[0] is masked.
    fn masking_region(input: f64) -> Trace {
        region_trace(ev(
            vec![(Location::mem(0), Value::F(input))],
            Some((Location::mem(1), Value::F(input * 0.0))),
        ))
    }

    /// Region computing m[1] = m[0] (copy) — errors pass straight through.
    fn copying_region(input: f64) -> Trace {
        region_trace(ev(
            vec![(Location::mem(0), Value::F(input))],
            Some((Location::mem(1), Value::F(input))),
        ))
    }

    /// Region computing m[1] = (m[0] + 9*2.0) / 10 — averaging shrinks errors.
    fn averaging_region(input: f64) -> Trace {
        let out = (input + 18.0) / 10.0;
        region_trace(ev(
            vec![(Location::mem(0), Value::F(input))],
            Some((Location::mem(1), Value::F(out))),
        ))
    }

    /// Compare the one-event regions of two traces, using the rest of each
    /// trace as the "later" liveness window.
    fn compare(clean: &Trace, faulty: &Trace) -> IoComparison {
        let c = Dddg::from_slice(clean.slice(0, 1));
        let f = Dddg::from_slice(faulty.slice(0, 1));
        compare_io(&c, &f, clean.slice(1, 2), faulty.slice(1, 2))
    }

    #[test]
    fn clean_inputs_mean_not_affected() {
        let cmp = compare(&copying_region(2.0), &copying_region(2.0));
        assert_eq!(cmp.case, ToleranceCase::NotAffected);
        assert!(!cmp.case.is_tolerant());
    }

    #[test]
    fn masked_error_is_case_1() {
        let cmp = compare(&masking_region(2.0), &masking_region(2.5));
        assert_eq!(cmp.case, ToleranceCase::Masked);
        assert!(cmp.case.is_tolerant());
        assert_eq!(cmp.corrupted_inputs.len(), 1);
        assert!(cmp.corrupted_outputs.is_empty());
    }

    #[test]
    fn attenuated_error_is_case_2() {
        let cmp = compare(&averaging_region(2.0), &averaging_region(4.0));
        // input error = 1.0, output error = (2.2 vs 2.0) = 0.1
        assert_eq!(cmp.case, ToleranceCase::Attenuated);
        assert!(cmp.max_output_error < cmp.max_input_error);
    }

    #[test]
    fn propagated_error_is_not_tolerant() {
        let cmp = compare(&copying_region(2.0), &copying_region(4.0));
        assert_eq!(cmp.case, ToleranceCase::Propagated);
        assert!(!cmp.case.is_tolerant());
    }

    #[test]
    fn leaf_fallback_when_no_later_events() {
        let clean_t = copying_region(2.0);
        let faulty_t = copying_region(4.0);
        let clean = Dddg::from_slice(clean_t.slice(0, 1));
        let faulty = Dddg::from_slice(faulty_t.slice(0, 1));
        let cmp = compare_io(&clean, &faulty, clean_t.slice(1, 1), faulty_t.slice(1, 1));
        assert_eq!(cmp.case, ToleranceCase::Propagated);
    }
}
