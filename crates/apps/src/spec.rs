//! The [`App`] specification: a built module plus the metadata the
//! FlipTracker pipeline needs (regions, main loop, verification).

use ftkr_ir::Module;
use ftkr_vm::{RunResult, Vm, VmConfig};
use serde::{Deserialize, Serialize};

/// Problem-size knob of the NPB kernels: the grid sizes and iteration counts
/// an application is built with.
///
/// The knob maps onto NPB input classes: [`AppSize::Quick`] plays the role of
/// Class S (everything sized so statistically meaningful campaigns finish in
/// seconds — the registry default, and what [`crate::all_apps`] returns),
/// [`AppSize::ClassW`] scales the five promoted kernels (LU, BT, SP, DC, FT)
/// to Class-W-style larger grids and longer main loops.  Scaling changes only
/// the inputs: region names, region count and the verification phase are
/// preserved across sizes (the conformance harness asserts this).
///
/// Campaign plans always resolve against the quick-size registry, so a plan's
/// target resolves to the same sites in any executor process; the size knob
/// is for the in-process experiment drivers (threaded through `Effort`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppSize {
    /// Class-S-style inputs: the smallest statistically useful sizes.
    #[default]
    Quick,
    /// Class-W-style inputs: larger grids, longer main loops.
    ClassW,
}

/// How a completed run is judged — the application's verification phase.
#[derive(Debug, Clone, PartialEq)]
pub enum Verifier {
    /// `|global[index] - expected| / max(|expected|, eps) <= rel_tol`.
    GlobalClose {
        /// Global array holding the verification value.
        global: &'static str,
        /// Index within the global.
        index: usize,
        /// Reference value (captured from a fault-free run).
        expected: f64,
        /// Relative tolerance.
        rel_tol: f64,
    },
    /// `global[index] < threshold` (residual-style self-verification).
    GlobalBelow {
        /// Global array holding the residual.
        global: &'static str,
        /// Index within the global.
        index: usize,
        /// Acceptance threshold.
        threshold: f64,
    },
    /// `global[index] == expected` for an integer flag computed in-program.
    GlobalFlagSet {
        /// Global array holding the flag.
        global: &'static str,
        /// Index within the global.
        index: usize,
        /// Expected flag value.
        expected: i64,
    },
    /// At least `min_fraction` of the integer global matches the reference
    /// element-wise (used for clustering assignments).
    MatchFraction {
        /// Global array to compare.
        global: &'static str,
        /// Reference contents (captured from a fault-free run).
        expected: Vec<i64>,
        /// Minimum matching fraction.
        min_fraction: f64,
    },
}

impl Verifier {
    /// Judge a completed run.
    pub fn accept(&self, result: &RunResult) -> bool {
        match self {
            Verifier::GlobalClose {
                global,
                index,
                expected,
                rel_tol,
            } => match result.global_f64(global) {
                Some(values) if *index < values.len() => {
                    let v = values[*index];
                    if !v.is_finite() {
                        return false;
                    }
                    let denom = expected.abs().max(1e-300);
                    (v - expected).abs() / denom <= *rel_tol
                }
                _ => false,
            },
            Verifier::GlobalBelow {
                global,
                index,
                threshold,
            } => match result.global_f64(global) {
                Some(values) if *index < values.len() => {
                    let v = values[*index];
                    v.is_finite() && v.abs() < *threshold
                }
                _ => false,
            },
            Verifier::GlobalFlagSet {
                global,
                index,
                expected,
            } => match result.global_i64(global) {
                Some(values) if *index < values.len() => values[*index] == *expected,
                _ => false,
            },
            Verifier::MatchFraction {
                global,
                expected,
                min_fraction,
            } => match result.global_i64(global) {
                Some(values) if values.len() == expected.len() && !expected.is_empty() => {
                    let matches = values.iter().zip(expected).filter(|(a, b)| a == b).count();
                    matches as f64 / expected.len() as f64 >= *min_fraction
                }
                _ => false,
            },
        }
    }
}

/// One benchmark application, ready for the FlipTracker pipeline.
#[derive(Debug, Clone)]
pub struct App {
    /// Short name (`"CG"`, `"MG"`, ...).
    pub name: &'static str,
    /// The program.
    pub module: Module,
    /// Names of the code regions analysed for this program (the rows the
    /// paper lists in Table I for CG, MG, KMEANS, IS and LULESH).
    pub regions: Vec<String>,
    /// Name of the program's main loop.
    pub main_loop: &'static str,
    /// Number of main-loop iterations the program executes.
    pub main_iterations: usize,
    /// Verification phase.
    pub verifier: Verifier,
    /// Problem size this build was constructed at.  Campaign plans are only
    /// portable across processes for [`AppSize::Quick`] builds (the registry
    /// size every executor resolves); `Session::plan`/`run_plan` enforce it.
    pub size: AppSize,
}

impl App {
    /// Judge a completed run with the application's verification phase.
    pub fn verify(&self, result: &RunResult) -> bool {
        self.verifier.accept(result)
    }

    /// Run the program without faults and return the result.
    ///
    /// # Panics
    /// Panics if the module fails verification or the clean run traps — both
    /// indicate a bug in the kernel definition, not a user error.
    pub fn run_clean(&self) -> RunResult {
        let result = Vm::new(VmConfig::default())
            .run(&self.module)
            .expect("benchmark module must verify");
        assert!(
            result.outcome.is_completed(),
            "fault-free {} run must complete, got {:?}",
            self.name,
            result.outcome
        );
        result
    }

    /// A scalar a rank would contribute to an allreduce in the MPI version
    /// (used by the tracing-overhead experiment to make ranks communicate).
    pub fn reduction_scalar(&self, result: &RunResult) -> f64 {
        match &self.verifier {
            Verifier::GlobalClose { global, index, .. }
            | Verifier::GlobalBelow { global, index, .. } => result
                .global_f64(global)
                .and_then(|v| v.get(*index).copied())
                .unwrap_or(0.0),
            Verifier::GlobalFlagSet { global, index, .. } => result
                .global_i64(global)
                .and_then(|v| v.get(*index).copied())
                .unwrap_or(0) as f64,
            Verifier::MatchFraction { global, .. } => result
                .global_i64(global)
                .map(|v| v.iter().sum::<i64>() as f64)
                .unwrap_or(0.0),
        }
    }
}

/// Capture a reference value from a fault-free run of `module` (used by app
/// constructors to bake the expected verification value into the verifier).
pub fn reference_f64(module: &Module, global: &'static str, index: usize) -> f64 {
    let result = Vm::new(VmConfig::default())
        .run(module)
        .expect("benchmark module must verify");
    assert!(
        result.outcome.is_completed(),
        "fault-free run must complete while capturing the reference"
    );
    result.global_f64(global).expect("reference global exists")[index]
}

/// Capture an integer reference vector from a fault-free run of `module`.
pub fn reference_i64_vec(module: &Module, global: &'static str) -> Vec<i64> {
    let result = Vm::new(VmConfig::default())
        .run(module)
        .expect("benchmark module must verify");
    assert!(result.outcome.is_completed());
    result.global_i64(global).expect("reference global exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::prelude::*;
    use ftkr_ir::Global;

    fn tiny_module(value: f64) -> Module {
        let mut m = Module::new("tiny");
        let g = m.add_global(Global::zeroed_f64("out", 1));
        let mut b = FunctionBuilder::new("main");
        let gaddr = b.global_addr(g);
        let v = b.const_f64(value);
        b.store(gaddr, v);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    fn run(m: &Module) -> RunResult {
        Vm::new(VmConfig::default()).run(m).unwrap()
    }

    #[test]
    fn global_close_verifier() {
        let v = Verifier::GlobalClose {
            global: "out",
            index: 0,
            expected: 10.0,
            rel_tol: 0.01,
        };
        assert!(v.accept(&run(&tiny_module(10.05))));
        assert!(!v.accept(&run(&tiny_module(11.0))));
        assert!(!v.accept(&run(&tiny_module(f64::NAN))));
    }

    #[test]
    fn global_below_verifier() {
        let v = Verifier::GlobalBelow {
            global: "out",
            index: 0,
            threshold: 1e-6,
        };
        assert!(v.accept(&run(&tiny_module(1e-9))));
        assert!(!v.accept(&run(&tiny_module(0.5))));
        assert!(!v.accept(&run(&tiny_module(f64::INFINITY))));
    }

    #[test]
    fn missing_global_is_rejected() {
        let v = Verifier::GlobalBelow {
            global: "missing",
            index: 0,
            threshold: 1.0,
        };
        assert!(!v.accept(&run(&tiny_module(0.0))));
    }

    #[test]
    fn reference_capture() {
        let m = tiny_module(3.5);
        assert_eq!(reference_f64(&m, "out", 0), 3.5);
    }
}
