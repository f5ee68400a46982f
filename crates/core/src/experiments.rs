//! Regeneration of every table and figure of the paper's evaluation section.
//!
//! Each function returns a serializable result struct with a `to_text()`
//! renderer; the `ftkr-bench` harness binaries are thin wrappers that call
//! these functions and print the result (optionally as JSON).

use std::time::Instant;

use serde::{Deserialize, Serialize};

use ftkr_apps::App;
use ftkr_inject::TargetClass;
use ftkr_mpi::{run_spmd, ReduceOp};
use ftkr_patterns::RegionPatternSummary;
use ftkr_trace::partition_iterations;
use ftkr_vm::{EventKind, FaultSpec, Location, Vm, VmConfig};

use crate::effort::Effort;
use crate::session::Session;

/// The programs the per-region drivers analyse, in Table IV order.  The
/// paper runs its per-region analysis on five programs; with LU, BT, SP, DC
/// and FT promoted to full per-region applications, every per-region
/// analysis now covers the complete ten-app evaluation set.
pub const REGION_APPS: [&str; 10] = [
    "CG", "MG", "LU", "BT", "IS", "DC", "SP", "FT", "KMEANS", "LULESH",
];

fn region_sessions(effort: &Effort) -> Vec<Session> {
    // REGION_APPS equals the registry in Table-IV order, so build every app
    // exactly once — a per-name `by_name_sized` lookup would construct the
    // full ten-app registry (ten reference runs) per name.
    let apps = ftkr_apps::all_apps_sized(effort.app_size);
    debug_assert_eq!(apps.iter().map(|a| a.name).collect::<Vec<_>>(), REGION_APPS);
    apps.into_iter().map(Session::new).collect()
}

// --------------------------------------------------------------------------
// Table I — resilience patterns per code region
// --------------------------------------------------------------------------

/// One program's slice of Table I.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Program {
    /// Program name.
    pub program: String,
    /// Per-region rows.
    pub rows: Vec<RegionPatternSummary>,
}

/// The full Table I reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// One entry per program.
    pub programs: Vec<Table1Program>,
}

impl Table1 {
    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<8} {:<14} {:<11} {:>10}  {:<6} DCL RA CS Shift Trunc DO",
            "Program", "Code region", "Lines", "#instr", "Found?"
        );
        for p in &self.programs {
            for r in &p.rows {
                let _ = writeln!(
                    s,
                    "{:<8} {:<14} {:<11} {:>10}  {:<6} {}",
                    p.program,
                    r.region,
                    format!("{}-{}", r.lines.0, r.lines.1),
                    r.instructions,
                    if r.pattern_found() { "YES" } else { "NO" },
                    r.pattern_row(),
                );
            }
        }
        s
    }
}

/// Reproduce Table I: the resilience computation patterns found in the code
/// regions of all ten applications (the paper's five per-region programs
/// plus the promoted LU, BT, SP, DC and FT).
pub fn table1(effort: &Effort) -> Table1 {
    Table1 {
        programs: region_sessions(effort)
            .iter()
            .map(|session| Table1Program {
                program: session.app().name.to_string(),
                rows: session.region_table(effort),
            })
            .collect(),
    }
}

// --------------------------------------------------------------------------
// Figure 4 — parallel tracing overhead
// --------------------------------------------------------------------------

/// One bar pair of Figure 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Program name.
    pub program: String,
    /// Ranks used.
    pub ranks: usize,
    /// Wall-clock seconds without tracing.
    pub seconds_plain: f64,
    /// Wall-clock seconds with per-rank tracing.
    pub seconds_traced: f64,
}

impl Fig4Row {
    /// Relative overhead of tracing (the paper reports 45 % on average).
    pub fn overhead(&self) -> f64 {
        if self.seconds_plain > 0.0 {
            self.seconds_traced / self.seconds_plain - 1.0
        } else {
            0.0
        }
    }
}

/// The Figure 4 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4 {
    /// One row per MPI program.
    pub rows: Vec<Fig4Row>,
}

impl Fig4 {
    /// Mean tracing overhead across programs.
    pub fn mean_overhead(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(Fig4Row::overhead).sum::<f64>() / self.rows.len() as f64
    }

    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<8} {:>6} {:>14} {:>14} {:>10}",
            "Program", "ranks", "plain (s)", "traced (s)", "overhead"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:<8} {:>6} {:>14.4} {:>14.4} {:>9.1}%",
                r.program,
                r.ranks,
                r.seconds_plain,
                r.seconds_traced,
                r.overhead() * 100.0
            );
        }
        let _ = writeln!(s, "mean overhead: {:.1}%", self.mean_overhead() * 100.0);
        s
    }
}

fn time_spmd(app: &App, ranks: usize, trace: bool, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let module = app.module.clone();
        run_spmd(ranks, |mut comm| {
            let config = if trace {
                VmConfig::tracing()
            } else {
                VmConfig::default()
            };
            let result = Vm::new(config).run(&module).expect("module verifies");
            // The ranks exchange their verification scalar, mirroring the
            // reduction phase of the MPI versions of these benchmarks.
            let local = app.reduction_scalar(&result);
            comm.allreduce_scalar(local, ReduceOp::Sum)
        })
        .expect("SPMD run succeeds");
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Reproduce Figure 4: per-process tracing overhead of the region programs.
pub fn fig4(effort: &Effort) -> Fig4 {
    Fig4 {
        rows: region_sessions(effort)
            .iter()
            .map(|session| {
                let app = session.app();
                Fig4Row {
                    program: app.name.to_string(),
                    ranks: effort.ranks,
                    seconds_plain: time_spmd(app, effort.ranks, false, effort.timing_runs),
                    seconds_traced: time_spmd(app, effort.ranks, true, effort.timing_runs),
                }
            })
            .collect(),
    }
}

// --------------------------------------------------------------------------
// Figures 5 and 6 — success rates per code region / per iteration
// --------------------------------------------------------------------------

/// One bar of Figure 5 or Figure 6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuccessRatePoint {
    /// Program name.
    pub program: String,
    /// Region name (Figure 5) or iteration label (Figure 6).
    pub target: String,
    /// Injection target class.
    pub class: TargetClass,
    /// Measured success rate.
    pub success_rate: f64,
    /// Crash fraction (useful context the paper discusses for LULESH/KMEANS).
    pub crash_rate: f64,
    /// Number of injections behind the estimate.
    pub injections: u64,
}

/// A collection of success-rate bars.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuccessRateSeries {
    /// All measured points.
    pub points: Vec<SuccessRatePoint>,
}

impl SuccessRateSeries {
    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<8} {:<12} {:<9} {:>12} {:>11} {:>11}",
            "Program", "Target", "Class", "SuccessRate", "CrashRate", "#inject"
        );
        for p in &self.points {
            let _ = writeln!(
                s,
                "{:<8} {:<12} {:<9} {:>12.3} {:>11.3} {:>11}",
                p.program,
                p.target,
                format!("{:?}", p.class),
                p.success_rate,
                p.crash_rate,
                p.injections
            );
        }
        s
    }

    /// Look up a point.
    pub fn rate(&self, program: &str, target: &str, class: TargetClass) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.program == program && p.target == target && p.class == class)
            .map(|p| p.success_rate)
    }
}

/// Reproduce Figure 5: success rate per code region (iteration 0), for
/// internal and input locations.  Each program's points come from its
/// session ([`Session::figure5`]), which derives every region's site list
/// from one shared clean reference run.
pub fn fig5(effort: &Effort) -> SuccessRateSeries {
    let mut points = Vec::new();
    for session in region_sessions(effort) {
        points.extend(session.figure5(effort).points);
    }
    SuccessRateSeries { points }
}

/// Reproduce Figure 6: success rate per main-loop iteration (the main loop
/// body treated as one code region), for internal and input locations.
pub fn fig6(effort: &Effort, max_iterations: usize) -> SuccessRateSeries {
    let mut points = Vec::new();
    for session in region_sessions(effort) {
        points.extend(session.figure6(effort, max_iterations).points);
    }
    SuccessRateSeries { points }
}

// --------------------------------------------------------------------------
// Figure 7 — ACL trajectory in LULESH
// --------------------------------------------------------------------------

/// The Figure 7 reproduction: the number of alive corrupted locations over
/// dynamic instructions after a late-iteration injection in LULESH.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7 {
    /// Dynamic step the fault was injected at.
    pub injected_at: u64,
    /// Down-sampled `(dynamic instruction, ACL count)` series.
    pub series: Vec<(usize, u32)>,
    /// Largest ACL count observed.
    pub max_count: u32,
    /// Steps at which the count decreased (candidate pattern members).
    pub decrease_events: usize,
    /// Whether all corrupted locations were gone by the end of the run.
    pub fully_cleaned: bool,
}

impl Fig7 {
    /// Render as a plain-text series (one `step count` pair per line).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "# LULESH ACL trajectory (fault at step {}, max {}, {} decreases, cleaned: {})\n",
            self.injected_at, self.max_count, self.decrease_events, self.fully_cleaned
        );
        for (step, count) in &self.series {
            let _ = writeln!(s, "{step} {count}");
        }
        s
    }
}

/// Reproduce Figure 7: inject into LULESH late in the run (the paper uses the
/// third-from-last main-loop iteration) and track the ACL count.
pub fn fig7() -> Fig7 {
    let session = Session::by_name("LULESH").expect("LULESH exists");
    let clean = session.clean_trace();
    let iterations = session.iterations();
    let target_iter = &iterations[iterations.len().saturating_sub(3)];
    // First floating multiply of that iteration: a value inside the hourglass
    // force aggregation.
    let step = (target_iter.start..target_iter.end)
        .find(|&i| {
            matches!(clean.events[i].kind, EventKind::Bin(k) if k.is_float())
                && clean.events[i].write.is_some()
        })
        .unwrap_or(target_iter.start);
    let fault = FaultSpec::in_result(step as u64, 52);
    // One fused walk produces the ACL table (and the patterns, unused here).
    let acl = session
        .injection(fault)
        .with_acl()
        .run()
        .acl
        .expect("acl requested");
    // The interesting part of the trajectory starts at the injection; drop
    // the all-zero prefix so the series matches the paper's zoomed view.
    let series = acl
        .series(2000)
        .into_iter()
        .filter(|(step, _)| *step + 64 >= fault.at_step as usize)
        .take(400)
        .collect();
    Fig7 {
        injected_at: fault.at_step,
        series,
        max_count: acl.max_count(),
        decrease_events: acl.decrease_events().len(),
        fully_cleaned: acl.fully_cleaned(),
    }
}

// --------------------------------------------------------------------------
// Table II — error magnitude across mg3P invocations
// --------------------------------------------------------------------------

/// One row of Table II: the corrupted element after one `mg3P` invocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Main-loop iteration (1-based, as in the paper).
    pub iteration: usize,
    /// Value of the tracked element in the fault-free run.
    pub original: f64,
    /// Value of the tracked element in the faulty run.
    pub corrupted: f64,
    /// Relative error (Eq. 2).
    pub error_magnitude: f64,
}

/// The Table II reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    /// Index of the tracked `u` element.
    pub element_index: usize,
    /// Flipped bit.
    pub bit: u8,
    /// Per-invocation rows.
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "MG repeated additions: u[{}] with bit {} flipped in the first mg3P call\n",
            self.element_index, self.bit
        );
        let _ = writeln!(
            s,
            "{:<6} {:>22} {:>22} {:>18}",
            "itr", "original value", "corrupted value", "error magnitude"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "itr{:<3} {:>22.15} {:>22.15} {:>18.6e}",
                r.iteration, r.original, r.corrupted, r.error_magnitude
            );
        }
        s
    }
}

/// Values of memory cell `addr` at each of the (ascending) dynamic-step
/// `boundaries`, in a single forward pass over the trace: snapshot `i` is
/// the cell's value after the events `[0, boundaries[i])` — the last store
/// before the boundary, or `initial` if the cell was never stored by then.
fn cell_values_at_boundaries(
    trace: &ftkr_vm::Trace,
    addr: u64,
    boundaries: &[usize],
    initial: f64,
) -> Vec<f64> {
    debug_assert!(boundaries.windows(2).all(|w| w[0] <= w[1]));
    // Resolve the cell's id once; if the trace never touches it, its value
    // never changes.
    let Some(id) = trace.location_id(&Location::mem(addr)) else {
        return vec![initial; boundaries.len()];
    };
    let mut snapshots = Vec::with_capacity(boundaries.len());
    let mut value = initial;
    let mut next = boundaries.iter().peekable();
    for (i, event) in trace.events.iter().enumerate() {
        while next.next_if(|&&b| b <= i).is_some() {
            snapshots.push(value);
        }
        if next.peek().is_none() {
            break;
        }
        if let Some((wid, v)) = event.write {
            if wid == id {
                value = v.to_f64_lossy();
            }
        }
    }
    // Boundaries at or past the end of the trace see the final value.
    snapshots.resize(boundaries.len(), value);
    snapshots
}

/// Reproduce Table II: flip bit `bit` of `u[element]` as the first `mg3P`
/// invocation begins and report the element's error magnitude after every
/// invocation.
pub fn table2(element: usize, bit: u8) -> Table2 {
    let session = Session::by_name("MG").expect("MG exists");
    let clean = session.clean_trace();
    // The `u` array is the first global of the MG module: cell address =
    // element index.
    let addr = element as u64;
    // Find the start of the first mg3P invocation = the first mg_a region.
    let first = session
        .regions()
        .iter()
        .find(|r| r.key.name == "mg_a")
        .expect("MG has mg_a instances");
    let fault = FaultSpec::in_memory(first.start as u64, addr, bit);

    let faulty_run = session.traced_faulty_run(fault);
    let faulty = faulty_run.trace.expect("traced");

    // The element value after each main-loop iteration (each mg3P call),
    // snapshotted in one forward pass per trace instead of one rescan per
    // iteration row.
    let clean_iters = session.iterations();
    let faulty_iters = partition_iterations(
        &faulty,
        &session.app().module,
        Some(session.app().main_loop),
    );
    let clean_ends: Vec<usize> = clean_iters.iter().map(|c| c.end).collect();
    let faulty_ends: Vec<usize> = faulty_iters.iter().map(|f| f.end).collect();
    let originals = cell_values_at_boundaries(clean, addr, &clean_ends, 0.0);
    let corrupteds = cell_values_at_boundaries(&faulty, addr, &faulty_ends, 0.0);
    let rows = originals
        .iter()
        .zip(&corrupteds)
        .enumerate()
        .map(|(i, (&original, &corrupted))| {
            let error_magnitude = if original == 0.0 {
                if corrupted == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (original - corrupted).abs() / original.abs()
            };
            Table2Row {
                iteration: i + 1,
                original,
                corrupted,
                error_magnitude,
            }
        })
        .collect();
    Table2 {
        element_index: element,
        bit,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shows_shrinking_error_magnitude() {
        let t = table2(10, 40);
        assert_eq!(t.rows.len(), 4, "MG runs four mg3P invocations");
        // The corrupted element converges back toward the fault-free value.
        let first = &t.rows[0];
        let last = &t.rows[3];
        assert!(
            last.error_magnitude < first.error_magnitude || first.error_magnitude == 0.0,
            "error magnitude did not shrink: {t:?}"
        );
        assert!(t.to_text().contains("itr4"));
    }

    #[test]
    fn fig7_records_a_rise_and_fall_of_corrupted_locations() {
        let f = fig7();
        assert!(f.max_count >= 1);
        assert!(!f.series.is_empty());
        assert!(f.decrease_events > 0, "no ACL decreases found: {f:?}");
        assert!(f.to_text().lines().count() > 10);
    }

    #[test]
    fn fig5_quick_produces_points_for_every_app_including_the_promoted_five() {
        let mut effort = Effort::quick();
        effort.tests_per_point = 12;
        let series = fig5(&effort);
        for region in ["is_a", "is_b", "is_c"] {
            assert!(
                series
                    .points
                    .iter()
                    .any(|p| p.program == "IS" && p.target == region),
                "missing point for {region}"
            );
        }
        // The promoted apps appear alongside the original five, with every
        // declared region contributing an internal-class bar.
        for app in ftkr_apps::all_apps() {
            for region in &app.regions {
                assert!(
                    series.points.iter().any(|p| {
                        p.program == app.name
                            && &p.target == region
                            && p.class == TargetClass::Internal
                    }),
                    "missing internal point for {}/{}",
                    app.name,
                    region
                );
            }
        }
        for p in &series.points {
            assert!((0.0..=1.0).contains(&p.success_rate));
        }
    }
}
