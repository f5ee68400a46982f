//! Partitioning a dynamic trace into code-region instances.

use std::collections::HashMap;

use ftkr_ir::{FunctionId, LoopId, LoopKind, Module};
use ftkr_vm::{EventKind, Trace};

use crate::region::{RegionInstance, RegionKey};

/// Which loop marker an event is.
#[derive(Clone, Copy)]
enum MarkerKind {
    /// Entry into a loop of the given classification.
    Begin(LoopKind),
    /// Start of one loop iteration.
    Iter,
    /// Exit from a loop.
    End,
}

/// One loop marker of the event stream.
struct Marker {
    func: FunctionId,
    frame: u32,
    id: LoopId,
    kind: MarkerKind,
    /// Event index of the marker itself — where an instance that *includes*
    /// the marker starts; an instance that *ends* at it stops at `here + 1`.
    here: usize,
}

/// The trace's loop markers in execution order.
fn marker_stream(trace: &Trace) -> Vec<Marker> {
    trace
        .iter()
        .filter_map(|(idx, event)| {
            let (id, kind) = match event.kind {
                EventKind::LoopBegin { id, kind, .. } => (id, MarkerKind::Begin(kind)),
                EventKind::LoopIter { id } => (id, MarkerKind::Iter),
                EventKind::LoopEnd { id } => (id, MarkerKind::End),
                _ => return None,
            };
            Some(Marker {
                func: event.func,
                frame: event.frame,
                id,
                kind,
                here: idx,
            })
        })
        .collect()
}

/// Which loops open code regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionSelector {
    /// Every inner loop that is not already inside an open region — with the
    /// benchmark kernels' structure (a main loop containing a chain of inner
    /// loops) this is exactly the paper's "first-level inner loop" choice.
    FirstLevelInner,
    /// Only loops whose builder-assigned region name is in the list.
    Named(Vec<String>),
    /// Every loop, including nested ones (produces nested instances; useful
    /// for fine-grained exploration of a single region).
    AllLoops,
}

impl RegionSelector {
    /// Convenience constructor for [`RegionSelector::Named`].
    pub fn named<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        RegionSelector::Named(names.into_iter().map(Into::into).collect())
    }

    fn selects(&self, name: &str, kind: LoopKind, inside_open_region: bool) -> bool {
        match self {
            RegionSelector::FirstLevelInner => kind == LoopKind::Inner && !inside_open_region,
            RegionSelector::Named(names) => !inside_open_region && names.iter().any(|n| n == name),
            RegionSelector::AllLoops => true,
        }
    }
}

fn loop_meta(module: &Module, func: FunctionId, id: LoopId) -> (String, (u32, u32)) {
    match module.function(func).loop_info(id) {
        Some(info) => (info.name.clone(), (info.line_start, info.line_end)),
        None => (format!("{id}"), (0, 0)),
    }
}

/// Split a trace into code-region instances according to `selector`.
///
/// Region instances never overlap (except with [`RegionSelector::AllLoops`],
/// where nested loops produce nested instances) and are returned in start
/// order.  Each instance records the main-loop iteration in which it started,
/// which is how the paper selects "the first instance of each code region in
/// iteration 0 of the main loop" for its per-code-region experiments.
pub fn partition_regions(
    trace: &Trace,
    module: &Module,
    selector: &RegionSelector,
) -> Vec<RegionInstance> {
    let mut instances = Vec::new();
    // Stack of currently open *selected* regions: (key, start, main_iter, lines, func, id, frame)
    struct Open {
        key: RegionKey,
        start: usize,
        main_iteration: Option<usize>,
        lines: (u32, u32),
        frame: u32,
    }
    let mut open: Vec<Open> = Vec::new();
    let mut instance_counters: HashMap<RegionKey, usize> = HashMap::new();
    let mut main_iteration: Option<usize> = None;
    let mut main_loop: Option<(FunctionId, LoopId)> = None;

    for marker in marker_stream(trace) {
        match marker.kind {
            MarkerKind::Begin(kind) => {
                if kind == LoopKind::Main && main_loop.is_none() {
                    main_loop = Some((marker.func, marker.id));
                }
                let (name, lines) = loop_meta(module, marker.func, marker.id);
                if selector.selects(&name, kind, !open.is_empty()) {
                    let key = RegionKey {
                        func: marker.func,
                        loop_id: marker.id,
                        name,
                    };
                    open.push(Open {
                        key,
                        start: marker.here,
                        main_iteration,
                        lines,
                        frame: marker.frame,
                    });
                }
            }
            MarkerKind::Iter if main_loop == Some((marker.func, marker.id)) => {
                main_iteration = Some(main_iteration.map(|i| i + 1).unwrap_or(0));
            }
            MarkerKind::End => {
                // Close the innermost open region that matches this loop.
                if let Some(pos) = open.iter().rposition(|o| {
                    o.key.loop_id == marker.id
                        && o.key.func == marker.func
                        && o.frame == marker.frame
                }) {
                    let o = open.remove(pos);
                    let counter = instance_counters.entry(o.key.clone()).or_insert(0);
                    let instance = *counter;
                    *counter += 1;
                    instances.push(RegionInstance {
                        key: o.key,
                        start: o.start,
                        end: marker.here + 1,
                        instance,
                        main_iteration: o.main_iteration,
                        lines: o.lines,
                    });
                }
            }
            _ => {}
        }
    }

    // Any region left open (program trapped mid-region) is closed at the end
    // of the trace so downstream analyses still see it.
    for o in open {
        let counter = instance_counters.entry(o.key.clone()).or_insert(0);
        let instance = *counter;
        *counter += 1;
        instances.push(RegionInstance {
            key: o.key,
            start: o.start,
            end: trace.len(),
            instance,
            main_iteration: o.main_iteration,
            lines: o.lines,
        });
    }

    instances.sort_by_key(|i| i.start);
    instances
}

/// Treat every iteration of one loop as a region instance (the paper's
/// per-iteration experiments treat the whole main loop body as a single code
/// region and each iteration as one instance).
///
/// `loop_name` of `None` selects the program's main loop (the first loop with
/// [`LoopKind::Main`]).
pub fn partition_iterations(
    trace: &Trace,
    module: &Module,
    loop_name: Option<&str>,
) -> Vec<RegionInstance> {
    // Identify the target loop: (func, id).
    let markers = marker_stream(trace);
    let mut target: Option<(FunctionId, LoopId)> = None;
    for m in &markers {
        if let MarkerKind::Begin(kind) = m.kind {
            let (name, _) = loop_meta(module, m.func, m.id);
            let matches = match loop_name {
                Some(wanted) => name == wanted,
                None => kind == LoopKind::Main,
            };
            if matches {
                target = Some((m.func, m.id));
                break;
            }
        }
    }
    let Some((tfunc, tid)) = target else {
        return Vec::new();
    };
    let (name, lines) = loop_meta(module, tfunc, tid);

    let mut instances = Vec::new();
    let mut current_start: Option<usize> = None;
    let mut count = 0usize;
    let key = RegionKey {
        func: tfunc,
        loop_id: tid,
        name,
    };

    let close = |start: usize, end: usize, count: &mut usize, out: &mut Vec<RegionInstance>| {
        out.push(RegionInstance {
            key: key.clone(),
            start,
            end,
            instance: *count,
            main_iteration: Some(*count),
            lines,
        });
        *count += 1;
    };

    for m in &markers {
        if m.func != tfunc {
            continue;
        }
        match m.kind {
            MarkerKind::Iter if m.id == tid => {
                if let Some(start) = current_start.take() {
                    close(start, m.here, &mut count, &mut instances);
                }
                current_start = Some(m.here);
            }
            MarkerKind::End if m.id == tid => {
                if let Some(start) = current_start.take() {
                    close(start, m.here, &mut count, &mut instances);
                }
            }
            _ => {}
        }
    }
    if let Some(start) = current_start.take() {
        close(start, trace.len(), &mut count, &mut instances);
    }
    instances
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::prelude::*;
    use ftkr_ir::Global;
    use ftkr_vm::{Vm, VmConfig};

    /// main loop (3 iterations) containing two inner region loops, the second
    /// of which has a nested loop.
    fn nested_module() -> Module {
        let mut m = Module::new("nested");
        let g = m.add_global(Global::zeroed_f64("acc", 1));
        let mut b = FunctionBuilder::new("main");
        b.set_line(100);
        let zero = b.const_i64(0);
        let three = b.const_i64(3);
        let gaddr = b.global_addr(g);
        b.main_for("main_loop", zero, three, |b, _it| {
            b.set_line(110);
            let z = b.const_i64(0);
            let two = b.const_i64(2);
            b.region_for("region_a", z, two, |b, i| {
                let f = b.sitofp(i);
                let cur = b.load(gaddr);
                let next = b.fadd(cur, f);
                b.store(gaddr, next);
            });
            b.set_line(120);
            let z2 = b.const_i64(0);
            let two2 = b.const_i64(2);
            b.region_for("region_b", z2, two2, |b, _i| {
                let z3 = b.const_i64(0);
                let four = b.const_i64(4);
                b.for_loop("inner_nested", LoopKind::Inner, z3, four, 1, |b, j| {
                    let f = b.sitofp(j);
                    let cur = b.load(gaddr);
                    let next = b.fadd(cur, f);
                    b.store(gaddr, next);
                });
            });
        });
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    fn traced(module: &Module) -> Trace {
        Vm::new(VmConfig::tracing())
            .run(module)
            .unwrap()
            .trace
            .unwrap()
    }

    #[test]
    fn first_level_inner_partitioning_finds_both_regions_per_iteration() {
        let module = nested_module();
        let trace = traced(&module);
        let regions = partition_regions(&trace, &module, &RegionSelector::FirstLevelInner);
        // 3 main iterations x 2 first-level regions.
        assert_eq!(regions.len(), 6);
        let a_count = regions.iter().filter(|r| r.key.name == "region_a").count();
        let b_count = regions.iter().filter(|r| r.key.name == "region_b").count();
        assert_eq!(a_count, 3);
        assert_eq!(b_count, 3);
        // The nested loop is *not* its own region at this level.
        assert!(regions.iter().all(|r| r.key.name != "inner_nested"));
        // Instances are numbered per region and non-overlapping.
        let a0 = regions
            .iter()
            .find(|r| r.key.name == "region_a" && r.instance == 0)
            .unwrap();
        assert_eq!(a0.main_iteration, Some(0));
        assert_eq!(a0.lines.0, 110);
        for w in regions.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn named_selector_picks_only_requested_regions() {
        let module = nested_module();
        let trace = traced(&module);
        let regions = partition_regions(&trace, &module, &RegionSelector::named(["region_b"]));
        assert_eq!(regions.len(), 3);
        assert!(regions.iter().all(|r| r.key.name == "region_b"));
    }

    #[test]
    fn all_loops_selector_includes_nested_and_main() {
        let module = nested_module();
        let trace = traced(&module);
        let regions = partition_regions(&trace, &module, &RegionSelector::AllLoops);
        let names: std::collections::HashSet<_> =
            regions.iter().map(|r| r.key.name.clone()).collect();
        assert!(names.contains("main_loop"));
        assert!(names.contains("inner_nested"));
        // nested instances overlap their parents: main_loop instance covers all.
        let main_inst = regions.iter().find(|r| r.key.name == "main_loop").unwrap();
        let nested = regions
            .iter()
            .find(|r| r.key.name == "inner_nested")
            .unwrap();
        assert!(main_inst.start <= nested.start && nested.end <= main_inst.end);
    }

    #[test]
    fn per_iteration_partitioning_of_the_main_loop() {
        let module = nested_module();
        let trace = traced(&module);
        let iters = partition_iterations(&trace, &module, None);
        assert_eq!(iters.len(), 3);
        for (i, inst) in iters.iter().enumerate() {
            assert_eq!(inst.instance, i);
            assert_eq!(inst.main_iteration, Some(i));
            assert!(!inst.is_empty());
        }
        // Iterations of the same loop are contiguous and ordered.
        for w in iters.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn per_iteration_partitioning_by_name() {
        let module = nested_module();
        let trace = traced(&module);
        // region_a runs 3 times with 2 iterations each => 6 iteration instances.
        let iters = partition_iterations(&trace, &module, Some("region_a"));
        assert_eq!(iters.len(), 6);
    }

    #[test]
    fn missing_loop_name_returns_empty() {
        let module = nested_module();
        let trace = traced(&module);
        assert!(partition_iterations(&trace, &module, Some("nope")).is_empty());
    }
}
