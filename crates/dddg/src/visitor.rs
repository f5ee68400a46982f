//! DDDG construction as a windowed [`TraceVisitor`]: the graph of a region
//! instance is extracted from the event stream on the fly, so several region
//! DDDGs can be built in **one** walk over a trace (or streamed from a live
//! run) instead of one [`Dddg::from_slice`] pass per region.

use ftkr_vm::{EventCtx, Location, LocationId, TraceVisitor, Value, WalkEnd};

use crate::graph::{Dddg, DddgBuilder};

/// Builds the [`Dddg`] of the events whose walk index falls in
/// `[start, end)` — the event range of one region instance.
///
/// Drive it with an [`ftkr_vm::EventCursor`] over a materialized trace (any
/// number of extractors share the walk), or stream it from
/// [`ftkr_vm::Vm::run_with_visitors_decoded`].  Node `def_event` indices are
/// relative to `start`, exactly as [`Dddg::from_slice`] numbers them.
pub struct DddgExtractor {
    start: usize,
    end: usize,
    builder: DddgBuilder,
}

impl DddgExtractor {
    /// An extractor for the walk-index window `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        DddgExtractor {
            start,
            end: end.max(start),
            builder: DddgBuilder::new(),
        }
    }

    /// The finished graph.
    pub fn into_dddg(self) -> Dddg {
        self.builder.finish()
    }

    /// Feed one event (walk index `idx`, which must arrive in order).
    pub fn push(
        &mut self,
        idx: usize,
        reads: &[(LocationId, Value)],
        write: Option<(LocationId, Value)>,
        line: u32,
        locations: &[Location],
    ) {
        if idx < self.start || idx >= self.end {
            return;
        }
        self.builder
            .push(idx - self.start, reads, write, line, locations);
    }
}

impl TraceVisitor for DddgExtractor {
    fn on_event(&mut self, ctx: &EventCtx<'_>) {
        self.push(
            ctx.index,
            ctx.reads,
            ctx.event.write,
            ctx.event.line,
            ctx.locations,
        );
    }

    fn on_finish(&mut self, _end: &WalkEnd<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::prelude::*;
    use ftkr_ir::Global;
    use ftkr_vm::{EventCursor, Vm, VmConfig};

    fn module() -> Module {
        let mut m = Module::new("m");
        let g = m.add_global(Global::zeroed_f64("x", 8));
        let mut b = FunctionBuilder::new("main");
        let gaddr = b.global_addr(g);
        let zero = b.const_i64(0);
        let eight = b.const_i64(8);
        b.main_for("fill", zero, eight, |b, i| {
            let f = b.sitofp(i);
            let sq = b.fmul(f, f);
            b.store_idx(gaddr, i, sq);
        });
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn extractor_windows_match_from_slice() {
        let module = module();
        let trace = Vm::new(VmConfig::tracing())
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        // Three windows extracted in ONE walk, compared against three
        // independent from_slice passes.
        let windows = [(0usize, trace.len()), (3, 20), (10, 10)];
        let mut extractors: Vec<DddgExtractor> = windows
            .iter()
            .map(|&(s, e)| DddgExtractor::new(s, e))
            .collect();
        {
            let mut refs: Vec<&mut DddgExtractor> = extractors.iter_mut().collect();
            EventCursor::new(&trace).run(&mut refs[..]);
        }
        for (x, &(s, e)) in extractors.into_iter().zip(&windows) {
            let got = x.into_dddg();
            let want = Dddg::from_slice(trace.slice(s, e));
            assert_eq!(got.num_nodes(), want.num_nodes(), "window {s}..{e}");
            assert_eq!(got.num_edges(), want.num_edges());
            assert_eq!(got.inputs(), want.inputs());
            assert_eq!(got.leaf_outputs(), want.leaf_outputs());
            assert_eq!(got.nodes(), want.nodes());
            assert_eq!(got.edges(), want.edges());
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }
}
