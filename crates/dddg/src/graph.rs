//! DDDG construction from a trace slice.

use ftkr_vm::{Location, LocationId, TraceSlice, Value};

/// Index of a node within a [`Dddg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A vertex: one dynamic version of a location's value.
#[derive(Debug, Clone, PartialEq)]
pub struct DddgNode {
    /// The register or memory location.
    pub location: Location,
    /// Version number (0 is the value the location had when the region
    /// started; each write bumps the version).
    pub version: u32,
    /// The value observed (for version 0) or produced (for later versions).
    pub value: Value,
    /// Index (within the slice) of the event that defined this version;
    /// `None` for version-0 nodes, whose value predates the region.
    pub def_event: Option<usize>,
    /// Source line of the defining event (or of the first reading event for
    /// version-0 nodes).
    pub line: u32,
}

/// An edge: a dataflow dependence `from → to` created by one dynamic
/// instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DddgEdge {
    /// Node whose value was read.
    pub from: NodeId,
    /// Node whose value was produced.
    pub to: NodeId,
    /// Index (within the slice) of the instruction that created the edge.
    pub event: usize,
}

/// Sentinel for "no node yet" in the dense per-location tables.
const NO_NODE: u32 = u32::MAX;

/// A dynamic data dependence graph for one code-region instance.
///
/// Construction works in the owning trace's dense [`LocationId`] space: the
/// latest-version table is a flat vector indexed by id instead of a hash map
/// keyed by `Location`, so building a region DDDG costs one pass over the
/// slice plus one id-indexed array.
#[derive(Debug, Clone, Default)]
pub struct Dddg {
    nodes: Vec<DddgNode>,
    edges: Vec<DddgEdge>,
    /// Version-0 nodes (locations first observed by a read — the inputs).
    roots: Vec<NodeId>,
    /// Final version of every location written inside the region, as
    /// `(interned id, node)` pairs in first-write order.
    written_final: Vec<(LocationId, NodeId)>,
}

/// Incremental DDDG construction: one [`DddgBuilder::push`] per event of the
/// region, in order.  [`Dddg::from_slice`] drives it over a trace slice; the
/// windowed [`crate::visitor::DddgExtractor`] drives it from a shared
/// [`ftkr_vm::EventCursor`] walk or a live streamed run.
#[derive(Debug, Default)]
pub struct DddgBuilder {
    g: Dddg,
    /// Dense per-location tables over the producing run's id space (grown on
    /// demand: a streamed run's location table grows as it executes).
    latest: Vec<u32>,
    written_at: Vec<u32>,
    read_nodes: Vec<NodeId>,
}

impl DddgBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        DddgBuilder::default()
    }

    fn ensure(&mut self, id: LocationId) {
        if id.index() >= self.latest.len() {
            self.latest.resize(id.index() + 1, NO_NODE);
            self.written_at.resize(id.index() + 1, NO_NODE);
        }
    }

    /// Append one event: `idx` is the event's index *within the region*,
    /// `reads`/`write` its dataflow in interned-id form, `locations` the
    /// (at least partially) interned location table resolving those ids.
    pub fn push(
        &mut self,
        idx: usize,
        reads: &[(LocationId, Value)],
        write: Option<(LocationId, Value)>,
        line: u32,
        locations: &[Location],
    ) {
        self.read_nodes.clear();
        for &(id, value) in reads {
            self.ensure(id);
            let slot = self.latest[id.index()];
            let node = if slot != NO_NODE {
                NodeId(slot)
            } else {
                // First observation of this location inside the region:
                // it carries a pre-existing value => input.
                let n = self.g.push_node(DddgNode {
                    location: locations[id.index()],
                    version: 0,
                    value,
                    def_event: None,
                    line,
                });
                self.latest[id.index()] = n.0;
                self.g.roots.push(n);
                n
            };
            self.read_nodes.push(node);
        }
        if let Some((id, value)) = write {
            self.ensure(id);
            let slot = self.latest[id.index()];
            let version = if slot != NO_NODE {
                self.g.nodes[slot as usize].version + 1
            } else {
                0
            };
            let to = self.g.push_node(DddgNode {
                location: locations[id.index()],
                version,
                value,
                def_event: Some(idx),
                line,
            });
            self.latest[id.index()] = to.0;
            if self.written_at[id.index()] == NO_NODE {
                self.written_at[id.index()] = self.g.written_final.len() as u32;
                self.g.written_final.push((id, to));
            } else {
                self.g.written_final[self.written_at[id.index()] as usize].1 = to;
            }
            for &from in &self.read_nodes {
                self.g.edges.push(DddgEdge {
                    from,
                    to,
                    event: idx,
                });
            }
        }
    }

    /// The finished graph.
    pub fn finish(self) -> Dddg {
        self.g
    }
}

impl Dddg {
    /// Build the graph from the events of one region instance.
    pub fn from_slice(slice: TraceSlice<'_>) -> Self {
        let trace = slice.trace();
        let mut b = DddgBuilder::new();
        // Pre-size the dense tables: the id space is known here.
        b.latest = vec![NO_NODE; trace.num_locations()];
        b.written_at = vec![NO_NODE; trace.num_locations()];
        for (idx, view) in slice.iter() {
            let event = view.event();
            b.push(
                idx,
                view.read_ids(),
                event.write,
                event.line,
                trace.locations(),
            );
        }
        b.finish()
    }

    fn push_node(&mut self, node: DddgNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// All nodes.
    pub fn nodes(&self) -> &[DddgNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[DddgEdge] {
        &self.edges
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &DddgNode {
        &self.nodes[id.index()]
    }

    /// Input locations (root nodes): locations whose value was observed
    /// before any write inside the region, together with that value.
    pub fn inputs(&self) -> Vec<(Location, Value)> {
        let mut v: Vec<_> = self
            .roots
            .iter()
            .map(|&n| {
                let node = &self.nodes[n.index()];
                (node.location, node.value)
            })
            .collect();
        v.sort_by_key(|(l, _)| *l);
        v
    }

    /// Output locations as *leaves*: final versions of written locations
    /// whose node has no outgoing edge (nothing inside the region consumed
    /// them afterwards).  This is the classification available without
    /// looking past the region.
    pub fn leaf_outputs(&self) -> Vec<(Location, Value)> {
        let mut has_out = vec![false; self.nodes.len()];
        for e in &self.edges {
            has_out[e.from.index()] = true;
        }
        let mut v: Vec<_> = self
            .written_final
            .iter()
            .filter(|&&(_, n)| !has_out[n.index()])
            .map(|&(_, n)| {
                let node = &self.nodes[n.index()];
                (node.location, node.value)
            })
            .collect();
        v.sort_by_key(|(l, _)| *l);
        v
    }

    /// Output locations refined with the rest of the trace: written locations
    /// whose value is referenced again *after* the region instance ends.
    /// `later` must be the slice of events following the instance (of the
    /// same trace, so location ids agree).
    pub fn outputs_live_after(&self, later: TraceSlice<'_>) -> Vec<(Location, Value)> {
        let trace = later.trace();
        let mut used_later = vec![false; trace.num_locations()];
        for event in later.events() {
            for &(id, _) in trace.reads_of(event) {
                used_later[id.index()] = true;
            }
        }
        let mut v: Vec<_> = self
            .written_final
            .iter()
            .filter(|&&(id, _)| used_later.get(id.index()).copied().unwrap_or(false))
            .map(|&(_, n)| {
                let node = &self.nodes[n.index()];
                (node.location, node.value)
            })
            .collect();
        v.sort_by_key(|(l, _)| *l);
        v
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Render the graph in Graphviz DOT format.
    pub fn to_dot(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{title}\" {{");
        let _ = writeln!(s, "  rankdir=TB;");
        for (i, n) in self.nodes.iter().enumerate() {
            let shape = if n.def_event.is_none() {
                "ellipse"
            } else {
                "box"
            };
            let _ = writeln!(
                s,
                "  n{} [shape={shape}, label=\"{} v{}\\n{}\"];",
                i, n.location, n.version, n.value
            );
        }
        for e in &self.edges {
            let _ = writeln!(
                s,
                "  n{} -> n{} [label=\"e{}\"];",
                e.from.0, e.to.0, e.event
            );
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::{BinKind, FunctionId, ValueId};
    use ftkr_vm::{EventKind, ResolvedEvent, Trace};

    fn reg(v: u32) -> Location {
        Location::reg(FunctionId(0), 0, ValueId(v))
    }

    /// Every edge goes from an earlier-created node to a later-created one.
    fn is_acyclic(g: &Dddg) -> bool {
        g.edges().iter().all(|e| e.from < e.to)
    }

    fn ev(
        reads: Vec<(Location, Value)>,
        write: Option<(Location, Value)>,
        line: u32,
    ) -> ResolvedEvent {
        ResolvedEvent {
            func: FunctionId(0),
            frame: 0,
            inst: ValueId(0),
            line,
            kind: EventKind::Bin(BinKind::FAdd),
            reads,
            write,
        }
    }

    /// c = a + b; d = c * c; store d to m[7]
    fn sample_trace() -> Trace {
        Trace::from_resolved(vec![
            ev(
                vec![(reg(0), Value::F(1.0)), (reg(1), Value::F(2.0))],
                Some((reg(2), Value::F(3.0))),
                10,
            ),
            ev(
                vec![(reg(2), Value::F(3.0)), (reg(2), Value::F(3.0))],
                Some((reg(3), Value::F(9.0))),
                11,
            ),
            ev(
                vec![(reg(3), Value::F(9.0))],
                Some((Location::mem(7), Value::F(9.0))),
                12,
            ),
        ])
    }

    #[test]
    fn inputs_are_roots_and_outputs_are_leaves() {
        let t = sample_trace();
        let g = Dddg::from_slice(t.full());
        let inputs = g.inputs();
        assert_eq!(inputs.len(), 2);
        assert!(inputs
            .iter()
            .any(|(l, v)| *l == reg(0) && *v == Value::F(1.0)));
        assert!(inputs
            .iter()
            .any(|(l, v)| *l == reg(1) && *v == Value::F(2.0)));

        let leaves = g.leaf_outputs();
        assert_eq!(leaves, vec![(Location::mem(7), Value::F(9.0))]);

        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 2 + 2 + 1);
        assert!(is_acyclic(&g));
    }

    #[test]
    fn outputs_live_after_uses_the_remaining_trace() {
        // The sample region followed by a read of m[7]: it is an output;
        // nothing reads reg(3) afterwards.
        let mut events: Vec<ResolvedEvent> = vec![
            ev(
                vec![(reg(0), Value::F(1.0)), (reg(1), Value::F(2.0))],
                Some((reg(2), Value::F(3.0))),
                10,
            ),
            ev(
                vec![(reg(2), Value::F(3.0)), (reg(2), Value::F(3.0))],
                Some((reg(3), Value::F(9.0))),
                11,
            ),
            ev(
                vec![(reg(3), Value::F(9.0))],
                Some((Location::mem(7), Value::F(9.0))),
                12,
            ),
        ];
        events.push(ev(vec![(Location::mem(7), Value::F(9.0))], None, 20));
        let t = Trace::from_resolved(events);
        let g = Dddg::from_slice(t.slice(0, 3));
        let outs = g.outputs_live_after(t.slice(3, 4));
        assert_eq!(outs, vec![(Location::mem(7), Value::F(9.0))]);
        // Nothing read later => no outputs.
        assert!(g.outputs_live_after(t.slice(4, 4)).is_empty());
    }

    #[test]
    fn rewriting_a_location_bumps_versions() {
        let t = Trace::from_resolved(vec![
            ev(vec![], Some((Location::mem(0), Value::F(1.0))), 1),
            ev(vec![], Some((Location::mem(0), Value::F(2.0))), 2),
            ev(
                vec![(Location::mem(0), Value::F(2.0))],
                Some((reg(5), Value::F(2.0))),
                3,
            ),
        ]);
        let g = Dddg::from_slice(t.full());
        let versions: Vec<u32> = g
            .nodes()
            .iter()
            .filter(|n| n.location == Location::mem(0))
            .map(|n| n.version)
            .collect();
        assert_eq!(versions, vec![0, 1]);
        // m[0] was never read before being written => not an input.
        assert!(g.inputs().is_empty());
        // final value of m[0] is 2.0
        assert!(g.written_final.iter().any(|&(_, n)| {
            let node = &g.nodes()[n.index()];
            (node.location, node.value) == (Location::mem(0), Value::F(2.0))
        }));
    }

    #[test]
    fn dot_output_mentions_nodes_and_edges() {
        let t = sample_trace();
        let g = Dddg::from_slice(t.full());
        let dot = g.to_dot("region");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("n0 ->") || dot.contains("-> n2"));
        assert!(dot.contains("ellipse")); // roots
        assert!(dot.contains("box")); // defined nodes
    }

    #[test]
    fn empty_slice_produces_empty_graph() {
        let t = Trace::new();
        let g = Dddg::from_slice(t.full());
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.inputs().is_empty());
        assert!(g.leaf_outputs().is_empty());
        assert!(is_acyclic(&g));
    }
}
