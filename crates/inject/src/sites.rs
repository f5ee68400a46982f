//! Enumeration of fault-injection sites from a fault-free trace.

use serde::{Deserialize, Serialize};

use ftkr_vm::{FaultSpec, Location, Trace};

/// Whether a site corrupts a region's input data or its internal computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TargetClass {
    /// Input locations of a code-region instance (corrupted at region entry).
    Input,
    /// Internal locations: results produced while the region executes.
    Internal,
}

/// One place a bit flip can strike (the bit itself is chosen at injection
/// time, so the site population size is `sites × 64`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSite {
    /// Dynamic instruction index at which the fault strikes.
    pub at_step: u64,
    /// Memory cell to corrupt, or `None` to corrupt the instruction's result.
    pub mem_addr: Option<u64>,
    /// Classification of the site.
    pub class: TargetClass,
}

impl FaultSite {
    /// Concretize the site into a [`FaultSpec`] for a specific bit.
    pub fn with_bit(&self, bit: u8) -> FaultSpec {
        match self.mem_addr {
            Some(addr) => FaultSpec::in_memory(self.at_step, addr, bit),
            None => FaultSpec::in_result(self.at_step, bit),
        }
    }
}

/// Sites corrupting the *input locations* of a code-region instance: every
/// memory cell among `inputs` is corrupted right when the instance begins
/// (dynamic step `region_start`).  Register inputs are realized through the
/// memory cells they were loaded from, so memory cells cover the input state
/// of the kernels this suite ships.
pub fn input_sites(region_start: usize, inputs: &[(Location, ftkr_vm::Value)]) -> Vec<FaultSite> {
    inputs
        .iter()
        .filter_map(|(loc, _)| loc.mem_addr())
        .map(|addr| FaultSite {
            at_step: region_start as u64,
            mem_addr: Some(addr),
            class: TargetClass::Input,
        })
        .collect()
}

/// Sites corrupting *internal* computation: the result of every
/// value-producing dynamic instruction in event range `[start, end)` of the
/// fault-free trace.  `at_step` is the *absolute* dynamic step
/// ([`Trace::step_of`]), so a trace resumed from a snapshot
/// ([`Trace::base_step`] > 0) produces the same sites as the corresponding
/// slice of a full trace.
pub fn internal_sites(trace: &Trace, start: usize, end: usize) -> Vec<FaultSite> {
    let end = end.min(trace.len());
    (start..end)
        .filter(|&i| trace.events[i].write.is_some())
        .map(|i| FaultSite {
            at_step: trace.step_of(i),
            mem_addr: None,
            class: TargetClass::Internal,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::{BinKind, FunctionId, ValueId};
    use ftkr_vm::{EventKind, FaultTarget, ResolvedEvent, Value};

    fn ev(write: Option<(Location, Value)>) -> ResolvedEvent {
        ResolvedEvent {
            func: FunctionId(0),
            frame: 0,
            inst: ValueId(0),
            line: 1,
            kind: EventKind::Bin(BinKind::Add),
            reads: vec![],
            write,
        }
    }

    #[test]
    fn input_sites_only_cover_memory_locations() {
        let inputs = vec![
            (Location::mem(10), Value::F(1.0)),
            (Location::reg(FunctionId(0), 0, ValueId(3)), Value::F(2.0)),
            (Location::mem(11), Value::F(3.0)),
        ];
        let sites = input_sites(42, &inputs);
        assert_eq!(sites.len(), 2);
        assert!(sites.iter().all(|s| s.class == TargetClass::Input));
        assert!(sites.iter().all(|s| s.at_step == 42));
        let spec = sites[0].with_bit(7);
        assert_eq!(spec.bit, 7);
        assert!(matches!(spec.target, FaultTarget::MemoryCell { addr: 10 }));
    }

    #[test]
    fn internal_sites_skip_void_instructions() {
        let trace = Trace::from_resolved(vec![
            ev(Some((Location::mem(0), Value::I(1)))),
            ev(None),
            ev(Some((Location::mem(1), Value::I(2)))),
        ]);
        let sites = internal_sites(&trace, 0, 3);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].at_step, 0);
        assert_eq!(sites[1].at_step, 2);
        assert!(matches!(
            sites[0].with_bit(0).target,
            FaultTarget::InstructionResult
        ));
        // Ranges are clipped to the trace length.
        assert_eq!(internal_sites(&trace, 2, 100).len(), 1);
        assert!(internal_sites(&trace, 3, 3).is_empty());
    }
}
