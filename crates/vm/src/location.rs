//! Data locations: registers and memory cells.
//!
//! The paper uses *location* to cover "either a register location or a memory
//! location".  Registers are SSA values of a particular dynamic function
//! invocation (the same static register in two invocations of `conj_grad` is
//! two different locations), memory cells are 8-byte slots in the VM's flat
//! address space.

use serde::{Deserialize, Serialize};

use ftkr_ir::{FunctionId, ValueId};

/// A data location that can hold a (possibly corrupted) value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Location {
    /// An SSA register of one dynamic function invocation.
    Reg {
        /// Which function the register belongs to.
        func: FunctionId,
        /// Dynamic invocation number (global call counter).
        frame: u32,
        /// Which instruction defines the register.
        value: ValueId,
    },
    /// One 8-byte cell of VM memory (globals or stack).
    Mem {
        /// Cell address.
        addr: u64,
    },
}

impl Location {
    /// Shorthand constructor for a register location.
    pub fn reg(func: FunctionId, frame: u32, value: ValueId) -> Self {
        Location::Reg { func, frame, value }
    }

    /// Shorthand constructor for a memory location.
    pub fn mem(addr: u64) -> Self {
        Location::Mem { addr }
    }

    /// True for memory locations.
    pub fn is_mem(&self) -> bool {
        matches!(self, Location::Mem { .. })
    }

    /// Memory address, if this is a memory location.
    pub fn mem_addr(&self) -> Option<u64> {
        match self {
            Location::Mem { addr } => Some(*addr),
            _ => None,
        }
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Location::Reg { func, frame, value } => {
                write!(f, "r{}#{}:{}", func.0, frame, value)
            }
            Location::Mem { addr } => write!(f, "m[{addr}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let r = Location::reg(FunctionId(1), 7, ValueId(3));
        let m = Location::mem(42);
        assert!(!r.is_mem());
        assert!(m.is_mem());
        assert_eq!(m.mem_addr(), Some(42));
        assert_eq!(r.mem_addr(), None);
        assert_eq!(format!("{m}"), "m[42]");
        assert!(format!("{r}").contains("%3"));
    }

    #[test]
    fn locations_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(Location::mem(1));
        s.insert(Location::mem(1));
        s.insert(Location::reg(FunctionId(0), 0, ValueId(0)));
        assert_eq!(s.len(), 2);
    }
}
