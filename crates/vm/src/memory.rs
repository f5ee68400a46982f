//! Flat VM memory: globals followed by a downward-growing frame stack area.
//!
//! Addresses are cell indices (one cell = one 8-byte value).  Globals occupy
//! `[0, globals_len)`; `alloca` allocations live in `[globals_len,
//! globals_len + stack_top)` and are released when their frame returns, which
//! is what makes "temporal corrupted locations freed by returning functions"
//! (the KMEANS observation in the paper) visible to the liveness analyses.

use ftkr_ir::global::GlobalInit;
use ftkr_ir::Module;

use crate::value::Value;

/// Result of an address check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The address points outside all currently valid cells.
    OutOfBounds {
        /// Offending address.
        addr: u64,
    },
}

/// Flat memory with a global segment and a stack segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Memory {
    cells: Vec<Value>,
    globals_len: u64,
    stack_top: u64,
    max_cells: u64,
    /// Name, base address and size of every global (for snapshots/reports).
    global_map: Vec<(String, u64, u64)>,
}

impl Memory {
    /// Build memory for a module: lay out the globals and reserve a stack.
    pub fn for_module(module: &Module, max_cells: u64) -> Self {
        let mut cells = Vec::new();
        let mut global_map = Vec::new();
        for g in &module.globals {
            let base = cells.len() as u64;
            match &g.init {
                GlobalInit::ZeroI64 => {
                    cells.extend(std::iter::repeat_n(Value::I(0), g.size as usize))
                }
                GlobalInit::ZeroF64 => {
                    cells.extend(std::iter::repeat_n(Value::F(0.0), g.size as usize))
                }
                GlobalInit::I64(data) => cells.extend(data.iter().map(|&v| Value::I(v))),
                GlobalInit::F64(data) => cells.extend(data.iter().map(|&v| Value::F(v))),
            }
            global_map.push((g.name.clone(), base, g.size as u64));
        }
        let globals_len = cells.len() as u64;
        Memory {
            cells,
            globals_len,
            stack_top: 0,
            max_cells,
            global_map,
        }
    }

    /// Number of cells occupied by globals.
    pub fn globals_len(&self) -> u64 {
        self.globals_len
    }

    /// Current number of valid cells (globals + live stack).
    pub fn valid_len(&self) -> u64 {
        self.globals_len + self.stack_top
    }

    /// Approximate heap footprint of the memory image in bytes (cell slab +
    /// global map).  An estimate over inline struct sizes, for cache
    /// byte-budget accounting.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cells.len() * size_of::<Value>()
            + self
                .global_map
                .iter()
                .map(|(name, _, _)| name.len() + size_of::<(String, u64, u64)>())
                .sum::<usize>()
    }

    /// Base address and length of a global by name.
    pub fn global_extent(&self, name: &str) -> Option<(u64, u64)> {
        self.global_map
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, base, len)| (*base, *len))
    }

    /// Base address of every global, in module order (the order
    /// [`Memory::for_module`] lays them out in).
    pub fn global_bases(&self) -> impl Iterator<Item = u64> + '_ {
        self.global_map.iter().map(|&(_, base, _)| base)
    }

    /// Read the cell at `addr`.
    pub fn load(&self, addr: u64) -> Result<Value, MemError> {
        if addr < self.valid_len() {
            Ok(self.cells[addr as usize])
        } else {
            Err(MemError::OutOfBounds { addr })
        }
    }

    /// Write the cell at `addr`.
    pub fn store(&mut self, addr: u64, value: Value) -> Result<(), MemError> {
        if addr < self.valid_len() {
            self.cells[addr as usize] = value;
            Ok(())
        } else {
            Err(MemError::OutOfBounds { addr })
        }
    }

    /// Allocate `size` cells on the stack; returns the base address or `None`
    /// if the memory limit would be exceeded.
    pub fn alloca(&mut self, size: u64) -> Option<u64> {
        let base = self.valid_len();
        let new_valid = base + size;
        if new_valid > self.max_cells {
            return None;
        }
        if new_valid as usize > self.cells.len() {
            self.cells.resize(new_valid as usize, Value::I(0));
        } else {
            // Reused stack space must not leak values from dead frames.
            for cell in &mut self.cells[base as usize..new_valid as usize] {
                *cell = Value::I(0);
            }
        }
        self.stack_top += size;
        Some(base)
    }

    /// Current stack mark; pass it to [`Memory::release_to`] when the frame
    /// that called [`Memory::alloca`] returns.
    pub fn stack_mark(&self) -> u64 {
        self.stack_top
    }

    /// Release every allocation made after `mark` (frame return).
    pub fn release_to(&mut self, mark: u64) {
        debug_assert!(mark <= self.stack_top);
        self.stack_top = mark;
    }

    /// Copy the contents of a global into a vector of floats (lossy for
    /// integer cells).  Used by application verification phases.
    pub fn read_global_f64(&self, name: &str) -> Option<Vec<f64>> {
        let (base, len) = self.global_extent(name)?;
        Some(
            (base..base + len)
                .map(|a| self.cells[a as usize].to_f64_lossy())
                .collect(),
        )
    }

    /// Copy the contents of a global into a vector of integers (`None` cells
    /// holding floats are truncated).
    pub fn read_global_i64(&self, name: &str) -> Option<Vec<i64>> {
        let (base, len) = self.global_extent(name)?;
        Some(
            (base..base + len)
                .map(|a| match self.cells[a as usize] {
                    Value::I(v) => v,
                    Value::F(v) => v as i64,
                    Value::P(v) => v as i64,
                })
                .collect(),
        )
    }

    /// Raw read without bounds enforcement against the stack top (still
    /// bounded by the backing vector); used by fault injection to corrupt a
    /// cell irrespective of liveness.
    pub fn peek(&self, addr: u64) -> Option<Value> {
        self.cells.get(addr as usize).copied()
    }

    /// Raw write for fault injection; returns false if the cell has never
    /// existed.
    pub fn poke(&mut self, addr: u64, value: Value) -> bool {
        if let Some(cell) = self.cells.get_mut(addr as usize) {
            *cell = value;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::{Global, Module};

    fn module_with_globals() -> Module {
        let mut m = Module::new("m");
        m.add_global(Global::with_f64("u", vec![1.0, 2.0, 3.0]));
        m.add_global(Global::zeroed_i64("keys", 4));
        m
    }

    #[test]
    fn layout_places_globals_consecutively() {
        let mem = Memory::for_module(&module_with_globals(), 1024);
        assert_eq!(mem.globals_len(), 7);
        assert_eq!(mem.global_extent("u"), Some((0, 3)));
        assert_eq!(mem.global_extent("keys"), Some((3, 4)));
        assert_eq!(mem.load(1).unwrap(), Value::F(2.0));
        assert_eq!(mem.load(5).unwrap(), Value::I(0));
    }

    /// The bases come in module order: global `GlobalId(k)` is the `k`-th,
    /// whatever the names.
    #[test]
    fn global_bases_follow_module_order() {
        let mut m = module_with_globals();
        m.add_global(Global::zeroed_f64("a", 2));
        let mem = Memory::for_module(&m, 1024);
        let by_name: Vec<u64> = m
            .globals
            .iter()
            .map(|g| mem.global_extent(&g.name).unwrap().0)
            .collect();
        assert_eq!(mem.global_bases().collect::<Vec<_>>(), by_name);
        assert_eq!(by_name, [0, 3, 7]);
    }

    #[test]
    fn oob_access_is_reported() {
        let mut mem = Memory::for_module(&module_with_globals(), 1024);
        assert!(matches!(mem.load(100), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(
            mem.store(100, Value::I(1)),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn alloca_and_release_manage_the_stack() {
        let mut mem = Memory::for_module(&module_with_globals(), 1024);
        let mark = mem.stack_mark();
        let base = mem.alloca(8).unwrap();
        assert_eq!(base, 7);
        mem.store(base + 2, Value::F(9.0)).unwrap();
        assert_eq!(mem.load(base + 2).unwrap(), Value::F(9.0));
        mem.release_to(mark);
        assert!(mem.load(base + 2).is_err());
        // Re-allocating reuses and clears the cells.
        let base2 = mem.alloca(8).unwrap();
        assert_eq!(base2, base);
        assert_eq!(mem.load(base2 + 2).unwrap(), Value::I(0));
    }

    #[test]
    fn alloca_respects_the_memory_limit() {
        let mut mem = Memory::for_module(&module_with_globals(), 16);
        assert!(mem.alloca(8).is_some());
        assert!(mem.alloca(8).is_none());
    }

    #[test]
    fn global_snapshots() {
        let mem = Memory::for_module(&module_with_globals(), 1024);
        assert_eq!(mem.read_global_f64("u").unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(mem.read_global_i64("keys").unwrap(), vec![0, 0, 0, 0]);
        assert!(mem.read_global_f64("missing").is_none());
    }

    #[test]
    fn poke_and_peek_for_fault_injection() {
        let mut mem = Memory::for_module(&module_with_globals(), 1024);
        assert_eq!(mem.peek(0), Some(Value::F(1.0)));
        assert!(mem.poke(0, Value::F(-1.0)));
        assert_eq!(mem.peek(0), Some(Value::F(-1.0)));
        assert!(!mem.poke(10_000, Value::I(0)));
    }
}
