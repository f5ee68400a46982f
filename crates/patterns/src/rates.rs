//! Pattern rates: how often each pattern's raw material occurs in a program.
//!
//! Use case 2 of the paper predicts an application's success rate from the
//! number of instances of each pattern normalized by the total number of
//! instructions (the *pattern rate*, Eq. 3).  Two flavours are provided:
//!
//! * [`static_rates`] counts structural occurrences in the IR (no execution
//!   needed) — comparisons, shifts, truncating conversions, short-lived
//!   temporaries, accumulation stores, and value-producing instructions;
//! * [`dynamic_rates`] counts the same categories over a dynamic trace, which
//!   weights each occurrence by how often it actually executes.

use std::collections::HashMap;

use ftkr_ir::{Function, Module, Op, Operand, OutputFormat};
use ftkr_vm::{EventKind, Trace};

/// Per-pattern occurrence rates (occurrences / total instructions).
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct PatternRates {
    /// Conditional statements (comparisons, selects, conditional branches).
    pub condition: f64,
    /// Shift operations.
    pub shift: f64,
    /// Truncating conversions and formatted (precision-losing) outputs.
    pub truncation: f64,
    /// Short-lived temporaries (frame allocations and single-use registers).
    pub dead_location: f64,
    /// Read-modify-write accumulation updates.
    pub repeated_addition: f64,
    /// Value-producing instructions (every one of them overwrites its
    /// destination with freshly computed data).
    pub overwrite: f64,
}

impl PatternRates {
    /// The rates as a feature vector in the fixed order used by the
    /// prediction model (condition, shift, truncation, dead location,
    /// repeated addition, overwrite).
    pub fn as_features(&self) -> [f64; 6] {
        [
            self.condition,
            self.shift,
            self.truncation,
            self.dead_location,
            self.repeated_addition,
            self.overwrite,
        ]
    }

    /// Feature names matching [`PatternRates::as_features`].
    pub fn feature_names() -> [&'static str; 6] {
        [
            "condition",
            "shift",
            "truncation",
            "dead_location",
            "repeated_addition",
            "overwrite",
        ]
    }
}

/// True when the store at `inst_index` in `func` updates a location it also
/// reads from — the static shape of the Repeated Additions pattern
/// (`u[i] = u[i] + ...`).
fn is_accumulation_store(func: &Function, store_value: Operand, store_addr: Operand) -> bool {
    // Walk the value operand's defining chain looking for a load whose
    // address expression shares a root with the store address.
    fn addr_root(func: &Function, op: Operand) -> Operand {
        match op {
            Operand::Value(v) => match &func.inst(v).op {
                Op::Gep { base, .. } => addr_root(func, *base),
                _ => op,
            },
            _ => op,
        }
    }
    fn chain_loads_from(func: &Function, op: Operand, root: Operand, depth: u32) -> bool {
        if depth > 16 {
            return false;
        }
        let Operand::Value(v) = op else {
            return false;
        };
        match &func.inst(v).op {
            Op::Load { addr } => addr_root(func, *addr) == root,
            Op::Bin { kind, lhs, rhs } if kind.is_additive() || kind.is_float() => {
                chain_loads_from(func, *lhs, root, depth + 1)
                    || chain_loads_from(func, *rhs, root, depth + 1)
            }
            Op::Cast { src, .. } => chain_loads_from(func, *src, root, depth + 1),
            _ => false,
        }
    }
    let root = addr_root(func, store_addr);
    chain_loads_from(func, store_value, root, 0)
}

/// Structural pattern rates over the whole module.
pub fn static_rates(module: &Module) -> PatternRates {
    let mut total = 0usize;
    let mut condition = 0usize;
    let mut shift = 0usize;
    let mut truncation = 0usize;
    let mut dead_location = 0usize;
    let mut repeated_addition = 0usize;
    let mut overwrite = 0usize;

    for func in &module.functions {
        // Static use counts to spot single-use temporaries.
        let mut uses: HashMap<u32, usize> = HashMap::new();
        for inst in &func.insts {
            for op in inst.op.operands() {
                if let Operand::Value(v) = op {
                    *uses.entry(v.0).or_insert(0) += 1;
                }
            }
        }
        for (id, inst) in func.iter_insts() {
            total += 1;
            match &inst.op {
                Op::Cmp { .. } | Op::Select { .. } | Op::CondBr { .. } => condition += 1,
                Op::Bin { kind, .. } if kind.is_shift() => shift += 1,
                Op::Cast { kind, .. } if kind.is_truncating() => truncation += 1,
                Op::Output { format, .. } if *format != OutputFormat::Full => truncation += 1,
                Op::Store { addr, value } if is_accumulation_store(func, *value, *addr) => {
                    repeated_addition += 1;
                }
                Op::Alloca { .. } => dead_location += 1,
                _ => {}
            }
            if inst.op.has_result() {
                overwrite += 1;
                if uses.get(&id.0).copied().unwrap_or(0) <= 1 {
                    dead_location += 1;
                }
            }
        }
    }

    let denom = total.max(1) as f64;
    PatternRates {
        condition: condition as f64 / denom,
        shift: shift as f64 / denom,
        truncation: truncation as f64 / denom,
        dead_location: dead_location as f64 / denom,
        repeated_addition: repeated_addition as f64 / denom,
        overwrite: overwrite as f64 / denom,
    }
}

/// Pattern rates over a dynamic trace (same categories, weighted by execution
/// frequency).  Marker events are excluded from the denominator.
pub fn dynamic_rates(module: &Module, trace: &Trace) -> PatternRates {
    let mut total = 0usize;
    let mut condition = 0usize;
    let mut shift = 0usize;
    let mut truncation = 0usize;
    let mut dead_location = 0usize;
    let mut repeated_addition = 0usize;
    let mut overwrite = 0usize;

    for (_, event) in trace.iter() {
        if event.kind.is_marker() {
            continue;
        }
        total += 1;
        match &event.kind {
            EventKind::Cmp { .. } | EventKind::Select | EventKind::CondBr { .. } => condition += 1,
            EventKind::Bin(kind) if kind.is_shift() => shift += 1,
            EventKind::Cast(kind) if kind.is_truncating() => truncation += 1,
            EventKind::Output { format } if *format != OutputFormat::Full => truncation += 1,
            EventKind::Alloca { .. } => dead_location += 1,
            EventKind::Store => {
                let func = module.function(event.func);
                if let Op::Store { addr, value } = &func.inst(event.inst).op {
                    if is_accumulation_store(func, *value, *addr) {
                        repeated_addition += 1;
                    }
                }
            }
            _ => {}
        }
        if event.write.is_some() {
            overwrite += 1;
        }
    }

    let denom = total.max(1) as f64;
    PatternRates {
        condition: condition as f64 / denom,
        shift: shift as f64 / denom,
        truncation: truncation as f64 / denom,
        dead_location: dead_location as f64 / denom,
        repeated_addition: repeated_addition as f64 / denom,
        overwrite: overwrite as f64 / denom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::prelude::*;
    use ftkr_ir::Global;
    use ftkr_vm::{Vm, VmConfig};

    /// A module with one of everything: a comparison, a shift, a truncating
    /// cast, a formatted output, and an accumulation store.
    fn mixed_module() -> Module {
        let mut m = Module::new("mixed");
        let g = m.add_global(Global::zeroed_f64("acc", 4));
        let mut b = FunctionBuilder::new("main");
        let gaddr = b.global_addr(g);
        let zero = b.const_i64(0);
        let n = b.const_i64(4);
        b.main_for("loop", zero, n, |b, i| {
            // accumulation: acc[i] = acc[i] + 1.5
            let cur = b.load_idx(gaddr, i);
            let next = b.fadd(cur, b.const_f64(1.5));
            b.store_idx(gaddr, i, next);
            // shift
            let s = b.lshr(i, b.const_i64(1));
            // comparison + select
            let c = b.icmp(CmpKind::Gt, s, b.const_i64(0));
            b.select(c, s, i);
            // truncation
            let t = b.fptosi(next);
            b.output(t, OutputFormat::Integer);
        });
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn static_rates_count_each_category() {
        let rates = static_rates(&mixed_module());
        assert!(rates.condition > 0.0);
        assert!(rates.shift > 0.0);
        assert!(rates.truncation > 0.0);
        assert!(rates.repeated_addition > 0.0);
        assert!(rates.dead_location > 0.0);
        assert!(rates.overwrite > 0.0 && rates.overwrite <= 1.0);
        // Rates are normalized by instruction count.
        for f in rates.as_features() {
            assert!(f <= 1.0 + 1e-12, "rate {f} exceeds 1");
        }
        assert_eq!(PatternRates::feature_names().len(), 6);
    }

    #[test]
    fn dynamic_rates_follow_execution_frequency() {
        let module = mixed_module();
        let trace = Vm::new(VmConfig::tracing())
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        let dynamic = dynamic_rates(&module, &trace);
        let statics = static_rates(&module);
        assert!(dynamic.shift > 0.0);
        assert!(dynamic.repeated_addition > 0.0);
        assert!(dynamic.condition > 0.0);
        // The loop body dominates the dynamic mix, so the dynamic shift rate
        // exceeds the static one (which is diluted by one-off setup code).
        assert!(dynamic.shift >= statics.shift * 0.5);
    }

    #[test]
    fn accumulation_detection_requires_matching_address_root() {
        let mut m = Module::new("noacc");
        let a = m.add_global(Global::zeroed_f64("a", 2));
        let b_g = m.add_global(Global::zeroed_f64("b", 2));
        let mut b = FunctionBuilder::new("main");
        let aaddr = b.global_addr(a);
        let baddr = b.global_addr(b_g);
        // b[0] = a[0] + 1.0  -- reads a different array, not an accumulation.
        let v = b.load(aaddr);
        let sum = b.fadd(v, b.const_f64(1.0));
        b.store(baddr, sum);
        b.ret(None);
        m.add_function(b.finish());
        assert_eq!(static_rates(&m).repeated_addition, 0.0);
    }

    #[test]
    fn empty_module_has_zero_rates() {
        let m = Module::new("empty");
        let rates = static_rates(&m);
        assert_eq!(rates.as_features(), [0.0; 6]);
    }
}
