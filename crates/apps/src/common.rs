//! Shared IR-building helpers used by the benchmark kernels.

use ftkr_ir::prelude::*;

/// Emit a linear congruential generator step: `seed = (a*seed + c) mod 2^31`,
/// returning a pseudo-random f64 in `[0, 1)`.  This replaces NPB's `randlc`
/// (the exact generator does not matter for resilience analysis; determinism
/// does, and an LCG in IR is deterministic and traceable).
pub fn emit_lcg_next(b: &mut FunctionBuilder, seed_slot: Operand) -> Operand {
    let seed = b.load(seed_slot);
    let a = b.const_i64(1_103_515_245);
    let c = b.const_i64(12_345);
    let mul = b.mul(seed, a);
    let add = b.add(mul, c);
    let mask = b.const_i64((1 << 31) - 1);
    let next = b.and(add, mask);
    b.store(seed_slot, next);
    let as_f = b.sitofp(next);
    let denom = b.const_f64((1u64 << 31) as f64);
    b.fdiv(as_f, denom)
}

/// Emit a dot product of two length-`n` arrays into a freshly allocated
/// accumulator; returns the scalar result.  The loop is a named region so it
/// can be selected for per-region analysis.
pub fn emit_dot_product(
    b: &mut FunctionBuilder,
    region: &str,
    x: Operand,
    y: Operand,
    n: i64,
) -> Operand {
    let acc = b.alloca(format!("{region}.acc"), 1);
    let zero_f = b.const_f64(0.0);
    b.store(acc, zero_f);
    let zero = b.const_i64(0);
    let end = b.const_i64(n);
    b.region_for(region, zero, end, |b, i| {
        let xv = b.load_idx(x, i);
        let yv = b.load_idx(y, i);
        let prod = b.fmul(xv, yv);
        let cur = b.load(acc);
        let next = b.fadd(cur, prod);
        b.store(acc, next);
    });
    b.load(acc)
}

/// Emit `y[i] = a*x[i] + y[i]` over `n` elements as a named region.
pub fn emit_axpy(
    b: &mut FunctionBuilder,
    region: &str,
    a: Operand,
    x: Operand,
    y: Operand,
    n: i64,
) {
    let zero = b.const_i64(0);
    let end = b.const_i64(n);
    b.region_for(region, zero, end, |b, i| {
        let xv = b.load_idx(x, i);
        let yv = b.load_idx(y, i);
        let ax = b.fmul(a, xv);
        let next = b.fadd(yv, ax);
        b.store_idx(y, i, next);
    });
}

/// Emit `Σ x[i]²` over `n` elements with a plain (non-region) inner loop —
/// the shape of every solver's verification norm.  Returns the scalar sum.
pub fn emit_sum_sq(b: &mut FunctionBuilder, loop_name: &str, x: Operand, n: i64) -> Operand {
    let acc = b.alloca(format!("{loop_name}.acc"), 1);
    let zf = b.const_f64(0.0);
    b.store(acc, zf);
    let zero = b.const_i64(0);
    let end = b.const_i64(n);
    b.for_loop(loop_name, LoopKind::Inner, zero, end, 1, |b, i| {
        let xi = b.load_idx(x, i);
        let sq = b.fmul(xi, xi);
        let cur = b.load(acc);
        let next = b.fadd(cur, sq);
        b.store(acc, next);
    });
    b.load(acc)
}

/// Emit `Σ (a[i] − c[i])²` over `n` elements with a plain inner loop — the
/// residual-norm shape of the LU/MG verification phases.  Returns the sum.
pub fn emit_sum_sq_diff(
    b: &mut FunctionBuilder,
    loop_name: &str,
    a: Operand,
    c: Operand,
    n: i64,
) -> Operand {
    let acc = b.alloca(format!("{loop_name}.acc"), 1);
    let zf = b.const_f64(0.0);
    b.store(acc, zf);
    let zero = b.const_i64(0);
    let end = b.const_i64(n);
    b.for_loop(loop_name, LoopKind::Inner, zero, end, 1, |b, i| {
        let av = b.load_idx(a, i);
        let cv = b.load_idx(c, i);
        let d = b.fsub(av, cv);
        let sq = b.fmul(d, d);
        let cur = b.load(acc);
        let next = b.fadd(cur, sq);
        b.store(acc, next);
    });
    b.load(acc)
}

/// Emit the flat index `row * n + col` of cell `(row, col)` of an `n × n`
/// grid stored row-major (the 2-D layout of the promoted BT/SP kernels).
pub fn emit_idx2(b: &mut FunctionBuilder, row: Operand, col: Operand, n: i64) -> Operand {
    let n_c = b.const_i64(n);
    let base = b.mul(row, n_c);
    b.add(base, col)
}

/// Emit a tridiagonal matrix-vector product `q = A p` where `A` has `diag` on
/// the diagonal and `off` on both off-diagonals (the standard 1-D Laplacian
/// shape used by the miniature CG and MG kernels).
pub fn emit_tridiag_matvec(
    b: &mut FunctionBuilder,
    region: &str,
    p: Operand,
    q: Operand,
    n: i64,
    diag: f64,
    off: f64,
) {
    let zero = b.const_i64(0);
    let end = b.const_i64(n);
    b.region_for(region, zero, end, |b, i| {
        let diag_c = b.const_f64(diag);
        let off_c = b.const_f64(off);
        let pi = b.load_idx(p, i);
        let acc0 = b.fmul(diag_c, pi);

        // left neighbour (guarded)
        let one = b.const_i64(1);
        let has_left = b.icmp(CmpKind::Gt, i, b.const_i64(0));
        let left_idx = b.sub(i, one);
        let zero_i = b.const_i64(0);
        let safe_left = b.select(has_left, left_idx, zero_i);
        let p_left = b.load_idx(p, safe_left);
        let left_term = b.fmul(off_c, p_left);
        let zero_f = b.const_f64(0.0);
        let left_contrib = b.select(has_left, left_term, zero_f);
        let acc1 = b.fadd(acc0, left_contrib);

        // right neighbour (guarded)
        let n_c = b.const_i64(n);
        let right_idx = b.add(i, one);
        let has_right = b.icmp(CmpKind::Lt, right_idx, n_c);
        let safe_right = b.select(has_right, right_idx, i);
        let p_right = b.load_idx(p, safe_right);
        let right_term = b.fmul(off_c, p_right);
        let right_contrib = b.select(has_right, right_term, zero_f);
        let acc2 = b.fadd(acc1, right_contrib);

        b.store_idx(q, i, acc2);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::Global;
    use ftkr_vm::{Vm, VmConfig};

    #[test]
    fn lcg_produces_values_in_unit_interval() {
        let mut m = Module::new("lcg");
        let out = m.add_global(Global::zeroed_f64("out", 8));
        let mut b = FunctionBuilder::new("main");
        let oaddr = b.global_addr(out);
        let seed = b.alloca("seed", 1);
        let init = b.const_i64(314_159);
        b.store(seed, init);
        let zero = b.const_i64(0);
        let eight = b.const_i64(8);
        b.main_for("gen", zero, eight, |b, i| {
            let v = emit_lcg_next(b, seed);
            b.store_idx(oaddr, i, v);
        });
        b.ret(None);
        m.add_function(b.finish());
        let r = Vm::new(VmConfig::default()).run(&m).unwrap();
        let vals = r.global_f64("out").unwrap();
        assert!(vals.iter().all(|&v| (0.0..1.0).contains(&v)));
        // Values differ from one another (not a constant generator).
        assert!(vals.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn dot_product_axpy_and_matvec_compute_correctly() {
        let n = 6;
        let mut m = Module::new("blas");
        let x = m.add_global(Global::with_f64("x", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let y = m.add_global(Global::with_f64("y", vec![1.0; 6]));
        let q = m.add_global(Global::zeroed_f64("q", 6));
        let out = m.add_global(Global::zeroed_f64("out", 2));
        let mut b = FunctionBuilder::new("main");
        let xaddr = b.global_addr(x);
        let yaddr = b.global_addr(y);
        let qaddr = b.global_addr(q);
        let oaddr = b.global_addr(out);
        let dot = emit_dot_product(&mut b, "dot", xaddr, yaddr, n);
        b.store(oaddr, dot);
        let two = b.const_f64(2.0);
        emit_axpy(&mut b, "axpy", two, xaddr, yaddr, n);
        let norm = emit_dot_product(&mut b, "norm", yaddr, yaddr, n);
        let one = b.const_i64(1);
        b.store_idx(oaddr, one, norm);
        emit_tridiag_matvec(&mut b, "matvec", xaddr, qaddr, n, 2.0, -1.0);
        b.ret(None);
        m.add_function(b.finish());

        let r = Vm::new(VmConfig::default()).run(&m).unwrap();
        assert!(r.outcome.is_completed());
        let out_vals = r.global_f64("out").unwrap();
        assert!((out_vals[0] - 21.0).abs() < 1e-12, "dot product");
        // y[i] = 1 + 2*x[i] => norm² = sum (1+2x)²
        let expected_norm: f64 = (1..=6).map(|v| (1.0 + 2.0 * v as f64).powi(2)).sum();
        assert!((out_vals[1] - expected_norm).abs() < 1e-9, "axpy+norm");
        // tridiagonal(2,-1) * [1..6]
        let qv = r.global_f64("q").unwrap();
        let x_host = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        for i in 0..6usize {
            let mut expect = 2.0 * x_host[i];
            if i > 0 {
                expect -= x_host[i - 1];
            }
            if i + 1 < 6 {
                expect -= x_host[i + 1];
            }
            assert!((qv[i] - expect).abs() < 1e-12, "matvec row {i}");
        }
    }
}
