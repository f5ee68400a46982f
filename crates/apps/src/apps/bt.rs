//! NPB BT: an ADI (alternating direction implicit) solver on a 2-D grid.
//! Each main-loop iteration mirrors NPB BT's `adi()` call chain — compute the
//! right-hand side from the current solution, solve block-tridiagonal line
//! systems along the x direction, then along the y direction (Thomas
//! algorithm per line), and add the correction into the solution — giving the
//! four Table-I-style code regions `bt_rhs`, `bt_x_solve`, `bt_y_solve` and
//! `bt_add`.

use ftkr_ir::prelude::*;
use ftkr_ir::Global;

use crate::common::{emit_idx2, emit_sum_sq};
use crate::spec::{reference_f64, App, AppSize, Verifier};

/// Grid edge length and main-loop iteration count of one size class.
fn params(size: AppSize) -> (i64, i64) {
    match size {
        AppSize::Quick => (8, 4),
        AppSize::ClassW => (16, 6),
    }
}

/// Diagonal and off-diagonal of the per-line tridiagonal systems.
const DIAG: f64 = 2.5;
const OFF: f64 = -1.0;

/// Emit one direction's line solves as a named region: the region loop runs
/// over the `n` lines, and each line is solved in place in `x` with the
/// Thomas algorithm (`cp` is the per-line scratch for the modified upper
/// diagonal).  `addr_of` maps `(line, k)` to the flat cell index, which is
/// the only difference between the x and y directions.
fn emit_line_solves(
    b: &mut FunctionBuilder,
    region: &str,
    n: i64,
    x: Operand,
    cp: Operand,
    addr_of: impl Fn(&mut FunctionBuilder, Operand, Operand) -> Operand + Copy,
) {
    let zero = b.const_i64(0);
    let lines = b.const_i64(n);
    b.region_for(region, zero, lines, |b, line| {
        // Forward elimination along the line (in place: position k's input
        // is read before it is overwritten).
        let z = b.const_i64(0);
        let n_c = b.const_i64(n);
        b.for_loop(
            format!("{region}_fwd"),
            LoopKind::Inner,
            z,
            n_c,
            1,
            |b, k| {
                let first = b.icmp(CmpKind::Eq, k, b.const_i64(0));
                let k_prev_raw = b.sub(k, b.const_i64(1));
                let zero_i = b.const_i64(0);
                let k_prev = b.select(first, zero_i, k_prev_raw);
                let addr = addr_of(b, line, k);
                let prev_addr = addr_of(b, line, k_prev);
                let cp_prev = b.load_idx(cp, k_prev);
                let off_c = b.const_f64(OFF);
                let sub = b.fmul(off_c, cp_prev);
                let zf = b.const_f64(0.0);
                let adj = b.select(first, zf, sub);
                let d = b.const_f64(DIAG);
                let denom = b.fsub(d, adj);
                let num = b.const_f64(OFF);
                let cpk = b.fdiv(num, denom);
                b.store_idx(cp, k, cpk);
                let rv = b.load_idx(x, addr);
                let x_prev = b.load_idx(x, prev_addr);
                let corr_raw = b.fmul(off_c, x_prev);
                let corr = b.select(first, zf, corr_raw);
                let numx = b.fsub(rv, corr);
                let xk = b.fdiv(numx, denom);
                b.store_idx(x, addr, xk);
            },
        );
        // Back substitution.
        let z2 = b.const_i64(0);
        let n_back = b.const_i64(n - 1);
        b.for_loop(
            format!("{region}_back"),
            LoopKind::Inner,
            z2,
            n_back,
            1,
            |b, j| {
                let i = b.sub(b.const_i64(n - 2), j);
                let next = b.add(i, b.const_i64(1));
                let addr = addr_of(b, line, i);
                let next_addr = addr_of(b, line, next);
                let cpi = b.load_idx(cp, i);
                let xn = b.load_idx(x, next_addr);
                let xi = b.load_idx(x, addr);
                let corr = b.fmul(cpi, xn);
                let new = b.fsub(xi, corr);
                b.store_idx(x, addr, new);
            },
        );
    });
}

struct BtGlobals {
    u: GlobalId,
    forcing: GlobalId,
    x: GlobalId,
    cp: GlobalId,
    verify: GlobalId,
}

/// `adi`: one alternating-direction step over the globals, structured as
/// four regions (NPB BT's `compute_rhs → x_solve → y_solve → add`).
fn build_adi(module: &mut Module, ids: &BtGlobals, n: i64) {
    let cells = n * n;
    let mut b = FunctionBuilder::new("adi");
    let u = b.global_addr(ids.u);
    let forcing = b.global_addr(ids.forcing);
    let x = b.global_addr(ids.x);
    let cp = b.global_addr(ids.cp);

    // bt_rhs: right-hand side from the current solution plus the forcing.
    b.set_line(300);
    let zero = b.const_i64(0);
    let cells_c = b.const_i64(cells);
    b.region_for("bt_rhs", zero, cells_c, |b, c| {
        let uc = b.load_idx(u, c);
        let fc = b.load_idx(forcing, c);
        let rc = b.fadd(uc, fc);
        b.store_idx(x, c, rc);
    });

    // bt_x_solve: Thomas solves along every row (stride 1).
    b.set_line(310);
    emit_line_solves(&mut b, "bt_x_solve", n, x, cp, |b, line, k| {
        emit_idx2(b, line, k, n)
    });

    // bt_y_solve: Thomas solves along every column (stride n).
    b.set_line(320);
    emit_line_solves(&mut b, "bt_y_solve", n, x, cp, |b, line, k| {
        emit_idx2(b, k, line, n)
    });

    // bt_add: fold the correction into the solution.
    b.set_line(330);
    let z2 = b.const_i64(0);
    let cells2 = b.const_i64(cells);
    b.region_for("bt_add", z2, cells2, |b, c| {
        let xc = b.load_idx(x, c);
        let scale = b.const_f64(0.2);
        let dc = b.fmul(scale, xc);
        let uc = b.load_idx(u, c);
        let u2 = b.fadd(uc, dc);
        b.store_idx(u, c, u2);
    });
    b.set_line(338);
    b.ret(None);
    module.add_function(b.finish());
}

fn build_module(n: i64, niter: i64) -> Module {
    let cells = n * n;
    let mut m = Module::new("bt");
    let ids = BtGlobals {
        u: m.add_global(Global::with_f64(
            "u",
            (0..cells).map(|c| 1.0 + 0.1 * (c % 7) as f64).collect(),
        )),
        forcing: m.add_global(Global::with_f64(
            "forcing",
            (0..cells).map(|c| (c as f64 * 0.31).sin() * 0.5).collect(),
        )),
        x: m.add_global(Global::zeroed_f64("x", cells as u32)),
        cp: m.add_global(Global::zeroed_f64("cprime", n as u32)),
        verify: m.add_global(Global::zeroed_f64("verify", 1)),
    };
    build_adi(&mut m, &ids, n);

    let mut b = FunctionBuilder::new("main");
    let u = b.global_addr(ids.u);
    let verify = b.global_addr(ids.verify);

    // Main loop: one ADI step per iteration.
    b.set_line(100);
    let zero = b.const_i64(0);
    let niter_c = b.const_i64(niter);
    b.main_for("bt_main", zero, niter_c, |b, _it| {
        b.call("adi", vec![]);
    });

    // Verification: the L2 norm of the final solution against the
    // fault-free reference value.
    b.set_line(120);
    let total = emit_sum_sq(&mut b, "bt_verify", u, cells);
    let norm = b.sqrt(total);
    b.store(verify, norm);
    b.output(norm, OutputFormat::Scientific(8));
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// The BT benchmark at a chosen problem size.
pub fn bt_sized(size: AppSize) -> App {
    let (n, niter) = params(size);
    let module = build_module(n, niter);
    let expected = reference_f64(&module, "verify", 0);
    App {
        name: "BT",
        module,
        regions: vec![
            "bt_rhs".into(),
            "bt_x_solve".into(),
            "bt_y_solve".into(),
            "bt_add".into(),
        ],
        main_loop: "bt_main",
        main_iterations: niter as usize,
        verifier: Verifier::GlobalClose {
            global: "verify",
            index: 0,
            expected,
            rel_tol: 1e-8,
        },
        size,
    }
}

/// The BT benchmark (quick size — the registry default).
pub fn bt() -> App {
    bt_sized(AppSize::Quick)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_vm::{Vm, VmConfig};

    #[test]
    fn bt_verifies_and_stays_finite() {
        let app = bt();
        let result = app.run_clean();
        assert!(app.verify(&result));
        let u = result.global_f64("u").unwrap();
        assert!(u.iter().all(|v| v.is_finite()));
        let norm = result.global_f64("verify").unwrap()[0];
        assert!(norm.is_finite() && norm > 0.0);
    }

    #[test]
    fn bt_line_solves_actually_solve_the_tridiagonal_system() {
        // After one adi call, the x array holds A_y⁻¹ A_x⁻¹ (u + f); check
        // the y-direction solve by verifying A_y · x equals the x-solve
        // output recomputed on the host.
        let app = bt();
        let (n, _) = params(AppSize::Quick);
        let module = &app.module;
        // Run a single adi step by truncating the main loop: easiest is to
        // recompute on the host from the initial globals.
        let result = Vm::new(VmConfig::default()).run(module).unwrap();
        assert!(result.outcome.is_completed());
        // Host model of one full run: same ADI steps on the host.
        let cells = (n * n) as usize;
        let mut u: Vec<f64> = (0..cells).map(|c| 1.0 + 0.1 * (c % 7) as f64).collect();
        let f: Vec<f64> = (0..cells).map(|c| (c as f64 * 0.31).sin() * 0.5).collect();
        let solve_line = |x: &mut Vec<f64>, base: usize, stride: usize, n: usize| {
            let mut cp = vec![0.0; n];
            for k in 0..n {
                let denom = if k == 0 { DIAG } else { DIAG - OFF * cp[k - 1] };
                cp[k] = OFF / denom;
                let prev = if k == 0 {
                    0.0
                } else {
                    OFF * x[base + (k - 1) * stride]
                };
                x[base + k * stride] = (x[base + k * stride] - prev) / denom;
            }
            for i in (0..n - 1).rev() {
                let next = x[base + (i + 1) * stride];
                x[base + i * stride] -= cp[i] * next;
            }
        };
        for _ in 0..app.main_iterations {
            let mut x: Vec<f64> = u.iter().zip(&f).map(|(a, b)| a + b).collect();
            for line in 0..n as usize {
                solve_line(&mut x, line * n as usize, 1, n as usize);
            }
            for line in 0..n as usize {
                solve_line(&mut x, line, n as usize, n as usize);
            }
            for c in 0..cells {
                u[c] += 0.2 * x[c];
            }
        }
        let vm_u = result.global_f64("u").unwrap();
        for c in 0..cells {
            assert!(
                (vm_u[c] - u[c]).abs() <= 1e-9 * u[c].abs().max(1.0),
                "cell {c}: vm {} vs host {}",
                vm_u[c],
                u[c]
            );
        }
    }

    #[test]
    fn class_w_bt_preserves_the_region_set() {
        let quick = bt();
        let big = bt_sized(AppSize::ClassW);
        assert_eq!(quick.regions, big.regions);
        let result = big.run_clean();
        assert!(big.verify(&result));
    }
}
