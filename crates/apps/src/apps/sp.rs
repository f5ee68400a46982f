//! NPB SP: scalar-pentadiagonal-style smoothing sweeps on a 2-D grid.  Each
//! main-loop iteration mirrors NPB SP's ADI structure — compute the working
//! copy of the solution, apply the fourth-difference (five-point) filter
//! along the x direction, then along the y direction, and fold the smoothed
//! field back into the solution — giving the four Table-I-style code regions
//! `sp_rhs`, `sp_xsweep`, `sp_ysweep` and `sp_add`.

use ftkr_ir::prelude::*;
use ftkr_ir::Global;

use crate::common::{emit_idx2, emit_sum_sq};
use crate::spec::{reference_f64, App, AppSize, Verifier};

/// Grid edge length and main-loop iteration count of one size class.
fn params(size: AppSize) -> (i64, i64) {
    match size {
        AppSize::Quick => (8, 5),
        AppSize::ClassW => (16, 8),
    }
}

/// The five-point fourth-difference filter weights (outer, inner, centre).
const C_OUT: f64 = 0.0625;
const C_IN: f64 = 0.25;
const C_MID: f64 = 0.375;

/// Emit one direction's smoothing sweep as a named region: the region loop
/// runs over the `n` lines, the inner loop over the interior positions
/// `2..n-2` of each line; `addr_of` maps `(line, k)` to the flat cell index.
fn emit_smooth_sweep(
    b: &mut FunctionBuilder,
    region: &str,
    n: i64,
    src: Operand,
    dst: Operand,
    addr_of: impl Fn(&mut FunctionBuilder, Operand, Operand) -> Operand + Copy,
) {
    let zero = b.const_i64(0);
    let lines = b.const_i64(n);
    b.region_for(region, zero, lines, |b, line| {
        let two = b.const_i64(2);
        let hi = b.const_i64(n - 2);
        b.for_loop(
            format!("{region}_line"),
            LoopKind::Inner,
            two,
            hi,
            1,
            |b, k| {
                let m2 = b.sub(k, b.const_i64(2));
                let m1 = b.sub(k, b.const_i64(1));
                let p1 = b.add(k, b.const_i64(1));
                let p2 = b.add(k, b.const_i64(2));
                let a_m2 = addr_of(b, line, m2);
                let a_m1 = addr_of(b, line, m1);
                let a_c = addr_of(b, line, k);
                let a_p1 = addr_of(b, line, p1);
                let a_p2 = addr_of(b, line, p2);
                let um2 = b.load_idx(src, a_m2);
                let um1 = b.load_idx(src, a_m1);
                let uc = b.load_idx(src, a_c);
                let up1 = b.load_idx(src, a_p1);
                let up2 = b.load_idx(src, a_p2);
                let c_out = b.const_f64(C_OUT);
                let c_in = b.const_f64(C_IN);
                let c_mid = b.const_f64(C_MID);
                let s1 = b.fmul(c_out, um2);
                let s2 = b.fmul(c_in, um1);
                let s3 = b.fmul(c_mid, uc);
                let s4 = b.fmul(c_in, up1);
                let s5 = b.fmul(c_out, up2);
                let a1 = b.fadd(s1, s2);
                let a2 = b.fadd(a1, s3);
                let a3 = b.fadd(a2, s4);
                let a4 = b.fadd(a3, s5);
                b.store_idx(dst, a_c, a4);
            },
        );
    });
}

struct SpGlobals {
    u: GlobalId,
    tmp: GlobalId,
    tmp2: GlobalId,
    verify: GlobalId,
}

/// `smooth`: one alternating-direction smoothing step over the globals,
/// structured as four regions.
fn build_smooth(module: &mut Module, ids: &SpGlobals, n: i64) {
    let cells = n * n;
    let mut b = FunctionBuilder::new("smooth");
    let u = b.global_addr(ids.u);
    let tmp = b.global_addr(ids.tmp);
    let tmp2 = b.global_addr(ids.tmp2);

    // sp_rhs: working copies of the solution (both scratch grids, so the
    // untouched edge cells carry the current solution through the sweeps).
    b.set_line(400);
    let zero = b.const_i64(0);
    let cells_c = b.const_i64(cells);
    b.region_for("sp_rhs", zero, cells_c, |b, c| {
        let uc = b.load_idx(u, c);
        b.store_idx(tmp, c, uc);
        b.store_idx(tmp2, c, uc);
    });

    // sp_xsweep: smooth along rows, tmp → tmp2 (interior columns).
    b.set_line(410);
    emit_smooth_sweep(&mut b, "sp_xsweep", n, tmp, tmp2, |b, line, k| {
        emit_idx2(b, line, k, n)
    });

    // sp_ysweep: smooth along columns, tmp2 → tmp (interior rows).
    b.set_line(420);
    emit_smooth_sweep(&mut b, "sp_ysweep", n, tmp2, tmp, |b, line, k| {
        emit_idx2(b, k, line, n)
    });

    // sp_add: fold the smoothed field back into the solution, slightly
    // damped (the dissipation NPB SP's add phase applies).
    b.set_line(430);
    let z2 = b.const_i64(0);
    let cells2 = b.const_i64(cells);
    b.region_for("sp_add", z2, cells2, |b, c| {
        let tc = b.load_idx(tmp, c);
        let damp = b.const_f64(0.98);
        let next = b.fmul(damp, tc);
        b.store_idx(u, c, next);
    });
    b.set_line(438);
    b.ret(None);
    module.add_function(b.finish());
}

fn build_module(n: i64, niter: i64) -> Module {
    let cells = n * n;
    let mut m = Module::new("sp");
    let ids = SpGlobals {
        u: m.add_global(Global::with_f64(
            "u",
            (0..cells).map(|c| (c as f64 * 0.7).cos()).collect(),
        )),
        tmp: m.add_global(Global::zeroed_f64("tmp", cells as u32)),
        tmp2: m.add_global(Global::zeroed_f64("tmp2", cells as u32)),
        verify: m.add_global(Global::zeroed_f64("verify", 1)),
    };
    build_smooth(&mut m, &ids, n);

    let mut b = FunctionBuilder::new("main");
    let u = b.global_addr(ids.u);
    let verify = b.global_addr(ids.verify);

    // Main loop: one alternating-direction smoothing step per iteration.
    b.set_line(100);
    let zero = b.const_i64(0);
    let niter_c = b.const_i64(niter);
    b.main_for("sp_main", zero, niter_c, |b, _it| {
        b.call("smooth", vec![]);
    });

    // Verification: the energy of the smoothed field against the fault-free
    // reference value.
    b.set_line(120);
    let total = emit_sum_sq(&mut b, "sp_verify", u, cells);
    b.store(verify, total);
    b.output(total, OutputFormat::Scientific(8));
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// The SP benchmark at a chosen problem size.
pub fn sp_sized(size: AppSize) -> App {
    let (n, niter) = params(size);
    let module = build_module(n, niter);
    let expected = reference_f64(&module, "verify", 0);
    App {
        name: "SP",
        module,
        regions: vec![
            "sp_rhs".into(),
            "sp_xsweep".into(),
            "sp_ysweep".into(),
            "sp_add".into(),
        ],
        main_loop: "sp_main",
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

/// The SP benchmark (quick size — the registry default).
pub fn sp() -> App {
    sp_sized(AppSize::Quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_smoothing_dissipates_energy() {
        let app = sp();
        let result = app.run_clean();
        assert!(app.verify(&result));
        let energy = result.global_f64("verify").unwrap()[0];
        let (n, _) = params(AppSize::Quick);
        let initial: f64 = (0..n * n).map(|c| (c as f64 * 0.7).cos().powi(2)).sum();
        assert!(energy < initial, "smoothing must dissipate energy");
        assert!(energy > 0.0, "the field must not vanish entirely");
    }

    #[test]
    fn sp_has_the_four_adi_regions() {
        let app = sp();
        assert_eq!(
            app.regions,
            vec!["sp_rhs", "sp_xsweep", "sp_ysweep", "sp_add"]
        );
        assert!(app.module.function_by_name("smooth").is_some());
    }

    #[test]
    fn class_w_sp_preserves_the_region_set() {
        let quick = sp();
        let big = sp_sized(AppSize::ClassW);
        assert_eq!(quick.regions, big.regions);
        let result = big.run_clean();
        assert!(big.verify(&result));
        assert!(result.steps > quick.run_clean().steps * 2);
    }
}
