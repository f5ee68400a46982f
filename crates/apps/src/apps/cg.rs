//! Miniature NPB CG: conjugate gradient on a 1-D Laplacian, with the region
//! structure (`cg_a` … `cg_e`) the paper analyses and the two
//! pattern-hardened variants used in Use Case 1 (Table III).

use ftkr_ir::prelude::*;
use ftkr_ir::Global;

use crate::common::{emit_axpy, emit_dot_product, emit_lcg_next, emit_tridiag_matvec};
use crate::spec::{reference_f64, App, AppSize, Verifier};

/// Problem size of the miniature kernel.
pub const N: i64 = 24;
/// Number of scratch entries used by `sprnvc` (NPB's NONZER+1).
pub const NONZER: i64 = 8;
/// Main-loop (power-method) iterations.
pub const NITER: i64 = 6;

/// Which resilience patterns are applied to the CG source (Use Case 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CgVariant {
    /// Replace the global scratch arrays in `sprnvc` with function-local
    /// temporaries plus a copy-back (Dead Corrupted Locations + Data
    /// Overwriting, Figure 12 of the paper).
    pub temp_scratch: bool,
    /// Reduce the precision of part of the `p·q` reduction (the Truncation
    /// pattern, Figure 13; the paper narrows ten loop iterations).
    pub truncation: bool,
}

impl CgVariant {
    /// The unmodified benchmark.
    pub fn original() -> Self {
        CgVariant::default()
    }

    /// Both hardenings applied ("All together" in Table III).
    pub fn all() -> Self {
        CgVariant {
            temp_scratch: true,
            truncation: true,
        }
    }
}

/// `sprnvc`: fill the scratch vector `v`/`iv` with pseudo-random values, as
/// NPB CG does while constructing its sparse matrix.  The original writes two
/// *global* scratch arrays; the hardened variant works on local temporaries
/// and copies back at the end (Figure 12 of the paper).
fn build_sprnvc(module: &mut Module, variant: CgVariant, v: GlobalId, iv: GlobalId) {
    let mut b = FunctionBuilder::new("sprnvc");
    b.set_line(1);
    let v_glob = b.global_addr(v);
    let iv_glob = b.global_addr(iv);
    let seed = b.alloca("seed", 1);
    let seed0 = b.const_i64(271_828);
    b.store(seed, seed0);

    // Hardened: work on temporaries, then copy back (DCL + overwriting).
    let (v_dst, iv_dst) = if variant.temp_scratch {
        b.set_line(4);
        let v_tmp = b.alloca("v_tmp", NONZER as u32);
        let iv_tmp = b.alloca("iv_tmp", NONZER as u32);
        (v_tmp, iv_tmp)
    } else {
        (v_glob, iv_glob)
    };

    b.set_line(10);
    let zero = b.const_i64(0);
    let nz = b.const_i64(NONZER);
    b.for_loop("sprnvc_gen", LoopKind::Inner, zero, nz, 1, |b, i| {
        b.set_line(12);
        let vecelt = emit_lcg_next(b, seed);
        let vecloc = emit_lcg_next(b, seed);
        b.set_line(14);
        let scaled = b.fmul(vecloc, b.const_f64(N as f64));
        let idx = b.fptosi(scaled);
        b.set_line(24);
        b.store_idx(v_dst, i, vecelt);
        b.set_line(25);
        b.store_idx(iv_dst, i, idx);
    });

    if variant.temp_scratch {
        b.set_line(28);
        let zero2 = b.const_i64(0);
        let nz2 = b.const_i64(NONZER);
        b.for_loop("sprnvc_copyback", LoopKind::Inner, zero2, nz2, 1, |b, i| {
            let vv = b.load_idx(v_dst, i);
            b.store_idx(v_glob, i, vv);
            let ivv = b.load_idx(iv_dst, i);
            b.store_idx(iv_glob, i, ivv);
        });
    }
    b.set_line(32);
    b.ret(None);
    module.add_function(b.finish());
}

/// One conjugate-gradient step over the globals (`conj_grad` in NPB),
/// structured as the five code regions of Table I.
fn build_conj_grad(module: &mut Module, variant: CgVariant, ids: &CgGlobals) {
    let mut b = FunctionBuilder::new("conj_grad");
    let p = b.global_addr(ids.p);
    let q = b.global_addr(ids.q);
    let r = b.global_addr(ids.r);
    let z = b.global_addr(ids.z);
    let scalars = b.global_addr(ids.scalars);

    // cg_a: q = A p
    b.set_line(434);
    emit_tridiag_matvec(&mut b, "cg_a", p, q, N, 2.0, -1.0);

    // cg_b: d = p·q, alpha = rho / d
    b.set_line(440);
    let d = if variant.truncation {
        // Hardened variant: a band of the reduction runs at reduced
        // precision; CG's iterative structure absorbs the precision loss.
        let acc = b.alloca("cg_b.acc", 1);
        let zf = b.const_f64(0.0);
        b.store(acc, zf);
        let zero = b.const_i64(0);
        let end = b.const_i64(N);
        b.region_for("cg_b", zero, end, |b, j| {
            let lo = b.const_i64(10);
            let hi = b.const_i64(20);
            let ge = b.icmp(CmpKind::Ge, j, lo);
            let lt = b.icmp(CmpKind::Lt, j, hi);
            let in_band = b.and(ge, lt);
            let pj = b.load_idx(p, j);
            let qj = b.load_idx(q, j);
            b.set_line(508);
            let pj_t = b.fpround32(pj);
            let qj_t = b.fpround32(qj);
            let prod_trunc = b.fmul(pj_t, qj_t);
            let prod_full = b.fmul(pj, qj);
            let prod = b.select(in_band, prod_trunc, prod_full);
            let cur = b.load(acc);
            let next = b.fadd(cur, prod);
            b.store(acc, next);
        });
        b.load(acc)
    } else {
        emit_dot_product(&mut b, "cg_b", p, q, N)
    };
    b.set_line(453);
    let rho = b.load(scalars);
    let alpha = b.fdiv(rho, d);

    // cg_c: z = z + alpha p ; r = r − alpha q
    b.set_line(454);
    emit_axpy(&mut b, "cg_c", alpha, p, z, N);
    let neg_alpha = b.fsub(b.const_f64(0.0), alpha);
    emit_axpy(&mut b, "cg_c_r", neg_alpha, q, r, N);

    // cg_d: rho' = r·r ; beta = rho'/rho
    b.set_line(461);
    let rho_new = emit_dot_product(&mut b, "cg_d", r, r, N);
    let beta = b.fdiv(rho_new, rho);
    b.store(scalars, rho_new);

    // cg_e: p = r + beta p
    b.set_line(575);
    let zero = b.const_i64(0);
    let end = b.const_i64(N);
    b.region_for("cg_e", zero, end, |b, j| {
        let rj = b.load_idx(r, j);
        let pj = b.load_idx(p, j);
        let bp = b.fmul(beta, pj);
        let next = b.fadd(rj, bp);
        b.store_idx(p, j, next);
    });
    b.set_line(584);
    b.ret(None);
    module.add_function(b.finish());
}

struct CgGlobals {
    x: GlobalId,
    z: GlobalId,
    p: GlobalId,
    q: GlobalId,
    r: GlobalId,
    v: GlobalId,
    iv: GlobalId,
    scalars: GlobalId,
    verify: GlobalId,
}

fn build_module(variant: CgVariant) -> Module {
    let mut m = Module::new("cg");
    let ids = CgGlobals {
        x: m.add_global(Global::zeroed_f64("x", N as u32)),
        z: m.add_global(Global::zeroed_f64("z", N as u32)),
        p: m.add_global(Global::zeroed_f64("p", N as u32)),
        q: m.add_global(Global::zeroed_f64("q", N as u32)),
        r: m.add_global(Global::zeroed_f64("r", N as u32)),
        v: m.add_global(Global::zeroed_f64("v_scratch", NONZER as u32)),
        iv: m.add_global(Global::zeroed_i64("iv_scratch", NONZER as u32)),
        scalars: m.add_global(Global::zeroed_f64("scalars", 2)),
        verify: m.add_global(Global::zeroed_f64("verify", 2)),
    };
    build_sprnvc(&mut m, variant, ids.v, ids.iv);
    build_conj_grad(&mut m, variant, &ids);

    let mut b = FunctionBuilder::new("main");
    let x = b.global_addr(ids.x);
    let z = b.global_addr(ids.z);
    let p = b.global_addr(ids.p);
    let r = b.global_addr(ids.r);
    let scalars = b.global_addr(ids.scalars);
    let verify = b.global_addr(ids.verify);
    let v_scratch = b.global_addr(ids.v);

    // Initialization: x = 1 (+ small scratch-derived perturbation), z = 0,
    // r = x, p = r, rho = r·r.
    b.set_line(400);
    b.call("sprnvc", vec![]);
    let zero = b.const_i64(0);
    let n = b.const_i64(N);
    b.for_loop("cg_init", LoopKind::Inner, zero, n, 1, |b, i| {
        let one = b.const_f64(1.0);
        let scratch_idx = b.srem(i, b.const_i64(NONZER));
        let noise = b.load_idx(v_scratch, scratch_idx);
        let eps = b.const_f64(1.0e-3);
        let wiggle = b.fmul(noise, eps);
        let xi = b.fadd(one, wiggle);
        b.store_idx(x, i, xi);
        let zf = b.const_f64(0.0);
        b.store_idx(z, i, zf);
        b.store_idx(r, i, xi);
        b.store_idx(p, i, xi);
    });
    let rho0 = emit_dot_product(&mut b, "cg_init_rho", r, r, N);
    b.store(scalars, rho0);

    // Main loop: one conj_grad step per iteration.
    b.set_line(430);
    let zero2 = b.const_i64(0);
    let niter = b.const_i64(NITER);
    b.main_for("cg_main", zero2, niter, |b, _it| {
        b.call("conj_grad", vec![]);
    });

    // Verification value: zeta-like scalar 1 / (x·z) and the residual of the
    // final solve step.
    b.set_line(600);
    let xz = emit_dot_product(&mut b, "cg_verify_dot", x, z, N);
    let one = b.const_f64(1.0);
    let zeta = b.fdiv(one, xz);
    let shift = b.const_f64(10.0);
    let zeta_shifted = b.fadd(shift, zeta);
    b.store(verify, zeta_shifted);
    let rho_final = b.load(scalars);
    let one_i = b.const_i64(1);
    b.store_idx(verify, one_i, rho_final);
    b.output(zeta_shifted, OutputFormat::Scientific(10));
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// The unmodified CG benchmark.
pub fn cg() -> App {
    cg_with(CgVariant::original())
}

/// CG with the given resilience patterns applied to its source (Use Case 1).
pub fn cg_with(variant: CgVariant) -> App {
    let module = build_module(variant);
    let expected = reference_f64(&module, "verify", 0);
    App {
        name: "CG",
        module,
        regions: vec![
            "cg_a".to_string(),
            "cg_b".to_string(),
            "cg_c".to_string(),
            "cg_d".to_string(),
            "cg_e".to_string(),
        ],
        main_loop: "cg_main",
        main_iterations: NITER as usize,
        verifier: Verifier::GlobalClose {
            global: "verify",
            index: 0,
            expected,
            rel_tol: 1e-8,
        },
        size: AppSize::Quick,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Host-side replica of the kernel: same LCG, same initialization, same
    /// CG recurrence.  Comparing against it validates the IR implementation
    /// independent of how far CG has converged.
    fn host_reference() -> (Vec<f64>, f64) {
        let n = N as usize;
        // sprnvc scratch values
        let mut seed: i64 = 271_828;
        let mut lcg = || {
            seed = (seed.wrapping_mul(1_103_515_245).wrapping_add(12_345)) & ((1 << 31) - 1);
            seed as f64 / (1u64 << 31) as f64
        };
        let mut v = vec![0.0; NONZER as usize];
        for slot in v.iter_mut() {
            *slot = lcg();
            let _vecloc = lcg();
        }
        let x: Vec<f64> = (0..n)
            .map(|i| 1.0 + 1.0e-3 * v[i % NONZER as usize])
            .collect();
        let matvec = |p: &[f64]| -> Vec<f64> {
            (0..n)
                .map(|i| {
                    let mut acc = 2.0 * p[i];
                    if i > 0 {
                        acc -= p[i - 1];
                    }
                    if i + 1 < n {
                        acc -= p[i + 1];
                    }
                    acc
                })
                .collect()
        };
        let mut z = vec![0.0; n];
        let mut r = x.clone();
        let mut p = x.clone();
        let mut rho: f64 = r.iter().map(|v| v * v).sum();
        for _ in 0..NITER {
            let q = matvec(&p);
            let d: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
            let alpha = rho / d;
            for i in 0..n {
                z[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            let rho_new: f64 = r.iter().map(|v| v * v).sum();
            let beta = rho_new / rho;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
            rho = rho_new;
        }
        let xz: f64 = x.iter().zip(&z).map(|(a, b)| a * b).sum();
        (z, 10.0 + 1.0 / xz)
    }

    #[test]
    fn cg_matches_a_host_side_reference_implementation() {
        let app = cg();
        let result = app.run_clean();
        assert!(app.verify(&result));
        let (z_ref, zeta_ref) = host_reference();
        let z = result.global_f64("z").unwrap();
        for (i, (a, b)) in z.iter().zip(&z_ref).enumerate() {
            assert!((a - b).abs() < 1e-9, "z[{i}] mismatch: IR {a} vs host {b}");
        }
        let zeta = result.global_f64("verify").unwrap()[0];
        assert!((zeta - zeta_ref).abs() < 1e-9, "zeta {zeta} vs {zeta_ref}");
    }

    #[test]
    fn variants_still_verify_against_their_own_reference() {
        for variant in [
            CgVariant {
                temp_scratch: true,
                truncation: false,
            },
            CgVariant {
                temp_scratch: false,
                truncation: true,
            },
            CgVariant::all(),
        ] {
            let app = cg_with(variant);
            let result = app.run_clean();
            assert!(
                app.verify(&result),
                "variant {variant:?} fails verification"
            );
        }
    }

    #[test]
    fn truncation_variant_stays_close_to_the_original_answer() {
        let original = cg();
        let truncated = cg_with(CgVariant {
            temp_scratch: false,
            truncation: true,
        });
        let a = original.run_clean().global_f64("verify").unwrap()[0];
        let b = truncated.run_clean().global_f64("verify").unwrap()[0];
        assert!(
            ((a - b) / a).abs() < 1e-3,
            "truncation changed the answer too much: {a} vs {b}"
        );
    }

    #[test]
    fn hardened_variant_has_the_same_region_structure() {
        let app = cg_with(CgVariant::all());
        assert_eq!(app.regions.len(), 5);
        assert!(app.module.function_by_name("sprnvc").is_some());
        assert!(app.module.function_by_name("conj_grad").is_some());
    }
}
