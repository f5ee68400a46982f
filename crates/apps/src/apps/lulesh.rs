//! Miniature LULESH: one Lagrange step per main-loop iteration, containing
//! the hourglass-force aggregation of Figure 8 (Dead Corrupted Locations),
//! indirect node gathers (whose corruption produces the crashes that dominate
//! LULESH's fault profile in the paper), and a `%12.6e`-style formatted
//! energy output (Truncation).

use ftkr_ir::prelude::*;
use ftkr_ir::Global;

use crate::spec::{reference_f64, App, AppSize, Verifier};

/// Nodes per element (a hexahedron, as in LULESH).
pub const NODES: i64 = 8;
/// Hourglass modes.
pub const MODES: i64 = 4;
/// Number of elements in the miniature mesh.
pub const ELEMS: i64 = 4;
/// Time-step iterations of the main loop.
pub const NITER: i64 = 10;

fn hourgam_host() -> Vec<f64> {
    // The 8x4 hourglass shape matrix (signs of the four hourglass modes per
    // node), as used by LULESH's CalcFBHourglassForceForElems.
    let gamma: [[f64; 4]; 8] = [
        [1.0, 1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
        [-1.0, -1.0, 1.0, -1.0],
        [-1.0, 1.0, -1.0, 1.0],
        [-1.0, -1.0, 1.0, 1.0],
        [-1.0, 1.0, -1.0, -1.0],
        [1.0, 1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0, -1.0],
    ];
    gamma.iter().flat_map(|row| row.iter().copied()).collect()
}

fn build_module() -> Module {
    let mut m = Module::new("lulesh");
    let nnodes = (ELEMS * NODES) as u32;
    let hourgam = m.add_global(Global::with_f64("hourgam", hourgam_host()));
    // Node velocities and positions, per element-local node.
    let xd = m.add_global(Global::with_f64(
        "xd",
        (0..nnodes).map(|i| 0.01 * (i as f64 + 1.0)).collect(),
    ));
    let x = m.add_global(Global::with_f64(
        "x",
        (0..nnodes).map(|i| 1.0 + 0.1 * i as f64).collect(),
    ));
    let hgfz = m.add_global(Global::zeroed_f64("hgfz", nnodes));
    // Element-to-node indirection (identity blocks, as a stand-in for the
    // real mesh connectivity; faults here produce wild addresses => crashes).
    let elem_node = m.add_global(Global::with_i64(
        "elem_node",
        (0..(ELEMS * NODES)).collect(),
    ));
    let verify = m.add_global(Global::zeroed_f64("verify", 1));

    let mut b = FunctionBuilder::new("main");
    let hg = b.global_addr(hourgam);
    let xd_a = b.global_addr(xd);
    let x_a = b.global_addr(x);
    let hgfz_a = b.global_addr(hgfz);
    let conn = b.global_addr(elem_node);
    let verify_a = b.global_addr(verify);

    b.set_line(2640);
    let zero = b.const_i64(0);
    let niter = b.const_i64(NITER);
    b.main_for("lulesh_main", zero, niter, |b, _it| {
        // l_a: LagrangeNodal — hourglass force aggregation + nodal update.
        b.set_line(2652);
        let z = b.const_i64(0);
        let ne = b.const_i64(ELEMS);
        b.region_for("l_a", z, ne, |b, e| {
            let base = b.mul(e, b.const_i64(NODES));
            // hxx[i] = Σ_n hourgam[n][i] * xd[node(e,n)]   (Figure 8, first loop)
            let hxx = b.alloca("hxx", MODES as u32);
            for i in 0..MODES {
                let acc = b.alloca("hxx_acc", 1);
                let zf = b.const_f64(0.0);
                b.store(acc, zf);
                let z2 = b.const_i64(0);
                let nn = b.const_i64(NODES);
                b.for_loop(
                    format!("l_a_hxx_{i}"),
                    LoopKind::Inner,
                    z2,
                    nn,
                    1,
                    |b, n| {
                        let gidx = b.mul(n, b.const_i64(MODES));
                        let gidx = b.add(gidx, b.const_i64(i));
                        let g = b.load_idx(hg, gidx);
                        let node_slot = b.add(base, n);
                        let node = b.load_idx(conn, node_slot);
                        let v = b.load_idx(xd_a, node);
                        let prod = b.fmul(g, v);
                        let cur = b.load(acc);
                        let next = b.fadd(cur, prod);
                        b.store(acc, next);
                    },
                );
                let total = b.load(acc);
                let ii = b.const_i64(i);
                b.store_idx(hxx, ii, total);
            }
            // hgfz[node(e,n)] = coefficient * Σ_i hourgam[n][i] * hxx[i]
            b.set_line(2670);
            let coeff = b.const_f64(0.03);
            let z3 = b.const_i64(0);
            let nn3 = b.const_i64(NODES);
            b.for_loop("l_a_hgfz", LoopKind::Inner, z3, nn3, 1, |b, n| {
                let acc = b.alloca("hgfz_acc", 1);
                let zf = b.const_f64(0.0);
                b.store(acc, zf);
                let z4 = b.const_i64(0);
                let nm = b.const_i64(MODES);
                b.for_loop("l_a_hgfz_inner", LoopKind::Inner, z4, nm, 1, |b, i| {
                    let gidx = b.mul(n, b.const_i64(MODES));
                    let gidx = b.add(gidx, i);
                    let g = b.load_idx(hg, gidx);
                    let h = b.load_idx(hxx, i);
                    let prod = b.fmul(g, h);
                    let cur = b.load(acc);
                    let next = b.fadd(cur, prod);
                    b.store(acc, next);
                });
                let total = b.load(acc);
                let force = b.fmul(coeff, total);
                let node_slot = b.add(base, n);
                let node = b.load_idx(conn, node_slot);
                b.store_idx(hgfz_a, node, force);
            });
            // Nodal update: velocities and positions advance by dt.
            b.set_line(2685);
            let dt = b.const_f64(1.0e-2);
            let z5 = b.const_i64(0);
            let nn5 = b.const_i64(NODES);
            b.for_loop("l_a_advance", LoopKind::Inner, z5, nn5, 1, |b, n| {
                let node_slot = b.add(base, n);
                let node = b.load_idx(conn, node_slot);
                let f = b.load_idx(hgfz_a, node);
                let v = b.load_idx(xd_a, node);
                let dv = b.fmul(dt, f);
                let v2 = b.fadd(v, dv);
                b.store_idx(xd_a, node, v2);
                let p = b.load_idx(x_a, node);
                let dx = b.fmul(dt, v2);
                let p2 = b.fadd(p, dx);
                b.store_idx(x_a, node, p2);
            });
        });
    });

    // Final energy: Σ (x² + xd²), reported in the %12.6e style that hides
    // low-order corrupted mantissa bits from the user (Truncation pattern).
    b.set_line(2700);
    let energy_acc = b.alloca("energy", 1);
    let zf = b.const_f64(0.0);
    b.store(energy_acc, zf);
    let z6 = b.const_i64(0);
    let nn6 = b.const_i64(ELEMS * NODES);
    b.for_loop("lulesh_energy", LoopKind::Inner, z6, nn6, 1, |b, n| {
        let p = b.load_idx(x_a, n);
        let v = b.load_idx(xd_a, n);
        let p2 = b.fmul(p, p);
        let v2 = b.fmul(v, v);
        let e = b.fadd(p2, v2);
        let cur = b.load(energy_acc);
        let next = b.fadd(cur, e);
        b.store(energy_acc, next);
    });
    let energy = b.load(energy_acc);
    b.store(verify_a, energy);
    b.output(energy, OutputFormat::Scientific(6));
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// The LULESH proxy application.
pub fn lulesh() -> App {
    let module = build_module();
    let expected = reference_f64(&module, "verify", 0);
    App {
        name: "LULESH",
        module,
        regions: vec!["l_a".to_string()],
        main_loop: "lulesh_main",
        main_iterations: NITER as usize,
        verifier: Verifier::GlobalClose {
            global: "verify",
            index: 0,
            expected,
            rel_tol: 1e-6,
        },
        size: AppSize::Quick,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lulesh_runs_and_verifies() {
        let app = lulesh();
        let result = app.run_clean();
        assert!(app.verify(&result));
        let energy = result.global_f64("verify").unwrap()[0];
        assert!(energy.is_finite() && energy > 0.0);
        // The formatted output is the %12.6e-style scientific rendering.
        assert!(result.outputs.records[0].text.contains('e'));
    }

    #[test]
    fn lulesh_has_a_single_region_like_the_paper() {
        let app = lulesh();
        assert_eq!(app.regions, vec!["l_a"]);
        assert_eq!(app.main_iterations, 10);
    }
}
