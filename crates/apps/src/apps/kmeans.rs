//! Miniature Rodinia KMEANS: one clustering pass over a synthetic point set,
//! with the minimum-distance conditional of Figure 10 (Conditional
//! Statements) and a center-update helper whose temporaries are freed on
//! return (the effect behind k_d's resilience in the paper).

use ftkr_ir::prelude::*;
use ftkr_ir::Global;

use crate::spec::{reference_i64_vec, App, AppSize, Verifier};

/// Number of points.
pub const NPOINTS: i64 = 32;
/// Features per point.
pub const NFEATURES: i64 = 2;
/// Number of clusters.
pub const K: i64 = 3;
/// Main-loop iterations (the paper's per-iteration plot shows a single one).
pub const NITER: i64 = 1;

/// Synthetic, well-separated clusters so that the reference assignment is
/// robust to small perturbations (mirroring the 100-point Rodinia input).
fn features_host() -> Vec<f64> {
    let centers = [(0.0, 0.0), (10.0, 10.0), (20.0, 0.0)];
    let mut out = Vec::with_capacity((NPOINTS * NFEATURES) as usize);
    let mut state = 88_172_645_463_325_252_u64;
    let mut next = || {
        // xorshift64 — host-side only, used to synthesize the input file.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for p in 0..NPOINTS {
        let (cx, cy) = centers[(p % K) as usize];
        out.push(cx + next() - 0.5);
        out.push(cy + next() - 0.5);
    }
    out
}

/// `update_centers`: averages the per-cluster accumulators into the centers.
/// Works on function-local temporaries that are freed on return, which is
/// what makes faults in k_d's internals short-lived.
fn build_update_centers(module: &mut Module, centers: GlobalId, sums: GlobalId, counts: GlobalId) {
    let mut b = FunctionBuilder::new("update_centers");
    b.set_line(190);
    let centers_a = b.global_addr(centers);
    let sums_a = b.global_addr(sums);
    let counts_a = b.global_addr(counts);
    let tmp = b.alloca("center_tmp", (K * NFEATURES) as u32);
    let zero = b.const_i64(0);
    let k = b.const_i64(K);
    b.for_loop("k_d_avg", LoopKind::Inner, zero, k, 1, |b, c| {
        let count = b.load_idx(counts_a, c);
        let count_f = b.sitofp(count);
        let one = b.const_f64(1.0);
        let safe = b.fmax(count_f, one);
        let zero_f = b.const_i64(0);
        let nf = b.const_i64(NFEATURES);
        b.for_loop("k_d_avg_feat", LoopKind::Inner, zero_f, nf, 1, |b, f| {
            let idx = b.mul(c, b.const_i64(NFEATURES));
            let idx = b.add(idx, f);
            let s = b.load_idx(sums_a, idx);
            let avg = b.fdiv(s, safe);
            b.store_idx(tmp, idx, avg);
        });
    });
    // Copy the temporaries into the global centers.
    let zero2 = b.const_i64(0);
    let kn = b.const_i64(K * NFEATURES);
    b.for_loop("k_d_copy", LoopKind::Inner, zero2, kn, 1, |b, i| {
        let v = b.load_idx(tmp, i);
        b.store_idx(centers_a, i, v);
    });
    b.set_line(194);
    b.ret(None);
    module.add_function(b.finish());
}

fn build_module() -> Module {
    let mut m = Module::new("kmeans");
    let features = m.add_global(Global::with_f64("features", features_host()));
    let centers = m.add_global(Global::zeroed_f64("centers", (K * NFEATURES) as u32));
    let assign = m.add_global(Global::zeroed_i64("membership", NPOINTS as u32));
    let sums = m.add_global(Global::zeroed_f64(
        "new_center_sums",
        (K * NFEATURES) as u32,
    ));
    let counts = m.add_global(Global::zeroed_i64("new_center_counts", K as u32));
    build_update_centers(&mut m, centers, sums, counts);

    let mut b = FunctionBuilder::new("main");
    let feat = b.global_addr(features);
    let cent = b.global_addr(centers);
    let memb = b.global_addr(assign);
    let sums_a = b.global_addr(sums);
    let counts_a = b.global_addr(counts);

    b.set_line(120);
    let zero = b.const_i64(0);
    let niter = b.const_i64(NITER);
    b.main_for("kmeans_main", zero, niter, |b, _it| {
        // k_a: clear the per-cluster accumulators.
        b.set_line(131);
        let z = b.const_i64(0);
        let kn = b.const_i64(K * NFEATURES);
        b.region_for("k_a", z, kn, |b, i| {
            let zf = b.const_f64(0.0);
            b.store_idx(sums_a, i, zf);
        });
        let z1 = b.const_i64(0);
        let k1 = b.const_i64(K);
        b.region_for("k_a_counts", z1, k1, |b, c| {
            let zi = b.const_i64(0);
            b.store_idx(counts_a, c, zi);
        });

        // k_b: initialize the centers from the first K points.
        b.set_line(144);
        let z2 = b.const_i64(0);
        let k2 = b.const_i64(K);
        b.region_for("k_b", z2, k2, |b, c| {
            let z3 = b.const_i64(0);
            let nf = b.const_i64(NFEATURES);
            b.for_loop("k_b_feat", LoopKind::Inner, z3, nf, 1, |b, f| {
                let pidx = b.mul(c, b.const_i64(NFEATURES));
                let pidx = b.add(pidx, f);
                let v = b.load_idx(feat, pidx);
                b.store_idx(cent, pidx, v);
            });
        });

        // k_c: assignment — find, for every point, the center with minimum
        // Euclidean distance (Figure 10), and accumulate the new center sums.
        b.set_line(156);
        let z4 = b.const_i64(0);
        let np = b.const_i64(NPOINTS);
        b.region_for("k_c", z4, np, |b, p| {
            let min_dist = b.alloca("min_dist", 1);
            let best = b.alloca("best", 1);
            let huge = b.const_f64(1.0e30);
            b.store(min_dist, huge);
            let zi = b.const_i64(0);
            b.store(best, zi);
            let z5 = b.const_i64(0);
            let k5 = b.const_i64(K);
            b.for_loop("k_c_centers", LoopKind::Inner, z5, k5, 1, |b, c| {
                // euclid_dist_2(point p, center c)
                let dist = b.alloca("dist", 1);
                let zf = b.const_f64(0.0);
                b.store(dist, zf);
                let z6 = b.const_i64(0);
                let nf6 = b.const_i64(NFEATURES);
                b.for_loop("k_c_dist", LoopKind::Inner, z6, nf6, 1, |b, f| {
                    let pidx = b.mul(p, b.const_i64(NFEATURES));
                    let pidx = b.add(pidx, f);
                    let cidx = b.mul(c, b.const_i64(NFEATURES));
                    let cidx = b.add(cidx, f);
                    let pv = b.load_idx(feat, pidx);
                    let cv = b.load_idx(cent, cidx);
                    let d = b.fsub(pv, cv);
                    let d2 = b.fmul(d, d);
                    let cur = b.load(dist);
                    let next = b.fadd(cur, d2);
                    b.store(dist, next);
                });
                let d = b.load(dist);
                let cur_min = b.load(min_dist);
                b.set_line(161);
                let closer = b.fcmp(CmpKind::Lt, d, cur_min);
                b.if_then(closer, |b| {
                    b.store(min_dist, d);
                    b.store(best, c);
                });
            });
            let winner = b.load(best);
            b.store_idx(memb, p, winner);
            // accumulate sums and counts for the winning cluster
            let count = b.load_idx(counts_a, winner);
            let one = b.const_i64(1);
            let count2 = b.add(count, one);
            b.store_idx(counts_a, winner, count2);
            let z7 = b.const_i64(0);
            let nf7 = b.const_i64(NFEATURES);
            b.for_loop("k_c_accumulate", LoopKind::Inner, z7, nf7, 1, |b, f| {
                let pidx = b.mul(p, b.const_i64(NFEATURES));
                let pidx = b.add(pidx, f);
                let sidx = b.mul(winner, b.const_i64(NFEATURES));
                let sidx = b.add(sidx, f);
                let pv = b.load_idx(feat, pidx);
                let s = b.load_idx(sums_a, sidx);
                let s2 = b.fadd(s, pv);
                b.store_idx(sums_a, sidx, s2);
            });
        });

        // k_d: fold the accumulators into the centers (temporaries freed on
        // return).
        b.set_line(190);
        let z8 = b.const_i64(0);
        let one8 = b.const_i64(1);
        b.region_for("k_d", z8, one8, |b, _| {
            b.call("update_centers", vec![]);
        });
    });
    b.set_line(200);
    let first = b.load(memb);
    b.output(first, OutputFormat::Integer);
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// The KMEANS benchmark.
pub fn kmeans() -> App {
    let module = build_module();
    let expected = reference_i64_vec(&module, "membership");
    App {
        name: "KMEANS",
        module,
        regions: vec![
            "k_a".to_string(),
            "k_b".to_string(),
            "k_c".to_string(),
            "k_d".to_string(),
        ],
        main_loop: "kmeans_main",
        main_iterations: NITER as usize,
        verifier: Verifier::MatchFraction {
            global: "membership",
            expected,
            min_fraction: 0.95,
        },
        size: AppSize::Quick,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmeans_assigns_points_to_their_generating_cluster() {
        let app = kmeans();
        let result = app.run_clean();
        assert!(app.verify(&result));
        let membership = result.global_i64("membership").unwrap();
        // Points were generated round-robin over the three clusters, and the
        // initial centers are the first three points, so the assignment
        // follows p % 3.
        for (p, &c) in membership.iter().enumerate() {
            assert_eq!(c, (p as i64) % K, "point {p} misassigned");
        }
    }

    #[test]
    fn kmeans_region_structure() {
        let app = kmeans();
        assert_eq!(app.regions, vec!["k_a", "k_b", "k_c", "k_d"]);
        assert!(app.module.function_by_name("update_centers").is_some());
    }
}
