//! Miniature NPB IS: bucketed integer ranking, with the bucket-index shift of
//! Figure 11 (the Shifting pattern) and an in-program full verification.

use ftkr_ir::prelude::*;
use ftkr_ir::Global;

use crate::common::emit_lcg_next;
use crate::spec::{App, AppSize, Verifier};

/// Number of keys.
pub const NUM_KEYS: i64 = 64;
/// Keys are drawn from `[0, 2^MAX_KEY_LOG2)`.
pub const MAX_KEY_LOG2: i64 = 9;
/// Number of buckets (`2^4`).
pub const NUM_BUCKETS: i64 = 16;
/// Shift applied to a key to obtain its bucket (Figure 11 of the paper).
pub const SHIFT: i64 = MAX_KEY_LOG2 - 4;
/// Ranking iterations of the main loop (NPB IS performs 10).
pub const NITER: i64 = 10;

fn build_module() -> Module {
    let mut m = Module::new("is");
    let keys = m.add_global(Global::zeroed_i64("key_array", NUM_KEYS as u32));
    let buckets = m.add_global(Global::zeroed_i64("bucket_size", NUM_BUCKETS as u32));
    let bucket_ptrs = m.add_global(Global::zeroed_i64("bucket_ptrs", NUM_BUCKETS as u32));
    let key_count = m.add_global(Global::zeroed_i64("key_count", 1 << MAX_KEY_LOG2 as u32));
    let sorted = m.add_global(Global::zeroed_i64("sorted_keys", NUM_KEYS as u32));
    let verify = m.add_global(Global::zeroed_i64("verify", 2));

    let mut b = FunctionBuilder::new("main");
    let keys_a = b.global_addr(keys);
    let buckets_a = b.global_addr(buckets);
    let ptrs_a = b.global_addr(bucket_ptrs);
    let count_a = b.global_addr(key_count);
    let sorted_a = b.global_addr(sorted);
    let verify_a = b.global_addr(verify);

    // Key generation (outside the main loop, like NPB's create_seq).
    b.set_line(420);
    let seed = b.alloca("seed", 1);
    let s0 = b.const_i64(161_803);
    b.store(seed, s0);
    let zero = b.const_i64(0);
    let nk = b.const_i64(NUM_KEYS);
    let max_key = b.const_f64((1i64 << MAX_KEY_LOG2) as f64);
    b.for_loop("is_keygen", LoopKind::Inner, zero, nk, 1, |b, i| {
        let u = emit_lcg_next(b, seed);
        let scaled = b.fmul(u, max_key);
        let key = b.fptosi(scaled);
        b.store_idx(keys_a, i, key);
    });

    // Main loop: NPB IS re-ranks the keys NITER times, perturbing two keys
    // per iteration.
    b.set_line(430);
    let zero2 = b.const_i64(0);
    let niter = b.const_i64(NITER);
    b.main_for("is_main", zero2, niter, |b, it| {
        // is_a: reset bucket counters and refresh one key.
        b.set_line(435);
        let z = b.const_i64(0);
        let nb = b.const_i64(NUM_BUCKETS);
        b.region_for("is_a", z, nb, |b, i| {
            let zi = b.const_i64(0);
            b.store_idx(buckets_a, i, zi);
        });
        let slot = b.srem(it, b.const_i64(NUM_KEYS));
        let refreshed = b.mul(it, b.const_i64(37));
        let masked = b.srem(refreshed, b.const_i64(1 << MAX_KEY_LOG2));
        b.store_idx(keys_a, slot, masked);

        // is_b: count keys per bucket via the shift (Figure 11).
        b.set_line(473);
        let z2 = b.const_i64(0);
        let nk2 = b.const_i64(NUM_KEYS);
        b.region_for("is_b", z2, nk2, |b, i| {
            let key = b.load_idx(keys_a, i);
            let sh = b.const_i64(SHIFT);
            let bucket = b.lshr(key, sh);
            let cur = b.load_idx(buckets_a, bucket);
            let one = b.const_i64(1);
            let next = b.add(cur, one);
            b.store_idx(buckets_a, bucket, next);
        });

        // is_c: prefix sums of the bucket sizes (key ranking).
        b.set_line(500);
        let z3 = b.const_i64(0);
        let nb3 = b.const_i64(NUM_BUCKETS);
        let running = b.alloca("running", 1);
        let zi = b.const_i64(0);
        b.store(running, zi);
        b.region_for("is_c", z3, nb3, |b, i| {
            let cur = b.load(running);
            b.store_idx(ptrs_a, i, cur);
            let size = b.load_idx(buckets_a, i);
            let next = b.add(cur, size);
            b.store(running, next);
        });
    });

    // Full verification (NPB IS's full_verify): a counting sort over exact
    // key values, then an order and key-sum check.
    b.set_line(600);
    let nvals = b.const_i64(1 << MAX_KEY_LOG2);
    let z4a = b.const_i64(0);
    b.for_loop("is_count_clear", LoopKind::Inner, z4a, nvals, 1, |b, v| {
        let zi = b.const_i64(0);
        b.store_idx(count_a, v, zi);
    });
    let z4b = b.const_i64(0);
    let nk4b = b.const_i64(NUM_KEYS);
    b.for_loop("is_count", LoopKind::Inner, z4b, nk4b, 1, |b, i| {
        let key = b.load_idx(keys_a, i);
        let cur = b.load_idx(count_a, key);
        let one = b.const_i64(1);
        let next = b.add(cur, one);
        b.store_idx(count_a, key, next);
    });
    let running2 = b.alloca("rank_running", 1);
    let zri = b.const_i64(0);
    b.store(running2, zri);
    let z4c = b.const_i64(0);
    let nvals_c = b.const_i64(1 << MAX_KEY_LOG2);
    b.for_loop(
        "is_rank_prefix",
        LoopKind::Inner,
        z4c,
        nvals_c,
        1,
        |b, v| {
            let count = b.load_idx(count_a, v);
            let cur = b.load(running2);
            b.store_idx(count_a, v, cur);
            let next = b.add(cur, count);
            b.store(running2, next);
        },
    );
    let z4 = b.const_i64(0);
    let nk4 = b.const_i64(NUM_KEYS);
    b.for_loop("is_scatter", LoopKind::Inner, z4, nk4, 1, |b, i| {
        let key = b.load_idx(keys_a, i);
        let pos = b.load_idx(count_a, key);
        b.store_idx(sorted_a, pos, key);
        let one = b.const_i64(1);
        let next = b.add(pos, one);
        b.store_idx(count_a, key, next);
    });
    // sortedness flag and key-sum conservation
    let ok = b.alloca("ok", 1);
    let one_i = b.const_i64(1);
    b.store(ok, one_i);
    let sum_slot = b.alloca("key_sum", 1);
    let zi = b.const_i64(0);
    b.store(sum_slot, zi);
    let one5 = b.const_i64(1);
    let nk5 = b.const_i64(NUM_KEYS);
    b.for_loop("is_check", LoopKind::Inner, one5, nk5, 1, |b, i| {
        let prev_idx = b.sub(i, b.const_i64(1));
        let prev = b.load_idx(sorted_a, prev_idx);
        let cur = b.load_idx(sorted_a, i);
        let in_order = b.icmp(CmpKind::Le, prev, cur);
        let ok_cur = b.load(ok);
        let ok_next = b.and(ok_cur, in_order);
        b.store(ok, ok_next);
        let s = b.load(sum_slot);
        let s2 = b.add(s, cur);
        b.store(sum_slot, s2);
    });
    // Add the first sorted key to the sum as well.
    let first = b.load(sorted_a);
    let s = b.load(sum_slot);
    let s_total = b.add(s, first);
    // Compare against the sum over the unsorted key array.
    let orig_sum_slot = b.alloca("orig_sum", 1);
    let zi2 = b.const_i64(0);
    b.store(orig_sum_slot, zi2);
    let z6 = b.const_i64(0);
    let nk6 = b.const_i64(NUM_KEYS);
    b.for_loop("is_orig_sum", LoopKind::Inner, z6, nk6, 1, |b, i| {
        let k = b.load_idx(keys_a, i);
        let cur = b.load(orig_sum_slot);
        let next = b.add(cur, k);
        b.store(orig_sum_slot, next);
    });
    let orig = b.load(orig_sum_slot);
    let sums_match = b.icmp(CmpKind::Eq, s_total, orig);
    // The bucket histogram computed by the main loop (is_b) must agree with a
    // recount over the sorted keys — this is what ties the ranking phase into
    // the verification, as NPB IS's partial verification does.
    let recount = b.alloca("bucket_recount", NUM_BUCKETS as u32);
    let zr = b.const_i64(0);
    let nb7 = b.const_i64(NUM_BUCKETS);
    b.for_loop("is_recount_clear", LoopKind::Inner, zr, nb7, 1, |b, i| {
        let zi = b.const_i64(0);
        b.store_idx(recount, i, zi);
    });
    let zr2 = b.const_i64(0);
    let nk7 = b.const_i64(NUM_KEYS);
    b.for_loop("is_recount", LoopKind::Inner, zr2, nk7, 1, |b, i| {
        let key = b.load_idx(sorted_a, i);
        let sh = b.const_i64(SHIFT);
        let bucket = b.lshr(key, sh);
        let cur = b.load_idx(recount, bucket);
        let one = b.const_i64(1);
        let next = b.add(cur, one);
        b.store_idx(recount, bucket, next);
    });
    let buckets_ok = b.alloca("buckets_ok", 1);
    let one_b = b.const_i64(1);
    b.store(buckets_ok, one_b);
    let zr3 = b.const_i64(0);
    let nb8 = b.const_i64(NUM_BUCKETS);
    b.for_loop("is_recount_check", LoopKind::Inner, zr3, nb8, 1, |b, i| {
        let a = b.load_idx(buckets_a, i);
        let c = b.load_idx(recount, i);
        let eq = b.icmp(CmpKind::Eq, a, c);
        let cur = b.load(buckets_ok);
        let next = b.and(cur, eq);
        b.store(buckets_ok, next);
    });
    let buckets_verdict = b.load(buckets_ok);
    let ok_final = b.load(ok);
    let verdict = b.and(ok_final, sums_match);
    let verdict = b.and(verdict, buckets_verdict);
    b.store(verify_a, verdict);
    let one7 = b.const_i64(1);
    b.store_idx(verify_a, one7, s_total);
    b.output(verdict, OutputFormat::Integer);
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// The IS benchmark.
pub fn is() -> App {
    App {
        name: "IS",
        module: build_module(),
        regions: vec!["is_a".to_string(), "is_b".to_string(), "is_c".to_string()],
        main_loop: "is_main",
        main_iterations: NITER as usize,
        verifier: Verifier::GlobalFlagSet {
            global: "verify",
            index: 0,
            expected: 1,
        },
        size: AppSize::Quick,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_sorts_its_keys_and_verifies() {
        let app = is();
        let result = app.run_clean();
        assert!(app.verify(&result));
        let sorted = result.global_i64("sorted_keys").unwrap();
        assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "not sorted: {sorted:?}"
        );
        let keys = result.global_i64("key_array").unwrap();
        assert_eq!(
            keys.iter().sum::<i64>(),
            sorted.iter().sum::<i64>(),
            "keys were lost or invented"
        );
    }

    #[test]
    fn is_region_structure() {
        let app = is();
        assert_eq!(app.regions, vec!["is_a", "is_b", "is_c"]);
        assert_eq!(app.main_iterations, 10);
    }
}
