//! Property-based tests over the core data structures and invariants,
//! exercised through the public API of the workspace crates.

mod support;

use proptest::prelude::*;

use ftkr_acl::AclTable;
use ftkr_dddg::Dddg;
use ftkr_ir::prelude::*;
use ftkr_ir::Global;
use ftkr_patterns::{
    analyze_fused, FusedAnalysis, FusedInjection, PatternInstance, StreamingDetector,
};
use ftkr_trace::{partition_regions, RegionSelector};
use ftkr_vm::{
    DecodedModule, EventCursor, FaultSpec, Location, ResolvedEvent, RunResult, Trace, Value, Vm,
    VmConfig,
};
use support::acl_reference::build_reference;

/// A traced run with `fault` armed.
fn tracing_with_fault(fault: FaultSpec) -> VmConfig {
    VmConfig {
        fault: Some(fault),
        ..VmConfig::tracing()
    }
}

/// The fused walk over a materialized trace pair, with explicit seed
/// corruptions.
fn analyze_fused_seeds(
    faulty: &Trace,
    clean: &Trace,
    seeds: &[(usize, Location)],
) -> FusedAnalysis {
    let mut fused = FusedInjection::new(faulty, clean, seeds);
    EventCursor::new(faulty).run(&mut [&mut fused]);
    fused.into_analysis()
}

/// The patterns-only forward-taint walk of a materialized faulty trace.
fn detect_fused_patterns(faulty: &Trace, clean: &Trace, fault: FaultSpec) -> Vec<PatternInstance> {
    let mut detector = StreamingDetector::new(clean, fault);
    EventCursor::new(faulty).run(&mut [&mut detector]);
    detector.into_patterns()
}

/// The streaming detector over a live, untraced run of `module` under
/// `config` with `fault` armed.
fn detect_streaming(
    module: &Module,
    clean: &Trace,
    fault: FaultSpec,
    config: VmConfig,
) -> (RunResult, Vec<PatternInstance>) {
    let mut detector = StreamingDetector::new(clean, fault);
    let config = VmConfig {
        fault: Some(fault),
        ..config
    };
    let result = Vm::new(config)
        .run_with_visitors_decoded(module, &DecodedModule::decode(module), &mut [&mut detector])
        .unwrap();
    (result, detector.into_patterns())
}

/// Build a small arithmetic program parameterized by the proptest inputs:
/// `n` loop iterations accumulating `a*i + b` into a global, followed by a
/// guarded normalization.
fn parametric_module(n: i64, a: f64, b: f64) -> Module {
    let mut m = Module::new("prop");
    let g = m.add_global(Global::zeroed_f64("acc", 2));
    let mut f = FunctionBuilder::new("main");
    let gaddr = f.global_addr(g);
    let zero = f.const_i64(0);
    let end = f.const_i64(n);
    f.main_for("accumulate", zero, end, |f, i| {
        let fi = f.sitofp(i);
        let ca = f.const_f64(a);
        let cb = f.const_f64(b);
        let term = f.fmul(ca, fi);
        let term = f.fadd(term, cb);
        let cur = f.load(gaddr);
        let next = f.fadd(cur, term);
        f.store(gaddr, next);
    });
    let total = f.load(gaddr);
    let zero_f = f.const_f64(0.0);
    let positive = f.fcmp(CmpKind::Gt, total, zero_f);
    let one = f.const_f64(1.0);
    let scale = f.select(positive, one, zero_f);
    let scaled = f.fmul(total, scale);
    let one_i = f.const_i64(1);
    f.store_idx(gaddr, one_i, scaled);
    f.output(scaled, OutputFormat::Scientific(6));
    f.ret(None);
    m.add_function(f.finish());
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The interpreter is deterministic: two runs of the same module produce
    /// bit-identical traces and results.
    #[test]
    fn vm_is_deterministic(n in 1i64..40, a in -5.0f64..5.0, b in -5.0f64..5.0) {
        let module = parametric_module(n, a, b);
        let r1 = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let r2 = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        prop_assert_eq!(r1.steps, r2.steps);
        prop_assert_eq!(r1.global_f64("acc").unwrap(), r2.global_f64("acc").unwrap());
        prop_assert_eq!(support::run_digest(&r1), support::run_digest(&r2));
    }

    /// The interpreted accumulation matches host arithmetic.
    #[test]
    fn vm_matches_host_arithmetic(n in 1i64..40, a in -5.0f64..5.0, b in -5.0f64..5.0) {
        let module = parametric_module(n, a, b);
        let r = Vm::new(VmConfig::default()).run(&module).unwrap();
        prop_assert!(r.outcome.is_completed());
        let mut expected = 0.0f64;
        for i in 0..n {
            expected += a * i as f64 + b;
        }
        let got = r.global_f64("acc").unwrap()[0];
        prop_assert!((got - expected).abs() <= 1e-9 * expected.abs().max(1.0),
            "host {expected} vs vm {got}");
    }

    /// A single bit flip never makes the step count of a *completed* run
    /// differ from the fault-free run unless control flow diverged — and a
    /// fault never turns into a verifier panic, only into one of the three
    /// manifestations.
    #[test]
    fn faulty_runs_always_classify(n in 2i64..30, step in 0u64..200, bit in 0u8..64) {
        let module = parametric_module(n, 1.0, 0.5);
        let clean = Vm::new(VmConfig::default()).run(&module).unwrap();
        let config = VmConfig {
            fault: Some(FaultSpec::in_result(step % clean.steps, bit)),
            max_steps: clean.steps * 10 + 100,
            ..VmConfig::default()
        };
        let faulty = Vm::new(config).run(&module).unwrap();
        // Completed or trapped; both are valid manifestations.
        if faulty.outcome.is_completed() {
            prop_assert!(faulty.steps <= clean.steps * 10 + 100);
        }
    }

    /// ACL invariants on arbitrary faulty runs: the table has one entry per
    /// dynamic instruction, counts change by at most #births per step, and
    /// every location that dies was born.
    #[test]
    fn acl_invariants_hold(n in 2i64..30, step in 0u64..150, bit in 0u8..64) {
        let module = parametric_module(n, 2.0, 1.0);
        let clean = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let at_step = step % clean.steps;
        let fault = FaultSpec::in_result(at_step, bit);
        let faulty = Vm::new(tracing_with_fault(fault)).run(&module).unwrap();
        let trace = faulty.trace.unwrap();
        let acl = AclTable::from_fault(&trace, &fault);
        prop_assert_eq!(acl.counts.len(), trace.len());
        prop_assert_eq!(acl.tainted_reads.len(), trace.len());
        let born: std::collections::HashSet<Location> =
            acl.births.iter().map(|(_, l)| *l).collect();
        for d in &acl.deaths {
            prop_assert!(born.contains(&d.location), "death without birth: {:?}", d);
        }
        for f in &acl.final_corrupted {
            prop_assert!(born.contains(f));
        }
        // The count after the last instruction equals the number of final
        // corrupted locations.
        if let Some(&last) = acl.counts.last() {
            prop_assert_eq!(last as usize, acl.final_corrupted.len());
        }
    }

    /// DDDGs built from arbitrary region instances of the parametric program
    /// are acyclic.
    #[test]
    fn dddg_invariants_hold(n in 2i64..40) {
        let module = parametric_module(n, 1.5, -0.5);
        let run = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let trace = run.trace.unwrap();
        let regions = partition_regions(&trace, &module, &RegionSelector::AllLoops);
        prop_assert!(!regions.is_empty());
        for inst in &regions {
            let slice = trace.slice(inst.start, inst.end);
            let dddg = Dddg::from_slice(slice);
            prop_assert!(dddg.edges().iter().all(|e| e.from < e.to), "cyclic DDDG");
        }
    }

    /// ACL bookkeeping identity on arbitrary faulty runs: the alive count
    /// after event `i` equals the running number of births minus deaths up
    /// to and including `i`, and the table is fully cleaned exactly when the
    /// final count is zero.
    #[test]
    fn acl_counts_equal_births_minus_deaths(n in 2i64..30, step in 0u64..150, bit in 0u8..64) {
        let module = parametric_module(n, 1.5, 0.25);
        let clean = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let at_step = step % clean.steps;
        let fault = FaultSpec::in_result(at_step, bit);
        let faulty = Vm::new(tracing_with_fault(fault)).run(&module).unwrap();
        let trace = faulty.trace.unwrap();
        let acl = AclTable::from_fault(&trace, &fault);
        let mut births = acl.births.iter().map(|&(e, _)| e).peekable();
        let mut deaths = acl.deaths.iter().map(|d| d.event).peekable();
        let mut alive: i64 = 0;
        for (i, &count) in acl.counts.iter().enumerate() {
            while births.peek() == Some(&i) {
                births.next();
                alive += 1;
            }
            while deaths.peek() == Some(&i) {
                deaths.next();
                alive -= 1;
            }
            prop_assert_eq!(count as i64, alive, "count mismatch at event {}", i);
        }
        prop_assert!(births.peek().is_none() && deaths.peek().is_none());
        if !acl.counts.is_empty() {
            prop_assert_eq!(acl.fully_cleaned(), acl.counts.last() == Some(&0));
        }
        // The down-sampled series respects its budget at every size.
        for max_points in [1usize, 2, 5, 16] {
            prop_assert!(acl.series(max_points).len() <= max_points);
        }
    }

    /// The dense compact-path ACL builder produces exactly the same table as
    /// the retained hash-based reference implementation on random traces
    /// (births/deaths compared as sorted multisets: ordering within one
    /// event is unspecified for the reference's hash iteration).
    #[test]
    fn acl_compact_path_matches_reference(seed in any::<u64>(), n in 1usize..80, nloc in 1usize..10) {
        use rand::{RngCore as _, SeedableRng as _};
        // Deterministic random trace over a small location universe.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let loc = |k: u64| Location::mem(k);
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            let n_reads = (rng.next_u64() % 3) as usize;
            let reads: Vec<(Location, Value)> = (0..n_reads)
                .map(|_| (loc(rng.next_u64() % nloc as u64), Value::F(1.0)))
                .collect();
            let write = (rng.next_u64() % 4 != 0)
                .then(|| (loc(rng.next_u64() % nloc as u64), Value::F(2.0)));
            events.push(ResolvedEvent {
                func: FunctionId(0),
                frame: 0,
                inst: ValueId(0),
                line: 1,
                kind: ftkr_vm::EventKind::Bin(BinKind::FAdd),
                reads,
                write,
            });
        }
        let trace = Trace::from_resolved(events);
        // 1-2 random seed corruptions (occasionally on a ghost location).
        let n_seeds = 1 + (rng.next_u64() % 2) as usize;
        let seeds: Vec<(usize, Location)> = (0..n_seeds)
            .map(|_| {
                let at = (rng.next_u64() % n as u64) as usize;
                let l = loc(rng.next_u64() % (nloc as u64 + 1));
                (at, l)
            })
            .collect();

        let dense = AclTable::build(&trace, &seeds);
        let reference = build_reference(&trace, &seeds);
        prop_assert_eq!(&dense.counts, &reference.counts);
        prop_assert_eq!(&dense.tainted_reads, &reference.tainted_reads);
        prop_assert_eq!(&dense.final_corrupted, &reference.final_corrupted);
        prop_assert_eq!(dense.fully_cleaned(), reference.fully_cleaned());
        let sorted_births = |t: &AclTable| {
            let mut b = t.births.clone();
            b.sort();
            b
        };
        prop_assert_eq!(sorted_births(&dense), sorted_births(&reference));
        let sorted_deaths = |t: &AclTable| {
            let mut d: Vec<(usize, Location, bool, u32)> = t
                .deaths
                .iter()
                .map(|d| (d.event, d.location, d.cause == ftkr_acl::DeathCause::Overwritten, d.line))
                .collect();
            d.sort();
            d
        };
        prop_assert_eq!(sorted_deaths(&dense), sorted_deaths(&reference));
    }

    /// Bit flips are involutive and preserve the value kind (the fault model
    /// of the paper: payload corruption, not type corruption).
    #[test]
    fn bit_flips_are_involutive(v in any::<f64>(), bit in 0u8..64) {
        let value = Value::F(v);
        let flipped = value.flip_bit(bit);
        prop_assert_eq!(flipped.kind(), value.kind());
        prop_assert!(flipped.flip_bit(bit).bit_eq(value));
        if bit != 63 || v != 0.0 {
            // Flipping any bit changes the payload.
            prop_assert!(!flipped.bit_eq(value));
        }
    }

    /// The statistical sample size is monotone in the population and never
    /// exceeds it.
    #[test]
    fn sample_size_is_sane(pop in 1u64..5_000_000) {
        use ftkr_inject::{sample_size, Confidence};
        let n = sample_size(pop, Confidence::C95, 0.03);
        prop_assert!(n <= pop);
        prop_assert!(n >= 1);
        let bigger = sample_size(pop + 1000, Confidence::C95, 0.03);
        prop_assert!(bigger >= n);
    }
}

/// A random trace over a small location universe with realistic event kinds,
/// for differential tests of the analysis pipelines.  `inst_salt` shifts the
/// static instruction identities, so a faulty trace built with a different
/// salt past some point models a divergent control-flow suffix (alignment
/// must break there, not misinterpret).
fn random_events(
    rng: &mut rand::rngs::StdRng,
    n: usize,
    nloc: u64,
    inst_salt: u32,
) -> Vec<ResolvedEvent> {
    use rand::RngCore as _;
    let loc = |k: u64| {
        if k.is_multiple_of(2) {
            Location::mem(k)
        } else {
            Location::reg(FunctionId(0), 0, ValueId(k as u32))
        }
    };
    let mut events = Vec::with_capacity(n);
    for i in 0..n {
        let kind = match rng.next_u64() % 8 {
            0 => ftkr_vm::EventKind::Load,
            1 => ftkr_vm::EventKind::Store,
            2 => ftkr_vm::EventKind::Cmp {
                kind: CmpKind::Lt,
                float: true,
                result: rng.next_u64().is_multiple_of(2),
            },
            3 => ftkr_vm::EventKind::CondBr {
                taken: rng.next_u64().is_multiple_of(2),
            },
            4 => ftkr_vm::EventKind::Bin(BinKind::LShr),
            5 => ftkr_vm::EventKind::Cast(CastKind::TruncI32),
            6 => ftkr_vm::EventKind::Output {
                format: OutputFormat::Scientific(2),
            },
            _ => ftkr_vm::EventKind::Bin(BinKind::FAdd),
        };
        let n_reads = (rng.next_u64() % 3) as usize;
        let reads: Vec<(Location, Value)> = (0..n_reads)
            .map(|_| {
                (
                    loc(rng.next_u64() % nloc),
                    Value::F((rng.next_u64() % 16) as f64),
                )
            })
            .collect();
        let write = (!rng.next_u64().is_multiple_of(3)).then(|| {
            (
                loc(rng.next_u64() % nloc),
                Value::F((rng.next_u64() % 16) as f64),
            )
        });
        events.push(ResolvedEvent {
            func: FunctionId(0),
            frame: 0,
            inst: ValueId(i as u32 ^ inst_salt),
            line: 1 + (i as u32 % 7),
            kind,
            reads,
            write,
        });
    }
    events
}

fn assert_acl_eq(a: &AclTable, b: &AclTable) {
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.tainted_reads, b.tainted_reads);
    assert_eq!(a.births, b.births);
    assert_eq!(a.final_corrupted, b.final_corrupted);
    let key = |t: &AclTable| -> Vec<(usize, Location, bool, u32)> {
        t.deaths
            .iter()
            .map(|d| {
                (
                    d.event,
                    d.location,
                    d.cause == ftkr_acl::DeathCause::Overwritten,
                    d.line,
                )
            })
            .collect()
    };
    assert_eq!(key(a), key(b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fused single-walk pipeline's outputs are cross-checked on random
    /// faulty/clean trace pairs — including pairs whose control flow
    /// diverges mid-run (different static instructions after the divergence
    /// point), empty traces, and windowed (truncated) pairs.  The
    /// `AclTable` must be bit-identical to the standalone dense builder
    /// (`AclTable::build`), and the pattern instances bit-identical between
    /// the exact-sweep fused walk (`analyze_fused`) and the forward-taint
    /// patterns-only walk (`detect_fused_patterns`).  Note what this does
    /// and does not prove: the two drivers differ in taint tracking and
    /// death reconstruction (exact backward-looking sweep vs. forward taint
    /// with deferred deaths), so this differential guards that machinery —
    /// but they share one `DetectorBank`, so the six detector *predicates*
    /// are pinned by the golden-snapshot and per-pattern scenario tests in
    /// `crates/patterns/tests/golden_scenarios.rs`, not by this test.
    #[test]
    fn fused_pipeline_differentials_hold_on_random_trace_pairs(
        seed in any::<u64>(),
        n in 0usize..80,
        nloc in 1u64..8,
        diverge_frac in 0usize..5,
        bit in 0u8..64,
    ) {
        use rand::{RngCore as _, SeedableRng as _};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        // Clean trace; faulty trace shares the prefix (with some mutated
        // written values) and diverges structurally afterwards.
        let clean_events = random_events(&mut rng, n, nloc, 0);
        let diverge_at = n * diverge_frac / 4;
        let mut faulty_events = clean_events.clone();
        for e in faulty_events.iter_mut().take(diverge_at) {
            if rng.next_u64() % 4 == 0 {
                if let Some((_, v)) = &mut e.write {
                    *v = v.flip_bit((rng.next_u64() % 64) as u8);
                }
            }
        }
        let suffix_len = n - diverge_at;
        faulty_events.truncate(diverge_at);
        faulty_events.extend(random_events(&mut rng, suffix_len, nloc, 0x8000));
        let clean = Trace::from_resolved(clean_events);
        let faulty = Trace::from_resolved(faulty_events);

        // 1-2 random seed corruptions (occasionally on a ghost location).
        let n_seeds = 1 + (rng.next_u64() % 2) as usize;
        let seeds: Vec<(usize, Location)> = (0..n_seeds)
            .map(|_| {
                let at = if n == 0 { 0 } else { (rng.next_u64() % n as u64) as usize };
                (at, Location::mem(rng.next_u64() % (nloc + 2)))
            })
            .collect();

        let reference_acl = AclTable::build(&faulty, &seeds);
        let fused = analyze_fused_seeds(&faulty, &clean, &seeds);
        assert_acl_eq(&fused.acl, &reference_acl);

        // Pattern differential: a single memory-cell fault expressible as a
        // `FaultSpec`, evaluated by both fused drivers.
        let at = seeds[0].0;
        let addr = rng.next_u64() % (nloc + 2);
        let fault = FaultSpec::in_memory(at as u64, addr, bit);
        let exact = analyze_fused(&faulty, &clean, &fault);
        let forward = detect_fused_patterns(&faulty, &clean, fault);
        prop_assert_eq!(&exact.patterns, &forward);
        assert_acl_eq(&exact.acl, &AclTable::from_fault(&faulty, &fault));

        // A window-scoped (truncated) pair behaves identically: analyses
        // only ever see indices inside the window.
        if n >= 2 {
            let end = 1 + (rng.next_u64() as usize % (n - 1));
            let wclean = Trace::from_resolved((0..end).map(|i| clean.resolved(i)));
            let wfaulty = Trace::from_resolved((0..end).map(|i| faulty.resolved(i)));
            let wseeds: Vec<(usize, Location)> =
                seeds.iter().map(|&(at, l)| (at.min(end - 1), l)).collect();
            let wacl = AclTable::build(&wfaulty, &wseeds);
            let wfused = analyze_fused_seeds(&wfaulty, &wclean, &wseeds);
            assert_acl_eq(&wfused.acl, &wacl);
            let wfault = FaultSpec::in_memory(at.min(end - 1) as u64, addr, bit);
            let wexact = analyze_fused(&wfaulty, &wclean, &wfault);
            let wforward = detect_fused_patterns(&wfaulty, &wclean, wfault);
            prop_assert_eq!(&wexact.patterns, &wforward);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streaming detector — fed straight from the interpreter, with no
    /// materialized faulty trace — finds exactly the pattern instances the
    /// materialized fused walks find, for both fault kinds across random
    /// injection points, and the fused ACL equals the standalone dense
    /// construction.
    #[test]
    fn streaming_detection_matches_the_fused_walks_on_vm_runs(
        n in 2i64..24,
        step in 0u64..400,
        bit in 0u8..64,
        mem_fault in any::<bool>(),
        addr in 0u64..4,
    ) {
        let module = parametric_module(n, 1.25, 0.75);
        let clean_run = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let clean = clean_run.trace.as_ref().unwrap();
        let at_step = step % clean_run.steps;
        let fault = if mem_fault {
            FaultSpec::in_memory(at_step, addr, bit)
        } else {
            FaultSpec::in_result(at_step, bit)
        };

        let config = VmConfig {
            max_steps: clean_run.steps * 10 + 100,
            ..VmConfig::default()
        };
        let faulty_config = VmConfig {
            record_trace: true,
            fault: Some(fault),
            ..config
        };
        let faulty = Vm::new(faulty_config).run(&module).unwrap().trace.unwrap();

        let fused = analyze_fused(&faulty, clean, &fault);
        assert_acl_eq(&fused.acl, &AclTable::from_fault(&faulty, &fault));
        let forward = detect_fused_patterns(&faulty, clean, fault);
        prop_assert_eq!(&fused.patterns, &forward);

        let (result, streamed) = detect_streaming(&module, clean, fault, config);
        prop_assert!(result.trace.is_none());
        prop_assert_eq!(streamed, fused.patterns);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Splitting any `(seed, n_tests)` campaign into `k` index-range shards —
    /// with arbitrary, uneven (possibly empty) shard boundaries — and
    /// `merge()`-ing the shard reports is bit-identical to the monolithic
    /// run.  This is the invariant the cross-process `CampaignPlan`
    /// machinery rests on.
    #[test]
    fn sharded_campaigns_merge_bit_identically_to_the_monolithic_run(
        seed in any::<u64>(),
        n_tests in 1u64..48,
        k in 1usize..6,
        cut_seed in any::<u64>(),
    ) {
        use ftkr_inject::{internal_sites, IndexRange};

        let module = parametric_module(18, 1.25, 0.5);
        let clean = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let reference = clean.global_f64("acc").unwrap()[0];
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        prop_assert!(!sites.is_empty());
        let verify = move |r: &ftkr_vm::RunResult| {
            r.global_f64("acc")
                .map(|v| (v[0] - reference).abs() <= reference.abs() * 0.05 + 1e-12)
                .unwrap_or(false)
        };
        let kernel = support::Kernel::of(&module);
        let campaign = kernel
            .campaign(verify)
            .with_seed(seed)
            .with_max_steps(ftkr_inject::hang_budget(clean.steps));
        let monolithic = kernel.run_range(&campaign, &sites, IndexRange::full(n_tests));
        prop_assert_eq!(monolithic.counts.total(), n_tests);

        // `k - 1` random cut points over `[0, n_tests]`; duplicates produce
        // empty shards, which must merge as no-ops.
        let mut cuts = vec![0, n_tests];
        let mut z = cut_seed;
        for _ in 1..k {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cuts.push(z % (n_tests + 1));
        }
        cuts.sort_unstable();
        let merged = cuts
            .windows(2)
            .map(|w| kernel.run_range(&campaign, &sites, IndexRange::new(w[0], w[1])))
            .reduce(|a, b| a.merge(&b))
            .unwrap();
        prop_assert_eq!(merged, monolithic);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fork-point restoration is invisible, over random `(app, region, fork
    /// step, seed, shard split)` draws: snapshotting the fault-free run at an
    /// arbitrary step inside a region's dynamic window and resuming yields a
    /// `RunResult` identical to the uninterrupted run; a fault injected after
    /// the fork manifests exactly as in a cold faulty run (outputs, memory,
    /// trap kind, final step count); and a seeded region campaign forked from
    /// the checkpoint, split into random shards and merged, reproduces the
    /// cold campaign byte-for-byte.
    #[test]
    fn fork_point_restoration_is_equivalent_to_cold_execution(
        app_pick in 0usize..10,
        region_pick in 0usize..4096,
        step_pick in any::<u64>(),
        seed in any::<u64>(),
        k in 1usize..4,
        bit in 0u8..64,
    ) {
        use ftkr_inject::{CampaignTarget, TargetClass};

        let apps = ftkr_apps::all_apps();
        let n_apps = apps.len();
        let app = apps.into_iter().nth(app_pick % n_apps).unwrap();
        let session = fliptracker::Session::new(app);
        let regions = session.app().regions.clone();
        let region = regions[region_pick % regions.len()].clone();
        let target = CampaignTarget::Region { name: region };
        let (start, end) = session.target_window(&target).expect("region resolves");

        let module = &session.app().module;
        let decoded = session.decoded_module();
        let cold = Vm::new(VmConfig::default()).run(module).unwrap();
        // An arbitrary fork step inside the region's window (clamped to stay
        // strictly mid-run so a snapshot exists there).
        let lo = start.max(1);
        let fork = (lo + step_pick % (end - lo).max(1)).min(cold.steps - 1);
        let snap = Vm::new(VmConfig::default())
            .snapshot_at(module, fork)
            .unwrap()
            .expect("fork step is mid-run");
        prop_assert_eq!(snap.step(), fork);

        // Clean resume reproduces the uninterrupted run exactly.
        let resumed = Vm::new(VmConfig::default())
            .resume_from_decoded(module, decoded, &snap)
            .unwrap();
        prop_assert_eq!(&resumed, &cold);

        // A post-restore fault manifests exactly as in a cold faulty run.
        // (Debug-format comparison: faulty outputs can contain NaN, which
        // `PartialEq` would treat as unequal even when bit-identical.)
        let fault_step = fork + step_pick % (cold.steps - fork);
        let fault = FaultSpec::in_result(fault_step, bit);
        let faulty_config = || VmConfig {
            fault: Some(fault),
            max_steps: cold.steps * 10 + 10_000,
            ..VmConfig::default()
        };
        let faulty_cold = Vm::new(faulty_config()).run(module).unwrap();
        let faulty_forked = Vm::new(faulty_config())
            .resume_from_decoded(module, decoded, &snap)
            .unwrap();
        prop_assert_eq!(format!("{faulty_forked:?}"), format!("{faulty_cold:?}"));

        // Campaign-level equivalence under a random seed and shard split.
        let plan = session
            .plan(target, TargetClass::Internal, 8)
            .expect("plan resolves")
            .with_seed(seed);
        let reference = session.run_plan_cold(&plan).expect("cold plan executes");
        let merged = plan
            .shards(k)
            .iter()
            .map(|shard| session.run_plan(shard).expect("forked shard executes"))
            .reduce(|a, b| a.merge(&b))
            .expect("at least one shard");
        prop_assert_eq!(merged.to_json(), reference.to_json());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seed determinism of the campaign machinery, for one promoted (LU)
    /// and one original (IS) application: the same `CampaignPlan` — same
    /// app, seed and shard split — produces byte-identical `CampaignReport`
    /// JSON in every fresh session, and any shard split merges to the same
    /// bytes as the monolithic run.
    #[test]
    fn campaign_plans_execute_byte_identically_across_repeated_runs(
        seed in any::<u64>(),
        k in 1usize..4,
        promoted in any::<bool>(),
    ) {
        use ftkr_inject::{CampaignTarget, TargetClass};
        let name = if promoted { "LU" } else { "IS" };
        let session = fliptracker::Session::by_name(name).expect("known app");
        let region = session.app().regions[0].clone();
        let plan = session
            .plan(CampaignTarget::Region { name: region }, TargetClass::Internal, 8)
            .expect("plan resolves")
            .with_seed(seed);
        let first = session.run_plan(&plan).expect("plan executes").to_json();
        let again = fliptracker::Session::by_name(name)
            .unwrap()
            .run_plan(&plan)
            .expect("plan re-executes")
            .to_json();
        prop_assert_eq!(&first, &again, "{} report JSON differs across runs", name);

        let merged = plan
            .shards(k)
            .iter()
            .map(|shard| {
                fliptracker::Session::by_name(name)
                    .unwrap()
                    .run_plan(shard)
                    .expect("shard executes")
            })
            .reduce(|a, b| a.merge(&b))
            .expect("at least one shard");
        prop_assert_eq!(merged.to_json(), first, "{} sharded merge differs", name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Decoded dispatch is bit-identical to the legacy per-`Op` interpreter
    /// it replaced, over random `(app, region, fault, seed)` draws, checked
    /// against the digests that interpreter recorded for exactly these draws
    /// (`tests/fixtures/legacy_proptest_runs.txt`; the vendored proptest
    /// seeds every case from the test name): clean runs (untraced and
    /// traced, including the trace's events, interned locations and
    /// delta-decoded source lines), faulty runs from the region's
    /// internal-site population, and snapshot capture at an arbitrary step
    /// with the suffix resumed clean and faulty — the interchangeability the
    /// campaign executors rely on when they fork every test from a
    /// checkpoint.
    #[test]
    fn decoded_execution_is_bit_identical_to_the_legacy_interpreter(
        app_pick in 0usize..10,
        region_pick in 0usize..4096,
        step_pick in any::<u64>(),
        seed in any::<u64>(),
        bit in 0u8..64,
    ) {
        use ftkr_inject::{internal_sites, sample_site_fault, CampaignTarget};
        use ftkr_vm::DecodedModule;
        use support::{hex, run_digest, LineFixtures};

        let fixtures = LineFixtures::load("legacy_proptest_runs.txt");
        let key = format!("{app_pick} {region_pick} {step_pick} {seed} {bit}");
        let legacy = |run: &str| fixtures.get(&format!("{key} {run}")).to_string();

        let apps = ftkr_apps::all_apps();
        let n_apps = apps.len();
        let app = apps.into_iter().nth(app_pick % n_apps).unwrap();
        let session = fliptracker::Session::new(app);
        let module = &session.app().module;
        let decoded = DecodedModule::decode(module);

        // Clean equivalence, untraced and traced.  The digest covers
        // outcome, steps, outputs, memory and the trace (events, operand
        // pool, interned locations, source lines).
        let fast = Vm::new(VmConfig::default()).run_decoded(module, &decoded).unwrap();
        prop_assert_eq!(hex(run_digest(&fast)), legacy("clean"));
        let fast_traced = Vm::new(VmConfig::tracing()).run_decoded(module, &decoded).unwrap();
        prop_assert_eq!(hex(run_digest(&fast_traced)), legacy("traced"));

        // A fault drawn from a random region's internal-site population.
        let regions = session.app().regions.clone();
        let region = regions[region_pick % regions.len()].clone();
        let target = CampaignTarget::Region { name: region };
        let (start, end) = session.target_window(&target).expect("region resolves");
        let trace = fast_traced.trace.as_ref().unwrap();
        let sites = internal_sites(trace, start as usize, end as usize);
        prop_assert!(!sites.is_empty());
        let fault = sample_site_fault(seed, &sites, u64::from(bit));
        let faulty_config = || VmConfig {
            fault: Some(fault),
            max_steps: fast.steps * 10 + 10_000,
            ..VmConfig::default()
        };
        let faulty_fast = Vm::new(faulty_config()).run_decoded(module, &decoded).unwrap();
        prop_assert_eq!(hex(run_digest(&faulty_fast)), legacy("faulty"));

        // Snapshot capture at an arbitrary mid-run step, then the suffix
        // resumed clean and faulty: identical to the legacy resumes, and to
        // the cold runs above when the fault lands after the fork.
        let lo = start.max(1);
        let fork = (lo + step_pick % (end - lo).max(1)).min(fast.steps - 1);
        let snap = Vm::new(VmConfig::default())
            .snapshot_at(module, fork)
            .unwrap()
            .expect("fork step is mid-run");
        let resumed_fast = Vm::new(VmConfig::default())
            .resume_from_decoded(module, &decoded, &snap)
            .unwrap();
        prop_assert_eq!(hex(run_digest(&resumed_fast)), legacy("resumed"));
        prop_assert_eq!(&resumed_fast, &fast);
        if fault.at_step >= fork {
            let forked_fast = Vm::new(faulty_config())
                .resume_from_decoded(module, &decoded, &snap)
                .unwrap();
            prop_assert_eq!(hex(run_digest(&forked_fast)), legacy("forked"));
            prop_assert_eq!(run_digest(&forked_fast), run_digest(&faulty_fast));
        } else {
            prop_assert_eq!(legacy("forked"), "-");
        }
    }
}

/// The reference ACL builder agrees with the dense one on the paper's
/// Figure 3 example (births compared sorted: the reference's hash iteration
/// order is unspecified).
#[test]
fn acl_reference_matches_dense_builder_on_the_figure3_example() {
    let ev = |reads: Vec<Location>, write: Option<Location>| ResolvedEvent {
        func: FunctionId(0),
        frame: 0,
        inst: ValueId(0),
        line: 1,
        kind: ftkr_vm::EventKind::Bin(BinKind::FAdd),
        reads: reads.into_iter().map(|l| (l, Value::F(1.0))).collect(),
        write: write.map(|l| (l, Value::F(1.0))),
    };
    let loc1 = Location::mem(1);
    let loc2 = Location::mem(2);
    let other = Location::mem(99);
    let trace = Trace::from_resolved(vec![
        ev(vec![], Some(loc1)),
        ev(vec![other], Some(other)),
        ev(vec![loc1, other], Some(loc2)),
        ev(vec![other], Some(other)),
        ev(vec![other], Some(loc1)),
        ev(vec![loc2], Some(other)),
    ]);
    let dense = AclTable::build(&trace, &[(0, loc1)]);
    let reference = build_reference(&trace, &[(0, loc1)]);
    assert_eq!(reference.counts, dense.counts);
    assert_eq!(reference.tainted_reads, dense.tainted_reads);
    assert_eq!(reference.final_corrupted, dense.final_corrupted);
    let mut db = dense.births.clone();
    let mut rb = reference.births.clone();
    db.sort();
    rb.sort();
    assert_eq!(db, rb);
}
