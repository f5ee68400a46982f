//! Scenario and golden-snapshot tests of the fused detection pipeline.
//!
//! The first half ports the per-pattern scenario programs that used to live
//! with the legacy multi-pass `detect_all` reference (deleted): each of the
//! six resilience patterns is exercised by a miniature program whose
//! physical behaviour (shifted-out bits, preserved branches, amortized
//! errors, ...) forces the pattern, and detection runs through the fused
//! single-walk pipeline the production drivers use.
//!
//! The second half pins **golden snapshots**: on a fixed recorded trace pair
//! and fixed faults, the fused walk must emit exactly the recorded
//! `(kind, event, line)` instances — the coverage the fused-vs-legacy
//! differential used to provide, without keeping the legacy code alive.

use ftkr_acl::AclTable;
use ftkr_ir::prelude::*;
use ftkr_ir::Global;
use ftkr_patterns::{
    analyze_fused, FusedInjection, PatternInstance, PatternKind, StreamingDetector,
};
use ftkr_vm::{
    DecodedModule, EventCursor, EventKind, EventView, FaultSpec, Location, RunResult, Trace, Vm,
    VmConfig,
};

fn run_clean(module: &Module) -> Trace {
    Vm::new(VmConfig::tracing())
        .run(module)
        .unwrap()
        .trace
        .unwrap()
}

fn run_faulty(module: &Module, fault: FaultSpec) -> Trace {
    let config = VmConfig {
        fault: Some(fault),
        ..VmConfig::tracing()
    };
    Vm::new(config).run(module).unwrap().trace.unwrap()
}

/// The streaming detector over a live, untraced faulty run of `module`.
fn detect_streaming(
    module: &Module,
    clean: &Trace,
    fault: FaultSpec,
) -> (RunResult, Vec<PatternInstance>) {
    let mut detector = StreamingDetector::new(clean, fault);
    let config = VmConfig {
        fault: Some(fault),
        ..VmConfig::default()
    };
    let result = Vm::new(config)
        .run_with_visitors_decoded(module, &DecodedModule::decode(module), &mut [&mut detector])
        .unwrap();
    (result, detector.into_patterns())
}

/// Every event of `trace` with its dynamic index.
fn views(trace: &Trace) -> impl Iterator<Item = (usize, EventView<'_>)> {
    (0..trace.len()).map(move |idx| (idx, trace.view(idx)))
}

/// Detect through the fused pipeline, asserting the streaming (no trace)
/// path agrees with the materialized walk on the way.
fn detect(module: &Module, fault: FaultSpec) -> Vec<PatternInstance> {
    let clean = run_clean(module);
    let faulty = run_faulty(module, fault);
    let fused = analyze_fused(&faulty, &clean, &fault);
    let (result, streamed) = detect_streaming(module, &clean, fault);
    assert!(result.trace.is_none(), "streaming must not record a trace");
    assert_eq!(streamed, fused.patterns, "streaming/materialized disagree");
    fused.patterns
}

/// Program exercising the shifting pattern: bucket = key >> 4.
fn shift_module() -> Module {
    let mut m = Module::new("shift");
    let keys = m.add_global(Global::with_i64("keys", vec![0x1234, 0x5678]));
    let buckets = m.add_global(Global::zeroed_i64("buckets", 2));
    let mut b = FunctionBuilder::new("main");
    b.set_line(10);
    let kaddr = b.global_addr(keys);
    let baddr = b.global_addr(buckets);
    let zero = b.const_i64(0);
    let two = b.const_i64(2);
    b.main_for("main_loop", zero, two, |b, i| {
        let key = b.load_idx(kaddr, i);
        let four = b.const_i64(4);
        let bucket = b.lshr(key, four);
        b.store_idx(baddr, i, bucket);
        b.output(bucket, OutputFormat::Integer);
    });
    b.ret(None);
    m.add_function(b.finish());
    m
}

fn first_key_load(clean: &Trace) -> usize {
    views(clean)
        .find(|(_, v)| {
            matches!(v.event().kind, EventKind::Load)
                && v.reads()
                    .any(|(l, _)| matches!(l, Location::Mem { addr } if addr < 2))
        })
        .unwrap()
        .0
}

#[test]
fn shifting_pattern_detected_when_low_bits_flip() {
    let module = shift_module();
    let clean = run_clean(&module);
    // Flip bit 1 of the first key load: inside the shifted-out low nibble.
    let fault = FaultSpec::in_result(first_key_load(&clean) as u64, 1);
    let found = detect(&module, fault);
    assert!(
        found.iter().any(|p| p.kind == PatternKind::Shifting),
        "expected a Shifting instance, got {found:?}"
    );
    // With the corrupted bits eliminated, the traces stay aligned.
    let faulty = run_faulty(&module, fault);
    assert_eq!(clean.len(), faulty.len());
}

#[test]
fn shifting_pattern_not_reported_when_high_bits_flip() {
    let module = shift_module();
    let clean = run_clean(&module);
    // Bit 20 survives a 4-bit shift: the error propagates.
    let fault = FaultSpec::in_result(first_key_load(&clean) as u64, 20);
    let found = detect(&module, fault);
    assert!(!found.iter().any(|p| p.kind == PatternKind::Shifting));
}

/// Program exercising data overwriting: the corrupted cell is
/// unconditionally re-initialized before being used.
fn overwrite_module() -> Module {
    let mut m = Module::new("overwrite");
    let g = m.add_global(Global::zeroed_f64("v", 4));
    let mut b = FunctionBuilder::new("main");
    b.set_line(20);
    let gaddr = b.global_addr(g);
    let zero = b.const_i64(0);
    let four = b.const_i64(4);
    b.main_for("init", zero, four, |b, i| {
        let f = b.sitofp(i);
        b.store_idx(gaddr, i, f);
    });
    let z2 = b.const_i64(0);
    let four2 = b.const_i64(4);
    b.region_for("sum", z2, four2, |b, i| {
        let v = b.load_idx(gaddr, i);
        b.output(v, OutputFormat::Full);
    });
    b.ret(None);
    m.add_function(b.finish());
    m
}

#[test]
fn data_overwriting_detected_for_preinit_fault() {
    let module = overwrite_module();
    // Corrupt cell 2 of the global before anything runs; the init loop
    // overwrites it with clean data.
    let fault = FaultSpec::in_memory(0, 2, 30);
    let found = detect(&module, fault);
    assert!(found.iter().any(|p| p.kind == PatternKind::DataOverwriting));
    // And the fault leaves no trace in the output.
    let clean = run_clean(&module);
    let faulty = run_faulty(&module, fault);
    assert!(clean
        .events
        .last()
        .unwrap()
        .written_value()
        .map(|v| faulty
            .events
            .last()
            .unwrap()
            .written_value()
            .unwrap()
            .bit_eq(v))
        .unwrap_or(true));
}

/// Program exercising the conditional-statement pattern: find the minimum
/// of an array; small perturbations of non-minimal elements do not change
/// the chosen index.
fn min_module() -> Module {
    let mut m = Module::new("min");
    let data = m.add_global(Global::with_f64("data", vec![5.0, 1.0, 9.0, 7.0]));
    let out = m.add_global(Global::zeroed_i64("argmin", 1));
    let mut b = FunctionBuilder::new("main");
    b.set_line(30);
    let daddr = b.global_addr(data);
    let oaddr = b.global_addr(out);
    let best = b.alloca("best", 1);
    let besti = b.alloca("besti", 1);
    let big = b.const_f64(1e30);
    b.store(best, big);
    let zero = b.const_i64(0);
    b.store(besti, zero);
    let four = b.const_i64(4);
    b.main_for("scan", zero, four, |b, i| {
        let v = b.load_idx(daddr, i);
        let cur = b.load(best);
        let lt = b.fcmp(CmpKind::Lt, v, cur);
        b.if_then(lt, |b| {
            b.store(best, v);
            b.store(besti, i);
        });
    });
    let besti_v = b.load(besti);
    b.store(oaddr, besti_v);
    b.output(besti_v, OutputFormat::Integer);
    b.ret(None);
    m.add_function(b.finish());
    m
}

#[test]
fn conditional_statement_detected_when_branch_outcome_is_preserved() {
    let module = min_module();
    let clean = run_clean(&module);
    // Corrupt the load of data[0] (=5.0) with a low-order mantissa flip:
    // it stays larger than 1.0, so every comparison keeps its outcome.
    let (step, _) = views(&clean)
        .find(|(_, v)| {
            matches!(v.event().kind, EventKind::Load)
                && v.reads().any(|(l, _)| l == Location::mem(0))
        })
        .unwrap();
    let fault = FaultSpec::in_result(step as u64, 2);
    let found = detect(&module, fault);
    assert!(found
        .iter()
        .any(|p| p.kind == PatternKind::ConditionalStatement));
    // The final argmin is unchanged.
    let config = VmConfig {
        fault: Some(fault),
        ..VmConfig::default()
    };
    let faulty_run = Vm::new(config).run(&module).unwrap();
    assert_eq!(faulty_run.global_i64("argmin").unwrap(), vec![1]);
}

/// Program exercising truncation: a double is printed with few digits.
fn truncation_module() -> Module {
    let mut m = Module::new("trunc");
    let g = m.add_global(Global::with_f64("x", vec![1.25]));
    let mut b = FunctionBuilder::new("main");
    b.set_line(40);
    let gaddr = b.global_addr(g);
    let v = b.load(gaddr);
    let t = b.fptosi(v);
    b.output(t, OutputFormat::Integer);
    b.output(v, OutputFormat::Scientific(3));
    b.ret(None);
    m.add_function(b.finish());
    m
}

#[test]
fn truncation_detected_for_low_mantissa_flips() {
    let module = truncation_module();
    let clean = run_clean(&module);
    let (step, _) = clean
        .iter()
        .find(|(_, e)| matches!(e.kind, EventKind::Load))
        .unwrap();
    // Bit 5 of the mantissa is far below both the integer cut and the
    // 3-digit scientific format.
    let fault = FaultSpec::in_result(step as u64, 5);
    let found = detect(&module, fault);
    let truncs: Vec<_> = found
        .iter()
        .filter(|p| p.kind == PatternKind::Truncation)
        .collect();
    assert!(
        !truncs.is_empty(),
        "expected truncation instances, got {found:?}"
    );
}

/// Program exercising repeated additions: an accumulator repeatedly grows by
/// clean increments after being corrupted, so the relative error of the
/// stored value shrinks.
fn repeated_addition_module() -> Module {
    let mut m = Module::new("ra");
    let g = m.add_global(Global::zeroed_f64("acc", 1));
    let mut b = FunctionBuilder::new("main");
    b.set_line(50);
    let gaddr = b.global_addr(g);
    let zero = b.const_i64(0);
    let n = b.const_i64(50);
    b.main_for("accumulate", zero, n, |b, _i| {
        let cur = b.load(gaddr);
        let inc = b.const_f64(1.0);
        let next = b.fadd(cur, inc);
        b.store(gaddr, next);
    });
    let total = b.load(gaddr);
    b.output(total, OutputFormat::Scientific(6));
    b.ret(None);
    m.add_function(b.finish());
    m
}

#[test]
fn repeated_additions_detected_when_error_amortizes() {
    let module = repeated_addition_module();
    let clean = run_clean(&module);
    // Corrupt an early loaded accumulator value (cell 0 holds `acc`) with
    // a low-order flip; induction-variable loads are skipped so control
    // flow is unaffected.
    let (step, _) = views(&clean)
        .filter(|(_, v)| {
            matches!(v.event().kind, EventKind::Load)
                && v.reads()
                    .any(|(l, _)| matches!(l, Location::Mem { addr } if addr == 0))
        })
        .nth(3)
        .unwrap();
    let fault = FaultSpec::in_result(step as u64, 10);
    let found = detect(&module, fault);
    assert!(
        found
            .iter()
            .any(|p| p.kind == PatternKind::RepeatedAdditions),
        "expected RepeatedAdditions, got kinds {:?}",
        found.iter().map(|p| p.kind).collect::<Vec<_>>()
    );
}

/// Program exercising DCL: corrupted temporaries are reduced into one
/// output and never touched again.
fn dcl_module() -> Module {
    let mut m = Module::new("dcl");
    let src = m.add_global(Global::with_f64("src", vec![1.0, 2.0, 3.0, 4.0]));
    let dst = m.add_global(Global::zeroed_f64("dst", 1));
    let mut b = FunctionBuilder::new("main");
    b.set_line(60);
    let saddr = b.global_addr(src);
    let daddr = b.global_addr(dst);
    let tmp = b.alloca("tmp", 4);
    let zero = b.const_i64(0);
    let four = b.const_i64(4);
    // Fill temporaries from source (faults land here).
    b.main_for("fill_tmp", zero, four, |b, i| {
        let v = b.load_idx(saddr, i);
        let scaled = b.fmul(v, b.const_f64(2.0));
        b.store_idx(tmp, i, scaled);
    });
    // Aggregate the temporaries into a single output; the temporaries are
    // dead afterwards.
    let z2 = b.const_i64(0);
    let four2 = b.const_i64(4);
    b.region_for("reduce", z2, four2, |b, i| {
        let t = b.load_idx(tmp, i);
        let cur = b.load(daddr);
        let next = b.fadd(cur, t);
        b.store(daddr, next);
    });
    let out = b.load(daddr);
    b.output(out, OutputFormat::Scientific(2));
    b.ret(None);
    m.add_function(b.finish());
    m
}

#[test]
fn dead_corrupted_locations_detected_when_temporaries_die() {
    let module = dcl_module();
    let clean = run_clean(&module);
    // Corrupt one of the temporaries as it is produced (the fmul result).
    let (step, _) = clean
        .iter()
        .find(|(_, e)| matches!(e.kind, EventKind::Bin(BinKind::FMul)))
        .unwrap();
    let fault = FaultSpec::in_result(step as u64, 3);
    let faulty = run_faulty(&module, fault);
    let fused = analyze_fused(&faulty, &clean, &fault);
    assert!(
        fused
            .patterns
            .iter()
            .any(|p| p.kind == PatternKind::DeadCorruptedLocations),
        "expected DCL, got kinds {:?}",
        fused.patterns.iter().map(|p| p.kind).collect::<Vec<_>>()
    );
    // The ACL count must come back down once the temporaries die.
    assert!(fused.acl.max_count() >= 1);
    assert!(!fused.acl.decrease_events().is_empty());
}

#[test]
fn clean_run_produces_no_pattern_instances() {
    let module = shift_module();
    let clean = run_clean(&module);
    let mut fused = FusedInjection::new(&clean, &clean, &[]);
    EventCursor::new(&clean).run(&mut [&mut fused]);
    let fused = fused.into_analysis();
    assert!(fused.patterns.is_empty());
    assert_eq!(fused.acl.max_count(), 0);
}

// -------------------------------------------------------------------------
// Golden snapshots
// -------------------------------------------------------------------------

/// An accumulation kernel exercising several patterns at once (the same
/// `busy` shape the in-crate unit tests sweep): repeated additions into a
/// cell, a guarded minimum, a truncating output, and temporaries that die
/// after a reduction.
fn busy_module() -> Module {
    let mut m = Module::new("busy");
    let acc = m.add_global(Global::zeroed_f64("acc", 1));
    let tmp = m.add_global(Global::zeroed_f64("tmp", 4));
    let mut b = FunctionBuilder::new("main");
    b.set_line(10);
    let aaddr = b.global_addr(acc);
    let taddr = b.global_addr(tmp);
    let zero = b.const_i64(0);
    let four = b.const_i64(4);
    b.main_for("fill", zero, four, |b, i| {
        let f = b.sitofp(i);
        let scaled = b.fmul(f, b.const_f64(1.5));
        b.store_idx(taddr, i, scaled);
    });
    let z2 = b.const_i64(0);
    let n = b.const_i64(24);
    b.region_for("accumulate", z2, n, |b, _i| {
        let cur = b.load(aaddr);
        let inc = b.const_f64(0.25);
        let next = b.fadd(cur, inc);
        b.store(aaddr, next);
    });
    let z3 = b.const_i64(0);
    let four3 = b.const_i64(4);
    b.region_for("reduce", z3, four3, |b, i| {
        let t = b.load_idx(taddr, i);
        let cur = b.load(aaddr);
        let next = b.fadd(cur, t);
        b.store(aaddr, next);
    });
    let total = b.load(aaddr);
    let below = b.fcmp(CmpKind::Lt, total, b.const_f64(100.0));
    b.if_then(below, |b| {
        let v = b.load(aaddr);
        b.output(v, OutputFormat::Scientific(3));
    });
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// The recorded fused output for a fixed (module, fault) pair, as
/// `(kind, event, line)` triples.  Any change to the detectors, the taint
/// sweep, or the event model that alters these is a *visible behaviour
/// change* and must update the snapshot deliberately.
fn golden_snapshot(fault: FaultSpec) -> Vec<(PatternKind, usize, u32)> {
    let module = busy_module();
    let clean = run_clean(&module);
    let faulty = run_faulty(&module, fault);
    let fused = analyze_fused(&faulty, &clean, &fault);
    // The streaming path must reproduce the snapshot too.
    let (_, streamed) = detect_streaming(&module, &clean, fault);
    assert_eq!(streamed, fused.patterns);
    // And the fused ACL must equal the standalone dense construction.
    let reference = AclTable::from_fault(&faulty, &fault);
    assert_eq!(fused.acl.counts, reference.counts);
    assert_eq!(fused.acl.tainted_reads, reference.tainted_reads);
    fused
        .patterns
        .iter()
        .map(|p| (p.kind, p.event, p.line))
        .collect()
}

#[test]
fn golden_fused_output_for_a_mid_run_accumulator_fault() {
    // GOLDEN: update only on a deliberate detector behaviour change.
    let got = golden_snapshot(FaultSpec::in_result(100, 40));
    assert_eq!(
        got,
        vec![
            (PatternKind::DeadCorruptedLocations, 319, 10),
            (PatternKind::DeadCorruptedLocations, 320, 10),
            (PatternKind::DeadCorruptedLocations, 379, 10),
            (PatternKind::DeadCorruptedLocations, 380, 10),
            (PatternKind::RepeatedAdditions, 380, 10),
            (PatternKind::DeadCorruptedLocations, 389, 10),
            (PatternKind::ConditionalStatement, 389, 10),
            (PatternKind::ConditionalStatement, 390, 10),
            (PatternKind::DeadCorruptedLocations, 391, 10),
            (PatternKind::Truncation, 392, 10),
        ],
        "fused output drifted from the recorded snapshot"
    );
}

#[test]
fn golden_fused_output_for_a_preinit_memory_fault() {
    // GOLDEN: update only on a deliberate detector behaviour change.
    let got = golden_snapshot(FaultSpec::in_memory(0, 1, 30));
    assert_eq!(
        got,
        vec![(PatternKind::DataOverwriting, 12, 10)],
        "fused output drifted from the recorded snapshot"
    );
}

#[test]
fn golden_fused_output_for_a_late_accumulator_fault() {
    // GOLDEN: update only on a deliberate detector behaviour change.
    let got = golden_snapshot(FaultSpec::in_result(230, 1));
    assert_eq!(
        got,
        vec![
            (PatternKind::DeadCorruptedLocations, 319, 10),
            (PatternKind::DeadCorruptedLocations, 320, 10),
            (PatternKind::DeadCorruptedLocations, 379, 10),
            (PatternKind::DeadCorruptedLocations, 380, 10),
            (PatternKind::RepeatedAdditions, 380, 10),
            (PatternKind::DeadCorruptedLocations, 389, 10),
            (PatternKind::ConditionalStatement, 389, 10),
            (PatternKind::ConditionalStatement, 390, 10),
            (PatternKind::DeadCorruptedLocations, 391, 10),
        ],
        "fused output drifted from the recorded snapshot"
    );
}
