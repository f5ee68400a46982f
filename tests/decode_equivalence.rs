//! Decoded dispatch against the frozen legacy outputs, over the whole
//! application registry.
//!
//! Decoded dispatch (one slot per instruction over a flat register file,
//! fused compare-branch superinstructions) is only admissible if it is
//! *invisible*.  The per-`Op` interpreter they replaced
//! recorded golden fixtures (`tests/fixtures/`) before it was deleted, and
//! this suite holds every VM entry point and session executor to them:
//! clean runs to a bit-exact `RunResult` digest (outcome, steps, outputs,
//! memory, and every trace event, operand read, location and source line),
//! and the forked, cold and analyzed executors — shard merges included — to
//! byte-identical report JSON for every application.

mod support;

use fliptracker::prelude::*;
use ftkr_vm::{Vm, VmConfig};
use support::{hex, run_digest, BlockFixtures, LineFixtures};

/// Seed distinct from the figure drivers' and the other equivalence suites'
/// so this file samples its own fault population.
const SEED: u64 = 0xDEC0_0DED;

/// Clean (fault-free) runs of every registry application, untraced and
/// traced, through both `Vm::run` and `Vm::run_decoded`, digest-identical
/// to the legacy interpreter's.
#[test]
fn clean_decoded_runs_match_the_legacy_interpreter_for_every_app() {
    let fixtures = LineFixtures::load("legacy_clean_runs.txt");
    for app in all_apps() {
        let decoded = ftkr_vm::DecodedModule::decode(&app.module);
        for record_trace in [false, true] {
            let config = || VmConfig {
                record_trace,
                ..VmConfig::default()
            };
            let label = if record_trace { "traced" } else { "untraced" };
            let want = fixtures.get(&format!("{} {label}", app.name));
            let run = Vm::new(config()).run(&app.module).expect("module verifies");
            assert_eq!(
                hex(run_digest(&run)),
                want,
                "{} Vm::run ({label})",
                app.name
            );
            let fast = Vm::new(config())
                .run_decoded(&app.module, &decoded)
                .expect("module verifies");
            assert_eq!(
                hex(run_digest(&fast)),
                want,
                "{} Vm::run_decoded ({label})",
                app.name
            );
        }
    }
}

/// Every registry application, whole-program and every named region: the
/// session executors (forked and cold) produce campaign reports
/// byte-identical to the legacy reference campaign, and a 3-way shard split
/// merges back to the legacy shard merge.
#[test]
fn decoded_reports_match_a_legacy_campaign_for_every_app() {
    let fixtures = BlockFixtures::load("legacy_reports.txt");
    for app in all_apps() {
        let name = app.name;
        let session = Session::new(app);
        let mut targets = vec![CampaignTarget::WholeProgram];
        targets.extend(
            session
                .app()
                .regions
                .iter()
                .map(|r| CampaignTarget::Region { name: r.clone() }),
        );
        for target in targets {
            let label = target.label();
            let legacy = fixtures.get(&format!("{name} {label} plain"));
            let plan = session
                .plan(target.clone(), TargetClass::Internal, 6)
                .expect("registry targets resolve")
                .with_seed(SEED);

            let forked = session.run_plan(&plan).unwrap().to_json();
            assert_eq!(forked, legacy, "{name} {target:?}: forked executor");
            let cold = session.run_plan_cold(&plan).unwrap().to_json();
            assert_eq!(cold, legacy, "{name} {target:?}: cold executor");

            let merged = plan
                .shards(3)
                .iter()
                .map(|shard| session.run_plan(shard).unwrap())
                .reduce(|a, b| a.merge(&b))
                .unwrap();
            assert_eq!(
                merged.to_json(),
                fixtures.get(&format!("{name} {label} plain merged3")),
                "{name} {target:?}: sharded merge"
            );
        }
    }
}

/// The streaming-analysis executor under the same bar: for every registry
/// application, the analyzed report (outcome tally, pattern tally,
/// tests-with-patterns) is byte-identical to the legacy serial reference
/// that streamed every faulty run through the per-`Op` interpreter, forked
/// and cold, and analyzed shards merge to the legacy shard merge.
#[test]
fn analyzed_decoded_reports_match_a_legacy_streamed_reference_for_every_app() {
    let fixtures = BlockFixtures::load("legacy_reports.txt");
    for app in all_apps() {
        let name = app.name;
        let session = Session::new(app);
        let region = session.app().regions[0].clone();
        let legacy = fixtures.get(&format!("{name} {region} analyzed"));
        let plan = session
            .plan(
                CampaignTarget::Region {
                    name: region.clone(),
                },
                TargetClass::Internal,
                6,
            )
            .expect("registry regions resolve")
            .with_seed(SEED);

        let analyzed = session.run_plan_analyzed(&plan).unwrap().to_json();
        assert_eq!(
            analyzed, legacy,
            "{name} region {region:?}: analyzed forked"
        );
        let cold = session.run_plan_analyzed_cold(&plan).unwrap().to_json();
        assert_eq!(cold, legacy, "{name} region {region:?}: analyzed cold");

        let merged = plan
            .shards(2)
            .iter()
            .map(|shard| session.run_plan_analyzed(shard).unwrap())
            .reduce(|a, b| a.merge(&b))
            .unwrap();
        assert_eq!(
            merged.to_json(),
            fixtures.get(&format!("{name} {region} analyzed merged2")),
            "{name} region {region:?}: analyzed sharded merge"
        );
    }
}

/// The decoded tables of every registry application keep the invariants
/// dispatch relies on without checking them per step: every branch target
/// is the pc of a block's first instruction; a slot is a fused tail exactly
/// when the slot before it is a fused head, and that tail is the plain
/// `CondBr`, `Load` or `Store` reading the head's result register; every
/// typed slot and immediate is the operation and the constant of its IR
/// instruction; and every operand indexes a cell of its function's register
/// file.
#[test]
fn decoded_tables_of_every_app_keep_their_dispatch_invariants() {
    use ftkr_ir::decode::{DInst, Reg, RegConst};
    use ftkr_ir::inst::{BinKind, Op, Operand};

    for app in all_apps() {
        let decoded = ftkr_vm::DecodedModule::decode(&app.module);
        assert_eq!(decoded.verdict(), Ok(()), "{}", app.name);
        for (func, df) in app.module.functions.iter().zip(&decoded.functions) {
            let at = format!("{}::{}", app.name, func.name);
            let mut block_starts = Vec::new();
            let mut pc = 0u32;
            for block in &func.blocks {
                block_starts.push(pc);
                pc += block.insts.len() as u32;
            }
            assert_eq!(df.slots.len(), pc as usize, "{at}");
            let in_file = |r: Reg| r.index() < df.num_regs();
            // The register `r` holds IR operand `o`.
            let holds = |r: Reg, o: Operand| match o {
                Operand::Value(v) => r == Reg(v.0),
                Operand::Arg(i) => r.index() == df.num_insts + i as usize,
                Operand::ConstI(c) => const_cell(df, r) == Some(RegConst::I(c)),
                Operand::ConstF(c) => {
                    matches!(const_cell(df, r), Some(RegConst::F(x)) if x.to_bits() == c.to_bits())
                }
                Operand::Global(g) => const_cell(df, r) == Some(RegConst::Global(g)),
            };
            for (pc, slot) in df.slots.iter().enumerate() {
                let op = &func.inst(slot.result).op;
                // The operation a typed slot stands for, with its operands.
                let typed = |kind: BinKind, lhs: Reg, rhs: Reg| {
                    assert!(
                        matches!(op, &Op::Bin { kind: k, lhs: l, rhs: r }
                            if k == kind && holds(lhs, l) && holds(rhs, r)),
                        "{at} pc {pc}: {slot:?} is not {op:?}"
                    );
                    (vec![], vec![lhs, rhs])
                };
                // An immediate is the `ConstI` it replaced, on either side of
                // a commutative op.
                let immediate = |kind: BinKind, lhs: Reg, imm: i64| {
                    assert!(
                        matches!(op, &Op::Bin { kind: k, lhs: l, rhs: r } if k == kind
                            && ((holds(lhs, l) && r == Operand::ConstI(imm))
                                || (l == Operand::ConstI(imm) && holds(lhs, r)))),
                        "{at} pc {pc}: {slot:?} is not {op:?}"
                    );
                    (vec![], vec![lhs])
                };
                let (targets, regs): (Vec<u32>, Vec<Reg>) = match slot.inst {
                    DInst::FAdd { lhs, rhs } => typed(BinKind::FAdd, lhs, rhs),
                    DInst::FSub { lhs, rhs } => typed(BinKind::FSub, lhs, rhs),
                    DInst::FMul { lhs, rhs } => typed(BinKind::FMul, lhs, rhs),
                    DInst::FDiv { lhs, rhs } => typed(BinKind::FDiv, lhs, rhs),
                    DInst::Add { lhs, rhs } => typed(BinKind::Add, lhs, rhs),
                    DInst::Sub { lhs, rhs } => typed(BinKind::Sub, lhs, rhs),
                    DInst::Mul { lhs, rhs } => typed(BinKind::Mul, lhs, rhs),
                    DInst::AddI { lhs, imm } => immediate(BinKind::Add, lhs, imm),
                    DInst::MulI { lhs, imm } => immediate(BinKind::Mul, lhs, imm),
                    DInst::Bin { lhs, rhs, .. } | DInst::Cmp { lhs, rhs, .. } => {
                        (vec![], vec![lhs, rhs])
                    }
                    DInst::CmpBr {
                        lhs,
                        rhs,
                        then_pc,
                        else_pc,
                        ..
                    }
                    | DInst::FCmpBr {
                        lhs,
                        rhs,
                        then_pc,
                        else_pc,
                        ..
                    } => (vec![then_pc, else_pc], vec![lhs, rhs]),
                    DInst::CmpBrI {
                        lhs,
                        imm,
                        then_pc,
                        else_pc,
                        ..
                    } => {
                        assert!(
                            matches!(op, &Op::Cmp { float: false, lhs: l, rhs: Operand::ConstI(c), .. }
                                if c == imm && holds(lhs, l)),
                            "{at} pc {pc}: {slot:?} is not {op:?}"
                        );
                        (vec![then_pc, else_pc], vec![lhs])
                    }
                    DInst::Cast { src, .. } => (vec![], vec![src]),
                    DInst::Select {
                        cond,
                        then_v,
                        else_v,
                    } => (vec![], vec![cond, then_v, else_v]),
                    DInst::Load { addr } => (vec![], vec![addr]),
                    DInst::Store { addr, value } => (vec![], vec![addr, value]),
                    DInst::Gep { base, index } | DInst::GepLoad { base, index } => {
                        (vec![], vec![base, index])
                    }
                    DInst::GepStore { base, index, value } => (vec![], vec![base, index, value]),
                    DInst::Call { args, .. } | DInst::CallIntrinsic { args, .. } => {
                        (vec![], df.args_pool[args.range()].to_vec())
                    }
                    DInst::Ret { value } => (vec![], value.into_iter().collect()),
                    DInst::Br { target } => (vec![target], vec![]),
                    DInst::CondBr {
                        cond,
                        then_pc,
                        else_pc,
                    } => (vec![then_pc, else_pc], vec![cond]),
                    DInst::Output { value, .. } => (vec![], vec![value]),
                    DInst::Alloca { .. }
                    | DInst::LoopBegin { .. }
                    | DInst::LoopEnd { .. }
                    | DInst::LoopIter { .. }
                    | DInst::Nop => (vec![], vec![]),
                };
                for t in targets {
                    assert!(
                        block_starts.binary_search(&t).is_ok(),
                        "{at} pc {pc}: target {t} is not a block start"
                    );
                }
                for r in regs {
                    assert!(
                        in_file(r),
                        "{at} pc {pc}: operand {r:?} outside a {}-cell file",
                        df.num_regs()
                    );
                }
                let head = pc.checked_sub(1).map(|h| &df.slots[h]);
                assert_eq!(
                    slot.tail,
                    head.is_some_and(|h| h.inst.fuses_next()),
                    "{at} pc {pc}: {slot:?}"
                );
                let Some(head) = head.filter(|_| slot.tail) else {
                    continue;
                };
                let result = Reg(head.result.0);
                let tail_ok = match (head.inst, slot.inst) {
                    (
                        DInst::CmpBr {
                            then_pc, else_pc, ..
                        }
                        | DInst::CmpBrI {
                            then_pc, else_pc, ..
                        }
                        | DInst::FCmpBr {
                            then_pc, else_pc, ..
                        },
                        DInst::CondBr {
                            cond,
                            then_pc: t,
                            else_pc: e,
                        },
                    ) => cond == result && (t, e) == (then_pc, else_pc),
                    (DInst::GepLoad { .. }, DInst::Load { addr }) => addr == result,
                    (DInst::GepStore { value, .. }, DInst::Store { addr, value: v }) => {
                        addr == result && v == value
                    }
                    _ => false,
                };
                assert!(
                    tail_ok,
                    "{at} pc {pc}: {slot:?} is not the plain second half of {head:?}"
                );
            }
        }
    }
}

/// The initial value of register `r` when it is a constant cell.
fn const_cell(df: &ftkr_ir::DecodedFunction, r: ftkr_ir::decode::Reg) -> Option<ftkr_ir::RegConst> {
    r.index()
        .checked_sub(df.first_const())
        .and_then(|k| df.consts.get(k).copied())
}
