//! Structural validation of modules.
//!
//! The verifier catches builder mistakes before a program reaches the VM:
//! dangling operands, blocks without terminators, unresolved callees, bad
//! intrinsic arities, and out-of-range block or global references.  It does
//! not perform full SSA dominance checking — the structured builder cannot
//! produce non-dominating uses — but it does reject references to void
//! instructions, which is the error an unstructured construction is most
//! likely to make.

use crate::function::Function;
use crate::inst::{Op, Operand};
use crate::module::Module;

/// A structural error found by [`verify_module`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A block has no instructions.
    EmptyBlock {
        /// Function name.
        func: String,
        /// Offending block index.
        block: u32,
    },
    /// A block's last instruction is not a terminator.
    MissingTerminator {
        /// Function name.
        func: String,
        /// Offending block index.
        block: u32,
    },
    /// A terminator appears before the end of a block.
    EarlyTerminator {
        /// Function name.
        func: String,
        /// Offending block index.
        block: u32,
    },
    /// An operand references an instruction id that does not exist.
    DanglingValue {
        /// Function name.
        func: String,
        /// Offending instruction index.
        inst: u32,
    },
    /// An operand references an instruction that does not produce a value.
    UseOfVoid {
        /// Function name.
        func: String,
        /// Offending instruction index.
        inst: u32,
    },
    /// An argument index is out of range.
    BadArgIndex {
        /// Function name.
        func: String,
        /// Offending instruction index.
        inst: u32,
    },
    /// A global id is out of range.
    BadGlobal {
        /// Function name.
        func: String,
        /// Offending instruction index.
        inst: u32,
    },
    /// A branch targets a block that does not exist.
    BadBlockTarget {
        /// Function name.
        func: String,
        /// Offending instruction index.
        inst: u32,
    },
    /// A call references a function that is not in the module.
    UnresolvedCallee {
        /// Function name.
        func: String,
        /// Name of the missing callee.
        callee: String,
    },
    /// An intrinsic call has the wrong number of arguments.
    BadIntrinsicArity {
        /// Function name.
        func: String,
        /// Offending instruction index.
        inst: u32,
    },
    /// A call passes a different number of arguments than the callee declares.
    BadCallArity {
        /// Function name.
        func: String,
        /// Callee name.
        callee: String,
    },
    /// The module has no function named `main`.
    NoMain,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::EmptyBlock { func, block } => {
                write!(f, "{func}: block bb{block} is empty")
            }
            VerifyError::MissingTerminator { func, block } => {
                write!(f, "{func}: block bb{block} does not end with a terminator")
            }
            VerifyError::EarlyTerminator { func, block } => {
                write!(f, "{func}: block bb{block} has a terminator before its end")
            }
            VerifyError::DanglingValue { func, inst } => {
                write!(f, "{func}: instruction {inst} references a missing value")
            }
            VerifyError::UseOfVoid { func, inst } => {
                write!(
                    f,
                    "{func}: instruction {inst} uses the result of a void instruction"
                )
            }
            VerifyError::BadArgIndex { func, inst } => {
                write!(
                    f,
                    "{func}: instruction {inst} references an out-of-range argument"
                )
            }
            VerifyError::BadGlobal { func, inst } => {
                write!(
                    f,
                    "{func}: instruction {inst} references an out-of-range global"
                )
            }
            VerifyError::BadBlockTarget { func, inst } => {
                write!(f, "{func}: instruction {inst} branches to a missing block")
            }
            VerifyError::UnresolvedCallee { func, callee } => {
                write!(f, "{func}: call to unknown function `{callee}`")
            }
            VerifyError::BadIntrinsicArity { func, inst } => {
                write!(
                    f,
                    "{func}: instruction {inst} passes the wrong number of intrinsic arguments"
                )
            }
            VerifyError::BadCallArity { func, callee } => {
                write!(
                    f,
                    "{func}: call to `{callee}` passes the wrong number of arguments"
                )
            }
            VerifyError::NoMain => write!(f, "module has no `main` function"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Validate one function against the module it belongs to.
fn verify_function(module: &Module, func: &Function) -> Result<(), VerifyError> {
    let n_insts = func.insts.len() as u32;
    let n_blocks = func.blocks.len() as u32;
    let fname = func.name.clone();

    for (bi, block) in func.blocks.iter().enumerate() {
        if block.insts.is_empty() {
            return Err(VerifyError::EmptyBlock {
                func: fname.clone(),
                block: bi as u32,
            });
        }
        for (pos, &iid) in block.insts.iter().enumerate() {
            let inst = func.inst(iid);
            let is_last = pos + 1 == block.insts.len();
            if inst.op.is_terminator() && !is_last {
                return Err(VerifyError::EarlyTerminator {
                    func: fname.clone(),
                    block: bi as u32,
                });
            }
            if is_last && !inst.op.is_terminator() {
                return Err(VerifyError::MissingTerminator {
                    func: fname.clone(),
                    block: bi as u32,
                });
            }
        }
    }

    for (iid, inst) in func.iter_insts() {
        for operand in inst.op.operands() {
            match operand {
                Operand::Value(v) => {
                    if v.0 >= n_insts {
                        return Err(VerifyError::DanglingValue {
                            func: fname.clone(),
                            inst: iid.0,
                        });
                    }
                    if !func.inst(v).op.has_result() {
                        return Err(VerifyError::UseOfVoid {
                            func: fname.clone(),
                            inst: iid.0,
                        });
                    }
                }
                Operand::Arg(a) => {
                    if a >= func.num_args {
                        return Err(VerifyError::BadArgIndex {
                            func: fname.clone(),
                            inst: iid.0,
                        });
                    }
                }
                Operand::Global(g) => {
                    if g.index() >= module.globals.len() {
                        return Err(VerifyError::BadGlobal {
                            func: fname.clone(),
                            inst: iid.0,
                        });
                    }
                }
                Operand::ConstI(_) | Operand::ConstF(_) => {}
            }
        }
        match &inst.op {
            Op::Br { target } if target.0 >= n_blocks => {
                return Err(VerifyError::BadBlockTarget {
                    func: fname.clone(),
                    inst: iid.0,
                });
            }
            Op::CondBr { then_b, else_b, .. } if (then_b.0 >= n_blocks || else_b.0 >= n_blocks) => {
                return Err(VerifyError::BadBlockTarget {
                    func: fname.clone(),
                    inst: iid.0,
                });
            }
            Op::Call { callee, args } => match module.function_by_name(callee) {
                None => {
                    return Err(VerifyError::UnresolvedCallee {
                        func: fname.clone(),
                        callee: callee.clone(),
                    })
                }
                Some((_, target)) => {
                    if target.num_args as usize != args.len() {
                        return Err(VerifyError::BadCallArity {
                            func: fname.clone(),
                            callee: callee.clone(),
                        });
                    }
                }
            },
            Op::CallIntrinsic { intrinsic, args } if intrinsic.arity() != args.len() => {
                return Err(VerifyError::BadIntrinsicArity {
                    func: fname.clone(),
                    inst: iid.0,
                });
            }
            _ => {}
        }
    }
    Ok(())
}

/// Validate a whole module.  Called by [`Module::verify`].
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    for func in &module.functions {
        verify_function(module, func)?;
    }
    Ok(())
}

/// Like [`verify_module`] but additionally requires a `main` entry point;
/// the VM calls this before running a program.
pub fn verify_executable(module: &Module) -> Result<(), VerifyError> {
    verify_module(module)?;
    if module.function_by_name("main").is_none() {
        return Err(VerifyError::NoMain);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::global::Global;
    use crate::inst::{BinKind, Inst, ValueId};
    use crate::Block;

    fn simple_module() -> Module {
        let mut m = Module::new("m");
        m.add_global(Global::zeroed_f64("g", 4));
        let mut b = FunctionBuilder::new("main");
        let x = b.fadd(Operand::ConstF(1.0), Operand::ConstF(2.0));
        let gp = b.global_addr(crate::global::GlobalId(0));
        b.store(gp, x);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn valid_module_verifies() {
        let m = simple_module();
        assert!(verify_module(&m).is_ok());
        assert!(verify_executable(&m).is_ok());
    }

    #[test]
    fn missing_main_is_rejected_for_executables() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("helper");
        b.ret(None);
        m.add_function(b.finish());
        assert!(verify_module(&m).is_ok());
        assert_eq!(verify_executable(&m), Err(VerifyError::NoMain));
    }

    #[test]
    fn dangling_value_is_rejected() {
        let mut m = Module::new("m");
        let mut f = Function::new("main", 0);
        f.insts.push(Inst::new(
            Op::Bin {
                kind: BinKind::Add,
                lhs: Operand::Value(ValueId(99)),
                rhs: Operand::ConstI(1),
            },
            1,
        ));
        f.insts.push(Inst::new(Op::Ret { value: None }, 1));
        f.blocks[0].insts = vec![ValueId(0), ValueId(1)];
        m.add_function(f);
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::DanglingValue { .. })
        ));
    }

    #[test]
    fn use_of_void_is_rejected() {
        let mut m = Module::new("m");
        let mut f = Function::new("main", 0);
        // %0: store (void), %1 uses %0.
        f.insts.push(Inst::new(
            Op::Store {
                addr: Operand::ConstI(0),
                value: Operand::ConstI(0),
            },
            1,
        ));
        f.insts.push(Inst::new(
            Op::Bin {
                kind: BinKind::Add,
                lhs: Operand::Value(ValueId(0)),
                rhs: Operand::ConstI(1),
            },
            1,
        ));
        f.insts.push(Inst::new(Op::Ret { value: None }, 1));
        f.blocks[0].insts = vec![ValueId(0), ValueId(1), ValueId(2)];
        m.add_function(f);
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::UseOfVoid { .. })
        ));
    }

    #[test]
    fn empty_block_is_rejected() {
        let mut m = Module::new("m");
        let mut f = Function::new("main", 0);
        f.insts.push(Inst::new(Op::Ret { value: None }, 1));
        f.blocks[0].insts = vec![ValueId(0)];
        f.blocks.push(Block::new("dead"));
        m.add_function(f);
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::EmptyBlock { .. })
        ));
    }

    #[test]
    fn unresolved_callee_is_rejected() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        b.call("ghost", vec![]);
        b.ret(None);
        m.add_function(b.finish());
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::UnresolvedCallee { .. })
        ));
    }

    #[test]
    fn bad_call_arity_is_rejected() {
        let mut m = Module::new("m");
        let mut callee = FunctionBuilder::with_args("target", 2);
        callee.ret(None);
        m.add_function(callee.finish());
        let mut b = FunctionBuilder::new("main");
        b.call("target", vec![Operand::ConstI(1)]);
        b.ret(None);
        m.add_function(b.finish());
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::BadCallArity { .. })
        ));
    }

    #[test]
    fn bad_arg_index_is_rejected() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::with_args("main", 1);
        let a = b.arg(3);
        b.add(a, Operand::ConstI(1));
        b.ret(None);
        m.add_function(b.finish());
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::BadArgIndex { .. })
        ));
    }

    #[test]
    fn bad_global_is_rejected() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let g = b.global_addr(crate::global::GlobalId(7));
        b.load(g);
        b.ret(None);
        m.add_function(b.finish());
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::BadGlobal { .. })
        ));
    }

    #[test]
    fn bad_intrinsic_arity_is_rejected() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        b.intrinsic(crate::inst::Intrinsic::Pow, vec![Operand::ConstF(2.0)]);
        b.ret(None);
        m.add_function(b.finish());
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::BadIntrinsicArity { .. })
        ));
    }

    #[test]
    fn error_messages_render() {
        let e = VerifyError::UnresolvedCallee {
            func: "main".into(),
            callee: "ghost".into(),
        };
        assert!(e.to_string().contains("ghost"));
        assert!(VerifyError::NoMain.to_string().contains("main"));
    }
}
