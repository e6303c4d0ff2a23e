//! LIR: the typed intermediate representation at the centre of the Lasagne
//! static binary translator.
//!
//! LIR plays the role LLVM IR plays in the paper ("Lasagne: A Static Binary
//! Translator for Weak Memory Model Architectures", PLDI 2022): the x86
//! lifter produces it, the refinement and optimization passes transform it,
//! the fence-placement stage inserts LIMM fences ([`inst::FenceKind`]) into
//! it, and the Arm backend consumes it. It is deliberately a *small* LLVM:
//! typed pointers (the currency of the paper's §5 refinement), non-atomic
//! and seq_cst memory accesses, the three LIMM fences (`Frm`, `Fww`, `Fsc`),
//! atomic read-modify-writes, and enough scalar/vector arithmetic to express
//! the lifted Phoenix benchmarks.
//!
//! The crate also ships a reference [`interp`]reter (with a pthread-style
//! fork–join runtime) used to validate translations end-to-end, and the CFG
//! [`analysis`] toolkit (dominators, frontiers, loops) the optimizer builds
//! on.
//!
//! # Example
//!
//! ```
//! use lasagne_lir::func::{Function, Module};
//! use lasagne_lir::inst::{BinOp, InstKind, Operand, Terminator};
//! use lasagne_lir::interp::{Machine, Val};
//! use lasagne_lir::types::Ty;
//!
//! let mut m = Module::new();
//! let mut f = Function::new("add", vec![Ty::I64, Ty::I64], Ty::I64);
//! let entry = f.entry();
//! let sum = f.push(entry, Ty::I64, InstKind::Bin {
//!     op: BinOp::Add,
//!     lhs: Operand::Param(0),
//!     rhs: Operand::Param(1),
//! });
//! f.set_term(entry, Terminator::Ret { val: Some(Operand::Inst(sum)) });
//! let id = m.add_func(f);
//!
//! lasagne_lir::verify::verify_module(&m).map_err(|e| format!("{e:?}"))?;
//! let mut machine = Machine::new(&m);
//! let result = machine.run(id, &[Val::B64(2), Val::B64(40)])?;
//! assert_eq!(result.ret, Some(Val::B64(42)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod func;
pub mod hash;
pub mod inst;
pub mod interp;
pub mod print;
pub mod ssa;
pub mod subst;
pub mod types;
pub mod verify;

pub use func::{Function, Module};
pub use inst::{BlockId, FuncId, Inst, InstId, InstKind, Operand, Terminator};
pub use subst::Subst;
pub use types::{Pointee, Ty};
