//! AArch64 backend for Lasagne: the IR→Arm mapping of Figure 8b, an
//! assembly printer, and a cost-model interpreter that produces the
//! simulated runtimes of Figures 12 and 15.
//!
//! The lowering ([`lower`]) translates LIR to an AArch64 subset
//! ([`inst`]): `Frm → dmb ishld`, `Fww → dmb ishst`, `Fsc → dmb ish`, and
//! atomic RMWs to `dmb ish; ldxr/stxr loop; dmb ish` (the §2.1 ll/sc
//! expansion). The interpreter ([`machine`]) executes the result with a
//! Cortex-A72-flavoured cost model whose dominant terms are the barriers —
//! the quantity the paper's fence optimizations attack.
//!
//! # Example
//!
//! ```
//! use lasagne_lir::func::{Function, Module};
//! use lasagne_lir::inst::{BinOp, InstKind, Operand, Terminator};
//! use lasagne_lir::types::Ty;
//! use lasagne_armgen::{lower::lower_module, machine::ArmMachine};
//!
//! let mut m = Module::new();
//! let mut f = Function::new("add", vec![Ty::I64, Ty::I64], Ty::I64);
//! let e = f.entry();
//! let s = f.push(e, Ty::I64, InstKind::Bin {
//!     op: BinOp::Add, lhs: Operand::Param(0), rhs: Operand::Param(1),
//! });
//! f.set_term(e, Terminator::Ret { val: Some(Operand::Inst(s)) });
//! m.add_func(f);
//!
//! let amod = lower_module(&m);
//! let mut machine = ArmMachine::new(&amod);
//! let r = machine.run(0, &[40, 2], &[])?;
//! assert_eq!(r.ret, 42);
//! # Ok::<(), lasagne_armgen::machine::ArmError>(())
//! ```

#![warn(missing_docs)]

pub mod inst;
pub mod lower;
pub mod machine;
pub mod peephole;
pub mod print;

pub use inst::{AFunc, AInst, AModule};
pub use lower::{assemble_module, lower_function, lower_module, lower_module_raw};
pub use machine::{ArmMachine, ArmRunResult, ArmStats};
pub use peephole::{peephole_function, peephole_module, PeepholeStats};
