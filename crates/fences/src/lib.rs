//! Fence placement, merging, and transformation-legality rules for LIMM
//! (paper §7–§8).
//!
//! This crate is the bridge between the paper's formal results and the
//! implementation: [`placement`] enforces the verified x86→IR mapping
//! scheme (Figure 8a) on lifted code — inserting `Frm` after shared loads
//! and `Fww` before shared stores, skipping provably stack-private accesses
//! and merging adjacent fences — while [`legality`] encodes the Figure 11
//! tables of safe reorderings and eliminations that keep the optimizer
//! sound under LIMM.
//!
//! # Example
//!
//! ```
//! use lasagne_fences::placement::{place_fences, Strategy};
//! use lasagne_lir::func::Function;
//! use lasagne_lir::inst::{InstKind, Operand, Ordering, Terminator};
//! use lasagne_lir::types::{Pointee, Ty};
//! use lasagne_trace::TraceCtx;
//!
//! let mut f = Function::new("get", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
//! let entry = f.entry();
//! let v = f.push(entry, Ty::I64, InstKind::Load {
//!     ptr: Operand::Param(0),
//!     order: Ordering::NotAtomic,
//! });
//! f.set_term(entry, Terminator::Ret { val: Some(Operand::Inst(v)) });
//!
//! let stats = place_fences(&mut f, Strategy::StackAware, &TraceCtx::disabled(), None);
//! assert_eq!(stats.frm, 1, "shared load gets a trailing Frm");
//! ```

#![warn(missing_docs)]

pub mod legality;
pub mod placement;

pub use legality::{can_reorder, elim_adjacent, elim_fenced, label_of, Elim, Label};
pub use placement::{
    count_fences, count_fences_fn, is_stack_address, merge_fences, merge_fences_module,
    place_fences, place_fences_module, FenceDecision, FenceFate, FenceMerge, FenceRule,
    PlacementStats, Strategy,
};
