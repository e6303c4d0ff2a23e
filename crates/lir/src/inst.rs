//! LIR instructions, operands and terminators.

use crate::types::Ty;
use std::fmt;

/// Identifies an instruction within its function's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId(pub u32);

/// Identifies a basic block within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Identifies a function within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Identifies a global within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

/// Identifies an external function declaration within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExternId(pub u32);

/// An operand: an SSA value reference or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Result of an instruction.
    Inst(InstId),
    /// Function parameter by index.
    Param(u32),
    /// Integer constant (stored zero-extended in 64 bits).
    ConstInt {
        /// Type of the constant (`i1`–`i64`).
        ty: Ty,
        /// Value bits (only the low `ty` bits are meaningful).
        val: u64,
    },
    /// `float` constant (bit pattern).
    ConstF32(u32),
    /// `double` constant (bit pattern).
    ConstF64(u64),
    /// Address of a global.
    Global(GlobalId),
    /// Address of a function (for indirect calls / `pthread_create`).
    Func(FuncId),
    /// Undefined value of the given type.
    Undef(Ty),
}

impl Operand {
    /// `i64` integer constant.
    pub fn i64(v: i64) -> Operand {
        Operand::ConstInt {
            ty: Ty::I64,
            val: v as u64,
        }
    }

    /// `i32` integer constant.
    pub fn i32(v: i32) -> Operand {
        Operand::ConstInt {
            ty: Ty::I32,
            val: v as u32 as u64,
        }
    }

    /// `i1` boolean constant.
    pub fn bool(v: bool) -> Operand {
        Operand::ConstInt {
            ty: Ty::I1,
            val: u64::from(v),
        }
    }

    /// `double` constant.
    pub fn f64(v: f64) -> Operand {
        Operand::ConstF64(v.to_bits())
    }

    /// `float` constant.
    pub fn f32(v: f32) -> Operand {
        Operand::ConstF32(v.to_bits())
    }

    /// The constant integer value, if this is an integer constant.
    pub fn as_const_int(&self) -> Option<u64> {
        match self {
            Operand::ConstInt { val, .. } => Some(*val),
            _ => None,
        }
    }

    /// Whether this operand is any constant (including globals/functions,
    /// whose addresses are link-time constants).
    pub fn is_const(&self) -> bool {
        !matches!(self, Operand::Inst(_) | Operand::Param(_))
    }
}

/// Integer and floating-point binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // standard LLVM operation names
pub enum BinOp {
    Add,
    Sub,
    Mul,
    UDiv,
    SDiv,
    URem,
    SRem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMin,
    FMax,
}

impl BinOp {
    /// Whether this is one of the floating-point operations.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FMin | BinOp::FMax
        )
    }

    /// Whether the operation is commutative.
    pub fn commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::FAdd
                | BinOp::FMul
                | BinOp::FMin
                | BinOp::FMax
        )
    }

    /// LLVM-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::UDiv => "udiv",
            BinOp::SDiv => "sdiv",
            BinOp::URem => "urem",
            BinOp::SRem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::FMin => "fmin",
            BinOp::FMax => "fmax",
        }
    }
}

/// Integer comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // standard LLVM predicate names
pub enum IPred {
    Eq,
    Ne,
    Ult,
    Ule,
    Ugt,
    Uge,
    Slt,
    Sle,
    Sgt,
    Sge,
}

impl IPred {
    /// LLVM-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IPred::Eq => "eq",
            IPred::Ne => "ne",
            IPred::Ult => "ult",
            IPred::Ule => "ule",
            IPred::Ugt => "ugt",
            IPred::Uge => "uge",
            IPred::Slt => "slt",
            IPred::Sle => "sle",
            IPred::Sgt => "sgt",
            IPred::Sge => "sge",
        }
    }

    /// The predicate with operands swapped (`slt` ↔ `sgt`, …).
    pub fn swap(self) -> IPred {
        match self {
            IPred::Eq => IPred::Eq,
            IPred::Ne => IPred::Ne,
            IPred::Ult => IPred::Ugt,
            IPred::Ule => IPred::Uge,
            IPred::Ugt => IPred::Ult,
            IPred::Uge => IPred::Ule,
            IPred::Slt => IPred::Sgt,
            IPred::Sle => IPred::Sge,
            IPred::Sgt => IPred::Slt,
            IPred::Sge => IPred::Sle,
        }
    }

    /// The negated predicate.
    pub fn negate(self) -> IPred {
        match self {
            IPred::Eq => IPred::Ne,
            IPred::Ne => IPred::Eq,
            IPred::Ult => IPred::Uge,
            IPred::Ule => IPred::Ugt,
            IPred::Ugt => IPred::Ule,
            IPred::Uge => IPred::Ult,
            IPred::Slt => IPred::Sge,
            IPred::Sle => IPred::Sgt,
            IPred::Sgt => IPred::Sle,
            IPred::Sge => IPred::Slt,
        }
    }
}

/// Floating-point comparison predicates (ordered and the `une` unordered
/// form x86's `ucomis` + `jne` requires).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // standard LLVM predicate names
pub enum FPred {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
    Une,
    Uno,
    Ord,
}

impl FPred {
    /// LLVM-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FPred::Oeq => "oeq",
            FPred::One => "one",
            FPred::Olt => "olt",
            FPred::Ole => "ole",
            FPred::Ogt => "ogt",
            FPred::Oge => "oge",
            FPred::Une => "une",
            FPred::Uno => "uno",
            FPred::Ord => "ord",
        }
    }
}

/// Memory-access ordering. LIMM (§6.3) has exactly two access modes:
/// non-atomic, and seq_cst (used by `RMWsc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ordering {
    /// Non-atomic (`na` in the paper).
    NotAtomic,
    /// Sequentially consistent.
    SeqCst,
}

/// LIMM fences (§6.3).
///
/// `Frm` and `Fww` are the paper's additions to the IR, mirroring Arm's
/// `DMBLD`/`DMBST`; `Fsc` is the existing full fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// Read-to-memory fence: orders a load with successor accesses
    /// (maps to Arm `DMB LD`).
    Frm,
    /// Write-write fence: orders store pairs (maps to Arm `DMB ST`).
    Fww,
    /// Full fence (maps to Arm `DMB FF`, x86 `MFENCE`).
    Fsc,
}

impl FenceKind {
    /// Whether `self` is at least as strong as `other`.
    pub fn at_least(self, other: FenceKind) -> bool {
        self == FenceKind::Fsc || self == other
    }
}

/// Atomic read-modify-write operations (all seq_cst in LIMM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // standard LLVM atomicrmw names
pub enum RmwOp {
    Xchg,
    Add,
    Sub,
    And,
    Or,
    Xor,
}

impl RmwOp {
    /// LLVM-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            RmwOp::Xchg => "xchg",
            RmwOp::Add => "add",
            RmwOp::Sub => "sub",
            RmwOp::And => "and",
            RmwOp::Or => "or",
            RmwOp::Xor => "xor",
        }
    }
}

/// Call target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A function in this module.
    Func(FuncId),
    /// An external function, by declaration.
    Extern(ExternId),
    /// Indirect through a value.
    Indirect(Operand),
}

/// Cast operations, unified under one instruction kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // standard LLVM cast names
pub enum CastOp {
    Trunc,
    ZExt,
    SExt,
    FpToSi,
    SiToFp,
    FpExt,
    FpTrunc,
    BitCast,
    IntToPtr,
    PtrToInt,
}

impl CastOp {
    /// LLVM-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Trunc => "trunc",
            CastOp::ZExt => "zext",
            CastOp::SExt => "sext",
            CastOp::FpToSi => "fptosi",
            CastOp::SiToFp => "sitofp",
            CastOp::FpExt => "fpext",
            CastOp::FpTrunc => "fptrunc",
            CastOp::BitCast => "bitcast",
            CastOp::IntToPtr => "inttoptr",
            CastOp::PtrToInt => "ptrtoint",
        }
    }
}

/// The operation performed by an instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// Binary arithmetic/logic.
    Bin {
        /// Operation.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Integer compare producing `i1`.
    ICmp {
        /// Predicate.
        pred: IPred,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Floating compare producing `i1`.
    FCmp {
        /// Predicate.
        pred: FPred,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Load through a pointer. Result type is the instruction's type.
    Load {
        /// Address.
        ptr: Operand,
        /// Atomicity.
        order: Ordering,
    },
    /// Store through a pointer.
    Store {
        /// Address.
        ptr: Operand,
        /// Value to store.
        val: Operand,
        /// Atomicity.
        order: Ordering,
    },
    /// LIMM fence.
    Fence {
        /// Which fence.
        kind: FenceKind,
    },
    /// Atomic read-modify-write (seq_cst). Returns the old value.
    AtomicRmw {
        /// Operation applied.
        op: RmwOp,
        /// Address.
        ptr: Operand,
        /// Right-hand value.
        val: Operand,
    },
    /// Atomic compare-exchange (seq_cst). Returns the old value; success can
    /// be recovered with `icmp eq old, expected`.
    CmpXchg {
        /// Address.
        ptr: Operand,
        /// Expected value.
        expected: Operand,
        /// Replacement value.
        new: Operand,
    },
    /// Stack allocation of `size` bytes; result is `i8*` (or a refined
    /// pointer type after promotion).
    Alloca {
        /// Byte size.
        size: u64,
    },
    /// Pointer offset: `base + offset * elem_size` — the `getelementptr`
    /// analogue. `elem_size` is 1 for the i8 GEPs the refinement rules emit.
    Gep {
        /// Base pointer.
        base: Operand,
        /// Element index (i64).
        offset: Operand,
        /// Size of one element in bytes.
        elem_size: u64,
    },
    /// Conversion; destination type is the instruction's result type.
    Cast {
        /// Which conversion.
        op: CastOp,
        /// Source value.
        val: Operand,
    },
    /// `select cond, a, b`.
    Select {
        /// `i1` condition.
        cond: Operand,
        /// Value if true.
        if_true: Operand,
        /// Value if false.
        if_false: Operand,
    },
    /// Function call.
    Call {
        /// Target.
        callee: Callee,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// SSA φ-node.
    Phi {
        /// `(predecessor, value)` pairs.
        incoming: Vec<(BlockId, Operand)>,
    },
    /// Extract lane `idx` from a vector.
    ExtractElement {
        /// Source vector.
        vec: Operand,
        /// Lane index.
        idx: u32,
    },
    /// Insert `elt` into lane `idx` of a vector.
    InsertElement {
        /// Source vector.
        vec: Operand,
        /// Element value.
        elt: Operand,
        /// Lane index.
        idx: u32,
    },
}

impl InstKind {
    /// Visits every operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            InstKind::Bin { lhs, rhs, .. }
            | InstKind::ICmp { lhs, rhs, .. }
            | InstKind::FCmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstKind::Load { ptr, .. } => f(ptr),
            InstKind::Store { ptr, val, .. } => {
                f(ptr);
                f(val);
            }
            InstKind::Fence { .. } | InstKind::Alloca { .. } => {}
            InstKind::AtomicRmw { ptr, val, .. } => {
                f(ptr);
                f(val);
            }
            InstKind::CmpXchg { ptr, expected, new } => {
                f(ptr);
                f(expected);
                f(new);
            }
            InstKind::Gep { base, offset, .. } => {
                f(base);
                f(offset);
            }
            InstKind::Cast { val, .. } => f(val),
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => {
                f(cond);
                f(if_true);
                f(if_false);
            }
            InstKind::Call { callee, args } => {
                if let Callee::Indirect(op) = callee {
                    f(op);
                }
                for a in args {
                    f(a);
                }
            }
            InstKind::Phi { incoming } => {
                for (_, v) in incoming {
                    f(v);
                }
            }
            InstKind::ExtractElement { vec, .. } => f(vec),
            InstKind::InsertElement { vec, elt, .. } => {
                f(vec);
                f(elt);
            }
        }
    }

    /// Mutably visits every operand.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            InstKind::Bin { lhs, rhs, .. }
            | InstKind::ICmp { lhs, rhs, .. }
            | InstKind::FCmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstKind::Load { ptr, .. } => f(ptr),
            InstKind::Store { ptr, val, .. } => {
                f(ptr);
                f(val);
            }
            InstKind::Fence { .. } | InstKind::Alloca { .. } => {}
            InstKind::AtomicRmw { ptr, val, .. } => {
                f(ptr);
                f(val);
            }
            InstKind::CmpXchg { ptr, expected, new } => {
                f(ptr);
                f(expected);
                f(new);
            }
            InstKind::Gep { base, offset, .. } => {
                f(base);
                f(offset);
            }
            InstKind::Cast { val, .. } => f(val),
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => {
                f(cond);
                f(if_true);
                f(if_false);
            }
            InstKind::Call { callee, args } => {
                if let Callee::Indirect(op) = callee {
                    f(op);
                }
                for a in args {
                    f(a);
                }
            }
            InstKind::Phi { incoming } => {
                for (_, v) in incoming {
                    f(v);
                }
            }
            InstKind::ExtractElement { vec, .. } => f(vec),
            InstKind::InsertElement { vec, elt, .. } => {
                f(vec);
                f(elt);
            }
        }
    }

    /// Whether the instruction accesses memory.
    pub fn touches_memory(&self) -> bool {
        matches!(
            self,
            InstKind::Load { .. }
                | InstKind::Store { .. }
                | InstKind::AtomicRmw { .. }
                | InstKind::CmpXchg { .. }
                | InstKind::Call { .. }
        )
    }

    /// Whether the instruction has side effects beyond producing a value
    /// (cannot be removed by DCE even if unused).
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            InstKind::Store { .. }
                | InstKind::Fence { .. }
                | InstKind::AtomicRmw { .. }
                | InstKind::CmpXchg { .. }
                | InstKind::Call { .. }
        )
    }

    /// Whether this is an integer↔pointer cast — the instructions the IR
    /// refinement stage (§5) removes; counted for Figure 13.
    pub fn is_int_ptr_cast(&self) -> bool {
        matches!(
            self,
            InstKind::Cast {
                op: CastOp::IntToPtr | CastOp::PtrToInt,
                ..
            }
        )
    }
}

/// A decoded instruction: result type plus operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// Result type ([`Ty::Void`] for stores, fences, void calls).
    pub ty: Ty,
    /// Operation.
    pub kind: InstKind,
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional branch.
    Br {
        /// Destination block.
        dest: BlockId,
    },
    /// Two-way conditional branch.
    CondBr {
        /// `i1` condition.
        cond: Operand,
        /// Taken when true.
        if_true: BlockId,
        /// Taken when false.
        if_false: BlockId,
    },
    /// Return.
    Ret {
        /// Returned value, absent for `void` functions.
        val: Option<Operand>,
    },
    /// Unreachable (lifted `ud2`).
    Unreachable,
}

impl Terminator {
    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br { dest } => vec![*dest],
            Terminator::CondBr {
                if_true, if_false, ..
            } => vec![*if_true, *if_false],
            Terminator::Ret { .. } | Terminator::Unreachable => vec![],
        }
    }

    /// Visits every operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Terminator::CondBr { cond, .. } => f(cond),
            Terminator::Ret { val: Some(v) } => f(v),
            _ => {}
        }
    }

    /// Mutably visits every operand.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Terminator::CondBr { cond, .. } => f(cond),
            Terminator::Ret { val: Some(v) } => f(v),
            _ => {}
        }
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@f{}", self.0)
    }
}

impl fmt::Display for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@g{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_constants() {
        assert_eq!(Operand::i64(-1).as_const_int(), Some(u64::MAX));
        assert_eq!(Operand::i32(-1).as_const_int(), Some(0xFFFF_FFFF));
        assert!(Operand::bool(true).is_const());
        assert!(!Operand::Inst(InstId(0)).is_const());
        assert!(Operand::Global(GlobalId(0)).is_const());
    }

    #[test]
    fn ipred_involutions() {
        for p in [
            IPred::Eq,
            IPred::Ne,
            IPred::Ult,
            IPred::Ule,
            IPred::Ugt,
            IPred::Uge,
            IPred::Slt,
            IPred::Sle,
            IPred::Sgt,
            IPred::Sge,
        ] {
            assert_eq!(p.swap().swap(), p);
            assert_eq!(p.negate().negate(), p);
        }
    }

    #[test]
    fn fence_strength() {
        assert!(FenceKind::Fsc.at_least(FenceKind::Frm));
        assert!(FenceKind::Fsc.at_least(FenceKind::Fww));
        assert!(FenceKind::Frm.at_least(FenceKind::Frm));
        assert!(!FenceKind::Frm.at_least(FenceKind::Fww));
        assert!(!FenceKind::Fww.at_least(FenceKind::Fsc));
    }

    #[test]
    fn operand_visitation() {
        let k = InstKind::Store {
            ptr: Operand::Param(0),
            val: Operand::i64(3),
            order: Ordering::NotAtomic,
        };
        let mut n = 0;
        k.for_each_operand(|_| n += 1);
        assert_eq!(n, 2);
        assert!(k.has_side_effects());
        assert!(k.touches_memory());
    }

    #[test]
    fn cast_classification() {
        let c = InstKind::Cast {
            op: CastOp::IntToPtr,
            val: Operand::Param(0),
        };
        assert!(c.is_int_ptr_cast());
        let b = InstKind::Cast {
            op: CastOp::BitCast,
            val: Operand::Param(0),
        };
        assert!(!b.is_int_ptr_cast());
    }
}
