//! `instcombine` and `reassociate`: peephole algebraic simplification.
//!
//! These are the two biggest code-shrinkers on lifted code (Figure 17):
//! the lifter's width masks, flag materialisation, and address arithmetic
//! leave huge amounts of algebraically trivial code behind.

use crate::fold::{const_int, fold_bin, fold_cast, fold_icmp};
use lasagne_lir::analysis::Analyses;
use lasagne_lir::func::{Function, Module};
use lasagne_lir::inst::{BinOp, CastOp, InstId, InstKind, Operand};
use lasagne_lir::Subst;

/// One `instcombine` sweep over a function. Returns the number of
/// simplifications applied (run to fixpoint by the pipeline).
///
/// Simplified instructions are deleted on the spot (they are pure), which
/// keeps the sweep monotonic: the change count reaches zero at a fixpoint.
/// Like LLVM's InstCombine worklist, trivially dead pure instructions
/// encountered along the way are erased as well: the erasure phase seeds a
/// worklist from the cached use counts in `an` (rebuilt only if the
/// simplify sweep mutated) instead of recomputing them once per deletion
/// round, and stores the maintained vector back for the next pass.
pub fn instcombine(m: &Module, f: &mut Function, an: &mut Analyses) -> usize {
    let mut changed = 0;
    let mut subst = Subst::new();
    let mut dead = vec![false; f.insts.len()];
    let ids: Vec<InstId> = f.iter_insts().map(|(_, id)| id).collect();
    for id in ids {
        subst.resolve_operands(&mut f.inst_mut(id).kind);
        if let Some(rep) = simplify(m, f, id, &mut subst) {
            // Never replace an instruction with itself (possible via
            // `x + 0` where the operand aliases the result id after a
            // previous rewrite).
            if rep == Operand::Inst(id) {
                continue;
            }
            subst.replace(id, rep);
            dead[id.0 as usize] = true;
            changed += 1;
        }
    }
    if changed > 0 {
        subst.apply(f);
        for block in &mut f.blocks {
            block.insts.retain(|i| !dead[i.0 as usize]);
        }
        an.note_insts_changed();
    }
    // Dead-instruction erasure (InstCombine's `eraseInstFromFunction`) —
    // same transitive closure as `dce` but never erasing allocas. The
    // worklist computes the identical maximal set the old
    // rebuild-counts-per-round loop removed, in one retain.
    let erasable = |f: &Function, id: InstId| {
        !f.inst(id).kind.has_side_effects() && !matches!(f.inst(id).kind, InstKind::Alloca { .. })
    };
    let mut counts = an.seed_use_counts(f);
    let mut erased = vec![false; f.insts.len()];
    let mut work: Vec<InstId> = Vec::new();
    for (_, id) in f.iter_insts() {
        if counts[id.0 as usize] == 0 && erasable(f, id) {
            work.push(id);
        }
    }
    let mut removed = 0;
    while let Some(id) = work.pop() {
        if erased[id.0 as usize] || counts[id.0 as usize] != 0 {
            continue;
        }
        erased[id.0 as usize] = true;
        removed += 1;
        f.inst(id).kind.for_each_operand(|op| {
            if let Operand::Inst(src) = op {
                counts[src.0 as usize] -= 1;
                if counts[src.0 as usize] == 0 && !erased[src.0 as usize] && erasable(f, *src) {
                    work.push(*src);
                }
            }
        });
    }
    if removed > 0 {
        for b in f.block_ids().collect::<Vec<_>>() {
            f.block_mut(b).insts.retain(|i| !erased[i.0 as usize]);
        }
        changed += removed;
    }
    an.store_use_counts(counts);
    changed
}

/// Computes a replacement operand for `id`, if it simplifies. The
/// operands of `id` must already be resolved through `subst`; those of
/// the instructions it looks through are resolved on read.
fn simplify(m: &Module, f: &Function, id: InstId, subst: &mut Subst) -> Option<Operand> {
    let inst = f.inst(id);
    let ty = inst.ty;
    match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => {
            // Constant folding.
            if let (Some((_, a)), Some((_, b))) = (const_int(lhs), const_int(rhs)) {
                if let Some(v) = fold_bin(*op, ty, a, b) {
                    return Some(Operand::ConstInt { ty, val: v });
                }
            }
            // Canonical algebraic identities.
            let czero = |o: &Operand| const_int(o).is_some_and(|(_, v)| v == 0);
            let cone = |o: &Operand| const_int(o).is_some_and(|(t, v)| v == 1 && t == ty);
            let call_ones = |o: &Operand| {
                const_int(o).is_some_and(|(t, v)| {
                    v == t
                        .int_bits()
                        .map_or(0, |b| if b == 64 { u64::MAX } else { (1 << b) - 1 })
                })
            };
            match op {
                BinOp::Add
                | BinOp::Or
                | BinOp::Xor
                | BinOp::Shl
                | BinOp::LShr
                | BinOp::AShr
                | BinOp::Sub => {
                    if czero(rhs) {
                        return Some(*lhs);
                    }
                    if czero(lhs) && matches!(op, BinOp::Add | BinOp::Or | BinOp::Xor) {
                        return Some(*rhs);
                    }
                }
                BinOp::Mul => {
                    if cone(rhs) {
                        return Some(*lhs);
                    }
                    if cone(lhs) {
                        return Some(*rhs);
                    }
                    if czero(rhs) || czero(lhs) {
                        return Some(Operand::ConstInt { ty, val: 0 });
                    }
                }
                BinOp::And => {
                    if call_ones(rhs) {
                        return Some(*lhs);
                    }
                    if call_ones(lhs) {
                        return Some(*rhs);
                    }
                    if czero(rhs) || czero(lhs) {
                        return Some(Operand::ConstInt { ty, val: 0 });
                    }
                }
                _ => {}
            }
            // x ⊕ x patterns.
            if lhs == rhs {
                match op {
                    BinOp::Xor | BinOp::Sub => return Some(Operand::ConstInt { ty, val: 0 }),
                    BinOp::And | BinOp::Or => return Some(*lhs),
                    _ => {}
                }
            }
            None
        }
        InstKind::ICmp { pred, lhs, rhs } => {
            if let (Some((t, a)), Some((_, b))) = (const_int(lhs), const_int(rhs)) {
                return Some(Operand::bool(fold_icmp(*pred, t, a, b)));
            }
            None
        }
        InstKind::Cast { op, val } => {
            let from = m.operand_ty(f, val);
            if let Some((_, v)) = const_int(val) {
                if let Some(c) = fold_cast(*op, from, ty, v) {
                    return Some(c);
                }
            }
            match val {
                Operand::ConstF64(bits) if *op == CastOp::FpTrunc => {
                    return Some(Operand::ConstF32((f64::from_bits(*bits) as f32).to_bits()));
                }
                Operand::ConstF32(bits) if *op == CastOp::FpExt => {
                    return Some(Operand::ConstF64(
                        f64::from(f32::from_bits(*bits)).to_bits(),
                    ));
                }
                _ => {}
            }
            // Cast-of-cast chains.
            if let Operand::Inst(src) = val {
                let src_inst = f.inst(*src);
                if let InstKind::Cast {
                    op: src_op,
                    val: orig,
                } = &src_inst.kind
                {
                    let orig = &subst.resolve(*orig);
                    let orig_ty = m.operand_ty(f, orig);
                    match (src_op, op) {
                        // trunc(zext x) or trunc(sext x) back to the original type.
                        (CastOp::ZExt | CastOp::SExt, CastOp::Trunc) if orig_ty == ty => {
                            return Some(*orig);
                        }
                        // zext(zext x) etc. collapse when the outer produces
                        // the same type as a single cast would.
                        (CastOp::BitCast, CastOp::BitCast) if orig_ty == ty => {
                            return Some(*orig);
                        }
                        (CastOp::PtrToInt, CastOp::IntToPtr) if orig_ty == ty => {
                            return Some(*orig);
                        }
                        (CastOp::IntToPtr, CastOp::PtrToInt) if orig_ty == ty => {
                            return Some(*orig);
                        }
                        _ => {}
                    }
                }
            }
            // bitcast to identical type is a no-op.
            if *op == CastOp::BitCast && from == ty {
                return Some(*val);
            }
            None
        }
        InstKind::Select {
            cond,
            if_true,
            if_false,
        } => {
            if let Some((_, c)) = const_int(cond) {
                return Some(if c & 1 != 0 { *if_true } else { *if_false });
            }
            if if_true == if_false {
                return Some(*if_true);
            }
            None
        }
        InstKind::Gep { base, offset, .. } => {
            // gep p, 0 is p (same address, possibly different pointee type —
            // only fold when the types agree).
            if const_int(offset).is_some_and(|(_, v)| v == 0) && m.operand_ty(f, base) == ty {
                return Some(*base);
            }
            None
        }
        _ => None,
    }
}

/// `reassociate`: rebalances chains of the same associative operation so
/// constants combine: `(x + c1) + c2 → x + (c1+c2)`.
pub fn reassociate(m: &Module, f: &mut Function) -> usize {
    let _ = m;
    let mut changed = 0;
    let ids: Vec<InstId> = f.iter_insts().map(|(_, id)| id).collect();
    for id in ids {
        let InstKind::Bin { op, lhs, rhs } = f.inst(id).kind.clone() else {
            continue;
        };
        if !matches!(
            op,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        ) {
            continue;
        }
        // Normalise: constant on the right.
        let (x, c2) = match (const_int(&lhs), const_int(&rhs)) {
            (None, Some(_)) => (lhs, rhs),
            (Some(_), None) => (rhs, lhs),
            _ => continue,
        };
        let Operand::Inst(inner_id) = x else { continue };
        let InstKind::Bin {
            op: inner_op,
            lhs: il,
            rhs: ir,
        } = f.inst(inner_id).kind.clone()
        else {
            continue;
        };
        if inner_op != op {
            continue;
        }
        let (y, c1) = match (const_int(&il), const_int(&ir)) {
            (None, Some(_)) => (il, ir),
            (Some(_), None) => (ir, il),
            _ => continue,
        };
        let ty = f.inst(id).ty;
        let (_, c1v) = const_int(&c1).unwrap();
        let (_, c2v) = const_int(&c2).unwrap();
        let Some(folded) = fold_bin(op, ty, c1v, c2v) else {
            continue;
        };
        f.inst_mut(id).kind = InstKind::Bin {
            op,
            lhs: y,
            rhs: Operand::ConstInt { ty, val: folded },
        };
        changed += 1;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::inst::{IPred, Terminator};
    use lasagne_lir::types::Ty;

    fn with_entry(ret: Ty) -> (Module, Function) {
        (
            Module::new(),
            Function::new("t", vec![Ty::I64, Ty::I64], ret),
        )
    }

    #[test]
    fn folds_constants() {
        let (m, mut f) = with_entry(Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::i64(40),
                rhs: Operand::i64(2),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(a)),
            },
        );
        assert_eq!(instcombine(&m, &mut f, &mut Analyses::new()), 1);
        match f.block(e).term {
            Terminator::Ret { val: Some(v) } => assert_eq!(v.as_const_int(), Some(42)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn removes_identities() {
        let (m, mut f) = with_entry(Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::i64(0),
            },
        );
        let b = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Operand::Inst(a),
                rhs: Operand::i64(1),
            },
        );
        let c = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::And,
                lhs: Operand::Inst(b),
                rhs: Operand::i64(-1),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(c)),
            },
        );
        while instcombine(&m, &mut f, &mut Analyses::new()) > 0 {}
        match f.block(e).term {
            Terminator::Ret {
                val: Some(Operand::Param(0)),
            } => {}
            ref t => panic!("expected direct param return, got {t:?}"),
        }
    }

    #[test]
    fn xor_self_is_zero() {
        let (m, mut f) = with_entry(Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Xor,
                lhs: Operand::Param(0),
                rhs: Operand::Param(0),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(a)),
            },
        );
        assert_eq!(instcombine(&m, &mut f, &mut Analyses::new()), 1);
    }

    #[test]
    fn collapses_cast_pairs() {
        let (m, mut f) = with_entry(Ty::I64);
        let e = f.entry();
        let t = f.push(
            e,
            Ty::I32,
            InstKind::Cast {
                op: CastOp::Trunc,
                val: Operand::Param(0),
            },
        );
        let z = f.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: CastOp::ZExt,
                val: Operand::Inst(t),
            },
        );
        let t2 = f.push(
            e,
            Ty::I32,
            InstKind::Cast {
                op: CastOp::Trunc,
                val: Operand::Inst(z),
            },
        );
        let z2 = f.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: CastOp::ZExt,
                val: Operand::Inst(t2),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(z2)),
            },
        );
        // trunc(zext t) → t, then the outer zext(t) duplicates z (left for GVN).
        assert!(instcombine(&m, &mut f, &mut Analyses::new()) >= 1);
        assert!(matches!(f.inst(t2).kind, InstKind::Cast { .. }));
    }

    #[test]
    fn folds_icmp_and_select() {
        let (m, mut f) = with_entry(Ty::I64);
        let e = f.entry();
        let c = f.push(
            e,
            Ty::I1,
            InstKind::ICmp {
                pred: IPred::Slt,
                lhs: Operand::i64(-5),
                rhs: Operand::i64(3),
            },
        );
        let s = f.push(
            e,
            Ty::I64,
            InstKind::Select {
                cond: Operand::Inst(c),
                if_true: Operand::i64(1),
                if_false: Operand::i64(2),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(s)),
            },
        );
        while instcombine(&m, &mut f, &mut Analyses::new()) > 0 {}
        match f.block(e).term {
            Terminator::Ret { val: Some(v) } => assert_eq!(v.as_const_int(), Some(1)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn reassociates_constant_chains() {
        let (m, mut f) = with_entry(Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::i64(16),
            },
        );
        let b = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(a),
                rhs: Operand::i64(-8),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(b)),
            },
        );
        assert_eq!(reassociate(&m, &mut f), 1);
        match &f.inst(b).kind {
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs,
            } => {
                assert_eq!(rhs.as_const_int(), Some(8));
            }
            k => panic!("unexpected {k:?}"),
        }
    }
}
