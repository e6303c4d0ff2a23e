//! Loop-invariant code motion.
//!
//! Pure loop-invariant computations are hoisted to the loop header's
//! immediate dominator (safe to speculate). Loads are hoisted only when the
//! loop body contains no writes, calls, RMWs, or fences — LIMM permits
//! speculative load introduction (§7.2), and the no-write condition makes
//! the hoisted value coherent with every in-loop read. Hoisted duplicates
//! (the same invariant expression recomputed in several loop blocks) are
//! merged in the preheader, which is where LICM's static code-size wins
//! come from.

use lasagne_lir::analysis::{find_loops, Analyses};
use lasagne_lir::func::Function;
use lasagne_lir::hash::FxHashMap;
use lasagne_lir::inst::{BinOp, InstId, InstKind, Operand, Ordering};
use lasagne_lir::{BlockId, Subst, Ty};
use std::collections::hash_map::Entry;

/// Hoists loop-invariant instructions. Returns the number hoisted.
///
/// CFG and dominators come from the analysis cache `an` (LICM moves
/// instructions between blocks but never edits a terminator target, so the
/// cache stays valid across its own run).
pub fn licm(f: &mut Function, an: &mut Analyses) -> usize {
    let (cfg, doms) = an.cfg_and_doms(f);
    let loops = find_loops(cfg, doms);
    let mut hoisted = 0;
    // Merged duplicates are replaced through one table for the whole run;
    // every instruction's operands are resolved before they are read.
    let mut subst = Subst::new();
    // `in_loop[id] == stamp` while `id` is defined in the loop at hand:
    // each loop takes a fresh stamp, so no set is rebuilt or cleared.
    let mut in_loop = vec![0u32; f.insts.len()];
    let mut stamp = 0u32;

    for lp in loops {
        let Some(preheader) = doms.idom[lp.header.0 as usize] else {
            continue;
        };
        if lp.blocks.contains(&preheader) {
            continue;
        }
        stamp += 1;

        // May anything in the loop write memory or fence? Which
        // instructions live in the loop?
        let mut loop_writes = false;
        for b in &lp.blocks {
            for id in &f.block(*b).insts {
                in_loop[id.0 as usize] = stamp;
                match &f.inst(*id).kind {
                    InstKind::Store { .. }
                    | InstKind::AtomicRmw { .. }
                    | InstKind::CmpXchg { .. }
                    | InstKind::Call { .. }
                    | InstKind::Fence { .. } => loop_writes = true,
                    _ => {}
                }
            }
        }

        // Iterate: an instruction is invariant if all operands are defined
        // outside the loop (or already hoisted). Each round compacts every
        // loop block once, in place.
        loop {
            let mut moved_this_round = 0;
            for &b in &lp.blocks {
                let mut insts = std::mem::take(&mut f.block_mut(b).insts);
                insts.retain(|&id| {
                    if in_loop[id.0 as usize] != stamp {
                        return true;
                    }
                    subst.resolve_operands(&mut f.inst_mut(id).kind);
                    if !hoistable(&f.inst(id).kind, loop_writes, |d| {
                        in_loop[d.0 as usize] == stamp
                    }) {
                        return true;
                    }
                    // Move: append to the preheader (before the terminator
                    // position — block instruction lists exclude
                    // terminators, so a plain push suffices).
                    f.block_mut(preheader).insts.push(id);
                    in_loop[id.0 as usize] = 0;
                    moved_this_round += 1;
                    false
                });
                f.block_mut(b).insts = insts;
            }
            hoisted += moved_this_round;
            if moved_this_round == 0 {
                break;
            }
        }
        // Merge duplicate hoisted expressions in the preheader.
        hoisted += dedup_block(f, preheader, &mut subst);
    }
    subst.apply(f);
    hoisted
}

/// Whether `kind` may be hoisted: a pure, non-trapping computation (or a
/// non-atomic load when the loop writes nothing) none of whose operands
/// is defined in the loop.
fn hoistable(kind: &InstKind, loop_writes: bool, defined_in_loop: impl Fn(InstId) -> bool) -> bool {
    let movable = match kind {
        // Division can trap; do not speculate it.
        InstKind::Bin {
            op: BinOp::UDiv | BinOp::SDiv | BinOp::URem | BinOp::SRem,
            ..
        } => false,
        InstKind::Bin { .. }
        | InstKind::ICmp { .. }
        | InstKind::FCmp { .. }
        | InstKind::Cast { .. }
        | InstKind::Gep { .. }
        | InstKind::Select { .. }
        | InstKind::ExtractElement { .. }
        | InstKind::InsertElement { .. } => true,
        InstKind::Load {
            order: Ordering::NotAtomic,
            ..
        } => !loop_writes,
        _ => false,
    };
    let mut invariant = movable;
    if movable {
        kind.for_each_operand(|op| {
            if let Operand::Inst(d) = op {
                if defined_in_loop(*d) {
                    invariant = false;
                }
            }
        });
    }
    invariant
}

/// Local value numbering within one block: replaces later duplicates of a
/// pure expression with the first occurrence. Expressions are keyed by
/// type and kind, structurally.
fn dedup_block(f: &mut Function, b: BlockId, subst: &mut Subst) -> usize {
    let mut seen: FxHashMap<(Ty, InstKind), InstId> = FxHashMap::default();
    let mut drop: Vec<bool> = Vec::new();
    for pos in 0..f.block(b).insts.len() {
        let id = f.block(b).insts[pos];
        subst.resolve_operands(&mut f.inst_mut(id).kind);
        let inst = f.inst(id);
        let pure = matches!(
            inst.kind,
            InstKind::Bin { .. }
                | InstKind::ICmp { .. }
                | InstKind::FCmp { .. }
                | InstKind::Cast { .. }
                | InstKind::Gep { .. }
                | InstKind::Select { .. }
        );
        if !pure {
            continue;
        }
        match seen.entry((inst.ty, inst.kind.clone())) {
            Entry::Occupied(prev) => {
                subst.replace(id, Operand::Inst(*prev.get()));
                drop.resize(f.block(b).insts.len(), false);
                drop[pos] = true;
            }
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
        }
    }
    let n = drop.iter().filter(|d| **d).count();
    if n > 0 {
        let mut pos = 0;
        f.block_mut(b).insts.retain(|_| {
            pos += 1;
            !drop[pos - 1]
        });
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::inst::{IPred, Terminator};
    use lasagne_lir::types::Pointee;

    /// while (i < n) { t = a*b; i += t }  — a*b hoists.
    #[test]
    fn hoists_invariant_arithmetic() {
        let mut f = Function::new("f", vec![Ty::I64, Ty::I64, Ty::I64], Ty::I64);
        let e = f.entry();
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        f.set_term(e, Terminator::Br { dest: header });
        let phi = f.push(header, Ty::I64, InstKind::Phi { incoming: vec![] });
        let c = f.push(
            header,
            Ty::I1,
            InstKind::ICmp {
                pred: IPred::Ult,
                lhs: Operand::Inst(phi),
                rhs: Operand::Param(0),
            },
        );
        f.set_term(
            header,
            Terminator::CondBr {
                cond: Operand::Inst(c),
                if_true: body,
                if_false: exit,
            },
        );
        let t = f.push(
            body,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Operand::Param(1),
                rhs: Operand::Param(2),
            },
        );
        let i2 = f.push(
            body,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(phi),
                rhs: Operand::Inst(t),
            },
        );
        f.set_term(body, Terminator::Br { dest: header });
        f.inst_mut(phi).kind = InstKind::Phi {
            incoming: vec![(e, Operand::i64(0)), (body, Operand::Inst(i2))],
        };
        f.set_term(
            exit,
            Terminator::Ret {
                val: Some(Operand::Inst(phi)),
            },
        );

        let n = licm(&mut f, &mut Analyses::new());
        assert_eq!(n, 1);
        assert!(
            f.block(e).insts.contains(&t),
            "mul should now be in the preheader"
        );
        assert!(!f.block(body).insts.contains(&t));
    }

    /// Loads hoist out of read-only loops but not out of loops with stores.
    #[test]
    fn load_hoisting_depends_on_loop_writes() {
        let build = |with_store: bool| {
            let mut f = Function::new(
                "f",
                vec![Ty::I64, Ty::Ptr(Pointee::I64), Ty::Ptr(Pointee::I64)],
                Ty::Void,
            );
            let e = f.entry();
            let header = f.add_block();
            let body = f.add_block();
            let exit = f.add_block();
            f.set_term(e, Terminator::Br { dest: header });
            let phi = f.push(header, Ty::I64, InstKind::Phi { incoming: vec![] });
            let c = f.push(
                header,
                Ty::I1,
                InstKind::ICmp {
                    pred: IPred::Ult,
                    lhs: Operand::Inst(phi),
                    rhs: Operand::Param(0),
                },
            );
            f.set_term(
                header,
                Terminator::CondBr {
                    cond: Operand::Inst(c),
                    if_true: body,
                    if_false: exit,
                },
            );
            let ld = f.push(
                body,
                Ty::I64,
                InstKind::Load {
                    ptr: Operand::Param(1),
                    order: Ordering::NotAtomic,
                },
            );
            if with_store {
                f.push(
                    body,
                    Ty::Void,
                    InstKind::Store {
                        ptr: Operand::Param(2),
                        val: Operand::Inst(ld),
                        order: Ordering::NotAtomic,
                    },
                );
            }
            let i2 = f.push(
                body,
                Ty::I64,
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Operand::Inst(phi),
                    rhs: Operand::Inst(ld),
                },
            );
            f.set_term(body, Terminator::Br { dest: header });
            f.inst_mut(phi).kind = InstKind::Phi {
                incoming: vec![(e, Operand::i64(0)), (body, Operand::Inst(i2))],
            };
            f.set_term(exit, Terminator::Ret { val: None });
            (f, ld)
        };
        let (mut ro, ld) = build(false);
        assert!(licm(&mut ro, &mut Analyses::new()) >= 1);
        assert!(ro.block(ro.entry()).insts.contains(&ld));

        let (mut rw, ld2) = build(true);
        licm(&mut rw, &mut Analyses::new());
        assert!(
            !rw.block(rw.entry()).insts.contains(&ld2),
            "load must stay in writing loop"
        );
    }

    /// Division never hoists (may trap when the loop would not execute).
    #[test]
    fn division_not_speculated() {
        let mut f = Function::new("f", vec![Ty::I64, Ty::I64, Ty::I64], Ty::I64);
        let e = f.entry();
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        f.set_term(e, Terminator::Br { dest: header });
        let phi = f.push(header, Ty::I64, InstKind::Phi { incoming: vec![] });
        let c = f.push(
            header,
            Ty::I1,
            InstKind::ICmp {
                pred: IPred::Ult,
                lhs: Operand::Inst(phi),
                rhs: Operand::Param(0),
            },
        );
        f.set_term(
            header,
            Terminator::CondBr {
                cond: Operand::Inst(c),
                if_true: body,
                if_false: exit,
            },
        );
        let d = f.push(
            body,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::SDiv,
                lhs: Operand::Param(1),
                rhs: Operand::Param(2),
            },
        );
        let i2 = f.push(
            body,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(phi),
                rhs: Operand::Inst(d),
            },
        );
        f.set_term(body, Terminator::Br { dest: header });
        f.inst_mut(phi).kind = InstKind::Phi {
            incoming: vec![(e, Operand::i64(0)), (body, Operand::Inst(i2))],
        };
        f.set_term(
            exit,
            Terminator::Ret {
                val: Some(Operand::Inst(phi)),
            },
        );
        licm(&mut f, &mut Analyses::new());
        assert!(f.block(body).insts.contains(&d));
    }
}
