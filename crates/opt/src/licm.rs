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

use lasagne_lir::analysis::find_loops;
use lasagne_lir::func::Function;
use lasagne_lir::inst::{InstId, InstKind, Operand, Ordering};
use lasagne_lir::{BlockId, Subst};
use std::collections::BTreeSet;

/// Hoists loop-invariant instructions. Returns the number hoisted.
pub fn licm(f: &mut Function) -> usize {
    licm_with(f, &mut lasagne_lir::analysis::Analyses::new())
}

/// [`licm`] against a shared analysis cache: CFG and dominators come from
/// the cache (LICM moves instructions between blocks but never edits a
/// terminator target, so the cache stays valid across its own run).
pub fn licm_with(f: &mut Function, an: &mut lasagne_lir::analysis::Analyses) -> usize {
    let (cfg, doms) = an.cfg_and_doms(f);
    let loops = find_loops(cfg, doms);
    let mut hoisted = 0;
    // Merged duplicates are replaced through one table for the whole run;
    // every instruction's operands are resolved before they are read.
    let mut subst = Subst::new();

    for lp in loops {
        let Some(preheader) = doms.idom[lp.header.0 as usize] else {
            continue;
        };
        if lp.blocks.contains(&preheader) {
            continue;
        }
        let in_loop: BTreeSet<BlockId> = lp.blocks.iter().copied().collect();

        // May anything in the loop write memory or fence?
        let mut loop_writes = false;
        for b in &lp.blocks {
            for id in &f.block(*b).insts {
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

        // Which instructions live in the loop?
        let mut def_in_loop: BTreeSet<InstId> = BTreeSet::new();
        for b in &lp.blocks {
            for id in &f.block(*b).insts {
                def_in_loop.insert(*id);
            }
        }

        // Iterate: an instruction is invariant if all operands are defined
        // outside the loop (or already hoisted).
        loop {
            let mut moved_this_round = 0;
            for b in lp.blocks.clone() {
                let ids: Vec<InstId> = f.block(b).insts.clone();
                for id in ids {
                    if !def_in_loop.contains(&id) {
                        continue;
                    }
                    subst.resolve_operands(&mut f.inst_mut(id).kind);
                    let inst = f.inst(id);
                    let hoistable = match &inst.kind {
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
                    if !hoistable {
                        continue;
                    }
                    let mut invariant = true;
                    inst.kind.for_each_operand(|op| {
                        if let Operand::Inst(d) = op {
                            if def_in_loop.contains(d) {
                                invariant = false;
                            }
                        }
                    });
                    if !invariant {
                        continue;
                    }
                    // Division can trap; do not speculate it.
                    if matches!(
                        inst.kind,
                        InstKind::Bin {
                            op: lasagne_lir::inst::BinOp::UDiv
                                | lasagne_lir::inst::BinOp::SDiv
                                | lasagne_lir::inst::BinOp::URem
                                | lasagne_lir::inst::BinOp::SRem,
                            ..
                        }
                    ) {
                        continue;
                    }
                    // Move: remove from its block, append to preheader
                    // (before the terminator position — block instruction
                    // lists exclude terminators, so a plain push suffices).
                    f.block_mut(b).insts.retain(|i| *i != id);
                    f.block_mut(preheader).insts.push(id);
                    def_in_loop.remove(&id);
                    moved_this_round += 1;
                }
            }
            hoisted += moved_this_round;
            if moved_this_round == 0 {
                break;
            }
        }
        // Merge duplicate hoisted expressions in the preheader.
        hoisted += dedup_block(f, preheader, &mut subst);
        let _ = in_loop;
    }
    subst.apply(f);
    hoisted
}

/// Local value numbering within one block: replaces later duplicates of a
/// pure expression with the first occurrence.
fn dedup_block(f: &mut Function, b: BlockId, subst: &mut Subst) -> usize {
    use std::collections::HashMap;
    let mut seen: HashMap<String, InstId> = HashMap::new();
    let ids: Vec<InstId> = f.block(b).insts.clone();
    let mut kill: Vec<InstId> = Vec::new();
    for id in ids {
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
        let key = format!("{:?}|{:?}", inst.ty, inst.kind);
        match seen.get(&key) {
            Some(prev) => {
                let prev = *prev;
                subst.replace(id, Operand::Inst(prev));
                kill.push(id);
            }
            None => {
                seen.insert(key, id);
            }
        }
    }
    let n = kill.len();
    if n > 0 {
        f.block_mut(b).insts.retain(|i| !kill.contains(i));
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::inst::{BinOp, IPred, Terminator};
    use lasagne_lir::types::{Pointee, Ty};

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

        let n = licm(&mut f);
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
        assert!(licm(&mut ro) >= 1);
        assert!(ro.block(ro.entry()).insts.contains(&ld));

        let (mut rw, ld2) = build(true);
        licm(&mut rw);
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
        licm(&mut f);
        assert!(f.block(body).insts.contains(&d));
    }
}
