//! Dead-code elimination: basic (`dce`) and aggressive (`adce`).

use lasagne_lir::analysis::Analyses;
use lasagne_lir::func::Function;
use lasagne_lir::inst::{InstId, Operand};

/// Basic DCE: removes unused, side-effect-free instructions to closure.
/// Seeds a worklist from the cached use counts in `an` instead of
/// rebuilding them once per deletion round, decrements counts in place as
/// instructions die, and stores the maintained vector back for the next
/// pass.
///
/// The removed set is the unique maximal closure of pure instructions
/// transitively without uses — exactly what the old rebuild-per-round loop
/// computed — and the single order-preserving `retain` leaves the blocks
/// byte-identical to repeated per-round retains.
pub fn dce(f: &mut Function, an: &mut Analyses) -> usize {
    let mut counts = an.seed_use_counts(f);
    let mut dead = vec![false; f.insts.len()];
    let mut work: Vec<InstId> = Vec::new();
    for (_, id) in f.iter_insts() {
        if counts[id.0 as usize] == 0 && !f.inst(id).kind.has_side_effects() {
            work.push(id);
        }
    }
    let mut removed = 0;
    while let Some(id) = work.pop() {
        if dead[id.0 as usize] || counts[id.0 as usize] != 0 {
            continue;
        }
        dead[id.0 as usize] = true;
        removed += 1;
        // A dying instruction releases its operands; any that hit zero
        // uses join the worklist. (No underflow: an instruction is only
        // marked dead at zero uses, so every user was marked first.)
        let kind = f.inst(id).kind.clone();
        kind.for_each_operand(|op| {
            if let Operand::Inst(src) = op {
                counts[src.0 as usize] -= 1;
                if counts[src.0 as usize] == 0
                    && !dead[src.0 as usize]
                    && !f.inst(*src).kind.has_side_effects()
                {
                    work.push(*src);
                }
            }
        });
    }
    if removed > 0 {
        for b in f.block_ids() {
            f.block_mut(b).insts.retain(|i| !dead[i.0 as usize]);
        }
    }
    an.store_use_counts(counts);
    removed
}

/// Aggressive DCE: marks transitively live instructions from roots
/// (side-effecting instructions and terminator operands) and deletes
/// everything else — unlike [`dce`] this kills dead φ-cycles.
pub fn adce(f: &mut Function) -> usize {
    let n = f.insts.len();
    let mut live = vec![false; n];
    let mut work: Vec<InstId> = Vec::new();

    let mark = |op: &Operand, live: &mut Vec<bool>, work: &mut Vec<InstId>| {
        if let Operand::Inst(id) = op {
            if !live[id.0 as usize] {
                live[id.0 as usize] = true;
                work.push(*id);
            }
        }
    };

    for b in f.block_ids() {
        for id in &f.block(b).insts {
            if f.inst(*id).kind.has_side_effects() {
                if !live[id.0 as usize] {
                    live[id.0 as usize] = true;
                    work.push(*id);
                }
            }
        }
        f.block(b)
            .term
            .for_each_operand(|op| mark(op, &mut live, &mut work));
    }
    while let Some(id) = work.pop() {
        f.inst(id)
            .kind
            .for_each_operand(|op| mark(op, &mut live, &mut work));
    }

    let mut removed = 0;
    for b in f.block_ids().collect::<Vec<_>>() {
        let before = f.block(b).insts.len();
        let keep: Vec<InstId> = f
            .block(b)
            .insts
            .iter()
            .copied()
            .filter(|i| live[i.0 as usize])
            .collect();
        removed += before - keep.len();
        f.block_mut(b).insts = keep;
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::inst::{BinOp, InstKind, Operand, Terminator};
    use lasagne_lir::types::Ty;

    #[test]
    fn dce_removes_unused_chain() {
        let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::i64(1),
            },
        );
        let _b = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Operand::Inst(a),
                rhs: Operand::i64(2),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Param(0)),
            },
        );
        assert_eq!(dce(&mut f, &mut Analyses::new()), 2);
        assert_eq!(f.live_inst_count(), 0);
    }

    #[test]
    fn dce_keeps_side_effects() {
        let mut f = Function::new("f", vec![Ty::Ptr(lasagne_lir::Pointee::I64)], Ty::Void);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(1),
                order: lasagne_lir::inst::Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: lasagne_lir::inst::FenceKind::Fww,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        assert_eq!(dce(&mut f, &mut Analyses::new()), 0);
        assert_eq!(f.live_inst_count(), 2);
    }

    #[test]
    fn adce_kills_phi_cycle() {
        // Dead φ-cycle: %p = phi [0, e], [%q, body]; %q = %p + 1 — unused.
        let mut f = Function::new("f", vec![Ty::I1], Ty::I64);
        let e = f.entry();
        let body = f.add_block();
        let exit = f.add_block();
        f.set_term(e, Terminator::Br { dest: body });
        let p = f.push(body, Ty::I64, InstKind::Phi { incoming: vec![] });
        let q = f.push(
            body,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(p),
                rhs: Operand::i64(1),
            },
        );
        f.inst_mut(p).kind = InstKind::Phi {
            incoming: vec![(e, Operand::i64(0)), (body, Operand::Inst(q))],
        };
        f.set_term(
            body,
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: body,
                if_false: exit,
            },
        );
        f.set_term(
            exit,
            Terminator::Ret {
                val: Some(Operand::i64(7)),
            },
        );

        // Plain DCE can't remove the mutually-referencing pair…
        let mut g = f.clone();
        assert_eq!(dce(&mut g, &mut Analyses::new()), 0);
        // …aggressive DCE can.
        assert_eq!(adce(&mut f), 2);
        assert_eq!(f.live_inst_count(), 0);
    }
}
