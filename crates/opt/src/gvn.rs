//! Global value numbering + redundant-load elimination.
//!
//! Pure expressions are numbered over the dominator tree; repeated
//! computations are replaced by their dominating occurrence. Memory
//! redundancy (read-after-read, read-after-write) is eliminated *within
//! blocks only*, gated by the Figure 11b legality rules from
//! `lasagne-fences` so that fences between accesses are respected.

use lasagne_fences::legality::{elim_adjacent, elim_fenced, Label};
use lasagne_lir::analysis::Analyses;
use lasagne_lir::func::{Function, Module};
use lasagne_lir::hash::FxHashMap;
use lasagne_lir::inst::{FenceKind, InstId, InstKind, Operand};
use lasagne_lir::BlockId;
use lasagne_lir::Subst;
use std::collections::hash_map::Entry;

/// A hashable key for pure instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Bin(lasagne_lir::inst::BinOp, OpKey, OpKey),
    ICmp(lasagne_lir::inst::IPred, OpKey, OpKey),
    FCmp(lasagne_lir::inst::FPred, OpKey, OpKey),
    Cast(lasagne_lir::inst::CastOp, lasagne_lir::Ty, OpKey),
    Gep(OpKey, OpKey, u64),
    Select(OpKey, OpKey, OpKey),
    Extract(OpKey, u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum OpKey {
    Inst(u32),
    Param(u32),
    CInt(u64, lasagne_lir::Ty),
    CF32(u32),
    CF64(u64),
    Global(u32),
    Func(u32),
    Undef,
}

fn op_key(op: &Operand) -> OpKey {
    match op {
        Operand::Inst(i) => OpKey::Inst(i.0),
        Operand::Param(p) => OpKey::Param(*p),
        Operand::ConstInt { ty, val } => OpKey::CInt(*val, *ty),
        Operand::ConstF32(b) => OpKey::CF32(*b),
        Operand::ConstF64(b) => OpKey::CF64(*b),
        Operand::Global(g) => OpKey::Global(g.0),
        Operand::Func(f) => OpKey::Func(f.0),
        Operand::Undef(_) => OpKey::Undef,
    }
}

fn key_of(kind: &InstKind, ty: lasagne_lir::Ty) -> Option<Key> {
    Some(match kind {
        InstKind::Bin { op, lhs, rhs } => {
            // Canonicalise commutative operands: any total order on
            // `OpKey` makes `a op b` and `b op a` the same key.
            let (a, b) = (op_key(lhs), op_key(rhs));
            if op.commutative() && b < a {
                Key::Bin(*op, b, a)
            } else {
                Key::Bin(*op, a, b)
            }
        }
        InstKind::ICmp { pred, lhs, rhs } => Key::ICmp(*pred, op_key(lhs), op_key(rhs)),
        InstKind::FCmp { pred, lhs, rhs } => Key::FCmp(*pred, op_key(lhs), op_key(rhs)),
        InstKind::Cast { op, val } => Key::Cast(*op, ty, op_key(val)),
        InstKind::Gep {
            base,
            offset,
            elem_size,
        } => Key::Gep(op_key(base), op_key(offset), *elem_size),
        InstKind::Select {
            cond,
            if_true,
            if_false,
        } => Key::Select(op_key(cond), op_key(if_true), op_key(if_false)),
        InstKind::ExtractElement { vec, idx } => Key::Extract(op_key(vec), *idx),
        _ => return None,
    })
}

/// Runs GVN over a function. Returns the number of instructions replaced.
///
/// The CFG and dominator tree — the pass's whole per-call rebuild cost —
/// come from the analysis cache `an`, which is valid across every pass
/// except sccp's branch folds (GVN itself only rewrites instructions, never
/// terminator targets, so the cache survives its own run too).
pub fn gvn(m: &Module, f: &mut Function, an: &mut Analyses) -> usize {
    let _ = m;
    let (_, doms) = an.cfg_and_doms(f);

    // Walk the dominator tree depth-first, scoping the value table.

    enum Visit {
        Enter(BlockId),
        /// Leave a subtree: undo the table insertions past this log length.
        Exit(usize),
    }
    let mut n = Numbering {
        table: FxHashMap::default(),
        undo: Vec::new(),
        subst: Subst::new(),
        dead: vec![false; f.insts.len()],
        replaced: 0,
    };
    let mut stack = vec![Visit::Enter(BlockId(0))];
    while let Some(visit) = stack.pop() {
        match visit {
            Visit::Enter(b) => {
                stack.push(Visit::Exit(n.undo.len()));
                n.number_block(f, b);
                stack.extend(doms.children(b).iter().map(|c| Visit::Enter(*c)));
            }
            Visit::Exit(mark) => {
                for key in n.undo.drain(mark..) {
                    n.table.remove(&key);
                }
            }
        }
    }
    n.subst.apply(f);
    n.replaced
}

/// GVN state for one dominator-tree walk: one scoped value table, the
/// log of its insertions (unwound when a subtree is left) and the
/// deferred replacements.
struct Numbering {
    table: FxHashMap<Key, InstId>,
    undo: Vec<Key>,
    subst: Subst,
    dead: Vec<bool>,
    replaced: usize,
}

impl Numbering {
    fn number_block(&mut self, f: &mut Function, b: BlockId) {
        let mut killed = false;
        for i in 0..f.block(b).insts.len() {
            let id = f.block(b).insts[i];
            let inst = f.inst_mut(id);
            self.subst.resolve_operands(&mut inst.kind);
            let Some(key) = key_of(&inst.kind, inst.ty) else {
                continue;
            };
            match self.table.entry(key) {
                Entry::Occupied(prev) => {
                    self.subst.replace(id, Operand::Inst(*prev.get()));
                    self.dead[id.0 as usize] = true;
                    killed = true;
                    self.replaced += 1;
                }
                Entry::Vacant(slot) => {
                    slot.insert(id);
                    self.undo.push(key);
                }
            }
        }
        if killed {
            let dead = &self.dead;
            f.block_mut(b).insts.retain(|i| !dead[i.0 as usize]);
        }
    }
}

/// Redundant load elimination within blocks, honouring Figure 11b.
///
/// Tracks, per pointer SSA value, the most recent load result or stored
/// value; an intervening store/RMW/call to *any* pointer invalidates the
/// whole table (no alias analysis); fences invalidate according to the
/// fenced-elimination rules.
pub fn load_elim(f: &mut Function) -> usize {
    let mut replaced = 0;
    let mut subst = Subst::new();
    let mut dead = vec![false; f.insts.len()];
    for b in f.block_ids().collect::<Vec<_>>() {
        // Available value per pointer: (value operand, producing label,
        // fence seen since (strongest first)).
        #[derive(Clone)]
        struct Avail {
            val: Operand,
            label: Label,
            fence: Option<FenceKind>,
        }
        let mut avail: FxHashMap<OpKey, Avail> = FxHashMap::default();
        let mut killed = false;
        for i in 0..f.block(b).insts.len() {
            let id = f.block(b).insts[i];
            let kind = &mut f.inst_mut(id).kind;
            subst.resolve_operands(kind);
            match &*kind {
                InstKind::Load {
                    ptr,
                    order: lasagne_lir::inst::Ordering::NotAtomic,
                } => {
                    let k = op_key(ptr);
                    if let Some(a) = avail.get(&k) {
                        let ok = match a.fence {
                            None => elim_adjacent(a.label, Label::Rna).is_some(),
                            Some(fk) => elim_fenced(a.label, fk, Label::Rna).is_some(),
                        };
                        if ok {
                            subst.replace(id, a.val);
                            dead[id.0 as usize] = true;
                            killed = true;
                            replaced += 1;
                            continue;
                        }
                    }
                    avail.insert(
                        k,
                        Avail {
                            val: Operand::Inst(id),
                            label: Label::Rna,
                            fence: None,
                        },
                    );
                }
                InstKind::Store {
                    ptr,
                    val,
                    order: lasagne_lir::inst::Ordering::NotAtomic,
                } => {
                    // A store to one pointer may alias others: drop
                    // everything except this pointer's entry.
                    let k = op_key(ptr);
                    avail.clear();
                    avail.insert(
                        k,
                        Avail {
                            val: *val,
                            label: Label::Wna,
                            fence: None,
                        },
                    );
                }
                InstKind::Fence { kind: fk } => {
                    for a in avail.values_mut() {
                        a.fence = Some(match a.fence {
                            None => *fk,
                            Some(prev) => lasagne_fences::legality::merge_fence(prev, *fk),
                        });
                    }
                }
                k if k.touches_memory() => {
                    avail.clear();
                }
                _ => {}
            }
        }
        if killed {
            f.block_mut(b).insts.retain(|i| !dead[i.0 as usize]);
        }
    }
    subst.apply(f);
    replaced
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::inst::{BinOp, Ordering, Terminator};
    use lasagne_lir::types::{Pointee, Ty};

    #[test]
    fn gvn_dedups_pure_expressions() {
        let mut m = Module::new();
        let mut f = Function::new("f", vec![Ty::I64, Ty::I64], Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::Param(1),
            },
        );
        let b = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::Param(1),
            },
        );
        let c = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Operand::Inst(a),
                rhs: Operand::Inst(b),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(c)),
            },
        );
        assert_eq!(gvn(&m, &mut f, &mut Analyses::new()), 1);
        let _ = &mut m;
        match &f.inst(c).kind {
            InstKind::Bin { lhs, rhs, .. } => assert_eq!(lhs, rhs),
            _ => unreachable!(),
        }
    }

    #[test]
    fn gvn_commutative_canonicalisation() {
        let m = Module::new();
        let mut f = Function::new("f", vec![Ty::I64, Ty::I64], Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::Param(1),
            },
        );
        let b = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(1),
                rhs: Operand::Param(0),
            },
        );
        let c = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Sub,
                lhs: Operand::Inst(a),
                rhs: Operand::Inst(b),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(c)),
            },
        );
        assert_eq!(
            gvn(&m, &mut f, &mut Analyses::new()),
            1,
            "a+b and b+a must value-number equal"
        );
    }

    #[test]
    fn gvn_respects_dominance() {
        // Same expression in two sibling branches must NOT be deduped.
        let m = Module::new();
        let mut f = Function::new("f", vec![Ty::I1, Ty::I64], Ty::I64);
        let e = f.entry();
        let t = f.add_block();
        let el = f.add_block();
        f.set_term(
            e,
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: t,
                if_false: el,
            },
        );
        let a = f.push(
            t,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(1),
                rhs: Operand::i64(1),
            },
        );
        f.set_term(
            t,
            Terminator::Ret {
                val: Some(Operand::Inst(a)),
            },
        );
        let b = f.push(
            el,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(1),
                rhs: Operand::i64(1),
            },
        );
        f.set_term(
            el,
            Terminator::Ret {
                val: Some(Operand::Inst(b)),
            },
        );
        assert_eq!(gvn(&m, &mut f, &mut Analyses::new()), 0);
    }

    #[test]
    fn load_elim_raw() {
        // store p, v; x = load p  ⇒ x = v
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64), Ty::I64], Ty::I64);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::Param(1),
                order: Ordering::NotAtomic,
            },
        );
        let l = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        assert_eq!(load_elim(&mut f), 1);
        match f.block(e).term {
            Terminator::Ret {
                val: Some(Operand::Param(1)),
            } => {}
            ref t => panic!("load not forwarded: {t:?}"),
        }
    }

    #[test]
    fn load_elim_rar_through_frm() {
        // x = load p; Frm; y = load p ⇒ y = x (F-RAR with o = rm is legal).
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
        let e = f.entry();
        let x = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Frm,
            },
        );
        let y = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        let s = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(x),
                rhs: Operand::Inst(y),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(s)),
            },
        );
        assert_eq!(load_elim(&mut f), 1);
    }

    #[test]
    fn load_elim_blocked_by_fsc_after_read() {
        // x = load p; Fsc; y = load p — F-RAR with Fsc is NOT in Figure 11b.
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
        let e = f.entry();
        let x = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Fsc,
            },
        );
        let y = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        let s = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(x),
                rhs: Operand::Inst(y),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(s)),
            },
        );
        assert_eq!(load_elim(&mut f), 0);
    }

    #[test]
    fn load_elim_raw_through_fww() {
        // store p, v; Fww; x = load p ⇒ x = v (F-RAW with τ = ww).
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64), Ty::I64], Ty::I64);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::Param(1),
                order: Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Fww,
            },
        );
        let l = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        assert_eq!(load_elim(&mut f), 1);
    }

    #[test]
    fn load_elim_raw_blocked_by_frm() {
        // store p, v; Frm; x = load p — F-RAW with Frm is NOT legal.
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64), Ty::I64], Ty::I64);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::Param(1),
                order: Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Frm,
            },
        );
        let l = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        assert_eq!(load_elim(&mut f), 0);
    }

    #[test]
    fn load_elim_invalidated_by_other_store() {
        let mut f = Function::new(
            "f",
            vec![Ty::Ptr(Pointee::I64), Ty::Ptr(Pointee::I64)],
            Ty::I64,
        );
        let e = f.entry();
        let x = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(1),
                val: Operand::i64(0),
                order: Ordering::NotAtomic,
            },
        );
        let y = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        let s = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(x),
                rhs: Operand::Inst(y),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(s)),
            },
        );
        assert_eq!(
            load_elim(&mut f),
            0,
            "potentially aliasing store blocks reuse"
        );
    }
}
