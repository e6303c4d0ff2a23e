//! SSA construction: promotion of memory slots (`alloca`s) to SSA values
//! with φ-insertion — the classic `mem2reg` algorithm (iterated dominance
//! frontiers + dominator-tree renaming).
//!
//! The lifter uses this to turn its write-through register slots into the
//! SSA form mctoll produces; the optimizer re-exports it as the `mem2reg`
//! pass of Figure 17.

use crate::analysis::{Cfg, Dominators};
use crate::func::Function;
use crate::inst::{BlockId, Inst, InstId, InstKind, Operand, Ordering};
use crate::subst::{group_of, Subst, NO_GROUP};
use crate::types::Ty;

/// Operand type resolvable without a module (globals/functions are `i8*`).
fn local_operand_ty(f: &Function, op: &Operand) -> Ty {
    match op {
        Operand::Inst(id) => f.inst(*id).ty,
        Operand::Param(i) => f.params[*i as usize],
        Operand::ConstInt { ty, .. } => *ty,
        Operand::ConstF32(_) => Ty::F32,
        Operand::ConstF64(_) => Ty::F64,
        Operand::Global(_) | Operand::Func(_) => Ty::Ptr(crate::types::Pointee::I8),
        Operand::Undef(ty) => *ty,
    }
}

/// A promotion candidate while its uses are being checked.
struct Candidate {
    id: InstId,
    ok: bool,
    /// The type every load agrees on, so far.
    loaded: Option<Ty>,
    /// The value of the first store in layout order (types a store-only
    /// slot).
    first_store: Option<Operand>,
}

/// Decides, in one pass over the instructions, which eligible `alloca`s
/// can be promoted. An alloca is promotable when every use is the direct
/// pointer operand of a non-atomic load or store (which must not store
/// the pointer itself as a value) and all loads agree on one loaded type;
/// a slot that is only stored to takes the type of its first stored
/// value. Uses in terminators are not examined.
///
/// Returns the promotable slots with their types, in layout order, and
/// `slot_of`: for each arena id, the index of its slot or [`NO_GROUP`].
fn promotable_slots(
    f: &Function,
    mut eligible: impl FnMut(&Function, InstId) -> bool,
) -> (Vec<(InstId, Ty)>, Vec<u32>) {
    let mut slot_of = vec![NO_GROUP; f.insts.len()];
    let mut cands: Vec<Candidate> = Vec::new();
    for (_, id) in f.iter_insts() {
        if matches!(f.inst(id).kind, InstKind::Alloca { .. }) && eligible(f, id) {
            slot_of[id.0 as usize] = cands.len() as u32;
            cands.push(Candidate {
                id,
                ok: true,
                loaded: None,
                first_store: None,
            });
        }
    }
    if cands.is_empty() {
        return (Vec::new(), slot_of);
    }
    let cand = |op: &Operand| group_of(&slot_of, op);
    for (_, iid) in f.iter_insts() {
        let inst = f.inst(iid);
        match &inst.kind {
            InstKind::Load { ptr, order } => {
                if let Some(c) = cand(ptr) {
                    let c = &mut cands[c];
                    match (order, c.loaded) {
                        (Ordering::NotAtomic, None) => c.loaded = Some(inst.ty),
                        (Ordering::NotAtomic, Some(t)) if t == inst.ty => {}
                        _ => c.ok = false,
                    }
                }
            }
            InstKind::Store { ptr, val, order } => {
                if let Some(c) = cand(ptr) {
                    let c = &mut cands[c];
                    c.first_store.get_or_insert(*val);
                    if *order != Ordering::NotAtomic || val == ptr {
                        c.ok = false;
                    }
                }
                // Storing a slot's address lets it escape.
                if let Some(c) = cand(val) {
                    cands[c].ok = false;
                }
            }
            kind => kind.for_each_operand(|op| {
                if let Some(c) = cand(op) {
                    cands[c].ok = false;
                }
            }),
        }
    }
    let mut slots = Vec::new();
    for c in &cands {
        let ty = c
            .loaded
            .or_else(|| c.first_store.map(|v| local_operand_ty(f, &v)));
        slot_of[c.id.0 as usize] = match ty {
            Some(ty) if c.ok => {
                slots.push((c.id, ty));
                slots.len() as u32 - 1
            }
            _ => NO_GROUP,
        };
    }
    (slots, slot_of)
}

/// Promotes eligible `alloca`s in `f` to SSA, inserting φ-nodes.
///
/// `eligible` filters which allocas to consider (use `|_| true` for all).
/// Returns the number of promoted slots.
///
/// Runs in time linear in the function plus the φs it places and a
/// blocks × slots table of exit values: the slots are found in one pass,
/// and the renaming walk records replaced loads in a [`Subst`] that is
/// applied in one final sweep.
pub fn promote_allocas(f: &mut Function, eligible: impl FnMut(&Function, InstId) -> bool) -> usize {
    let (slots, slot_of) = promotable_slots(f, eligible);
    if slots.is_empty() {
        return 0;
    }
    let slot_at = |op: &Operand| group_of(&slot_of, op);
    let cfg = Cfg::compute(f);
    let doms = Dominators::compute(&cfg);
    let df = doms.frontiers(&cfg);
    let nblocks = f.blocks.len();
    let nslots = slots.len();

    // Phase 1: place φs at iterated dominance frontiers of def (store)
    // blocks. `new_phis[b]` lists `(slot, φ)` in creation order; each φ is
    // spliced in at the top of its block, newest first.
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); nslots];
    for b in f.block_ids() {
        for iid in &f.block(b).insts {
            if let InstKind::Store { ptr, .. } = &f.inst(*iid).kind {
                if let Some(si) = slot_at(ptr) {
                    if def_blocks[si].last() != Some(&b) {
                        def_blocks[si].push(b);
                    }
                }
            }
        }
    }
    let mut new_phis: Vec<Vec<(usize, InstId)>> = vec![Vec::new(); nblocks];
    // `placed[b]`: the slot that last got a φ at `b`.
    let mut placed = vec![NO_GROUP; nblocks];
    for (si, mut work) in def_blocks.into_iter().enumerate() {
        while let Some(b) = work.pop() {
            if !cfg.reachable(b) {
                continue;
            }
            for &fb in &df[b.0 as usize] {
                if placed[fb.0 as usize] != si as u32 {
                    placed[fb.0 as usize] = si as u32;
                    let phi = InstId(f.insts.len() as u32);
                    f.insts.push(Inst {
                        ty: slots[si].1,
                        kind: InstKind::Phi { incoming: vec![] },
                    });
                    new_phis[fb.0 as usize].push((si, phi));
                    work.push(fb);
                }
            }
        }
    }
    for (b, phis) in new_phis.iter().enumerate() {
        if !phis.is_empty() {
            let insts = &mut f.blocks[b].insts;
            insts.splice(0..0, phis.iter().rev().map(|(_, phi)| *phi));
        }
    }

    // Phase 2: rename along the dominator tree. A block enters with its
    // immediate dominator's exit values; `exit[b * nslots + si]` holds
    // slot `si`'s value at the end of block `b`.
    let mut exit: Vec<Operand> = vec![Operand::Undef(Ty::Void); nblocks * nslots];
    let mut visited = vec![false; nblocks];
    let mut delete = vec![false; f.insts.len()];
    let mut subst = Subst::new();
    let mut vals: Vec<Operand> = Vec::with_capacity(nslots);
    let mut stack: Vec<BlockId> = vec![BlockId(0)];
    while let Some(b) = stack.pop() {
        vals.clear();
        match doms.idom[b.0 as usize] {
            Some(d) => {
                let d = d.0 as usize * nslots;
                vals.extend_from_slice(&exit[d..d + nslots]);
            }
            None => vals.extend(slots.iter().map(|(_, ty)| Operand::Undef(*ty))),
        }
        // φs at block start define new values.
        for &(si, phi) in &new_phis[b.0 as usize] {
            vals[si] = Operand::Inst(phi);
        }
        for &iid in &f.block(b).insts {
            match &f.inst(iid).kind {
                InstKind::Load { ptr, .. } => {
                    if let Some(si) = slot_at(ptr) {
                        subst.replace(iid, vals[si]);
                        delete[iid.0 as usize] = true;
                    }
                }
                InstKind::Store { ptr, val, .. } => {
                    if let Some(si) = slot_at(ptr) {
                        vals[si] = subst.resolve(*val);
                        delete[iid.0 as usize] = true;
                    }
                }
                _ => {}
            }
        }
        let at = b.0 as usize * nslots;
        exit[at..at + nslots].copy_from_slice(&vals);
        visited[b.0 as usize] = true;
        stack.extend_from_slice(doms.children(b));
    }
    subst.apply(f);

    // Phase 3: fill φ incoming lists from predecessor exit values.
    for (b, phis) in new_phis.iter().enumerate() {
        for &(si, phi) in phis {
            let mut incoming = Vec::new();
            for &p in &cfg.preds[b] {
                if !cfg.reachable(p) {
                    continue;
                }
                // A self-referencing φ through a loop is fine and correct.
                let v = if visited[p.0 as usize] {
                    exit[p.0 as usize * nslots + si]
                } else {
                    Operand::Undef(slots[si].1)
                };
                incoming.push((p, v));
            }
            if let InstKind::Phi { incoming: inc } = &mut f.inst_mut(phi).kind {
                *inc = incoming;
            }
        }
    }

    // Phase 4: delete promoted loads/stores and the allocas themselves.
    for (slot, _) in &slots {
        delete[slot.0 as usize] = true;
    }
    for block in &mut f.blocks {
        block.insts.retain(|i| !delete[i.0 as usize]);
    }

    // Prune trivial φs (single unique incoming value, or only self + one).
    prune_trivial_phis(f);

    slots.len()
}

/// Removes φs whose incoming values are all identical (ignoring
/// self-references), replacing them with that value. Sweeps the φs in
/// layout order to a fixpoint and returns the number removed.
///
/// Replacements are recorded in one [`Subst`] and incoming values are
/// read through it, so each sweep is linear and the function is
/// rewritten once, at the end.
pub fn prune_trivial_phis(f: &mut Function) -> usize {
    let phis: Vec<InstId> = f
        .iter_insts()
        .map(|(_, id)| id)
        .filter(|id| matches!(f.inst(*id).kind, InstKind::Phi { .. }))
        .collect();
    let mut subst = Subst::new();
    let mut removed = vec![false; f.insts.len()];
    let mut count = 0;
    loop {
        let mut did = false;
        for &id in &phis {
            if removed[id.0 as usize] {
                continue;
            }
            let InstKind::Phi { incoming } = &f.inst(id).kind else {
                unreachable!("φ list out of date");
            };
            let mut unique: Option<Operand> = None;
            let mut trivial = true;
            for (_, v) in incoming {
                let v = subst.resolve(*v);
                if v == Operand::Inst(id) {
                    continue; // self-reference through loop
                }
                match unique {
                    None => unique = Some(v),
                    Some(u) if u == v => {}
                    _ => {
                        trivial = false;
                        break;
                    }
                }
            }
            if trivial {
                let rep = unique.unwrap_or(Operand::Undef(f.inst(id).ty));
                subst.replace(id, rep);
                removed[id.0 as usize] = true;
                count += 1;
                did = true;
            }
        }
        if !did {
            break;
        }
    }
    if count > 0 {
        for block in &mut f.blocks {
            block.insts.retain(|i| !removed[i.0 as usize]);
        }
        subst.apply(f);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Module;
    use crate::inst::{BinOp, IPred, Terminator};
    use crate::types::Pointee;
    use crate::verify::verify_module;

    /// Builds: slot = alloca; store 0; loop { v = load; store v+1 } while
    /// v+1 < n; return load slot.
    fn loop_through_slot() -> Function {
        let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
        let entry = f.entry();
        let body = f.add_block();
        let exit = f.add_block();
        let slot = f.push(entry, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        f.push(
            entry,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(0),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(entry, Terminator::Br { dest: body });
        let v = f.push(
            body,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        let v1 = f.push(
            body,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(v),
                rhs: Operand::i64(1),
            },
        );
        f.push(
            body,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::Inst(v1),
                order: Ordering::NotAtomic,
            },
        );
        let c = f.push(
            body,
            Ty::I1,
            InstKind::ICmp {
                pred: IPred::Ult,
                lhs: Operand::Inst(v1),
                rhs: Operand::Param(0),
            },
        );
        f.set_term(
            body,
            Terminator::CondBr {
                cond: Operand::Inst(c),
                if_true: body,
                if_false: exit,
            },
        );
        let fin = f.push(
            exit,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            exit,
            Terminator::Ret {
                val: Some(Operand::Inst(fin)),
            },
        );
        f
    }

    #[test]
    fn promotes_loop_slot_and_preserves_semantics() {
        let mut f = loop_through_slot();
        let promoted = promote_allocas(&mut f, |_, _| true);
        assert_eq!(promoted, 1);
        // No loads/stores/allocas remain.
        for (_, id) in f.iter_insts() {
            assert!(
                !matches!(
                    f.inst(id).kind,
                    InstKind::Alloca { .. } | InstKind::Load { .. } | InstKind::Store { .. }
                ),
                "leftover memory op: {:?}",
                f.inst(id).kind
            );
        }
        let mut m = Module::new();
        let id = m.add_func(f);
        verify_module(&m).unwrap();
        let mut machine = crate::interp::Machine::new(&m);
        let r = machine.run(id, &[crate::interp::Val::B64(10)]).unwrap();
        assert_eq!(r.ret, Some(crate::interp::Val::B64(10)));
    }

    #[test]
    fn escaping_alloca_not_promoted() {
        let mut f = Function::new("f", vec![], Ty::I64);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        // Address escapes through ptrtoint.
        let escaped = f.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: crate::inst::CastOp::PtrToInt,
                val: Operand::Inst(slot),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(escaped)),
            },
        );
        let mut g = f.clone();
        assert_eq!(promote_allocas(&mut g, |_, _| true), 0);
        assert_eq!(g, f, "function must be unchanged");
    }

    #[test]
    fn atomic_slot_not_promoted() {
        let mut f = Function::new("f", vec![], Ty::I64);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        let l = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::SeqCst,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        assert_eq!(promote_allocas(&mut f, |_, _| true), 0);
    }

    #[test]
    fn diamond_gets_phi() {
        // slot := alloca; if p { store 1 } else { store 2 }; ret load
        let mut f = Function::new("f", vec![Ty::I1], Ty::I64);
        let e = f.entry();
        let t = f.add_block();
        let el = f.add_block();
        let j = f.add_block();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        f.set_term(
            e,
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: t,
                if_false: el,
            },
        );
        f.push(
            t,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(1),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(t, Terminator::Br { dest: j });
        f.push(
            el,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(2),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(el, Terminator::Br { dest: j });
        let l = f.push(
            j,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            j,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );

        assert_eq!(promote_allocas(&mut f, |_, _| true), 1);
        let has_phi = f
            .iter_insts()
            .any(|(_, id)| matches!(f.inst(id).kind, InstKind::Phi { .. }));
        assert!(has_phi, "join block needs a phi");

        let mut m = Module::new();
        let id = m.add_func(f);
        verify_module(&m).unwrap();
        let mut machine = crate::interp::Machine::new(&m);
        assert_eq!(
            machine.run(id, &[crate::interp::Val::B64(1)]).unwrap().ret,
            Some(crate::interp::Val::B64(1))
        );
        let mut machine = crate::interp::Machine::new(&m);
        assert_eq!(
            machine.run(id, &[crate::interp::Val::B64(0)]).unwrap().ret,
            Some(crate::interp::Val::B64(2))
        );
    }

    #[test]
    fn trivial_phi_pruned() {
        let mut f = Function::new("f", vec![Ty::I1], Ty::I64);
        let e = f.entry();
        let t = f.add_block();
        let el = f.add_block();
        let j = f.add_block();
        f.set_term(
            e,
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: t,
                if_false: el,
            },
        );
        f.set_term(t, Terminator::Br { dest: j });
        f.set_term(el, Terminator::Br { dest: j });
        let p = f.push(
            j,
            Ty::I64,
            InstKind::Phi {
                incoming: vec![(t, Operand::i64(5)), (el, Operand::i64(5))],
            },
        );
        f.set_term(
            j,
            Terminator::Ret {
                val: Some(Operand::Inst(p)),
            },
        );
        assert_eq!(prune_trivial_phis(&mut f), 1);
        match &f.block(j).term {
            Terminator::Ret { val: Some(v) } => assert_eq!(v.as_const_int(), Some(5)),
            t => panic!("unexpected {t:?}"),
        }
    }

    /// The eager `prune_trivial_phis`: repeated layout-order sweeps with a
    /// whole-function rewrite per removed φ.
    fn prune_by_sweeps(f: &mut Function) -> usize {
        let mut removed = 0;
        loop {
            let mut did = false;
            for b in f.block_ids() {
                for id in f.block(b).insts.clone() {
                    let InstKind::Phi { incoming } = &f.inst(id).kind else {
                        continue;
                    };
                    let mut unique: Option<Operand> = None;
                    let mut trivial = true;
                    for (_, v) in incoming {
                        if *v == Operand::Inst(id) {
                            continue;
                        }
                        match unique {
                            None => unique = Some(*v),
                            Some(u) if u == *v => {}
                            _ => {
                                trivial = false;
                                break;
                            }
                        }
                    }
                    if trivial {
                        let rep = unique.unwrap_or(Operand::Undef(f.inst(id).ty));
                        f.replace_all_uses(id, rep);
                        f.block_mut(b).insts.retain(|i| *i != id);
                        removed += 1;
                        did = true;
                    }
                }
            }
            if !did {
                return removed;
            }
        }
    }

    /// Random φ webs (φs referring to φs in earlier and later blocks, to
    /// themselves and to two constants) prune to the same function, with
    /// the same count, as the eager sweeps.
    #[test]
    fn deferred_pruning_matches_eager_sweeps() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for _ in 0..300 {
            let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
            let nblocks = 1 + next(4) as usize;
            let nphis = 1 + next(12) as u32;
            let blocks: Vec<BlockId> = (0..nblocks)
                .map(|i| if i == 0 { f.entry() } else { f.add_block() })
                .collect();
            let mut phis = Vec::new();
            for _ in 0..nphis {
                let b = blocks[next(nblocks as u64) as usize];
                phis.push(f.push(b, Ty::I64, InstKind::Phi { incoming: vec![] }));
            }
            for &p in &phis {
                let incoming = (0..1 + next(3))
                    .map(|_| {
                        let v = match next(5) {
                            0 => Operand::i64(1),
                            1 => Operand::i64(2),
                            2 => Operand::Param(0),
                            _ => Operand::Inst(phis[next(nphis as u64) as usize]),
                        };
                        (blocks[0], v)
                    })
                    .collect();
                f.inst_mut(p).kind = InstKind::Phi { incoming };
            }
            let users: Vec<Operand> = phis.iter().map(|p| Operand::Inst(*p)).collect();
            let call = f.push(
                blocks[0],
                Ty::I64,
                InstKind::Call {
                    callee: crate::inst::Callee::Indirect(Operand::Param(0)),
                    args: users,
                },
            );
            f.set_term(
                blocks[0],
                Terminator::Ret {
                    val: Some(Operand::Inst(call)),
                },
            );
            let mut want = f.clone();
            let want_count = prune_by_sweeps(&mut want);
            let count = prune_trivial_phis(&mut f);
            assert_eq!(count, want_count);
            assert_eq!(f, want);
        }
    }
}
