//! Dead-store elimination, gated by the Figure 11b WAW rules.

use lasagne_fences::legality::{elim_adjacent, elim_fenced, Elim, Label};
use lasagne_lir::func::Function;
use lasagne_lir::hash::FxHashMap;
use lasagne_lir::inst::{FenceKind, InstId, InstKind, Operand, Ordering};
use lasagne_lir::subst::{users_by_group, NO_GROUP};

/// Eliminates overwritten non-atomic stores within basic blocks.
///
/// `store p, a; … ; store p, b` kills the first store when nothing between
/// them can read `p` (no loads, calls, or RMWs at all, conservatively) and
/// any intervening fences admit the W-after-W elimination of Figure 11b
/// (`Frm`/`Fww` do; `Fsc` does not).
pub fn dse(f: &mut Function) -> usize {
    let mut removed = 0;
    // Pending store per pointer operand: (position in the block, strongest
    // fence since).
    let mut pending: FxHashMap<Operand, (usize, Option<FenceKind>)> = FxHashMap::default();
    let mut drop: Vec<bool> = Vec::new();
    for b in 0..f.blocks.len() {
        pending.clear();
        drop.clear();
        let insts = &f.blocks[b].insts;
        for (pos, id) in insts.iter().enumerate() {
            match &f.inst(*id).kind {
                InstKind::Store {
                    ptr,
                    order: Ordering::NotAtomic,
                    ..
                } => {
                    if let Some((prev, fence)) = pending.insert(*ptr, (pos, None)) {
                        let legal = match fence {
                            None => elim_adjacent(Label::Wna, Label::Wna) == Some(Elim::DropFirst),
                            Some(fk) => {
                                elim_fenced(Label::Wna, fk, Label::Wna) == Some(Elim::DropFirst)
                            }
                        };
                        if legal {
                            drop.resize(insts.len(), false);
                            drop[prev] = true;
                            removed += 1;
                        }
                    }
                }
                InstKind::Fence { kind } => {
                    for (_, fence) in pending.values_mut() {
                        *fence = Some(match fence {
                            None => *kind,
                            Some(prev) => lasagne_fences::legality::merge_fence(*prev, *kind),
                        });
                    }
                }
                k if k.touches_memory() => pending.clear(),
                _ => {}
            }
        }
        if !drop.is_empty() {
            let mut pos = 0;
            f.blocks[b].insts.retain(|_| {
                pos += 1;
                !drop[pos - 1]
            });
        }
    }
    removed
}

/// Removes stores to allocas that are never loaded anywhere in the function
/// (and whose address never escapes) — common after register promotion.
///
/// One pass lists each alloca's users; slots are then decided in layout
/// order, each against its own users minus the stores already removed.
pub fn dse_dead_slots(f: &mut Function) -> usize {
    let mut slot_no = vec![NO_GROUP; f.insts.len()];
    let mut slots: Vec<InstId> = Vec::new();
    for (_, id) in f.iter_insts() {
        if matches!(f.inst(id).kind, InstKind::Alloca { .. }) {
            slot_no[id.0 as usize] = slots.len() as u32;
            slots.push(id);
        }
    }
    if slots.is_empty() {
        return 0;
    }
    let users = users_by_group(f, slots.len(), &slot_no);
    let mut dead = vec![false; f.insts.len()];
    let mut removed = 0;
    let mut stores: Vec<InstId> = Vec::new();
    for (slot, users) in slots.into_iter().zip(users) {
        let this = Operand::Inst(slot);
        stores.clear();
        let only_stores = users
            .into_iter()
            .filter(|id| !dead[id.0 as usize])
            .all(|id| {
                let dead_store = matches!(
                    &f.inst(id).kind,
                    InstKind::Store {
                        ptr,
                        val,
                        order: Ordering::NotAtomic,
                    } if *ptr == this && *val != this
                );
                if dead_store {
                    stores.push(id);
                }
                dead_store
            });
        if only_stores && !stores.is_empty() {
            removed += stores.len();
            for id in &stores {
                dead[id.0 as usize] = true;
            }
        }
    }
    if removed > 0 {
        for block in &mut f.blocks {
            block.insts.retain(|i| !dead[i.0 as usize]);
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::inst::Terminator;
    use lasagne_lir::types::{Pointee, Ty};

    #[test]
    fn overwritten_store_removed() {
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::Void);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(1),
                order: Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(2),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        assert_eq!(dse(&mut f), 1);
        assert_eq!(f.live_inst_count(), 1);
    }

    #[test]
    fn waw_through_fww_removed_but_not_through_fsc() {
        for (kind, expect) in [
            (FenceKind::Fww, 1),
            (FenceKind::Frm, 1),
            (FenceKind::Fsc, 0),
        ] {
            let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::Void);
            let e = f.entry();
            f.push(
                e,
                Ty::Void,
                InstKind::Store {
                    ptr: Operand::Param(0),
                    val: Operand::i64(1),
                    order: Ordering::NotAtomic,
                },
            );
            f.push(e, Ty::Void, InstKind::Fence { kind });
            f.push(
                e,
                Ty::Void,
                InstKind::Store {
                    ptr: Operand::Param(0),
                    val: Operand::i64(2),
                    order: Ordering::NotAtomic,
                },
            );
            f.set_term(e, Terminator::Ret { val: None });
            assert_eq!(dse(&mut f), expect, "fence {kind:?}");
        }
    }

    #[test]
    fn intervening_load_blocks() {
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(1),
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
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(2),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        assert_eq!(dse(&mut f), 0);
    }

    #[test]
    fn dead_slot_stores_removed() {
        let mut f = Function::new("f", vec![], Ty::Void);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(1),
                order: Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(2),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        assert_eq!(dse_dead_slots(&mut f), 2);
    }

    #[test]
    fn seqcst_store_not_touched() {
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::Void);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(1),
                order: Ordering::SeqCst,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(2),
                order: Ordering::SeqCst,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        assert_eq!(dse(&mut f), 0);
    }
}
