//! `mem2reg` (alloca promotion, re-exported from `lasagne-lir`) and a
//! scalar-replacement pass (`sroa`) that splits multi-field allocas — the
//! lifter's 16-byte XMM slots in particular — into independently promotable
//! scalar slots.

use lasagne_lir::func::Function;
use lasagne_lir::inst::{BlockId, CastOp, InstId, InstKind, Operand, Ordering};
use lasagne_lir::subst::{group_of, users_by_group, NO_GROUP};
use lasagne_lir::types::{Pointee, Ty};
use std::collections::BTreeMap;

/// Promotes all eligible allocas to SSA (the classic `mem2reg`).
pub fn mem2reg(f: &mut Function) -> usize {
    lasagne_lir::ssa::promote_allocas(f, |_, _| true)
}

/// One access to an alloca at a constant byte offset.
struct Access {
    /// The load/store instruction.
    inst: InstId,
    /// The pointer-producing instruction feeding it (bitcast or gep+bitcast
    /// chain head) — rewritten to point at the split slot.
    ptr_inst: InstId,
    offset: u64,
    size: u64,
    pointee: Pointee,
}

/// Describes how an alloca's pointer flows to an access:
/// `alloca → [gep const]? → bitcast → load/store`.
fn classify_access(f: &Function, slot: InstId, mem_inst: InstId, ptr: &Operand) -> Option<Access> {
    let Operand::Inst(p0) = ptr else { return None };
    // Unwrap one bitcast.
    let (pointee, after_cast) = match &f.inst(*p0).kind {
        InstKind::Cast {
            op: CastOp::BitCast,
            val: Operand::Inst(v),
        } => {
            let pe = f.inst(*p0).ty.pointee()?;
            (pe, *v)
        }
        InstKind::Gep { .. } | InstKind::Alloca { .. } => {
            let pe = f.inst(*p0).ty.pointee()?;
            (pe, *p0)
        }
        _ => return None,
    };
    // Then either the alloca itself or a constant-offset gep from it.
    let offset = if after_cast == slot {
        0
    } else {
        match &f.inst(after_cast).kind {
            InstKind::Gep {
                base: Operand::Inst(b),
                offset,
                elem_size,
            } if *b == slot => offset.as_const_int()? * *elem_size,
            _ => return None,
        }
    };
    Some(Access {
        inst: mem_inst,
        ptr_inst: *p0,
        offset,
        size: pointee.size(),
        pointee,
    })
}

/// Splits allocas whose every use is a fixed-offset scalar access into one
/// alloca per disjoint byte range. Returns the number of allocas split.
///
/// A few linear passes find every slot's users: one maps each derived
/// pointer (`gep slot, const` and bitcast chains of such pointers, in
/// layout order) to its root alloca, the next lists, per root, the
/// instructions that use the root or a pointer derived from it. Each slot
/// is then checked against its own users only.
pub fn sroa(f: &mut Function) -> usize {
    // `root[id]`: the index in `slots` of the alloca instruction `id` is,
    // or derives its pointer from.
    let mut root = vec![NO_GROUP; f.insts.len()];
    let mut slots: Vec<(InstId, u64, BlockId)> = Vec::new();
    for (b, id) in f.iter_insts() {
        if let InstKind::Alloca { size } = f.inst(id).kind {
            root[id.0 as usize] = slots.len() as u32;
            slots.push((id, size, b));
        }
    }
    if slots.is_empty() {
        return 0;
    }
    for (_, id) in f.iter_insts() {
        root[id.0 as usize] = match &f.inst(id).kind {
            InstKind::Alloca { .. } => continue,
            InstKind::Gep {
                base: Operand::Inst(base),
                offset,
                ..
            } if matches!(f.inst(*base).kind, InstKind::Alloca { .. })
                && offset.as_const_int().is_some() =>
            {
                root[base.0 as usize]
            }
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(v),
            } => root[v.0 as usize],
            _ => NO_GROUP,
        };
    }
    let users = users_by_group(f, slots.len(), &root);

    let mut split = 0;
    for (si, ((slot, size, slot_block), users)) in slots.into_iter().zip(users).enumerate() {
        let derived = |op: &Operand| group_of(&root, op) == Some(si);
        // Every use must be (transitively) a classified scalar access.
        let mut accesses: Vec<Access> = Vec::new();
        let mut ok = true;
        for id in users {
            let inst = f.inst(id);
            match &inst.kind {
                InstKind::Load {
                    ptr,
                    order: Ordering::NotAtomic,
                } => match classify_access(f, slot, id, ptr) {
                    Some(a) => accesses.push(a),
                    None => {
                        ok = false;
                        break;
                    }
                },
                InstKind::Store {
                    ptr,
                    val,
                    order: Ordering::NotAtomic,
                } => {
                    // The value stored must not be the pointer itself.
                    if derived(val) {
                        ok = false;
                        break;
                    }
                    match classify_access(f, slot, id, ptr) {
                        Some(a) => accesses.push(a),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                // Derived pointer computations are fine; any other gep or
                // bitcast of the slot (a variable offset, a gep of a
                // bitcast) would keep addressing the unsplit slot.
                InstKind::Gep { .. }
                | InstKind::Cast {
                    op: CastOp::BitCast,
                    ..
                } if root[id.0 as usize] == si as u32 => {}
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok || accesses.is_empty() {
            continue;
        }
        // Partition into byte ranges; all accesses to a range must agree on
        // (offset, size) exactly (no partial overlap).
        let mut ranges: BTreeMap<u64, (u64, Pointee)> = BTreeMap::new();
        let mut consistent = true;
        for a in &accesses {
            if a.offset + a.size > size {
                consistent = false;
                break;
            }
            match ranges.get(&a.offset) {
                None => {
                    ranges.insert(a.offset, (a.size, a.pointee));
                }
                Some((s, _)) if *s == a.size => {}
                _ => {
                    consistent = false;
                    break;
                }
            }
        }
        // No overlaps between distinct ranges.
        let keys: Vec<u64> = ranges.keys().copied().collect();
        for w in keys.windows(2) {
            if w[0] + ranges[&w[0]].0 > w[1] {
                consistent = false;
            }
        }
        if !consistent || ranges.len() < 2 {
            continue;
        }

        // Create one alloca per range, right where the original lives.
        let mut new_slots: BTreeMap<u64, InstId> = BTreeMap::new();
        let Some(slot_pos) = f.block(slot_block).insts.iter().position(|i| *i == slot) else {
            continue;
        };
        for (off, (sz, pe)) in &ranges {
            let id = f.insert(
                slot_block,
                slot_pos,
                Ty::Ptr(*pe),
                InstKind::Alloca { size: *sz },
            );
            new_slots.insert(*off, id);
        }
        // Rewrite each access: point the memory op directly at the new slot
        // (bitcast if the access pointee differs from the slot pointee).
        for a in &accesses {
            let ns = new_slots[&a.offset];
            let slot_ty = f.inst(ns).ty;
            let want_ty = Ty::Ptr(a.pointee);
            let ptr_op = if slot_ty == want_ty {
                Operand::Inst(ns)
            } else {
                // Reuse the old pointer instruction as the bitcast.
                f.inst_mut(a.ptr_inst).kind = InstKind::Cast {
                    op: CastOp::BitCast,
                    val: Operand::Inst(ns),
                };
                f.inst_mut(a.ptr_inst).ty = want_ty;
                Operand::Inst(a.ptr_inst)
            };
            match &mut f.inst_mut(a.inst).kind {
                InstKind::Load { ptr, .. } | InstKind::Store { ptr, .. } => *ptr = ptr_op,
                _ => unreachable!(),
            }
        }
        split += 1;
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::analysis::Analyses;
    use lasagne_lir::func::Module;
    use lasagne_lir::inst::Terminator;
    use lasagne_lir::verify::verify_module;

    /// A 16-byte slot accessed as two distinct f64 halves (the lifter's XMM
    /// slot shape) splits into two 8-byte slots, then promotes.
    #[test]
    fn splits_xmm_style_slot() {
        let mut f = Function::new("f", vec![Ty::F64, Ty::F64], Ty::F64);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 16 });
        // low half
        let lo_ptr = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(slot),
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(lo_ptr),
                val: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        // high half
        let hi = f.push(
            e,
            Ty::Ptr(Pointee::I8),
            InstKind::Gep {
                base: Operand::Inst(slot),
                offset: Operand::i64(8),
                elem_size: 1,
            },
        );
        let hi_ptr = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(hi),
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(hi_ptr),
                val: Operand::Param(1),
                order: Ordering::NotAtomic,
            },
        );
        // read back the low half
        let lo_ptr2 = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(slot),
            },
        );
        let l = f.push(
            e,
            Ty::F64,
            InstKind::Load {
                ptr: Operand::Inst(lo_ptr2),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );

        assert_eq!(sroa(&mut f), 1);
        crate::dce::dce(&mut f, &mut Analyses::new());
        let promoted = mem2reg(&mut f);
        assert!(promoted >= 2, "split slots should promote, got {promoted}");

        let mut m = Module::new();
        let id = m.add_func(f);
        verify_module(&m).unwrap();
        let mut machine = lasagne_lir::interp::Machine::new(&m);
        let r = machine
            .run(
                id,
                &[
                    lasagne_lir::interp::Val::B64(1.5f64.to_bits()),
                    lasagne_lir::interp::Val::B64(9.0f64.to_bits()),
                ],
            )
            .unwrap();
        assert_eq!(r.ret.unwrap().f64(), 1.5);
    }

    /// A load through a variable-offset gep of the slot must keep seeing
    /// the stores made through the constant-offset halves: such a gep is
    /// not a derived pointer, so it blocks splitting.
    #[test]
    fn variable_offset_gep_blocks_sroa() {
        let mut f = Function::new("f", vec![Ty::I64], Ty::F64);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 16 });
        let lo = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(slot),
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(lo),
                val: Operand::f64(1.5),
                order: Ordering::NotAtomic,
            },
        );
        let hi = f.push(
            e,
            Ty::Ptr(Pointee::I8),
            InstKind::Gep {
                base: Operand::Inst(slot),
                offset: Operand::i64(8),
                elem_size: 1,
            },
        );
        let hi_ptr = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(hi),
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(hi_ptr),
                val: Operand::f64(9.0),
                order: Ordering::NotAtomic,
            },
        );
        let at = f.push(
            e,
            Ty::Ptr(Pointee::I8),
            InstKind::Gep {
                base: Operand::Inst(slot),
                offset: Operand::Param(0),
                elem_size: 1,
            },
        );
        let at_ptr = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(at),
            },
        );
        let l = f.push(
            e,
            Ty::F64,
            InstKind::Load {
                ptr: Operand::Inst(at_ptr),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        let run = |f: &Function| {
            let mut m = Module::new();
            let id = m.add_func(f.clone());
            verify_module(&m).unwrap();
            let mut machine = lasagne_lir::interp::Machine::new(&m);
            let r = machine
                .run(id, &[lasagne_lir::interp::Val::B64(8)])
                .unwrap();
            r.ret.unwrap().f64()
        };
        assert_eq!(run(&f), 9.0);
        let split = sroa(&mut f);
        crate::dce::dce(&mut f, &mut Analyses::new());
        mem2reg(&mut f);
        assert_eq!(run(&f), 9.0, "the load must see the high half");
        assert_eq!(split, 0);
    }

    /// Overlapping accesses (0..8 and 4..12) block splitting.
    #[test]
    fn overlap_blocks_sroa() {
        let mut f = Function::new("f", vec![Ty::F64], Ty::Void);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 16 });
        let p0 = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(slot),
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(p0),
                val: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        let g = f.push(
            e,
            Ty::Ptr(Pointee::I8),
            InstKind::Gep {
                base: Operand::Inst(slot),
                offset: Operand::i64(4),
                elem_size: 1,
            },
        );
        let p1 = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(g),
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(p1),
                val: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        assert_eq!(sroa(&mut f), 0);
    }

    /// An escaping pointer blocks splitting.
    #[test]
    fn escape_blocks_sroa() {
        let mut f = Function::new("f", vec![], Ty::I64);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 16 });
        let p = f.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: CastOp::PtrToInt,
                val: Operand::Inst(slot),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(p)),
            },
        );
        assert_eq!(sroa(&mut f), 0);
    }
}
