//! Fence placement and merging (paper §8, "Implementing LIMM Translations").
//!
//! Placement enforces the x86→IR mapping of Figure 8a on lifted code:
//!
//! * every shared non-atomic **load** gets a trailing `Frm`;
//! * every shared non-atomic **store** gets a leading `Fww`;
//! * RMWs are already seq_cst and `MFENCE` is already `Fsc` from lifting.
//!
//! "Shared" is decided by the §8 stack-access analysis: the use–def chain of
//! the pointer operand is explored through `bitcast` and `getelementptr`;
//! if it bottoms out at a stack `alloca` the access is private and needs no
//! fence. Everything else is conservatively fenced. The naive strategy
//! (Figure 14's baseline) fences every access.
//!
//! Merging implements §8 step 2 plus the §7.2 fence-merging rules: adjacent
//! fences with no intervening memory access merge, strengthening
//! `Frm·Fww → Fsc` when the kinds differ.

use crate::legality::merge_fence;
use lasagne_lir::func::{Function, Module};
use lasagne_lir::inst::{CastOp, FenceKind, Inst, InstId, InstKind, Operand, Ordering};
use lasagne_lir::types::Ty;

/// Which accesses get fences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Fence every non-atomic access (the Figure 14 baseline).
    Naive,
    /// Skip accesses the stack analysis proves private (§8 step 1).
    StackAware,
}

/// Statistics from fence placement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// `Frm` fences inserted.
    pub frm: usize,
    /// `Fww` fences inserted.
    pub fww: usize,
    /// Accesses skipped as provably stack-private.
    pub skipped_stack: usize,
}

impl PlacementStats {
    /// Total fences inserted.
    pub fn total(&self) -> usize {
        self.frm + self.fww
    }
}

impl std::ops::AddAssign for PlacementStats {
    fn add_assign(&mut self, other: PlacementStats) {
        self.frm += other.frm;
        self.fww += other.fww;
        self.skipped_stack += other.skipped_stack;
    }
}

/// The Figure 8a mapping rule that motivated a fence decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceRule {
    /// A shared non-atomic load gets a trailing `Frm`.
    SharedLoad,
    /// A shared non-atomic store gets a leading `Fww`.
    SharedStore,
}

impl FenceRule {
    /// Stable name used in traces and the `explain-fences` table.
    pub fn name(self) -> &'static str {
        match self {
            FenceRule::SharedLoad => "shared-load",
            FenceRule::SharedStore => "shared-store",
        }
    }

    /// The fence kind the rule inserts.
    pub fn kind(self) -> FenceKind {
        match self {
            FenceRule::SharedLoad => FenceKind::Frm,
            FenceRule::SharedStore => FenceKind::Fww,
        }
    }
}

/// What ultimately happened to one fence decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceFate {
    /// The fence was inserted and survives placement.
    Placed,
    /// The §8 stack-access analysis proved the access private; no fence.
    ElidedStack,
    /// The fence was inserted, then folded into a neighbour by merging
    /// (assigned by the pipeline after [`merge_fences`]).
    Merged,
}

impl FenceFate {
    /// Stable name used in traces and the `explain-fences` table.
    pub fn name(self) -> &'static str {
        match self {
            FenceFate::Placed => "placed",
            FenceFate::ElidedStack => "elided-stack",
            FenceFate::Merged => "merged",
        }
    }
}

/// Provenance of one fence decision: which access motivated it, under
/// which mapping rule, and what became of it.
///
/// Sites are function-relative LIR coordinates (`block`/`pos` of the
/// motivating access at decision time); exact x86 addresses are not
/// preserved through lifting, so consumers pair these with the function's
/// x86 entry address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FenceDecision {
    /// The motivating load/store instruction.
    pub access: InstId,
    /// The inserted fence instruction (`None` when the fence was elided).
    pub fence: Option<InstId>,
    /// The mapping rule that fired (or would have fired).
    pub rule: FenceRule,
    /// Outcome.
    pub fate: FenceFate,
    /// Block of the motivating access.
    pub block: u32,
    /// Position of the motivating access within its block at decision time.
    pub pos: u32,
}

/// One merge step performed by [`merge_fences`]: `removed` was
/// folded into `kept`, whose kind became `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FenceMerge {
    /// The fence instruction removed.
    pub removed: InstId,
    /// The surviving fence instruction.
    pub kept: InstId,
    /// The merged (possibly strengthened) kind of the survivor.
    pub kind: FenceKind,
}

/// Explores the use–def chain of a pointer operand, ignoring `bitcast` and
/// `getelementptr` (§8), looking for a stack allocation.
pub fn is_stack_address(f: &Function, ptr: &Operand) -> bool {
    let mut cur = *ptr;
    for _ in 0..128 {
        match cur {
            Operand::Inst(id) => match &f.inst(id).kind {
                InstKind::Alloca { .. } => return true,
                InstKind::Cast {
                    op: CastOp::BitCast,
                    val,
                } => cur = *val,
                InstKind::Gep { base, .. } => cur = *base,
                _ => return false,
            },
            _ => return false,
        }
    }
    false
}

/// The Figure 8a rule a memory instruction falls under, if any, and
/// whether `strategy` elides its fence as stack-private. This is the one
/// load/store classification [`place_fences`] and [`placement_stats`]
/// share.
fn classify(f: &Function, kind: &InstKind, strategy: Strategy) -> Option<(FenceRule, bool)> {
    let (rule, ptr) = match kind {
        InstKind::Load {
            ptr,
            order: Ordering::NotAtomic,
        } => (FenceRule::SharedLoad, ptr),
        InstKind::Store {
            ptr,
            order: Ordering::NotAtomic,
            ..
        } => (FenceRule::SharedStore, ptr),
        _ => return None,
    };
    Some((
        rule,
        strategy == Strategy::StackAware && is_stack_address(f, ptr),
    ))
}

/// The stats [`place_fences`] would return for `f`, from a read-only
/// walk. The Figure 14 baseline counts the fences lifted code would
/// receive this way instead of fencing a copy of it.
pub fn placement_stats(f: &Function, strategy: Strategy) -> PlacementStats {
    let mut stats = PlacementStats::default();
    for (_, id) in f.iter_insts() {
        match classify(f, &f.inst(id).kind, strategy) {
            Some((_, true)) => stats.skipped_stack += 1,
            Some((FenceRule::SharedLoad, false)) => stats.frm += 1,
            Some((FenceRule::SharedStore, false)) => stats.fww += 1,
            None => {}
        }
    }
    stats
}

/// Inserts fences into one function per the Figure 8a mapping. Each fence
/// decision (placed or elided) is appended to `out` when a provenance sink
/// is given, which changes neither the module nor the stats.
///
/// Each block's instruction list is rebuilt once, fences included; a
/// decision's `pos` is the access's index in that fenced list.
pub fn place_fences(
    f: &mut Function,
    strategy: Strategy,
    mut out: Option<&mut Vec<FenceDecision>>,
) -> PlacementStats {
    let mut stats = PlacementStats::default();
    for b in 0..f.blocks.len() {
        let old = std::mem::take(&mut f.blocks[b].insts);
        let mut fenced = Vec::with_capacity(old.len());
        for &id in &old {
            let Some((rule, elided)) = classify(f, &f.inst(id).kind, strategy) else {
                fenced.push(id);
                continue;
            };
            let pos = fenced.len() as u32;
            let fence = if elided {
                stats.skipped_stack += 1;
                fenced.push(id);
                None
            } else {
                let fence = InstId(f.insts.len() as u32);
                f.insts.push(Inst {
                    ty: Ty::Void,
                    kind: InstKind::Fence { kind: rule.kind() },
                });
                // Frm trails the load; Fww leads the store.
                match rule {
                    FenceRule::SharedLoad => {
                        stats.frm += 1;
                        fenced.extend([id, fence]);
                    }
                    FenceRule::SharedStore => {
                        stats.fww += 1;
                        fenced.extend([fence, id]);
                    }
                }
                Some(fence)
            };
            if let Some(out) = out.as_deref_mut() {
                out.push(FenceDecision {
                    access: id,
                    fence,
                    rule,
                    fate: if elided {
                        FenceFate::ElidedStack
                    } else {
                        FenceFate::Placed
                    },
                    block: b as u32,
                    pos,
                });
            }
        }
        f.blocks[b].insts = fenced;
    }
    stats
}

/// Places fences across a whole module.
///
/// [`place_fences`] is strictly function-local (the §8 stack analysis
/// walks use–def chains within one function only), so the pipeline driver
/// may fence distinct functions concurrently; this serial form and any
/// parallel schedule produce identical modules.
pub fn place_fences_module(m: &mut Module, strategy: Strategy) -> PlacementStats {
    let mut total = PlacementStats::default();
    for f in &mut m.funcs {
        total += place_fences(f, strategy, None);
    }
    total
}

/// Merges fence pairs within basic blocks (§8 step 2): two fences with no
/// intervening instruction that may access memory merge into one, possibly
/// strengthened (`Frm·Fww → Fsc`, §7.2). Returns fences removed. Each merge
/// step is appended to `out` when a provenance sink is given.
///
/// One left-to-right pass per block: the later fence of a pair survives
/// (it covers both originals) with the merged kind and can absorb the
/// next fence in turn; the merged-away fences leave the block in one
/// retain at its end.
pub fn merge_fences(f: &mut Function, mut out: Option<&mut Vec<FenceMerge>>) -> usize {
    let mut removed = 0;
    let mut dropped: Vec<bool> = Vec::new();
    for b in 0..f.blocks.len() {
        // The last fence since the last memory access: position, id, kind.
        let mut prev: Option<(usize, InstId, FenceKind)> = None;
        let mut any = false;
        for pos in 0..f.blocks[b].insts.len() {
            let id = f.blocks[b].insts[pos];
            match f.inst(id).kind {
                InstKind::Fence { kind } => {
                    let Some((ppos, pid, pkind)) = prev else {
                        prev = Some((pos, id, kind));
                        continue;
                    };
                    let kind = merge_fence(pkind, kind);
                    f.inst_mut(id).kind = InstKind::Fence { kind };
                    if !any {
                        dropped.clear();
                        dropped.resize(f.blocks[b].insts.len(), false);
                        any = true;
                    }
                    dropped[ppos] = true;
                    prev = Some((pos, id, kind));
                    removed += 1;
                    if let Some(out) = out.as_deref_mut() {
                        out.push(FenceMerge {
                            removed: pid,
                            kept: id,
                            kind,
                        });
                    }
                }
                ref k if k.touches_memory() => prev = None,
                _ => {}
            }
        }
        if any {
            let mut pos = 0;
            f.blocks[b].insts.retain(|_| {
                pos += 1;
                !dropped[pos - 1]
            });
        }
    }
    removed
}

/// Merges fences across a whole module. Returns fences removed.
pub fn merge_fences_module(m: &mut Module) -> usize {
    m.funcs.iter_mut().map(|f| merge_fences(f, None)).sum()
}

/// Counts fences per kind in one function: `(Frm, Fww, Fsc)`.
///
/// The module census [`count_fences`] is the per-function sum, so a
/// fused per-function schedule can take this count inside each work item
/// and fold the totals at its join.
pub fn count_fences_fn(f: &Function) -> (usize, usize, usize) {
    let mut c = (0, 0, 0);
    for (_, id) in f.iter_insts() {
        match f.inst(id).kind {
            InstKind::Fence {
                kind: FenceKind::Frm,
            } => c.0 += 1,
            InstKind::Fence {
                kind: FenceKind::Fww,
            } => c.1 += 1,
            InstKind::Fence {
                kind: FenceKind::Fsc,
            } => c.2 += 1,
            _ => {}
        }
    }
    c
}

/// Counts fences per kind in a module: `(Frm, Fww, Fsc)`.
pub fn count_fences(m: &Module) -> (usize, usize, usize) {
    let mut c = (0, 0, 0);
    for f in &m.funcs {
        let (frm, fww, fsc) = count_fences_fn(f);
        c.0 += frm;
        c.1 += fww;
        c.2 += fsc;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::inst::{InstKind, Operand, Terminator};
    use lasagne_lir::types::{Pointee, Ty};

    /// load p; store p — shared accesses get Frm after and Fww before.
    #[test]
    fn naive_placement_follows_figure_8a() {
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
        let e = f.entry();
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
                val: Operand::Inst(l),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );

        let stats = place_fences(&mut f, Strategy::Naive, None);
        assert_eq!(stats.frm, 1);
        assert_eq!(stats.fww, 1);

        // Layout: load, Frm, Fww, store.
        let kinds: Vec<_> = f
            .block(e)
            .insts
            .iter()
            .map(|i| f.inst(*i).kind.clone())
            .collect();
        assert!(matches!(kinds[0], InstKind::Load { .. }));
        assert!(matches!(
            kinds[1],
            InstKind::Fence {
                kind: FenceKind::Frm
            }
        ));
        assert!(matches!(
            kinds[2],
            InstKind::Fence {
                kind: FenceKind::Fww
            }
        ));
        assert!(matches!(kinds[3], InstKind::Store { .. }));
    }

    #[test]
    fn stack_accesses_skipped() {
        let mut f = Function::new("f", vec![], Ty::I64);
        let e = f.entry();
        let a = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 64 });
        let g = f.push(
            e,
            Ty::Ptr(Pointee::I8),
            InstKind::Gep {
                base: Operand::Inst(a),
                offset: Operand::i64(8),
                elem_size: 1,
            },
        );
        let p = f.push(
            e,
            Ty::Ptr(Pointee::I64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(g),
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(p),
                val: Operand::i64(1),
                order: Ordering::NotAtomic,
            },
        );
        let l = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(p),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );

        let stats = place_fences(&mut f, Strategy::StackAware, None);
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.skipped_stack, 2);

        // Naive still fences them.
        let mut f2 = f.clone();
        let naive = place_fences(&mut f2, Strategy::Naive, None);
        // f already has no fences (the first call inserted none).
        assert_eq!(naive.total(), 2);
    }

    #[test]
    fn inttoptr_chain_is_not_stack_rooted() {
        // Pre-refinement shape: alloca → ptrtoint → add → inttoptr.
        let mut f = Function::new("f", vec![], Ty::Void);
        let e = f.entry();
        let a = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 64 });
        let i = f.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: CastOp::PtrToInt,
                val: Operand::Inst(a),
            },
        );
        let o = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: lasagne_lir::inst::BinOp::Add,
                lhs: Operand::Inst(i),
                rhs: Operand::i64(8),
            },
        );
        let p = f.push(
            e,
            Ty::Ptr(Pointee::I64),
            InstKind::Cast {
                op: CastOp::IntToPtr,
                val: Operand::Inst(o),
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(p),
                val: Operand::i64(1),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });

        assert!(!is_stack_address(&f, &Operand::Inst(p)));
        let stats = place_fences(&mut f, Strategy::StackAware, None);
        assert_eq!(
            stats.fww, 1,
            "unrefined stack access is conservatively fenced"
        );
    }

    #[test]
    fn merging_strengthens_adjacent_pair() {
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
        let e = f.entry();
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
                val: Operand::Inst(l),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        place_fences(&mut f, Strategy::Naive, None);
        // load, Frm, Fww, store → load, Fsc, store
        let removed = merge_fences(&mut f, None);
        assert_eq!(removed, 1);
        let kinds: Vec<_> = f
            .block(e)
            .insts
            .iter()
            .map(|i| f.inst(*i).kind.clone())
            .collect();
        assert_eq!(kinds.len(), 3);
        assert!(matches!(
            kinds[1],
            InstKind::Fence {
                kind: FenceKind::Fsc
            }
        ));
    }

    #[test]
    fn merging_blocked_by_memory_access() {
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::Void);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Frm,
            },
        );
        f.push(
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
                kind: FenceKind::Fww,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        assert_eq!(merge_fences(&mut f, None), 0);
        assert_eq!(f.block(e).insts.len(), 3);
    }

    #[test]
    fn atomics_receive_no_extra_fences() {
        // RMWsc is already sequentially consistent (Figure 8a maps x86 RMWs
        // to RMWsc with no added IR fences); placement must leave atomic
        // operations alone.
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
        let e = f.entry();
        let old = f.push(
            e,
            Ty::I64,
            InstKind::AtomicRmw {
                op: lasagne_lir::inst::RmwOp::Add,
                ptr: Operand::Param(0),
                val: Operand::i64(1),
            },
        );
        f.push(
            e,
            Ty::I64,
            InstKind::CmpXchg {
                ptr: Operand::Param(0),
                expected: Operand::Inst(old),
                new: Operand::i64(9),
            },
        );
        let l = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::SeqCst,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        let stats = place_fences(&mut f, Strategy::Naive, None);
        assert_eq!(stats.total(), 0, "atomic accesses must not be fenced");
    }

    #[test]
    fn stack_analysis_depth_limit_is_safe() {
        // A pathological 200-deep gep chain: the analysis gives up (bounded
        // walk) and conservatively fences — never loops forever.
        let mut f = Function::new("f", vec![], Ty::Void);
        let e = f.entry();
        let a = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 8 });
        let mut cur = Operand::Inst(a);
        for _ in 0..200 {
            let g = f.push(
                e,
                Ty::Ptr(Pointee::I8),
                InstKind::Gep {
                    base: cur,
                    offset: Operand::i64(0),
                    elem_size: 1,
                },
            );
            cur = Operand::Inst(g);
        }
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: cur,
                val: Operand::i64(1),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        let stats = place_fences(&mut f, Strategy::StackAware, None);
        // Deep chain exceeds the walk bound → conservatively fenced.
        assert_eq!(stats.fww, 1);
    }

    /// A provenance sink must not change the module or the stats; it
    /// records a decision per access.
    #[test]
    fn provenance_sink_leaves_output_unchanged_and_records_decisions() {
        let build = || {
            let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
            let e = f.entry();
            let a = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
            f.push(
                e,
                Ty::Void,
                InstKind::Store {
                    ptr: Operand::Inst(a),
                    val: Operand::i64(0),
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
                    val: Operand::Inst(l),
                    order: Ordering::NotAtomic,
                },
            );
            f.set_term(
                e,
                Terminator::Ret {
                    val: Some(Operand::Inst(l)),
                },
            );
            f
        };

        let mut plain = build();
        let plain_stats = place_fences(&mut plain, Strategy::StackAware, None);
        let plain_removed = merge_fences(&mut plain, None);

        let mut traced = build();
        let mut decisions = Vec::new();
        let mut merges = Vec::new();
        let stats = place_fences(&mut traced, Strategy::StackAware, Some(&mut decisions));
        let removed = merge_fences(&mut traced, Some(&mut merges));

        assert_eq!(
            traced, plain,
            "provenance collection must not change the module"
        );
        assert_eq!(stats, plain_stats);
        assert_eq!(removed, plain_removed);

        // One decision per non-atomic access: elided alloca store, placed
        // load Frm, placed store Fww.
        assert_eq!(decisions.len(), 3);
        let placed = decisions
            .iter()
            .filter(|d| d.fate == FenceFate::Placed)
            .count();
        let elided = decisions
            .iter()
            .filter(|d| d.fate == FenceFate::ElidedStack)
            .count();
        assert_eq!((placed, elided), (stats.total(), stats.skipped_stack));
        assert!(decisions
            .iter()
            .all(|d| (d.fence.is_some()) == (d.fate == FenceFate::Placed)));

        // Frm·Fww between load and store merged into Fsc; the removed
        // fence id is one of the placed ids.
        assert_eq!(merges.len(), removed);
        assert_eq!(merges[0].kind, FenceKind::Fsc);
        let placed_ids: Vec<_> = decisions.iter().filter_map(|d| d.fence).collect();
        assert!(placed_ids.contains(&merges[0].removed));
        assert!(placed_ids.contains(&merges[0].kept));
    }

    #[test]
    fn merging_same_kind_dedups() {
        let mut f = Function::new("f", vec![], Ty::Void);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Fww,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Fww,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Fww,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        assert_eq!(merge_fences(&mut f, None), 2);
        let (_, fww, fsc) = {
            let mut m = Module::new();
            m.add_func(f);
            count_fences(&m)
        };
        assert_eq!(fww, 1);
        assert_eq!(fsc, 0);
    }

    /// The original placement: one `Function::insert` per fence, walking
    /// each block by index as it grows.
    fn place_fences_reference(f: &mut Function, strategy: Strategy) -> Vec<FenceDecision> {
        let mut out = Vec::new();
        for b in f.block_ids().collect::<Vec<_>>() {
            let mut i = 0usize;
            while i < f.block(b).insts.len() {
                let id = f.block(b).insts[i];
                let (rule, ptr, at) = match f.inst(id).kind.clone() {
                    InstKind::Load {
                        ptr,
                        order: Ordering::NotAtomic,
                    } => (FenceRule::SharedLoad, ptr, i + 1),
                    InstKind::Store {
                        ptr,
                        order: Ordering::NotAtomic,
                        ..
                    } => (FenceRule::SharedStore, ptr, i),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let mut d = FenceDecision {
                    access: id,
                    fence: None,
                    rule,
                    fate: FenceFate::ElidedStack,
                    block: b.0,
                    pos: i as u32,
                };
                if !(strategy == Strategy::StackAware && is_stack_address(f, &ptr)) {
                    let kind = rule.kind();
                    d.fence = Some(f.insert(b, at, Ty::Void, InstKind::Fence { kind }));
                    d.fate = FenceFate::Placed;
                    i += 1;
                }
                out.push(d);
                i += 1;
            }
        }
        out
    }

    /// The original merging: after every merge, clone the block and rescan
    /// it from the start for the first mergeable pair.
    fn merge_fences_reference(f: &mut Function) -> Vec<FenceMerge> {
        let mut out = Vec::new();
        for b in f.block_ids().collect::<Vec<_>>() {
            loop {
                let insts = f.block(b).insts.clone();
                let mut prev_fence: Option<(usize, FenceKind)> = None;
                let mut merged: Option<(usize, usize, FenceKind)> = None;
                for (pos, id) in insts.iter().enumerate() {
                    match &f.inst(*id).kind {
                        InstKind::Fence { kind } => {
                            if let Some((ppos, pkind)) = prev_fence {
                                merged = Some((ppos, pos, merge_fence(pkind, *kind)));
                                break;
                            }
                            prev_fence = Some((pos, *kind));
                        }
                        k if k.touches_memory() => prev_fence = None,
                        _ => {}
                    }
                }
                let Some((first, second, kind)) = merged else {
                    break;
                };
                let kept = f.block(b).insts[second];
                let removed = f.block(b).insts[first];
                f.inst_mut(kept).kind = InstKind::Fence { kind };
                f.block_mut(b).insts.remove(first);
                out.push(FenceMerge {
                    removed,
                    kept,
                    kind,
                });
            }
        }
        out
    }

    /// Random blocks of shared and stack-rooted loads and stores, fences
    /// of every kind, atomics, calls and pure arithmetic: single-pass
    /// placement and merging produce the same function, the same decisions
    /// (fence ids and positions included) and the same merge records as
    /// the original algorithms, and the read-only count matches placement.
    #[test]
    fn single_pass_placement_and_merging_match_reference_algorithms() {
        use lasagne_lir::inst::{BinOp, Callee, RmwOp, Terminator};
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        let (mut decided, mut merged) = (0, 0);
        for round in 0..300 {
            let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::Void);
            let nblocks = 1 + next(3) as usize;
            for _ in 1..nblocks {
                f.add_block();
            }
            let slot = f.push(
                f.entry(),
                Ty::Ptr(Pointee::I64),
                InstKind::Alloca { size: 64 },
            );
            for b in 0..nblocks {
                let b = lasagne_lir::BlockId(b as u32);
                for _ in 0..next(24) {
                    let ptr = if next(3) == 0 {
                        Operand::Inst(slot)
                    } else {
                        Operand::Param(0)
                    };
                    let order = if next(8) == 0 {
                        Ordering::SeqCst
                    } else {
                        Ordering::NotAtomic
                    };
                    let kind = [FenceKind::Frm, FenceKind::Fww, FenceKind::Fsc][next(3) as usize];
                    let (ty, inst) = match next(7) {
                        0 | 1 => (Ty::I64, InstKind::Load { ptr, order }),
                        2 | 3 => (
                            Ty::Void,
                            InstKind::Store {
                                ptr,
                                val: Operand::i64(1),
                                order,
                            },
                        ),
                        4 => (Ty::Void, InstKind::Fence { kind }),
                        5 => (
                            Ty::I64,
                            InstKind::Bin {
                                op: BinOp::Add,
                                lhs: Operand::i64(1),
                                rhs: Operand::i64(2),
                            },
                        ),
                        _ if next(2) == 0 => (
                            Ty::I64,
                            InstKind::AtomicRmw {
                                op: RmwOp::Add,
                                ptr,
                                val: Operand::i64(1),
                            },
                        ),
                        _ => (
                            Ty::Void,
                            InstKind::Call {
                                callee: Callee::Indirect(Operand::Param(0)),
                                args: vec![],
                            },
                        ),
                    };
                    f.push(b, ty, inst);
                }
                f.set_term(b, Terminator::Ret { val: None });
            }
            for strategy in [Strategy::Naive, Strategy::StackAware] {
                let mut want = f.clone();
                let want_decisions = place_fences_reference(&mut want, strategy);
                let want_merges = merge_fences_reference(&mut want);

                let mut got = f.clone();
                let mut decisions = Vec::new();
                let stats = place_fences(&mut got, strategy, Some(&mut decisions));
                assert_eq!(decisions, want_decisions, "round {round}");
                assert_eq!(placement_stats(&f, strategy), stats, "round {round}");
                let mut merges = Vec::new();
                let removed = merge_fences(&mut got, Some(&mut merges));
                assert_eq!(merges, want_merges, "round {round}");
                assert_eq!(removed, merges.len());
                assert_eq!(got, want, "round {round}");
                decided += decisions.len();
                merged += merges.len();
            }
        }
        assert!(decided > 1000 && merged > 100, "{decided} {merged}");
    }
}
