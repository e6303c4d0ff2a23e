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
use lasagne_lir::inst::{CastOp, FenceKind, InstId, InstKind, Operand, Ordering};
use lasagne_lir::types::Ty;
use lasagne_trace::{ArgVal, TraceCtx};

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

/// Inserts fences into one function per the Figure 8a mapping. Each fence
/// decision (placed or elided) is mirrored into `ctx` as a counter plus,
/// when tracing is enabled, a `fence-decision` instant event, and is
/// appended to `out` when a provenance sink is given. Neither changes the
/// module or the stats.
pub fn place_fences(
    f: &mut Function,
    strategy: Strategy,
    ctx: &TraceCtx,
    mut out: Option<&mut Vec<FenceDecision>>,
) -> PlacementStats {
    let mut stats = PlacementStats::default();
    let mut decide = |f: &mut Function, stats: &mut PlacementStats, decision: FenceDecision| {
        match decision.fate {
            FenceFate::Placed => match decision.rule.kind() {
                FenceKind::Frm => {
                    stats.frm += 1;
                    ctx.add("fences.placed.frm", 1);
                }
                _ => {
                    stats.fww += 1;
                    ctx.add("fences.placed.fww", 1);
                }
            },
            FenceFate::ElidedStack => {
                stats.skipped_stack += 1;
                ctx.add("fences.elided.stack", 1);
            }
            FenceFate::Merged => unreachable!("merging is a later phase"),
        }
        if ctx.is_enabled() {
            ctx.instant(
                "fences",
                "fence-decision",
                vec![
                    ("func", ArgVal::from(f.name.as_str())),
                    ("rule", ArgVal::from(decision.rule.name())),
                    ("fate", ArgVal::from(decision.fate.name())),
                    ("block", ArgVal::from(decision.block as u64)),
                    ("pos", ArgVal::from(decision.pos as u64)),
                ],
            );
        }
        if let Some(out) = out.as_deref_mut() {
            out.push(decision);
        }
    };
    for b in f.block_ids().collect::<Vec<_>>() {
        // Walk by index since we insert as we go.
        let mut i = 0usize;
        while i < f.block(b).insts.len() {
            let id = f.block(b).insts[i];
            let site = (b.0, i as u32);
            match f.inst(id).kind.clone() {
                InstKind::Load {
                    ptr,
                    order: Ordering::NotAtomic,
                } => {
                    if strategy == Strategy::StackAware && is_stack_address(f, &ptr) {
                        decide(
                            f,
                            &mut stats,
                            FenceDecision {
                                access: id,
                                fence: None,
                                rule: FenceRule::SharedLoad,
                                fate: FenceFate::ElidedStack,
                                block: site.0,
                                pos: site.1,
                            },
                        );
                    } else {
                        let fence = f.insert(
                            b,
                            i + 1,
                            Ty::Void,
                            InstKind::Fence {
                                kind: FenceKind::Frm,
                            },
                        );
                        decide(
                            f,
                            &mut stats,
                            FenceDecision {
                                access: id,
                                fence: Some(fence),
                                rule: FenceRule::SharedLoad,
                                fate: FenceFate::Placed,
                                block: site.0,
                                pos: site.1,
                            },
                        );
                        i += 1;
                    }
                }
                InstKind::Store {
                    ptr,
                    order: Ordering::NotAtomic,
                    ..
                } => {
                    if strategy == Strategy::StackAware && is_stack_address(f, &ptr) {
                        decide(
                            f,
                            &mut stats,
                            FenceDecision {
                                access: id,
                                fence: None,
                                rule: FenceRule::SharedStore,
                                fate: FenceFate::ElidedStack,
                                block: site.0,
                                pos: site.1,
                            },
                        );
                    } else {
                        let fence = f.insert(
                            b,
                            i,
                            Ty::Void,
                            InstKind::Fence {
                                kind: FenceKind::Fww,
                            },
                        );
                        decide(
                            f,
                            &mut stats,
                            FenceDecision {
                                access: id,
                                fence: Some(fence),
                                rule: FenceRule::SharedStore,
                                fate: FenceFate::Placed,
                                block: site.0,
                                pos: site.1,
                            },
                        );
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
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
        total += place_fences(f, strategy, &TraceCtx::disabled(), None);
    }
    total
}

/// Merges fence pairs within basic blocks (§8 step 2): two fences with no
/// intervening instruction that may access memory merge into one, possibly
/// strengthened (`Frm·Fww → Fsc`, §7.2). Returns fences removed. Each merge
/// step is mirrored into `ctx` as the `fences.merged` counter plus, when
/// tracing is enabled, a `fence-merge` instant event, and is appended to
/// `out` when a provenance sink is given.
pub fn merge_fences(
    f: &mut Function,
    ctx: &TraceCtx,
    mut out: Option<&mut Vec<FenceMerge>>,
) -> usize {
    let mut removed = 0;
    for b in f.block_ids().collect::<Vec<_>>() {
        loop {
            let insts = f.block(b).insts.clone();
            let mut prev_fence: Option<(usize, InstId, FenceKind)> = None;
            let mut merged: Option<(usize, usize, FenceKind)> = None;
            for (pos, id) in insts.iter().enumerate() {
                match &f.inst(*id).kind {
                    InstKind::Fence { kind } => {
                        if let Some((ppos, _, pkind)) = prev_fence {
                            merged = Some((ppos, pos, merge_fence(pkind, *kind)));
                            break;
                        }
                        prev_fence = Some((pos, *id, *kind));
                    }
                    k if k.touches_memory() => prev_fence = None,
                    _ => {}
                }
            }
            match merged {
                Some((first, second, kind)) => {
                    // Keep the later fence position (covers both originals),
                    // with the merged strength; drop the earlier one.
                    let keep = f.block(b).insts[second];
                    let dropped = f.block(b).insts[first];
                    f.inst_mut(keep).kind = InstKind::Fence { kind };
                    f.block_mut(b).insts.remove(first);
                    removed += 1;
                    ctx.add("fences.merged", 1);
                    if ctx.is_enabled() {
                        ctx.instant(
                            "fences",
                            "fence-merge",
                            vec![
                                ("func", ArgVal::from(f.name.as_str())),
                                ("block", ArgVal::from(b.0 as u64)),
                                ("removed", ArgVal::from(dropped.0 as u64)),
                                ("kept", ArgVal::from(keep.0 as u64)),
                            ],
                        );
                    }
                    if let Some(out) = out.as_deref_mut() {
                        out.push(FenceMerge {
                            removed: dropped,
                            kept: keep,
                            kind,
                        });
                    }
                }
                None => break,
            }
        }
    }
    removed
}

/// Merges fences across a whole module. Returns fences removed.
pub fn merge_fences_module(m: &mut Module) -> usize {
    m.funcs
        .iter_mut()
        .map(|f| merge_fences(f, &TraceCtx::disabled(), None))
        .sum()
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

        let stats = place_fences(&mut f, Strategy::Naive, &TraceCtx::disabled(), None);
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

        let stats = place_fences(&mut f, Strategy::StackAware, &TraceCtx::disabled(), None);
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.skipped_stack, 2);

        // Naive still fences them.
        let mut f2 = f.clone();
        let naive = place_fences(&mut f2, Strategy::Naive, &TraceCtx::disabled(), None);
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
        let stats = place_fences(&mut f, Strategy::StackAware, &TraceCtx::disabled(), None);
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
        place_fences(&mut f, Strategy::Naive, &TraceCtx::disabled(), None);
        // load, Frm, Fww, store → load, Fsc, store
        let removed = merge_fences(&mut f, &TraceCtx::disabled(), None);
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
        assert_eq!(merge_fences(&mut f, &TraceCtx::disabled(), None), 0);
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
        let stats = place_fences(&mut f, Strategy::Naive, &TraceCtx::disabled(), None);
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
        let stats = place_fences(&mut f, Strategy::StackAware, &TraceCtx::disabled(), None);
        // Deep chain exceeds the walk bound → conservatively fenced.
        assert_eq!(stats.fww, 1);
    }

    /// A collecting context and a provenance sink must not change the
    /// module or the stats; they record a decision per access and
    /// counters mirroring the stats.
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
        let plain_stats = place_fences(
            &mut plain,
            Strategy::StackAware,
            &TraceCtx::disabled(),
            None,
        );
        let plain_removed = merge_fences(&mut plain, &TraceCtx::disabled(), None);

        let mut traced = build();
        let ctx = TraceCtx::collecting();
        let mut decisions = Vec::new();
        let mut merges = Vec::new();
        let stats = place_fences(
            &mut traced,
            Strategy::StackAware,
            &ctx,
            Some(&mut decisions),
        );
        let removed = merge_fences(&mut traced, &ctx, Some(&mut merges));

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

        let snap = ctx.metrics_snapshot().unwrap();
        assert_eq!(snap.counter("fences.placed.frm"), stats.frm as u64);
        assert_eq!(snap.counter("fences.placed.fww"), stats.fww as u64);
        assert_eq!(
            snap.counter("fences.elided.stack"),
            stats.skipped_stack as u64
        );
        assert_eq!(snap.counter("fences.merged"), removed as u64);
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
        assert_eq!(merge_fences(&mut f, &TraceCtx::disabled(), None), 2);
        let (_, fww, fsc) = {
            let mut m = Module::new();
            m.add_func(f);
            count_fences(&m)
        };
        assert_eq!(fww, 1);
        assert_eq!(fsc, 0);
    }
}
