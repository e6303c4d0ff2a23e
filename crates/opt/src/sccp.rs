//! Conditional constant propagation (`sccp`) and its interprocedural
//! extension (`ipsccp`), plus unreachable-block cleanup.

use crate::fold::{const_int, fold_bin, fold_cast, fold_icmp};
use crate::sched::PassEffect;
use lasagne_lir::analysis::Analyses;
use lasagne_lir::func::{Function, Module};
use lasagne_lir::inst::{Callee, InstKind, Operand, Terminator};
use lasagne_lir::Subst;

/// Folds constants (and constant conditions into unconditional branches)
/// and removes unreachable blocks, fixing φ-nodes — constant propagation
/// only, unlike `instcombine`, which also rewrites algebraic identities.
///
/// Reports a full [`PassEffect`] against the analysis cache `an`. The
/// effect flags are the scheduler's ground truth, so they cover mutations
/// the change count never did: the unreachable-block cleanup rewrites
/// terminators to `Unreachable` and prunes φ-incomings even on iterations
/// whose reported count is zero. As the only pass that changes control
/// flow, it notes its own cache invalidations.
pub fn sccp(m: &Module, f: &mut Function, an: &mut Analyses) -> PassEffect {
    let mut eff = PassEffect::clean();
    loop {
        let folds = const_fold(m, f);
        if folds > 0 {
            eff.changed_insts = true;
            an.note_insts_changed();
        }
        // Fold constant conditional branches.
        let mut br = 0;
        for b in f.block_ids().collect::<Vec<_>>() {
            if let Terminator::CondBr {
                cond,
                if_true,
                if_false,
            } = f.block(b).term.clone()
            {
                if let Some((_, c)) = const_int(&cond) {
                    let dest = if c & 1 != 0 { if_true } else { if_false };
                    f.set_term(b, Terminator::Br { dest });
                    br += 1;
                } else if if_true == if_false {
                    f.set_term(b, Terminator::Br { dest: if_true });
                    br += 1;
                }
            }
        }
        if br > 0 {
            eff.changed_cfg = true;
            an.note_cfg_changed();
        }
        let (dropped, pruned) = remove_unreachable(f, an);
        if pruned {
            // Terminators were rewritten to Unreachable and φ-incomings
            // pruned — possibly with `dropped == 0` (already-empty dead
            // blocks). The cache note happens inside `remove_unreachable`.
            eff.changed_insts = true;
            eff.changed_cfg = true;
        }
        eff.changes += folds + br + dropped;
        if folds + br + dropped == 0 {
            return eff;
        }
    }
}

/// Constant-folds instructions whose operands are all constants, deleting
/// the folded instruction. Returns the number of folds.
fn const_fold(m: &Module, f: &mut Function) -> usize {
    let mut changed = 0;
    let mut subst = Subst::new();
    let mut dead = vec![false; f.insts.len()];
    let ids: Vec<lasagne_lir::InstId> = f.iter_insts().map(|(_, id)| id).collect();
    for id in ids {
        subst.resolve_operands(&mut f.inst_mut(id).kind);
        let inst = f.inst(id);
        let ty = inst.ty;
        let rep = match &inst.kind {
            InstKind::Bin { op, lhs, rhs } => match (const_int(lhs), const_int(rhs)) {
                (Some((_, a)), Some((_, b))) => {
                    fold_bin(*op, ty, a, b).map(|v| Operand::ConstInt { ty, val: v })
                }
                _ => None,
            },
            InstKind::ICmp { pred, lhs, rhs } => match (const_int(lhs), const_int(rhs)) {
                (Some((t, a)), Some((_, b))) => Some(Operand::bool(fold_icmp(*pred, t, a, b))),
                _ => None,
            },
            InstKind::Cast { op, val } => {
                let from = m.operand_ty(f, val);
                const_int(val).and_then(|(_, v)| fold_cast(*op, from, ty, v))
            }
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => const_int(cond).map(|(_, c)| if c & 1 != 0 { *if_true } else { *if_false }),
            _ => None,
        };
        if let Some(rep) = rep {
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
    }
    changed
}

/// Deletes blocks unreachable from the entry, pruning φ-incomings that
/// reference them, and notes a CFG change in `an` if it touched anything.
/// Returns `(instructions dropped, any mutation)` — the second component
/// is true whenever the function was touched at all, which the dropped
/// count alone does not capture (emptying an already-empty dead block
/// still rewrites its terminator and triggers φ pruning).
pub fn remove_unreachable(f: &mut Function, an: &mut Analyses) -> (usize, bool) {
    // Reachability snapshot from the (fresh-or-cached) CFG; like the
    // original single-shot computation, the snapshot deliberately predates
    // this call's own mutations.
    let reach: Vec<bool> = {
        let cfg = an.cfg(f);
        (0..f.blocks.len())
            .map(|b| cfg.reachable(lasagne_lir::BlockId(b as u32)))
            .collect()
    };
    let mut dropped = 0;
    let mut any = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        if !reach[b.0 as usize] && !f.block(b).insts.is_empty() {
            dropped += f.block(b).insts.len();
            f.block_mut(b).insts.clear();
            f.set_term(b, Terminator::Unreachable);
            any = true;
        } else if !reach[b.0 as usize] && !matches!(f.block(b).term, Terminator::Unreachable) {
            f.set_term(b, Terminator::Unreachable);
            any = true;
        }
    }
    if any {
        // Prune φ inputs from now-unreachable predecessors.
        for bid in f.block_ids().collect::<Vec<_>>() {
            let ids = f.block(bid).insts.clone();
            for id in ids {
                if let InstKind::Phi { incoming } = &mut f.inst_mut(id).kind {
                    incoming.retain(|(p, _)| reach[p.0 as usize]);
                }
            }
        }
        lasagne_lir::ssa::prune_trivial_phis(f);
        an.note_cfg_changed();
    }
    (dropped, any)
}

/// One interprocedural constant-propagation decision: parameter `param` of
/// function `func` was unanimously passed `value` at every call site, so its
/// uses were replaced by `value` inside the callee.
///
/// These are the `ipsccp` lattice facts the translation cache folds into a
/// function's key — a cached entry must be invalidated when a fact it
/// consumed changes, and the facts derive from *other* functions' call
/// sites, not from the callee's own bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpsccpFact {
    /// Index of the function whose parameter was substituted.
    pub func: u32,
    /// Parameter index.
    pub param: u32,
    /// The unanimous constant.
    pub value: Operand,
}

/// Interprocedural SCCP: when every call site of a function passes the same
/// constant for a parameter, the parameter's uses are replaced by that
/// constant inside the callee. (`main`-like roots — functions with no call
/// sites — are left untouched.) Returns each function's substitution
/// count, indexed like `m.funcs`, so a caller can tell which bodies changed.
///
/// Every substitution decision is appended to `facts`. A decision is
/// logged even when the callee no longer uses the parameter (zero textual
/// substitutions): the decision itself depends on the other functions'
/// call sites, which is what cache invalidation needs to observe.
///
/// Structured as a superstep — a gather of per-function [`CallSummary`]
/// snapshots, a serial [`ipsccp_join`] that replays the lattice decisions
/// (including the intra-invocation cascade) over those frozen summaries,
/// and an [`apply_ipsccp_facts`] substitution phase that is independent
/// per function. The `lasagne::pipeline` pass manager runs the gather and
/// apply phases on its worker pool; this serial entry point runs the
/// identical phases inline and produces the identical module, facts, and
/// substitution counts.
pub fn ipsccp(m: &mut Module, facts: &mut Vec<IpsccpFact>) -> Vec<usize> {
    let mut summaries: Vec<CallSummary> = m.funcs.iter().map(summarize_calls).collect();
    let param_counts: Vec<usize> = m.funcs.iter().map(|f| f.params.len()).collect();
    let new = ipsccp_join(&param_counts, &mut summaries, facts);
    m.funcs
        .iter_mut()
        .enumerate()
        .map(|(target, f)| apply_ipsccp_facts(f, target as u32, &new))
        .collect()
}

/// Frozen snapshot of everything `ipsccp` reads from one function's body:
/// its direct call sites (callee plus the full argument vector, in
/// instruction order) and every [`Operand::Func`] reference it holds
/// (address-taken uses, including function-valued call arguments).
///
/// Summaries are the superstep's communication medium — the parallel gather
/// phase produces one per function against the frozen module, and the
/// serial join phase decides lattice facts from summaries alone, never
/// touching function bodies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallSummary {
    /// `(callee, args)` for every direct call, in instruction order.
    pub calls: Vec<(lasagne_lir::FuncId, Vec<Operand>)>,
    /// Functions whose address this function takes (one entry per use).
    pub func_refs: Vec<lasagne_lir::FuncId>,
}

/// Superstep gather phase: summarise one function's call sites and
/// address-taken function references. Reads only `f`; safe to run for all
/// functions concurrently.
pub fn summarize_calls(f: &Function) -> CallSummary {
    let mut s = CallSummary::default();
    for (_, id) in f.iter_insts() {
        let inst = f.inst(id);
        inst.kind.for_each_operand(|op| {
            if let Operand::Func(id) = op {
                s.func_refs.push(*id);
            }
        });
        if let InstKind::Call {
            callee: Callee::Func(c),
            args,
        } = &inst.kind
        {
            s.calls.push((*c, args.clone()));
        }
    }
    s
}

/// Superstep join phase (serial): replay the interprocedural lattice
/// decisions over the frozen summaries, in the same `(target, param)`
/// order the original single-threaded loop used. When a parameter is
/// decided, the target's *own* summary is rewritten in place
/// (`Param(pi)` → constant in its outgoing call arguments) so the
/// intra-invocation cascade — a substitution inside function *t* turning a
/// call argument of a later target constant — is reproduced exactly.
///
/// Newly decided facts are appended to `facts` and also returned, in
/// decision order, for the apply phase.
pub fn ipsccp_join(
    param_counts: &[usize],
    summaries: &mut [CallSummary],
    facts: &mut Vec<IpsccpFact>,
) -> Vec<IpsccpFact> {
    let mut new_facts = Vec::new();
    for (target, &nparams) in param_counts.iter().enumerate() {
        let target_id = lasagne_lir::FuncId(target as u32);
        for pi in 0..nparams {
            // Merge the argument at every direct call site; also require
            // the function's address is never taken (no Operand::Func use).
            let mut seen: Option<Operand> = None;
            let mut consistent = true;
            let mut any_call = false;
            let mut address_taken = false;
            for s in summaries.iter() {
                if s.func_refs.contains(&target_id) {
                    address_taken = true;
                }
                for (callee, args) in &s.calls {
                    if *callee == target_id {
                        any_call = true;
                        let a = args[pi];
                        if !matches!(
                            a,
                            Operand::ConstInt { .. } | Operand::ConstF32(_) | Operand::ConstF64(_)
                        ) {
                            consistent = false;
                        } else {
                            match seen {
                                None => seen = Some(a),
                                Some(s) if s == a => {}
                                _ => consistent = false,
                            }
                        }
                    }
                }
            }
            if !any_call || !consistent || address_taken {
                continue;
            }
            let Some(c) = seen else { continue };
            let fact = IpsccpFact {
                func: target as u32,
                param: pi as u32,
                value: c,
            };
            facts.push(fact);
            new_facts.push(fact);
            // Cascade: the body substitution (deferred to the apply phase)
            // would turn `Param(pi)` constant inside the target's own call
            // arguments, which can unblock decisions for later targets.
            // Reflect it in the summary now, where later iterations read.
            for (_, args) in &mut summaries[target].calls {
                for a in args.iter_mut() {
                    if *a == Operand::Param(pi as u32) {
                        *a = c;
                    }
                }
            }
        }
    }
    new_facts
}

/// Superstep apply phase: substitute the decided constants into one
/// function's body, counting textual replacements. `facts` is the full
/// decision list from [`ipsccp_join`]; only entries for `target` apply.
/// Touches only `f`, and substitutions for different functions never
/// interact (the substituted values are constants, never parameters), so
/// the apply phase is safe to run for all functions concurrently and
/// produces the same bodies and counts as interleaved serial substitution.
pub fn apply_ipsccp_facts(f: &mut Function, target: u32, facts: &[IpsccpFact]) -> usize {
    let mut subs = 0;
    for fact in facts.iter().filter(|fact| fact.func == target) {
        let c = fact.value;
        let pi = fact.param;
        for inst in &mut f.insts {
            inst.kind.for_each_operand_mut(|op| {
                if *op == Operand::Param(pi) {
                    *op = c;
                    subs += 1;
                }
            });
        }
        for b in 0..f.blocks.len() {
            f.blocks[b].term.for_each_operand_mut(|op| {
                if *op == Operand::Param(pi) {
                    *op = c;
                    subs += 1;
                }
            });
        }
    }
    subs
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::inst::{BinOp, IPred, InstKind, Operand, Terminator};
    use lasagne_lir::types::Ty;

    #[test]
    fn folds_constant_branch_and_removes_dead_block() {
        let mut m = Module::new();
        let mut f = Function::new("f", vec![], Ty::I64);
        let e = f.entry();
        let t = f.add_block();
        let el = f.add_block();
        let c = f.push(
            e,
            Ty::I1,
            InstKind::ICmp {
                pred: IPred::Eq,
                lhs: Operand::i64(1),
                rhs: Operand::i64(1),
            },
        );
        f.set_term(
            e,
            Terminator::CondBr {
                cond: Operand::Inst(c),
                if_true: t,
                if_false: el,
            },
        );
        f.set_term(
            t,
            Terminator::Ret {
                val: Some(Operand::i64(10)),
            },
        );
        let dead = f.push(
            el,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::i64(1),
                rhs: Operand::i64(2),
            },
        );
        f.set_term(
            el,
            Terminator::Ret {
                val: Some(Operand::Inst(dead)),
            },
        );
        m.add_func(f);

        let mut f = m.funcs.remove(0);
        assert!(sccp(&m, &mut f, &mut Analyses::new()).changes > 0);
        assert!(matches!(f.block(e).term, Terminator::Br { .. }));
        assert!(f.block(el).insts.is_empty(), "unreachable block emptied");
    }

    #[test]
    fn ipsccp_propagates_unanimous_constant() {
        let mut m = Module::new();
        let mut callee = Function::new("callee", vec![Ty::I64], Ty::I64);
        let e = callee.entry();
        let v = callee.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Operand::Param(0),
                rhs: Operand::i64(2),
            },
        );
        callee.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(v)),
            },
        );
        let callee_id = m.add_func(callee);

        let mut caller = Function::new("caller", vec![], Ty::I64);
        let e = caller.entry();
        let c1 = caller.push(
            e,
            Ty::I64,
            InstKind::Call {
                callee: Callee::Func(callee_id),
                args: vec![Operand::i64(21)],
            },
        );
        let c2 = caller.push(
            e,
            Ty::I64,
            InstKind::Call {
                callee: Callee::Func(callee_id),
                args: vec![Operand::i64(21)],
            },
        );
        let s = caller.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(c1),
                rhs: Operand::Inst(c2),
            },
        );
        caller.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(s)),
            },
        );
        m.add_func(caller);

        assert_eq!(ipsccp(&mut m, &mut Vec::new()), vec![1, 0]);
        // The callee's multiply now has a constant operand.
        let f = &m.funcs[0];
        let has_const = f.iter_insts().any(|(_, id)| {
            matches!(&f.inst(id).kind, InstKind::Bin { lhs, .. } if lhs.as_const_int() == Some(21))
        });
        assert!(has_const);
    }

    #[test]
    fn ipsccp_blocked_by_differing_args() {
        let mut m = Module::new();
        let mut callee = Function::new("callee", vec![Ty::I64], Ty::I64);
        let e = callee.entry();
        callee.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Param(0)),
            },
        );
        let callee_id = m.add_func(callee);

        let mut caller = Function::new("caller", vec![], Ty::I64);
        let e = caller.entry();
        caller.push(
            e,
            Ty::I64,
            InstKind::Call {
                callee: Callee::Func(callee_id),
                args: vec![Operand::i64(1)],
            },
        );
        let c2 = caller.push(
            e,
            Ty::I64,
            InstKind::Call {
                callee: Callee::Func(callee_id),
                args: vec![Operand::i64(2)],
            },
        );
        caller.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(c2)),
            },
        );
        m.add_func(caller);

        assert_eq!(ipsccp(&mut m, &mut Vec::new()), vec![0, 0]);
    }

    /// The original single-threaded `ipsccp` loop, kept verbatim as
    /// the oracle the superstep decomposition must match bit for bit.
    fn ipsccp_serial_reference(m: &mut Module, facts: &mut Vec<IpsccpFact>) -> usize {
        let mut changed = 0;
        let nfuncs = m.funcs.len();
        for target in 0..nfuncs {
            let target_id = lasagne_lir::FuncId(target as u32);
            let nparams = m.funcs[target].params.len();
            for pi in 0..nparams {
                let mut seen: Option<Operand> = None;
                let mut consistent = true;
                let mut any_call = false;
                let mut address_taken = false;
                for f in &m.funcs {
                    for (_, id) in f.iter_insts() {
                        let inst = f.inst(id);
                        inst.kind.for_each_operand(|op| {
                            if *op == Operand::Func(target_id) {
                                address_taken = true;
                            }
                        });
                        if let InstKind::Call {
                            callee: Callee::Func(c),
                            args,
                        } = &inst.kind
                        {
                            if *c == target_id {
                                any_call = true;
                                let a = args[pi];
                                if !matches!(
                                    a,
                                    Operand::ConstInt { .. }
                                        | Operand::ConstF32(_)
                                        | Operand::ConstF64(_)
                                ) {
                                    consistent = false;
                                } else {
                                    match seen {
                                        None => seen = Some(a),
                                        Some(s) if s == a => {}
                                        _ => consistent = false,
                                    }
                                }
                            }
                        }
                    }
                }
                if !any_call || !consistent || address_taken {
                    continue;
                }
                let Some(c) = seen else { continue };
                facts.push(IpsccpFact {
                    func: target as u32,
                    param: pi as u32,
                    value: c,
                });
                let f = &mut m.funcs[target];
                let mut subs = 0;
                for inst in &mut f.insts {
                    inst.kind.for_each_operand_mut(|op| {
                        if *op == Operand::Param(pi as u32) {
                            *op = c;
                            subs += 1;
                        }
                    });
                }
                for b in 0..f.blocks.len() {
                    f.blocks[b].term.for_each_operand_mut(|op| {
                        if *op == Operand::Param(pi as u32) {
                            *op = c;
                            subs += 1;
                        }
                    });
                }
                changed += subs;
            }
        }
        changed
    }

    /// A module with an intra-invocation cascade: `top` calls `mid(7)`,
    /// and `mid` forwards its own parameter as the argument to `leaf` —
    /// so the decision for `leaf` only becomes possible after the
    /// substitution into `mid` turns that forwarded argument constant.
    /// (`mid` and `leaf` are added before `top` so the cascade flows
    /// toward a *higher* function index, as the serial loop requires.)
    fn cascade_module() -> Module {
        let mut m = Module::new();
        let mut mid = Function::new("mid", vec![Ty::I64], Ty::I64);
        let e = mid.entry();
        // Placeholder callee id: leaf is added right after mid (index 1).
        let leaf_id = lasagne_lir::FuncId(1);
        let call = mid.push(
            e,
            Ty::I64,
            InstKind::Call {
                callee: Callee::Func(leaf_id),
                args: vec![Operand::Param(0)],
            },
        );
        mid.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(call)),
            },
        );
        let mid_id = m.add_func(mid);

        let mut leaf = Function::new("leaf", vec![Ty::I64], Ty::I64);
        let e = leaf.entry();
        let v = leaf.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::i64(1),
            },
        );
        leaf.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(v)),
            },
        );
        assert_eq!(m.add_func(leaf), leaf_id);

        let mut top = Function::new("top", vec![], Ty::I64);
        let e = top.entry();
        let call = top.push(
            e,
            Ty::I64,
            InstKind::Call {
                callee: Callee::Func(mid_id),
                args: vec![Operand::i64(7)],
            },
        );
        top.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(call)),
            },
        );
        m.add_func(top);
        m
    }

    #[test]
    fn superstep_cascades_through_forwarded_params() {
        let mut m = cascade_module();
        let mut facts = Vec::new();
        let subs = ipsccp(&mut m, &mut facts);
        // mid.param0 = 7 (decided first), then leaf.param0 = 7 via the
        // now-constant forwarded argument inside mid.
        assert_eq!(
            facts,
            vec![
                IpsccpFact {
                    func: 0,
                    param: 0,
                    value: Operand::i64(7)
                },
                IpsccpFact {
                    func: 1,
                    param: 0,
                    value: Operand::i64(7)
                },
            ]
        );
        assert_eq!(
            subs,
            vec![1, 1, 0],
            "one textual substitution in each callee"
        );
    }

    #[test]
    fn superstep_matches_serial_reference_exactly() {
        for build in [cascade_module as fn() -> Module, || {
            // The unanimous-constant module from the test above.
            let mut m = Module::new();
            let mut callee = Function::new("callee", vec![Ty::I64, Ty::I64], Ty::I64);
            let e = callee.entry();
            let v = callee.push(
                e,
                Ty::I64,
                InstKind::Bin {
                    op: BinOp::Mul,
                    lhs: Operand::Param(0),
                    rhs: Operand::Param(1),
                },
            );
            callee.set_term(
                e,
                Terminator::Ret {
                    val: Some(Operand::Inst(v)),
                },
            );
            let callee_id = m.add_func(callee);
            let mut caller = Function::new("caller", vec![], Ty::I64);
            let e = caller.entry();
            let c1 = caller.push(
                e,
                Ty::I64,
                InstKind::Call {
                    callee: Callee::Func(callee_id),
                    args: vec![Operand::i64(21), Operand::i64(3)],
                },
            );
            let c2 = caller.push(
                e,
                Ty::I64,
                InstKind::Call {
                    callee: Callee::Func(callee_id),
                    args: vec![Operand::i64(21), Operand::i64(4)],
                },
            );
            let s = caller.push(
                e,
                Ty::I64,
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Operand::Inst(c1),
                    rhs: Operand::Inst(c2),
                },
            );
            caller.set_term(
                e,
                Terminator::Ret {
                    val: Some(Operand::Inst(s)),
                },
            );
            m.add_func(caller);
            m
        }] {
            let mut serial = build();
            let mut phased = serial.clone();
            let mut serial_facts = Vec::new();
            let mut phased_facts = Vec::new();
            let serial_subs = ipsccp_serial_reference(&mut serial, &mut serial_facts);
            let phased_subs: usize = ipsccp(&mut phased, &mut phased_facts).iter().sum();
            assert_eq!(serial_facts, phased_facts, "fact streams diverged");
            assert_eq!(serial_subs, phased_subs, "substitution counts diverged");
            assert_eq!(serial, phased, "modules diverged");
        }
    }

    #[test]
    fn ipsccp_blocked_when_address_taken() {
        let mut m = Module::new();
        let mut callee = Function::new("callee", vec![Ty::I64], Ty::I64);
        let e = callee.entry();
        callee.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Param(0)),
            },
        );
        let callee_id = m.add_func(callee);

        let mut caller = Function::new("caller", vec![], Ty::I64);
        let e = caller.entry();
        caller.push(
            e,
            Ty::I64,
            InstKind::Call {
                callee: Callee::Func(callee_id),
                args: vec![Operand::i64(1)],
            },
        );
        // Address escapes (e.g. pthread_create-style).
        let fp = caller.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: lasagne_lir::inst::CastOp::PtrToInt,
                val: Operand::Func(callee_id),
            },
        );
        caller.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(fp)),
            },
        );
        m.add_func(caller);

        assert_eq!(ipsccp(&mut m, &mut Vec::new()), vec![0, 0]);
    }
}
