//! IR refinement (paper §5): re-exposing pointers in lifted code.
//!
//! Lifted code manipulates raw 64-bit integer addresses: pointer parameters
//! arrive as `i64`, stack addresses are `ptrtoint`-ed and offset with integer
//! adds, and every memory access is preceded by an `inttoptr`. This crate
//! implements the paper's two refinement stages:
//!
//! 1. **Peephole pointer exposure** ([`expose_pointers`]) — the
//!    generalisation of Figure 5's three rules: every `inttoptr(e)` whose
//!    operand `e` is an integer add-tree rooted at a `ptrtoint`
//!    (rule 1/2) or at an integer parameter (rule 3) is rewritten into
//!    `bitcast`/`getelementptr i8` chains from the original pointer.
//! 2. **Pointer parameter promotion** ([`promote_pointer_params`]) — an
//!    `i64` parameter whose every use is an `inttoptr` becomes a typed
//!    pointer parameter (§5.2), updating all call sites.
//!
//! Both stages matter for fence placement: once an address chain bottoms
//! out at an `alloca` through only `bitcast`/`getelementptr`, the §8
//! stack-access analysis can prove the access private and skip its fences.

#![warn(missing_docs)]

use lasagne_lir::func::{Function, Module};
use lasagne_lir::inst::{Callee, CastOp, InstId, InstKind, Operand};
use lasagne_lir::types::{Pointee, Ty};
use lasagne_lir::BlockId;
use lasagne_trace::{ArgVal, TraceCtx};

/// Which generalised Figure 5 peephole rule rewrote an `inttoptr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineRule {
    /// Rule 1 — `inttoptr(ptrtoint p)` with no added terms: pure cast.
    PointerCast,
    /// Rule 2 — add-tree rooted at a `ptrtoint` (stack/heap offset).
    PointerOffset,
    /// Rule 3 — add-tree rooted at an `i64` parameter.
    ParamOffset,
}

impl RefineRule {
    /// Stable name used in traces (`refine.rule.*` counters).
    pub fn name(self) -> &'static str {
        match self {
            RefineRule::PointerCast => "pointer-cast",
            RefineRule::PointerOffset => "pointer-offset",
            RefineRule::ParamOffset => "param-offset",
        }
    }

    /// The `refine.rule.*` counter incremented when this rule fires.
    pub fn counter(self) -> &'static str {
        match self {
            RefineRule::PointerCast => "refine.rule.pointer-cast",
            RefineRule::PointerOffset => "refine.rule.pointer-offset",
            RefineRule::ParamOffset => "refine.rule.param-offset",
        }
    }
}

/// Statistics from a refinement run (drives Figure 13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// `inttoptr` instructions rewritten into pointer-typed chains.
    pub inttoptr_rewritten: usize,
    /// Integer parameters promoted to pointer types.
    pub params_promoted: usize,
}

/// A resolved address expression: a pointer root plus added integer terms.
struct Plan {
    root: Operand,
    /// Whether `root` is an i64 parameter that needs one `inttoptr` first
    /// (Figure 5, rule 3).
    root_is_int: bool,
    terms: Vec<Operand>,
}

/// Tries to express the integer value `x` as `pointer + Σ terms`.
fn resolve(f: &Function, x: &Operand, depth: u32) -> Option<Plan> {
    if depth > 32 {
        return None;
    }
    match x {
        Operand::Inst(id) => match &f.inst(*id).kind {
            InstKind::Cast {
                op: CastOp::PtrToInt,
                val,
            } => Some(Plan {
                root: *val,
                root_is_int: false,
                terms: vec![],
            }),
            InstKind::Bin {
                op: lasagne_lir::inst::BinOp::Add,
                lhs,
                rhs,
            } => {
                // Prefer a genuine pointer root over a parameter root.
                if let Some(mut p) = resolve(f, lhs, depth + 1) {
                    if !p.root_is_int {
                        p.terms.push(*rhs);
                        return Some(p);
                    }
                }
                if let Some(mut p) = resolve(f, rhs, depth + 1) {
                    if !p.root_is_int {
                        p.terms.push(*lhs);
                        return Some(p);
                    }
                }
                // Fall back to a parameter root on either side.
                if let Some(mut p) = resolve(f, lhs, depth + 1) {
                    p.terms.push(*rhs);
                    return Some(p);
                }
                if let Some(mut p) = resolve(f, rhs, depth + 1) {
                    p.terms.push(*lhs);
                    return Some(p);
                }
                None
            }
            _ => None,
        },
        Operand::Param(i) => {
            if f.params[*i as usize] == Ty::I64 {
                Some(Plan {
                    root: Operand::Param(*i),
                    root_is_int: true,
                    terms: vec![],
                })
            } else if f.params[*i as usize].is_ptr() {
                Some(Plan {
                    root: Operand::Param(*i),
                    root_is_int: false,
                    terms: vec![],
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Position of an instruction in its function's layout.
fn position_of(f: &Function, id: InstId) -> Option<(BlockId, usize)> {
    for b in f.block_ids() {
        if let Some(pos) = f.block(b).insts.iter().position(|i| *i == id) {
            return Some((b, pos));
        }
    }
    None
}

/// Applies the generalised Figure 5 peephole rules to one function.
///
/// Returns the number of `inttoptr` instructions rewritten. Each rule
/// firing is recorded into `ctx`: one `refine.rule.*` counter increment
/// and (when tracing is enabled) a `peephole` instant event per rewritten
/// `inttoptr`. Tracing never changes the function.
pub fn expose_pointers(m: &Module, f: &mut Function, ctx: &TraceCtx) -> usize {
    let mut rewritten = 0;
    // Snapshot the inttoptr instructions first; rewriting adds instructions.
    let targets: Vec<InstId> = f
        .iter_insts()
        .filter_map(|(_, id)| match &f.inst(id).kind {
            InstKind::Cast {
                op: CastOp::IntToPtr,
                val,
            } => resolve(f, val, 0).is_some().then_some(id),
            _ => None,
        })
        .collect();

    for id in targets {
        let InstKind::Cast {
            op: CastOp::IntToPtr,
            val,
        } = f.inst(id).kind.clone()
        else {
            continue;
        };
        let Some(plan) = resolve(f, &val, 0) else {
            continue;
        };
        // Rule 3 only fires when there is something to rewrite; a parameter
        // with a direct inttoptr and no added terms is already in promotable
        // shape — leave it for parameter promotion.
        if plan.root_is_int && plan.terms.is_empty() {
            continue;
        }
        let Some((block, pos)) = position_of(f, id) else {
            continue;
        };
        let terms_count = plan.terms.len();
        let mut at = pos;
        // Root as an i8* value.
        let root_ty = m.operand_ty(f, &plan.root);
        let mut cur: Operand = if plan.root_is_int {
            let p = f.insert(
                block,
                at,
                Ty::Ptr(Pointee::I8),
                InstKind::Cast {
                    op: CastOp::IntToPtr,
                    val: plan.root,
                },
            );
            at += 1;
            Operand::Inst(p)
        } else if root_ty == Ty::Ptr(Pointee::I8) {
            plan.root
        } else {
            let p = f.insert(
                block,
                at,
                Ty::Ptr(Pointee::I8),
                InstKind::Cast {
                    op: CastOp::BitCast,
                    val: plan.root,
                },
            );
            at += 1;
            Operand::Inst(p)
        };
        for term in plan.terms {
            let g = f.insert(
                block,
                at,
                Ty::Ptr(Pointee::I8),
                InstKind::Gep {
                    base: cur,
                    offset: term,
                    elem_size: 1,
                },
            );
            at += 1;
            cur = Operand::Inst(g);
        }
        // The original inttoptr becomes a bitcast from the rebuilt chain.
        f.inst_mut(id).kind = InstKind::Cast {
            op: CastOp::BitCast,
            val: cur,
        };
        rewritten += 1;
        let rule = if plan.root_is_int {
            RefineRule::ParamOffset
        } else if terms_count == 0 {
            RefineRule::PointerCast
        } else {
            RefineRule::PointerOffset
        };
        ctx.add(rule.counter(), 1);
        if ctx.is_enabled() {
            ctx.instant(
                "refine",
                "peephole",
                vec![
                    ("func", ArgVal::from(f.name.as_str())),
                    ("rule", ArgVal::from(rule.name())),
                    ("terms", ArgVal::from(terms_count)),
                ],
            );
        }
    }
    rewritten
}

/// Promotes `i64` parameters used only as raw addresses to typed pointer
/// parameters (§5.2), rewriting all call sites in the module.
///
/// Returns the number of parameters promoted. Each promotion is recorded
/// into `ctx`: one `refine.params.promoted` counter increment and (when
/// tracing is enabled) a `promote-param` instant event naming the function
/// and parameter. Tracing never changes the module.
pub fn promote_pointer_params(m: &mut Module, ctx: &TraceCtx) -> usize {
    let mut promoted = 0;
    for fi in 0..m.funcs.len() {
        let fid = lasagne_lir::FuncId(fi as u32);
        let nparams = m.funcs[fi].params.len();
        for pi in 0..nparams {
            if m.funcs[fi].params[pi] != Ty::I64 {
                continue;
            }
            // Collect uses of the parameter.
            let f = &m.funcs[fi];
            let mut all_inttoptr = true;
            let mut any_use = false;
            let mut dst_tys: Vec<Ty> = Vec::new();
            let mut user_ids: Vec<InstId> = Vec::new();
            for (_, id) in f.iter_insts() {
                let inst = f.inst(id);
                let mut used = false;
                inst.kind.for_each_operand(|op| {
                    if *op == Operand::Param(pi as u32) {
                        used = true;
                    }
                });
                if !used {
                    continue;
                }
                any_use = true;
                match &inst.kind {
                    InstKind::Cast {
                        op: CastOp::IntToPtr,
                        ..
                    } => {
                        dst_tys.push(inst.ty);
                        user_ids.push(id);
                    }
                    _ => {
                        all_inttoptr = false;
                        break;
                    }
                }
            }
            let mut term_use = false;
            for b in m.funcs[fi].block_ids() {
                m.funcs[fi].block(b).term.for_each_operand(|op| {
                    if *op == Operand::Param(pi as u32) {
                        term_use = true;
                    }
                });
            }
            if !any_use || !all_inttoptr || term_use {
                continue;
            }
            // Choose the promoted type: unanimous destination type, else i8*.
            let unanimous = dst_tys.windows(2).all(|w| w[0] == w[1]);
            let new_ty = if unanimous {
                dst_tys[0]
            } else {
                Ty::Ptr(Pointee::I8)
            };
            m.funcs[fi].params[pi] = new_ty;
            // Rewrite the inttoptr users: same type ⇒ replace uses directly;
            // otherwise turn the cast into a bitcast from the parameter.
            for id in user_ids {
                let f = &mut m.funcs[fi];
                if f.inst(id).ty == new_ty {
                    f.replace_all_uses(id, Operand::Param(pi as u32));
                    if let Some((b, pos)) = position_of(f, id) {
                        f.block_mut(b).insts.remove(pos);
                    }
                } else {
                    f.inst_mut(id).kind = InstKind::Cast {
                        op: CastOp::BitCast,
                        val: Operand::Param(pi as u32),
                    };
                }
            }
            // Fix every call site in the module.
            fix_call_sites(m, fid, pi, new_ty);
            promoted += 1;
            ctx.add("refine.params.promoted", 1);
            if ctx.is_enabled() {
                ctx.instant(
                    "refine",
                    "promote-param",
                    vec![
                        ("func", ArgVal::from(m.funcs[fi].name.as_str())),
                        ("param", ArgVal::from(pi)),
                        ("ty", ArgVal::from(format!("{new_ty:?}"))),
                    ],
                );
            }
        }
    }
    promoted
}

/// After promoting parameter `pi` of `callee` to `new_ty`, rewrites all call
/// sites: arguments that are `ptrtoint(P)` pass `P` (bitcast if needed);
/// anything else gets an explicit `inttoptr`.
fn fix_call_sites(m: &mut Module, callee: lasagne_lir::FuncId, pi: usize, new_ty: Ty) {
    for fi in 0..m.funcs.len() {
        let call_sites: Vec<InstId> = m.funcs[fi]
            .iter_insts()
            .filter(|(_, id)| {
                matches!(&m.funcs[fi].inst(*id).kind,
                    InstKind::Call { callee: Callee::Func(c), .. } if *c == callee)
            })
            .map(|(_, id)| id)
            .collect();
        for cs in call_sites {
            let InstKind::Call { args, .. } = &m.funcs[fi].inst(cs).kind else {
                continue;
            };
            let arg = args[pi];
            // If the argument is ptrtoint(P), pass P through (bitcast when
            // the pointee differs).
            let direct: Option<Operand> = match arg {
                Operand::Inst(aid) => match &m.funcs[fi].inst(aid).kind {
                    InstKind::Cast {
                        op: CastOp::PtrToInt,
                        val,
                    } => Some(*val),
                    _ => None,
                },
                _ => None,
            };
            let Some((b, pos)) = position_of(&m.funcs[fi], cs) else {
                continue;
            };
            let new_arg = match direct {
                Some(p) => {
                    let pty = m.operand_ty(&m.funcs[fi], &p);
                    if pty == new_ty {
                        p
                    } else {
                        let f = &mut m.funcs[fi];
                        Operand::Inst(f.insert(
                            b,
                            pos,
                            new_ty,
                            InstKind::Cast {
                                op: CastOp::BitCast,
                                val: p,
                            },
                        ))
                    }
                }
                None => {
                    let f = &mut m.funcs[fi];
                    Operand::Inst(f.insert(
                        b,
                        pos,
                        new_ty,
                        InstKind::Cast {
                            op: CastOp::IntToPtr,
                            val: arg,
                        },
                    ))
                }
            };
            let f = &mut m.funcs[fi];
            if let InstKind::Call { args, .. } = &mut f.inst_mut(cs).kind {
                args[pi] = new_arg;
            }
        }
    }
}

/// Removes dead *address arithmetic* (casts, adds, geps with no uses) from
/// a function, iterating to a fixpoint. Pointer exposure orphans the
/// integer address computations it rewrites; sweeping them is a
/// precondition for parameter promotion to see "only `inttoptr` uses".
///
/// Deliberately narrower than DCE: refinement must not do the optimizer's
/// job (the paper's Figure 17 measures each pass on the *refined* code),
/// so unrelated dead code — flag materialisation in particular — is left
/// for `dce`/`adce`.
pub fn sweep_dead(f: &mut Function) -> usize {
    let addr_arith = |k: &InstKind| {
        matches!(
            k,
            InstKind::Cast { .. }
                | InstKind::Gep { .. }
                | InstKind::Bin {
                    op: lasagne_lir::inst::BinOp::Add,
                    ..
                }
                | InstKind::Bin {
                    op: lasagne_lir::inst::BinOp::Mul,
                    ..
                }
        )
    };
    let mut removed = 0;
    loop {
        let uses = f.use_counts();
        let mut dead: Vec<InstId> = Vec::new();
        for (_, id) in f.iter_insts() {
            let inst = f.inst(id);
            if uses[id.0 as usize] == 0 && !inst.kind.has_side_effects() && addr_arith(&inst.kind) {
                dead.push(id);
            }
        }
        if dead.is_empty() {
            break;
        }
        removed += dead.len();
        for b in f.block_ids() {
            f.block_mut(b).insts.retain(|i| !dead.contains(i));
        }
    }
    removed
}

/// One per-function refinement step: pointer exposure ([`expose_pointers`])
/// followed by a dead-arithmetic sweep ([`sweep_dead`]). Returns the number
/// of `inttoptr` instructions rewritten. Rule firings are traced into
/// `ctx` (see [`expose_pointers`]), and swept dead address arithmetic is
/// counted into `refine.swept`.
///
/// This is the intraprocedural half of [`refine_module`], split out for the
/// pipeline driver: it mutates only `f` and reads `m` solely for operand
/// typing (never other function bodies), so distinct functions may be
/// refined concurrently with results identical to any serial order.
pub fn refine_function(m: &Module, f: &mut Function, ctx: &TraceCtx) -> usize {
    let n = expose_pointers(m, f, ctx);
    let swept = sweep_dead(f);
    ctx.add("refine.swept", swept as u64);
    n
}

/// Runs the full refinement pipeline over a module: alternating pointer
/// exposure, dead-arithmetic sweeping, and parameter promotion until a
/// fixpoint (promotion exposes new `ptrtoint` roots in callers, so up to
/// three rounds run).
pub fn refine_module(m: &mut Module) -> RefineStats {
    let mut stats = RefineStats::default();
    for _ in 0..3 {
        let mut changed = 0;
        for fi in 0..m.funcs.len() {
            let mut f = std::mem::replace(&mut m.funcs[fi], Function::new("", vec![], Ty::Void));
            let n = refine_function(m, &mut f, &TraceCtx::disabled());
            m.funcs[fi] = f;
            changed += n;
            stats.inttoptr_rewritten += n;
        }
        let p = promote_pointer_params(m, &TraceCtx::disabled());
        for f in &mut m.funcs {
            sweep_dead(f);
        }
        stats.params_promoted += p;
        if changed == 0 && p == 0 {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::inst::{BinOp, InstKind, Operand, Ordering, Terminator};
    use lasagne_lir::types::{Pointee, Ty};
    use lasagne_lir::verify::verify_module;

    /// Figure 5, rule 1: `ptrtoint` immediately followed by `inttoptr`
    /// becomes a bitcast.
    #[test]
    fn rule1_pointer_casting() {
        let mut m = Module::new();
        let mut f = Function::new("r1", vec![], Ty::I32);
        let e = f.entry();
        let stack = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 64 });
        let i = f.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: CastOp::PtrToInt,
                val: Operand::Inst(stack),
            },
        );
        let p = f.push(
            e,
            Ty::Ptr(Pointee::I32),
            InstKind::Cast {
                op: CastOp::IntToPtr,
                val: Operand::Inst(i),
            },
        );
        let l = f.push(
            e,
            Ty::I32,
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
        let n = expose_pointers(&m, &mut f, &TraceCtx::disabled());
        assert_eq!(n, 1);
        assert!(
            matches!(
                f.inst(p).kind,
                InstKind::Cast {
                    op: CastOp::BitCast,
                    ..
                }
            ),
            "inttoptr should have become a bitcast: {:?}",
            f.inst(p).kind
        );
        m.add_func(f);
        verify_module(&m).unwrap();
    }

    /// Figure 5, rule 2: stack offset through integer add becomes a GEP.
    #[test]
    fn rule2_stack_offset() {
        let mut m = Module::new();
        let mut f = Function::new("r2", vec![], Ty::I32);
        let e = f.entry();
        let stack = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 64 });
        let tos = f.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: CastOp::PtrToInt,
                val: Operand::Inst(stack),
            },
        );
        let off = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(tos),
                rhs: Operand::i64(16),
            },
        );
        let p = f.push(
            e,
            Ty::Ptr(Pointee::I32),
            InstKind::Cast {
                op: CastOp::IntToPtr,
                val: Operand::Inst(off),
            },
        );
        let l = f.push(
            e,
            Ty::I32,
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
        assert_eq!(expose_pointers(&m, &mut f, &TraceCtx::disabled()), 1);
        // A GEP from the alloca must now exist and feed the bitcast.
        let has_gep = f.iter_insts().any(|(_, id)| {
            matches!(&f.inst(id).kind, InstKind::Gep { base, .. } if *base == Operand::Inst(stack))
        });
        assert!(has_gep);
        m.add_func(f);
        verify_module(&m).unwrap();
    }

    /// Figure 5, rule 3 + §5.2: `i64` parameter offset and promotion.
    #[test]
    fn rule3_and_param_promotion() {
        let mut m = Module::new();
        let mut f = Function::new("r3", vec![Ty::I64], Ty::I32);
        let e = f.entry();
        let off = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::i64(8),
            },
        );
        let p = f.push(
            e,
            Ty::Ptr(Pointee::I32),
            InstKind::Cast {
                op: CastOp::IntToPtr,
                val: Operand::Inst(off),
            },
        );
        let l = f.push(
            e,
            Ty::I32,
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
        m.add_func(f);

        let stats = refine_module(&mut m);
        assert!(stats.inttoptr_rewritten >= 1);
        // After rule 3, the parameter's only use is a single inttoptr, so
        // promotion fires and the parameter becomes a pointer.
        assert_eq!(stats.params_promoted, 1);
        assert!(
            m.funcs[0].params[0].is_ptr(),
            "param should be promoted: {:?}",
            m.funcs[0].params
        );
        verify_module(&m).unwrap();
    }

    /// §5.2: all-inttoptr uses with a unanimous type promote to that type.
    #[test]
    fn unanimous_promotion_type() {
        let mut m = Module::new();
        let mut f = Function::new("u", vec![Ty::I64], Ty::F64);
        let e = f.entry();
        let p = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::IntToPtr,
                val: Operand::Param(0),
            },
        );
        let l = f.push(
            e,
            Ty::F64,
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
        m.add_func(f);
        assert_eq!(promote_pointer_params(&mut m, &TraceCtx::disabled()), 1);
        assert_eq!(m.funcs[0].params[0], Ty::Ptr(Pointee::F64));
        verify_module(&m).unwrap();
    }

    /// A parameter used as a plain integer must not be promoted.
    #[test]
    fn integer_use_blocks_promotion() {
        let mut m = Module::new();
        let mut f = Function::new("n", vec![Ty::I64], Ty::I64);
        let e = f.entry();
        let v = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Operand::Param(0),
                rhs: Operand::i64(2),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(v)),
            },
        );
        m.add_func(f);
        assert_eq!(promote_pointer_params(&mut m, &TraceCtx::disabled()), 0);
        assert_eq!(m.funcs[0].params[0], Ty::I64);
    }

    /// Call sites are rewritten when a callee parameter is promoted.
    #[test]
    fn call_site_rewrite() {
        let mut m = Module::new();
        // callee(p): load i64 through p
        let mut callee = Function::new("callee", vec![Ty::I64], Ty::I64);
        let e = callee.entry();
        let p = callee.push(
            e,
            Ty::Ptr(Pointee::I64),
            InstKind::Cast {
                op: CastOp::IntToPtr,
                val: Operand::Param(0),
            },
        );
        let l = callee.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(p),
                order: Ordering::NotAtomic,
            },
        );
        callee.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        let callee_id = m.add_func(callee);

        // caller: x = alloca; store 9; callee(ptrtoint x)
        let mut caller = Function::new("caller", vec![], Ty::I64);
        let e = caller.entry();
        let slot = caller.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        caller.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(9),
                order: Ordering::NotAtomic,
            },
        );
        let raw = caller.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: CastOp::PtrToInt,
                val: Operand::Inst(slot),
            },
        );
        let call = caller.push(
            e,
            Ty::I64,
            InstKind::Call {
                callee: Callee::Func(callee_id),
                args: vec![Operand::Inst(raw)],
            },
        );
        caller.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(call)),
            },
        );
        let caller_id = m.add_func(caller);

        refine_module(&mut m);
        verify_module(&m).unwrap();
        assert!(m.funcs[0].params[0].is_ptr());

        // Semantics preserved end-to-end.
        let mut machine = lasagne_lir::interp::Machine::new(&m);
        let r = machine.run(caller_id, &[]).unwrap();
        assert_eq!(r.ret, Some(lasagne_lir::interp::Val::B64(9)));
    }

    /// A multi-term indexed address — `stack + 4096 - 8 + i*8` — must
    /// refine into a gep chain rooted at the alloca (the generalised rule 2
    /// that loop bodies depend on).
    #[test]
    fn indexed_stack_address_refines() {
        let mut m = Module::new();
        let mut f = Function::new("ix", vec![Ty::I64], Ty::I64);
        let e = f.entry();
        let stack = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 4096 });
        let tos = f.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: CastOp::PtrToInt,
                val: Operand::Inst(stack),
            },
        );
        let top = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(tos),
                rhs: Operand::i64(4096),
            },
        );
        let idx = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Operand::Param(0),
                rhs: Operand::i64(8),
            },
        );
        let down = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(top),
                rhs: Operand::i64(-64),
            },
        );
        let addr = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(down),
                rhs: Operand::Inst(idx),
            },
        );
        let p = f.push(
            e,
            Ty::Ptr(Pointee::I64),
            InstKind::Cast {
                op: CastOp::IntToPtr,
                val: Operand::Inst(addr),
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
        m.add_func(f);

        refine_module(&mut m);
        verify_module(&m).unwrap();
        let f = &m.funcs[0];
        // The store's pointer must now be stack-rooted through gep/bitcast.
        let rooted = f.iter_insts().any(|(_, id)| {
            matches!(&f.inst(id).kind, InstKind::Store { ptr, .. }
                if lasagne_fences_is_stack_like(f, ptr))
        });
        assert!(
            rooted,
            "indexed stack address not refined:\n{}",
            lasagne_lir::print::print_module(&m)
        );

        // Behaviour preserved.
        let id = m.func_by_name("ix").unwrap();
        let mut machine = lasagne_lir::interp::Machine::new(&m);
        assert_eq!(
            machine
                .run(id, &[lasagne_lir::interp::Val::B64(3)])
                .unwrap()
                .ret,
            Some(lasagne_lir::interp::Val::B64(1))
        );
    }

    /// Local re-implementation of the fence-placement stack walk (the
    /// refine crate must not depend on lasagne-fences).
    fn lasagne_fences_is_stack_like(f: &Function, ptr: &Operand) -> bool {
        let mut cur = *ptr;
        for _ in 0..64 {
            match cur {
                Operand::Inst(i) => match &f.inst(i).kind {
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

    /// End to end: lifted stack traffic becomes alloca-rooted after
    /// refinement (the property fence placement relies on).
    #[test]
    fn lifted_stack_access_becomes_alloca_rooted() {
        use lasagne_x86::asm::Asm;
        use lasagne_x86::binary::BinaryBuilder;
        use lasagne_x86::inst::{Inst, MemRef, Rm};
        use lasagne_x86::reg::{Gpr, Width};

        let mut b = BinaryBuilder::new();
        let mut a = Asm::new();
        // [rsp-8] = rdi; rax = [rsp-8]
        a.push(Inst::MovRmR {
            w: Width::W64,
            dst: Rm::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
            src: Gpr::Rdi,
        });
        a.push(Inst::MovRRm {
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
        });
        a.push(Inst::Ret);
        let addr = b.next_function_addr();
        b.add_function("f", a.finish(addr).unwrap());
        let mut m = lasagne_lifter::lift_binary(&b.finish()).unwrap();

        let stats = refine_module(&mut m);
        assert!(
            stats.inttoptr_rewritten >= 2,
            "both accesses refined: {stats:?}"
        );
        verify_module(&m).unwrap();

        // Trace the store's pointer: must reach an alloca through only
        // bitcast/gep.
        let f = &m.funcs[0];
        let mut found_rooted_store = false;
        for (_, id) in f.iter_insts() {
            if let InstKind::Store { ptr, .. } = &f.inst(id).kind {
                let mut cur = *ptr;
                loop {
                    match cur {
                        Operand::Inst(i) => match &f.inst(i).kind {
                            InstKind::Alloca { .. } => {
                                found_rooted_store = true;
                                break;
                            }
                            InstKind::Cast {
                                op: CastOp::BitCast,
                                val,
                            } => cur = *val,
                            InstKind::Gep { base, .. } => cur = *base,
                            _ => break,
                        },
                        _ => break,
                    }
                }
            }
        }
        assert!(
            found_rooted_store,
            "store pointer should be rooted at the stack alloca"
        );

        // Still computes the right value.
        let id = m.func_by_name("f").unwrap();
        let mut machine = lasagne_lir::interp::Machine::new(&m);
        assert_eq!(
            machine
                .run(id, &[lasagne_lir::interp::Val::B64(77)])
                .unwrap()
                .ret,
            Some(lasagne_lir::interp::Val::B64(77))
        );
    }
}
