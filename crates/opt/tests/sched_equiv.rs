//! The change-driven scheduler must be indistinguishable from the blind
//! fixpoint driver it replaced: byte-identical modules, identical change
//! totals, and counters that reconcile exactly with the blind driver's
//! invocation count.
//!
//! Modules are generated from a single `u64` seed through a deterministic
//! splitmix64 builder that deliberately produces the messes every pass
//! feeds on: alloca/load/store traffic (mem2reg, sroa, dse), identity
//! chains and const-foldable ops (instcombine, reassociate, sccp),
//! redundant pure pairs (gvn), loops with invariant computations (licm),
//! dead operations (dce/adce), fences (legality gating), diamonds with
//! constant conditions (sccp's branch folding + unreachable pruning), and
//! cross-function calls with constant arguments (the ipSCCP superstep).
//!
//! The scheduler's skips rest on every pass reporting an honest
//! [`PassEffect`](lasagne_opt::PassEffect), and the analysis cache rests
//! on `run_pass_on_function`'s invalidation rule;
//! `every_pass_effect_is_honest` checks both directly on the Phoenix
//! suite and on messy modules.

use lasagne_fences::{merge_fences_module, place_fences_module, Strategy};
use lasagne_lir::analysis::{Analyses, Cfg, Dominators};
use lasagne_lir::func::{Function, Module};
use lasagne_lir::inst::{BinOp, Callee, FenceKind, IPred, InstKind, Operand, Ordering, Terminator};
use lasagne_lir::types::{Pointee, Ty};
use lasagne_lir::verify::verify_module;
use lasagne_opt::{blind_pipeline, run_pass_on_function, scheduled_pipeline, PassKind, OPT_ORDER};
use lasagne_qc::prelude::*;

/// splitmix64 — the same generator the qc harness uses internally, inlined
/// so the module builder is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const BINOPS: [BinOp; 6] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
];

/// Emits a run of messy scalar/memory instructions into `block`, growing
/// `pool` (i64 values available as operands) as it goes.
fn emit_mess(
    rng: &mut Rng,
    f: &mut Function,
    block: lasagne_lir::BlockId,
    pool: &mut Vec<Operand>,
    slots: &[lasagne_lir::InstId],
    len: usize,
) {
    for _ in 0..len {
        let pick = |rng: &mut Rng, pool: &[Operand]| pool[rng.below(pool.len() as u64) as usize];
        match rng.below(8) {
            // Plain binop over the pool (sometimes a dead one: never used).
            0 | 1 => {
                let op = BINOPS[rng.below(6) as usize];
                let lhs = pick(rng, pool);
                let rhs = pick(rng, pool);
                let id = f.push(block, Ty::I64, InstKind::Bin { op, lhs, rhs });
                if rng.chance(80) {
                    pool.push(Operand::Inst(id));
                }
            }
            // Identity chain fodder: x + 0, x * 1, x & -1.
            2 => {
                let lhs = pick(rng, pool);
                let (op, c) = match rng.below(3) {
                    0 => (BinOp::Add, 0u64),
                    1 => (BinOp::Mul, 1),
                    _ => (BinOp::And, u64::MAX),
                };
                let id = f.push(
                    block,
                    Ty::I64,
                    InstKind::Bin {
                        op,
                        lhs,
                        rhs: Operand::ConstInt {
                            ty: Ty::I64,
                            val: c,
                        },
                    },
                );
                pool.push(Operand::Inst(id));
            }
            // Const-foldable op.
            3 => {
                let a = rng.below(100);
                let b = rng.below(100);
                let id = f.push(
                    block,
                    Ty::I64,
                    InstKind::Bin {
                        op: BINOPS[rng.below(6) as usize],
                        lhs: Operand::ConstInt {
                            ty: Ty::I64,
                            val: a,
                        },
                        rhs: Operand::ConstInt {
                            ty: Ty::I64,
                            val: b,
                        },
                    },
                );
                pool.push(Operand::Inst(id));
            }
            // Redundant pure pair for gvn.
            4 => {
                let op = BINOPS[rng.below(6) as usize];
                let lhs = pick(rng, pool);
                let rhs = pick(rng, pool);
                let a = f.push(block, Ty::I64, InstKind::Bin { op, lhs, rhs });
                let b = f.push(block, Ty::I64, InstKind::Bin { op, lhs, rhs });
                pool.push(Operand::Inst(a));
                pool.push(Operand::Inst(b));
            }
            // Slot traffic: store then (sometimes) load back.
            5 | 6 => {
                let slot = slots[rng.below(slots.len() as u64) as usize];
                let val = pick(rng, pool);
                f.push(
                    block,
                    Ty::Void,
                    InstKind::Store {
                        ptr: Operand::Inst(slot),
                        val,
                        order: Ordering::NotAtomic,
                    },
                );
                if rng.chance(70) {
                    let l = f.push(
                        block,
                        Ty::I64,
                        InstKind::Load {
                            ptr: Operand::Inst(slot),
                            order: Ordering::NotAtomic,
                        },
                    );
                    pool.push(Operand::Inst(l));
                }
            }
            // A fence, to exercise the legality gating in gvn/dse.
            _ => {
                let kind = match rng.below(3) {
                    0 => FenceKind::Frm,
                    1 => FenceKind::Fww,
                    _ => FenceKind::Fsc,
                };
                f.push(block, Ty::Void, InstKind::Fence { kind });
            }
        }
    }
}

/// Builds one messy function. `callee` (when given) is called with either
/// constant or varying arguments, to sometimes give ipSCCP a fact.
fn messy_function(rng: &mut Rng, name: &str, callee: Option<lasagne_lir::FuncId>) -> Function {
    let mut f = Function::new(name, vec![Ty::I64, Ty::I64], Ty::I64);
    let e = f.entry();
    let nslots = 1 + rng.below(3) as usize;
    let slots: Vec<_> = (0..nslots)
        .map(|_| f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 }))
        .collect();
    let mut pool = vec![
        Operand::Param(0),
        Operand::Param(1),
        Operand::ConstInt {
            ty: Ty::I64,
            val: rng.below(1000),
        },
    ];
    // Seed every slot so later loads are defined.
    for s in &slots {
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(*s),
                val: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
    }
    let mess_len = 3 + rng.below(8) as usize;
    emit_mess(rng, &mut f, e, &mut pool, &slots, mess_len);

    if let Some(callee) = callee {
        let args = if rng.chance(50) {
            // Constant args at every site → an ipSCCP fact.
            vec![
                Operand::ConstInt {
                    ty: Ty::I64,
                    val: 7,
                },
                Operand::ConstInt {
                    ty: Ty::I64,
                    val: 11,
                },
            ]
        } else {
            vec![pool[0], pool[pool.len() - 1]]
        };
        let c = f.push(
            e,
            Ty::I64,
            InstKind::Call {
                callee: Callee::Func(callee),
                args,
            },
        );
        pool.push(Operand::Inst(c));
    }

    // Optional diamond, sometimes with a constant condition (sccp folds
    // the branch and prunes the dead arm).
    let tail = if rng.chance(70) {
        let then_b = f.add_block();
        let else_b = f.add_block();
        let join = f.add_block();
        let cond = if rng.chance(40) {
            Operand::ConstInt {
                ty: Ty::I1,
                val: rng.below(2),
            }
        } else {
            let picked = pool[rng.below(pool.len() as u64) as usize];
            let c = f.push(
                e,
                Ty::I1,
                InstKind::ICmp {
                    pred: IPred::Slt,
                    lhs: picked,
                    rhs: Operand::ConstInt {
                        ty: Ty::I64,
                        val: rng.below(50),
                    },
                },
            );
            Operand::Inst(c)
        };
        f.set_term(
            e,
            Terminator::CondBr {
                cond,
                if_true: then_b,
                if_false: else_b,
            },
        );
        for arm in [then_b, else_b] {
            let mut arm_pool = pool.clone();
            let arm_len = rng.below(4) as usize;
            emit_mess(rng, &mut f, arm, &mut arm_pool, &slots, arm_len);
            // Arms communicate through memory only, keeping SSA trivial.
            f.push(
                arm,
                Ty::Void,
                InstKind::Store {
                    ptr: Operand::Inst(slots[0]),
                    val: arm_pool[arm_pool.len() - 1],
                    order: Ordering::NotAtomic,
                },
            );
            f.set_term(arm, Terminator::Br { dest: join });
        }
        let l = f.push(
            join,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slots[0]),
                order: Ordering::NotAtomic,
            },
        );
        pool.push(Operand::Inst(l));
        join
    } else {
        e
    };

    // Optional counted loop through memory (licm hoists, mem2reg builds
    // φs, sccp folds the bound when it is constant).
    let exit = if rng.chance(50) {
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let i_slot = slots[rng.below(slots.len() as u64) as usize];
        f.push(
            tail,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(i_slot),
                val: Operand::ConstInt {
                    ty: Ty::I64,
                    val: 0,
                },
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(tail, Terminator::Br { dest: header });
        let i = f.push(
            header,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(i_slot),
                order: Ordering::NotAtomic,
            },
        );
        let c = f.push(
            header,
            Ty::I1,
            InstKind::ICmp {
                pred: IPred::Ult,
                lhs: Operand::Inst(i),
                rhs: Operand::ConstInt {
                    ty: Ty::I64,
                    val: 1 + rng.below(8),
                },
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
        // Loop-invariant computation (hoistable) + induction update.
        let inv = f.push(
            body,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Operand::Param(0),
                rhs: Operand::Param(1),
            },
        );
        let next = f.push(
            body,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(i),
                rhs: Operand::ConstInt {
                    ty: Ty::I64,
                    val: 1,
                },
            },
        );
        f.push(
            body,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(i_slot),
                val: Operand::Inst(next),
                order: Ordering::NotAtomic,
            },
        );
        pool.push(Operand::Inst(inv));
        f.set_term(body, Terminator::Br { dest: header });
        exit
    } else {
        tail
    };

    let ret = pool[rng.below(pool.len() as u64) as usize];
    f.set_term(exit, Terminator::Ret { val: Some(ret) });
    f
}

/// A whole messy module: 1–3 functions, later ones calling the first.
fn messy_module(seed: u64) -> Module {
    let mut rng = Rng(seed);
    let mut m = Module::new();
    let nfuncs = 1 + rng.below(3) as usize;
    let mut first = None;
    for i in 0..nfuncs {
        let f = messy_function(&mut rng, &format!("f{i}"), first.filter(|_| i > 0));
        let id = m.add_func(f);
        first.get_or_insert(id);
    }
    m
}

properties! {
    config = Config::with_cases(256);

    /// The tentpole equivalence: scheduled ≡ blind, module bytes and
    /// change totals, on arbitrary messy modules.
    fn scheduler_matches_blind_pipeline(seed in any::<u64>()) {
        let m = messy_module(seed);
        verify_module(&m).expect("generator must build valid modules");
        let mut blind = m.clone();
        let mut sched = m;
        let (blind_changes, invocations) = blind_pipeline(&mut blind, 4);
        let stats = scheduled_pipeline(&mut sched, 4);
        prop_assert_eq!(&sched, &blind);
        prop_assert_eq!(stats.changes, blind_changes);
        // Counter reconciliation: every (function, slot, round) pair is
        // accounted for exactly once.
        prop_assert_eq!(stats.ran + stats.skipped, invocations);
    }

    /// The scheduler must actually skip work on modules that converge
    /// before the round bound (any nonempty module that reaches a
    /// fixpoint executes a final all-clean round).
    fn scheduler_skips_on_convergence(seed in any::<u64>()) {
        let m = messy_module(seed);
        let mut sched = m;
        let stats = scheduled_pipeline(&mut sched, 4);
        if stats.rounds >= 2 {
            prop_assert!(stats.skipped > 0, "no skips in {stats:?}");
        }
    }
}

/// Pinned: a function that converges in round 1 is retired — all 13 slots
/// of round 2 are skipped for it, by counters, not timing.
#[test]
fn converged_function_is_skipped_in_round_two() {
    // One already-optimal function plus one messy one: the optimal
    // function runs everything clean in round 1 and must be retired for
    // every later round.
    let mut m = Module::new();
    let mut trivial = Function::new("trivial", vec![Ty::I64], Ty::I64);
    let e = trivial.entry();
    trivial.set_term(
        e,
        Terminator::Ret {
            val: Some(Operand::Param(0)),
        },
    );
    m.add_func(trivial);
    let mut rng = Rng(0xfeed);
    m.add_func(messy_function(&mut rng, "messy", None));

    let mut blind = m.clone();
    let (blind_changes, invocations) = blind_pipeline(&mut blind, 4);
    let stats = scheduled_pipeline(&mut m, 4);
    assert_eq!(&m, &blind);
    assert_eq!(stats.changes, blind_changes);
    assert_eq!(stats.ran + stats.skipped, invocations);
    assert!(
        stats.rounds >= 2,
        "the messy function must force a second round: {stats:?}"
    );
    // The trivial function was converged at the start of every round
    // after the first.
    assert!(
        stats.retired >= stats.rounds - 1,
        "trivial function not retired: {stats:?}"
    );
    // Retirement means its 13 slots were skipped, so round 2 onward
    // contributes at least 13 skips per retired round.
    assert!(
        stats.skipped >= 13 * (stats.rounds - 1),
        "retired function still ran passes: {stats:?}"
    );
}

/// Pinned: counters and module bytes are independent of how many other
/// functions sit in the module (per-function scheduling state is
/// self-contained — the property the pipeline's jobs-invariance relies
/// on).
#[test]
fn per_function_counters_are_order_independent() {
    let mut rng = Rng(0xbead);
    let f0 = messy_function(&mut rng, "a", None);
    let f1 = messy_function(&mut rng, "b", None);

    // Optimize together (no calls between them → no interprocedural
    // coupling beyond the shared superstep, which finds no facts).
    let mut together = Module::new();
    together.add_func(f0.clone());
    together.add_func(f1.clone());
    let stats_together = scheduled_pipeline(&mut together, 4);

    // Optimize separately and sum.
    let (mut alone0, mut alone1) = (Module::new(), Module::new());
    alone0.add_func(f0);
    alone1.add_func(f1);
    let st0 = scheduled_pipeline(&mut alone0, 4);
    let st1 = scheduled_pipeline(&mut alone1, 4);

    assert_eq!(together.funcs[0], alone0.funcs[0]);
    assert_eq!(together.funcs[1], alone1.funcs[0]);
    assert_eq!(stats_together.changes, st0.changes + st1.changes);
}

/// An analysis cache holding everything it can for `f`: use counts, CFG
/// and dominators.
fn primed(f: &Function) -> Analyses {
    let mut an = Analyses::new();
    let counts = an.seed_use_counts(f);
    an.store_use_counts(counts);
    an.cfg_and_doms(f);
    an
}

/// Runs `p` on `f` against `an` and checks the effect is honest: a clean
/// effect left `f` unchanged, and what `an` still caches matches a fresh
/// computation.
fn check_pass(p: PassKind, m: &Module, f: &mut Function, an: &mut Analyses) {
    let before = f.clone();
    let eff = run_pass_on_function(p, m, f, an);
    let name = &f.name;
    if eff.is_clean() {
        assert_eq!(
            *f, before,
            "{p:?} reported a clean effect but changed {name}"
        );
    }
    let counts = an.seed_use_counts(f);
    assert_eq!(
        counts,
        f.use_counts(),
        "{p:?} left stale use counts on {name}"
    );
    an.store_use_counts(counts);
    let fresh = Cfg::compute(f);
    let fresh_doms = Dominators::compute(&fresh);
    let (cfg, doms) = an.cfg_and_doms(f);
    assert_eq!(
        format!("{cfg:?}{doms:?}"),
        format!("{fresh:?}{fresh_doms:?}"),
        "{p:?} left a stale CFG on {name}"
    );
}

/// Every pass's effect is honest — what the scheduler's skips and
/// `run_pass_on_function`'s one invalidation rule rely on. Each pass runs
/// on a clone of every function with a primed cache, and then the whole
/// schedule runs for three rounds on one copy with one cache, as the
/// scheduler runs it (without the interprocedural half of ipsccp). The
/// functions are the Phoenix suite's at their pre-opt state under Opt,
/// POpt and PPOpt, and those of 64 messy modules.
#[test]
fn every_pass_effect_is_honest() {
    let mut modules = Vec::new();
    for b in lasagne_phoenix::all_benchmarks(8) {
        for (refine, merge) in [(false, false), (false, true), (true, true)] {
            let mut m = lasagne_lifter::lift_binary(&b.binary).unwrap();
            if refine {
                lasagne_refine::refine_module(&mut m);
            }
            place_fences_module(&mut m, Strategy::StackAware);
            if merge {
                merge_fences_module(&mut m);
            }
            modules.push(m);
        }
    }
    modules.extend((0..64).map(messy_module));
    for m in &modules {
        for f in &m.funcs {
            for p in PassKind::ALL {
                check_pass(p, m, &mut f.clone(), &mut primed(f));
            }
            let mut g = f.clone();
            let mut an = primed(&g);
            for _ in 0..3 {
                for p in OPT_ORDER {
                    check_pass(p, m, &mut g, &mut an);
                }
            }
        }
    }
}
