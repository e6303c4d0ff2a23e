//! The three axiomatic consistency models: x86-TSO, Armv8, and LIMM
//! (paper §6.2–§6.3, Figures 6 and 7).

use crate::exec::{Execution, FenceTy, Lab};
use crate::rel::Rel;

/// Which memory model filters executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// x86 (TSO): Figure 6, axiom (GHB).
    X86,
    /// Armv8 (multicopy-atomic, Pulte et al.): Figure 6, axiom (external).
    Arm,
    /// LIMM: Figure 7, axiom (GOrd).
    Limm,
}

fn reads(x: &Execution) -> Rel {
    Rel::identity_where(x.events.len(), |i| x.events[i].lab.is_read())
}

fn writes(x: &Execution) -> Rel {
    Rel::identity_where(x.events.len(), |i| x.events[i].lab.is_write())
}

fn fences_matching(x: &Execution, pred: impl Fn(FenceTy) -> bool) -> Rel {
    Rel::identity_where(
        x.events.len(),
        |i| matches!(x.events[i].lab, Lab::F(ft) if pred(ft)),
    )
}

/// `sc-per-loc`: `(po|loc ∪ rf ∪ co ∪ fr)` acyclic (§6.2).
pub fn sc_per_loc(x: &Execution) -> bool {
    let po_loc = x.same_loc(&x.po);
    po_loc.union(&x.rf).union(&x.co).union(&x.fr()).is_acyclic()
}

/// `atomicity`: `rmw ∩ (fre ; coe) = ∅` (§6.2).
pub fn atomicity(x: &Execution) -> bool {
    let fre = x.external(&x.fr());
    let coe = x.external(&x.co);
    x.rmw.intersect(&fre.compose(&coe)).is_empty()
}

/// x86 axiom (GHB), Figure 6.
pub fn x86_consistent(x: &Execution) -> bool {
    if !sc_per_loc(x) || !atomicity(x) {
        return false;
    }
    let n = x.events.len();
    let r = reads(x);
    let w = writes(x);
    // ppo = ((W×W) ∪ (R×W) ∪ (R×R)) ∩ po
    let mut ppo = Rel::new(n);
    for (a, b) in x.po.pairs() {
        let ra = r.has(a, a);
        let wa = w.has(a, a);
        let rb = r.has(b, b);
        let wb = w.has(b, b);
        if (wa && wb) || (ra && wb) || (ra && rb) {
            ppo.add(a, b);
        }
    }
    // implied = po;[At ∪ F] ∪ [At ∪ F];po   where At = dom(rmw) ∪ codom(rmw)
    let at_or_fence = Rel::identity_where(n, |i| {
        matches!(x.events[i].lab, Lab::F(_))
            || x.rmw.pairs().iter().any(|(a, b)| *a == i || *b == i)
    });
    let implied =
        x.po.compose(&at_or_fence)
            .union(&at_or_fence.compose(&x.po));
    let rfe = x.external(&x.rf);
    let hb = ppo.union(&implied).union(&rfe).union(&x.fr()).union(&x.co);
    hb.is_acyclic()
}

/// Arm axiom (external), Figure 6 (no dependencies in litmus programs, so
/// `dob` is empty; stores take constant values in our litmus language).
pub fn arm_consistent(x: &Execution) -> bool {
    if !sc_per_loc(x) || !atomicity(x) {
        return false;
    }
    let _n = x.events.len();
    let r = reads(x);
    let w = writes(x);
    // obs = rfe ∪ coe ∪ fre
    let obs = x
        .external(&x.rf)
        .union(&x.external(&x.co))
        .union(&x.external(&x.fr()));
    // aob = rmw
    let aob = x.rmw.clone();
    // bob = po;[F_full];po ∪ [R];po;[F_ld];po ∪ [W];po;[F_st];po;[W]
    let f_full = fences_matching(x, |f| f == FenceTy::DmbFf);
    let f_ld = fences_matching(x, |f| f == FenceTy::DmbLd);
    let f_st = fences_matching(x, |f| f == FenceTy::DmbSt);
    let bob_full = x.po.compose(&f_full).compose(&x.po);
    let bob_ld = r.compose(&x.po).compose(&f_ld).compose(&x.po);
    let bob_st = w.compose(&x.po).compose(&f_st).compose(&x.po).compose(&w);
    // Appendix A: acquire loads order before all po-later accesses;
    // release stores order after all po-earlier accesses; and a release
    // followed by an acquire is ordered.
    let acq = Rel::identity_where(_n, |i| matches!(x.events[i].lab, Lab::R { acq: true, .. }));
    let rel = Rel::identity_where(_n, |i| matches!(x.events[i].lab, Lab::W { rel: true, .. }));
    let bob_acq = acq.compose(&x.po);
    let bob_rel = x.po.compose(&rel);
    let bob_ra = rel.compose(&x.po).compose(&acq);
    let bob = bob_full
        .union(&bob_ld)
        .union(&bob_st)
        .union(&bob_acq)
        .union(&bob_rel)
        .union(&bob_ra);
    let ob = obs.union(&aob).union(&bob);
    ob.is_acyclic()
}

/// LIMM axiom (GOrd), Figure 7.
pub fn limm_consistent(x: &Execution) -> bool {
    if !sc_per_loc(x) || !atomicity(x) {
        return false;
    }
    let n = x.events.len();
    let r = reads(x);
    let w = writes(x);
    let f_rm = fences_matching(x, |f| f == FenceTy::Frm);
    let f_ww = fences_matching(x, |f| f == FenceTy::Fww);
    let f_sc = fences_matching(x, |f| f == FenceTy::Fsc);
    // Memory accesses (R ∪ W).
    let mem = r.union(&w);
    // (ord1) [R];po;[Frm];po;[R∪W]
    let ord1 = r.compose(&x.po).compose(&f_rm).compose(&x.po).compose(&mem);
    // (ord2) [W];po;[Fww];po;[W]
    let ord2 = w.compose(&x.po).compose(&f_ww).compose(&x.po).compose(&w);
    // (ord3) [Fsc ∪ Rsc ∪ codom(rmw)];po
    let rsc = Rel::identity_where(n, |i| matches!(x.events[i].lab, Lab::R { sc: true, .. }));
    let codom_rmw = Rel::identity_where(n, |i| x.rmw.pairs().iter().any(|(_, b)| *b == i));
    let dom_rmw = Rel::identity_where(n, |i| x.rmw.pairs().iter().any(|(a, _)| *a == i));
    let wsc = Rel::identity_where(n, |i| matches!(x.events[i].lab, Lab::W { sc: true, .. }));
    let ord3 = f_sc.union(&rsc).union(&codom_rmw).compose(&x.po);
    // (ord4) po;[Fsc ∪ Wsc ∪ dom(rmw)]
    let ord4 = x.po.compose(&f_sc.union(&wsc).union(&dom_rmw));
    let ord = ord1.union(&ord2).union(&ord3).union(&ord4);
    let ghb = ord
        .union(&x.external(&x.rf))
        .union(&x.external(&x.co))
        .union(&x.external(&x.fr()));
    ghb.is_acyclic()
}

/// Checks consistency of an execution in a model.
pub fn consistent(model: Model, x: &Execution) -> bool {
    match model {
        Model::X86 => x86_consistent(x),
        Model::Arm => arm_consistent(x),
        Model::Limm => limm_consistent(x),
    }
}

/// All observable outcomes of `prog` under `model`.
pub fn outcomes(
    model: Model,
    prog: &crate::exec::Program,
) -> std::collections::BTreeSet<crate::exec::Outcome> {
    crate::exec::enumerate_executions(prog)
        .iter()
        .filter(|x| consistent(model, x))
        .map(crate::exec::Outcome::of)
        .collect()
}

/// [`outcomes`] with the candidate-execution space of *one* program
/// partitioned across up to `jobs` workers of `pool` (see
/// [`crate::exec::enumerate_executions_par`] for why nested enumerations
/// share the pipeline's pool instead of spawning their own threads).
/// Consistency filtering and outcome projection happen inside each
/// worker; the per-partition sets are unioned at the end. `BTreeSet`
/// union is commutative, so the result equals the serial [`outcomes`]
/// for any `jobs`.
pub fn outcomes_par(
    pool: &lasagne_pool::Pool,
    jobs: usize,
    model: Model,
    prog: &crate::exec::Program,
) -> std::collections::BTreeSet<crate::exec::Outcome> {
    let parts = crate::exec::execution_partitions(prog);
    let per_part = pool.par_map(jobs, parts, |_, part| {
        crate::exec::enumerate_partition(prog, part)
            .iter()
            .filter(|x| consistent(model, x))
            .map(crate::exec::Outcome::of)
            .collect::<std::collections::BTreeSet<_>>()
    });
    let mut all = std::collections::BTreeSet::new();
    for s in per_part {
        all.extend(s);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Op, Outcome, Program};

    fn reg_outcome(o: &Outcome, tid: usize, r: u8) -> u64 {
        o.regs
            .iter()
            .find(|((t, rr), _)| *t == tid && *rr == r)
            .map(|(_, v)| *v)
            .unwrap()
    }

    /// SB (Figure 1): a=b=0 allowed on x86, Arm, and LIMM.
    #[test]
    fn sb_allows_non_sc_everywhere() {
        let sb = |f: Option<FenceTy>| {
            let mut t0 = vec![Op::St { x: 0, v: 1 }];
            let mut t1 = vec![Op::St { x: 1, v: 1 }];
            if let Some(ft) = f {
                t0.push(Op::Fence(ft));
                t1.push(Op::Fence(ft));
            }
            t0.push(Op::Ld { r: 0, x: 1 });
            t1.push(Op::Ld { r: 0, x: 0 });
            Program {
                locs: 2,
                threads: vec![t0, t1],
            }
        };
        for model in [Model::X86, Model::Arm, Model::Limm] {
            let os = outcomes(model, &sb(None));
            let weak = os
                .iter()
                .any(|o| reg_outcome(o, 1, 0) == 0 && reg_outcome(o, 2, 0) == 0);
            assert!(weak, "{model:?} must allow SB a=b=0");
        }
        // With full fences, the weak outcome disappears in every model.
        for (model, fence) in [
            (Model::X86, FenceTy::Mfence),
            (Model::Arm, FenceTy::DmbFf),
            (Model::Limm, FenceTy::Fsc),
        ] {
            let os = outcomes(model, &sb(Some(fence)));
            let weak = os
                .iter()
                .any(|o| reg_outcome(o, 1, 0) == 0 && reg_outcome(o, 2, 0) == 0);
            assert!(!weak, "{model:?} fenced SB must forbid a=b=0");
        }
    }

    /// MP (Figure 1): a=1,b=0 disallowed on x86, allowed on Arm.
    #[test]
    fn mp_distinguishes_x86_from_arm() {
        let mp = Program {
            locs: 2,
            threads: vec![
                vec![Op::St { x: 0, v: 1 }, Op::St { x: 1, v: 1 }],
                vec![Op::Ld { r: 0, x: 1 }, Op::Ld { r: 1, x: 0 }],
            ],
        };
        let weak = |o: &Outcome| reg_outcome(o, 2, 0) == 1 && reg_outcome(o, 2, 1) == 0;
        assert!(
            !outcomes(Model::X86, &mp).iter().any(weak),
            "x86 forbids MP a=1,b=0"
        );
        assert!(
            outcomes(Model::Arm, &mp).iter().any(weak),
            "Arm allows MP a=1,b=0"
        );
        // Plain LIMM non-atomics are weaker than x86: allowed.
        assert!(
            outcomes(Model::Limm, &mp).iter().any(weak),
            "LIMM allows unfenced MP"
        );
    }

    /// MP with the paper's Figure 9 fence placement is forbidden in LIMM
    /// and in Arm.
    #[test]
    fn figure9_fenced_mp_is_tight() {
        let limm = Program {
            locs: 2,
            threads: vec![
                vec![
                    Op::St { x: 0, v: 1 },
                    Op::Fence(FenceTy::Fww),
                    Op::St { x: 1, v: 1 },
                ],
                vec![
                    Op::Ld { r: 0, x: 1 },
                    Op::Fence(FenceTy::Frm),
                    Op::Ld { r: 1, x: 0 },
                ],
            ],
        };
        let weak = |o: &Outcome| reg_outcome(o, 2, 0) == 1 && reg_outcome(o, 2, 1) == 0;
        assert!(
            !outcomes(Model::Limm, &limm).iter().any(weak),
            "Figure 9b forbids a=1,b=0"
        );

        let arm = Program {
            locs: 2,
            threads: vec![
                vec![
                    Op::St { x: 1, v: 1 },
                    Op::Fence(FenceTy::DmbSt),
                    Op::St { x: 0, v: 1 },
                ],
                vec![
                    Op::Ld { r: 0, x: 1 },
                    Op::Fence(FenceTy::DmbLd),
                    Op::Ld { r: 1, x: 0 },
                ],
            ],
        };
        // NB: Figure 9c stores Y first then X under DMBST ordering; the weak
        // outcome reads r0=1 (from X=... wait — mirror the LIMM shape):
        let arm2 = Program {
            locs: 2,
            threads: vec![
                vec![
                    Op::St { x: 0, v: 1 },
                    Op::Fence(FenceTy::DmbSt),
                    Op::St { x: 1, v: 1 },
                ],
                vec![
                    Op::Ld { r: 0, x: 1 },
                    Op::Fence(FenceTy::DmbLd),
                    Op::Ld { r: 1, x: 0 },
                ],
            ],
        };
        assert!(
            !outcomes(Model::Arm, &arm2).iter().any(weak),
            "Figure 9c forbids a=1,b=0"
        );
        let _ = arm;
    }

    /// Dropping either Figure 9 fence re-admits the weak MP outcome in LIMM
    /// — the mapping is *precise* (Theorem 7.3's necessity argument).
    #[test]
    fn figure9_fences_are_necessary() {
        let weak = |o: &Outcome| reg_outcome(o, 2, 0) == 1 && reg_outcome(o, 2, 1) == 0;
        // No Fww on the writer.
        let no_fww = Program {
            locs: 2,
            threads: vec![
                vec![Op::St { x: 0, v: 1 }, Op::St { x: 1, v: 1 }],
                vec![
                    Op::Ld { r: 0, x: 1 },
                    Op::Fence(FenceTy::Frm),
                    Op::Ld { r: 1, x: 0 },
                ],
            ],
        };
        assert!(
            outcomes(Model::Limm, &no_fww).iter().any(weak),
            "without Fww the outcome returns"
        );
        // No Frm on the reader.
        let no_frm = Program {
            locs: 2,
            threads: vec![
                vec![
                    Op::St { x: 0, v: 1 },
                    Op::Fence(FenceTy::Fww),
                    Op::St { x: 1, v: 1 },
                ],
                vec![Op::Ld { r: 0, x: 1 }, Op::Ld { r: 1, x: 0 }],
            ],
        };
        assert!(
            outcomes(Model::Limm, &no_frm).iter().any(weak),
            "without Frm the outcome returns"
        );
    }

    /// Coherence: same-location writes + reads are SC-per-loc in all models.
    #[test]
    fn coherence_holds_in_all_models() {
        // T1: X=1; a=X — a must be 1 (reads own write; no other writer).
        let prog = Program {
            locs: 1,
            threads: vec![vec![Op::St { x: 0, v: 1 }, Op::Ld { r: 0, x: 0 }]],
        };
        for model in [Model::X86, Model::Arm, Model::Limm] {
            let os = outcomes(model, &prog);
            assert!(
                os.iter().all(|o| reg_outcome(o, 1, 0) == 1),
                "{model:?} violates coherence"
            );
        }
    }

    /// Atomicity: two competing successful RMWs cannot both read 0.
    #[test]
    fn atomicity_forbids_double_winner() {
        let prog = Program {
            locs: 1,
            threads: vec![
                vec![Op::Rmw {
                    r: 0,
                    x: 0,
                    expect: 0,
                    new: 1,
                }],
                vec![Op::Rmw {
                    r: 0,
                    x: 0,
                    expect: 0,
                    new: 2,
                }],
            ],
        };
        for model in [Model::X86, Model::Arm, Model::Limm] {
            let os = outcomes(model, &prog);
            let both_zero = os
                .iter()
                .any(|o| reg_outcome(o, 1, 0) == 0 && reg_outcome(o, 2, 0) == 0);
            assert!(!both_zero, "{model:?} violates atomicity");
            // And someone must be able to win.
            assert!(!os.is_empty());
        }
    }

    /// Figure 10 (left): RMWs act as full fences in LIMM/Arm — the
    /// SB-with-RMW variant forbids X=Y=2 (both RMWs succeeding after both
    /// relaxed stores would need a GHB cycle).
    #[test]
    fn figure10_rmw_full_fence() {
        // T1: Xna=1; RMW(Y,0,2)   T2: Yna=1; RMW(X,0,2)
        let prog = Program {
            locs: 2,
            threads: vec![
                vec![
                    Op::St { x: 0, v: 1 },
                    Op::Rmw {
                        r: 0,
                        x: 1,
                        expect: 0,
                        new: 2,
                    },
                ],
                vec![
                    Op::St { x: 1, v: 1 },
                    Op::Rmw {
                        r: 0,
                        x: 0,
                        expect: 0,
                        new: 2,
                    },
                ],
            ],
        };
        for model in [Model::Limm, Model::X86] {
            let os = outcomes(model, &prog);
            let bad = os.iter().any(|o| {
                o.mem.iter().any(|(l, v)| *l == 0 && *v == 2)
                    && o.mem.iter().any(|(l, v)| *l == 1 && *v == 2)
            });
            assert!(!bad, "{model:?} must disallow X=Y=2 in Figure 10");
        }
    }

    /// Figure 10 (right): a=b=0 disallowed when RMWs precede the reads.
    #[test]
    fn figure10_rmw_orders_reads() {
        let prog = Program {
            locs: 2,
            threads: vec![
                vec![
                    Op::Rmw {
                        r: 1,
                        x: 0,
                        expect: 0,
                        new: 2,
                    },
                    Op::Ld { r: 0, x: 1 },
                ],
                vec![
                    Op::Rmw {
                        r: 1,
                        x: 1,
                        expect: 0,
                        new: 2,
                    },
                    Op::Ld { r: 0, x: 0 },
                ],
            ],
        };
        for model in [Model::Limm, Model::X86] {
            let os = outcomes(model, &prog);
            let bad = os.iter().any(|o| {
                let a = o
                    .regs
                    .iter()
                    .find(|((t, r), _)| *t == 1 && *r == 0)
                    .unwrap()
                    .1;
                let b = o
                    .regs
                    .iter()
                    .find(|((t, r), _)| *t == 2 && *r == 0)
                    .unwrap()
                    .1;
                a == 0 && b == 0
            });
            assert!(!bad, "{model:?} must disallow a=b=0 in Figure 10");
        }
    }

    /// x86 is strictly stronger than LIMM on non-atomics: every x86-
    /// consistent execution of an unfenced program is LIMM-consistent.
    #[test]
    fn limm_weaker_than_x86_on_nonatomics() {
        let mp = Program {
            locs: 2,
            threads: vec![
                vec![Op::St { x: 0, v: 1 }, Op::St { x: 1, v: 1 }],
                vec![Op::Ld { r: 0, x: 1 }, Op::Ld { r: 1, x: 0 }],
            ],
        };
        let x86: std::collections::BTreeSet<_> = outcomes(Model::X86, &mp);
        let limm: std::collections::BTreeSet<_> = outcomes(Model::Limm, &mp);
        assert!(x86.is_subset(&limm));
        assert!(x86.len() < limm.len(), "MP separates the models");
    }
}
