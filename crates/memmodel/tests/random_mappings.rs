//! Property-based validation of the mapping theorems: for randomly
//! generated concurrent programs, translating x86 → LIMM → Arm must never
//! introduce behaviours (Theorems 7.3, 7.4, and the Figure 8c composition),
//! and Figure 11a-safe adjacent swaps must be sound under LIMM
//! (Theorem 7.5).

use lasagne_memmodel::exec::{FenceTy, Op, Program};
use lasagne_memmodel::mapping::{check_chain, check_reverse_chain, x86_to_limm};
use lasagne_memmodel::transform::check_safe_swaps;
use lasagne_pool::Pool;
use lasagne_qc::collection;
use lasagne_qc::prelude::*;

fn any_x86_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..2, 0u8..2).prop_map(|(r, x)| Op::Ld { r, x }),
        (0u8..2, 1u64..3).prop_map(|(x, v)| Op::St { x, v }),
        (0u8..2, 0u64..2, 3u64..5).prop_map(|(x, e, n)| Op::Rmw {
            r: 1,
            x,
            expect: e,
            new: n
        }),
        Just(Op::Fence(FenceTy::Mfence)),
    ]
}

fn any_program() -> impl Strategy<Value = Program> {
    // Two threads, up to 3 ops each: large enough to exhibit SB/MP/LB
    // shapes, small enough for exhaustive enumeration.
    (
        collection::vec(any_x86_op(), 1..=3),
        collection::vec(any_x86_op(), 1..=3),
    )
        .prop_map(|(t0, t1)| Program {
            locs: 2,
            threads: vec![t0, t1],
        })
}

fn any_arm_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..2, 0u8..2).prop_map(|(r, x)| Op::Ld { r, x }),
        (0u8..2, 0u8..2).prop_map(|(r, x)| Op::LdA { r, x }),
        (0u8..2, 1u64..3).prop_map(|(x, v)| Op::St { x, v }),
        (0u8..2, 1u64..3).prop_map(|(x, v)| Op::StR { x, v }),
        (0u8..2, 0u64..2, 3u64..5).prop_map(|(x, e, n)| Op::Rmw {
            r: 1,
            x,
            expect: e,
            new: n
        }),
        Just(Op::Fence(FenceTy::DmbFf)),
        Just(Op::Fence(FenceTy::DmbLd)),
        Just(Op::Fence(FenceTy::DmbSt)),
    ]
}

fn any_arm_program() -> impl Strategy<Value = Program> {
    (
        collection::vec(any_arm_op(), 1..=3),
        collection::vec(any_arm_op(), 1..=3),
    )
        .prop_map(|(t0, t1)| Program {
            locs: 2,
            threads: vec![t0, t1],
        })
}

fn rmw_count(p: &Program) -> usize {
    p.threads
        .iter()
        .flatten()
        .filter(|o| matches!(o, Op::Rmw { .. } | Op::RmwAr { .. }))
        .count()
}

properties! {
    config = Config::with_cases(256);

    /// Theorem 7.1 for the full Figure 8 chain on random programs.
    fn random_programs_map_correctly(p in any_program()) {
        prop_assume!(rmw_count(&p) <= 2);
        check_chain(Pool::shared(), 1, &p).map_err(|e| TestCaseError::fail(e))?;
    }

    /// Theorem 7.5: Figure 11a-safe swaps are sound under LIMM on random
    /// mapped programs.
    fn random_safe_swaps_sound(p in any_program()) {
        prop_assume!(rmw_count(&p) <= 1);
        let ir = x86_to_limm(&p);
        check_safe_swaps(&ir).map_err(TestCaseError::fail)?;
    }

    /// Appendix B on random Arm programs (including release/acquire
    /// accesses): Arm → IR → x86 must not introduce behaviours.
    fn random_reverse_chain_correct(p in any_arm_program()) {
        prop_assume!(rmw_count(&p) <= 2);
        check_reverse_chain(Pool::shared(), 1, &p).map_err(TestCaseError::fail)?;
    }
}
