//! The paper's litmus programs (Figures 1, 2, 9 and 10) plus a few
//! classics, as x86-level [`Program`]s.

use crate::exec::{FenceTy, Op, Program};
use crate::models::{outcomes_par, Model};
use lasagne_pool::Pool;

/// SB — store buffering (Figure 1 left).
pub fn sb() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }, Op::Ld { r: 0, x: 1 }],
            vec![Op::St { x: 1, v: 1 }, Op::Ld { r: 0, x: 0 }],
        ],
    }
}

/// MP — message passing (Figure 1 right).
pub fn mp() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }, Op::St { x: 1, v: 1 }],
            vec![Op::Ld { r: 0, x: 1 }, Op::Ld { r: 1, x: 0 }],
        ],
    }
}

/// SB with `mfence` between store and load on both threads.
pub fn sb_fenced() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![
                Op::St { x: 0, v: 1 },
                Op::Fence(FenceTy::Mfence),
                Op::Ld { r: 0, x: 1 },
            ],
            vec![
                Op::St { x: 1, v: 1 },
                Op::Fence(FenceTy::Mfence),
                Op::Ld { r: 0, x: 0 },
            ],
        ],
    }
}

/// LB — load buffering.
pub fn lb() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::Ld { r: 0, x: 0 }, Op::St { x: 1, v: 1 }],
            vec![Op::Ld { r: 0, x: 1 }, Op::St { x: 0, v: 1 }],
        ],
    }
}

/// Figure 10 (left): stores then RMWs on the opposite locations.
pub fn fig10_store_rmw() -> Program {
    Program {
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
    }
}

/// Figure 10 (right): RMWs then loads of the opposite locations.
pub fn fig10_rmw_load() -> Program {
    Program {
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
    }
}

/// 2+2W: write pairs to two locations in opposite orders.
pub fn two_plus_two_w() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }, Op::St { x: 1, v: 2 }],
            vec![Op::St { x: 1, v: 1 }, Op::St { x: 0, v: 2 }],
        ],
    }
}

/// CoRR: coherence of read-read pairs on one location.
pub fn corr() -> Program {
    Program {
        locs: 1,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }],
            vec![Op::Ld { r: 0, x: 0 }, Op::Ld { r: 1, x: 0 }],
        ],
    }
}

/// Atomic increment race: two fetch-and-modify style RMWs.
pub fn rmw_race() -> Program {
    Program {
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
    }
}

/// S: store/store vs read–write pair.
pub fn s_test() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 2 }, Op::St { x: 1, v: 1 }],
            vec![Op::Ld { r: 0, x: 1 }, Op::St { x: 0, v: 1 }],
        ],
    }
}

/// R: two writers, one also reads.
pub fn r_test() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }, Op::St { x: 1, v: 1 }],
            vec![Op::St { x: 1, v: 2 }, Op::Ld { r: 0, x: 0 }],
        ],
    }
}

/// WRC: write → read → causal chain across three threads.
pub fn wrc() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }],
            vec![Op::Ld { r: 0, x: 0 }, Op::St { x: 1, v: 1 }],
            vec![Op::Ld { r: 0, x: 1 }, Op::Ld { r: 1, x: 0 }],
        ],
    }
}

/// IRIW: two writers, two readers observing in opposite orders.
pub fn iriw() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }],
            vec![Op::St { x: 1, v: 1 }],
            vec![Op::Ld { r: 0, x: 0 }, Op::Ld { r: 1, x: 1 }],
            vec![Op::Ld { r: 0, x: 1 }, Op::Ld { r: 1, x: 0 }],
        ],
    }
}

/// The full suite used by the mapping checker.
pub fn paper_suite() -> Vec<(&'static str, Program)> {
    vec![
        ("SB", sb()),
        ("MP", mp()),
        ("SB+mfence", sb_fenced()),
        ("LB", lb()),
        ("Fig10-store-rmw", fig10_store_rmw()),
        ("Fig10-rmw-load", fig10_rmw_load()),
        ("2+2W", two_plus_two_w()),
        ("CoRR", corr()),
        ("RMW-race", rmw_race()),
        ("S", s_test()),
        ("R", r_test()),
        ("WRC", wrc()),
        ("IRIW", iriw()),
    ]
}

/// One row of [`sweep_suite`]: a named litmus program with its per-model
/// outcome counts and the forward/reverse mapping-chain verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRow {
    /// Litmus test name (as in [`paper_suite`]).
    pub name: &'static str,
    /// The x86-level program.
    pub program: Program,
    /// Number of consistent outcomes under the x86 model.
    pub x86_outcomes: usize,
    /// Number of consistent outcomes under the Arm model.
    pub arm_outcomes: usize,
    /// Number of consistent outcomes under the LIMM model.
    pub limm_outcomes: usize,
    /// Verdict of the forward x86 → IR → Arm chain ([`check_chain`]).
    ///
    /// [`check_chain`]: crate::mapping::check_chain
    pub chain: Result<(), String>,
    /// Verdict of the reverse Arm → IR → x86 chain
    /// ([`check_reverse_chain`]).
    ///
    /// [`check_reverse_chain`]: crate::mapping::check_reverse_chain
    pub reverse: Result<(), String>,
}

/// Runs the exhaustive mapping sweep over the whole [`paper_suite`].
/// Programs are visited serially, in suite order, and each program's own
/// candidate-execution space fans out across up to `jobs` workers of
/// `pool` ([`sweep_row`]). Turning the parallelism inward keeps the pool
/// busy even on a suite whose wall time is dominated by one large program
/// (e.g. IRIW), where per-program parallelism would leave all but one
/// worker idle on the tail. Outcome sets are canonical, so the rows are
/// identical for any `jobs`.
pub fn sweep_suite(pool: &Pool, jobs: usize) -> Vec<SuiteRow> {
    paper_suite()
        .into_iter()
        .map(|(name, program)| sweep_row(pool, jobs, name, program))
        .collect()
}

/// Builds one [`SuiteRow`], spending up to `jobs` workers of `pool`
/// *inside* the program: outcome enumeration is partitioned by
/// candidate-execution prefix ([`crate::exec::execution_partitions`]) and
/// the mapping chains run through [`crate::mapping::check_chain`]. Outcome
/// sets are canonical, so the row is identical to the serial one for any
/// `jobs`.
pub fn sweep_row(pool: &Pool, jobs: usize, name: &'static str, program: Program) -> SuiteRow {
    let x86_outcomes = outcomes_par(pool, jobs, Model::X86, &program).len();
    let arm_outcomes = outcomes_par(pool, jobs, Model::Arm, &program).len();
    let limm_outcomes = outcomes_par(pool, jobs, Model::Limm, &program).len();
    let chain = crate::mapping::check_chain(pool, jobs, &program);
    let reverse = crate::mapping::check_reverse_chain(pool, jobs, &program);
    SuiteRow {
        name,
        program,
        x86_outcomes,
        arm_outcomes,
        limm_outcomes,
        chain,
        reverse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::outcomes;

    /// The sweep is row-identical at every `jobs` value, and equal to
    /// rows built from the serial reference enumerator.
    #[test]
    fn sweep_is_row_identical_for_every_jobs_value() {
        let pool = Pool::shared();
        let reference: Vec<SuiteRow> = paper_suite()
            .into_iter()
            .map(|(name, program)| SuiteRow {
                x86_outcomes: outcomes(Model::X86, &program).len(),
                arm_outcomes: outcomes(Model::Arm, &program).len(),
                limm_outcomes: outcomes(Model::Limm, &program).len(),
                chain: crate::mapping::check_chain(pool, 1, &program),
                reverse: crate::mapping::check_reverse_chain(pool, 1, &program),
                name,
                program,
            })
            .collect();
        for row in &reference {
            assert!(row.chain.is_ok(), "{}: {:?}", row.name, row.chain);
        }
        for jobs in [1, 2, 4, 8] {
            assert_eq!(
                reference,
                sweep_suite(pool, jobs),
                "sweep diverged at jobs={jobs}"
            );
        }
    }

    #[test]
    fn suite_programs_have_executions_under_every_model() {
        for (name, p) in paper_suite() {
            for model in [Model::X86, Model::Arm, Model::Limm] {
                let os = outcomes(model, &p);
                assert!(
                    !os.is_empty(),
                    "{name} has no consistent executions under {model:?}"
                );
            }
        }
    }

    #[test]
    fn lb_forbidden_on_x86() {
        // x86 never reorders a load with a later store: r0=r0=1 impossible.
        let os = outcomes(Model::X86, &lb());
        let weak = os.iter().any(|o| o.regs.iter().all(|(_, v)| *v == 1));
        assert!(!weak);
    }

    #[test]
    fn wrc_forbidden_on_x86_allowed_on_arm_without_deps() {
        // WRC with r0=1 (saw the write), then writes flag; reader sees flag
        // but stale X. On x86 this is forbidden (read-read + write ordering
        // is cumulative under TSO); multicopy-atomic Armv8 *also* forbids it
        // when the reads are ordered, but our litmus reads are unordered so
        // Arm allows it.
        let weak = |o: &crate::exec::Outcome| {
            // Outcome threads are 1-based (0 is the init pseudo-thread):
            // 2 = the middle forwarder, 3 = the final reader.
            let t2r0 = o
                .regs
                .iter()
                .find(|((t, r), _)| *t == 2 && *r == 0)
                .unwrap()
                .1;
            let t3r0 = o
                .regs
                .iter()
                .find(|((t, r), _)| *t == 3 && *r == 0)
                .unwrap()
                .1;
            let t3r1 = o
                .regs
                .iter()
                .find(|((t, r), _)| *t == 3 && *r == 1)
                .unwrap()
                .1;
            t2r0 == 1 && t3r0 == 1 && t3r1 == 0
        };
        assert!(
            !outcomes(Model::X86, &wrc()).iter().any(weak),
            "x86 forbids WRC"
        );
        assert!(
            outcomes(Model::Arm, &wrc()).iter().any(weak),
            "unordered Arm allows WRC"
        );
        // The mapped program restores the guarantee.
        let mapped = crate::mapping::x86_to_arm(&wrc());
        assert!(
            !outcomes(Model::Arm, &mapped).iter().any(weak),
            "translated WRC is tight"
        );
    }

    #[test]
    fn iriw_forbidden_on_x86() {
        // Readers disagreeing on the write order is forbidden under TSO.
        let weak = |o: &crate::exec::Outcome| {
            let g = |t: usize, r: u8| {
                o.regs
                    .iter()
                    .find(|((tt, rr), _)| *tt == t && *rr == r)
                    .unwrap()
                    .1
            };
            // Outcome threads are 1-based: readers are threads 3 and 4.
            g(3, 0) == 1 && g(3, 1) == 0 && g(4, 0) == 1 && g(4, 1) == 0
        };
        assert!(!outcomes(Model::X86, &iriw()).iter().any(weak));
        // And the translation keeps it forbidden on (multicopy-atomic) Arm.
        let mapped = crate::mapping::x86_to_arm(&iriw());
        assert!(!outcomes(Model::Arm, &mapped).iter().any(weak));
    }

    #[test]
    fn corr_reads_never_go_backwards() {
        for model in [Model::X86, Model::Arm, Model::Limm] {
            let os = outcomes(model, &corr());
            // Second read cannot see an older value than the first.
            let backwards = os.iter().any(|o| {
                let a = o
                    .regs
                    .iter()
                    .find(|((t, r), _)| *t == 2 && *r == 0)
                    .unwrap()
                    .1;
                let b = o
                    .regs
                    .iter()
                    .find(|((t, r), _)| *t == 2 && *r == 1)
                    .unwrap()
                    .1;
                a == 1 && b == 0
            });
            assert!(!backwards, "{model:?} allows CoRR violation");
        }
    }
}
