//! Unit-level semantics tests for the AArch64 interpreter and printer:
//! condition flags, sub-width memory, FP corner cases, and the textual
//! output forms.

use lasagne_armgen::inst::{
    ABlock, ACallee, AFunc, AInst, AMem, AModule, ARet, ATerm, AluOp, Blk, Cc, Dmb, FpOp, Sz, D, X,
};
use lasagne_armgen::machine::{ArmError, ArmMachine, MAX_FRAMES};

fn one_block_module(insts: Vec<AInst>, ret: ARet) -> AModule {
    AModule {
        funcs: vec![AFunc {
            name: "t".into(),
            int_params: 2,
            fp_params: 2,
            frame_size: 64,
            ret,
            blocks: vec![ABlock {
                insts,
                term: Some(ATerm::Ret),
            }],
        }],
        externs: vec![],
        globals: vec![],
    }
}

fn run_int(insts: Vec<AInst>, args: &[u64]) -> u64 {
    let m = one_block_module(insts, ARet::Int);
    let mut machine = ArmMachine::new(&m);
    machine.run(0, args, &[]).unwrap().ret
}

#[test]
fn alu_semantics() {
    // x0 = (x0 << 3) - x1
    let v = run_int(
        vec![
            AInst::MovImm { rd: X(9), imm: 3 },
            AInst::Alu {
                op: AluOp::Lsl,
                rd: X(0),
                rn: X(0),
                rm: X(9),
                ra: X::ZR,
            },
            AInst::Alu {
                op: AluOp::Sub,
                rd: X(0),
                rn: X(0),
                rm: X(1),
                ra: X::ZR,
            },
        ],
        &[5, 7],
    );
    assert_eq!(v, 5 * 8 - 7);
}

#[test]
fn udiv_by_zero_is_zero_on_arm() {
    // AArch64 defines x/0 = 0 (no trap).
    let v = run_int(
        vec![AInst::Alu {
            op: AluOp::UDiv,
            rd: X(0),
            rn: X(0),
            rm: X(1),
            ra: X::ZR,
        }],
        &[42, 0],
    );
    assert_eq!(v, 0);
}

#[test]
fn msub_computes_remainder() {
    // rem = x0 - (x0/x1)*x1
    let v = run_int(
        vec![
            AInst::Alu {
                op: AluOp::UDiv,
                rd: X(9),
                rn: X(0),
                rm: X(1),
                ra: X::ZR,
            },
            AInst::Alu {
                op: AluOp::MSub,
                rd: X(0),
                rn: X(9),
                rm: X(1),
                ra: X(0),
            },
        ],
        &[17, 5],
    );
    assert_eq!(v, 2);
}

#[test]
fn conditions_after_cmp() {
    for (a, b, cc, expect) in [
        (1u64, 2u64, Cc::Lt, 1u64),
        (2, 1, Cc::Lt, 0),
        (1, 1, Cc::Eq, 1),
        (u64::MAX, 1, Cc::Lt, 1), // signed: -1 < 1
        (u64::MAX, 1, Cc::Hi, 1), // unsigned: MAX > 1
        (3, 3, Cc::Ls, 1),
        (4, 3, Cc::Ls, 0),
    ] {
        let v = run_int(
            vec![
                AInst::Cmp { rn: X(0), rm: X(1) },
                AInst::CSet { rd: X(0), cc },
            ],
            &[a, b],
        );
        assert_eq!(v, expect, "cmp {a},{b} cset {cc}");
    }
}

#[test]
fn csel_picks_by_condition() {
    let v = run_int(
        vec![
            AInst::Cmp { rn: X(0), rm: X(1) },
            AInst::CSel {
                rd: X(0),
                rn: X(0),
                rm: X(1),
                cc: Cc::Gt,
            },
        ],
        &[9, 4],
    );
    assert_eq!(v, 9, "max(9,4)");
    let v = run_int(
        vec![
            AInst::Cmp { rn: X(0), rm: X(1) },
            AInst::CSel {
                rd: X(0),
                rn: X(0),
                rm: X(1),
                cc: Cc::Gt,
            },
        ],
        &[4, 9],
    );
    assert_eq!(v, 9, "max(4,9)");
}

#[test]
fn sub_width_loads_and_stores() {
    // Store a qword in the frame, read back a byte / halfword / word.
    let mem = AMem {
        base: X(29),
        off: 0,
    };
    let v = run_int(
        vec![
            AInst::MovImm {
                rd: X(9),
                imm: 0x1122_3344_5566_7788,
            },
            AInst::Str {
                sz: Sz::X,
                rt: X(9),
                mem,
            },
            AInst::Ldr {
                sz: Sz::B,
                rt: X(0),
                mem: AMem {
                    base: X(29),
                    off: 1,
                },
            },
        ],
        &[0, 0],
    );
    assert_eq!(v, 0x77);
    let v = run_int(
        vec![
            AInst::MovImm {
                rd: X(9),
                imm: 0x1122_3344_5566_7788,
            },
            AInst::Str {
                sz: Sz::X,
                rt: X(9),
                mem,
            },
            AInst::Ldr {
                sz: Sz::H,
                rt: X(0),
                mem: AMem {
                    base: X(29),
                    off: 2,
                },
            },
        ],
        &[0, 0],
    );
    assert_eq!(v, 0x5566, "little-endian halfword at byte offset 2");
    // Sub-width store must leave neighbours intact.
    let v = run_int(
        vec![
            AInst::MovImm {
                rd: X(9),
                imm: 0x1122_3344_5566_7788,
            },
            AInst::Str {
                sz: Sz::X,
                rt: X(9),
                mem,
            },
            AInst::MovImm {
                rd: X(10),
                imm: 0xAB,
            },
            AInst::Str {
                sz: Sz::B,
                rt: X(10),
                mem: AMem {
                    base: X(29),
                    off: 3,
                },
            },
            AInst::Ldr {
                sz: Sz::X,
                rt: X(0),
                mem,
            },
        ],
        &[0, 0],
    );
    assert_eq!(v, 0x1122_3344_AB66_7788);
}

#[test]
fn fcmp_with_nan_sets_cv() {
    // fcmp NaN, 1.0 → unordered → vs true, gt false, mi false.
    let m = one_block_module(
        vec![
            AInst::FCmp {
                dp: true,
                dn: D(0),
                dm: D(1),
            },
            AInst::CSet {
                rd: X(0),
                cc: Cc::Vs,
            },
            AInst::CSet {
                rd: X(9),
                cc: Cc::Gt,
            },
            AInst::Alu {
                op: AluOp::Lsl,
                rd: X(9),
                rn: X(9),
                rm: X(9),
                ra: X::ZR,
            },
        ],
        ARet::Int,
    );
    let mut machine = ArmMachine::new(&m);
    let r = machine
        .run(0, &[], &[f64::NAN.to_bits(), 1.0f64.to_bits()])
        .unwrap();
    assert_eq!(r.ret, 1, "vs must be set for unordered");
}

#[test]
fn fp_roundtrip_through_registers() {
    let m = one_block_module(
        vec![
            AInst::Fp {
                op: FpOp::FMul,
                dp: true,
                dd: D(0),
                dn: D(0),
                dm: D(1),
            },
            AInst::FMovToX { rd: X(0), dn: D(0) },
            AInst::FMovFromX { dd: D(0), rn: X(0) },
        ],
        ARet::Fp,
    );
    let mut machine = ArmMachine::new(&m);
    let r = machine
        .run(0, &[], &[2.5f64.to_bits(), 4.0f64.to_bits()])
        .unwrap();
    assert_eq!(f64::from_bits(r.ret), 10.0);
}

#[test]
fn exclusive_reservation_semantics() {
    // stxr without a matching ldxr reservation fails (status 1).
    let m = one_block_module(
        vec![
            AInst::MovImm {
                rd: X(9),
                imm: 0x4000_0000,
            },
            AInst::MovImm { rd: X(10), imm: 7 },
            AInst::Stxr {
                sz: Sz::X,
                rs: X(0),
                rt: X(10),
                rn: X(9),
            },
        ],
        ARet::Int,
    );
    let mut machine = ArmMachine::new(&m);
    let r = machine.run(0, &[], &[]).unwrap();
    assert_eq!(r.ret, 1, "stxr with no reservation must fail");
    assert_ne!(
        machine.mem.read_u64(0x4000_0000),
        7,
        "failed stxr must not write"
    );
}

#[test]
fn printer_forms() {
    let m = AModule {
        funcs: vec![AFunc {
            name: "p".into(),
            int_params: 0,
            fp_params: 0,
            frame_size: 16,
            ret: ARet::Void,
            blocks: vec![ABlock {
                insts: vec![
                    AInst::MovImm { rd: X(0), imm: 42 },
                    AInst::Ldr {
                        sz: Sz::W,
                        rt: X(1),
                        mem: AMem { base: X(0), off: 4 },
                    },
                    AInst::Str {
                        sz: Sz::B,
                        rt: X(1),
                        mem: AMem { base: X(0), off: 0 },
                    },
                    AInst::DmbI { kind: Dmb::Ld },
                    AInst::DmbI { kind: Dmb::Ff },
                    AInst::Ldxr {
                        sz: Sz::X,
                        rt: X(2),
                        rn: X(0),
                    },
                    AInst::Stxr {
                        sz: Sz::X,
                        rs: X(3),
                        rt: X(2),
                        rn: X(0),
                    },
                    AInst::Bl {
                        callee: ACallee::Extern(0),
                    },
                ],
                term: Some(ATerm::Cbnz {
                    rn: X(3),
                    then: Blk(0),
                    els: Blk(0),
                }),
            }],
        }],
        externs: vec!["malloc".into()],
        globals: vec![],
    };
    let text = lasagne_armgen::print::print_module(&m);
    assert!(text.contains("mov x0, #0x2a"));
    assert!(text.contains("ldr w1, [x0, #4]"));
    assert!(text.contains("strb w1, [x0]"));
    assert!(text.contains("dmb ishld"));
    assert!(text.contains("dmb ish\n"));
    assert!(text.contains("ldxr x2, [x0]"));
    assert!(text.contains("stxr w3, x2, [x0]"));
    assert!(text.contains("bl malloc"));
    assert!(text.contains("cbnz x3, .L0"));
}

/// A module whose `t` calls extern `name` with `x0 = 0x1000`, where
/// global 0 (`bytes`) lives, and the caller's other argument registers.
fn extern_call_module(name: &str, bytes: &[u8], calls: usize) -> AModule {
    let mut insts = Vec::new();
    for _ in 0..calls {
        insts.push(AInst::AdrGlobal {
            rd: X(0),
            global: 0,
        });
        insts.push(AInst::Bl {
            callee: ACallee::Extern(0),
        });
    }
    let mut m = one_block_module(insts, ARet::Int);
    m.externs = vec![name.into()];
    m.globals = vec![("g".into(), 0x1000, 256, bytes.to_vec())];
    m
}

#[test]
fn printf_with_more_conversions_than_registers_reads_zeros() {
    // x1–x7 and d0–d7 carry the arguments; later conversions read 0
    // instead of indexing past the register file.
    let ints = format!("{}\0", "%d ".repeat(32));
    let m = extern_call_module("printf", ints.as_bytes(), 1);
    let r = ArmMachine::new(&m)
        .run(0, &[0, 1, 2, 3, 4, 5, 6, 7], &[])
        .unwrap();
    assert_eq!(r.output, format!("1 2 3 4 5 6 7 {}", "0 ".repeat(25)));

    let floats = format!("{}\0", "%f ".repeat(33));
    let m = extern_call_module("printf", floats.as_bytes(), 1);
    let r = ArmMachine::new(&m)
        .run(0, &[], &[1.5f64.to_bits(), 2.5f64.to_bits()])
        .unwrap();
    let want = format!("1.500000 2.500000 {}", "0.000000 ".repeat(31));
    assert_eq!(r.output, want);
}

#[test]
fn locking_a_held_mutex_traps() {
    // Under sequential fork–join a second lock can never be released:
    // every executor reports the deadlock instead of returning 0.
    let m = extern_call_module("pthread_mutex_lock", &[], 2);
    let err = ArmMachine::new(&m).run(0, &[], &[]).unwrap_err();
    assert_eq!(
        err.to_string(),
        "trap: deadlock: mutex 0x1000 locked twice under sequential fork-join"
    );
    let once = extern_call_module("pthread_mutex_lock", &[], 1);
    assert_eq!(ArmMachine::new(&once).run(0, &[], &[]).unwrap().ret, 0);
}

fn add_imm(rd: X, imm: i32) -> AInst {
    AInst::AddImm { rd, rn: rd, imm }
}

/// `main` (function 0) calls function 1, a three-trip loop, and extern
/// `strlen` on global 0 (`"abc"`), then returns `(3 + 100) * 2` from a
/// second block. It takes 16 steps: 7 in `main`'s first block, 1 + 3 * 2
/// in the loop (a `cbnz` is retired but takes no step) and 2 in `main`'s
/// second block.
fn call_chain_module() -> AModule {
    let block = |insts, term| ABlock {
        insts,
        term: Some(term),
    };
    let func = |name: &str, blocks| AFunc {
        name: name.into(),
        int_params: 0,
        fp_params: 0,
        frame_size: 16,
        ret: ARet::Int,
        blocks,
    };
    let main = func(
        "main",
        vec![
            block(
                vec![
                    AInst::MovImm { rd: X(0), imm: 5 },
                    add_imm(X(0), 1),
                    AInst::Bl {
                        callee: ACallee::Func(1),
                    },
                    AInst::MovImm { rd: X(1), imm: 9 },
                    AInst::AdrGlobal {
                        rd: X(0),
                        global: 0,
                    },
                    AInst::Bl {
                        callee: ACallee::Extern(0),
                    },
                    add_imm(X(0), 100),
                ],
                ATerm::B(Blk(1)),
            ),
            block(
                vec![
                    AInst::MovReg { rd: X(2), rm: X(0) },
                    AInst::Alu {
                        op: AluOp::Add,
                        rd: X(0),
                        rn: X(0),
                        rm: X(2),
                        ra: X::ZR,
                    },
                ],
                ATerm::Ret,
            ),
        ],
    );
    let looped = func(
        "loop",
        vec![
            block(vec![AInst::MovImm { rd: X(9), imm: 3 }], ATerm::B(Blk(1))),
            block(
                vec![add_imm(X(9), -1), add_imm(X(10), 1)],
                ATerm::Cbnz {
                    rn: X(9),
                    then: Blk(1),
                    els: Blk(2),
                },
            ),
            block(vec![], ATerm::Ret),
        ],
    );
    AModule {
        funcs: vec![main, looped],
        externs: vec!["strlen".into()],
        globals: vec![("g".into(), 0x1000, 16, b"abc\0".to_vec())],
    }
}

#[test]
fn a_step_limit_of_exactly_the_step_count_completes() {
    const STEPS: u64 = 16;
    let m = call_chain_module();
    let unlimited = ArmMachine::new(&m).run(0, &[], &[]).unwrap();
    assert_eq!(unlimited.ret, 206);
    assert_eq!(unlimited.stats.insts, STEPS + 3, "plus three cbnz");
    for limit in 0..STEPS + 3 {
        let mut machine = ArmMachine::new(&m);
        machine.set_step_limit(limit);
        let got = machine.run(0, &[], &[]);
        if limit < STEPS {
            assert_eq!(got, Err(ArmError::StepLimit), "limit {limit}");
        } else {
            assert_eq!(got.as_ref(), Ok(&unlimited), "limit {limit}");
        }
    }
}

#[test]
fn an_extern_trap_at_step_k_needs_a_limit_of_k() {
    // `main` is `bl t; mov x0, #1`, and `t` locks one mutex twice:
    // `bl`, then `adr`, `bl`, `adr`, `bl` in `t`, whose second lock traps
    // at step 5 while `main`'s `mov` has yet to run.
    const K: u64 = 5;
    let mut m = extern_call_module("pthread_mutex_lock", &[], 2);
    let mut main = m.funcs[0].clone();
    main.name = "main".into();
    main.blocks[0].insts = vec![
        AInst::Bl {
            callee: ACallee::Func(1),
        },
        AInst::MovImm { rd: X(0), imm: 1 },
    ];
    m.funcs.insert(0, main);
    let trap =
        ArmError::Trap("deadlock: mutex 0x1000 locked twice under sequential fork-join".into());
    for limit in K - 2..=K + 2 {
        let mut machine = ArmMachine::new(&m);
        machine.set_step_limit(limit);
        let want = if limit < K {
            ArmError::StepLimit
        } else {
            trap.clone()
        };
        assert_eq!(machine.run(0, &[], &[]), Err(want), "limit {limit}");
    }
}

/// Runs `f` on a thread with a 2 MiB stack, the default for spawned
/// threads, and returns its result, failing if it takes longer than a
/// minute.
fn on_small_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let thread = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || tx.send(f()).unwrap())
        .unwrap();
    let got = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the machine stops");
    thread.join().unwrap();
    got
}

fn func(name: &str, blocks: Vec<ABlock>) -> AFunc {
    AFunc {
        name: name.into(),
        int_params: 1,
        fp_params: 0,
        frame_size: 16,
        ret: ARet::Int,
        blocks,
    }
}

fn block(insts: Vec<AInst>, term: ATerm) -> ABlock {
    ABlock {
        insts,
        term: Some(term),
    }
}

#[test]
fn a_cycle_of_empty_blocks_stops_at_the_step_limit() {
    // `b .`: no step is ever taken, so only spotting the cycle can stop it.
    let spin = AModule {
        funcs: vec![func("spin", vec![block(vec![], ATerm::B(Blk(0)))])],
        externs: vec![],
        globals: vec![],
    };
    let (err, stats) = on_small_thread(move || {
        let mut m = ArmMachine::new(&spin);
        m.set_step_limit(100);
        (m.run(0, &[], &[]), m.stats())
    });
    assert_eq!(err, Err(ArmError::StepLimit));
    assert_eq!((stats.insts, stats.cycles), (0, 0));

    // One step, then a `cbnz` loop of empty blocks that `x0` decides to
    // enter or not; a `cbnz` retires without a step.
    let looped = AModule {
        funcs: vec![func(
            "looped",
            vec![
                block(vec![add_imm(X(0), 0)], ATerm::B(Blk(1))),
                block(
                    vec![],
                    ATerm::Cbnz {
                        rn: X(0),
                        then: Blk(2),
                        els: Blk(3),
                    },
                ),
                block(vec![], ATerm::B(Blk(1))),
                block(vec![], ATerm::Ret),
            ],
        )],
        externs: vec![],
        globals: vec![],
    };
    let (spins, exits) = on_small_thread(move || {
        let mut m = ArmMachine::new(&looped);
        let spins = (m.run(0, &[1], &[]), m.stats());
        let exits = ArmMachine::new(&looped).run(0, &[0], &[]);
        (spins, exits)
    });
    assert_eq!(spins.0, Err(ArmError::StepLimit));
    assert!(spins.1.insts > 1, "the cbnz retires on every trip");
    let exits = exits.unwrap();
    assert_eq!((exits.stats.insts, exits.stats.cycles), (2, 2));
}

/// `count(n)` calls itself `n` deep and returns `n`, counting the returns
/// in `x1`.
fn count_func() -> AFunc {
    func(
        "count",
        vec![
            block(
                vec![],
                ATerm::Cbnz {
                    rn: X(0),
                    then: Blk(1),
                    els: Blk(2),
                },
            ),
            block(
                vec![
                    add_imm(X(0), -1),
                    AInst::Bl {
                        callee: ACallee::Func(0),
                    },
                    add_imm(X(1), 1),
                ],
                ATerm::B(Blk(2)),
            ),
            block(vec![AInst::MovReg { rd: X(0), rm: X(1) }], ATerm::Ret),
        ],
    )
}

#[test]
fn deep_guest_recursion_traps_instead_of_overflowing_the_host_stack() {
    let m = AModule {
        funcs: vec![count_func()],
        externs: vec![],
        globals: vec![],
    };
    let deepest = MAX_FRAMES as u64 - 1;
    let (fits, too_deep) = on_small_thread(move || {
        let fits = ArmMachine::new(&m).run(0, &[deepest], &[]).map(|r| r.ret);
        let too_deep = ArmMachine::new(&m).run(0, &[100_000], &[]);
        (fits, too_deep)
    });
    assert_eq!(fits, Ok(deepest));
    assert_eq!(
        too_deep,
        Err(ArmError::Trap("guest stack overflow calling @count".into()))
    );
}

#[test]
fn deep_recursion_in_a_spawned_thread_traps() {
    // `main` spawns `count(100000)` with `pthread_create(&tid, 0, count, n)`.
    let main = func(
        "main",
        vec![block(
            vec![
                AInst::AdrGlobal {
                    rd: X(0),
                    global: 0,
                },
                AInst::MovImm { rd: X(1), imm: 0 },
                AInst::AdrFunc { rd: X(2), func: 1 },
                AInst::MovImm {
                    rd: X(3),
                    imm: 100_000,
                },
                AInst::Bl {
                    callee: ACallee::Extern(0),
                },
            ],
            ATerm::Ret,
        )],
    );
    let m = AModule {
        funcs: vec![main, count_func()],
        externs: vec!["pthread_create".into()],
        globals: vec![("tid".into(), 0x1000, 8, vec![0; 8])],
    };
    let got = on_small_thread(move || ArmMachine::new(&m).run(0, &[], &[]));
    assert_eq!(
        got,
        Err(ArmError::Trap("guest stack overflow calling @count".into()))
    );
}
