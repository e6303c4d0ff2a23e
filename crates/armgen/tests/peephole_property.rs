//! Property test: the frame-slot peephole preserves the observable result
//! of randomly generated slot-traffic programs.
//!
//! Programs are straight-line sequences over four scratch registers and
//! four frame slots, mixing the exact instruction shapes the lowering
//! emits (slot loads/stores at 64-bit width, narrow stores, immediates,
//! ALU ops, barriers). The observation is a hash of every register and
//! every slot folded into `x0` at the end — so any forwarding or
//! dead-store mistake changes the returned value.

use lasagne_armgen::inst::{ABlock, AFunc, AInst, AMem, AModule, ARet, ATerm, AluOp, Dmb, Sz, X};
use lasagne_armgen::machine::ArmMachine;
use lasagne_armgen::peephole::peephole_function;
use lasagne_qc::collection;
use lasagne_qc::prelude::*;
use lasagne_trace::TraceCtx;

const FP: X = X(29);
const REGS: [X; 4] = [X(9), X(10), X(11), X(12)];
const SLOTS: [i32; 4] = [0, 16, 32, 48];

/// One step of a random program.
#[derive(Debug, Clone, Copy)]
enum Step {
    Store { r: usize, s: usize, narrow: bool },
    Load { r: usize, s: usize, narrow: bool },
    Imm { r: usize, v: u64 },
    Add { d: usize, a: usize, b: usize },
    Barrier,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..4usize, 0..4usize, any::<bool>()).prop_map(|(r, s, narrow)| Step::Store {
            r,
            s,
            narrow
        }),
        (0..4usize, 0..4usize, any::<bool>()).prop_map(|(r, s, narrow)| Step::Load {
            r,
            s,
            narrow
        }),
        (0..4usize, any::<u64>()).prop_map(|(r, v)| Step::Imm { r, v }),
        (0..4usize, 0..4usize, 0..4usize).prop_map(|(d, a, b)| Step::Add { d, a, b }),
        Just(Step::Barrier),
    ]
}

fn build(steps: &[Step]) -> AFunc {
    let mut insts = Vec::new();
    // Deterministic initial state: registers and slots all defined.
    for (i, r) in REGS.iter().enumerate() {
        insts.push(AInst::MovImm {
            rd: *r,
            imm: 0x1111_2222 * (i as u64 + 1),
        });
    }
    for (i, off) in SLOTS.iter().enumerate() {
        insts.push(AInst::MovImm {
            rd: X(13),
            imm: 0x9999_0000 + i as u64,
        });
        insts.push(AInst::Str {
            sz: Sz::X,
            rt: X(13),
            mem: AMem {
                base: FP,
                off: *off,
            },
        });
    }
    for st in steps {
        match *st {
            Step::Store { r, s, narrow } => insts.push(AInst::Str {
                sz: if narrow { Sz::W } else { Sz::X },
                rt: REGS[r],
                mem: AMem {
                    base: FP,
                    off: SLOTS[s],
                },
            }),
            Step::Load { r, s, narrow } => insts.push(AInst::Ldr {
                sz: if narrow { Sz::W } else { Sz::X },
                rt: REGS[r],
                mem: AMem {
                    base: FP,
                    off: SLOTS[s],
                },
            }),
            Step::Imm { r, v } => insts.push(AInst::MovImm {
                rd: REGS[r],
                imm: v,
            }),
            Step::Add { d, a, b } => insts.push(AInst::Alu {
                op: AluOp::Add,
                rd: REGS[d],
                rn: REGS[a],
                rm: REGS[b],
                ra: X::ZR,
            }),
            Step::Barrier => insts.push(AInst::DmbI { kind: Dmb::Ff }),
        }
    }
    // Observation: fold every register and slot into x0.
    insts.push(AInst::MovImm { rd: X(0), imm: 0 });
    for r in REGS {
        insts.push(AInst::Alu {
            op: AluOp::Eor,
            rd: X(0),
            rn: X(0),
            rm: r,
            ra: X::ZR,
        });
        // Rotate-ish mix so ordering matters: x0 = x0*3 (via add) xor r.
        insts.push(AInst::Alu {
            op: AluOp::Add,
            rd: X(0),
            rn: X(0),
            rm: X(0),
            ra: X::ZR,
        });
    }
    for off in SLOTS {
        insts.push(AInst::Ldr {
            sz: Sz::X,
            rt: X(13),
            mem: AMem { base: FP, off },
        });
        insts.push(AInst::Alu {
            op: AluOp::Eor,
            rd: X(0),
            rn: X(0),
            rm: X(13),
            ra: X::ZR,
        });
        insts.push(AInst::Alu {
            op: AluOp::Add,
            rd: X(0),
            rn: X(0),
            rm: X(0),
            ra: X::ZR,
        });
    }
    AFunc {
        name: "prog".into(),
        int_params: 0,
        fp_params: 0,
        frame_size: 64,
        ret: ARet::Int,
        blocks: vec![ABlock {
            insts,
            term: Some(ATerm::Ret),
        }],
    }
}

fn eval(f: AFunc) -> u64 {
    let m = AModule {
        funcs: vec![f],
        externs: vec![],
        globals: vec![],
    };
    let mut arm = ArmMachine::new(&m);
    arm.run(0, &[], &[])
        .expect("straight-line program runs")
        .ret
}

properties! {
    config = Config::with_cases(256);

    fn peephole_preserves_observable_state(steps in collection::vec(step(), 0..40)) {
        let raw = build(&steps);
        let mut cleaned = raw.clone();
        let _ = peephole_function(&mut cleaned, &TraceCtx::disabled());
        prop_assert_eq!(eval(raw), eval(cleaned));
    }

    fn peephole_never_grows_code(steps in collection::vec(step(), 0..40)) {
        let raw = build(&steps);
        let mut cleaned = raw.clone();
        let _ = peephole_function(&mut cleaned, &TraceCtx::disabled());
        prop_assert!(cleaned.blocks[0].insts.len() <= raw.blocks[0].insts.len());
    }
}

/// The generated observation must be sensitive to register and slot
/// differences (sanity check of the harness itself).
#[test]
fn observation_distinguishes_states() {
    let a = build(&[Step::Imm { r: 0, v: 1 }]);
    let b = build(&[Step::Imm { r: 0, v: 2 }]);
    assert_ne!(eval(a), eval(b));
    let c = build(&[
        Step::Imm { r: 0, v: 1 },
        Step::Store {
            r: 0,
            s: 2,
            narrow: false,
        },
    ]);
    let d = build(&[Step::Imm { r: 0, v: 1 }]);
    assert_ne!(eval(c), eval(d));
}
