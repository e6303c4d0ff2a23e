//! Edge cases of the byte-level interpreter's control flow, each pinned to
//! its exact result or error and its exact statistics: a jump into the
//! middle of code already run, undecodable bytes and the end of `.text`
//! after valid instructions, traps in the middle of a block, a tail call
//! through a PLT stub, a thread body that spawns a thread itself, and a
//! `jmp .` stopped by the step limit.

use lasagne_lir::interp::runtime::Extern;
use lasagne_lir::interp::HEAP_BASE;
use lasagne_x86::asm::Asm;
use lasagne_x86::binary::{Binary, BinaryBuilder};
use lasagne_x86::inst::{AluOp, Inst, MemRef, MulDivOp, Rm, ShiftOp, Target};
use lasagne_x86::reg::{Cond, Gpr, Width, Xmm};
use lasagne_x86::{encode, X86Error, X86Machine, X86RunResult, X86Stats};

/// Encodes `insts` back to back from `at`.
fn bytes(insts: &[Inst], at: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for i in insts {
        let here = at + out.len() as u64;
        encode(i, here, &mut out).expect("encodable");
    }
    out
}

/// Adds `insts` as a function named `name`; returns its address.
fn add(bin: &mut BinaryBuilder, name: &str, insts: &[Inst]) -> u64 {
    let at = bin.next_function_addr();
    let code = bytes(insts, at);
    bin.add_function(name, code)
}

fn mov_ri(dst: Gpr, imm: i32) -> Inst {
    Inst::MovRmI {
        w: Width::W64,
        dst: Rm::Reg(dst),
        imm,
    }
}

fn alu_ri(op: AluOp, dst: Gpr, imm: i32) -> Inst {
    Inst::AluRmI {
        op,
        w: Width::W64,
        dst: Rm::Reg(dst),
        imm,
    }
}

fn alu_rr(op: AluOp, dst: Gpr, src: Gpr) -> Inst {
    Inst::AluRRm {
        op,
        w: Width::W64,
        dst,
        src: Rm::Reg(src),
    }
}

fn run(bin: &Binary, limit: Option<u64>) -> (Result<X86RunResult, X86Error>, X86Stats) {
    let mut m = X86Machine::new(bin);
    if let Some(limit) = limit {
        m.set_step_limit(limit);
    }
    let r = m.run("f", &[], &[]);
    (r, m.stats())
}

fn stats(insts: u64, cycles: u64, loads: u64, stores: u64) -> X86Stats {
    X86Stats {
        insts,
        loads,
        stores,
        cycles,
        ..X86Stats::default()
    }
}

#[test]
fn a_jump_into_the_middle_of_code_already_run_decodes_the_bytes_there() {
    // `movabs rax, imm` whose immediate is itself `add rax, 5` and four
    // `nop`s. The first pass runs it as one instruction; the `jl` then
    // lands two bytes into it and runs what the immediate encodes.
    let mut imm = bytes(&[alu_ri(AluOp::Add, Gpr::Rax, 5)], 0);
    imm.resize(8, 0x90);
    let imm = u64::from_le_bytes(imm.try_into().unwrap());
    let mut bin = BinaryBuilder::new();
    let at = bin.next_function_addr();
    let head = bytes(&[mov_ri(Gpr::Rcx, 0)], at);
    let movabs = at + head.len() as u64;
    let into = movabs + 2;
    let code = bytes(
        &[
            mov_ri(Gpr::Rcx, 0),
            Inst::MovAbs { dst: Gpr::Rax, imm },
            alu_ri(AluOp::Add, Gpr::Rcx, 1),
            alu_ri(AluOp::Cmp, Gpr::Rcx, 2),
            Inst::Jcc {
                cc: Cond::L,
                target: Target::Abs(into),
            },
            Inst::Ret,
        ],
        at,
    );
    bin.add_function("f", code);
    let bin = bin.finish();
    let (r, s) = run(&bin, None);
    let r = r.expect("runs");
    assert_eq!(r.ret, imm + 5);
    // 5 instructions, then `add`, 4 `nop`s, `add`, `cmp`, `jl`, `ret`.
    assert_eq!(s, stats(14, 17, 1, 0));
    assert_eq!(r.stats, s);
}

#[test]
fn undecodable_bytes_after_valid_instructions_fail_on_the_next_step() {
    let mut bin = BinaryBuilder::new();
    let at = bin.next_function_addr();
    let mut code = bytes(
        &[
            mov_ri(Gpr::Rax, 7),
            Inst::Push { src: Gpr::Rax },
            alu_ri(AluOp::Add, Gpr::Rax, 1),
        ],
        at,
    );
    let bad = at + code.len() as u64;
    code.push(0x06);
    bin.add_function("f", code);
    let bin = bin.finish();
    let want = X86Error::Decode(format!("at {bad:#x}: unsupported opcode 0x06 at {bad:#x}"));
    let (r, s) = run(&bin, None);
    assert_eq!(r, Err(want.clone()));
    assert_eq!(s, stats(3, 6, 0, 1));
    // A budget of exactly the valid instructions stops before the decode.
    let (r, s) = run(&bin, Some(3));
    assert_eq!(r, Err(X86Error::StepLimit));
    assert_eq!(s, stats(3, 6, 0, 1));
    let (r, _) = run(&bin, Some(4));
    assert_eq!(r, Err(want));
    // One step short stops after the `push`.
    let (r, s) = run(&bin, Some(2));
    assert_eq!(r, Err(X86Error::StepLimit));
    assert_eq!(s, stats(2, 5, 0, 1));
}

#[test]
fn running_off_the_end_of_text_is_a_bad_call_on_the_next_step() {
    let mut bin = BinaryBuilder::new();
    add(&mut bin, "f", &[mov_ri(Gpr::Rax, 1), mov_ri(Gpr::Rcx, 2)]);
    let bin = bin.finish();
    let end = bin.text_base + bin.text.len() as u64;
    let want = X86Error::BadCall(format!("rip {end:#x} outside text"));
    let (r, s) = run(&bin, None);
    assert_eq!(r, Err(want));
    assert_eq!(s, stats(2, 2, 0, 0));
    let (r, s) = run(&bin, Some(2));
    assert_eq!(r, Err(X86Error::StepLimit));
    assert_eq!(s, stats(2, 2, 0, 0));
}

#[test]
fn ud2_in_the_middle_of_a_block_traps_after_its_step() {
    let mut bin = BinaryBuilder::new();
    add(
        &mut bin,
        "f",
        &[
            mov_ri(Gpr::Rax, 1),
            Inst::Push { src: Gpr::Rax },
            Inst::Ud2,
            mov_ri(Gpr::Rax, 2),
            Inst::Ret,
        ],
    );
    let bin = bin.finish();
    let (r, s) = run(&bin, None);
    assert_eq!(r, Err(X86Error::Trap("ud2".to_string())));
    assert_eq!(s, stats(3, 6, 0, 1));
    let (r, s) = run(&bin, Some(2));
    assert_eq!(r, Err(X86Error::StepLimit));
    assert_eq!(s, stats(2, 5, 0, 1));
}

#[test]
fn division_by_zero_in_the_middle_of_a_block_traps_after_its_step() {
    let mut bin = BinaryBuilder::new();
    add(
        &mut bin,
        "f",
        &[
            mov_ri(Gpr::Rax, 7),
            mov_ri(Gpr::Rcx, 0),
            Inst::Cqo { w: Width::W64 },
            Inst::MulDiv {
                op: MulDivOp::IDiv,
                w: Width::W64,
                src: Rm::Reg(Gpr::Rcx),
            },
            mov_ri(Gpr::Rax, 2),
            Inst::Ret,
        ],
    );
    let bin = bin.finish();
    let (r, s) = run(&bin, None);
    assert_eq!(r, Err(X86Error::Trap("division by zero".to_string())));
    assert_eq!(s, stats(4, 23, 0, 0));
    let (r, s) = run(&bin, Some(3));
    assert_eq!(r, Err(X86Error::StepLimit));
    assert_eq!(s, stats(3, 3, 0, 0));
}

#[test]
fn a_tail_call_through_a_plt_stub_returns_to_the_caller() {
    let mut bin = BinaryBuilder::new();
    let malloc = bin.declare_extern(Extern::Malloc.name());
    let g = add(
        &mut bin,
        "g",
        &[
            mov_ri(Gpr::Rdi, 24),
            Inst::Jmp {
                target: Target::Abs(malloc),
            },
        ],
    );
    add(
        &mut bin,
        "f",
        &[
            Inst::Call {
                target: Target::Abs(g),
            },
            alu_ri(AluOp::Add, Gpr::Rax, 3),
            Inst::Ret,
        ],
    );
    let bin = bin.finish();
    let (r, s) = run(&bin, None);
    let r = r.expect("runs");
    assert_eq!(r.ret, HEAP_BASE + 3);
    assert_eq!(s, r.stats);
    assert_eq!(s.insts, 5);
    assert_eq!((s.loads, s.stores), (1, 1));
    // The malloc's own cycles come on top of the 5 instructions'.
    assert_eq!(s.cycles, 11 + malloc_cycles());
    let (r, s) = run(&bin, Some(2));
    assert_eq!(r, Err(X86Error::StepLimit));
    assert_eq!(s, stats(2, 5, 0, 1));
}

/// The cycles a 24-byte `malloc` charges on top of its call instruction.
fn malloc_cycles() -> u64 {
    let mut bin = BinaryBuilder::new();
    let malloc = bin.declare_extern(Extern::Malloc.name());
    add(
        &mut bin,
        "f",
        &[
            mov_ri(Gpr::Rdi, 24),
            Inst::Call {
                target: Target::Abs(malloc),
            },
            Inst::Ret,
        ],
    );
    let bin = bin.finish();
    // `mov` 1, `call` 4, `ret` 4.
    run(&bin, None).0.expect("runs").stats.cycles - 9
}

#[test]
fn a_thread_that_spawns_a_thread_leaves_its_parent_intact() {
    let mut bin = BinaryBuilder::new();
    let spawn = bin.declare_extern(Extern::PthreadCreate.name());
    let tids = bin.add_global("tids", 16, Vec::new());
    let out = bin.add_global("out", 16, Vec::new());
    let tid_at = |i: i32| Inst::MovRmI {
        w: Width::W64,
        dst: Rm::Reg(Gpr::Rdi),
        imm: tids as i32 + 8 * i,
    };
    let clobber = |v: i32| {
        [
            mov_ri(Gpr::Rbx, v),
            mov_ri(Gpr::R12, v),
            Inst::MovGprToXmm {
                w: Width::W64,
                dst: Xmm(3),
                src: Gpr::Rbx,
            },
            // ZF set, CF and SF clear.
            alu_rr(AluOp::Cmp, Gpr::Rbx, Gpr::R12),
        ]
    };
    let mut grandchild = clobber(0x33).to_vec();
    grandchild.push(Inst::MovRmR {
        w: Width::W64,
        dst: Rm::Mem(MemRef::abs(out + 8)),
        src: Gpr::Rdi,
    });
    grandchild.push(Inst::Ret);
    let grandchild = add(&mut bin, "grandchild", &grandchild);
    let mut child = clobber(0x22).to_vec();
    child.extend([
        Inst::MovRmR {
            w: Width::W64,
            dst: Rm::Mem(MemRef::abs(out)),
            src: Gpr::Rdi,
        },
        tid_at(1),
        mov_ri(Gpr::Rdx, grandchild as i32),
        mov_ri(Gpr::Rcx, 0x5678),
        Inst::Call {
            target: Target::Abs(spawn),
        },
        // Clobber again after the spawn returns.
        mov_ri(Gpr::Rbx, 0x44),
        Inst::Ret,
    ]);
    let child = add(&mut bin, "child", &child);
    add(
        &mut bin,
        "f",
        &[
            mov_ri(Gpr::Rbx, 0x1000),
            mov_ri(Gpr::R12, 0x200),
            mov_ri(Gpr::R8, 0),
            mov_ri(Gpr::R9, 0),
            Inst::MovGprToXmm {
                w: Width::W64,
                dst: Xmm(3),
                src: Gpr::R12,
            },
            // 1 - 2: CF and SF set, ZF clear.
            mov_ri(Gpr::Rax, 1),
            alu_ri(AluOp::Cmp, Gpr::Rax, 2),
            tid_at(0),
            mov_ri(Gpr::Rdx, child as i32),
            mov_ri(Gpr::Rcx, 0x1234),
            Inst::Call {
                target: Target::Abs(spawn),
            },
            Inst::Setcc {
                cc: Cond::B,
                dst: Rm::Reg(Gpr::R8),
            },
            Inst::Setcc {
                cc: Cond::S,
                dst: Rm::Reg(Gpr::R9),
            },
            // rax = 0 (pthread_create's result) + rbx + r12 + xmm3
            //     + r8 << 16 + r9 << 20.
            alu_rr(AluOp::Add, Gpr::Rax, Gpr::Rbx),
            alu_rr(AluOp::Add, Gpr::Rax, Gpr::R12),
            Inst::MovXmmToGpr {
                w: Width::W64,
                dst: Gpr::Rsi,
                src: Xmm(3),
            },
            alu_rr(AluOp::Add, Gpr::Rax, Gpr::Rsi),
            Inst::ShiftI {
                op: ShiftOp::Shl,
                w: Width::W64,
                dst: Rm::Reg(Gpr::R8),
                imm: 16,
            },
            alu_rr(AluOp::Add, Gpr::Rax, Gpr::R8),
            Inst::ShiftI {
                op: ShiftOp::Shl,
                w: Width::W64,
                dst: Rm::Reg(Gpr::R9),
                imm: 20,
            },
            alu_rr(AluOp::Add, Gpr::Rax, Gpr::R9),
            Inst::Ret,
        ],
    );
    let bin = bin.finish();
    let mut m = X86Machine::new(&bin);
    let r = m.run("f", &[], &[]).expect("runs");
    assert_eq!(r.ret, 0x1000 + 0x200 + 0x200 + (1 << 16) + (1 << 20));
    assert_eq!(m.mem.read_u64(tids), 1);
    assert_eq!(m.mem.read_u64(tids + 8), 2);
    // Each thread got its own argument in RDI.
    assert_eq!(m.mem.read_u64(out), 0x1234);
    assert_eq!(m.mem.read_u64(out + 8), 0x5678);
    // `f` retires 22 instructions, the child 11 and the grandchild 6; each
    // `call` is a store, each `ret` a load.
    assert_eq!(r.stats, stats(39, 60, 3, 4));
    // The child's cycles include its own child's.
    assert_eq!(r.thread_cycles, vec![32, 12]);
    assert_eq!(r.critical_path_cycles(), 48);
    // Every smaller budget, in any of the three threads, stops after
    // exactly that many instructions.
    for k in 0..39 {
        let mut m = X86Machine::new(&bin);
        m.set_step_limit(k);
        assert_eq!(m.run("f", &[], &[]), Err(X86Error::StepLimit), "{k}");
        assert_eq!(m.stats().insts, k);
    }
    let mut m = X86Machine::new(&bin);
    m.set_step_limit(39);
    assert_eq!(m.run("f", &[], &[]), Ok(r));
}

#[test]
fn jmp_to_itself_stops_at_exactly_the_step_limit() {
    let mut bin = BinaryBuilder::new();
    let mut a = Asm::new();
    let top = a.label();
    a.push(mov_ri(Gpr::Rax, 1));
    a.bind(top);
    a.jmp(top);
    let at = bin.next_function_addr();
    bin.add_function("f", a.finish(at).unwrap());
    let bin = bin.finish();
    for limit in [0, 1, 2, 1000] {
        let (r, s) = run(&bin, Some(limit));
        assert_eq!(r, Err(X86Error::StepLimit), "limit {limit}");
        assert_eq!(s, stats(limit, limit, 0, 0), "limit {limit}");
    }
}
