//! Large-function robustness: one function of about ten thousand x86
//! instructions must translate under the full pipeline in bounded time
//! and agree with the byte-level x86 interpreter.
//!
//! The IR rewriting passes (register promotion, `sroa`, `gvn`,
//! `instcombine`) once rescanned the whole function for every slot or
//! replaced value, which made this shape take 15.6 s through
//! `Pipeline::run` under PPOpt in a release build (12.5 s in the lift,
//! 2.6 s in `gvn`), and 21–24 s on a shared 2-CPU x86-64 host (17.6 s in
//! the lift, 3.4 s in `gvn`). They now cost time proportional to the
//! uses they rewrite: on that 2-CPU host the same translation takes about
//! 0.14 s in a release build and 0.55 s in a test build.

use std::time::{Duration, Instant};

use lasagne_repro::lir::interp::{Machine, Val};
use lasagne_repro::phoenix::builders::{alui, alurr, cmprr, movrr};
use lasagne_repro::translator::{Pipeline, Version};
use lasagne_repro::x86::asm::Asm;
use lasagne_repro::x86::binary::{Binary, BinaryBuilder};
use lasagne_repro::x86::inst::{AluOp, Inst};
use lasagne_repro::x86::reg::{Cond, Gpr};
use lasagne_repro::x86::X86Machine;

/// If-then shapes in the function; five instructions each.
const DIAMONDS: usize = 2_000;

/// Wall budget for the translation in an unoptimised test build: about
/// ten times the 0.55 s it takes there.
const BUDGET: Duration = Duration::from_secs(6);

/// `big(a, b)`: `rax = a`, then per diamond `rax += a; rax ^= k;
/// if rax <= b { rax -= b }`, then return `rax`. 10 002 instructions.
fn big_binary() -> Binary {
    let mut a = Asm::new();
    a.push(movrr(Gpr::Rax, Gpr::Rdi));
    for i in 0..DIAMONDS {
        let skip = a.label();
        a.push(alurr(AluOp::Add, Gpr::Rax, Gpr::Rdi));
        a.push(alui(
            AluOp::Xor,
            Gpr::Rax,
            (i as i32).wrapping_mul(0x9e37) & 0x7fff_ffff,
        ));
        a.push(cmprr(Gpr::Rax, Gpr::Rsi));
        a.jcc(Cond::A, skip);
        a.push(alurr(AluOp::Sub, Gpr::Rax, Gpr::Rsi));
        a.bind(skip);
    }
    a.push(Inst::Ret);
    let mut bin = BinaryBuilder::new();
    let addr = bin.next_function_addr();
    bin.add_function("big", a.finish(addr).expect("assemble"));
    bin.finish()
}

#[test]
fn ten_thousand_instruction_function_translates_in_bounded_time() {
    let bin = big_binary();
    let start = Instant::now();
    let (t, _) = Pipeline::new(Version::PPOpt)
        .run(&bin)
        .expect("PPOpt translation");
    let took = start.elapsed();
    assert!(
        took < BUDGET,
        "translating one {}-diamond function took {took:?} (budget {BUDGET:?})",
        DIAMONDS
    );

    let id = t.module.func_by_name("big").expect("big");
    for args in [[7u64, 1 << 40], [0x1234_5678_9abc, 0x0fff_ffff]] {
        let want = X86Machine::new(&bin)
            .run("big", &args, &[])
            .expect("x86 run")
            .ret;
        let lir_args: Vec<Val> = args.iter().map(|a| Val::B64(*a)).collect();
        let got = Machine::new(&t.module)
            .run(id, &lir_args)
            .expect("LIR run")
            .ret
            .map(Val::bits);
        assert_eq!(got, Some(want), "big({args:?})");
    }
}
