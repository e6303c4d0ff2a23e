//! Malformed binary images get a defined outcome. The serve daemon accepts
//! arbitrary `Binary` images over its socket, so a symbol that does not
//! describe real code, or a branch that does not land on an instruction,
//! must come back from `Pipeline::run` as a typed `LiftError` under every
//! version, never as a panic.

use lasagne_repro::lifter::xcfg::CfgError;
use lasagne_repro::lifter::LiftError;
use lasagne_repro::translator::{Pipeline, Version};
use lasagne_repro::x86::asm::Asm;
use lasagne_repro::x86::binary::{Binary, BinaryBuilder};
use lasagne_repro::x86::inst::{Inst, Rm, Target};
use lasagne_repro::x86::reg::{Cond, Gpr, Width};

/// A one-function binary `f`: `mov rax, rdi`, then `tail(entry)`, then
/// `ret`.
fn binary(tail: impl Fn(u64) -> Option<Inst>) -> Binary {
    let mut b = BinaryBuilder::new();
    let addr = b.next_function_addr();
    let mut a = Asm::new();
    a.push(Inst::MovRRm {
        w: Width::W64,
        dst: Gpr::Rax,
        src: Rm::Reg(Gpr::Rdi),
    });
    if let Some(inst) = tail(addr) {
        a.push(inst);
    }
    a.push(Inst::Ret);
    b.add_function("f", a.finish(addr).unwrap());
    b.finish()
}

/// The well-formed binary with its one symbol rewritten by `edit`.
fn with_symbol(edit: impl Fn(&mut u64, &mut u64)) -> Binary {
    let mut bin = binary(|_| None);
    let f = &mut bin.functions[0];
    edit(&mut f.addr, &mut f.size);
    bin
}

fn bad_symbol(e: &LiftError) -> bool {
    matches!(e, LiftError::Symbol(name) if name == "f")
}

fn bad_branch(e: &LiftError) -> bool {
    matches!(
        e,
        LiftError::Cfg(CfgError::BranchIntoInstruction { target, .. })
            if *target == BinaryBuilder::TEXT_BASE + 1
    )
}

#[test]
fn malformed_symbols_and_branch_targets_are_lift_errors() {
    let text_base = BinaryBuilder::TEXT_BASE;
    let cases: [(&str, Binary, fn(&LiftError) -> bool); 6] = [
        (
            "symbol runs past the end of .text",
            with_symbol(|_, size| *size += 64),
            bad_symbol,
        ),
        (
            "symbol starts below text_base",
            with_symbol(|addr, _| *addr = text_base - 16),
            bad_symbol,
        ),
        (
            "symbol addr + size overflows",
            with_symbol(|_, size| *size = u64::MAX),
            bad_symbol,
        ),
        (
            "zero-size symbol",
            with_symbol(|_, size| *size = 0),
            bad_symbol,
        ),
        (
            "jmp rel32 into the middle of an instruction",
            binary(|entry| {
                Some(Inst::Jmp {
                    target: Target::Abs(entry + 1),
                })
            }),
            bad_branch,
        ),
        (
            "jz rel32 into the middle of an instruction",
            binary(|entry| {
                Some(Inst::Jcc {
                    cc: Cond::E,
                    target: Target::Abs(entry + 1),
                })
            }),
            bad_branch,
        ),
    ];
    // The untouched image translates, so each error is the edit's doing.
    Pipeline::new(Version::PPOpt)
        .run(&binary(|_| None))
        .expect("well-formed binary translates");
    for (shape, bin, expected) in &cases {
        for v in Version::ALL {
            match Pipeline::new(v).run(bin) {
                Ok(_) => panic!("{shape} ({v:?}): translated"),
                Err(e) => assert!(expected(&e), "{shape} ({v:?}): unexpected error {e}"),
            }
        }
    }
}
