//! The decoded machine against the per-step reference
//! (`interp::reference`) on generated binaries: straight-line code of
//! every kind the machine charges, branches and jumps to any instruction
//! or into the middle of one, direct, indirect and tail calls into the
//! text and to extern stubs (nested `pthread_create` among them), traps,
//! undecodable bytes, falling off the end of `.text` and random step
//! limits. Results, errors, statistics, registers, flags and guest memory
//! must agree, over two runs of one machine (the second reuses its runs).

use super::{X86Error, X86Machine, X86RunResult};
use crate::asm::Asm;
use crate::binary::{Binary, BinaryBuilder};
use crate::encode::encode;
use crate::inst::{AluOp, FpPrec, Inst, MemRef, MulDivOp, Rm, ShiftOp, SseOp, Target, XmmRm};
use crate::reg::{Cond, Gpr, Width, Xmm};
use lasagne_lir::interp::runtime::Extern;
use lasagne_lir::interp::STACK_TOP;
use lasagne_qc::collection;
use lasagne_qc::prelude::*;

/// The registers generated code names; RSP is left to calls and pushes.
const REGS: [Gpr; 9] = [
    Gpr::Rax,
    Gpr::Rcx,
    Gpr::Rdx,
    Gpr::Rbx,
    Gpr::Rsi,
    Gpr::Rdi,
    Gpr::R8,
    Gpr::R9,
    Gpr::R12,
];
const WIDTHS: [Width; 4] = [Width::W8, Width::W16, Width::W32, Width::W64];
const ALU: [AluOp; 8] = [
    AluOp::Add,
    AluOp::Adc,
    AluOp::Sub,
    AluOp::Sbb,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Cmp,
];
/// The bytes of the global every generated access lands in.
const BUF: u64 = 256;

/// The choice words a binary is decoded from; past the end every word
/// reads 0, so shorter tapes give smaller binaries.
struct Words<'a> {
    words: &'a [u64],
    at: usize,
}

impl Words<'_> {
    fn raw(&mut self) -> u64 {
        let w = self.words.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        w
    }

    fn below(&mut self, n: usize) -> usize {
        (self.raw() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    fn reg(&mut self) -> Gpr {
        self.pick(&REGS)
    }

    fn xmm(&mut self) -> Xmm {
        Xmm(self.below(4) as u8)
    }
}

/// One generated instruction, its targets still symbolic.
#[derive(Clone, Copy)]
enum Item {
    Inst(Inst),
    /// `jmp`/`jcc` to the `n`th item of the same function (the last index
    /// is the function's end).
    Jmp(usize),
    Jcc(Cond, usize),
    /// `call` or `jmp` to function `f`.
    Call(usize),
    JmpFunc(usize),
    /// `mov` of function `f`'s address into a register: RDX for a thread
    /// entry, RAX for a `call rax`.
    FuncIn(Gpr, usize),
    /// `jmp` to byte `n` (mod its size) of function `f`, most likely the
    /// middle of an instruction.
    JmpInto(usize, u64),
}

/// The extern stubs generated code calls.
struct Stubs {
    malloc: u64,
    sqrt: u64,
    spawn: u64,
    unknown: u64,
}

fn encodable(inst: &Inst) -> bool {
    encode(inst, 0x40_1000, &mut Vec::new()).is_ok()
}

fn mem(w: &mut Words<'_>, buf: u64) -> MemRef {
    MemRef::abs(buf + 8 * w.below(BUF as usize / 8 - 2) as u64)
}

fn rm(w: &mut Words<'_>, buf: u64) -> Rm {
    if w.below(4) == 0 {
        Rm::Mem(mem(w, buf))
    } else {
        Rm::Reg(w.reg())
    }
}

/// A straight-line instruction: one of each charge class, traps rare.
fn plain(w: &mut Words<'_>, buf: u64) -> Inst {
    let wd = w.pick(&WIDTHS);
    let imm = (w.raw() % 64) as i32 - 8;
    match w.below(24) {
        0 => Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Reg(w.reg()),
            imm,
        },
        1 => Inst::MovRRm {
            w: wd,
            dst: w.reg(),
            src: rm(w, buf),
        },
        2 => Inst::MovRmR {
            w: wd,
            dst: rm(w, buf),
            src: w.reg(),
        },
        3 => Inst::AluRRm {
            op: w.pick(&ALU),
            w: wd,
            dst: w.reg(),
            src: rm(w, buf),
        },
        4 => Inst::AluRmI {
            op: w.pick(&ALU),
            w: wd,
            dst: rm(w, buf),
            imm,
        },
        5 => Inst::AluRmR {
            op: w.pick(&ALU),
            w: wd,
            dst: rm(w, buf),
            src: w.reg(),
        },
        6 => Inst::Setcc {
            cc: Cond::from_encoding(w.below(16) as u8),
            dst: rm(w, buf),
        },
        7 => Inst::Cmovcc {
            cc: Cond::from_encoding(w.below(16) as u8),
            w: Width::W64,
            dst: w.reg(),
            src: rm(w, buf),
        },
        8 => Inst::ShiftI {
            op: w.pick(&[ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar]),
            w: wd,
            dst: rm(w, buf),
            imm: imm as u8,
        },
        9 => Inst::IMul2 {
            w: Width::W64,
            dst: w.reg(),
            src: rm(w, buf),
        },
        10 => Inst::MulDiv {
            op: w.pick(&[MulDivOp::Mul, MulDivOp::IMul, MulDivOp::Div, MulDivOp::IDiv]),
            w: w.pick(&[Width::W32, Width::W64]),
            src: rm(w, buf),
        },
        11 => Inst::Push { src: w.reg() },
        12 => Inst::Pop { dst: w.reg() },
        13 => Inst::MovGprToXmm {
            w: Width::W64,
            dst: w.xmm(),
            src: w.reg(),
        },
        14 => Inst::MovXmmToGpr {
            w: Width::W64,
            dst: w.reg(),
            src: w.xmm(),
        },
        15 => Inst::SseScalar {
            op: w.pick(&[SseOp::Add, SseOp::Mul, SseOp::Div, SseOp::Sqrt]),
            prec: FpPrec::Double,
            dst: w.xmm(),
            src: XmmRm::Reg(w.xmm()),
        },
        16 => Inst::SsePacked {
            op: w.pick(&[SseOp::Add, SseOp::Div, SseOp::Sqrt]),
            prec: FpPrec::Double,
            dst: w.xmm(),
            src: XmmRm::Reg(w.xmm()),
        },
        17 => Inst::MovssStore {
            prec: FpPrec::Double,
            dst: mem(w, buf),
            src: w.xmm(),
        },
        18 => Inst::LockXadd {
            w: wd,
            mem: mem(w, buf),
            src: w.reg(),
        },
        19 => Inst::Xchg {
            w: Width::W64,
            mem: mem(w, buf),
            src: w.reg(),
        },
        20 => Inst::Mfence,
        21 => Inst::Cqo { w: Width::W64 },
        22 => Inst::Ud2,
        _ => Inst::Nop,
    }
}

/// `mov dst, imm` (`imm` fits in 31 bits: text, PLT and data addresses).
fn mov(dst: Gpr, imm: u64) -> Inst {
    Inst::MovRmI {
        w: Width::W64,
        dst: Rm::Reg(dst),
        imm: imm as i32,
    }
}

/// `call target`, or one time in `n` the `jmp` that tail-calls it.
fn call_or_jmp(w: &mut Words<'_>, target: Target, n: usize) -> Inst {
    if w.below(n) == 0 {
        Inst::Jmp { target }
    } else {
        Inst::Call { target }
    }
}

fn item(w: &mut Words<'_>, len: usize, funcs: usize, stubs: &Stubs, buf: u64) -> Vec<Item> {
    let target = |w: &mut Words<'_>| w.below(len + 1);
    match w.below(20) {
        0..=8 => vec![Item::Inst(plain(w, buf))],
        9 => vec![Item::Jcc(Cond::from_encoding(w.below(16) as u8), target(w))],
        10 => vec![Item::Jmp(target(w))],
        11 => vec![Item::Call(w.below(funcs))],
        12 => {
            let stub = w.pick(&[stubs.malloc, stubs.sqrt, stubs.unknown]);
            let call = call_or_jmp(w, Target::Abs(stub), 4);
            vec![Item::Inst(mov(Gpr::Rdi, 24)), Item::Inst(call)]
        }
        13 | 14 => vec![
            Item::Inst(mov(Gpr::Rdi, buf + BUF - 8)),
            Item::FuncIn(Gpr::Rdx, w.below(funcs)),
            Item::Inst(mov(Gpr::Rcx, w.below(100) as u64)),
            Item::Inst(call_or_jmp(w, Target::Abs(stubs.spawn), 4)),
        ],
        15 => {
            // `call rax` (now and then `jmp rax`, which traps) to a
            // function, `malloc` or `pthread_create`.
            let callee = match w.below(3) {
                0 => Item::FuncIn(Gpr::Rax, w.below(funcs)),
                n => Item::Inst(mov(Gpr::Rax, [stubs.malloc, stubs.spawn][n - 1])),
            };
            vec![
                Item::FuncIn(Gpr::Rdx, w.below(funcs)),
                callee,
                Item::Inst(call_or_jmp(w, Target::Indirect(Gpr::Rax), 6)),
            ]
        }
        16 => vec![Item::JmpFunc(w.below(funcs))],
        17 => vec![Item::JmpInto(w.below(funcs), w.raw())],
        _ => vec![Item::Inst(Inst::Ret)],
    }
}

/// Assembles function `items` at `at`, given every function's address
/// and size.
fn assemble(items: &[Item], tail: &[u8], at: u64, funcs: &[(u64, u64)]) -> Vec<u8> {
    let mut a = Asm::new();
    let labels: Vec<_> = (0..=items.len()).map(|_| a.label()).collect();
    for (i, it) in items.iter().enumerate() {
        a.bind(labels[i]);
        match *it {
            Item::Inst(inst) => a.push(inst),
            Item::Jmp(t) => a.jmp(labels[t]),
            Item::Jcc(cc, t) => a.jcc(cc, labels[t]),
            Item::Call(f) => a.push(Inst::Call {
                target: Target::Abs(funcs[f].0),
            }),
            Item::JmpFunc(f) => a.push(Inst::Jmp {
                target: Target::Abs(funcs[f].0),
            }),
            Item::JmpInto(f, n) => a.push(Inst::Jmp {
                target: Target::Abs(funcs[f].0 + n % funcs[f].1.max(1)),
            }),
            Item::FuncIn(r, f) => a.push(mov(r, funcs[f].0)),
        }
    }
    a.bind(labels[items.len()]);
    let mut bytes = a.finish(at).expect("encodable");
    bytes.extend_from_slice(tail);
    bytes
}

/// A binary of 1–4 functions, the first named `f0`, decoded from `words`.
fn binary(words: &[u64]) -> Binary {
    let mut w = Words { words, at: 0 };
    let mut bin = BinaryBuilder::new();
    let stubs = Stubs {
        malloc: bin.declare_extern(Extern::Malloc.name()),
        sqrt: bin.declare_extern(Extern::Sqrt.name()),
        spawn: bin.declare_extern(Extern::PthreadCreate.name()),
        unknown: bin.declare_extern("no_such_extern"),
    };
    let init: Vec<u8> = (0..BUF).map(|i| (i * 37 % 251) as u8).collect();
    let buf = bin.add_global("buf", BUF, init);
    let n = 1 + w.below(4);
    let mut funcs: Vec<(Vec<Item>, Vec<u8>)> = Vec::new();
    for _ in 0..n {
        let len = 1 + w.below(14);
        let mut items = Vec::new();
        while items.len() < len {
            items.extend(item(&mut w, len, n, &stubs, buf));
        }
        items.retain(|it| !matches!(it, Item::Inst(i) if !encodable(i)));
        // Most functions return; others fall through into the next one (or
        // off the end of `.text`), some into bytes that do not decode.
        match w.below(8) {
            0 | 1 => {}
            2 => items.push(Item::Inst(Inst::Ud2)),
            _ => items.push(Item::Inst(Inst::Ret)),
        }
        let tail = if w.below(6) == 0 {
            vec![0x06, w.raw() as u8]
        } else {
            Vec::new()
        };
        funcs.push((items, tail));
    }
    // Every item has one encoded size, so addresses come from a first pass.
    let mut layout = vec![(0, 1); n];
    let mut at = bin.next_function_addr();
    for (i, (items, tail)) in funcs.iter().enumerate() {
        let size = assemble(items, tail, at, &vec![(at, 1); n]).len() as u64;
        layout[i] = (at, size);
        at = (at + size + 15) & !15;
    }
    for (i, (items, tail)) in funcs.iter().enumerate() {
        let bytes = assemble(items, tail, layout[i].0, &layout);
        assert_eq!(bin.add_function(&format!("f{i}"), bytes), layout[i].0);
    }
    bin.finish()
}

/// Everything a run leaves that the two interpreters must agree on.
#[derive(Debug, PartialEq)]
struct State {
    result: Result<X86RunResult, X86Error>,
    stats: super::X86Stats,
    regs: [u64; 16],
    xmm: [[u8; 16]; 16],
    flags: [bool; 5],
    steps_left: u64,
    heap_next: u64,
    pages: usize,
    buf: Vec<u8>,
    stack: Vec<u8>,
}

fn state(m: &X86Machine<'_>, result: Result<X86RunResult, X86Error>, buf: u64) -> State {
    let read = |at: u64, n: usize| (0..n as u64).map(|i| m.mem.read(at + i, 1)[0]).collect();
    State {
        result,
        stats: m.stats(),
        regs: m.regs,
        xmm: m.xmm,
        flags: [m.cf, m.pf, m.zf, m.sf, m.of],
        steps_left: m.steps_left,
        heap_next: m.heap_next(),
        pages: m.mem.mapped_pages(),
        buf: read(buf, BUF as usize),
        stack: read(STACK_TOP - 256, 256),
    }
}

/// The host stack the two machines run on. The reference runs each
/// spawned thread in a nested call, so a chain of spawns nests about as
/// deep as a fifth of the step limit, and unoptimized frames are large.
const HOST_STACK: usize = 256 << 20;

/// Both machines' states after each of two runs of `f0` on `bin`.
fn run_both(bin: &Binary, limit: u64) -> Vec<(State, State)> {
    let buf = bin.globals[0].addr;
    let mut runs = X86Machine::new(bin);
    let mut steps = X86Machine::new(bin);
    (0..2)
        .map(|_| {
            runs.set_step_limit(limit);
            steps.set_step_limit(limit);
            let got = runs.run("f0", &[1, 2, 3], &[]);
            let want = steps.run_per_step("f0", &[1, 2, 3]);
            (state(&runs, got, buf), state(&steps, want, buf))
        })
        .collect()
}

properties! {
    config = Config::with_cases(1000);

    fn decoded_machine_matches_the_reference(
        words in collection::vec(any::<u64>(), 0..400),
        // Small limits often stop at a run's first steps or at a fault.
        limit in prop_oneof![0u64..48, 0u64..3000],
    ) {
        let bin = binary(&words);
        let rounds = std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(HOST_STACK)
                .spawn_scoped(s, || run_both(&bin, limit))
                .expect("a thread for the two machines")
                .join()
                .expect("neither machine panics")
        });
        for (round, (got, want)) in rounds.into_iter().enumerate() {
            prop_assert_eq!(got, want, "round {round}\n{:02x?}", bin.text);
        }
    }
}
