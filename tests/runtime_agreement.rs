//! One guest runtime, three executors: an x86 binary that calls every
//! extern the runtime implements runs on the byte-level x86 interpreter,
//! and its PPOpt translation on the LIR interpreter and the Arm core. All
//! three must agree with each other and with hand-computed values on the
//! return value, the captured output and the number of threads, and must
//! trap with the same message where the runtime traps.

use lasagne_repro::armgen::machine::ArmMachine;
use lasagne_repro::lir::interp::runtime::{Extern, MAX_BULK_BYTES};
use lasagne_repro::lir::interp::{Machine, Val};
use lasagne_repro::phoenix::builders::{
    alurr, call, lea_func, loadq, mem_bd, movri, movrr, storeq,
};
use lasagne_repro::translator::{Pipeline, Translation, Version};
use lasagne_repro::x86::asm::Asm;
use lasagne_repro::x86::binary::{Binary, BinaryBuilder};
use lasagne_repro::x86::inst::{AluOp, Inst, MemRef, Rm};
use lasagne_repro::x86::reg::{Gpr, Width, Xmm};
use lasagne_repro::x86::X86Machine;
use std::collections::BTreeMap;

/// What one executor shows of a run: `(return value, output, threads
/// spawned)`, or the error it stopped with.
type Seen = Result<(u64, String, usize), String>;

/// Adds `name` to `b`, assembled from `body` plus a final `ret`.
fn function(b: &mut BinaryBuilder, name: &str, body: &[Inst]) -> u64 {
    let mut a = Asm::new();
    for i in body {
        a.push(*i);
    }
    a.push(Inst::Ret);
    let addr = b.next_function_addr();
    b.add_function(name, a.finish(addr).unwrap())
}

fn lea(dst: Gpr, addr: MemRef) -> Inst {
    Inst::Lea {
        w: Width::W64,
        dst,
        addr,
    }
}

fn imul(dst: Gpr, src: Gpr, imm: i32) -> Inst {
    Inst::IMul3 {
        w: Width::W64,
        dst,
        src: Rm::Reg(src),
        imm,
    }
}

/// `mov al, n`: the SSE-register count of a variadic call.
fn sse_count(n: i32) -> Inst {
    Inst::MovRmI {
        w: Width::W8,
        dst: Rm::Reg(Gpr::Rax),
        imm: n,
    }
}

/// The test binary:
///
/// * `main` allocates, fills and copies heap blocks, prints, spawns two
///   `worker` threads that bump a mutex-guarded counter, joins them, and
///   returns a number built from what it saw;
/// * `print_str` is `printf("%s %d", p, 7)`;
/// * `die_exit`, `die_abort`, `relock`, `huge_memset` and `huge_memcpy`
///   end in a runtime trap.
fn binary() -> Binary {
    let mut b = BinaryBuilder::new();
    let ext: BTreeMap<&str, u64> = Extern::ALL
        .iter()
        .map(|e| (e.name(), b.declare_extern(e.name())))
        .collect();
    let fmt = b.add_global(
        "fmt",
        64,
        b"%s len=%d count=%u tid=%x %c sqrt=%f 100%%\n\0".to_vec(),
    );
    let fmt_str = b.add_global("fmt_str", 8, b"%s %d\0".to_vec());
    let text = b.add_global("text", 8, b"text\0".to_vec());

    // worker(blk): lock blk[0]; blk[8] += 1; unlock; pthread_exit(0)
    let worker = function(
        &mut b,
        "worker",
        &[
            Inst::Push { src: Gpr::Rbx },
            movrr(Gpr::Rbx, Gpr::Rdi),
            call(ext["pthread_mutex_lock"]),
            loadq(Gpr::Rax, mem_bd(Gpr::Rbx, 8)),
            Inst::AluRmI {
                op: AluOp::Add,
                w: Width::W64,
                dst: Rm::Reg(Gpr::Rax),
                imm: 1,
            },
            storeq(mem_bd(Gpr::Rbx, 8), Gpr::Rax),
            movrr(Gpr::Rdi, Gpr::Rbx),
            call(ext["pthread_mutex_unlock"]),
            movri(Gpr::Rdi, 0),
            call(ext["pthread_exit"]),
            Inst::Pop { dst: Gpr::Rbx },
            movri(Gpr::Rax, 0),
        ],
    );

    let mut main = vec![];
    for r in [Gpr::Rbx, Gpr::R12, Gpr::R13, Gpr::R14, Gpr::R15] {
        main.push(Inst::Push { src: r });
    }
    main.extend([
        // rbx = malloc(100); r12 = valloc(10); r13 = calloc(4, 8)
        movri(Gpr::Rdi, 100),
        call(ext["malloc"]),
        movrr(Gpr::Rbx, Gpr::Rax),
        movri(Gpr::Rdi, 10),
        call(ext["valloc"]),
        movrr(Gpr::R12, Gpr::Rax),
        movri(Gpr::Rdi, 4),
        movri(Gpr::Rsi, 8),
        call(ext["calloc"]),
        movrr(Gpr::R13, Gpr::Rax),
        // memset(rbx, 'A', 15); memcpy(r12, rbx, 8); r14 = strlen(rbx)
        movrr(Gpr::Rdi, Gpr::Rbx),
        movri(Gpr::Rsi, 0x41),
        movri(Gpr::Rdx, 15),
        call(ext["memset"]),
        movrr(Gpr::Rdi, Gpr::R12),
        movrr(Gpr::Rsi, Gpr::Rbx),
        movri(Gpr::Rdx, 8),
        call(ext["memcpy"]),
        movrr(Gpr::Rdi, Gpr::Rbx),
        call(ext["strlen"]),
        movrr(Gpr::R14, Gpr::Rax),
        // puts(r12); pthread_mutex_init(r13, 0)
        movrr(Gpr::Rdi, Gpr::R12),
        call(ext["puts"]),
        movrr(Gpr::Rdi, Gpr::R13),
        movri(Gpr::Rsi, 0),
        call(ext["pthread_mutex_init"]),
    ]);
    // pthread_create(&r13[16 + 8t], 0, worker, r13) for t = 0, 1, then join
    for slot in [16, 24] {
        main.extend([
            lea(Gpr::Rdi, mem_bd(Gpr::R13, slot)),
            movri(Gpr::Rsi, 0),
            lea_func(Gpr::Rdx, worker),
            movrr(Gpr::Rcx, Gpr::R13),
            call(ext["pthread_create"]),
        ]);
    }
    for slot in [16, 24] {
        main.extend([
            loadq(Gpr::Rdi, mem_bd(Gpr::R13, slot)),
            movri(Gpr::Rsi, 0),
            call(ext["pthread_join"]),
        ]);
    }
    main.extend([
        movrr(Gpr::Rdi, Gpr::R13),
        call(ext["pthread_mutex_destroy"]),
        // r15 = sysconf(_SC_NPROCESSORS_ONLN); xmm0 = sqrt(16.0)
        movri(Gpr::Rdi, 84),
        call(ext["sysconf"]),
        movrr(Gpr::R15, Gpr::Rax),
        Inst::MovAbs {
            dst: Gpr::Rax,
            imm: 16f64.to_bits(),
        },
        Inst::MovGprToXmm {
            w: Width::W64,
            dst: Xmm(0),
            src: Gpr::Rax,
        },
        call(ext["sqrt"]),
        // printf(fmt, rbx, r14, counter, tid 2, 'Z', xmm0)
        lea(Gpr::Rdi, MemRef::rip(fmt)),
        movrr(Gpr::Rsi, Gpr::Rbx),
        movrr(Gpr::Rdx, Gpr::R14),
        loadq(Gpr::Rcx, mem_bd(Gpr::R13, 8)),
        loadq(Gpr::R8, mem_bd(Gpr::R13, 24)),
        movri(Gpr::R9, 0x5a),
        sse_count(1),
        call(ext["printf"]),
        movrr(Gpr::Rdi, Gpr::Rbx),
        call(ext["free"]),
        // rax = strlen + 100 counter + 1e3 tid1 + 1e4 tid2 + 1e5 sysconf
        //     + 1e6 (r13 - rbx)
        movrr(Gpr::Rax, Gpr::R14),
        loadq(Gpr::Rcx, mem_bd(Gpr::R13, 8)),
        imul(Gpr::Rcx, Gpr::Rcx, 100),
        alurr(AluOp::Add, Gpr::Rax, Gpr::Rcx),
        loadq(Gpr::Rcx, mem_bd(Gpr::R13, 16)),
        imul(Gpr::Rcx, Gpr::Rcx, 1000),
        alurr(AluOp::Add, Gpr::Rax, Gpr::Rcx),
        loadq(Gpr::Rcx, mem_bd(Gpr::R13, 24)),
        imul(Gpr::Rcx, Gpr::Rcx, 10_000),
        alurr(AluOp::Add, Gpr::Rax, Gpr::Rcx),
        imul(Gpr::Rcx, Gpr::R15, 100_000),
        alurr(AluOp::Add, Gpr::Rax, Gpr::Rcx),
        movrr(Gpr::Rcx, Gpr::R13),
        alurr(AluOp::Sub, Gpr::Rcx, Gpr::Rbx),
        imul(Gpr::Rcx, Gpr::Rcx, 1_000_000),
        alurr(AluOp::Add, Gpr::Rax, Gpr::Rcx),
    ]);
    for r in [Gpr::R15, Gpr::R14, Gpr::R13, Gpr::R12, Gpr::Rbx] {
        main.push(Inst::Pop { dst: r });
    }
    function(&mut b, "main", &main);

    function(
        &mut b,
        "print_str",
        &[
            lea(Gpr::Rdi, MemRef::rip(fmt_str)),
            lea(Gpr::Rsi, MemRef::rip(text)),
            movri(Gpr::Rdx, 7),
            sse_count(0),
            call(ext["printf"]),
            movri(Gpr::Rax, 0),
        ],
    );
    function(&mut b, "die_exit", &[movri(Gpr::Rdi, 3), call(ext["exit"])]);
    function(
        &mut b,
        "die_abort",
        &[movri(Gpr::Rdi, 0), call(ext["abort"])],
    );
    function(
        &mut b,
        "relock",
        &[
            movri(Gpr::Rdi, 0x5000),
            call(ext["pthread_mutex_lock"]),
            movri(Gpr::Rdi, 0x5000),
            call(ext["pthread_mutex_lock"]),
        ],
    );
    for (name, ext) in [
        ("huge_memset", ext["memset"]),
        ("huge_memcpy", ext["memcpy"]),
    ] {
        function(
            &mut b,
            name,
            &[
                movri(Gpr::Rdi, 0x5000),
                movri(Gpr::Rsi, 0x6000),
                movri(Gpr::Rdx, MAX_BULK_BYTES as i64 + 1),
                call(ext),
            ],
        );
    }
    b.finish()
}

/// Runs `func` of `bin` on the x86 interpreter and of its translation `t`
/// on the LIR interpreter and the Arm core.
fn run_three(bin: &Binary, t: &Translation, func: &str) -> [Seen; 3] {
    let x86 = X86Machine::new(bin)
        .run(func, &[], &[])
        .map(|r| (r.ret, r.output, r.thread_cycles.len()))
        .map_err(|e| e.to_string());
    let id = t.module.func_by_name(func).expect("lifted function");
    let lir = Machine::new(&t.module)
        .run(id, &[])
        .map(|r| (r.ret.map_or(0, Val::bits), r.output, r.thread_cycles.len()))
        .map_err(|e| e.to_string());
    let idx = t.arm.func_by_name(func).expect("lowered function");
    let arm = ArmMachine::new(&t.arm)
        .run(idx, &[], &[])
        .map(|r| (r.ret, r.output, r.thread_cycles.len()))
        .map_err(|e| e.to_string());
    [x86, lir, arm]
}

fn translate(bin: &Binary) -> Translation {
    Pipeline::new(Version::PPOpt)
        .run(bin)
        .expect("PPOpt translation")
        .0
}

#[test]
fn every_extern_agrees_on_all_three_executors() {
    let bin = binary();
    let t = translate(&bin);
    // Heap: malloc(100) at HEAP_BASE, valloc(10) 128 bytes on, calloc
    // 64 more: r13 - rbx = 192.
    let ret = 15 + 100 * 2 + 1000 + 10_000 * 2 + 100_000 * 4 + 1_000_000 * 192;
    let out = "AAAAAAAA\n<str> len=15 count=2 tid=2 Z sqrt=4.000000 100%\n";
    for (leg, seen) in ["x86", "LIR", "Arm"]
        .iter()
        .zip(run_three(&bin, &t, "main"))
    {
        assert_eq!(seen, Ok((ret, out.to_string(), 2)), "{leg}");
    }
}

#[test]
fn printf_s_consumes_its_argument_on_all_three_executors() {
    let bin = binary();
    let t = translate(&bin);
    for (leg, seen) in ["x86", "LIR", "Arm"]
        .iter()
        .zip(run_three(&bin, &t, "print_str"))
    {
        assert_eq!(seen, Ok((0, "<str> 7".to_string(), 0)), "{leg}");
    }
}

#[test]
fn runtime_traps_agree_on_all_three_executors() {
    let bin = binary();
    let t = translate(&bin);
    for (func, msg) in [
        ("die_exit", "trap: exit() called"),
        ("die_abort", "trap: abort() called"),
        (
            "relock",
            "trap: deadlock: mutex 0x5000 locked twice under sequential fork-join",
        ),
        (
            "huge_memset",
            "trap: memset() of 67108865 bytes exceeds the 67108864-byte limit",
        ),
        (
            "huge_memcpy",
            "trap: memcpy() of 67108865 bytes exceeds the 67108864-byte limit",
        ),
    ] {
        for (leg, seen) in ["x86", "LIR", "Arm"].iter().zip(run_three(&bin, &t, func)) {
            assert_eq!(seen, Err(msg.to_string()), "{func} on {leg}");
        }
    }
}
