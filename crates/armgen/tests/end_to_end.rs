//! End-to-end: x86 binary → lift → (refine/fence/optimize) → Arm → run,
//! comparing against the LIR interpreter.

use lasagne_armgen::lower::lower_module;
use lasagne_armgen::machine::ArmMachine;
use lasagne_lir::interp::{Machine, Val, HEAP_BASE};
use lasagne_x86::asm::Asm;
use lasagne_x86::binary::BinaryBuilder;
use lasagne_x86::inst::{AluOp, FpPrec, Inst, MemRef, Rm, SseOp, XmmRm};
use lasagne_x86::reg::{Cond, Gpr, Width, Xmm};

fn build_sum_binary() -> lasagne_x86::binary::Binary {
    // sum(data, n): rax = Σ data[i]; running total published to [rdi] as we
    // go (so the function has shared stores as well as loads).
    let mut bin = BinaryBuilder::new();
    let mut a = Asm::new();
    let top = a.label();
    let done = a.label();
    a.push(Inst::MovRmI {
        w: Width::W64,
        dst: Rm::Reg(Gpr::Rax),
        imm: 0,
    });
    a.push(Inst::MovRmI {
        w: Width::W64,
        dst: Rm::Reg(Gpr::Rcx),
        imm: 0,
    });
    a.bind(top);
    a.push(Inst::AluRRm {
        op: AluOp::Cmp,
        w: Width::W64,
        dst: Gpr::Rcx,
        src: Rm::Reg(Gpr::Rsi),
    });
    a.jcc(Cond::E, done);
    a.push(Inst::AluRRm {
        op: AluOp::Add,
        w: Width::W64,
        dst: Gpr::Rax,
        src: Rm::Mem(MemRef::base_index(Gpr::Rdi, Gpr::Rcx, 8, 0)),
    });
    a.push(Inst::MovRmR {
        w: Width::W64,
        dst: Rm::Mem(MemRef::base(Gpr::Rdi)),
        src: Gpr::Rax,
    });
    a.push(Inst::AluRmI {
        op: AluOp::Add,
        w: Width::W64,
        dst: Rm::Reg(Gpr::Rcx),
        imm: 1,
    });
    a.jmp(top);
    a.bind(done);
    a.push(Inst::Ret);
    let addr = bin.next_function_addr();
    bin.add_function("sum", a.finish(addr).unwrap());
    bin.finish()
}

#[test]
fn arm_matches_lir_interpreter_on_sum() {
    let m = lasagne_lifter::lift_binary(&build_sum_binary()).unwrap();
    let id = m.func_by_name("sum").unwrap();

    // LIR reference run.
    let mut lirm = Machine::new(&m);
    for i in 0..16u64 {
        lirm.mem.write_u64(HEAP_BASE + 8 * i, 3 * i + 1);
    }
    let expect = lirm
        .run(id, &[Val::B64(HEAP_BASE), Val::B64(16)])
        .unwrap()
        .ret
        .unwrap();

    // Arm run.
    let amod = lower_module(&m);
    let aidx = amod.func_by_name("sum").unwrap();
    let mut arm = ArmMachine::new(&amod);
    for i in 0..16u64 {
        arm.mem.write_u64(HEAP_BASE + 8 * i, 3 * i + 1);
    }
    let r = arm.run(aidx, &[HEAP_BASE, 16], &[]).unwrap();
    assert_eq!(Val::B64(r.ret), expect);
}

#[test]
fn fences_lower_to_dmbs_per_figure_8b() {
    let mut m = lasagne_lifter::lift_binary(&build_sum_binary()).unwrap();
    lasagne_fences::place_fences_module(&mut m, lasagne_fences::Strategy::Naive);
    let (frm, fww, _fsc) = lasagne_fences::count_fences(&m);
    let amod = lower_module(&m);
    let (ld, st, _ff) = amod.count_dmbs();
    assert_eq!(frm, ld, "every Frm must become dmb ishld");
    assert_eq!(fww, st, "every Fww must become dmb ishst");
    assert!(ld > 0 && st > 0);
}

#[test]
fn dmb_costs_show_up_in_cycles() {
    let m0 = lasagne_lifter::lift_binary(&build_sum_binary()).unwrap();
    let mut m1 = m0.clone();
    lasagne_fences::place_fences_module(&mut m1, lasagne_fences::Strategy::Naive);

    let run = |m: &lasagne_lir::Module| {
        let amod = lower_module(m);
        let idx = amod.func_by_name("sum").unwrap();
        let mut arm = ArmMachine::new(&amod);
        for i in 0..64u64 {
            arm.mem.write_u64(HEAP_BASE + 8 * i, i);
        }
        arm.run(idx, &[HEAP_BASE, 64], &[]).unwrap()
    };
    let plain = run(&m0);
    let fenced = run(&m1);
    assert_eq!(plain.ret, fenced.ret, "fences must not change the result");
    assert!(
        fenced.stats.cycles > plain.stats.cycles + 64 * 10,
        "fences must cost cycles: {} vs {}",
        fenced.stats.cycles,
        plain.stats.cycles
    );
    assert!(fenced.stats.dmbs.0 > 0);
}

#[test]
fn arm_rmw_uses_llsc_with_full_barriers() {
    // lock xadd via lifted binary.
    let mut bin = BinaryBuilder::new();
    let mut a = Asm::new();
    a.push(Inst::LockXadd {
        w: Width::W64,
        mem: MemRef::base(Gpr::Rdi),
        src: Gpr::Rsi,
    });
    a.push(Inst::MovRRm {
        w: Width::W64,
        dst: Gpr::Rax,
        src: Rm::Reg(Gpr::Rsi),
    });
    a.push(Inst::Ret);
    let addr = bin.next_function_addr();
    bin.add_function("fa", a.finish(addr).unwrap());
    let m = lasagne_lifter::lift_binary(&bin.finish()).unwrap();

    let amod = lower_module(&m);
    let idx = amod.func_by_name("fa").unwrap();
    // Structure: the module must contain exactly 2 full barriers and an
    // exclusive pair.
    let (_, _, ff) = amod.count_dmbs();
    assert_eq!(ff, 2, "RMWsc lowers with leading+trailing dmb ish");

    let mut arm = ArmMachine::new(&amod);
    arm.mem.write_u64(HEAP_BASE, 100);
    let r = arm.run(idx, &[HEAP_BASE, 5], &[]).unwrap();
    assert_eq!(r.ret, 100, "xadd returns the old value");
    assert_eq!(arm.mem.read_u64(HEAP_BASE), 105);
    assert!(r.stats.exclusives >= 2, "ldxr+stxr executed");
}

#[test]
fn arm_float_pipeline() {
    // xmm0 = xmm0 * xmm1 + xmm1
    let mut bin = BinaryBuilder::new();
    let mut a = Asm::new();
    a.push(Inst::SseScalar {
        op: SseOp::Mul,
        prec: FpPrec::Double,
        dst: Xmm(0),
        src: XmmRm::Reg(Xmm(1)),
    });
    a.push(Inst::SseScalar {
        op: SseOp::Add,
        prec: FpPrec::Double,
        dst: Xmm(0),
        src: XmmRm::Reg(Xmm(1)),
    });
    a.push(Inst::Ret);
    let addr = bin.next_function_addr();
    bin.add_function("fma", a.finish(addr).unwrap());
    let m = lasagne_lifter::lift_binary(&bin.finish()).unwrap();
    let amod = lower_module(&m);
    let idx = amod.func_by_name("fma").unwrap();
    let mut arm = ArmMachine::new(&amod);
    let r = arm
        .run(idx, &[], &[3.0f64.to_bits(), 4.0f64.to_bits()])
        .unwrap();
    assert_eq!(f64::from_bits(r.ret), 16.0);
}

#[test]
fn optimized_code_runs_faster_on_arm() {
    let mut m = lasagne_lifter::lift_binary(&build_sum_binary()).unwrap();
    lasagne_fences::place_fences_module(&mut m, lasagne_fences::Strategy::Naive);
    let mut opt = m.clone();
    lasagne_opt::scheduled_pipeline(&mut opt, 4);

    let run = |m: &lasagne_lir::Module| {
        let amod = lower_module(m);
        let idx = amod.func_by_name("sum").unwrap();
        let mut arm = ArmMachine::new(&amod);
        for i in 0..64u64 {
            arm.mem.write_u64(HEAP_BASE + 8 * i, i);
        }
        arm.run(idx, &[HEAP_BASE, 64], &[]).unwrap()
    };
    let lifted = run(&m);
    let optimized = run(&opt);
    assert_eq!(lifted.ret, optimized.ret);
    assert!(
        optimized.stats.cycles < lifted.stats.cycles,
        "optimization should speed up the Arm run: {} vs {}",
        optimized.stats.cycles,
        lifted.stats.cycles
    );
}

#[test]
fn assembly_printer_smoke() {
    let m = lasagne_lifter::lift_binary(&build_sum_binary()).unwrap();
    let amod = lower_module(&m);
    let text = lasagne_armgen::print::print_module(&amod);
    assert!(text.contains("sum:"));
    assert!(text.contains("ldr"));
    assert!(text.contains("cbnz") || text.contains("b .L"));
}
