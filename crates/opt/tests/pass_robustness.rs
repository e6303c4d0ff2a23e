//! Pass robustness: every optimization pass, applied alone or repeatedly
//! in random-ish orders to real lifted+fenced modules, must keep the module
//! verifier-clean and preserve execution results.

use lasagne_lir::interp::{Machine, Val};
use lasagne_lir::verify::verify_module;
use lasagne_opt::{run_pass, PassKind};
use lasagne_x86::asm::Asm;
use lasagne_x86::binary::BinaryBuilder;
use lasagne_x86::inst::{AluOp, FpPrec, Inst, MemRef, Rm, SseOp, XmmRm};
use lasagne_x86::reg::{Cond, Gpr, Width, Xmm};

/// A lifted module with loops, calls, FP, memory and fences — a workout
/// for every pass.
fn workout_module() -> lasagne_lir::Module {
    let mut bin = BinaryBuilder::new();

    // helper(x) = x*x + 1
    let mut a = Asm::new();
    a.push(Inst::MovRRm {
        w: Width::W64,
        dst: Gpr::Rax,
        src: Rm::Reg(Gpr::Rdi),
    });
    a.push(Inst::IMul2 {
        w: Width::W64,
        dst: Gpr::Rax,
        src: Rm::Reg(Gpr::Rdi),
    });
    a.push(Inst::AluRmI {
        op: AluOp::Add,
        w: Width::W64,
        dst: Rm::Reg(Gpr::Rax),
        imm: 1,
    });
    a.push(Inst::Ret);
    let helper = bin.next_function_addr();
    bin.add_function("helper", a.finish(helper).unwrap());

    // main(data, n): loop { acc += helper(data[i]); data[i] = acc; also some
    // FP and a spill }
    let mut a = Asm::new();
    let top = a.label();
    let done = a.label();
    a.push(Inst::Push { src: Gpr::Rbx });
    a.push(Inst::Push { src: Gpr::R12 });
    a.push(Inst::Push { src: Gpr::R13 });
    a.push(Inst::MovRmR {
        w: Width::W64,
        dst: Rm::Reg(Gpr::R12),
        src: Gpr::Rdi,
    });
    a.push(Inst::MovRmR {
        w: Width::W64,
        dst: Rm::Reg(Gpr::R13),
        src: Gpr::Rsi,
    });
    a.push(Inst::MovRmI {
        w: Width::W64,
        dst: Rm::Reg(Gpr::Rbx),
        imm: 0,
    });
    a.push(Inst::MovRmI {
        w: Width::W64,
        dst: Rm::Reg(Gpr::Rax),
        imm: 0,
    });
    // spill slot for acc
    a.push(Inst::MovRmR {
        w: Width::W64,
        dst: Rm::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
        src: Gpr::Rax,
    });
    a.bind(top);
    a.push(Inst::AluRRm {
        op: AluOp::Cmp,
        w: Width::W64,
        dst: Gpr::Rbx,
        src: Rm::Reg(Gpr::R13),
    });
    a.jcc(Cond::E, done);
    a.push(Inst::MovRRm {
        w: Width::W64,
        dst: Gpr::Rdi,
        src: Rm::Mem(MemRef::base_index(Gpr::R12, Gpr::Rbx, 8, 0)),
    });
    a.call_abs(helper);
    a.push(Inst::MovRRm {
        w: Width::W64,
        dst: Gpr::Rcx,
        src: Rm::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
    });
    a.push(Inst::AluRRm {
        op: AluOp::Add,
        w: Width::W64,
        dst: Gpr::Rcx,
        src: Rm::Reg(Gpr::Rax),
    });
    a.push(Inst::MovRmR {
        w: Width::W64,
        dst: Rm::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
        src: Gpr::Rcx,
    });
    a.push(Inst::MovRmR {
        w: Width::W64,
        dst: Rm::Mem(MemRef::base_index(Gpr::R12, Gpr::Rbx, 8, 0)),
        src: Gpr::Rcx,
    });
    a.push(Inst::AluRmI {
        op: AluOp::Add,
        w: Width::W64,
        dst: Rm::Reg(Gpr::Rbx),
        imm: 1,
    });
    a.jmp(top);
    a.bind(done);
    // FP tail: rax = acc + (i64)((double)acc * 0.5)
    a.push(Inst::MovRRm {
        w: Width::W64,
        dst: Gpr::Rax,
        src: Rm::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
    });
    a.push(Inst::CvtSi2F {
        prec: FpPrec::Double,
        iw: Width::W64,
        dst: Xmm(0),
        src: Rm::Reg(Gpr::Rax),
    });
    a.push(Inst::MovAbs {
        dst: Gpr::Rcx,
        imm: 0.5f64.to_bits(),
    });
    a.push(Inst::MovGprToXmm {
        w: Width::W64,
        dst: Xmm(1),
        src: Gpr::Rcx,
    });
    a.push(Inst::SseScalar {
        op: SseOp::Mul,
        prec: FpPrec::Double,
        dst: Xmm(0),
        src: XmmRm::Reg(Xmm(1)),
    });
    a.push(Inst::CvtF2Si {
        prec: FpPrec::Double,
        iw: Width::W64,
        dst: Gpr::Rcx,
        src: XmmRm::Reg(Xmm(0)),
    });
    a.push(Inst::AluRRm {
        op: AluOp::Add,
        w: Width::W64,
        dst: Gpr::Rax,
        src: Rm::Reg(Gpr::Rcx),
    });
    a.push(Inst::Pop { dst: Gpr::R13 });
    a.push(Inst::Pop { dst: Gpr::R12 });
    a.push(Inst::Pop { dst: Gpr::Rbx });
    a.push(Inst::Ret);
    let main = bin.next_function_addr();
    bin.add_function("main", a.finish(main).unwrap());

    let mut m = lasagne_lifter::lift_binary(&bin.finish()).unwrap();
    lasagne_refine::refine_module(&mut m);
    lasagne_fences::place_fences_module(&mut m, lasagne_fences::Strategy::StackAware);
    lasagne_fences::merge_fences_module(&mut m);
    m
}

trait AsmExt {
    fn call_abs(&mut self, addr: u64);
}
impl AsmExt for Asm {
    fn call_abs(&mut self, addr: u64) {
        self.push(Inst::Call {
            target: lasagne_x86::inst::Target::Abs(addr),
        });
    }
}

fn run(m: &lasagne_lir::Module) -> (u64, Vec<u64>) {
    let id = m.func_by_name("main").unwrap();
    let mut machine = Machine::new(m);
    for i in 0..12u64 {
        machine.mem.write_u64(0x4000_0000 + 8 * i, i + 1);
    }
    let r = machine
        .run(id, &[Val::B64(0x4000_0000), Val::B64(12)])
        .unwrap();
    let finals = (0..12u64)
        .map(|i| machine.mem.read_u64(0x4000_0000 + 8 * i))
        .collect();
    (r.ret.unwrap().bits(), finals)
}

#[test]
fn each_pass_alone_preserves_semantics() {
    let base = workout_module();
    let reference = run(&base);
    for pass in PassKind::ALL {
        let mut m = base.clone();
        run_pass(pass, &mut m);
        verify_module(&m).unwrap_or_else(|e| panic!("{} broke the verifier: {e:?}", pass.name()));
        assert_eq!(run(&m), reference, "{} changed behaviour", pass.name());
    }
}

#[test]
fn pass_pairs_preserve_semantics() {
    let base = workout_module();
    let reference = run(&base);
    for p1 in PassKind::ALL {
        for p2 in PassKind::ALL {
            let mut m = base.clone();
            run_pass(p1, &mut m);
            run_pass(p2, &mut m);
            verify_module(&m).unwrap_or_else(|e| panic!("{}+{}: {e:?}", p1.name(), p2.name()));
            assert_eq!(
                run(&m),
                reference,
                "{} then {} changed behaviour",
                p1.name(),
                p2.name()
            );
        }
    }
}

#[test]
fn repeated_pipeline_is_idempotent_on_size() {
    let mut m = workout_module();
    lasagne_opt::scheduled_pipeline(&mut m, 4);
    let first = m.inst_count();
    lasagne_opt::scheduled_pipeline(&mut m, 4);
    let second = m.inst_count();
    assert_eq!(first, second, "pipeline must reach a fixpoint");
}
