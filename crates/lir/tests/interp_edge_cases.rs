//! Interpreter edge cases: vectors, sub-width integers, memory helpers,
//! call frames, and printing.

use lasagne_lir::func::{ExternDecl, Function, Module};
use lasagne_lir::inst::{
    BinOp, Callee, CastOp, FenceKind, IPred, InstKind, Operand, Ordering, Terminator,
};
use lasagne_lir::inst::{BlockId, FuncId, InstId};
use lasagne_lir::interp::{ExecError, Machine, Memory, Val};
use lasagne_lir::types::{Pointee, Ty};

#[test]
fn memory_cross_page_access() {
    let mut mem = Memory::new();
    // Write across a 4 KiB page boundary.
    let addr = 0x1000 - 3;
    mem.write(addr, &0xAABB_CCDD_EEFF_1122u64.to_le_bytes());
    assert_eq!(mem.read_u64(addr), 0xAABB_CCDD_EEFF_1122);
    // C-string helper.
    mem.write(0x2000, b"hello\0world");
    assert_eq!(mem.read_cstr(0x2000), "hello");
}

#[test]
fn vector_insert_extract_roundtrip() {
    let mut m = Module::new();
    let mut f = Function::new("v", vec![Ty::I64, Ty::I64], Ty::I64);
    let e = f.entry();
    let v0 = f.push(
        e,
        Ty::V2I64,
        InstKind::InsertElement {
            vec: Operand::Undef(Ty::V2I64),
            elt: Operand::Param(0),
            idx: 0,
        },
    );
    let v1 = f.push(
        e,
        Ty::V2I64,
        InstKind::InsertElement {
            vec: Operand::Inst(v0),
            elt: Operand::Param(1),
            idx: 1,
        },
    );
    let a = f.push(
        e,
        Ty::I64,
        InstKind::ExtractElement {
            vec: Operand::Inst(v1),
            idx: 0,
        },
    );
    let b = f.push(
        e,
        Ty::I64,
        InstKind::ExtractElement {
            vec: Operand::Inst(v1),
            idx: 1,
        },
    );
    let s = f.push(
        e,
        Ty::I64,
        InstKind::Bin {
            op: BinOp::Add,
            lhs: Operand::Inst(a),
            rhs: Operand::Inst(b),
        },
    );
    f.set_term(
        e,
        Terminator::Ret {
            val: Some(Operand::Inst(s)),
        },
    );
    let id = m.add_func(f);
    let mut machine = Machine::new(&m);
    let r = machine.run(id, &[Val::B64(30), Val::B64(12)]).unwrap();
    assert_eq!(r.ret, Some(Val::B64(42)));
}

#[test]
fn vector_fadd_lanes() {
    let mut m = Module::new();
    let mut f = Function::new("v", vec![Ty::Ptr(Pointee::V128)], Ty::F64);
    let e = f.entry();
    let v = f.push(
        e,
        Ty::V2F64,
        InstKind::Load {
            ptr: Operand::Param(0),
            order: Ordering::NotAtomic,
        },
    );
    let s = f.push(
        e,
        Ty::V2F64,
        InstKind::Bin {
            op: BinOp::FAdd,
            lhs: Operand::Inst(v),
            rhs: Operand::Inst(v),
        },
    );
    let lo = f.push(
        e,
        Ty::F64,
        InstKind::ExtractElement {
            vec: Operand::Inst(s),
            idx: 0,
        },
    );
    let hi = f.push(
        e,
        Ty::F64,
        InstKind::ExtractElement {
            vec: Operand::Inst(s),
            idx: 1,
        },
    );
    // Reinterpret lanes as doubles and add.
    let total = f.push(
        e,
        Ty::F64,
        InstKind::Bin {
            op: BinOp::FAdd,
            lhs: Operand::Inst(lo),
            rhs: Operand::Inst(hi),
        },
    );
    f.set_term(
        e,
        Terminator::Ret {
            val: Some(Operand::Inst(total)),
        },
    );
    let id = m.add_func(f);
    let mut machine = Machine::new(&m);
    machine
        .mem
        .write(0x4000_0000, &1.5f64.to_bits().to_le_bytes());
    machine
        .mem
        .write(0x4000_0008, &2.25f64.to_bits().to_le_bytes());
    let r = machine.run(id, &[Val::B64(0x4000_0000)]).unwrap();
    // (1.5+1.5) + (2.25+2.25) = 7.5  — wait: lanes doubled then summed.
    assert_eq!(r.ret.unwrap().f64(), 7.5);
}

#[test]
fn sub_width_arithmetic_masks() {
    // i8 arithmetic wraps at 8 bits.
    let mut m = Module::new();
    let mut f = Function::new("w", vec![Ty::I64], Ty::I64);
    let e = f.entry();
    let t = f.push(
        e,
        Ty::I8,
        InstKind::Cast {
            op: CastOp::Trunc,
            val: Operand::Param(0),
        },
    );
    let a = f.push(
        e,
        Ty::I8,
        InstKind::Bin {
            op: BinOp::Add,
            lhs: Operand::Inst(t),
            rhs: Operand::ConstInt {
                ty: Ty::I8,
                val: 200,
            },
        },
    );
    let z = f.push(
        e,
        Ty::I64,
        InstKind::Cast {
            op: CastOp::ZExt,
            val: Operand::Inst(a),
        },
    );
    f.set_term(
        e,
        Terminator::Ret {
            val: Some(Operand::Inst(z)),
        },
    );
    let id = m.add_func(f);
    let mut machine = Machine::new(&m);
    let r = machine.run(id, &[Val::B64(100)]).unwrap();
    assert_eq!(r.ret, Some(Val::B64((100u64 + 200) & 0xFF)));
}

#[test]
fn signed_comparisons_at_narrow_width() {
    // i8: 0x80 (-128) slt 1 must hold; ult must not.
    let mut m = Module::new();
    for (pred, expect) in [(IPred::Slt, 1u64), (IPred::Ult, 0u64)] {
        let mut f = Function::new("c", vec![], Ty::I1);
        let e = f.entry();
        let c = f.push(
            e,
            Ty::I1,
            InstKind::ICmp {
                pred,
                lhs: Operand::ConstInt {
                    ty: Ty::I8,
                    val: 0x80,
                },
                rhs: Operand::ConstInt { ty: Ty::I8, val: 1 },
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(c)),
            },
        );
        let id = m.add_func(f);
        let mut machine = Machine::new(&m);
        let r = machine.run(id, &[]).unwrap();
        assert_eq!(r.ret, Some(Val::B64(expect)), "{pred:?}");
    }
}

#[test]
fn recursion_with_own_frames() {
    // fact(n) — recursion through the interpreter call stack, with a stack
    // slot per frame to force per-frame alloca isolation.
    let mut m = Module::new();
    let mut f = Function::new("fact", vec![Ty::I64], Ty::I64);
    let e = f.entry();
    let rec = f.add_block();
    let base = f.add_block();
    let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
    f.push(
        e,
        Ty::Void,
        InstKind::Store {
            ptr: Operand::Inst(slot),
            val: Operand::Param(0),
            order: Ordering::NotAtomic,
        },
    );
    let z = f.push(
        e,
        Ty::I1,
        InstKind::ICmp {
            pred: IPred::Eq,
            lhs: Operand::Param(0),
            rhs: Operand::i64(0),
        },
    );
    f.set_term(
        e,
        Terminator::CondBr {
            cond: Operand::Inst(z),
            if_true: base,
            if_false: rec,
        },
    );
    let nm1 = f.push(
        rec,
        Ty::I64,
        InstKind::Bin {
            op: BinOp::Sub,
            lhs: Operand::Param(0),
            rhs: Operand::i64(1),
        },
    );
    let sub = f.push(
        rec,
        Ty::I64,
        InstKind::Call {
            callee: Callee::Func(lasagne_lir::FuncId(0)),
            args: vec![Operand::Inst(nm1)],
        },
    );
    let saved = f.push(
        rec,
        Ty::I64,
        InstKind::Load {
            ptr: Operand::Inst(slot),
            order: Ordering::NotAtomic,
        },
    );
    let prod = f.push(
        rec,
        Ty::I64,
        InstKind::Bin {
            op: BinOp::Mul,
            lhs: Operand::Inst(sub),
            rhs: Operand::Inst(saved),
        },
    );
    f.set_term(
        rec,
        Terminator::Ret {
            val: Some(Operand::Inst(prod)),
        },
    );
    f.set_term(
        base,
        Terminator::Ret {
            val: Some(Operand::i64(1)),
        },
    );
    let id = m.add_func(f);
    let mut machine = Machine::new(&m);
    let r = machine.run(id, &[Val::B64(10)]).unwrap();
    assert_eq!(r.ret, Some(Val::B64(3628800)));
}

#[test]
fn extern_arity_trap_is_graceful() {
    // Calling a function with too few args traps instead of panicking.
    let mut m = Module::new();
    let mut f = Function::new("f", vec![Ty::I64, Ty::I64], Ty::I64);
    let e = f.entry();
    let s = f.push(
        e,
        Ty::I64,
        InstKind::Bin {
            op: BinOp::Add,
            lhs: Operand::Param(0),
            rhs: Operand::Param(1),
        },
    );
    f.set_term(
        e,
        Terminator::Ret {
            val: Some(Operand::Inst(s)),
        },
    );
    let id = m.add_func(f);
    let mut machine = Machine::new(&m);
    let err = machine.run(id, &[Val::B64(1)]).unwrap_err();
    assert!(matches!(err, lasagne_lir::interp::ExecError::Trap(_)));
}

#[test]
fn fences_do_not_change_results() {
    let mut m = Module::new();
    let pf = m.declare_extern(ExternDecl {
        name: "sqrt".into(),
        params: vec![Ty::F64],
        ret: Ty::F64,
        variadic: false,
    });
    let mut f = Function::new("f", vec![Ty::Ptr(Pointee::F64)], Ty::F64);
    let e = f.entry();
    f.push(
        e,
        Ty::Void,
        InstKind::Fence {
            kind: FenceKind::Frm,
        },
    );
    let v = f.push(
        e,
        Ty::F64,
        InstKind::Load {
            ptr: Operand::Param(0),
            order: Ordering::NotAtomic,
        },
    );
    f.push(
        e,
        Ty::Void,
        InstKind::Fence {
            kind: FenceKind::Fsc,
        },
    );
    let r = f.push(
        e,
        Ty::F64,
        InstKind::Call {
            callee: Callee::Extern(pf),
            args: vec![Operand::Inst(v)],
        },
    );
    f.push(
        e,
        Ty::Void,
        InstKind::Fence {
            kind: FenceKind::Fww,
        },
    );
    f.set_term(
        e,
        Terminator::Ret {
            val: Some(Operand::Inst(r)),
        },
    );
    let id = m.add_func(f);
    let mut machine = Machine::new(&m);
    machine
        .mem
        .write(0x4000_0000, &16.0f64.to_bits().to_le_bytes());
    let res = machine.run(id, &[Val::B64(0x4000_0000)]).unwrap();
    assert_eq!(res.ret.unwrap().f64(), 4.0);
    assert_eq!(res.stats.fences, (1, 1, 1));
}

#[test]
fn printer_covers_all_kinds() {
    let mut m = Module::new();
    let g = m.add_global(lasagne_lir::func::GlobalVar {
        name: "tab".into(),
        size: 16,
        init: vec![],
        addr: 0x60_0000,
    });
    let ext = m.declare_extern(ExternDecl {
        name: "printf".into(),
        params: vec![Ty::I64],
        ret: Ty::I32,
        variadic: true,
    });
    let mut f = Function::new("all", vec![Ty::I64, Ty::I1], Ty::Void);
    let e = f.entry();
    let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
    let p = f.push(
        e,
        Ty::Ptr(Pointee::I8),
        InstKind::Cast {
            op: CastOp::BitCast,
            val: Operand::Inst(slot),
        },
    );
    let gp = f.push(
        e,
        Ty::Ptr(Pointee::I8),
        InstKind::Gep {
            base: Operand::Inst(p),
            offset: Operand::i64(4),
            elem_size: 1,
        },
    );
    let sel = f.push(
        e,
        Ty::I64,
        InstKind::Select {
            cond: Operand::Param(1),
            if_true: Operand::Param(0),
            if_false: Operand::i64(0),
        },
    );
    f.push(
        e,
        Ty::Void,
        InstKind::Store {
            ptr: Operand::Inst(slot),
            val: Operand::Inst(sel),
            order: Ordering::SeqCst,
        },
    );
    let old = f.push(
        e,
        Ty::I64,
        InstKind::AtomicRmw {
            op: lasagne_lir::inst::RmwOp::Add,
            ptr: Operand::Inst(slot),
            val: Operand::i64(1),
        },
    );
    let _cx = f.push(
        e,
        Ty::I64,
        InstKind::CmpXchg {
            ptr: Operand::Inst(slot),
            expected: Operand::Inst(old),
            new: Operand::i64(5),
        },
    );
    f.push(
        e,
        Ty::I32,
        InstKind::Call {
            callee: Callee::Extern(ext),
            args: vec![Operand::Global(g)],
        },
    );
    let _ = gp;
    f.set_term(e, Terminator::Ret { val: None });
    m.add_func(f);
    let text = lasagne_lir::print::print_module(&m);
    for needle in [
        "declare i32 @printf(i64, ...)",
        "@tab = global [16 x i8]",
        "alloca [8 x i8]",
        "bitcast",
        "getelementptr(x1)",
        "select i1 %arg1",
        "store atomic seq_cst",
        "atomicrmw add",
        "cmpxchg",
        "call @printf",
        "ret void",
    ] {
        assert!(
            text.contains(needle),
            "printer output missing `{needle}`:\n{text}"
        );
    }
}

/// Runs function 0 of `m` on `args` and returns its error.
fn run_err(m: &Module, args: &[Val]) -> ExecError {
    let mut machine = Machine::new(m);
    machine
        .run(FuncId(0), args)
        .expect_err("the guest must stop with an error")
}

/// `f(c)`: the entry branches on `c` to `bb1` (which defines `%0` and
/// returns it) or to `bb2`, and both reach `bb3`, whose terminator is
/// `tail`, and whose one phi has the incoming entries `phi_in`.
fn diamond(phi_in: Vec<(BlockId, Operand)>, tail: Terminator) -> Module {
    let mut f = Function::new("f", vec![Ty::I1], Ty::I64);
    let e = f.entry();
    let (left, right, join) = (f.add_block(), f.add_block(), f.add_block());
    let x = f.push(
        left,
        Ty::I64,
        InstKind::Bin {
            op: BinOp::Add,
            lhs: Operand::i64(40),
            rhs: Operand::i64(2),
        },
    );
    assert_eq!(x, InstId(0));
    f.set_term(
        e,
        Terminator::CondBr {
            cond: Operand::Param(0),
            if_true: left,
            if_false: right,
        },
    );
    f.set_term(left, Terminator::Br { dest: join });
    f.set_term(right, Terminator::Br { dest: join });
    f.push(join, Ty::I64, InstKind::Phi { incoming: phi_in });
    f.set_term(join, tail);
    let mut m = Module::new();
    m.add_func(f);
    m
}

#[test]
fn phi_without_an_entry_for_the_taken_edge_traps() {
    let m = diamond(
        vec![(BlockId(1), Operand::i64(1))],
        Terminator::Ret {
            val: Some(Operand::Inst(InstId(1))),
        },
    );
    let mut machine = Machine::new(&m);
    let ok = machine.run(FuncId(0), &[Val::B64(1)]).unwrap();
    assert_eq!(ok.ret, Some(Val::B64(1)));
    assert_eq!(
        run_err(&m, &[Val::B64(0)]),
        ExecError::Trap("phi missing incoming for bb2 in @f".into())
    );
}

#[test]
fn use_of_a_value_not_yet_evaluated_traps() {
    // `bb3` returns `%0`, which only `bb1` defines; the phi reads it too
    // on the edge from `bb2`.
    let ret_x = Terminator::Ret {
        val: Some(Operand::Inst(InstId(0))),
    };
    let want = ExecError::Trap("use of unevaluated %0 in @f".into());
    let m = diamond(
        vec![(BlockId(1), Operand::i64(1)), (BlockId(2), Operand::i64(2))],
        ret_x,
    );
    assert_eq!(run_err(&m, &[Val::B64(0)]), want);
    let m = diamond(
        vec![
            (BlockId(1), Operand::i64(1)),
            (BlockId(2), Operand::Inst(InstId(0))),
        ],
        Terminator::Ret { val: None },
    );
    assert_eq!(run_err(&m, &[Val::B64(0)]), want);
    // The result of a store or a void call is never a value.
    let mut f = Function::new("f", vec![], Ty::I64);
    let e = f.entry();
    let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
    let st = f.push(
        e,
        Ty::Void,
        InstKind::Store {
            ptr: Operand::Inst(slot),
            val: Operand::i64(1),
            order: Ordering::NotAtomic,
        },
    );
    f.set_term(
        e,
        Terminator::Ret {
            val: Some(Operand::Inst(st)),
        },
    );
    let mut m = Module::new();
    m.add_func(f);
    assert_eq!(
        run_err(&m, &[]),
        ExecError::Trap("use of unevaluated %1 in @f".into())
    );
}

#[test]
fn parameter_past_the_argument_count_traps() {
    let mut f = Function::new("f", vec![Ty::I64, Ty::I64], Ty::I64);
    let e = f.entry();
    let s = f.push(
        e,
        Ty::I64,
        InstKind::Bin {
            op: BinOp::Add,
            lhs: Operand::Param(0),
            rhs: Operand::Param(1),
        },
    );
    f.set_term(
        e,
        Terminator::Ret {
            val: Some(Operand::Inst(s)),
        },
    );
    let mut m = Module::new();
    m.add_func(f);
    assert_eq!(
        run_err(&m, &[Val::B64(1)]),
        ExecError::Trap("@f called with 1 args but uses parameter 1".into())
    );
}

#[test]
fn reaching_unreachable_traps() {
    let m = diamond(
        vec![(BlockId(1), Operand::i64(1)), (BlockId(2), Operand::i64(2))],
        Terminator::Unreachable,
    );
    assert_eq!(
        run_err(&m, &[Val::B64(1)]),
        ExecError::Trap("reached unreachable in @f".into())
    );
}

#[test]
fn every_division_by_zero_traps() {
    for op in [BinOp::UDiv, BinOp::SDiv, BinOp::URem, BinOp::SRem] {
        for ty in [Ty::I8, Ty::I32, Ty::I64] {
            let mut f = Function::new("f", vec![Ty::I64], ty);
            let e = f.entry();
            let d = f.push(
                e,
                ty,
                InstKind::Bin {
                    op,
                    lhs: Operand::ConstInt { ty, val: 7 },
                    rhs: Operand::Param(0),
                },
            );
            f.set_term(
                e,
                Terminator::Ret {
                    val: Some(Operand::Inst(d)),
                },
            );
            let mut m = Module::new();
            m.add_func(f);
            // Only the low bits of the divisor count at a narrow width.
            let zero = match ty.int_bits() {
                Some(64) => 0,
                Some(bits) => 1 << bits,
                None => unreachable!(),
            };
            assert_eq!(
                run_err(&m, &[Val::B64(zero)]),
                ExecError::Trap("division by zero".into()),
                "{op:?} {ty}"
            );
        }
    }
}

#[test]
fn calling_an_unknown_extern_is_a_bad_call() {
    let mut m = Module::new();
    let ext = m.declare_extern(ExternDecl {
        name: "no_such_symbol".into(),
        params: vec![Ty::I64],
        ret: Ty::I64,
        variadic: false,
    });
    let mut f = Function::new("f", vec![], Ty::I64);
    let e = f.entry();
    let r = f.push(
        e,
        Ty::I64,
        InstKind::Call {
            callee: Callee::Extern(ext),
            args: vec![Operand::i64(1)],
        },
    );
    f.set_term(
        e,
        Terminator::Ret {
            val: Some(Operand::Inst(r)),
        },
    );
    m.add_func(f);
    assert_eq!(
        run_err(&m, &[]),
        ExecError::BadCall("unknown extern @no_such_symbol".into())
    );
    let mut machine = Machine::new(&m);
    let _ = machine.run(FuncId(0), &[]);
    assert_eq!(
        machine.stats().insts,
        1,
        "the call retired before it trapped"
    );
}

/// `count(n)`: a loop whose header holds two phis, `i` and `s`, summing
/// `0..n`; returns `s`.
fn counting_loop(name: &str) -> Function {
    let mut f = Function::new(name, vec![Ty::I64], Ty::I64);
    let (entry, head, body, exit) = (f.entry(), f.add_block(), f.add_block(), f.add_block());
    f.set_term(entry, Terminator::Br { dest: head });
    let i = f.push(head, Ty::I64, InstKind::Phi { incoming: vec![] });
    let s = f.push(head, Ty::I64, InstKind::Phi { incoming: vec![] });
    let c = f.push(
        head,
        Ty::I1,
        InstKind::ICmp {
            pred: IPred::Ult,
            lhs: Operand::Inst(i),
            rhs: Operand::Param(0),
        },
    );
    f.set_term(
        head,
        Terminator::CondBr {
            cond: Operand::Inst(c),
            if_true: body,
            if_false: exit,
        },
    );
    let add = |lhs, rhs| InstKind::Bin {
        op: BinOp::Add,
        lhs,
        rhs,
    };
    let s2 = f.push(body, Ty::I64, add(Operand::Inst(s), Operand::Inst(i)));
    let i2 = f.push(body, Ty::I64, add(Operand::Inst(i), Operand::i64(1)));
    f.set_term(body, Terminator::Br { dest: head });
    f.inst_mut(i).kind = InstKind::Phi {
        incoming: vec![(entry, Operand::i64(0)), (body, Operand::Inst(i2))],
    };
    f.inst_mut(s).kind = InstKind::Phi {
        incoming: vec![(entry, Operand::i64(0)), (body, Operand::Inst(s2))],
    };
    f.set_term(
        exit,
        Terminator::Ret {
            val: Some(Operand::Inst(s)),
        },
    );
    f
}

/// `main` sums `0..4` with `count` (function 1), spawns `worker`
/// (function 2: sum `0..3` through `count`, stored at its argument) with
/// `pthread_create`, and returns the two sums added.
fn spawning_module() -> Module {
    let mut m = Module::new();
    let pc = m.declare_extern(ExternDecl {
        name: "pthread_create".into(),
        params: vec![Ty::I64; 4],
        ret: Ty::I32,
        variadic: false,
    });
    let mut main = Function::new("main", vec![], Ty::I64);
    let e = main.entry();
    let call = |f: u32, arg| InstKind::Call {
        callee: Callee::Func(FuncId(f)),
        args: vec![arg],
    };
    let a = main.push(e, Ty::I64, call(1, Operand::i64(4)));
    let slot = main.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 16 });
    let tid = main.push(
        e,
        Ty::Ptr(Pointee::I64),
        InstKind::Gep {
            base: Operand::Inst(slot),
            offset: Operand::i64(1),
            elem_size: 8,
        },
    );
    main.push(
        e,
        Ty::I32,
        InstKind::Call {
            callee: Callee::Extern(pc),
            args: vec![
                Operand::Inst(tid),
                Operand::i64(0),
                Operand::Func(FuncId(2)),
                Operand::Inst(slot),
            ],
        },
    );
    let b = main.push(
        e,
        Ty::I64,
        InstKind::Load {
            ptr: Operand::Inst(slot),
            order: Ordering::NotAtomic,
        },
    );
    let sum = main.push(
        e,
        Ty::I64,
        InstKind::Bin {
            op: BinOp::Add,
            lhs: Operand::Inst(a),
            rhs: Operand::Inst(b),
        },
    );
    main.set_term(
        e,
        Terminator::Ret {
            val: Some(Operand::Inst(sum)),
        },
    );
    m.add_func(main);
    m.add_func(counting_loop("count"));
    let mut w = Function::new("worker", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
    let e = w.entry();
    let s = w.push(e, Ty::I64, call(1, Operand::i64(3)));
    w.push(
        e,
        Ty::Void,
        InstKind::Store {
            ptr: Operand::Param(0),
            val: Operand::Inst(s),
            order: Ordering::NotAtomic,
        },
    );
    w.set_term(
        e,
        Terminator::Ret {
            val: Some(Operand::i64(0)),
        },
    );
    m.add_func(w);
    m
}

#[test]
fn step_limit_stops_at_every_step_across_phis_calls_and_threads() {
    let m = spawning_module();
    let full = Machine::new(&m).run(FuncId(0), &[]).unwrap();
    assert_eq!(full.ret, Some(Val::B64(6 + 3)));
    assert_eq!(full.thread_cycles.len(), 1);
    // main 6; count(4) 2 phis + 1 icmp per head visit (5) + 2 per trip
    // (4); worker 2 and count(3) 4 heads and 3 trips.
    let steps = 6 + (5 * 3 + 4 * 2) + 2 + (4 * 3 + 3 * 2);
    assert_eq!(full.stats.insts, steps);
    for k in 0..steps {
        let mut machine = Machine::new(&m);
        machine.set_step_limit(k);
        assert_eq!(
            machine.run(FuncId(0), &[]),
            Err(ExecError::StepLimit),
            "limit {k}"
        );
        assert_eq!(machine.stats().insts, k, "limit {k}");
    }
    let mut machine = Machine::new(&m);
    machine.set_step_limit(steps);
    assert_eq!(machine.run(FuncId(0), &[]), Ok(full));
}

/// `rec(n) = n == 0 ? 0 : rec(n - 1) + 1`.
fn recursion_module() -> Module {
    let mut f = Function::new("rec", vec![Ty::I64], Ty::I64);
    let (e, down) = (f.entry(), f.add_block());
    let base = f.add_block();
    let z = f.push(
        e,
        Ty::I1,
        InstKind::ICmp {
            pred: IPred::Eq,
            lhs: Operand::Param(0),
            rhs: Operand::i64(0),
        },
    );
    f.set_term(
        e,
        Terminator::CondBr {
            cond: Operand::Inst(z),
            if_true: base,
            if_false: down,
        },
    );
    f.set_term(
        base,
        Terminator::Ret {
            val: Some(Operand::i64(0)),
        },
    );
    let bin = |op, lhs, rhs| InstKind::Bin { op, lhs, rhs };
    let nm1 = f.push(
        down,
        Ty::I64,
        bin(BinOp::Sub, Operand::Param(0), Operand::i64(1)),
    );
    let r = f.push(
        down,
        Ty::I64,
        InstKind::Call {
            callee: Callee::Func(FuncId(0)),
            args: vec![Operand::Inst(nm1)],
        },
    );
    let r1 = f.push(
        down,
        Ty::I64,
        bin(BinOp::Add, Operand::Inst(r), Operand::i64(1)),
    );
    f.set_term(
        down,
        Terminator::Ret {
            val: Some(Operand::Inst(r1)),
        },
    );
    let mut m = Module::new();
    m.add_func(f);
    m
}

#[test]
fn deep_recursion_returns_or_traps() {
    // Guest calls do not recurse on the host stack: this runs on the
    // default test thread.
    let m = recursion_module();
    let rec = |n: u64| Machine::new(&m).run(FuncId(0), &[Val::B64(n)]);
    assert_eq!(rec(20_000).unwrap().ret, Some(Val::B64(20_000)));
    // Each call reserves 64 KiB of guest stack below `STACK_TOP`, so
    // `rec(n)`'s n + 1 frames fit up to n + 1 = STACK_TOP / 64 KiB.
    let frames = lasagne_lir::interp::STACK_TOP >> 16;
    assert_eq!(rec(frames - 1).unwrap().ret, Some(Val::B64(frames - 1)));
    assert_eq!(
        rec(frames),
        Err(ExecError::Trap("guest stack overflow calling @rec".into()))
    );
}

#[test]
fn a_cycle_of_empty_blocks_stops_at_the_step_limit() {
    // `spin(x)`: one compare, then a cycle of empty blocks that `x != 0`
    // enters and `x == 0` skips. Terminators take no step, so only spotting
    // the cycle can stop it.
    let mut f = Function::new("spin", vec![Ty::I64], Ty::I64);
    let (e, head, back) = (f.entry(), f.add_block(), f.add_block());
    let exit = f.add_block();
    let nz = f.push(
        e,
        Ty::I1,
        InstKind::ICmp {
            pred: IPred::Ne,
            lhs: Operand::Param(0),
            rhs: Operand::i64(0),
        },
    );
    f.set_term(e, Terminator::Br { dest: head });
    let cond = Operand::Inst(nz);
    f.set_term(
        head,
        Terminator::CondBr {
            cond,
            if_true: back,
            if_false: exit,
        },
    );
    f.set_term(back, Terminator::Br { dest: head });
    f.set_term(
        exit,
        Terminator::Ret {
            val: Some(Operand::i64(7)),
        },
    );
    // `b .`: an entry block that branches to itself.
    let mut selfloop = Function::new("selfloop", vec![], Ty::I64);
    let e = selfloop.entry();
    selfloop.set_term(e, Terminator::Br { dest: e });
    let mut m = Module::new();
    m.add_func(f);
    m.add_func(selfloop);

    let (tx, rx) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || {
        let mut runs = Vec::new();
        for (func, arg) in [(0, Some(1)), (0, Some(0)), (1, None)] {
            let mut machine = Machine::new(&m);
            machine.set_step_limit(100);
            let args: Vec<Val> = arg.into_iter().map(Val::B64).collect();
            let r = machine.run(FuncId(func), &args).map(|r| r.ret);
            runs.push((r, machine.stats().insts));
        }
        tx.send(runs).unwrap();
    });
    let runs = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the machine stops");
    thread.join().unwrap();
    assert_eq!(
        runs,
        [
            (Err(ExecError::StepLimit), 1),
            (Ok(Some(Val::B64(7))), 1),
            (Err(ExecError::StepLimit), 0),
        ]
    );
}
