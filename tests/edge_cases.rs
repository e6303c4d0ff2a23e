//! Hand-written flag/carry/overflow/NaN edge cases for the differential
//! oracle. Each case is a tiny x86 body with a hand-computed expected
//! return value: the byte-level x86 interpreter must produce that value,
//! and then the full three-way check must hold — the LIR interpreter and
//! the simulated Arm core (under all four §9.1 configurations) must agree
//! with the x86 reference on the return value and final memory.
//!
//! Float→int conversion and `min`/`max` are pinned to the *model*
//! semantics shared by all three legs (Rust saturating casts — NaN → 0,
//! ±inf → i64 extremes — and Rust `f64::min`/`max`), which the x86
//! interpreter documents as matching the LIR `FpToSi` model.

use lasagne_repro::translator::difftest::{build_binary, check_threeway, run_x86};
use lasagne_repro::x86::inst::{AluOp, FpPrec, Inst, Rm, ShiftOp, SseOp, XmmRm};
use lasagne_repro::x86::reg::{Cond, Gpr, Width, Xmm};

/// Runs `body` through the x86 interpreter, asserts the hand-computed
/// return value, then asserts three-way agreement.
fn case(name: &str, body: &[Inst], expected: u64) {
    let bin = build_binary(body);
    let (ret, _) = run_x86(&bin).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        ret, expected,
        "{name}: x86 interpreter disagrees with the hand-computed value"
    );
    check_threeway(&bin, name, None).unwrap_or_else(|e| panic!("{e}"));
}

fn movq(dst: Gpr, imm: i32) -> Inst {
    Inst::MovRmI {
        w: Width::W64,
        dst: Rm::Reg(dst),
        imm,
    }
}

fn addi(w: Width, dst: Gpr, imm: i32) -> Inst {
    Inst::AluRmI {
        op: AluOp::Add,
        w,
        dst: Rm::Reg(dst),
        imm,
    }
}

fn subi(w: Width, dst: Gpr, imm: i32) -> Inst {
    Inst::AluRmI {
        op: AluOp::Sub,
        w,
        dst: Rm::Reg(dst),
        imm,
    }
}

fn set(cc: Cond, dst: Gpr) -> Inst {
    Inst::Setcc {
        cc,
        dst: Rm::Reg(dst),
    }
}

/// Loads `xmm` with 0.0/0.0 = NaN (RCX is clobbered).
fn make_nan(xmm: u8) -> Vec<Inst> {
    vec![
        movq(Gpr::Rcx, 0),
        Inst::CvtSi2F {
            prec: FpPrec::Double,
            iw: Width::W64,
            dst: Xmm(xmm),
            src: Rm::Reg(Gpr::Rcx),
        },
        Inst::SseScalar {
            op: SseOp::Div,
            prec: FpPrec::Double,
            dst: Xmm(xmm),
            src: XmmRm::Reg(Xmm(xmm)),
        },
    ]
}

#[test]
fn carry_out_of_unsigned_add() {
    // u64::MAX + 1 wraps to 0 with CF=1.
    let body = [
        Inst::MovAbs {
            dst: Gpr::Rcx,
            imm: u64::MAX,
        },
        addi(Width::W64, Gpr::Rcx, 1),
        movq(Gpr::Rax, 0),
        set(Cond::B, Gpr::Rax),
    ];
    case("carry_out_of_unsigned_add", &body, 1);
}

#[test]
fn add_without_carry_clears_cf() {
    let body = [
        movq(Gpr::Rcx, 34),
        addi(Width::W64, Gpr::Rcx, 1),
        movq(Gpr::Rax, 0),
        set(Cond::B, Gpr::Rax),
    ];
    case("add_without_carry_clears_cf", &body, 0);
}

#[test]
fn signed_overflow_at_int64_max() {
    // i64::MAX + 1: OF=1 (signed wrap) but CF=0 (no unsigned carry).
    // Return 2*OF + CF = 2.
    let body = [
        Inst::MovAbs {
            dst: Gpr::Rcx,
            imm: i64::MAX as u64,
        },
        addi(Width::W64, Gpr::Rcx, 1),
        movq(Gpr::Rax, 0),
        movq(Gpr::Rdx, 0),
        set(Cond::O, Gpr::Rax),
        set(Cond::B, Gpr::Rdx),
        Inst::ShiftI {
            op: ShiftOp::Shl,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rax),
            imm: 1,
        },
        Inst::AluRRm {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rdx),
        },
    ];
    case("signed_overflow_at_int64_max", &body, 2);
}

#[test]
fn signed_overflow_at_int64_min_sub() {
    // i64::MIN - 1: OF=1, and no unsigned borrow (0x8000… ≥ 1) so CF=0.
    let body = [
        Inst::MovAbs {
            dst: Gpr::Rcx,
            imm: i64::MIN as u64,
        },
        subi(Width::W64, Gpr::Rcx, 1),
        movq(Gpr::Rax, 0),
        set(Cond::O, Gpr::Rax),
    ];
    case("signed_overflow_at_int64_min_sub", &body, 1);
}

#[test]
fn sub_borrow_sets_cf() {
    // 0 - 1 borrows: CF=1, SF=1, ZF=0. Return 2*CF + SF-via-Cond::S = 3.
    let body = [
        movq(Gpr::Rcx, 0),
        subi(Width::W64, Gpr::Rcx, 1),
        movq(Gpr::Rax, 0),
        movq(Gpr::Rdx, 0),
        set(Cond::B, Gpr::Rax),
        set(Cond::S, Gpr::Rdx),
        Inst::ShiftI {
            op: ShiftOp::Shl,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rax),
            imm: 1,
        },
        Inst::AluRRm {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rdx),
        },
    ];
    case("sub_borrow_sets_cf", &body, 3);
}

#[test]
fn cmp_signed_and_unsigned_orders_disagree() {
    // -1 vs 1: signed `<` holds (L=1) and unsigned `>` holds too (A=1),
    // because -1 is 0xFFFF…FFFF unsigned. Return 2*L + A = 3.
    let body = [
        movq(Gpr::Rcx, -1),
        movq(Gpr::Rax, 0),
        movq(Gpr::Rdx, 0),
        Inst::AluRmI {
            op: AluOp::Cmp,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rcx),
            imm: 1,
        },
        set(Cond::L, Gpr::Rax),
        set(Cond::A, Gpr::Rdx),
        Inst::ShiftI {
            op: ShiftOp::Shl,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rax),
            imm: 1,
        },
        Inst::AluRRm {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rdx),
        },
    ];
    case("cmp_signed_and_unsigned_orders_disagree", &body, 3);
}

#[test]
fn imul_wide_overflow_wraps_and_clears_of_in_model() {
    // 2^32 * 2^32 = 2^64 wraps the 64-bit product to 0. Hardware would set
    // OF/CF here; the shared model (x86 interpreter, LIR lifting, and the
    // Arm lowering alike) documents imul as clearing both, so the setcc
    // contributes 0 and the whole expression returns 0. What matters for
    // the oracle is that all three legs pin the SAME simplification.
    let body = [
        Inst::MovAbs {
            dst: Gpr::Rcx,
            imm: 1 << 32,
        },
        Inst::IMul2 {
            w: Width::W64,
            dst: Gpr::Rcx,
            src: Rm::Reg(Gpr::Rcx),
        },
        movq(Gpr::Rax, 0),
        set(Cond::O, Gpr::Rax),
        Inst::AluRRm {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rcx),
        },
    ];
    case("imul_wide_overflow_wraps_and_clears_of_in_model", &body, 0);
}

#[test]
fn carry_at_32_bit_boundary() {
    // 32-bit add of 0xFFFF_FFFF + 1: CF=1, and the 32-bit write zeroes
    // the upper half, so RCX ends up 0. Return CF + RCX = 1.
    let body = [
        Inst::MovAbs {
            dst: Gpr::Rcx,
            imm: 0xFFFF_FFFF,
        },
        addi(Width::W32, Gpr::Rcx, 1),
        movq(Gpr::Rax, 0),
        set(Cond::B, Gpr::Rax),
        Inst::AluRRm {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rcx),
        },
    ];
    case("carry_at_32_bit_boundary", &body, 1);
}

#[test]
fn arithmetic_vs_logical_right_shift() {
    // -8 sar 1 = -4; -8 shr 60 = 15. Sum wraps to 11.
    let body = [
        movq(Gpr::Rcx, -8),
        Inst::ShiftI {
            op: ShiftOp::Sar,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rcx),
            imm: 1,
        },
        movq(Gpr::Rdx, -8),
        Inst::ShiftI {
            op: ShiftOp::Shr,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rdx),
            imm: 60,
        },
        movq(Gpr::Rax, 0),
        Inst::AluRRm {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rcx),
        },
        Inst::AluRRm {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rdx),
        },
    ];
    case("arithmetic_vs_logical_right_shift", &body, 11);
}

#[test]
fn nan_compares_unordered() {
    // 0.0/0.0 is NaN; ucomisd NaN, NaN sets ZF=CF=PF=1.
    let mut body = make_nan(1);
    body.extend([
        Inst::Ucomis {
            prec: FpPrec::Double,
            a: Xmm(1),
            b: XmmRm::Reg(Xmm(1)),
        },
        movq(Gpr::Rax, 0),
        set(Cond::P, Gpr::Rax),
    ]);
    case("nan_compares_unordered", &body, 1);
}

#[test]
fn nan_propagates_through_arithmetic() {
    // NaN + 5.0 is still NaN (prologue sets XMM0 = 5.0).
    let mut body = make_nan(1);
    body.extend([
        Inst::SseScalar {
            op: SseOp::Add,
            prec: FpPrec::Double,
            dst: Xmm(1),
            src: XmmRm::Reg(Xmm(0)),
        },
        Inst::Ucomis {
            prec: FpPrec::Double,
            a: Xmm(1),
            b: XmmRm::Reg(Xmm(1)),
        },
        movq(Gpr::Rax, 0),
        set(Cond::P, Gpr::Rax),
    ]);
    case("nan_propagates_through_arithmetic", &body, 1);
}

#[test]
fn nan_converts_to_zero_in_model() {
    // The shared FpToSi model saturates: NaN → 0. Add 7 so the result is
    // distinguishable from an accidental zero.
    let mut body = make_nan(1);
    body.extend([
        Inst::CvtF2Si {
            prec: FpPrec::Double,
            iw: Width::W64,
            dst: Gpr::Rax,
            src: XmmRm::Reg(Xmm(1)),
        },
        addi(Width::W64, Gpr::Rax, 7),
    ]);
    case("nan_converts_to_zero_in_model", &body, 7);
}

#[test]
fn min_of_nan_and_value_returns_value() {
    // Model semantics (Rust f64::min): min(NaN, 5.0) = 5.0.
    let mut body = make_nan(1);
    body.extend([
        Inst::SseScalar {
            op: SseOp::Min,
            prec: FpPrec::Double,
            dst: Xmm(1),
            src: XmmRm::Reg(Xmm(0)),
        },
        Inst::CvtF2Si {
            prec: FpPrec::Double,
            iw: Width::W64,
            dst: Gpr::Rax,
            src: XmmRm::Reg(Xmm(1)),
        },
    ]);
    case("min_of_nan_and_value_returns_value", &body, 5);
}

#[test]
fn infinity_saturates_float_to_int() {
    // 1.0/0.0 = +inf; the saturating cast pins it to i64::MAX.
    let body = [
        movq(Gpr::Rcx, 1),
        Inst::CvtSi2F {
            prec: FpPrec::Double,
            iw: Width::W64,
            dst: Xmm(1),
            src: Rm::Reg(Gpr::Rcx),
        },
        movq(Gpr::Rdx, 0),
        Inst::CvtSi2F {
            prec: FpPrec::Double,
            iw: Width::W64,
            dst: Xmm(2),
            src: Rm::Reg(Gpr::Rdx),
        },
        Inst::SseScalar {
            op: SseOp::Div,
            prec: FpPrec::Double,
            dst: Xmm(1),
            src: XmmRm::Reg(Xmm(2)),
        },
        Inst::CvtF2Si {
            prec: FpPrec::Double,
            iw: Width::W64,
            dst: Gpr::Rax,
            src: XmmRm::Reg(Xmm(1)),
        },
    ];
    case("infinity_saturates_float_to_int", &body, i64::MAX as u64);
}
