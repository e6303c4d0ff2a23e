//! Differential fuzzing of the whole translator — the integration-test
//! face of the three-way oracle in [`lasagne::difftest`]. Random x86-64
//! functions are executed on the byte-level x86 interpreter (the
//! independent reference), then lifted and executed on the LIR
//! interpreter, then translated under every §9.1 configuration and
//! executed on the simulated Arm core. All executions must agree on the
//! return value and on the final contents of the shared memory region —
//! any divergence is a bug in the lifter, an optimization pass, fence
//! placement, the Arm backend, or the x86 interpreter itself.
//!
//! The generator (all 16 condition codes, shift-by-CL, 8/16-bit widths)
//! and the executors are shared with the `lasagne difftest` CLI sweep
//! and the capped ci.sh run; this file only binds them to the qc
//! harness. Failure seeds persist to `differential.qc-regressions`
//! (seeds in the legacy `differential.proptest-regressions` file are
//! replayed too).

use lasagne_qc::collection;
use lasagne_qc::prelude::*;
use lasagne_repro::translator::difftest::{
    any_op, any_shape, build_binary, build_cfg_binary, check_threeway, Shape,
};
use lasagne_repro::x86::inst::{FpPrec, Inst, Rm, ShiftOp, SseOp, XmmRm};
use lasagne_repro::x86::reg::{Gpr, Width, Xmm};

properties! {
    config = Config::with_cases(256);

    fn all_configurations_agree(body in collection::vec(any_op(), 1..24)) {
        let bin = build_binary(&body);
        check_threeway(&bin, "fuzz", None)
            .map(drop)
            .map_err(TestCaseError::fail)?;
    }

    /// Same property over programs with branches and loops — exercises the
    /// lifter's CFG reconstruction, φ insertion, and the optimizer's
    /// cross-block passes.
    fn all_configurations_agree_with_control_flow(
        segments in collection::vec(
            (collection::vec(any_op(), 1..8), any_shape()),
            1..5,
        )
    ) {
        let bin = build_cfg_binary(&segments);
        check_threeway(&bin, "cfg-fuzz", None)
            .map(drop)
            .map_err(TestCaseError::fail)?;
    }
}

/// The minimal counterexample persisted in `differential.proptest-regressions`
/// (seed `cc 54f1dac6…`, migrated to `qc 54f1dac6f8875464` in
/// `differential.qc-regressions`): a 32-bit mov truncating RDI into RAX, an
/// SSE scalar add on XMM0, then a second 32-bit mov of RSI into RAX. The FP
/// op between the two integer moves historically diverged between the LIR
/// interpreter and the Arm lowering. Pinned here as a deterministic unit
/// test so the case survives any change to the generator or seed format.
#[test]
fn regression_w32_mov_around_sse_scalar_add() {
    let body = [
        Inst::MovRRm {
            w: Width::W32,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rdi),
        },
        Inst::SseScalar {
            op: SseOp::Add,
            prec: FpPrec::Double,
            dst: Xmm(0),
            src: XmmRm::Reg(Xmm(0)),
        },
        Inst::MovRRm {
            w: Width::W32,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rsi),
        },
    ];
    let bin = build_binary(&body);
    check_threeway(&bin, "persisted regression", None).unwrap_or_else(|e| panic!("{e}"));
}

/// The minimal counterexamples behind seeds `qc a22d3d68…` and
/// `qc 31d195ca…` in `differential.qc-regressions`: a function whose only
/// use of a parameter register is RSI (here a byte-wide read into AL; the
/// other seed reaches RSI through the prologue's `cvtsi2sd xmm0, rsi`).
/// Type discovery took the longest *live prefix* of the parameter
/// registers, so with RDI dead it found zero parameters and the lifted
/// function read undef where x86 read 5. The two-way harness bug-shared
/// this with its reference; only the byte-level x86 interpreter saw it.
#[test]
fn regression_unused_leading_param() {
    let segments = [(
        vec![Inst::MovRRm {
            w: Width::W8,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rsi),
        }],
        Shape::Straight,
    )];
    let bin = build_cfg_binary(&segments);
    check_threeway(&bin, "persisted regression", None).unwrap_or_else(|e| panic!("{e}"));
}

/// The minimal counterexample behind seed `qc e70950b8…` in
/// `crates/lasagne/tests/difftest.qc-regressions`: `shl cl` on a 32-bit
/// operand whose count (CL = 34) exceeds the operand width. x86 and LIR
/// reduce register shift counts modulo the operand width (34 % 32 = 2),
/// but armgen lowered narrow shifts on the 64-bit scratch ALU without
/// masking the count, shifting by 34 and producing 0 after the 32-bit
/// result mask. Found by the three-way sweep the first time shift-by-CL
/// entered the generator; the old two-way harness could never see it
/// because the lifter bug-shared the masked semantics with the reference.
#[test]
fn regression_narrow_shiftcl_count_masking() {
    let segments = [
        (
            vec![Inst::ShiftCl {
                op: ShiftOp::Shl,
                w: Width::W32,
                dst: Rm::Reg(Gpr::Rcx),
            }],
            Shape::Straight,
        ),
        (
            vec![Inst::MovRRm {
                w: Width::W16,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rcx),
            }],
            Shape::Straight,
        ),
    ];
    let bin = build_cfg_binary(&segments);
    check_threeway(&bin, "persisted regression", None).unwrap_or_else(|e| panic!("{e}"));
}
