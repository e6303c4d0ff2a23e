//! Three-way differential execution testing.
//!
//! Every generated or benchmark x86 binary is executed by **three
//! independent oracles** and all observations must agree:
//!
//! ```text
//!                    ┌────────────────────────┐
//!                    │   x86 machine-code     │
//!                    │        bytes           │
//!                    └───┬───────┬────────┬───┘
//!                        │       │        │
//!            decode+run  │  lift │        │ translate (4 Versions ×
//!            the bytes   │       │        │  cold/warm × jobs 1/4)
//!                        ▼       ▼        ▼
//!                 x86-interp   LIR-interp   ArmMachine
//!                        │       │        │
//!                        └───────┴────────┘
//!                      ret + final memory must agree
//! ```
//!
//! The left leg (`lasagne_x86::interp`) shares no code with the lifter, so
//! unlike the original two-way harness a lifter bug cannot be shared by
//! the reference and the system under test. The corpus is the union of
//! qc-generated random functions (straight-line and with control flow) and
//! the full Phoenix suite; [`run_difftest`] sweeps both and reports counts
//! plus the shrunk counterexample of the first divergence, if any.
//!
//! The generator lives here (not in `tests/`) so the `lasagne difftest`
//! CLI mode, CI, and the integration test share one instruction corpus.

use crate::{translate, Pipeline, Version};
use lasagne_armgen::machine::ArmMachine;
use lasagne_armgen::AModule;
use lasagne_lir::interp::{Machine, Val, HEAP_BASE};
use lasagne_lir::Module;
use lasagne_phoenix::{all_benchmarks, Benchmark};
use lasagne_qc::prelude::*;
use lasagne_qc::runner::{self, Failure, TestInfo};
use lasagne_qc::{collection, prop_oneof, regress};
use lasagne_x86::asm::Asm;
use lasagne_x86::binary::{Binary, BinaryBuilder};
use lasagne_x86::inst::{AluOp, FpPrec, Inst, MemRef, Rm, ShiftOp, SseOp, XmmRm};
use lasagne_x86::reg::{Cond, Gpr, Width, Xmm};
use lasagne_x86::X86Machine;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shared memory region base passed in RDI (same as the workload base the
/// Phoenix suite uses — the two corpora never run in the same machine).
pub const REGION: u64 = 0x4000_0000;
/// Number of 8-byte slots compared after a run.
pub const REGION_SLOTS: i64 = 8;

/// Scratch registers the generator plays with.
pub const REGS: [Gpr; 5] = [Gpr::Rax, Gpr::Rcx, Gpr::Rdx, Gpr::R8, Gpr::R9];

// ---- generator -----------------------------------------------------------

/// Any register a generated op may read.
pub fn any_reg() -> impl Strategy<Value = Gpr> {
    prop_oneof![
        Just(REGS[0]),
        Just(REGS[1]),
        Just(REGS[2]),
        Just(REGS[3]),
        Just(REGS[4]),
        Just(Gpr::Rdi),
        Just(Gpr::Rsi),
    ]
}

/// Any register a generated op may write (never RDI, the region pointer).
pub fn any_dst() -> impl Strategy<Value = Gpr> {
    prop_oneof![
        Just(REGS[0]),
        Just(REGS[1]),
        Just(REGS[2]),
        Just(REGS[3]),
        Just(REGS[4])
    ]
}

/// Full operand-width coverage: the assembler encodes all four widths for
/// the mov/ALU forms the generator emits, and the lifter's merge-write
/// model for W8/W16 destinations is exactly what the byte-level
/// interpreter implements.
pub fn any_width() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::W8),
        Just(Width::W16),
        Just(Width::W32),
        Just(Width::W64)
    ]
}

/// A region slot byte offset.
pub fn any_slot() -> impl Strategy<Value = i64> {
    (0..REGION_SLOTS).prop_map(|s| s * 8)
}

/// All sixteen x86 condition codes (the historical generator only used
/// seven; P/NP in particular exercise the parity-flag model end to end).
pub fn any_cond() -> impl Strategy<Value = Cond> {
    (0usize..Cond::ALL.len()).prop_map(|i| Cond::ALL[i])
}

/// One random instruction of the differential corpus.
#[allow(clippy::too_many_lines)]
pub fn any_op() -> impl Strategy<Value = Inst> {
    prop_oneof![
        // Constants and moves (any width: W8/W16 exercise merge-writes).
        (any_dst(), -1000i64..1000, any_width()).prop_map(|(r, v, w)| Inst::MovRmI {
            w,
            dst: Rm::Reg(r),
            imm: v as i32
        }),
        (any_dst(), any_reg(), any_width()).prop_map(|(d, s, w)| Inst::MovRRm {
            w,
            dst: d,
            src: Rm::Reg(s)
        }),
        // ALU.
        (
            prop_oneof![
                Just(AluOp::Add),
                Just(AluOp::Sub),
                Just(AluOp::And),
                Just(AluOp::Or),
                Just(AluOp::Xor),
                Just(AluOp::Cmp)
            ],
            any_dst(),
            any_reg(),
            any_width()
        )
            .prop_map(|(op, d, s, w)| Inst::AluRRm {
                op,
                w,
                dst: d,
                src: Rm::Reg(s)
            }),
        (any_dst(), any_reg()).prop_map(|(d, s)| Inst::IMul2 {
            w: Width::W64,
            dst: d,
            src: Rm::Reg(s)
        }),
        (
            prop_oneof![Just(ShiftOp::Shl), Just(ShiftOp::Shr), Just(ShiftOp::Sar)],
            any_dst(),
            0u8..32
        )
            .prop_map(|(op, d, k)| Inst::ShiftI {
                op,
                w: Width::W64,
                dst: Rm::Reg(d),
                imm: k
            }),
        // Shift by CL (RCX is scratch, so its low byte is always live).
        (
            prop_oneof![Just(ShiftOp::Shl), Just(ShiftOp::Shr), Just(ShiftOp::Sar)],
            any_dst(),
            prop_oneof![Just(Width::W32), Just(Width::W64)]
        )
            .prop_map(|(op, d, w)| Inst::ShiftCl {
                op,
                w,
                dst: Rm::Reg(d)
            }),
        // Width conversions.
        (any_dst(), any_reg()).prop_map(|(d, s)| Inst::MovZx {
            dw: Width::W64,
            sw: Width::W8,
            dst: d,
            src: Rm::Reg(s)
        }),
        (any_dst(), any_reg()).prop_map(|(d, s)| Inst::MovSx {
            dw: Width::W64,
            sw: Width::W32,
            dst: d,
            src: Rm::Reg(s)
        }),
        // Address computation.
        (any_dst(), any_slot()).prop_map(|(d, off)| Inst::Lea {
            w: Width::W64,
            dst: d,
            addr: MemRef::base_disp(Gpr::Rdi, off)
        }),
        // Shared memory traffic through the region.
        (any_dst(), any_slot()).prop_map(|(d, off)| Inst::MovRRm {
            w: Width::W64,
            dst: d,
            src: Rm::Mem(MemRef::base_disp(Gpr::Rdi, off))
        }),
        (any_reg(), any_slot()).prop_map(|(s, off)| Inst::MovRmR {
            w: Width::W64,
            dst: Rm::Mem(MemRef::base_disp(Gpr::Rdi, off)),
            src: s
        }),
        // Flag consumers.
        (any_cond(), any_dst()).prop_map(|(cc, d)| Inst::Setcc {
            cc,
            dst: Rm::Reg(d)
        }),
        (any_cond(), any_dst(), any_reg()).prop_map(|(cc, d, s)| Inst::Cmovcc {
            cc,
            w: Width::W64,
            dst: d,
            src: Rm::Reg(s)
        }),
        // Atomics.
        (any_reg(), any_slot()).prop_map(|(s, off)| Inst::LockXadd {
            w: Width::W64,
            mem: MemRef::base_disp(Gpr::Rdi, off),
            src: s
        }),
        Just(Inst::Mfence),
        // Scalar FP round-trip (kept deterministic with small ints).
        (any_dst(), any_reg()).prop_map(|(_d, s)| Inst::CvtSi2F {
            prec: FpPrec::Double,
            iw: Width::W64,
            dst: Xmm(0),
            src: Rm::Reg(s)
        }),
        Just(Inst::SseScalar {
            op: SseOp::Add,
            prec: FpPrec::Double,
            dst: Xmm(0),
            src: XmmRm::Reg(Xmm(0))
        }),
        (any_dst(),).prop_map(|(d,)| Inst::CvtF2Si {
            prec: FpPrec::Double,
            iw: Width::W64,
            dst: d,
            src: XmmRm::Reg(Xmm(0))
        }),
    ]
}

/// How a segment of generated instructions is wrapped in control flow.
#[derive(Debug, Clone)]
pub enum Shape {
    /// Straight-line.
    Straight,
    /// `cmp r9, imm; jcc over` — the segment runs conditionally.
    Guarded(Cond, i32),
    /// A counted loop over the segment (r10 is the dedicated counter).
    Loop(u8),
}

/// Any [`Shape`], biased toward straight-line code.
pub fn any_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        3 => Just(Shape::Straight),
        1 => (any_cond(), -2i32..3).prop_map(|(cc, k)| Shape::Guarded(cc, k)),
        1 => (1u8..4).prop_map(Shape::Loop),
    ]
}

fn emit_segment(a: &mut Asm, ops: &[Inst], shape: &Shape) {
    match shape {
        Shape::Straight => {
            for i in ops {
                a.push(*i);
            }
        }
        Shape::Guarded(cc, k) => {
            let skip = a.label();
            a.push(Inst::AluRmI {
                op: AluOp::Cmp,
                w: Width::W64,
                dst: Rm::Reg(Gpr::R9),
                imm: *k,
            });
            a.jcc(*cc, skip);
            for i in ops {
                a.push(*i);
            }
            a.bind(skip);
        }
        Shape::Loop(n) => {
            let top = a.label();
            a.push(Inst::MovRmI {
                w: Width::W64,
                dst: Rm::Reg(Gpr::R10),
                imm: i32::from(*n),
            });
            a.bind(top);
            for i in ops {
                a.push(*i);
            }
            a.push(Inst::AluRmI {
                op: AluOp::Sub,
                w: Width::W64,
                dst: Rm::Reg(Gpr::R10),
                imm: 1,
            });
            a.jcc(Cond::Ne, top);
        }
    }
}

fn emit_prologue(a: &mut Asm) {
    // Deterministic register init (every generated op may read any reg).
    for (i, r) in REGS.iter().enumerate() {
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Reg(*r),
            imm: (i as i32 + 1) * 17,
        });
    }
    // Initialise XMM0 too, so FP ops never read a parameter register the
    // harness does not pass.
    a.push(Inst::CvtSi2F {
        prec: FpPrec::Double,
        iw: Width::W64,
        dst: Xmm(0),
        src: Rm::Reg(Gpr::Rsi),
    });
}

/// Builds a one-function binary (`fuzz`) from a straight-line body.
pub fn build_binary(body: &[Inst]) -> Binary {
    build_cfg_binary(std::slice::from_ref(&(body.to_vec(), Shape::Straight)))
}

/// Builds a one-function binary (`fuzz`) from shaped segments.
pub fn build_cfg_binary(segments: &[(Vec<Inst>, Shape)]) -> Binary {
    let mut bin = BinaryBuilder::new();
    let mut a = Asm::new();
    emit_prologue(&mut a);
    for (ops, shape) in segments {
        emit_segment(&mut a, ops, shape);
    }
    a.push(Inst::Ret);
    let addr = bin.next_function_addr();
    bin.add_function("fuzz", a.finish(addr).unwrap());
    bin.finish()
}

// ---- executors -----------------------------------------------------------

fn init_region<M: FnMut(u64, u64)>(mut write: M) {
    for i in 0..REGION_SLOTS as u64 {
        write(REGION + 8 * i, i.wrapping_mul(0x0101_0101) + 3);
    }
}

/// Executes the original bytes on the x86 interpreter.
///
/// # Errors
///
/// Returns the interpreter fault as a string.
pub fn run_x86(bin: &Binary) -> Result<(u64, Vec<u64>), String> {
    let mut machine = X86Machine::new(bin);
    init_region(|a, v| machine.mem.write_u64(a, v));
    let r = machine
        .run("fuzz", &[REGION, 5], &[])
        .map_err(|e| format!("x86-interp: {e}"))?;
    let finals = (0..REGION_SLOTS as u64)
        .map(|i| machine.mem.read_u64(REGION + 8 * i))
        .collect();
    Ok((r.ret, finals))
}

/// Executes a lifted or optimized LIR module on the LIR interpreter.
///
/// # Errors
///
/// Returns the interpreter fault as a string.
pub fn run_lir(m: &Module) -> Result<(u64, Vec<u64>), String> {
    let id = m
        .func_by_name("fuzz")
        .ok_or_else(|| "no fuzz in module".to_string())?;
    let mut machine = Machine::new(m);
    init_region(|a, v| machine.mem.write_u64(a, v));
    let r = machine
        .run(id, &[Val::B64(REGION), Val::B64(5)])
        .map_err(|e| format!("lir-interp: {e:?}"))?;
    let finals = (0..REGION_SLOTS as u64)
        .map(|i| machine.mem.read_u64(REGION + 8 * i))
        .collect();
    Ok((r.ret.map(Val::bits).unwrap_or(0), finals))
}

/// Executes a lowered Arm module on the simulated Arm core.
///
/// # Errors
///
/// Returns the machine fault as a string.
pub fn run_arm(arm: &AModule) -> Result<(u64, Vec<u64>), String> {
    let idx = arm
        .func_by_name("fuzz")
        .ok_or_else(|| "no fuzz in arm module".to_string())?;
    let mut machine = ArmMachine::new(arm);
    init_region(|a, v| machine.mem.write_u64(a, v));
    let r = machine
        .run(idx, &[REGION, 5], &[])
        .map_err(|e| format!("arm: {e:?}"))?;
    let finals = (0..REGION_SLOTS as u64)
        .map(|i| machine.mem.read_u64(REGION + 8 * i))
        .collect();
    Ok((r.ret, finals))
}

// ---- three-way agreement -------------------------------------------------

/// The translation matrix every function is swept across: all four §9.1
/// versions, cold and warm cache, one and four pipeline worker threads.
pub const MATRIX_JOBS: [usize; 2] = [1, 4];

/// Checks one binary across the full matrix: the x86 interpreter against
/// the lifted LIR and every translated version. Returns the number of
/// executions compared.
///
/// With `cache = None` each version is translated once with
/// [`translate`] (serial, uncached) — the form the property tests use.
/// With a cache directory, each version runs at every [`MATRIX_JOBS`]
/// value, cold (first encounter of the content hash) and then warm.
///
/// # Errors
///
/// Returns a divergence (or executor fault) description.
pub fn check_threeway(bin: &Binary, label: &str, cache: Option<&Path>) -> Result<u64, String> {
    // Leg 1: the original bytes.
    let reference = run_x86(bin)?;
    let mut executions = 1u64;
    // Leg 2: the lifted (unoptimized) LIR.
    let lifted = lasagne_lifter::lift_binary(bin).map_err(|e| format!("lift: {e}"))?;
    let lir_lifted = run_lir(&lifted)?;
    executions += 1;
    if lir_lifted != reference {
        return Err(divergence(label, "Lifted-LIR", &reference, &lir_lifted));
    }
    // Leg 3: every translated configuration.
    for v in Version::ALL {
        match cache {
            None => {
                let t = translate(bin, v).map_err(|e| format!("{}: {e}", v.name()))?;
                executions += check_translation(&t, v, label, &reference)?;
            }
            Some(root) => {
                for jobs in MATRIX_JOBS {
                    // A per-(version, jobs) cache directory makes the first
                    // run genuinely cold for this content hash and the
                    // second genuinely warm.
                    let dir = root.join(format!("{}-j{jobs}", v.name()));
                    for phase in ["cold", "warm"] {
                        let (t, _report) = Pipeline::new(v)
                            .with_jobs(jobs)
                            .with_cache(&dir)
                            .run(bin)
                            .map_err(|e| format!("{} {phase} j{jobs}: {e}", v.name()))?;
                        let cfg = format!("{} {phase} j{jobs}", v.name());
                        executions += check_translation(&t, v, &cfg, &reference)
                            .map_err(|e| format!("{label}: {e}"))?;
                    }
                }
            }
        }
    }
    Ok(executions)
}

fn check_translation(
    t: &crate::Translation,
    v: Version,
    cfg: &str,
    reference: &(u64, Vec<u64>),
) -> Result<u64, String> {
    let lir_result = run_lir(&t.module)?;
    if &lir_result != reference {
        return Err(divergence(
            cfg,
            &format!("{}-LIR", v.name()),
            reference,
            &lir_result,
        ));
    }
    let arm_result = run_arm(&t.arm)?;
    if &arm_result != reference {
        return Err(divergence(
            cfg,
            &format!("{}-Arm", v.name()),
            reference,
            &arm_result,
        ));
    }
    Ok(2)
}

fn divergence(label: &str, leg: &str, want: &(u64, Vec<u64>), got: &(u64, Vec<u64>)) -> String {
    format!(
        "{label}: {leg} diverges from x86-interp: ret {:#x} vs {:#x}, mem {:x?} vs {:x?}",
        got.0, want.0, got.1, want.1
    )
}

// ---- Phoenix sweep -------------------------------------------------------

/// FNV-1a over 8-byte words of the given address ranges.
fn digest_words(read: &mut dyn FnMut(u64) -> u64, ranges: &[(u64, u64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(start, end) in ranges {
        let mut a = start;
        while a < end {
            h = (h ^ read(a)).wrapping_mul(0x0100_0000_01b3);
            a += 8;
        }
    }
    h
}

/// Result of sweeping one Phoenix benchmark.
#[derive(Debug, Clone)]
pub struct PhoenixOutcome {
    /// Benchmark abbreviation (Table 1).
    pub abbrev: &'static str,
    /// Functions in the binary (all executed transitively from `main`).
    pub functions: usize,
    /// Executions performed.
    pub executions: u64,
}

/// Runs one Phoenix benchmark through all three oracles and the full
/// translation matrix, comparing the return value (against each executor
/// *and* the Rust-reference checksum) and a digest of final memory (the
/// workload region plus the allocated heap — identical bump allocators
/// make heap addresses comparable across executors).
///
/// # Errors
///
/// Returns a divergence (or executor fault) description.
pub fn check_phoenix(b: &Benchmark, cache: &Path) -> Result<PhoenixOutcome, String> {
    let label = b.abbrev;
    let ranges_of = |heap_hi: u64| -> Vec<(u64, u64)> {
        let mut r: Vec<(u64, u64)> = b
            .workload
            .mem_init
            .iter()
            .map(|(a, bytes)| (*a, a + ((bytes.len() as u64 + 7) & !7)))
            .collect();
        r.push((HEAP_BASE, heap_hi));
        r
    };

    // Leg 1: the original bytes.
    let mut x86 = X86Machine::new(&b.binary);
    for (addr, bytes) in &b.workload.mem_init {
        x86.mem.write(*addr, bytes);
    }
    let r = x86
        .run("main", &b.workload.args, &[])
        .map_err(|e| format!("{label}: x86-interp: {e}"))?;
    if r.ret != b.workload.expected_ret {
        return Err(format!(
            "{label}: x86-interp ret {:#x} != reference checksum {:#x}",
            r.ret, b.workload.expected_ret
        ));
    }
    // The byte-level leg defines the heap high-water mark; all executors
    // share the allocation sequence, so the digest range is common.
    let ranges = ranges_of((x86.heap_next() + 7) & !7);
    let x86_digest = digest_words(&mut |a| x86.mem.read_u64(a), &ranges);
    let mut executions = 1u64;

    // Leg 2: lifted LIR.
    let lifted = lasagne_lifter::lift_binary(&b.binary).map_err(|e| format!("{label}: {e}"))?;
    let (lir_ret, lir_digest) = run_phoenix_lir(&lifted, b, &ranges)?;
    executions += 1;
    if lir_ret != r.ret || lir_digest != x86_digest {
        return Err(format!(
            "{label}: Lifted-LIR diverges: ret {lir_ret:#x}/{:#x} digest {lir_digest:#x}/{x86_digest:#x}",
            r.ret
        ));
    }

    // Leg 3: the full translation matrix.
    for v in Version::ALL {
        for jobs in MATRIX_JOBS {
            let dir = cache.join(format!("{label}-{}-j{jobs}", v.name()));
            for phase in ["cold", "warm"] {
                let (t, _report) = Pipeline::new(v)
                    .with_jobs(jobs)
                    .with_cache(&dir)
                    .run(&b.binary)
                    .map_err(|e| format!("{label} {} {phase} j{jobs}: {e}", v.name()))?;
                let (oret, odigest) = run_phoenix_lir(&t.module, b, &ranges)?;
                if oret != r.ret || odigest != x86_digest {
                    return Err(format!(
                        "{label} {} {phase} j{jobs}: optimized LIR diverges: \
                         ret {oret:#x}/{:#x} digest {odigest:#x}/{x86_digest:#x}",
                        v.name(),
                        r.ret
                    ));
                }
                let (aret, adigest) = run_phoenix_arm(&t.arm, b, &ranges)?;
                if aret != r.ret || adigest != x86_digest {
                    return Err(format!(
                        "{label} {} {phase} j{jobs}: Arm diverges: \
                         ret {aret:#x}/{:#x} digest {adigest:#x}/{x86_digest:#x}",
                        v.name(),
                        r.ret
                    ));
                }
                executions += 2;
            }
        }
    }
    Ok(PhoenixOutcome {
        abbrev: b.abbrev,
        functions: b.binary.functions.len(),
        executions,
    })
}

fn run_phoenix_lir(m: &Module, b: &Benchmark, ranges: &[(u64, u64)]) -> Result<(u64, u64), String> {
    let id = m
        .func_by_name("main")
        .ok_or_else(|| format!("{}: no main in module", b.abbrev))?;
    let mut machine = Machine::new(m);
    for (addr, bytes) in &b.workload.mem_init {
        machine.mem.write(*addr, bytes);
    }
    let args: Vec<Val> = b.workload.args.iter().map(|a| Val::B64(*a)).collect();
    let r = machine
        .run(id, &args)
        .map_err(|e| format!("{}: lir-interp: {e:?}", b.abbrev))?;
    let digest = digest_words(&mut |a| machine.mem.read_u64(a), ranges);
    Ok((r.ret.map(Val::bits).unwrap_or(0), digest))
}

fn run_phoenix_arm(
    arm: &AModule,
    b: &Benchmark,
    ranges: &[(u64, u64)],
) -> Result<(u64, u64), String> {
    let idx = arm
        .func_by_name("main")
        .ok_or_else(|| format!("{}: no main in arm module", b.abbrev))?;
    let mut machine = ArmMachine::new(arm);
    for (addr, bytes) in &b.workload.mem_init {
        machine.mem.write(*addr, bytes);
    }
    let r = machine
        .run(idx, &b.workload.args, &[])
        .map_err(|e| format!("{}: arm: {e:?}", b.abbrev))?;
    let digest = digest_words(&mut |a| machine.mem.read_u64(a), ranges);
    Ok((r.ret, digest))
}

// ---- the sweep -----------------------------------------------------------

/// The deterministic default base seed (re-exported for the CLI, which
/// does not depend on the qc crate directly).
pub fn default_seed() -> u64 {
    lasagne_qc::DEFAULT_SEED
}

/// Options for [`run_difftest`].
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// qc cases per generator family (straight-line and control-flow).
    pub cases: u32,
    /// Base seed for the qc stream.
    pub seed: u64,
    /// Phoenix workload scale.
    pub scale: usize,
    /// Cache root for the cold/warm legs (wiped per run by the CLI).
    pub cache_dir: PathBuf,
    /// Skip the Phoenix sweep (generator-only run).
    pub skip_phoenix: bool,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            cases: 32,
            seed: lasagne_qc::DEFAULT_SEED,
            scale: 64,
            cache_dir: std::env::temp_dir()
                .join(format!("lasagne-difftest-{}", std::process::id())),
            skip_phoenix: false,
        }
    }
}

/// Summary of one differential sweep, as `lasagne difftest` prints it.
#[derive(Debug, Clone)]
pub struct DiffSummary {
    /// qc-generated functions swept (straight-line + control-flow).
    pub qc_functions: u64,
    /// Phoenix benchmarks swept.
    pub phoenix_benchmarks: usize,
    /// Phoenix functions swept (all executed transitively from `main`).
    pub phoenix_functions: usize,
    /// Total executions across all three oracles and the matrix.
    pub executions: u64,
    /// Divergences found (the sweep stops at the first).
    pub divergences: u64,
    /// Shrunk counterexample of the first divergence, if any.
    pub counterexample: Option<String>,
    /// Wall-clock milliseconds for the whole sweep.
    pub wall_ms: u128,
}

impl DiffSummary {
    /// True when every execution agreed.
    pub fn clean(&self) -> bool {
        self.divergences == 0
    }
}

/// Runs the full differential sweep: qc-generated straight-line bodies,
/// qc-generated control-flow bodies, then the Phoenix suite — each function
/// across x86-interp / LIR-interp / ArmMachine × 4 Versions × cold/warm ×
/// jobs 1/4. Persisted regression seeds (`tests/difftest.qc-regressions`
/// in this crate) replay before any novel generation, and new failures are
/// persisted there.
pub fn run_difftest(opts: &DiffOptions) -> DiffSummary {
    let t0 = Instant::now();
    let mut summary = DiffSummary {
        qc_functions: 0,
        phoenix_benchmarks: 0,
        phoenix_functions: 0,
        executions: 0,
        divergences: 0,
        counterexample: None,
        wall_ms: 0,
    };
    let cfg = Config {
        cases: opts.cases,
        seed: opts.seed,
        ..Config::default()
    };
    let info = TestInfo {
        name: "lasagne::difftest::threeway",
        manifest_dir: env!("CARGO_MANIFEST_DIR"),
        source_file: file!(),
    };

    // Family 1: straight-line bodies.
    let execs = Cell::new(0u64);
    let funcs = Cell::new(0u64);
    let straight = collection::vec(any_op(), 1..24);
    let outcome = runner::check(info, &cfg, &straight, |body| {
        let bin = build_binary(&body);
        match check_threeway(&bin, "qc-straight", Some(&opts.cache_dir)) {
            Ok(n) => {
                execs.set(execs.get() + n);
                funcs.set(funcs.get() + 1);
                Ok(())
            }
            Err(e) => Err(TestCaseError::Fail(e)),
        }
    });
    summary.qc_functions += funcs.get();
    summary.executions += execs.get();
    if let Err(f) = outcome {
        summary.divergences += 1;
        summary.counterexample = Some(record_failure(&info, &f));
        summary.wall_ms = t0.elapsed().as_millis();
        return summary;
    }

    // Family 2: control-flow bodies.
    let info_cfg = TestInfo {
        name: "lasagne::difftest::threeway_cfg",
        manifest_dir: env!("CARGO_MANIFEST_DIR"),
        source_file: file!(),
    };
    let execs = Cell::new(0u64);
    let funcs = Cell::new(0u64);
    let shaped = collection::vec((collection::vec(any_op(), 1..8), any_shape()), 1..5);
    let outcome = runner::check(info_cfg, &cfg, &shaped, |segments| {
        let bin = build_cfg_binary(&segments);
        match check_threeway(&bin, "qc-cfg", Some(&opts.cache_dir)) {
            Ok(n) => {
                execs.set(execs.get() + n);
                funcs.set(funcs.get() + 1);
                Ok(())
            }
            Err(e) => Err(TestCaseError::Fail(e)),
        }
    });
    summary.qc_functions += funcs.get();
    summary.executions += execs.get();
    if let Err(f) = outcome {
        summary.divergences += 1;
        summary.counterexample = Some(record_failure(&info_cfg, &f));
        summary.wall_ms = t0.elapsed().as_millis();
        return summary;
    }

    // Family 3: the Phoenix suite.
    if !opts.skip_phoenix {
        for b in all_benchmarks(opts.scale) {
            match check_phoenix(&b, &opts.cache_dir) {
                Ok(o) => {
                    summary.phoenix_benchmarks += 1;
                    summary.phoenix_functions += o.functions;
                    summary.executions += o.executions;
                }
                Err(e) => {
                    summary.divergences += 1;
                    summary.counterexample = Some(e);
                    break;
                }
            }
        }
    }
    summary.wall_ms = t0.elapsed().as_millis();
    summary
}

/// Persists a fresh failing seed to this crate's qc regression file
/// (`tests/difftest.qc-regressions`) and renders the shrunk
/// counterexample. Seeds already in the file are replayed by
/// [`runner::check`] before any novel generation, so a once-found
/// divergence stays in the corpus forever.
fn record_failure<T: std::fmt::Debug>(info: &TestInfo, f: &Failure<T>) -> String {
    let line = format!("{:?}", f.minimal);
    if !f.from_regression && std::env::var_os("LASAGNE_QC_NO_PERSIST").is_none() {
        let path = regress::load(info.manifest_dir, info.source_file).persist_path;
        let _ = regress::append(&path, f.seed, &line);
    }
    format!("seed {:016x}: {line} — {}", f.seed, f.message)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-level leg agrees with lift+LIR on a fixed body covering
    /// flags, memory, atomics, and scalar FP.
    #[test]
    fn threeway_on_fixed_body() {
        let body = [
            Inst::AluRRm {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rcx),
            },
            Inst::MovRmR {
                w: Width::W64,
                dst: Rm::Mem(MemRef::base_disp(Gpr::Rdi, 16)),
                src: Gpr::Rax,
            },
            Inst::LockXadd {
                w: Width::W64,
                mem: MemRef::base_disp(Gpr::Rdi, 0),
                src: Gpr::Rdx,
            },
            Inst::Mfence,
            Inst::Setcc {
                cc: Cond::P,
                dst: Rm::Reg(Gpr::R8),
            },
            Inst::SseScalar {
                op: SseOp::Add,
                prec: FpPrec::Double,
                dst: Xmm(0),
                src: XmmRm::Reg(Xmm(0)),
            },
            Inst::CvtF2Si {
                prec: FpPrec::Double,
                iw: Width::W64,
                dst: Gpr::R9,
                src: XmmRm::Reg(Xmm(0)),
            },
            Inst::AluRRm {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::R9),
            },
        ];
        let bin = build_binary(&body);
        check_threeway(&bin, "fixed", None).unwrap();
    }

    /// The historical persisted counterexample, checked against all three
    /// oracles (the original harness only had two).
    #[test]
    fn threeway_on_persisted_regression() {
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
        check_threeway(&bin, "persisted regression", None).unwrap();
    }

    /// Phoenix histogram sweeps clean through the whole matrix at a small
    /// scale (the full-suite sweep is the CLI's job; this pins the
    /// mechanism in tier-1 tests).
    #[test]
    fn phoenix_histogram_threeway() {
        let b = &all_benchmarks(24)[0];
        let dir = std::env::temp_dir().join(format!("lasagne-difftest-ut-{}", std::process::id()));
        let out = check_phoenix(b, &dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(out.abbrev, "HT");
        assert!(out.executions >= 34);
    }
}
