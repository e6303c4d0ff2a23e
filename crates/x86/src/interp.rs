//! Byte-level x86-subset interpreter.
//!
//! Executes the **original machine-code bytes** of a [`Binary`], decoded
//! by [`crate::decode::decode_one`] — it shares no code with the lifter,
//! so it is an independent oracle for the whole translation pipeline: a
//! bug in CFG reconstruction, translation, SSA promotion, refinement,
//! optimization, fence placement, or the Arm backend shows up as a
//! divergence between this interpreter and the LIR/Arm executions of the
//! same bytes.
//!
//! # The model ISA
//!
//! The interpreter implements the *model* x86 semantics the lifter
//! documents (`lifter::translate`), not the full hardware ISA, so that all
//! three executors can agree bit-for-bit on well-defined programs:
//!
//! * flags follow the lifter's deliberate approximations — `imul` and the
//!   shifts clear CF/OF (ZF/SF/PF of shifts are exact), one-operand
//!   64-bit `mul`/`imul` zeroes RDX instead of producing the high half,
//!   `adc`/`sbb` compute flags from the carry-less operands;
//! * shift counts are reduced modulo the operand width;
//! * `f64`/`f32` arithmetic is IEEE via Rust, `min`/`max` are
//!   NaN-ignoring (`f64::min`), `cvttsd2si` is Rust's saturating
//!   `as i64` cast (NaN → 0);
//! * guest memory is `lir::interp`'s [`Memory`], and the libc/pthread
//!   externs go to its shared [`Runtime`] (bump allocator, sequential
//!   fork–join threads, per-thread stacks), so heap pointers and thread
//!   ids have identical numeric values in all executors.
//!
//! Flag bookkeeping goes through [`crate::flags`]' [`Flag`] vocabulary so
//! the interpreter and the lifter's liveness metadata name the same state.
//!
//! # Execution
//!
//! The text is decoded into runs on first entry at each offset, with
//! their charges summed once (see `interp/decode.rs`), and one loop
//! charges and executes a run at a time. When the step budget does not
//! cover a run, the machine retires that run's first instructions one
//! step each and stops, so the first error and every statistic are those
//! of charging per step. Guest calls stay on the guest stack. A
//! `pthread_create` saves the parent's context (registers, XMM registers,
//! flags, where it resumes, and its [`Thread`]) on an explicit stack and
//! runs the child in the same loop; the child's return to the sentinel
//! address restores that context, so the child still runs to completion
//! before its parent resumes, and no guest thread grows the host stack.

mod decode;
#[cfg(test)]
mod equivalence;
#[cfg(test)]
mod reference;

use crate::binary::Binary;
use crate::decode::decode_one;
use crate::flags::Flag;
use crate::inst::{AluOp, FpPrec, Inst, MemRef, MulDivOp, Rm, ShiftOp, SseOp, XmmRm};
use crate::reg::{Gpr, Width, Xmm};
use decode::{cost_of, Code, Dest, End, ExternCall, Run, UNLINKED};
use lasagne_lir::interp::runtime::{critical_path, Extern, Runtime, Thread};
use lasagne_lir::interp::{Memory, STACK_TOP};

/// Pseudo return address pushed below every entry frame; reaching it ends
/// the run (or the thread).
const RET_SENTINEL: u64 = 0xffff_8000_dead_0000;

/// Runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum X86Error {
    /// The bytes at RIP do not decode.
    Decode(String),
    /// Control transferred outside the text section, or to an unknown
    /// extern.
    BadCall(String),
    /// Division by zero, `ud2`, `exit()`, or similar.
    Trap(String),
    /// The configured step limit was exceeded.
    StepLimit,
}

impl std::fmt::Display for X86Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            X86Error::Decode(s) => write!(f, "decode: {s}"),
            X86Error::BadCall(s) => write!(f, "bad call: {s}"),
            X86Error::Trap(s) => write!(f, "trap: {s}"),
            X86Error::StepLimit => write!(f, "step limit exceeded"),
        }
    }
}

impl std::error::Error for X86Error {}

/// Dynamic execution statistics (mirrors `lir::interp::ExecStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct X86Stats {
    /// Instructions retired.
    pub insts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Fences executed: `mfence` counts into the third (SC) bucket, the
    /// first two exist for shape parity with the LIR stats.
    pub fences: (u64, u64, u64),
    /// Atomic RMWs executed.
    pub rmws: u64,
    /// Abstract cycle count.
    pub cycles: u64,
}

/// Outcome of a completed run (mirrors `lir::interp::RunResult`).
#[derive(Debug, Clone, PartialEq)]
pub struct X86RunResult {
    /// RAX at the final `ret`.
    pub ret: u64,
    /// Whole-run statistics.
    pub stats: X86Stats,
    /// Per-spawned-thread cycle counts, in spawn order.
    pub thread_cycles: Vec<u64>,
    /// Captured `printf`/`puts` output.
    pub output: String,
}

impl X86RunResult {
    /// Fork–join critical path: main-thread cycles plus the slowest child.
    pub fn critical_path_cycles(&self) -> u64 {
        critical_path(self.stats.cycles, &self.thread_cycles)
    }
}

fn mask(w: Width, v: u64) -> u64 {
    v & w.mask()
}

/// `op` on two doubles; `sqrt` is one-operand and handled by the caller.
fn sse_f64(op: SseOp, x: f64, y: f64) -> f64 {
    match op {
        SseOp::Add => x + y,
        SseOp::Sub => x - y,
        SseOp::Mul => x * y,
        SseOp::Div => x / y,
        SseOp::Min => x.min(y),
        SseOp::Max => x.max(y),
        SseOp::Sqrt => unreachable!(),
    }
}

fn sext_w(w: Width, v: u64) -> i64 {
    let shift = 64 - w.bits();
    ((mask(w, v) << shift) as i64) >> shift
}

/// The interpreter.
pub struct X86Machine<'b> {
    bin: &'b Binary,
    /// Simulated memory.
    pub mem: Memory,
    regs: [u64; 16],
    xmm: [[u8; 16]; 16],
    cf: bool,
    pf: bool,
    zf: bool,
    sf: bool,
    of: bool,
    rt: Runtime,
    stats: X86Stats,
    steps_left: u64,
    /// The runs decoded so far (held by the loop while it runs).
    code: Code<'b>,
    /// The contexts of the threads that spawned the running one, innermost
    /// last.
    parents: Vec<Context>,
}

/// What a `pthread_create` saves of its caller, restored when the child
/// returns to [`RET_SENTINEL`].
struct Context {
    regs: [u64; 16],
    xmm: [[u8; 16]; 16],
    /// CF, PF, ZF, SF, OF.
    flags: [bool; 5],
    /// Where the caller resumes; `None` after a tail call through the PLT,
    /// which returns to the address on top of the caller's stack.
    resume: Option<u64>,
    thread: Thread,
}

/// The run index the loop stops at: the entry frame returned.
const DONE: u32 = u32::MAX;

impl<'b> X86Machine<'b> {
    /// Creates a machine for `bin`, mapping its globals into memory.
    pub fn new(bin: &'b Binary) -> X86Machine<'b> {
        let mut mem = Memory::new();
        for g in &bin.globals {
            let mut bytes = g.init.clone();
            bytes.resize(g.size as usize, 0);
            mem.write(g.addr, &bytes);
        }
        X86Machine {
            bin,
            mem,
            regs: [0; 16],
            xmm: [[0; 16]; 16],
            cf: false,
            pf: false,
            zf: false,
            sf: false,
            of: false,
            rt: Runtime::default(),
            stats: X86Stats::default(),
            steps_left: 500_000_000,
            code: Code::new(bin),
            parents: Vec::new(),
        }
    }

    /// Sets the execution step limit.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.steps_left = limit;
    }

    /// Accumulated stats so far.
    pub fn stats(&self) -> X86Stats {
        self.stats
    }

    /// Current bump-allocator high-water mark (`HEAP_BASE` before the
    /// first `malloc`). Useful for bounding final-memory comparisons.
    pub fn heap_next(&self) -> u64 {
        self.rt.heap_next
    }

    /// Runs the named function with the System-V argument registers set to
    /// `args` (RDI, RSI, …) and `fp_args` (XMM0, XMM1, …).
    ///
    /// # Errors
    ///
    /// Returns an [`X86Error`] when the function is unknown or execution
    /// faults.
    pub fn run(
        &mut self,
        name: &str,
        args: &[u64],
        fp_args: &[f64],
    ) -> Result<X86RunResult, X86Error> {
        let f = self
            .bin
            .function_by_name(name)
            .ok_or_else(|| X86Error::BadCall(format!("no function named {name}")))?;
        self.run_addr(f.addr, args, fp_args)
    }

    /// Runs the function at `entry` (see [`X86Machine::run`]).
    ///
    /// # Errors
    ///
    /// Returns an [`X86Error`] when execution faults.
    pub fn run_addr(
        &mut self,
        entry: u64,
        args: &[u64],
        fp_args: &[f64],
    ) -> Result<X86RunResult, X86Error> {
        self.set_up(args, fp_args);
        self.exec_from(entry)?;
        Ok(self.result())
    }

    /// Sets the argument registers and pushes the sentinel return address.
    fn set_up(&mut self, args: &[u64], fp_args: &[f64]) {
        for (i, a) in args.iter().enumerate().take(Gpr::PARAMS.len()) {
            self.regs[Gpr::PARAMS[i].encoding() as usize] = *a;
        }
        for (i, a) in fp_args.iter().enumerate().take(Xmm::PARAMS.len()) {
            let mut lane = [0u8; 16];
            lane[..8].copy_from_slice(&a.to_bits().to_le_bytes());
            self.xmm[Xmm::PARAMS[i].encoding() as usize] = lane;
        }
        let sp = STACK_TOP - 8;
        self.mem.write_u64(sp, RET_SENTINEL);
        self.regs[Gpr::Rsp.encoding() as usize] = sp;
    }

    fn result(&self) -> X86RunResult {
        X86RunResult {
            ret: self.regs[Gpr::Rax.encoding() as usize],
            stats: self.stats,
            thread_cycles: self.rt.thread_cycles.clone(),
            output: self.rt.output.clone(),
        }
    }

    /// Runs from `entry` until control returns to the sentinel address
    /// with no spawning thread to resume.
    fn exec_from(&mut self, entry: u64) -> Result<(), X86Error> {
        self.parents.clear();
        // The loop holds the runs, so that it can execute their
        // instructions while it changes the machine.
        let mut code = std::mem::take(&mut self.code);
        let r = self.exec_runs(&mut code, entry);
        self.code = code;
        r
    }

    /// The loop: charges and executes one run after another.
    fn exec_runs(&mut self, code: &mut Code<'b>, entry: u64) -> Result<(), X86Error> {
        let mut at = self.jump(code, entry)?;
        while let Some(run) = code.runs.get(at as usize) {
            let Run {
                start,
                len,
                steps,
                cycles,
                loads,
                stores,
                end,
            } = *run;
            if self.steps_left < steps {
                return Err(self.run_out(code, at));
            }
            self.steps_left -= steps;
            self.stats.insts += steps;
            self.stats.cycles += cycles;
            self.stats.loads += loads;
            self.stats.stores += stores;
            let body = start as usize..(start + len) as usize;
            for inst in &code.insts[body] {
                self.exec(inst);
            }
            at = match end {
                End::Jmp(d) => self.follow(code, at, d, 0)?,
                End::Jcc { cc, taken, next } => {
                    if self.cond(cc) {
                        self.follow(code, at, taken, 0)?
                    } else {
                        self.follow(code, at, next, 1)?
                    }
                }
                End::Call { callee, ret } => {
                    self.push64(ret);
                    self.follow(code, at, callee, 0)?
                }
                End::Ret => {
                    let rip = self.pop64();
                    match code.decoded(rip) {
                        Some(r) => r,
                        None => self.jump(code, rip)?,
                    }
                }
                End::CallExtern { ext, next } => match self.call_extern(ext, Some(next.addr))? {
                    Some(entry) => self.jump(code, entry)?,
                    None => self.follow(code, at, next, 0)?,
                },
                End::TailExtern(ext) => {
                    let rip = match self.call_extern(ext, None)? {
                        Some(entry) => entry,
                        None => self.pop64(),
                    };
                    self.jump(code, rip)?
                }
                End::CallReg { reg, ret } => {
                    let target = self.gpr64(reg);
                    let rip = match code.extern_at(target) {
                        Some(ext) => self.call_extern(ext, Some(ret))?.unwrap_or(ret),
                        None => {
                            self.push64(ret);
                            target
                        }
                    };
                    self.jump(code, rip)?
                }
                End::Checked { next } => {
                    self.exec_checked(&code.insts[start as usize + len as usize])?;
                    self.follow(code, at, next, 0)?
                }
                End::Fault(rip) => return Err(self.fault(rip)),
            };
        }
        Ok(())
    }

    /// The run at `d`, the `slot`th target of run `at`'s end, linked
    /// there the first time it is followed.
    #[inline(always)]
    fn follow(
        &mut self,
        code: &mut Code<'b>,
        at: u32,
        d: Dest,
        slot: usize,
    ) -> Result<u32, X86Error> {
        if d.run != UNLINKED {
            return Ok(d.run);
        }
        self.link(code, at, d.addr, slot)
    }

    #[cold]
    fn link(
        &mut self,
        code: &mut Code<'b>,
        at: u32,
        addr: u64,
        slot: usize,
    ) -> Result<u32, X86Error> {
        match code.run_at(addr) {
            Some(r) => {
                code.runs[at as usize].end.dest_mut(slot).run = r;
                Ok(r)
            }
            None => self.jump(code, addr),
        }
    }

    /// The run to go on with at `rip`: the one entered there, decoded now
    /// if need be; at [`RET_SENTINEL`], the spawning thread's (or [`DONE`]
    /// if none).
    fn jump(&mut self, code: &mut Code<'b>, mut rip: u64) -> Result<u32, X86Error> {
        while rip == RET_SENTINEL {
            let Some(parent) = self.parents.pop() else {
                return Ok(DONE);
            };
            rip = self.end_thread(parent);
        }
        code.run_at(rip).ok_or_else(|| self.fault(rip))
    }

    /// Takes the step at `rip`, whose bytes do not decode or which lies
    /// outside `.text`, and returns its error.
    #[cold]
    fn fault(&mut self, rip: u64) -> X86Error {
        if self.steps_left == 0 {
            return X86Error::StepLimit;
        }
        self.steps_left -= 1;
        let text = &self.bin.text;
        match rip
            .checked_sub(self.bin.text_base)
            .filter(|o| *o < text.len() as u64)
        {
            None => X86Error::BadCall(format!("rip {rip:#x} outside text")),
            Some(off) => match decode_one(&text[off as usize..], rip) {
                Err(e) => X86Error::Decode(format!("at {rip:#x}: {e}")),
                Ok(_) => unreachable!("a run ends where its bytes stop decoding"),
            },
        }
    }

    /// Retires the first `steps_left` instructions of run `at`, which the
    /// budget does not cover, each on its own step, and stops there.
    #[cold]
    fn run_out(&mut self, code: &Code<'b>, at: u32) -> X86Error {
        let run = &code.runs[at as usize];
        let k = u64::from(run.len).min(self.steps_left);
        let start = run.start as usize;
        for inst in &code.insts[start..start + k as usize] {
            self.stats.insts += 1;
            self.stats.cycles += cost_of(inst);
            self.stats.loads += u64::from(inst.reads_memory());
            self.stats.stores += u64::from(inst.writes_memory());
            self.exec(inst);
        }
        self.steps_left -= k;
        X86Error::StepLimit
    }

    // ---- registers -------------------------------------------------------

    fn gpr64(&self, r: Gpr) -> u64 {
        self.regs[r.encoding() as usize]
    }

    fn read_gpr(&self, r: Gpr, w: Width) -> u64 {
        mask(w, self.gpr64(r))
    }

    /// Width-correct GPR write: 64-bit writes replace, 32-bit writes zero
    /// the upper half, 8/16-bit writes merge.
    fn write_gpr(&mut self, r: Gpr, w: Width, v: u64) {
        let slot = &mut self.regs[r.encoding() as usize];
        *slot = match w {
            Width::W64 => v,
            Width::W32 => mask(w, v),
            Width::W8 | Width::W16 => (*slot & !w.mask()) | mask(w, v),
        };
    }

    // ---- flags -----------------------------------------------------------

    /// Reads one modelled flag (the [`Flag`] vocabulary of
    /// [`crate::flags`]).
    pub fn flag(&self, f: Flag) -> bool {
        match f {
            Flag::Cf => self.cf,
            Flag::Pf => self.pf,
            Flag::Zf => self.zf,
            Flag::Sf => self.sf,
            Flag::Of => self.of,
        }
    }

    fn set_zsp(&mut self, res: u64, w: Width) {
        let r = mask(w, res);
        self.zf = r == 0;
        self.sf = sext_w(w, r) < 0;
        // Parity of the low byte: PF is set when the popcount is even,
        // matching the lifter's shift/xor reduction.
        self.pf = (r as u8).count_ones() % 2 == 0;
    }

    fn set_flags_add(&mut self, a: u64, b: u64, res: u64, w: Width) {
        let (a, b, r) = (mask(w, a), mask(w, b), mask(w, res));
        self.cf = r < a;
        self.of = sext_w(w, (a ^ r) & (b ^ r)) < 0;
        self.set_zsp(r, w);
    }

    fn set_flags_sub(&mut self, a: u64, b: u64, res: u64, w: Width) {
        let (a, b, r) = (mask(w, a), mask(w, b), mask(w, res));
        self.cf = a < b;
        self.of = sext_w(w, (a ^ b) & (a ^ r)) < 0;
        self.set_zsp(r, w);
    }

    fn set_flags_logic(&mut self, res: u64, w: Width) {
        self.cf = false;
        self.of = false;
        self.set_zsp(res, w);
    }

    /// Evaluates a condition code against the current flags.
    pub fn cond(&self, cc: crate::reg::Cond) -> bool {
        use crate::reg::Cond;
        match cc {
            Cond::O => self.of,
            Cond::No => !self.of,
            Cond::B => self.cf,
            Cond::Ae => !self.cf,
            Cond::E => self.zf,
            Cond::Ne => !self.zf,
            Cond::Be => self.cf || self.zf,
            Cond::A => !(self.cf || self.zf),
            Cond::S => self.sf,
            Cond::Ns => !self.sf,
            Cond::P => self.pf,
            Cond::Np => !self.pf,
            Cond::L => self.sf != self.of,
            Cond::Ge => self.sf == self.of,
            Cond::Le => self.zf || (self.sf != self.of),
            Cond::G => !self.zf && (self.sf == self.of),
        }
    }

    // ---- memory operands -------------------------------------------------

    fn addr_of(&self, m: &MemRef) -> u64 {
        if m.rip_relative {
            return m.disp as u64;
        }
        let mut a = m.base.map(|b| self.gpr64(b)).unwrap_or(0);
        if let Some(i) = m.index {
            a = a.wrapping_add(self.gpr64(i).wrapping_mul(u64::from(m.scale)));
        }
        a.wrapping_add(m.disp as u64)
    }

    fn load(&mut self, m: &MemRef, w: Width) -> u64 {
        self.mem.read_uint(self.addr_of(m), w.bytes() as usize)
    }

    fn store(&mut self, m: &MemRef, w: Width, v: u64) {
        let a = self.addr_of(m);
        self.mem.write_uint(a, w.bytes() as usize, v);
    }

    fn read_rm(&mut self, rm: &Rm, w: Width) -> u64 {
        match rm {
            Rm::Reg(r) => self.read_gpr(*r, w),
            Rm::Mem(m) => self.load(m, w),
        }
    }

    fn write_rm(&mut self, rm: &Rm, w: Width, v: u64) {
        match rm {
            Rm::Reg(r) => self.write_gpr(*r, w, v),
            Rm::Mem(m) => self.store(m, w, v),
        }
    }

    // ---- XMM -------------------------------------------------------------

    fn xmm_scalar(&self, x: Xmm, prec: FpPrec) -> u64 {
        let lane = &self.xmm[x.encoding() as usize];
        match prec {
            FpPrec::Single => u64::from(u32::from_le_bytes(lane[..4].try_into().unwrap())),
            FpPrec::Double => u64::from_le_bytes(lane[..8].try_into().unwrap()),
        }
    }

    /// Writes the low lane only, preserving the rest of the register.
    fn set_xmm_scalar(&mut self, x: Xmm, prec: FpPrec, bits: u64) {
        let lane = &mut self.xmm[x.encoding() as usize];
        match prec {
            FpPrec::Single => lane[..4].copy_from_slice(&(bits as u32).to_le_bytes()),
            FpPrec::Double => lane[..8].copy_from_slice(&bits.to_le_bytes()),
        }
    }

    /// Zeroes bytes `from..16` (movss-load / scalar-return semantics).
    fn zero_xmm_upper(&mut self, x: Xmm, from: usize) {
        for b in &mut self.xmm[x.encoding() as usize][from..] {
            *b = 0;
        }
    }

    fn read_xmmrm_scalar(&mut self, rm: &XmmRm, prec: FpPrec) -> u64 {
        match rm {
            XmmRm::Reg(x) => self.xmm_scalar(*x, prec),
            XmmRm::Mem(m) => self.mem.read_uint(self.addr_of(m), prec.bytes() as usize),
        }
    }

    fn read_xmmrm_vec(&mut self, rm: &XmmRm) -> [u8; 16] {
        match rm {
            XmmRm::Reg(x) => self.xmm[x.encoding() as usize],
            XmmRm::Mem(m) => self.mem.read(self.addr_of(m), 16),
        }
    }

    /// Scalar value as `f64` (`f32` operands are extended exactly).
    fn scalar_f64(bits: u64, prec: FpPrec) -> f64 {
        match prec {
            FpPrec::Single => f64::from(f32::from_bits(bits as u32)),
            FpPrec::Double => f64::from_bits(bits),
        }
    }

    // ---- ALU -------------------------------------------------------------

    fn alu(&mut self, op: AluOp, w: Width, a: u64, b: u64) -> u64 {
        let (a, b) = (mask(w, a), mask(w, b));
        match op {
            AluOp::Add => {
                let r = mask(w, a.wrapping_add(b));
                self.set_flags_add(a, b, r, w);
                r
            }
            AluOp::Adc => {
                // Model semantics: result includes the carry, the flags
                // are computed from the carry-less operand pair.
                let r = mask(w, a.wrapping_add(b).wrapping_add(u64::from(self.cf)));
                self.set_flags_add(a, b, r, w);
                r
            }
            AluOp::Sub | AluOp::Cmp => {
                let r = mask(w, a.wrapping_sub(b));
                self.set_flags_sub(a, b, r, w);
                r
            }
            AluOp::Sbb => {
                let r = mask(w, a.wrapping_sub(b).wrapping_sub(u64::from(self.cf)));
                self.set_flags_sub(a, b, r, w);
                r
            }
            AluOp::And => {
                let r = a & b;
                self.set_flags_logic(r, w);
                r
            }
            AluOp::Or => {
                let r = a | b;
                self.set_flags_logic(r, w);
                r
            }
            AluOp::Xor => {
                let r = a ^ b;
                self.set_flags_logic(r, w);
                r
            }
        }
    }

    fn shift(&mut self, op: ShiftOp, w: Width, a: u64, amt: u64) -> u64 {
        // Counts reduce modulo the operand width (LIR shift semantics).
        let n = (amt as u32) % w.bits();
        let a = mask(w, a);
        let r = match op {
            ShiftOp::Shl => mask(w, a.wrapping_shl(n)),
            ShiftOp::Shr => a.wrapping_shr(n),
            ShiftOp::Sar => mask(w, (sext_w(w, a) >> n) as u64),
        };
        // Model semantics: CF/OF cleared, ZF/SF/PF exact.
        self.cf = false;
        self.of = false;
        self.set_zsp(r, w);
        r
    }

    /// One-operand `mul`/`imul`.
    fn mul(&mut self, op: MulDivOp, w: Width, src: &Rm) {
        let b = self.read_rm(src, w);
        let a = self.read_gpr(Gpr::Rax, w);
        self.write_gpr(Gpr::Rax, w, mask(w, a.wrapping_mul(b)));
        if w == Width::W32 {
            // Exact high half via 64-bit widening.
            let (ca, cb) = if op == MulDivOp::IMul {
                (sext_w(w, a) as u64, sext_w(w, b) as u64)
            } else {
                (a, b)
            };
            self.write_gpr(Gpr::Rdx, w, ca.wrapping_mul(cb) >> 32);
        } else {
            // Model semantics: no 64-bit high half, RDX is zeroed.
            self.write_gpr(Gpr::Rdx, w, 0);
        }
    }

    /// `div`/`idiv`.
    fn div(&mut self, op: MulDivOp, w: Width, src: &Rm) -> Result<(), X86Error> {
        let b = self.read_rm(src, w);
        let a = self.read_gpr(Gpr::Rax, w);
        if b == 0 {
            return Err(X86Error::Trap("division by zero".to_string()));
        }
        if op == MulDivOp::IDiv {
            let (sa, sb) = (sext_w(w, a), sext_w(w, b));
            self.write_gpr(Gpr::Rax, w, sa.wrapping_div(sb) as u64);
            self.write_gpr(Gpr::Rdx, w, sa.wrapping_rem(sb) as u64);
        } else {
            self.write_gpr(Gpr::Rax, w, a / b);
            self.write_gpr(Gpr::Rdx, w, a % b);
        }
        Ok(())
    }

    // ---- control flow ----------------------------------------------------

    fn push64(&mut self, v: u64) {
        let nsp = self.gpr64(Gpr::Rsp).wrapping_sub(8);
        self.regs[Gpr::Rsp.encoding() as usize] = nsp;
        self.mem.write_u64(nsp, v);
    }

    fn pop64(&mut self) -> u64 {
        let sp = self.gpr64(Gpr::Rsp);
        let v = self.mem.read_u64(sp);
        self.regs[Gpr::Rsp.encoding() as usize] = sp.wrapping_add(8);
        v
    }

    /// Executes an instruction of a run's body, whose step and charges
    /// the caller has taken. Control transfers and instructions that may
    /// fail end their run, so they never get here.
    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn exec(&mut self, inst: &Inst) {
        match inst {
            Inst::Nop => {}
            Inst::MovRRm { w, dst, src } => {
                let v = self.read_rm(src, *w);
                self.write_gpr(*dst, *w, v);
            }
            Inst::MovRmR { w, dst, src } => {
                let v = self.read_gpr(*src, *w);
                self.write_rm(dst, *w, v);
            }
            Inst::MovRmI { w, dst, imm } => {
                self.write_rm(dst, *w, mask(*w, *imm as i64 as u64));
            }
            Inst::MovAbs { dst, imm } => self.write_gpr(*dst, Width::W64, *imm),
            Inst::MovZx { dw, sw, dst, src } => {
                let v = self.read_rm(src, *sw);
                self.write_gpr(*dst, *dw, v);
            }
            Inst::MovSx { dw, sw, dst, src } => {
                let v = self.read_rm(src, *sw);
                self.write_gpr(*dst, *dw, sext_w(*sw, v) as u64);
            }
            Inst::Lea { w, dst, addr } => {
                let a = self.addr_of(addr);
                self.write_gpr(*dst, *w, mask(*w, a));
            }
            Inst::AluRRm { op, w, dst, src } => {
                let a = self.read_gpr(*dst, *w);
                let b = self.read_rm(src, *w);
                let r = self.alu(*op, *w, a, b);
                if op.writes_dst() {
                    self.write_gpr(*dst, *w, r);
                }
            }
            Inst::AluRmR { op, w, dst, src } => {
                let a = self.read_rm(dst, *w);
                let b = self.read_gpr(*src, *w);
                let r = self.alu(*op, *w, a, b);
                if op.writes_dst() {
                    self.write_rm(dst, *w, r);
                }
            }
            Inst::AluRmI { op, w, dst, imm } => {
                let a = self.read_rm(dst, *w);
                let b = mask(*w, *imm as i64 as u64);
                let r = self.alu(*op, *w, a, b);
                if op.writes_dst() {
                    self.write_rm(dst, *w, r);
                }
            }
            Inst::Test { w, a, b } => {
                let x = self.read_rm(a, *w);
                let y = self.read_gpr(*b, *w);
                self.set_flags_logic(x & y, *w);
            }
            Inst::TestI { w, a, imm } => {
                let x = self.read_rm(a, *w);
                self.set_flags_logic(x & mask(*w, *imm as i64 as u64), *w);
            }
            Inst::ShiftI { op, w, dst, imm } => {
                let a = self.read_rm(dst, *w);
                let r = self.shift(*op, *w, a, u64::from(*imm));
                self.write_rm(dst, *w, r);
            }
            Inst::ShiftCl { op, w, dst } => {
                let a = self.read_rm(dst, *w);
                let cl = self.read_gpr(Gpr::Rcx, Width::W8);
                let r = self.shift(*op, *w, a, cl);
                self.write_rm(dst, *w, r);
            }
            Inst::IMul2 { w, dst, src } => {
                let a = self.read_gpr(*dst, *w);
                let b = self.read_rm(src, *w);
                let r = mask(*w, a.wrapping_mul(b));
                // Model semantics: CF/OF cleared, ZF/SF/PF untouched.
                self.cf = false;
                self.of = false;
                self.write_gpr(*dst, *w, r);
            }
            Inst::IMul3 { w, dst, src, imm } => {
                let b = self.read_rm(src, *w);
                let r = mask(*w, b.wrapping_mul(mask(*w, *imm as i64 as u64)));
                self.cf = false;
                self.of = false;
                self.write_gpr(*dst, *w, r);
            }
            Inst::MulDiv { op, w, src } => self.mul(*op, *w, src),
            Inst::Cqo { w } => {
                let a = self.read_gpr(Gpr::Rax, *w);
                let sign = sext_w(*w, a) >> (w.bits() - 1);
                self.write_gpr(Gpr::Rdx, *w, sign as u64);
            }
            Inst::Neg { w, dst } => {
                let a = self.read_rm(dst, *w);
                let r = mask(*w, 0u64.wrapping_sub(a));
                self.set_flags_sub(0, a, r, *w);
                self.write_rm(dst, *w, r);
            }
            Inst::Not { w, dst } => {
                let a = self.read_rm(dst, *w);
                self.write_rm(dst, *w, mask(*w, !a));
            }
            Inst::Push { src } => {
                let v = self.gpr64(*src);
                self.push64(v);
            }
            Inst::Pop { dst } => {
                let sp = self.gpr64(Gpr::Rsp);
                let v = self.mem.read_u64(sp);
                self.write_gpr(*dst, Width::W64, v);
                // Re-read RSP so `pop rsp` matches the lifter's model.
                let sp2 = self.gpr64(Gpr::Rsp);
                self.regs[Gpr::Rsp.encoding() as usize] = sp2.wrapping_add(8);
            }
            Inst::Setcc { cc, dst } => {
                let c = u64::from(self.cond(*cc));
                self.write_rm(dst, Width::W8, c);
            }
            Inst::Cmovcc { cc, w, dst, src } => {
                let v = if self.cond(*cc) {
                    self.read_rm(src, *w)
                } else {
                    self.read_gpr(*dst, *w)
                };
                // Width-w write even when not taken (zero-extends on W32),
                // exactly as the lifter models cmov.
                self.write_gpr(*dst, *w, v);
            }
            Inst::MovssLoad { prec, dst, src } => {
                let v = self.read_xmmrm_scalar(src, *prec);
                self.set_xmm_scalar(*dst, *prec, v);
                if matches!(src, XmmRm::Mem(_)) {
                    self.zero_xmm_upper(*dst, prec.bytes() as usize);
                }
            }
            Inst::MovssStore { prec, dst, src } => {
                let v = self.xmm_scalar(*src, *prec);
                let a = self.addr_of(dst);
                self.mem.write_uint(a, prec.bytes() as usize, v);
            }
            Inst::MovapsLoad { dst, src, .. } => {
                let v = self.read_xmmrm_vec(src);
                self.xmm[dst.encoding() as usize] = v;
            }
            Inst::MovapsStore { dst, src, .. } => {
                let v = self.xmm[src.encoding() as usize];
                let a = self.addr_of(dst);
                self.mem.write(a, &v);
            }
            Inst::MovXmmToGpr { w, dst, src } => match w {
                Width::W64 => {
                    let v = self.xmm_scalar(*src, FpPrec::Double);
                    self.write_gpr(*dst, Width::W64, v);
                }
                _ => {
                    let v = self.xmm_scalar(*src, FpPrec::Single);
                    self.write_gpr(*dst, Width::W32, v);
                }
            },
            Inst::MovGprToXmm { w, dst, src } => match w {
                Width::W64 => {
                    let v = self.gpr64(*src);
                    self.set_xmm_scalar(*dst, FpPrec::Double, v);
                    self.zero_xmm_upper(*dst, 8);
                }
                _ => {
                    let v = self.read_gpr(*src, Width::W32);
                    self.set_xmm_scalar(*dst, FpPrec::Single, v);
                    self.zero_xmm_upper(*dst, 4);
                }
            },
            Inst::SseScalar {
                op: SseOp::Sqrt,
                prec,
                dst,
                src,
            } => {
                // sqrt is lifted to a libm call operating on f64.
                let v = self.read_xmmrm_scalar(src, *prec);
                let r = Self::scalar_f64(v, *prec).sqrt();
                let bits = match prec {
                    FpPrec::Single => u64::from((r as f32).to_bits()),
                    FpPrec::Double => r.to_bits(),
                };
                self.set_xmm_scalar(*dst, *prec, bits);
            }
            Inst::SseScalar { op, prec, dst, src } => {
                let a = self.xmm_scalar(*dst, *prec);
                let b = self.read_xmmrm_scalar(src, *prec);
                let bits = match prec {
                    FpPrec::Single => {
                        let (x, y) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
                        let r = match op {
                            SseOp::Add => x + y,
                            SseOp::Sub => x - y,
                            SseOp::Mul => x * y,
                            SseOp::Div => x / y,
                            SseOp::Min => x.min(y),
                            SseOp::Max => x.max(y),
                            SseOp::Sqrt => unreachable!(),
                        };
                        u64::from(r.to_bits())
                    }
                    FpPrec::Double => sse_f64(*op, f64::from_bits(a), f64::from_bits(b)).to_bits(),
                };
                self.set_xmm_scalar(*dst, *prec, bits);
            }
            Inst::SsePacked { op, dst, src, .. } => {
                // Model semantics: packed ops are two f64 lanes regardless
                // of the encoded precision (the lifter reads V2F64).
                let a = self.xmm[dst.encoding() as usize];
                let b = self.read_xmmrm_vec(src);
                let mut out = [0u8; 16];
                for i in 0..2 {
                    let x = f64::from_le_bytes(a[i * 8..i * 8 + 8].try_into().unwrap());
                    let y = f64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
                    out[i * 8..i * 8 + 8].copy_from_slice(&sse_f64(*op, x, y).to_le_bytes());
                }
                self.xmm[dst.encoding() as usize] = out;
            }
            Inst::Xorps { dst, src } => {
                if *src == XmmRm::Reg(*dst) {
                    self.xmm[dst.encoding() as usize] = [0; 16];
                } else {
                    let b = self.read_xmmrm_vec(src);
                    let lane = &mut self.xmm[dst.encoding() as usize];
                    for (o, x) in lane.iter_mut().zip(b.iter()) {
                        *o ^= x;
                    }
                }
            }
            Inst::Ucomis { prec, a, b } => {
                let x = Self::scalar_f64(self.xmm_scalar(*a, *prec), *prec);
                let y = Self::scalar_f64(self.read_xmmrm_scalar(b, *prec), *prec);
                let unord = x.is_nan() || y.is_nan();
                self.zf = (!unord && x == y) || unord;
                self.cf = (!unord && x < y) || unord;
                self.pf = unord;
                self.of = false;
                self.sf = false;
            }
            Inst::CvtSi2F { prec, iw, dst, src } => {
                let v = self.read_rm(src, *iw);
                let x = sext_w(*iw, v) as f64;
                let bits = match prec {
                    FpPrec::Single => u64::from((x as f32).to_bits()),
                    FpPrec::Double => x.to_bits(),
                };
                self.set_xmm_scalar(*dst, *prec, bits);
            }
            Inst::CvtF2Si { prec, iw, dst, src } => {
                let v = self.read_xmmrm_scalar(src, *prec);
                // Rust's saturating float→int cast, exactly like the LIR
                // FpToSi model (NaN → 0).
                let r = (Self::scalar_f64(v, *prec) as i64) as u64;
                self.write_gpr(*dst, *iw, mask(*iw, r));
            }
            Inst::CvtF2F { to, dst, src } => {
                let bits = match to {
                    FpPrec::Double => {
                        let v = self.read_xmmrm_scalar(src, FpPrec::Single);
                        f64::from(f32::from_bits(v as u32)).to_bits()
                    }
                    FpPrec::Single => {
                        let v = self.read_xmmrm_scalar(src, FpPrec::Double);
                        u64::from((f64::from_bits(v) as f32).to_bits())
                    }
                };
                self.set_xmm_scalar(*dst, *to, bits);
            }
            Inst::Mfence => self.stats.fences.2 += 1,
            Inst::LockCmpxchg { w, mem, src } => {
                self.stats.rmws += 1;
                let expected = self.read_gpr(Gpr::Rax, *w);
                let old = self.load(mem, *w);
                if old == expected {
                    let v = self.read_gpr(*src, *w);
                    self.store(mem, *w, v);
                }
                // Model semantics: only ZF is written.
                self.zf = old == expected;
                self.write_gpr(Gpr::Rax, *w, old);
            }
            Inst::LockXadd { w, mem, src } => {
                self.stats.rmws += 1;
                let v = self.read_gpr(*src, *w);
                let old = self.load(mem, *w);
                let res = mask(*w, old.wrapping_add(v));
                self.store(mem, *w, res);
                self.set_flags_add(old, v, res, *w);
                self.write_gpr(*src, *w, old);
            }
            Inst::LockAddI { w, mem, imm } => {
                self.stats.rmws += 1;
                let old = self.load(mem, *w);
                let res = mask(*w, old.wrapping_add(mask(*w, *imm as i64 as u64)));
                // Model semantics: the flag outputs are unused (the lifter
                // emits a bare atomicrmw).
                self.store(mem, *w, res);
            }
            Inst::Xchg { w, mem, src } => {
                self.stats.rmws += 1;
                let v = self.read_gpr(*src, *w);
                let old = self.load(mem, *w);
                self.store(mem, *w, v);
                self.write_gpr(*src, *w, old);
            }
            Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Call { .. } | Inst::Ret | Inst::Ud2 => {
                unreachable!("{inst} ends its run")
            }
        }
    }

    /// Executes the instruction that may fail ending a run: `ud2`, `div`,
    /// `idiv`, a packed sqrt or an indirect jump.
    #[cold]
    fn exec_checked(&mut self, inst: &Inst) -> Result<(), X86Error> {
        match inst {
            Inst::MulDiv { op, w, src } => self.div(*op, *w, src),
            Inst::SsePacked {
                op: SseOp::Sqrt, ..
            } => Err(X86Error::Trap("packed sqrt".to_string())),
            Inst::Ud2 => Err(X86Error::Trap("ud2".to_string())),
            Inst::Jmp { .. } => Err(X86Error::BadCall("indirect jump".to_string())),
            Inst::Jcc { .. } => Err(X86Error::BadCall("indirect jcc".to_string())),
            _ => unreachable!("{inst} cannot fail"),
        }
    }

    // ---- externs ---------------------------------------------------------

    /// Dispatches a call to a PLT stub: integer arguments in RDI, RSI, …,
    /// floating-point ones in XMM0, …, the result in RAX. A
    /// `pthread_create` saves the caller's context, to resume at `resume`
    /// (see [`Context::resume`]), and returns the child's entry.
    fn call_extern(
        &mut self,
        ext: ExternCall<'_>,
        resume: Option<u64>,
    ) -> Result<Option<u64>, X86Error> {
        let ext = ext.map_err(|name| X86Error::BadCall(format!("unknown extern @{name}")))?;
        let ints = Gpr::PARAMS.map(|r| self.gpr64(r));
        let ret = match ext {
            Extern::Sqrt => {
                let x = f64::from_bits(self.xmm_scalar(Xmm(0), FpPrec::Double));
                self.set_xmm_scalar(Xmm(0), FpPrec::Double, x.sqrt().to_bits());
                self.zero_xmm_upper(Xmm(0), 8);
                None
            }
            Extern::PthreadCreate => {
                // The child is a separate thread, not a callee: it starts
                // from the caller's registers, on its own stack.
                let now = self.stats.cycles;
                let thread = self.rt.begin_thread(&mut self.mem, &ints, now);
                let (sp, arg, entry) = (thread.stack_top.wrapping_sub(8), thread.arg, thread.entry);
                self.parents.push(Context {
                    regs: self.regs,
                    xmm: self.xmm,
                    flags: [self.cf, self.pf, self.zf, self.sf, self.of],
                    resume,
                    thread,
                });
                self.mem.write_u64(sp, RET_SENTINEL);
                self.regs[Gpr::Rsp.encoding() as usize] = sp;
                self.regs[Gpr::Rdi.encoding() as usize] = arg;
                return Ok(Some(entry));
            }
            _ => {
                let floats =
                    Xmm::PARAMS.map(|x| f64::from_bits(self.xmm_scalar(x, FpPrec::Double)));
                let r = self.rt.call(ext, &mut self.mem, &ints, &floats);
                let (val, cycles) = r.map_err(|t| X86Error::Trap(t.0))?;
                self.stats.cycles += cycles;
                val
            }
        };
        if let Some(v) = ret {
            self.write_gpr(Gpr::Rax, Width::W64, v);
        }
        Ok(None)
    }

    /// Ends the running thread, which returned to [`RET_SENTINEL`]:
    /// restores the context of the thread that spawned it, whose
    /// `pthread_create` returns 0, and returns where that thread resumes.
    fn end_thread(&mut self, parent: Context) -> u64 {
        let Context {
            regs,
            xmm,
            flags,
            resume,
            thread,
        } = parent;
        (self.regs, self.xmm) = (regs, xmm);
        [self.cf, self.pf, self.zf, self.sf, self.of] = flags;
        self.rt.end_thread(thread, self.stats.cycles);
        self.write_gpr(Gpr::Rax, Width::W64, 0);
        resume.unwrap_or_else(|| self.pop64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::binary::BinaryBuilder;
    use crate::inst::{AluOp, Inst, MemRef, Rm, Target};
    use crate::reg::{Cond, Gpr, Width};
    use lasagne_lir::interp::HEAP_BASE;

    fn single_fn(body: &[Inst]) -> Binary {
        let mut bin = BinaryBuilder::new();
        let mut a = Asm::new();
        for i in body {
            a.push(*i);
        }
        a.push(Inst::Ret);
        let addr = bin.next_function_addr();
        bin.add_function("f", a.finish(addr).unwrap());
        bin.finish()
    }

    #[test]
    fn add_and_return() {
        let bin = single_fn(&[Inst::AluRRm {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rdi),
        }]);
        let mut m = X86Machine::new(&bin);
        // RAX starts 0; add RDI (=41) and return.
        let r = m.run("f", &[41], &[]).unwrap();
        assert_eq!(r.ret, 41);
        assert_eq!(r.stats.insts, 2);
    }

    #[test]
    fn memory_roundtrip_through_region() {
        let bin = single_fn(&[
            Inst::MovRmI {
                w: Width::W64,
                dst: Rm::Mem(MemRef::base_disp(Gpr::Rdi, 8)),
                imm: 77,
            },
            Inst::MovRRm {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Mem(MemRef::base_disp(Gpr::Rdi, 8)),
            },
        ]);
        let mut m = X86Machine::new(&bin);
        let r = m.run("f", &[0x4000_0000], &[]).unwrap();
        assert_eq!(r.ret, 77);
        assert_eq!(m.mem.read_u64(0x4000_0008), 77);
        // One explicit load plus the `ret` stack pop.
        assert_eq!(r.stats.loads, 2);
        assert_eq!(r.stats.stores, 1);
    }

    #[test]
    fn w32_write_zero_extends() {
        let bin = single_fn(&[
            Inst::MovAbs {
                dst: Gpr::Rax,
                imm: 0xffff_ffff_ffff_ffff,
            },
            Inst::MovRRm {
                w: Width::W32,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rdi),
            },
        ]);
        let mut m = X86Machine::new(&bin);
        let r = m.run("f", &[0x1_0000_0005], &[]).unwrap();
        assert_eq!(r.ret, 5, "32-bit write must clear the upper half");
    }

    #[test]
    fn flags_drive_setcc() {
        let bin = single_fn(&[
            Inst::AluRmI {
                op: AluOp::Cmp,
                w: Width::W64,
                dst: Rm::Reg(Gpr::Rdi),
                imm: 10,
            },
            Inst::Setcc {
                cc: Cond::L,
                dst: Rm::Reg(Gpr::Rax),
            },
        ]);
        let mut m = X86Machine::new(&bin);
        assert_eq!(m.run("f", &[3], &[]).unwrap().ret & 0xff, 1);
        let mut m2 = X86Machine::new(&bin);
        assert_eq!(m2.run("f", &[30], &[]).unwrap().ret & 0xff, 0);
    }

    #[test]
    fn division_by_zero_traps() {
        let bin = single_fn(&[
            Inst::MovRmI {
                w: Width::W64,
                dst: Rm::Reg(Gpr::Rcx),
                imm: 0,
            },
            Inst::MulDiv {
                op: MulDivOp::Div,
                w: Width::W64,
                src: Rm::Reg(Gpr::Rcx),
            },
        ]);
        let mut m = X86Machine::new(&bin);
        assert!(matches!(m.run("f", &[1], &[]), Err(X86Error::Trap(_))));
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut bin = BinaryBuilder::new();
        let mut a = Asm::new();
        let top = a.label();
        a.bind(top);
        a.jmp(top);
        let addr = bin.next_function_addr();
        bin.add_function("spin", a.finish(addr).unwrap());
        let bin = bin.finish();
        let mut m = X86Machine::new(&bin);
        m.set_step_limit(1000);
        assert_eq!(m.run("spin", &[], &[]), Err(X86Error::StepLimit));
    }

    #[test]
    fn malloc_matches_lir_bump_model() {
        let mut bin = BinaryBuilder::new();
        let malloc = bin.declare_extern(Extern::Malloc.name());
        let mut a = Asm::new();
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rdi),
            imm: 24,
        });
        a.push(Inst::Call {
            target: Target::Abs(malloc),
        });
        a.push(Inst::Ret);
        let addr = bin.next_function_addr();
        bin.add_function("alloc", a.finish(addr).unwrap());
        let bin = bin.finish();
        let mut m = X86Machine::new(&bin);
        let r = m.run("alloc", &[], &[]).unwrap();
        assert_eq!(r.ret, HEAP_BASE, "first malloc returns the heap base");
    }
}
