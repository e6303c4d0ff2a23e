//! AArch64 interpreter with a weak-memory-core cost model.
//!
//! Executes lowered [`AModule`]s to (a) validate translations end-to-end
//! and (b) produce the simulated runtimes of Figures 12 and 15. The cost
//! model charges heavily for barriers — `dmb ish` ≫ `dmb ishld`/`ishst` ≫
//! plain accesses — which is the effect the paper measures on the
//! Cortex-A72. Externs go to the guest runtime shared with the LIR and x86
//! interpreters (sequential fork–join threads with per-thread cycle
//! buckets).
//!
//! Each function is decoded on its first call into runs whose charges are
//! summed once (see `machine/decode.rs`). Calls push a frame on an
//! explicit frame stack instead of recursing on the host stack, so guest
//! recursion deeper than [`MAX_FRAMES`] traps. A `pthread_create` pushes
//! the child's frame with a thread-end marker holding the parent's
//! registers and, as before, runs the child to completion before its
//! parent resumes.

mod decode;

use crate::inst::{AInst, AModule, ARet, AluOp, Cc, Dmb, FpOp, D, X};
use decode::{decode, Call, End, Run, MISSING};
use lasagne_lir::interp::runtime::{critical_path, Extern, Runtime, Thread};
use lasagne_lir::interp::{Memory, FUNC_ADDR_BASE, STACK_TOP};

/// The deepest guest call stack, in frames; a call beyond it traps.
pub const MAX_FRAMES: usize = 1 << 16;

/// Runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArmError {
    /// Call to an unknown extern.
    BadCall(String),
    /// Trap (division by zero reached `udiv` with 0 divisor is defined as 0
    /// on Arm, so traps come from `brk` and runtime assertions).
    Trap(String),
    /// Step limit exceeded.
    StepLimit,
}

impl std::fmt::Display for ArmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArmError::BadCall(s) => write!(f, "bad call: {s}"),
            ArmError::Trap(s) => write!(f, "trap: {s}"),
            ArmError::StepLimit => write!(f, "step limit exceeded"),
        }
    }
}

impl std::error::Error for ArmError {}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArmStats {
    /// Instructions retired.
    pub insts: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Barriers executed: `(dmb ishld, dmb ishst, dmb ish)`.
    pub dmbs: (u64, u64, u64),
    /// Exclusive pairs executed.
    pub exclusives: u64,
}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmRunResult {
    /// `x0` at return (also `d0` bits for FP-returning functions).
    pub ret: u64,
    /// Statistics.
    pub stats: ArmStats,
    /// Per-spawned-thread cycles.
    pub thread_cycles: Vec<u64>,
    /// Captured `printf` output.
    pub output: String,
}

impl ArmRunResult {
    /// Fork–join critical path (main + slowest child).
    pub fn critical_path_cycles(&self) -> u64 {
        critical_path(self.stats.cycles, &self.thread_cycles)
    }
}

/// The simulated AArch64 core.
pub struct ArmMachine<'m> {
    module: &'m AModule,
    /// Simulated memory (shared layout with the LIR interpreter).
    pub mem: Memory,
    x: [u64; 32],
    d: [[u8; 16]; 32],
    // NZCV
    n: bool,
    z: bool,
    c: bool,
    v: bool,
    sp: u64,
    rt: Runtime,
    stats: ArmStats,
    steps_left: u64,
    exclusive: Option<u64>,
    /// The runs of every function called so far.
    runs: Vec<Run<'m>>,
    /// Each function's entry run, [`NOT_DECODED`] until its first call.
    entry: Vec<u32>,
    frames: Vec<Frame>,
    /// `steps_left` when the current streak of runs that took no step
    /// began, and the streak's length (see [`ArmMachine::idle`]).
    idle_mark: u64,
    idle_runs: usize,
}

/// What [`ArmMachine::entry`] holds for a function not yet called.
const NOT_DECODED: u32 = u32::MAX - 1;

/// One activation on the frame stack.
struct Frame {
    /// The caller's run after the `bl`.
    resume: u32,
    /// The caller's `sp` and `x29`, restored on return.
    sp: u64,
    fp: u64,
    /// Set on the first frame of a `pthread_create`d thread.
    thread: Option<Box<ThreadEnd>>,
}

/// What returning from a thread's first frame restores.
struct ThreadEnd {
    thread: Thread,
    /// The parent's `sp` and registers.
    sp: u64,
    x: [u64; 32],
}

/// Cycle costs of the modelled core. Barrier costs dominate — the knob the
/// whole evaluation turns on.
pub mod cost {
    /// `dmb ish` (full barrier). One full barrier stalls the pipeline once;
    /// it is cheaper than the back-to-back `ishld`+`ishst` pair it can
    /// replace (§7.2 fence merging relies on exactly this).
    pub const DMB_FF: u64 = 18;
    /// `dmb ishld`.
    pub const DMB_LD: u64 = 12;
    /// `dmb ishst`.
    pub const DMB_ST: u64 = 10;
    /// Plain load/store.
    pub const MEM: u64 = 5;
    /// `ldxr`/`stxr`.
    pub const EXCL: u64 = 12;
    /// Integer multiply.
    pub const MUL: u64 = 3;
    /// Integer divide.
    pub const DIV: u64 = 20;
    /// FP divide / sqrt.
    pub const FDIV: u64 = 15;
    /// Other FP.
    pub const FP: u64 = 2;
    /// Branch-and-link.
    pub const CALL: u64 = 2;
    /// Everything else.
    pub const ALU: u64 = 1;
}

fn cost_of(i: &AInst) -> u64 {
    match i {
        AInst::DmbI { kind: Dmb::Ff } => cost::DMB_FF,
        AInst::DmbI { kind: Dmb::Ld } => cost::DMB_LD,
        AInst::DmbI { kind: Dmb::St } => cost::DMB_ST,
        AInst::Ldr { .. } | AInst::Str { .. } | AInst::LdrF { .. } | AInst::StrF { .. } => {
            cost::MEM
        }
        AInst::Ldxr { .. } | AInst::Stxr { .. } => cost::EXCL,
        AInst::Alu {
            op: AluOp::Mul | AluOp::MSub,
            ..
        } => cost::MUL,
        AInst::Alu {
            op: AluOp::SDiv | AluOp::UDiv,
            ..
        } => cost::DIV,
        AInst::Fp {
            op: FpOp::FDiv | FpOp::FSqrt,
            ..
        } => cost::FDIV,
        AInst::Fp { .. } | AInst::FpVec { .. } | AInst::FCmp { .. } => cost::FP,
        AInst::Scvtf { .. } | AInst::Fcvtzs { .. } | AInst::Fcvt { .. } => cost::FP,
        AInst::Bl { .. } => cost::CALL,
        _ => cost::ALU,
    }
}

impl<'m> ArmMachine<'m> {
    /// Creates a machine, mapping the module's globals.
    pub fn new(module: &'m AModule) -> ArmMachine<'m> {
        let mut mem = Memory::new();
        for (_, addr, size, init) in &module.globals {
            let mut bytes = init.clone();
            bytes.resize(*size as usize, 0);
            mem.write(*addr, &bytes);
        }
        ArmMachine {
            module,
            mem,
            x: [0; 32],
            d: [[0; 16]; 32],
            n: false,
            z: false,
            c: false,
            v: false,
            sp: STACK_TOP,
            rt: Runtime::default(),
            stats: ArmStats::default(),
            steps_left: 2_000_000_000,
            exclusive: None,
            runs: Vec::new(),
            entry: vec![NOT_DECODED; module.funcs.len()],
            frames: Vec::new(),
            idle_mark: 0,
            idle_runs: 0,
        }
    }

    /// Sets the step limit.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.steps_left = limit;
    }

    fn xr(&self, r: X) -> u64 {
        // `x[31]` is never written, so it reads as the zero register.
        self.x[usize::from(r.0 & 31)]
    }

    fn set_x(&mut self, r: X, v: u64) {
        if r.0 != 31 {
            self.x[r.0 as usize] = v;
        }
    }

    fn d64(&self, r: D) -> u64 {
        u64::from_le_bytes(self.d[r.0 as usize][..8].try_into().unwrap())
    }

    fn set_d64(&mut self, r: D, bits: u64) {
        self.d[r.0 as usize][..8].copy_from_slice(&bits.to_le_bytes());
        self.d[r.0 as usize][8..].fill(0);
    }

    /// The double in `r` (`dp`), or its single widened.
    fn fpr(&self, r: D, dp: bool) -> f64 {
        let bits = self.d64(r);
        if dp {
            f64::from_bits(bits)
        } else {
            f64::from(f32::from_bits(bits as u32))
        }
    }

    /// Writes `v` to `r` as a double (`dp`), or rounded to a single.
    fn set_fpr(&mut self, r: D, dp: bool, v: f64) {
        let bits = if dp {
            v.to_bits()
        } else {
            u64::from((v as f32).to_bits())
        };
        self.set_d64(r, bits);
    }

    /// Runs function `idx` with integer args in `x0…` and FP args (f64
    /// bits) in `d0…`.
    ///
    /// # Errors
    ///
    /// Returns an [`ArmError`] on traps, unknown externs, or step-limit
    /// exhaustion.
    pub fn run(
        &mut self,
        idx: usize,
        int_args: &[u64],
        fp_args: &[u64],
    ) -> Result<ArmRunResult, ArmError> {
        for (x, a) in self.x[..31].iter_mut().zip(int_args) {
            *x = *a;
        }
        for (i, a) in fp_args.iter().enumerate() {
            self.set_d64(D(i as u8), *a);
        }
        self.call(idx)?;
        let ret = match self.module.funcs[idx].ret {
            ARet::Fp => self.d64(D(0)),
            _ => self.x[0],
        };
        Ok(ArmRunResult {
            ret,
            stats: self.stats,
            thread_cycles: self.rt.thread_cycles.clone(),
            output: std::mem::take(&mut self.rt.output),
        })
    }

    /// Accumulated stats so far.
    pub fn stats(&self) -> ArmStats {
        self.stats
    }

    /// Runs function `root` to completion on a fresh frame stack.
    fn call(&mut self, root: usize) -> Result<(), ArmError> {
        self.frames.clear();
        self.idle_runs = 0;
        // The root frame resumes no run.
        let root = u32::try_from(root).unwrap_or(u32::MAX);
        let mut at = self.enter(root, MISSING, None)?;
        loop {
            let Some(&Run {
                insts,
                steps,
                cycles,
                dmbs,
                end,
            }) = self.runs.get(at as usize)
            else {
                return Err(ArmError::Trap("branch to a missing block".into()));
            };
            if self.steps_left < steps {
                return Err(self.run_out(insts));
            }
            self.steps_left -= steps;
            self.stats.insts += steps;
            self.stats.cycles += cycles;
            self.stats.dmbs.0 += dmbs[0];
            self.stats.dmbs.1 += dmbs[1];
            self.stats.dmbs.2 += dmbs[2];
            for inst in insts {
                self.exec(inst);
            }
            at = match end {
                End::Call(callee) => self.bl(callee, at + 1)?,
                End::B(t) => {
                    if steps == 0 {
                        self.idle()?;
                    }
                    t
                }
                End::Cbnz { rn, then, els } => {
                    if steps == 0 {
                        self.idle()?;
                    }
                    self.stats.insts += 1;
                    self.stats.cycles += cost::ALU;
                    if self.xr(rn) != 0 {
                        then
                    } else {
                        els
                    }
                }
                End::Ret => match self.ret() {
                    Some(resume) => resume,
                    None => return Ok(()),
                },
                End::Brk(f) => {
                    let name = &self.module.funcs[f as usize].name;
                    return Err(ArmError::Trap(format!("brk in @{name}")));
                }
            };
        }
    }

    /// Retires the first `steps_left` instructions of `insts`, a run the
    /// budget does not cover, each on its own step, and stops there.
    #[cold]
    fn run_out(&mut self, insts: &[AInst]) -> ArmError {
        let k = insts.len().min(self.steps_left as usize);
        for inst in &insts[..k] {
            self.stats.insts += 1;
            self.stats.cycles += cost_of(inst);
            match inst {
                AInst::DmbI { kind: Dmb::Ld } => self.stats.dmbs.0 += 1,
                AInst::DmbI { kind: Dmb::St } => self.stats.dmbs.1 += 1,
                AInst::DmbI { kind: Dmb::Ff } => self.stats.dmbs.2 += 1,
                _ => {}
            }
            self.exec(inst);
        }
        self.steps_left -= k as u64;
        ArmError::StepLimit
    }

    /// Counts a run that took no step and stops the machine once more such
    /// runs than it has decoded have passed with no step between them.
    /// Nothing but a step changes the registers a `cbnz` reads, so by then
    /// the guest is spinning in a cycle of empty blocks that no step limit
    /// would otherwise end.
    #[cold]
    fn idle(&mut self) -> Result<(), ArmError> {
        if self.idle_mark == self.steps_left {
            self.idle_runs += 1;
        } else {
            self.idle_mark = self.steps_left;
            self.idle_runs = 1;
        }
        if self.idle_runs > self.runs.len() {
            return Err(ArmError::StepLimit);
        }
        Ok(())
    }

    /// Pushes a frame for function `f`, decoding it on its first call, and
    /// returns its entry run.
    fn enter(
        &mut self,
        f: u32,
        resume: u32,
        thread: Option<Box<ThreadEnd>>,
    ) -> Result<u32, ArmError> {
        let module = self.module;
        let func = module
            .funcs
            .get(f as usize)
            .ok_or_else(|| ArmError::BadCall(format!("no function {f}")))?;
        let sp = self
            .sp
            .checked_sub(func.frame_size)
            .filter(|_| self.frames.len() < MAX_FRAMES)
            .ok_or_else(|| {
                ArmError::Trap(format!("guest stack overflow calling @{}", func.name))
            })?;
        self.frames.push(Frame {
            resume,
            sp: self.sp,
            fp: self.x[29],
            thread,
        });
        // Prologue: allocate the frame.
        self.sp = sp;
        self.x[29] = sp;
        Ok(match self.entry[f as usize] {
            NOT_DECODED => {
                let e = decode(module, f, &mut self.runs);
                self.entry[f as usize] = e;
                e
            }
            e => e,
        })
    }

    /// Pops the returning frame; returns where its caller resumes, or
    /// `None` when the root frame returned.
    fn ret(&mut self) -> Option<u32> {
        let frame = self.frames.pop().expect("a frame to return from");
        self.sp = frame.sp;
        self.x[29] = frame.fp;
        self.idle_runs = 0;
        if let Some(end) = frame.thread {
            let ThreadEnd { thread, sp, x } = *end;
            (self.sp, self.x) = (sp, x);
            self.rt.end_thread(thread, self.stats.cycles);
            self.x[0] = 0;
        }
        (!self.frames.is_empty()).then_some(frame.resume)
    }

    /// Makes the call a `bl` ends its run with; `resume` is the run after
    /// it. Returns the run to go on with: the callee's entry, or `resume`
    /// after an extern.
    fn bl(&mut self, callee: Call, resume: u32) -> Result<u32, ArmError> {
        match callee {
            Call::Func(f) => self.enter(f, resume, None),
            Call::Reg(r) => {
                let f = self.resolve_func(self.xr(r))?;
                self.enter(f, resume, None)
            }
            Call::Extern(ext) => self.call_extern(ext, resume),
            Call::Unknown(e) => {
                let name = self.module.externs.get(e as usize);
                let name = name.map_or("?", String::as_str);
                Err(ArmError::BadCall(format!("unknown extern @{name}")))
            }
        }
    }

    /// Executes `inst`, whose step, cycles and barrier count the caller
    /// has charged. A `bl` never gets here: it ends its run.
    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn exec(&mut self, inst: &AInst) {
        match inst {
            AInst::MovImm { rd, imm } => self.set_x(*rd, *imm),
            AInst::MovReg { rd, rm } => {
                let v = self.xr(*rm);
                self.set_x(*rd, v);
            }
            AInst::Alu { op, rd, rn, rm, ra } => {
                let a = self.xr(*rn);
                let b = self.xr(*rm);
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Mul => a.wrapping_mul(b),
                    AluOp::SDiv => {
                        if b == 0 {
                            0
                        } else {
                            (a as i64).wrapping_div(b as i64) as u64
                        }
                    }
                    AluOp::UDiv => {
                        if b == 0 {
                            0
                        } else {
                            a / b
                        }
                    }
                    AluOp::And => a & b,
                    AluOp::Orr => a | b,
                    AluOp::Eor => a ^ b,
                    AluOp::Lsl => a.wrapping_shl((b & 63) as u32),
                    AluOp::Lsr => a.wrapping_shr((b & 63) as u32),
                    AluOp::Asr => ((a as i64) >> (b & 63)) as u64,
                    AluOp::MSub => self.xr(*ra).wrapping_sub(a.wrapping_mul(b)),
                };
                self.set_x(*rd, v);
            }
            AInst::AddImm { rd, rn, imm } => {
                let v = self.xr(*rn).wrapping_add(*imm as i64 as u64);
                self.set_x(*rd, v);
            }
            AInst::Cmp { rn, rm } => {
                let a = self.xr(*rn);
                let b = self.xr(*rm);
                let r = a.wrapping_sub(b);
                self.n = (r as i64) < 0;
                self.z = r == 0;
                self.c = a >= b;
                self.v = ((a ^ b) & (a ^ r)) >> 63 != 0;
            }
            AInst::CSet { rd, cc } => {
                let v = u64::from(self.cond(*cc));
                self.set_x(*rd, v);
            }
            AInst::CSel { rd, rn, rm, cc } => {
                let v = if self.cond(*cc) {
                    self.xr(*rn)
                } else {
                    self.xr(*rm)
                };
                self.set_x(*rd, v);
            }
            AInst::SExt { rd, rn, bits } => {
                let v = self.xr(*rn);
                let shift = 64 - u32::from(*bits);
                self.set_x(*rd, (((v << shift) as i64) >> shift) as u64);
            }
            AInst::ZExt { rd, rn, bits } => {
                let v = self.xr(*rn);
                let mask = if *bits >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                self.set_x(*rd, v & mask);
            }
            AInst::Ldr { sz, rt, mem } => {
                let v = self
                    .mem
                    .read_uint(self.amem(mem), sz.bytes().min(8) as usize);
                self.set_x(*rt, v);
            }
            AInst::Str { sz, rt, mem } => {
                let addr = self.amem(mem);
                let v = self.xr(*rt);
                self.mem.write_uint(addr, sz.bytes().min(8) as usize, v);
            }
            AInst::LdrF { sz, dt, mem } => {
                let (addr, len) = (self.amem(mem), sz.bytes() as usize);
                if len <= 8 {
                    let v = self.mem.read_uint(addr, len);
                    self.set_d64(*dt, v);
                } else {
                    self.d[dt.0 as usize] = self.mem.read(addr, len);
                }
            }
            AInst::StrF { sz, dt, mem } => {
                let (addr, len) = (self.amem(mem), sz.bytes() as usize);
                if len <= 8 {
                    let v = self.d64(*dt);
                    self.mem.write_uint(addr, len, v);
                } else {
                    self.mem.write(addr, &self.d[dt.0 as usize][..len]);
                }
            }
            AInst::Ldxr { sz, rt, rn } => {
                let addr = self.xr(*rn);
                self.exclusive = Some(addr);
                self.stats.exclusives += 1;
                let v = self.mem.read_uint(addr, sz.bytes().min(8) as usize);
                self.set_x(*rt, v);
            }
            AInst::Stxr { sz, rs, rt, rn } => {
                let addr = self.xr(*rn);
                self.stats.exclusives += 1;
                // Sequential simulation: the reservation always holds.
                let ok = self.exclusive == Some(addr);
                if ok {
                    let v = self.xr(*rt);
                    self.mem.write_uint(addr, sz.bytes().min(8) as usize, v);
                    self.set_x(*rs, 0);
                } else {
                    self.set_x(*rs, 1);
                }
                self.exclusive = None;
            }
            AInst::Fp { op, dp, dd, dn, dm } => {
                let (a, b) = (self.fpr(*dn, *dp), self.fpr(*dm, *dp));
                self.set_fpr(*dd, *dp, apply_fp(*op, a, b));
            }
            AInst::FpVec { op, dp, dd, dn, dm } => {
                let a = self.d[dn.0 as usize];
                let b = self.d[dm.0 as usize];
                let mut out = [0u8; 16];
                if *dp {
                    for i in 0..2 {
                        let x = f64::from_le_bytes(a[i * 8..i * 8 + 8].try_into().unwrap());
                        let y = f64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
                        let r = apply_fp(*op, x, y);
                        out[i * 8..i * 8 + 8].copy_from_slice(&r.to_le_bytes());
                    }
                } else {
                    for i in 0..4 {
                        let x = f32::from_le_bytes(a[i * 4..i * 4 + 4].try_into().unwrap());
                        let y = f32::from_le_bytes(b[i * 4..i * 4 + 4].try_into().unwrap());
                        let r = apply_fp(*op, f64::from(x), f64::from(y)) as f32;
                        out[i * 4..i * 4 + 4].copy_from_slice(&r.to_le_bytes());
                    }
                }
                self.d[dd.0 as usize] = out;
            }
            AInst::FCmp { dp, dn, dm } => {
                let (a, b) = (self.fpr(*dn, *dp), self.fpr(*dm, *dp));
                if a.is_nan() || b.is_nan() {
                    // Unordered: C and V set.
                    self.n = false;
                    self.z = false;
                    self.c = true;
                    self.v = true;
                } else {
                    self.n = a < b;
                    self.z = a == b;
                    self.c = a >= b;
                    self.v = false;
                }
            }
            AInst::Scvtf { dp, from64, dd, rn } => {
                let raw = self.xr(*rn);
                let v = if *from64 {
                    raw as i64 as f64
                } else {
                    raw as u32 as i32 as f64
                };
                self.set_fpr(*dd, *dp, v);
            }
            AInst::Fcvtzs { dp, to64, rd, dn } => {
                let i = self.fpr(*dn, *dp) as i64;
                self.set_x(
                    *rd,
                    if *to64 {
                        i as u64
                    } else {
                        (i as i32) as u32 as u64
                    },
                );
            }
            AInst::Fcvt { to_double, dd, dn } => {
                let v = self.fpr(*dn, !*to_double);
                self.set_fpr(*dd, *to_double, v);
            }
            AInst::FMovToX { rd, dn } => {
                let v = self.d64(*dn);
                self.set_x(*rd, v);
            }
            AInst::FMovFromX { dd, rn } => {
                let v = self.xr(*rn);
                self.set_d64(*dd, v);
            }
            // Under sequential simulation a barrier is its cost alone.
            AInst::DmbI { .. } => {}
            AInst::Bl { .. } => unreachable!("a bl ends its run"),
            AInst::AdrFunc { rd, func } => {
                self.set_x(*rd, FUNC_ADDR_BASE + 16 * u64::from(*func));
            }
            AInst::AdrGlobal { rd, global } => {
                let (_, addr, _, _) = &self.module.globals[*global as usize];
                self.set_x(*rd, *addr);
            }
        }
    }

    fn amem(&self, m: &crate::inst::AMem) -> u64 {
        self.xr(m.base).wrapping_add(m.off as i64 as u64)
    }

    fn cond(&self, cc: Cc) -> bool {
        match cc {
            Cc::Eq => self.z,
            Cc::Ne => !self.z,
            Cc::Lt => self.n != self.v,
            Cc::Le => self.z || self.n != self.v,
            Cc::Gt => !self.z && self.n == self.v,
            Cc::Ge => self.n == self.v,
            Cc::Lo => !self.c,
            Cc::Ls => !self.c || self.z,
            Cc::Hi => self.c && !self.z,
            Cc::Hs => self.c,
            Cc::Mi => self.n,
            Cc::Pl => !self.n,
            Cc::Vs => self.v,
            Cc::Vc => !self.v,
        }
    }

    fn resolve_func(&self, addr: u64) -> Result<u32, ArmError> {
        if addr >= FUNC_ADDR_BASE && (addr - FUNC_ADDR_BASE) % 16 == 0 {
            let idx = (addr - FUNC_ADDR_BASE) / 16;
            if idx < self.module.funcs.len() as u64 {
                return Ok(idx as u32);
            }
        }
        Err(ArmError::BadCall(format!("no function at {addr:#x}")))
    }

    /// Calls `ext` under AAPCS64: integer arguments in `x0`–`x7`,
    /// floating-point ones in `d0`–`d7`, the result in `x0`. Returns the
    /// run to go on with: `resume`, or a spawned thread's entry.
    fn call_extern(&mut self, ext: Extern, resume: u32) -> Result<u32, ArmError> {
        let ret = match ext {
            Extern::Sqrt => {
                let v = f64::from_bits(self.d64(D(0)));
                self.set_d64(D(0), v.sqrt().to_bits());
                self.stats.cycles += cost::FDIV;
                None
            }
            Extern::PthreadCreate => {
                let now = self.stats.cycles;
                let thread = self.rt.begin_thread(&mut self.mem, &self.x, now);
                let f = self.resolve_func(thread.entry)?;
                let (stack_top, arg) = (thread.stack_top, thread.arg);
                let end = ThreadEnd {
                    thread,
                    sp: self.sp,
                    x: self.x,
                };
                self.sp = stack_top;
                self.x[0] = arg;
                return self.enter(f, resume, Some(Box::new(end)));
            }
            _ => {
                let floats: [f64; 8] =
                    std::array::from_fn(|i| f64::from_bits(self.d64(D(i as u8))));
                let r = self.rt.call(ext, &mut self.mem, &self.x[..8], &floats);
                let (val, cycles) = r.map_err(|t| ArmError::Trap(t.0))?;
                self.stats.cycles += cycles;
                val
            }
        };
        if let Some(v) = ret {
            self.x[0] = v;
        }
        Ok(resume)
    }
}

fn apply_fp(op: FpOp, a: f64, b: f64) -> f64 {
    match op {
        FpOp::FAdd => a + b,
        FpOp::FSub => a - b,
        FpOp::FMul => a * b,
        FpOp::FDiv => a / b,
        FpOp::FMin => a.min(b),
        FpOp::FMax => a.max(b),
        FpOp::FSqrt => a.sqrt(),
        FpOp::FNeg => -a,
    }
}
