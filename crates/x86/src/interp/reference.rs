//! The per-step interpreter the decoded form replaced, kept as a
//! test-only reference: it decodes the instruction at RIP on every step,
//! charges that step on its own, and runs a `pthread_create` child through
//! a nested call on the host stack. Instructions that neither transfer
//! control nor fail go through the machine's own `exec`, so what
//! `interp::equivalence` compares is the charging, the control flow, the
//! errors and the thread contexts.

use super::decode::{cost_of, ExternCall};
use super::{X86Error, X86Machine, X86RunResult, RET_SENTINEL};
use crate::decode::decode_one;
use crate::inst::{Inst, MulDivOp, SseOp, Target};
use crate::reg::{Gpr, Width};
use lasagne_lir::interp::runtime::Extern;

impl X86Machine<'_> {
    /// [`X86Machine::run`] on the reference.
    pub(super) fn run_per_step(
        &mut self,
        name: &str,
        args: &[u64],
    ) -> Result<X86RunResult, X86Error> {
        let f = self
            .bin
            .function_by_name(name)
            .ok_or_else(|| X86Error::BadCall(format!("no function named {name}")))?;
        self.set_up(args, &[]);
        self.step_from(f.addr)?;
        Ok(self.result())
    }

    /// Fetch/decode/execute until control reaches the sentinel return
    /// address.
    fn step_from(&mut self, entry: u64) -> Result<(), X86Error> {
        let mut rip = entry;
        loop {
            if rip == RET_SENTINEL {
                return Ok(());
            }
            if self.steps_left == 0 {
                return Err(X86Error::StepLimit);
            }
            self.steps_left -= 1;
            let text = &self.bin.text;
            let off = rip
                .checked_sub(self.bin.text_base)
                .filter(|o| (*o as usize) < text.len())
                .ok_or_else(|| X86Error::BadCall(format!("rip {rip:#x} outside text")))?
                as usize;
            let d = decode_one(&text[off..], rip)
                .map_err(|e| X86Error::Decode(format!("at {rip:#x}: {e}")))?;
            let inst = d.inst;
            self.stats.insts += 1;
            self.stats.cycles += cost_of(&inst);
            self.stats.loads += u64::from(inst.reads_memory());
            self.stats.stores += u64::from(inst.writes_memory());
            rip = self.step(&inst, rip + d.len as u64)?;
        }
    }

    /// Executes one instruction; returns the next RIP.
    fn step(&mut self, inst: &Inst, next: u64) -> Result<u64, X86Error> {
        match *inst {
            Inst::Jmp {
                target: Target::Abs(t),
            } => match self.code.extern_at(t) {
                Some(ext) => {
                    // Tail call through a PLT stub.
                    self.extern_per_step(ext)?;
                    Ok(self.pop64())
                }
                None => Ok(t),
            },
            Inst::Jcc {
                cc,
                target: Target::Abs(t),
            } => Ok(if self.cond(cc) { t } else { next }),
            Inst::Call { target } => {
                let t = match target {
                    Target::Abs(t) => t,
                    Target::Indirect(r) => self.gpr64(r),
                };
                match self.code.extern_at(t) {
                    Some(ext) => {
                        self.extern_per_step(ext)?;
                        Ok(next)
                    }
                    None => {
                        self.push64(next);
                        Ok(t)
                    }
                }
            }
            Inst::Ret => Ok(self.pop64()),
            Inst::Ud2
            | Inst::Jmp { .. }
            | Inst::Jcc { .. }
            | Inst::MulDiv {
                op: MulDivOp::Div | MulDivOp::IDiv,
                ..
            }
            | Inst::SsePacked {
                op: SseOp::Sqrt, ..
            } => {
                self.exec_checked(inst)?;
                Ok(next)
            }
            _ => {
                self.exec(inst);
                Ok(next)
            }
        }
    }

    /// A call to an extern stub; a `pthread_create` runs the child to
    /// completion in a nested [`X86Machine::step_from`] and restores the
    /// parent's registers and flags afterwards.
    fn extern_per_step(&mut self, ext: ExternCall<'_>) -> Result<(), X86Error> {
        if ext != Ok(Extern::PthreadCreate) {
            return self.call_extern(ext, None).map(|_| ());
        }
        let ints = Gpr::PARAMS.map(|r| self.gpr64(r));
        let now = self.stats.cycles;
        let t = self.rt.begin_thread(&mut self.mem, &ints, now);
        let saved = (
            self.regs, self.xmm, self.cf, self.pf, self.zf, self.sf, self.of,
        );
        let sp = t.stack_top.wrapping_sub(8);
        self.mem.write_u64(sp, RET_SENTINEL);
        self.regs[Gpr::Rsp.encoding() as usize] = sp;
        self.regs[Gpr::Rdi.encoding() as usize] = t.arg;
        self.step_from(t.entry)?;
        (
            self.regs, self.xmm, self.cf, self.pf, self.zf, self.sf, self.of,
        ) = saved;
        self.rt.end_thread(t, self.stats.cycles);
        self.write_gpr(Gpr::Rax, Width::W64, 0);
        Ok(())
    }
}
