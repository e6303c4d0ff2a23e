//! Register use/def sets and live-variable analysis over the machine CFG.
//!
//! Used by function type discovery (paper §4.1): a System-V parameter
//! register that is live at function entry (read before written) is a
//! parameter.

use crate::xcfg::XCfg;
use lasagne_x86::inst::{Inst, MemRef, Rm, Target, XmmRm};
use lasagne_x86::reg::{Gpr, Xmm};

/// A set of machine registers (16 GPRs + 16 XMMs) as bitmasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet {
    /// GPR bits, indexed by encoding.
    pub gpr: u16,
    /// XMM bits, indexed by encoding.
    pub xmm: u16,
}

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet { gpr: 0, xmm: 0 };

    /// Adds a GPR.
    pub fn add_gpr(&mut self, r: Gpr) {
        self.gpr |= 1 << r.encoding();
    }

    /// Adds an XMM register.
    pub fn add_xmm(&mut self, x: Xmm) {
        self.xmm |= 1 << x.encoding();
    }

    /// Membership test for a GPR.
    pub fn has_gpr(self, r: Gpr) -> bool {
        self.gpr & (1 << r.encoding()) != 0
    }

    /// Membership test for an XMM register.
    pub fn has_xmm(self, x: Xmm) -> bool {
        self.xmm & (1 << x.encoding()) != 0
    }

    /// Set union.
    pub fn union(self, o: RegSet) -> RegSet {
        RegSet {
            gpr: self.gpr | o.gpr,
            xmm: self.xmm | o.xmm,
        }
    }

    /// Set difference.
    pub fn minus(self, o: RegSet) -> RegSet {
        RegSet {
            gpr: self.gpr & !o.gpr,
            xmm: self.xmm & !o.xmm,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.gpr == 0 && self.xmm == 0
    }
}

fn mem_uses(m: &MemRef, s: &mut RegSet) {
    if let Some(b) = m.base {
        s.add_gpr(b);
    }
    if let Some(i) = m.index {
        s.add_gpr(i);
    }
}

fn rm_uses(rm: &Rm, s: &mut RegSet) {
    match rm {
        Rm::Reg(r) => s.add_gpr(*r),
        Rm::Mem(m) => mem_uses(m, s),
    }
}

fn xrm_uses(rm: &XmmRm, s: &mut RegSet) {
    match rm {
        XmmRm::Reg(x) => s.add_xmm(*x),
        XmmRm::Mem(m) => mem_uses(m, s),
    }
}

/// Registers read by `inst` (memory operand address registers count as
/// reads).
pub fn uses(inst: &Inst) -> RegSet {
    let mut s = RegSet::EMPTY;
    match inst {
        Inst::MovRRm { src, .. } => rm_uses(src, &mut s),
        Inst::MovRmR { dst, src, .. } => {
            s.add_gpr(*src);
            if let Rm::Mem(m) = dst {
                mem_uses(m, &mut s);
            }
        }
        Inst::MovRmI { dst, .. } => {
            if let Rm::Mem(m) = dst {
                mem_uses(m, &mut s);
            }
        }
        Inst::MovAbs { .. } => {}
        Inst::MovZx { src, .. } | Inst::MovSx { src, .. } => rm_uses(src, &mut s),
        Inst::Lea { addr, .. } => mem_uses(addr, &mut s),
        Inst::AluRRm { dst, src, .. } => {
            s.add_gpr(*dst);
            rm_uses(src, &mut s);
        }
        Inst::AluRmR { dst, src, .. } => {
            s.add_gpr(*src);
            rm_uses(dst, &mut s);
        }
        Inst::AluRmI { dst, .. }
        | Inst::ShiftI { dst, .. }
        | Inst::Neg { dst, .. }
        | Inst::Not { dst, .. } => rm_uses(dst, &mut s),
        Inst::ShiftCl { dst, .. } => {
            s.add_gpr(Gpr::Rcx);
            rm_uses(dst, &mut s);
        }
        Inst::Test { a, b, .. } => {
            s.add_gpr(*b);
            rm_uses(a, &mut s);
        }
        Inst::TestI { a, .. } => rm_uses(a, &mut s),
        Inst::IMul2 { dst, src, .. } => {
            s.add_gpr(*dst);
            rm_uses(src, &mut s);
        }
        Inst::IMul3 { src, .. } => rm_uses(src, &mut s),
        Inst::MulDiv { src, .. } => {
            s.add_gpr(Gpr::Rax);
            s.add_gpr(Gpr::Rdx);
            rm_uses(src, &mut s);
        }
        Inst::Cqo { .. } => s.add_gpr(Gpr::Rax),
        Inst::Push { src } => {
            s.add_gpr(*src);
            s.add_gpr(Gpr::Rsp);
        }
        Inst::Pop { .. } => s.add_gpr(Gpr::Rsp),
        Inst::Jmp { target } | Inst::Call { target } => {
            if let Target::Indirect(r) = target {
                s.add_gpr(*r);
            }
            if matches!(inst, Inst::Call { .. }) {
                // Conservatively, calls read all parameter registers.
                for r in Gpr::PARAMS {
                    s.add_gpr(r);
                }
                for x in Xmm::PARAMS {
                    s.add_xmm(x);
                }
            }
        }
        // `ret` does NOT count as a use of RAX/XMM0 here: return-type
        // discovery is a separate must-define analysis (see `typedisc`), and
        // treating `ret` as a reader would make XMM0 spuriously live at
        // entry of every void function, inventing a float parameter.
        Inst::Jcc { .. } | Inst::Ret | Inst::Nop | Inst::Ud2 | Inst::Mfence => {}
        Inst::Setcc { dst, .. } => {
            if let Rm::Mem(m) = dst {
                mem_uses(m, &mut s);
            }
        }
        Inst::Cmovcc { dst, src, .. } => {
            s.add_gpr(*dst);
            rm_uses(src, &mut s);
        }
        Inst::MovssLoad { src, .. } => xrm_uses(src, &mut s),
        Inst::MovssStore { dst, src, .. } => {
            s.add_xmm(*src);
            mem_uses(dst, &mut s);
        }
        Inst::MovapsLoad { src, .. } => xrm_uses(src, &mut s),
        Inst::MovapsStore { dst, src, .. } => {
            s.add_xmm(*src);
            mem_uses(dst, &mut s);
        }
        Inst::MovXmmToGpr { src, .. } => s.add_xmm(*src),
        Inst::MovGprToXmm { src, .. } => s.add_gpr(*src),
        Inst::SseScalar { dst, src, .. } | Inst::SsePacked { dst, src, .. } => {
            s.add_xmm(*dst);
            xrm_uses(src, &mut s);
        }
        Inst::Xorps { dst, src } => {
            // xorps x, x is an idiomatic zeroing: no real use of x.
            if *src != XmmRm::Reg(*dst) {
                s.add_xmm(*dst);
                xrm_uses(src, &mut s);
            }
        }
        Inst::Ucomis { a, b, .. } => {
            s.add_xmm(*a);
            xrm_uses(b, &mut s);
        }
        Inst::CvtSi2F { src, .. } => rm_uses(src, &mut s),
        Inst::CvtF2Si { src, .. } | Inst::CvtF2F { src, .. } => xrm_uses(src, &mut s),
        Inst::LockCmpxchg { mem, src, .. } => {
            s.add_gpr(Gpr::Rax);
            s.add_gpr(*src);
            mem_uses(mem, &mut s);
        }
        Inst::LockXadd { mem, src, .. } | Inst::Xchg { mem, src, .. } => {
            s.add_gpr(*src);
            mem_uses(mem, &mut s);
        }
        Inst::LockAddI { mem, .. } => mem_uses(mem, &mut s),
    }
    s
}

/// Registers written by `inst`.
pub fn defs(inst: &Inst) -> RegSet {
    let mut s = RegSet::EMPTY;
    match inst {
        Inst::MovRRm { dst, .. }
        | Inst::MovZx { dst, .. }
        | Inst::MovSx { dst, .. }
        | Inst::Lea { dst, .. }
        | Inst::MovAbs { dst, .. }
        | Inst::IMul2 { dst, .. }
        | Inst::IMul3 { dst, .. }
        | Inst::Cmovcc { dst, .. } => s.add_gpr(*dst),
        Inst::MovRmR { dst, .. }
        | Inst::MovRmI { dst, .. }
        | Inst::AluRmI { dst, .. }
        | Inst::ShiftI { dst, .. }
        | Inst::ShiftCl { dst, .. }
        | Inst::Neg { dst, .. }
        | Inst::Not { dst, .. }
        | Inst::Setcc { dst, .. } => {
            if let Rm::Reg(r) = dst {
                s.add_gpr(*r);
            }
        }
        Inst::AluRRm { op, dst, .. } => {
            if op.writes_dst() {
                s.add_gpr(*dst);
            }
        }
        Inst::AluRmR { op, dst, .. } => {
            if op.writes_dst() {
                if let Rm::Reg(r) = dst {
                    s.add_gpr(*r);
                }
            }
        }
        Inst::MulDiv { .. } => {
            s.add_gpr(Gpr::Rax);
            s.add_gpr(Gpr::Rdx);
        }
        Inst::Cqo { .. } => s.add_gpr(Gpr::Rdx),
        Inst::Push { .. } => s.add_gpr(Gpr::Rsp),
        Inst::Pop { dst } => {
            s.add_gpr(*dst);
            s.add_gpr(Gpr::Rsp);
        }
        Inst::Call { .. } => {
            // System-V caller-saved registers are clobbered.
            for r in [
                Gpr::Rax,
                Gpr::Rcx,
                Gpr::Rdx,
                Gpr::Rsi,
                Gpr::Rdi,
                Gpr::R8,
                Gpr::R9,
                Gpr::R10,
                Gpr::R11,
            ] {
                s.add_gpr(r);
            }
            for x in 0..16 {
                s.add_xmm(Xmm(x));
            }
        }
        Inst::MovssLoad { dst, .. }
        | Inst::MovapsLoad { dst, .. }
        | Inst::SseScalar { dst, .. }
        | Inst::SsePacked { dst, .. }
        | Inst::Xorps { dst, .. }
        | Inst::CvtSi2F { dst, .. }
        | Inst::CvtF2F { dst, .. }
        | Inst::MovGprToXmm { dst, .. } => s.add_xmm(*dst),
        Inst::MovXmmToGpr { dst, .. } | Inst::CvtF2Si { dst, .. } => s.add_gpr(*dst),
        Inst::LockCmpxchg { .. } => s.add_gpr(Gpr::Rax),
        Inst::LockXadd { src, .. } | Inst::Xchg { src, .. } => s.add_gpr(*src),
        _ => {}
    }
    s
}

/// Per-block liveness results.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live on entry to each block (indexed like `XCfg::blocks`).
    pub live_in: Vec<RegSet>,
    /// Registers live on exit of each block.
    pub live_out: Vec<RegSet>,
}

/// Computes classic backward liveness over the machine CFG.
///
/// Calls are treated conservatively (reading every parameter register); use
/// [`analyze_with`] to supply precise per-callee argument registers.
pub fn analyze(cfg: &XCfg) -> Liveness {
    analyze_with(cfg, |_| {
        let mut s = RegSet::EMPTY;
        for r in Gpr::PARAMS {
            s.add_gpr(r);
        }
        for x in Xmm::PARAMS {
            s.add_xmm(x);
        }
        s
    })
}

/// Liveness with a callback giving the registers a direct call to `addr`
/// actually reads (derived from already-discovered callee signatures).
pub fn analyze_with(cfg: &XCfg, call_uses: impl Fn(u64) -> RegSet) -> Liveness {
    let n = cfg.blocks.len();
    // gen = used before defined in block; kill = defined in block.
    let mut gen = vec![RegSet::EMPTY; n];
    let mut kill = vec![RegSet::EMPTY; n];
    for (i, b) in cfg.blocks.iter().enumerate() {
        for d in &b.insts {
            let u = match d.inst {
                Inst::Call {
                    target: Target::Abs(t),
                } => call_uses(t),
                // A tail-call jmp reads the callee's argument registers.
                Inst::Jmp {
                    target: Target::Abs(t),
                } if cfg.block_index(t).is_none() => call_uses(t),
                _ => uses(&d.inst),
            };
            gen[i] = gen[i].union(u.minus(kill[i]));
            kill[i] = kill[i].union(defs(&d.inst));
        }
    }
    let mut live_in = vec![RegSet::EMPTY; n];
    let mut live_out = vec![RegSet::EMPTY; n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let mut out = RegSet::EMPTY;
            for succ in &cfg.blocks[i].succs {
                if let Some(j) = cfg.block_index(*succ) {
                    out = out.union(live_in[j]);
                }
            }
            let inn = gen[i].union(out.minus(kill[i]));
            if out != live_out[i] || inn != live_in[i] {
                live_out[i] = out;
                live_in[i] = inn;
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xcfg::build_xcfg;
    use lasagne_x86::asm::Asm;
    use lasagne_x86::inst::{AluOp, Inst, MemRef, Rm};
    use lasagne_x86::reg::{Cond, Width};

    #[test]
    fn use_def_basics() {
        let add = Inst::AluRRm {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Mem(MemRef::base_index(Gpr::Rdi, Gpr::Rcx, 8, 0)),
        };
        let u = uses(&add);
        assert!(u.has_gpr(Gpr::Rax) && u.has_gpr(Gpr::Rdi) && u.has_gpr(Gpr::Rcx));
        assert!(defs(&add).has_gpr(Gpr::Rax));

        let cmp = Inst::AluRRm {
            op: AluOp::Cmp,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rbx),
        };
        assert!(defs(&cmp).is_empty(), "cmp writes no registers");
    }

    #[test]
    fn xor_zero_idiom_has_no_use() {
        let x = Inst::Xorps {
            dst: Xmm(1),
            src: XmmRm::Reg(Xmm(1)),
        };
        assert!(uses(&x).is_empty());
        assert!(defs(&x).has_xmm(Xmm(1)));
    }

    #[test]
    fn param_register_live_at_entry() {
        // f(rdi): rax = rdi + 1; ret
        let mut a = Asm::new();
        a.push(Inst::MovRRm {
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
        let bytes = a.finish(0).unwrap();
        let cfg = build_xcfg(&bytes, 0).unwrap();
        let lv = analyze(&cfg);
        assert!(lv.live_in[0].has_gpr(Gpr::Rdi));
        assert!(!lv.live_in[0].has_gpr(Gpr::Rsi));
    }

    #[test]
    fn liveness_through_loop() {
        // loop decrementing rdi, reading rsi inside the loop
        let mut a = Asm::new();
        let top = a.label();
        a.bind(top);
        a.push(Inst::AluRRm {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rsi),
        });
        a.push(Inst::AluRmI {
            op: AluOp::Sub,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rdi),
            imm: 1,
        });
        a.jcc(Cond::Ne, top);
        a.push(Inst::Ret);
        let bytes = a.finish(0).unwrap();
        let cfg = build_xcfg(&bytes, 0).unwrap();
        let lv = analyze(&cfg);
        assert!(lv.live_in[0].has_gpr(Gpr::Rsi));
        assert!(lv.live_in[0].has_gpr(Gpr::Rdi));
        assert!(lv.live_in[0].has_gpr(Gpr::Rax), "rax read before written");
    }
}
