//! Register and status-flag use/def sets, and live-variable analyses over
//! the machine CFG.
//!
//! Register liveness is used by function type discovery (paper §4.1): a
//! System-V parameter register that is live at function entry (read before
//! written) is a parameter.
//!
//! Flag liveness is used by the translator, which materialises a flag only
//! where it is live after the instruction that writes it, as mctoll does:
//! an `add` whose flags nothing reads lifts to one LIR `add` instead of the
//! twenty-odd instructions of a full CF/PF/ZF/SF/OF expansion. A read
//! missing from these sets, or a write claimed that the lowering does not
//! make, leaves a live flag unwritten and its reader sees a stale value.
//! The read and write sets follow the lifter's *model* semantics, which
//! the x86 interpreter shares, not the architectural ones:
//!
//! - ALU ops, `test`, shifts, `neg`, `ucomis` and `lock xadd` write all
//!   five flags; `imul` writes only CF and OF; `lock cmpxchg` writes only
//!   ZF; `mul`/`div`, `lock add` and `not` write none. A partial write
//!   kills only the flags it writes.
//! - `adc`/`sbb` read CF; `jcc`/`setcc`/`cmovcc` read their condition's
//!   flags ([`cond_uses`]).
//! - Calls are transparent: each lifted function keeps its flags in its own
//!   slots, so a call neither reads nor kills them. `ret`, tail-call jumps
//!   and `ud2` read none.
//!
//! Per-block gen/kill sets feed a backward fixpoint over [`XCfg`] for the
//! live-out sets; one backward walk of each block then gives the live-after
//! set of every instruction ([`FlagLiveness::after`]).

use crate::xcfg::XCfg;
use lasagne_x86::flags::{cond_uses, Flag, FlagSet};
use lasagne_x86::inst::{AluOp, Inst, MemRef, Rm, Target, XmmRm};
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

/// Computes classic backward liveness over the machine CFG, with a
/// callback giving the registers a direct call to `addr` actually reads
/// (derived from already-discovered callee signatures).
pub fn analyze(cfg: &XCfg, call_uses: impl Fn(u64) -> RegSet) -> Liveness {
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

/// The flags `inst` reads under the lifter's model semantics.
pub fn flag_reads(inst: &Inst) -> FlagSet {
    match inst {
        Inst::Jcc { cc, .. } | Inst::Setcc { cc, .. } | Inst::Cmovcc { cc, .. } => cond_uses(*cc),
        Inst::AluRRm { op, .. } | Inst::AluRmR { op, .. } | Inst::AluRmI { op, .. }
            if matches!(op, AluOp::Adc | AluOp::Sbb) =>
        {
            FlagSet::of(&[Flag::Cf])
        }
        _ => FlagSet::EMPTY,
    }
}

/// The flags `inst` writes under the lifter's model semantics.
pub fn flag_writes(inst: &Inst) -> FlagSet {
    match inst {
        Inst::AluRRm { .. }
        | Inst::AluRmR { .. }
        | Inst::AluRmI { .. }
        | Inst::Test { .. }
        | Inst::TestI { .. }
        | Inst::ShiftI { .. }
        | Inst::ShiftCl { .. }
        | Inst::Neg { .. }
        | Inst::Ucomis { .. }
        | Inst::LockXadd { .. } => FlagSet::ALL,
        Inst::IMul2 { .. } | Inst::IMul3 { .. } => FlagSet::of(&[Flag::Cf, Flag::Of]),
        Inst::LockCmpxchg { .. } => FlagSet::of(&[Flag::Zf]),
        _ => FlagSet::EMPTY,
    }
}

/// Flag liveness of one function.
#[derive(Debug, Clone)]
pub struct FlagLiveness {
    /// Flags live on entry to each block (indexed like `XCfg::blocks`).
    pub live_in: Vec<FlagSet>,
    /// Flags live on exit of each block.
    pub live_out: Vec<FlagSet>,
    /// Flags live after each instruction: `after[b][k]` for the `k`-th
    /// instruction of block `b`.
    pub after: Vec<Vec<FlagSet>>,
}

/// Computes backward flag liveness over the machine CFG (see the module
/// docs for the read and write sets).
pub fn analyze_flags(cfg: &XCfg) -> FlagLiveness {
    let n = cfg.blocks.len();
    // gen = read before written in block; kill = written in block.
    let mut gen = vec![FlagSet::EMPTY; n];
    let mut kill = vec![FlagSet::EMPTY; n];
    for (i, b) in cfg.blocks.iter().enumerate() {
        for d in &b.insts {
            gen[i] = gen[i].union(flag_reads(&d.inst).minus(kill[i]));
            kill[i] = kill[i].union(flag_writes(&d.inst));
        }
    }
    let succs: Vec<Vec<usize>> = cfg
        .blocks
        .iter()
        .map(|b| b.succs.iter().filter_map(|s| cfg.block_index(*s)).collect())
        .collect();
    let mut live_in = vec![FlagSet::EMPTY; n];
    let mut live_out = vec![FlagSet::EMPTY; n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let out = succs[i]
                .iter()
                .fold(FlagSet::EMPTY, |acc, j| acc.union(live_in[*j]));
            let inn = gen[i].union(out.minus(kill[i]));
            if out != live_out[i] || inn != live_in[i] {
                live_out[i] = out;
                live_in[i] = inn;
                changed = true;
            }
        }
    }
    let after = cfg
        .blocks
        .iter()
        .zip(&live_out)
        .map(|(b, out)| {
            let mut after = vec![FlagSet::EMPTY; b.insts.len()];
            let mut live = *out;
            for (k, d) in b.insts.iter().enumerate().rev() {
                after[k] = live;
                live = live.minus(flag_writes(&d.inst)).union(flag_reads(&d.inst));
            }
            after
        })
        .collect();
    FlagLiveness {
        live_in,
        live_out,
        after,
    }
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
        let cfg = build_xcfg(&bytes, 0, |_| false).unwrap();
        let lv = analyze(&cfg, |_| RegSet::EMPTY);
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
        let cfg = build_xcfg(&bytes, 0, |_| false).unwrap();
        let lv = analyze(&cfg, |_| RegSet::EMPTY);
        assert!(lv.live_in[0].has_gpr(Gpr::Rsi));
        assert!(lv.live_in[0].has_gpr(Gpr::Rdi));
        assert!(lv.live_in[0].has_gpr(Gpr::Rax), "rax read before written");
    }

    fn cmp(a: Gpr, b: Gpr) -> Inst {
        Inst::AluRRm {
            op: AluOp::Cmp,
            w: Width::W64,
            dst: a,
            src: Rm::Reg(b),
        }
    }

    fn setcc(cc: Cond) -> Inst {
        Inst::Setcc {
            cc,
            dst: Rm::Reg(Gpr::Rax),
        }
    }

    fn flags(fs: &[Flag]) -> FlagSet {
        FlagSet::of(fs)
    }

    #[test]
    fn flag_table_follows_the_model() {
        assert_eq!(flag_writes(&cmp(Gpr::Rax, Gpr::Rbx)), FlagSet::ALL);
        let mov = Inst::MovRRm {
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rbx),
        };
        assert!(flag_writes(&mov).is_empty() && flag_reads(&mov).is_empty());
        let call = Inst::Call {
            target: Target::Abs(0x1000),
        };
        assert!(flag_writes(&call).is_empty() && flag_reads(&call).is_empty());
        assert_eq!(
            flag_reads(&setcc(Cond::G)),
            flags(&[Flag::Zf, Flag::Sf, Flag::Of])
        );
    }

    /// `cmp` in one block, `mov` then `setl` in a successor: SF and OF stay
    /// live across the edge; CF, PF and ZF are dead after the `cmp` (ZF
    /// only feeds the `je` that ends the block).
    #[test]
    fn flags_live_across_a_block_boundary() {
        let mut a = Asm::new();
        let join = a.label();
        a.push(cmp(Gpr::Rdi, Gpr::Rsi));
        a.jcc(Cond::E, join);
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rcx),
            imm: 1,
        });
        a.bind(join);
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rdx),
            imm: 2,
        });
        a.push(setcc(Cond::L));
        a.push(Inst::Ret);
        let cfg = build_xcfg(&a.finish(0).unwrap(), 0, |_| false).unwrap();
        let lv = analyze_flags(&cfg);
        let sf_of = flags(&[Flag::Sf, Flag::Of]);
        assert_eq!(lv.after[0][0], sf_of.union(flags(&[Flag::Zf])));
        assert_eq!(lv.live_out[0], sf_of);
        let join = cfg.blocks.len() - 1;
        assert_eq!(lv.live_in[join], sf_of);
        assert_eq!(lv.after[join][0], sf_of, "a mov kills no flag");
        assert!(lv.after[join][1].is_empty());
    }

    /// `add; adc; adc`: each link reads the CF its predecessor wrote, and
    /// nothing else is live.
    #[test]
    fn adc_chain_keeps_cf_live() {
        let mut a = Asm::new();
        for op in [AluOp::Add, AluOp::Adc, AluOp::Adc] {
            a.push(Inst::AluRRm {
                op,
                w: Width::W64,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rbx),
            });
        }
        a.push(Inst::Ret);
        let cfg = build_xcfg(&a.finish(0).unwrap(), 0, |_| false).unwrap();
        let lv = analyze_flags(&cfg);
        let cf = flags(&[Flag::Cf]);
        assert_eq!(lv.after[0][..3], [cf, cf, FlagSet::EMPTY]);
        assert!(lv.live_in[0].is_empty());
    }

    /// `cmp; top: setb; sub; jne top`: the CF the `sub` writes is read by
    /// the next iteration's `setb`, so it stays live around the back edge,
    /// and the `cmp` before the loop must supply it too.
    #[test]
    fn flags_live_around_a_loop_back_edge() {
        let mut a = Asm::new();
        let top = a.label();
        a.push(cmp(Gpr::Rdi, Gpr::Rsi));
        a.bind(top);
        a.push(setcc(Cond::B));
        a.push(Inst::AluRmI {
            op: AluOp::Sub,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rdi),
            imm: 1,
        });
        a.jcc(Cond::Ne, top);
        a.push(Inst::Ret);
        let cfg = build_xcfg(&a.finish(0).unwrap(), 0, |_| false).unwrap();
        let lv = analyze_flags(&cfg);
        let cf = flags(&[Flag::Cf]);
        assert_eq!(lv.after[0][0], cf, "cmp feeds the first setb");
        let body = cfg.block_index(cfg.blocks[0].succs[0]).unwrap();
        assert_eq!(lv.live_in[body], cf);
        assert_eq!(lv.after[body][1], cf.union(flags(&[Flag::Zf])));
        assert_eq!(lv.live_out[body], cf);
    }

    /// `imul` writes only CF and OF, so the ZF of the `cmp` before it is
    /// still the one `sete` reads; the `cmp`'s CF and OF are dead.
    #[test]
    fn partial_write_leaves_other_flags_live() {
        let mut a = Asm::new();
        a.push(cmp(Gpr::Rdi, Gpr::Rsi));
        a.push(Inst::IMul2 {
            w: Width::W64,
            dst: Gpr::Rcx,
            src: Rm::Reg(Gpr::Rdx),
        });
        a.push(setcc(Cond::E));
        a.push(setcc(Cond::O));
        a.push(Inst::Ret);
        let cfg = build_xcfg(&a.finish(0).unwrap(), 0, |_| false).unwrap();
        let lv = analyze_flags(&cfg);
        let zf = flags(&[Flag::Zf]);
        assert_eq!(lv.after[0][0], zf);
        assert_eq!(lv.after[0][1], zf.union(flags(&[Flag::Of])));
    }
}
