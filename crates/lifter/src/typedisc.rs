//! Function type discovery (paper §4.1).
//!
//! Derives each function's parameter list and return type from the System-V
//! calling convention: parameter registers that are live at entry become
//! parameters; a return register (`RAX`/`XMM0`) that is defined on every
//! path to every `ret` becomes the return type. SSE register types are
//! derived from the instructions using them (scalar single/double vs packed,
//! §4.1 "Type Discovery").

use crate::liveness::{self, RegSet};
use crate::xcfg::XCfg;
use lasagne_lir::types::Ty;
use lasagne_x86::inst::{FpPrec, Inst, Target, XmmRm};
use lasagne_x86::reg::{Gpr, Xmm};
use std::collections::BTreeMap;

/// A discovered function signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncType {
    /// Parameter types: integer parameters first, then SSE parameters
    /// (the paper's §4.2.1 parameter-ordering assumption).
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
}

impl FuncType {
    /// Signature with no parameters returning void.
    pub fn void() -> FuncType {
        FuncType {
            params: vec![],
            ret: Ty::Void,
        }
    }

    /// Number of integer parameters (passed in `RDI, RSI, …`).
    pub fn int_param_count(&self) -> usize {
        self.params
            .iter()
            .filter(|t| !t.is_float() && !t.is_vector())
            .count()
    }

    /// Number of SSE parameters (passed in `XMM0, XMM1, …`).
    pub fn sse_param_count(&self) -> usize {
        self.params.len() - self.int_param_count()
    }

    /// The registers a call to a function of this type reads.
    pub fn arg_regs(&self) -> RegSet {
        let mut s = RegSet::EMPTY;
        for r in Gpr::PARAMS.iter().take(self.int_param_count()) {
            s.add_gpr(*r);
        }
        for x in Xmm::PARAMS.iter().take(self.sse_param_count()) {
            s.add_xmm(*x);
        }
        s
    }
}

/// Known signatures by address: populated with extern (PLT stub) signatures
/// up front and with discovered function types as discovery proceeds
/// bottom-up over the call graph.
#[derive(Debug, Clone, Default)]
pub struct SigTable {
    map: BTreeMap<u64, FuncType>,
}

impl SigTable {
    /// Empty table.
    pub fn new() -> SigTable {
        SigTable::default()
    }

    /// Registers the signature of the code at `addr`.
    pub fn insert(&mut self, addr: u64, ty: FuncType) {
        self.map.insert(addr, ty);
    }

    /// Signature lookup.
    pub fn get(&self, addr: u64) -> Option<&FuncType> {
        self.map.get(&addr)
    }
}

/// Scans the function for the first instruction that tells us how an XMM
/// register is interpreted (scalar single/double or packed), per §4.1.
fn xmm_type(cfg: &XCfg, x: Xmm) -> Ty {
    for b in &cfg.blocks {
        for d in &b.insts {
            let ty = match d.inst {
                Inst::SseScalar { prec, dst, src, .. } | Inst::MovssLoad { prec, dst, src } => {
                    if dst == x || src == XmmRm::Reg(x) {
                        Some(scalar_ty(prec))
                    } else {
                        None
                    }
                }
                Inst::CvtF2F { to, dst, src } => {
                    // The destination has precision `to`; the source has the
                    // opposite precision.
                    if dst == x {
                        Some(scalar_ty(to))
                    } else if src == XmmRm::Reg(x) {
                        Some(scalar_ty(match to {
                            FpPrec::Double => FpPrec::Single,
                            FpPrec::Single => FpPrec::Double,
                        }))
                    } else {
                        None
                    }
                }
                Inst::MovssStore { prec, src, .. } => {
                    if src == x {
                        Some(scalar_ty(prec))
                    } else {
                        None
                    }
                }
                Inst::Ucomis { prec, a, b } => {
                    if a == x || b == XmmRm::Reg(x) {
                        Some(scalar_ty(prec))
                    } else {
                        None
                    }
                }
                Inst::CvtF2Si { prec, src, .. } => {
                    if src == XmmRm::Reg(x) {
                        Some(scalar_ty(prec))
                    } else {
                        None
                    }
                }
                Inst::SsePacked { prec, dst, src, .. } => {
                    if dst == x || src == XmmRm::Reg(x) {
                        Some(if prec == FpPrec::Double {
                            Ty::V2F64
                        } else {
                            Ty::V4F32
                        })
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(t) = ty {
                return t;
            }
        }
    }
    Ty::F64
}

fn scalar_ty(p: FpPrec) -> Ty {
    if p == FpPrec::Double {
        Ty::F64
    } else {
        Ty::F32
    }
}

/// Discovers the signature of the function whose machine CFG is `cfg`,
/// consulting `sigs` for the argument registers of direct callees.
pub fn discover(cfg: &XCfg, sigs: &SigTable) -> FuncType {
    // Parameter discovery: live-at-entry ∩ parameter registers (§4.1).
    // (analyze also consults `sigs` for tail-call jumps.)
    let lv = liveness::analyze(cfg, |target| {
        sigs.get(target).map_or(RegSet::EMPTY, FuncType::arg_regs)
    });
    let entry_idx = cfg.block_index(cfg.entry).unwrap_or(0);
    let live = lv.live_in[entry_idx];

    // The ABI assigns registers contiguously, so the parameter count is
    // the highest-indexed live parameter register plus one. (A longest
    // live *prefix* would be wrong: a function that ignores its first
    // parameter — live-in {RSI} but not {RDI} — still has two parameters,
    // and truncating the list would make RSI read undef after lifting.)
    let n_int = Gpr::PARAMS
        .iter()
        .rposition(|r| live.has_gpr(*r))
        .map_or(0, |i| i + 1);
    let n_sse = Xmm::PARAMS
        .iter()
        .rposition(|x| live.has_xmm(*x))
        .map_or(0, |i| i + 1);

    let mut params: Vec<Ty> = vec![Ty::I64; n_int];
    for x in Xmm::PARAMS.iter().take(n_sse) {
        params.push(xmm_type(cfg, *x));
    }

    // Return discovery: forward must-define over RAX / XMM0 (§4.1 "Return
    // Type Discovery"): the return register must be defined on every path
    // into every exit block.
    let ret = ret_type(cfg, sigs);
    FuncType { params, ret }
}

fn ret_type(cfg: &XCfg, sigs: &SigTable) -> Ty {
    #[derive(Clone, Copy, PartialEq)]
    struct MustDef {
        rax: bool,
        xmm0: bool,
    }
    let n = cfg.blocks.len();
    // Per-block: does the block itself define rax/xmm0 (considering callee
    // return types for calls)?
    let mut block_def = vec![
        MustDef {
            rax: false,
            xmm0: false
        };
        n
    ];
    for (i, b) in cfg.blocks.iter().enumerate() {
        for d in &b.insts {
            match d.inst {
                Inst::Call {
                    target: Target::Abs(t),
                } => {
                    if let Some(sig) = sigs.get(t) {
                        if sig.ret.is_float() || sig.ret.is_vector() {
                            block_def[i].xmm0 = true;
                        } else if sig.ret != Ty::Void {
                            block_def[i].rax = true;
                        }
                    }
                }
                ref inst => {
                    let dfs = liveness::defs(inst);
                    if dfs.has_gpr(Gpr::Rax) {
                        block_def[i].rax = true;
                    }
                    if dfs.has_xmm(Xmm(0)) {
                        block_def[i].xmm0 = true;
                    }
                }
            }
        }
    }
    // Must-define dataflow: in = AND over preds of out; out = in OR block_def.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, b) in cfg.blocks.iter().enumerate() {
        for s in &b.succs {
            if let Some(j) = cfg.block_index(*s) {
                preds[j].push(i);
            }
        }
    }
    let entry_idx = cfg.block_index(cfg.entry).unwrap_or(0);
    let mut out = vec![
        MustDef {
            rax: true,
            xmm0: true
        };
        n
    ]; // ⊤ for iteration
    out[entry_idx] = block_def[entry_idx];
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let inn = if i == entry_idx {
                MustDef {
                    rax: false,
                    xmm0: false,
                }
            } else if preds[i].is_empty() {
                MustDef {
                    rax: false,
                    xmm0: false,
                }
            } else {
                let mut acc = MustDef {
                    rax: true,
                    xmm0: true,
                };
                for &p in &preds[i] {
                    acc.rax &= out[p].rax;
                    acc.xmm0 &= out[p].xmm0;
                }
                acc
            };
            let new_out = MustDef {
                rax: inn.rax || block_def[i].rax,
                xmm0: inn.xmm0 || block_def[i].xmm0,
            };
            if new_out != out[i] {
                out[i] = new_out;
                changed = true;
            }
        }
    }
    // Exit blocks end in `ret` — or in a tail-call `jmp`, whose callee's
    // return defines the register.
    let mut all_rax = true;
    let mut all_xmm = true;
    let mut any_exit = false;
    for (i, b) in cfg.blocks.iter().enumerate() {
        match b.insts.last().map(|d| d.inst) {
            Some(Inst::Ret) => {
                any_exit = true;
                all_rax &= out[i].rax;
                all_xmm &= out[i].xmm0;
            }
            Some(Inst::Jmp {
                target: Target::Abs(t),
            }) if cfg.block_index(t).is_none() => {
                any_exit = true;
                let (mut rax, mut xmm) = (out[i].rax, out[i].xmm0);
                if let Some(sig) = sigs.get(t) {
                    if sig.ret.is_float() || sig.ret.is_vector() {
                        xmm = true;
                    } else if sig.ret != Ty::Void {
                        rax = true;
                    }
                }
                all_rax &= rax;
                all_xmm &= xmm;
            }
            _ => {}
        }
    }
    if !any_exit {
        return Ty::Void;
    }
    if all_xmm && !all_rax {
        // Only the FP register is consistently defined; derive its scalar
        // precision from how XMM0 is used.
        let t = xmm_type(cfg, Xmm(0));
        return if t == Ty::F32 { Ty::F32 } else { Ty::F64 };
    }
    if all_rax {
        return Ty::I64;
    }
    Ty::Void
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xcfg::build_xcfg;
    use lasagne_x86::asm::Asm;
    use lasagne_x86::inst::{AluOp, Inst, MemRef, Rm, SseOp};
    use lasagne_x86::reg::Width;

    fn discover_bytes(bytes: &[u8], base: u64) -> FuncType {
        let cfg = build_xcfg(bytes, base, |_| false).unwrap();
        discover(&cfg, &SigTable::new())
    }

    #[test]
    fn two_int_params_int_return() {
        // f(rdi, rsi) = rdi + rsi
        let mut a = Asm::new();
        a.push(Inst::MovRRm {
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rdi),
        });
        a.push(Inst::AluRRm {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rsi),
        });
        a.push(Inst::Ret);
        let t = discover_bytes(&a.finish(0).unwrap(), 0);
        assert_eq!(t.params, vec![Ty::I64, Ty::I64]);
        assert_eq!(t.ret, Ty::I64);
    }

    #[test]
    fn unused_leading_param_still_counted() {
        // f(rdi, rsi) = rsi — RDI is dead but RSI live, so the ABI still
        // assigned two integer parameter slots. Found by the three-way
        // differential oracle: the old longest-live-prefix rule discovered
        // zero parameters here and the lifted function read undef for RSI.
        let mut a = Asm::new();
        a.push(Inst::MovRRm {
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rsi),
        });
        a.push(Inst::Ret);
        let t = discover_bytes(&a.finish(0).unwrap(), 0);
        assert_eq!(t.params, vec![Ty::I64, Ty::I64]);
        assert_eq!(t.ret, Ty::I64);
    }

    #[test]
    fn void_function() {
        // f(rdi): [rdi] = 1 (no return value)
        let mut a = Asm::new();
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Mem(MemRef::base(Gpr::Rdi)),
            imm: 1,
        });
        a.push(Inst::Ret);
        let t = discover_bytes(&a.finish(0).unwrap(), 0);
        assert_eq!(t.params, vec![Ty::I64]);
        assert_eq!(t.ret, Ty::Void);
    }

    #[test]
    fn double_param_and_return() {
        // f(xmm0) = xmm0 + xmm0 (double)
        let mut a = Asm::new();
        a.push(Inst::SseScalar {
            op: SseOp::Add,
            prec: FpPrec::Double,
            dst: Xmm(0),
            src: XmmRm::Reg(Xmm(0)),
        });
        a.push(Inst::Ret);
        let t = discover_bytes(&a.finish(0).unwrap(), 0);
        assert_eq!(t.params, vec![Ty::F64]);
        assert_eq!(t.ret, Ty::F64);
    }

    #[test]
    fn float_param_detected_as_single() {
        let mut a = Asm::new();
        a.push(Inst::SseScalar {
            op: SseOp::Mul,
            prec: FpPrec::Single,
            dst: Xmm(0),
            src: XmmRm::Reg(Xmm(0)),
        });
        a.push(Inst::Ret);
        let t = discover_bytes(&a.finish(0).unwrap(), 0);
        assert_eq!(t.params, vec![Ty::F32]);
    }

    #[test]
    fn mixed_params_int_first() {
        // f(rdi, xmm0): store xmm0 to [rdi]
        let mut a = Asm::new();
        a.push(Inst::MovssStore {
            prec: FpPrec::Double,
            dst: MemRef::base(Gpr::Rdi),
            src: Xmm(0),
        });
        a.push(Inst::Ret);
        let t = discover_bytes(&a.finish(0).unwrap(), 0);
        assert_eq!(t.params, vec![Ty::I64, Ty::F64]);
        assert_eq!(t.ret, Ty::Void);
    }

    #[test]
    fn return_defined_on_all_paths() {
        // if (rdi) rax=1 else rax=2; ret  — returns i64
        let mut a = Asm::new();
        let els = a.label();
        let out = a.label();
        a.push(Inst::Test {
            w: Width::W64,
            a: Rm::Reg(Gpr::Rdi),
            b: Gpr::Rdi,
        });
        a.jcc(lasagne_x86::reg::Cond::E, els);
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rax),
            imm: 1,
        });
        a.jmp(out);
        a.bind(els);
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rax),
            imm: 2,
        });
        a.bind(out);
        a.push(Inst::Ret);
        let t = discover_bytes(&a.finish(0).unwrap(), 0);
        assert_eq!(t.ret, Ty::I64);
    }

    #[test]
    fn return_defined_on_one_path_only_is_void() {
        // if (rdi) rax=1; ret — not consistently defined ⇒ void
        let mut a = Asm::new();
        let out = a.label();
        a.push(Inst::Test {
            w: Width::W64,
            a: Rm::Reg(Gpr::Rdi),
            b: Gpr::Rdi,
        });
        a.jcc(lasagne_x86::reg::Cond::E, out);
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rax),
            imm: 1,
        });
        a.bind(out);
        a.push(Inst::Ret);
        let t = discover_bytes(&a.finish(0).unwrap(), 0);
        assert_eq!(t.ret, Ty::Void);
    }

    #[test]
    fn callee_signature_informs_param_use() {
        // f(rdi): call g(rdi); ret — with g: (i64) -> i64 registered, only
        // rdi should be a parameter even though the call site exists.
        let mut sigs = SigTable::new();
        sigs.insert(
            0x5000,
            FuncType {
                params: vec![Ty::I64],
                ret: Ty::I64,
            },
        );
        let mut a = Asm::new();
        a.push(Inst::Call {
            target: Target::Abs(0x5000),
        });
        a.push(Inst::Ret);
        let bytes = a.finish(0).unwrap();
        let cfg = build_xcfg(&bytes, 0, |_| false).unwrap();
        let t = discover(&cfg, &sigs);
        assert_eq!(t.params, vec![Ty::I64]);
        assert_eq!(t.ret, Ty::I64, "rax defined by g's return");
    }
}
