//! Instruction translation: machine CFG → LIR (paper §4.2).
//!
//! The translator is naive wherever being clever would need information a
//! lifter does not have: all memory addresses are computed as 64-bit
//! integer arithmetic and converted with `inttoptr` right before each
//! access, the x86 stack is reconstructed as a byte-array `alloca`
//! (§4.2.3), and each XMM register lives in a 16-byte `alloca` slot. That
//! bloat is what the paper's Figures 16/17 measure, and it is cleaned up
//! by the refinement rules (§5) and the optimizer (`sroa`/`mem2reg` find
//! the XMM slots).
//!
//! The 16 GPRs and 5 status flags are SSA values from the start, as in
//! mctoll, which models registers and EFLAGS as LLVM values. `read_gpr64`
//! / `write_gpr` and `read_flag` / `write_flag` go through one
//! [`SsaBuilder`] over 21 variables (the GPRs in `Gpr::ALL` order, then
//! the flags), which keeps each block's current definitions and makes a
//! φ only where a read needs one (Braun et al.'s on-the-fly
//! construction). No register or flag slot, load or store is emitted, so
//! no promotion runs afterwards and no dead φ is left for refine to read.
//!
//! Like mctoll, the translator also materialises a flag only where it is
//! live after the instruction that writes it
//! ([`crate::liveness::analyze_flags`]): a dead flag costs neither its
//! computation nor its definition. Emitting every flag and leaving dead
//! ones to the optimizer would produce the same optimized code, but would
//! build, refine and delete several LIR instructions per x86 instruction
//! for nothing.

use crate::liveness::analyze_flags;
use crate::typedisc::FuncType;
use crate::xcfg::XCfg;
use lasagne_lir::func::Function;
use lasagne_lir::inst::{
    BinOp, Callee, CastOp, ExternId, FPred, FenceKind, FuncId, GlobalId, IPred, InstId, InstKind,
    Operand, Ordering, RmwOp, Terminator,
};
use lasagne_lir::ssa::SsaBuilder;
use lasagne_lir::types::{Pointee, Ty};
use lasagne_lir::BlockId;
use lasagne_x86::flags::{Flag, FlagSet};
use lasagne_x86::inst::{AluOp, FpPrec, Inst, MemRef, MulDivOp, Rm, ShiftOp, SseOp, Target, XmmRm};
use lasagne_x86::reg::{Cond, Gpr, Width, Xmm};
use std::collections::{BTreeMap, BTreeSet};

/// Errors produced during translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// An instruction shape the translator does not support.
    Unsupported(String),
    /// A direct call targets an address with no known symbol.
    UnknownCallTarget {
        /// Call site.
        at: u64,
        /// Target address.
        target: u64,
    },
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::Unsupported(s) => write!(f, "unsupported: {s}"),
            TranslateError::UnknownCallTarget { at, target } => {
                write!(f, "call at {at:#x} to unknown target {target:#x}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// Symbol environment the translator resolves addresses against.
#[derive(Debug, Clone, Default)]
pub struct SymbolEnv {
    /// Function entry address → (id, signature).
    pub funcs: BTreeMap<u64, (FuncId, FuncType)>,
    /// Extern stub address → (id, signature, variadic).
    pub externs: BTreeMap<u64, (ExternId, FuncType, bool)>,
    /// Global ranges: (start, size, id).
    pub globals: Vec<(u64, u64, GlobalId)>,
}

impl SymbolEnv {
    fn global_at(&self, addr: u64) -> Option<(GlobalId, u64)> {
        self.globals
            .iter()
            .find(|(start, size, _)| addr >= *start && addr < start + size)
            .map(|(start, _, id)| (*id, addr - start))
    }
}

/// Bytes reserved for the reconstructed stack array (§4.2.3).
const STACK_SIZE: u64 = 4096;

/// The SSA variable of a GPR: its position in `Gpr::ALL`, its encoding.
fn gpr_var(r: Gpr) -> usize {
    r.encoding() as usize
}

/// The SSA variable of a status flag, after the 16 GPRs.
fn flag_var(fl: Flag) -> usize {
    16 + fl as usize
}

struct Tr<'a> {
    f: Function,
    env: &'a SymbolEnv,
    cur: BlockId,
    /// Current definitions of the GPRs and flags (see [`gpr_var`],
    /// [`flag_var`]).
    ssa: SsaBuilder,
    xmm_slot: [Option<InstId>; 16],
    sqrt_ext: ExternId,
    /// Parameter registers written so far (variadic-call heuristic, §4.2.1).
    written_params: BTreeSet<Gpr>,
    /// Last constant moved into AL/EAX (SSE-count for variadic calls).
    al_const: Option<u8>,
    /// Flags live after the instruction being lowered; writes of any other
    /// flag are dead and are not emitted.
    live: FlagSet,
    /// Per-flag counts of `read_flag` calls and of the stores `write_flag`
    /// emits, indexed by `Flag as usize` (pins the lowering against the
    /// liveness table).
    #[cfg(test)]
    flag_io: ([u32; 5], [u32; 5]),
}

const PTR_I8: Ty = Ty::Ptr(Pointee::I8);

fn width_ty(w: Width) -> Ty {
    match w {
        Width::W8 => Ty::I8,
        Width::W16 => Ty::I16,
        Width::W32 => Ty::I32,
        Width::W64 => Ty::I64,
    }
}

fn width_pointee(w: Width) -> Pointee {
    match w {
        Width::W8 => Pointee::I8,
        Width::W16 => Pointee::I16,
        Width::W32 => Pointee::I32,
        Width::W64 => Pointee::I64,
    }
}

fn cint(w: Width, v: i64) -> Operand {
    Operand::ConstInt {
        ty: width_ty(w),
        val: (v as u64) & w.mask(),
    }
}

impl<'a> Tr<'a> {
    fn emit(&mut self, ty: Ty, kind: InstKind) -> Operand {
        Operand::Inst(self.f.push(self.cur, ty, kind))
    }

    fn emit_void(&mut self, kind: InstKind) {
        self.f.push(self.cur, Ty::Void, kind);
    }

    // ---- registers ---------------------------------------------------------

    fn read_gpr64(&mut self, r: Gpr) -> Operand {
        self.ssa.read(&mut self.f, self.cur, gpr_var(r))
    }

    fn read_gpr(&mut self, r: Gpr, w: Width) -> Operand {
        let v = self.read_gpr64(r);
        if w == Width::W64 {
            v
        } else {
            self.emit(
                width_ty(w),
                InstKind::Cast {
                    op: CastOp::Trunc,
                    val: v,
                },
            )
        }
    }

    fn write_gpr(&mut self, r: Gpr, w: Width, v: Operand) {
        let v64 = match w {
            Width::W64 => v,
            // 32-bit writes zero the upper half (x86 semantics).
            Width::W32 => self.emit(
                Ty::I64,
                InstKind::Cast {
                    op: CastOp::ZExt,
                    val: v,
                },
            ),
            // 8/16-bit writes preserve the upper bits.
            Width::W8 | Width::W16 => {
                let old = self.read_gpr64(r);
                let keep = self.emit(
                    Ty::I64,
                    InstKind::Bin {
                        op: BinOp::And,
                        lhs: old,
                        rhs: Operand::i64(!(w.mask() as i64)),
                    },
                );
                let z = self.emit(
                    Ty::I64,
                    InstKind::Cast {
                        op: CastOp::ZExt,
                        val: v,
                    },
                );
                self.emit(
                    Ty::I64,
                    InstKind::Bin {
                        op: BinOp::Or,
                        lhs: keep,
                        rhs: z,
                    },
                )
            }
        };
        self.ssa.write(self.cur, gpr_var(r), v64);
        if Gpr::PARAMS.contains(&r) {
            self.written_params.insert(r);
        }
    }

    // ---- flags -----------------------------------------------------------

    fn read_flag(&mut self, fl: Flag) -> Operand {
        #[cfg(test)]
        {
            self.flag_io.0[fl as usize] += 1;
        }
        self.ssa.read(&mut self.f, self.cur, flag_var(fl))
    }

    fn is_live(&self, fl: Flag) -> bool {
        self.live.contains(fl)
    }

    /// Makes `v` the value of `fl` if `fl` is live; callers skip computing
    /// a dead flag's value before they get here.
    fn write_flag(&mut self, fl: Flag, v: Operand) {
        if !self.is_live(fl) {
            return;
        }
        #[cfg(test)]
        {
            self.flag_io.1[fl as usize] += 1;
        }
        self.ssa.write(self.cur, flag_var(fl), v);
    }

    fn write_flag_const(&mut self, fl: Flag, v: bool) {
        self.write_flag(fl, Operand::bool(v));
    }

    fn not1(&mut self, v: Operand) -> Operand {
        self.emit(
            Ty::I1,
            InstKind::Bin {
                op: BinOp::Xor,
                lhs: v,
                rhs: Operand::bool(true),
            },
        )
    }

    /// Writes `fl` as `pred(lhs, rhs)` if it is live.
    fn write_flag_icmp(&mut self, fl: Flag, pred: IPred, lhs: Operand, rhs: Operand) {
        if self.is_live(fl) {
            let v = self.emit(Ty::I1, InstKind::ICmp { pred, lhs, rhs });
            self.write_flag(fl, v);
        }
    }

    /// ZF/SF/PF from a result (common to all flag groups).
    fn set_zsp(&mut self, res: Operand, w: Width) {
        self.write_flag_icmp(Flag::Zf, IPred::Eq, res, cint(w, 0));
        self.write_flag_icmp(Flag::Sf, IPred::Slt, res, cint(w, 0));
        if !self.is_live(Flag::Pf) {
            return;
        }
        // Parity of the low byte, computed with shift/xor reduction — one of
        // the "more than one LLVM instruction" expansions of §4.2.
        let b = if w == Width::W8 {
            res
        } else {
            self.emit(
                Ty::I8,
                InstKind::Cast {
                    op: CastOp::Trunc,
                    val: res,
                },
            )
        };
        let mut x = b;
        for sh in [4, 2, 1] {
            let s = self.emit(
                Ty::I8,
                InstKind::Bin {
                    op: BinOp::LShr,
                    lhs: x,
                    rhs: cint(Width::W8, sh),
                },
            );
            x = self.emit(
                Ty::I8,
                InstKind::Bin {
                    op: BinOp::Xor,
                    lhs: x,
                    rhs: s,
                },
            );
        }
        let low = self.emit(
            Ty::I8,
            InstKind::Bin {
                op: BinOp::And,
                lhs: x,
                rhs: cint(Width::W8, 1),
            },
        );
        self.write_flag_icmp(Flag::Pf, IPred::Eq, low, cint(Width::W8, 0));
    }

    fn set_flags_logic(&mut self, res: Operand, w: Width) {
        self.write_flag_const(Flag::Cf, false);
        self.write_flag_const(Flag::Of, false);
        self.set_zsp(res, w);
    }

    /// OF as the sign bit of `(p ^ q) & (r ^ s)`, if OF is live.
    fn write_of_xor_and(
        &mut self,
        w: Width,
        (p, q): (Operand, Operand),
        (r, s): (Operand, Operand),
    ) {
        if !self.is_live(Flag::Of) {
            return;
        }
        let t1 = self.emit(
            width_ty(w),
            InstKind::Bin {
                op: BinOp::Xor,
                lhs: p,
                rhs: q,
            },
        );
        let t2 = self.emit(
            width_ty(w),
            InstKind::Bin {
                op: BinOp::Xor,
                lhs: r,
                rhs: s,
            },
        );
        let t3 = self.emit(
            width_ty(w),
            InstKind::Bin {
                op: BinOp::And,
                lhs: t1,
                rhs: t2,
            },
        );
        self.write_flag_icmp(Flag::Of, IPred::Slt, t3, cint(w, 0));
    }

    fn set_flags_add(&mut self, a: Operand, b: Operand, res: Operand, w: Width) {
        self.write_flag_icmp(Flag::Cf, IPred::Ult, res, a);
        self.write_of_xor_and(w, (a, res), (b, res));
        self.set_zsp(res, w);
    }

    fn set_flags_sub(&mut self, a: Operand, b: Operand, res: Operand, w: Width) {
        self.write_flag_icmp(Flag::Cf, IPred::Ult, a, b);
        self.write_of_xor_and(w, (a, b), (a, res));
        self.set_zsp(res, w);
    }

    fn cond_value(&mut self, cc: Cond) -> Operand {
        match cc {
            Cond::O => self.read_flag(Flag::Of),
            Cond::No => {
                let v = self.read_flag(Flag::Of);
                self.not1(v)
            }
            Cond::B => self.read_flag(Flag::Cf),
            Cond::Ae => {
                let v = self.read_flag(Flag::Cf);
                self.not1(v)
            }
            Cond::E => self.read_flag(Flag::Zf),
            Cond::Ne => {
                let v = self.read_flag(Flag::Zf);
                self.not1(v)
            }
            Cond::Be => {
                let c = self.read_flag(Flag::Cf);
                let z = self.read_flag(Flag::Zf);
                self.emit(
                    Ty::I1,
                    InstKind::Bin {
                        op: BinOp::Or,
                        lhs: c,
                        rhs: z,
                    },
                )
            }
            Cond::A => {
                let c = self.read_flag(Flag::Cf);
                let z = self.read_flag(Flag::Zf);
                let o = self.emit(
                    Ty::I1,
                    InstKind::Bin {
                        op: BinOp::Or,
                        lhs: c,
                        rhs: z,
                    },
                );
                self.not1(o)
            }
            Cond::S => self.read_flag(Flag::Sf),
            Cond::Ns => {
                let v = self.read_flag(Flag::Sf);
                self.not1(v)
            }
            Cond::P => self.read_flag(Flag::Pf),
            Cond::Np => {
                let v = self.read_flag(Flag::Pf);
                self.not1(v)
            }
            Cond::L => {
                let s = self.read_flag(Flag::Sf);
                let o = self.read_flag(Flag::Of);
                self.emit(
                    Ty::I1,
                    InstKind::ICmp {
                        pred: IPred::Ne,
                        lhs: s,
                        rhs: o,
                    },
                )
            }
            Cond::Ge => {
                let s = self.read_flag(Flag::Sf);
                let o = self.read_flag(Flag::Of);
                self.emit(
                    Ty::I1,
                    InstKind::ICmp {
                        pred: IPred::Eq,
                        lhs: s,
                        rhs: o,
                    },
                )
            }
            Cond::Le => {
                let s = self.read_flag(Flag::Sf);
                let o = self.read_flag(Flag::Of);
                let ne = self.emit(
                    Ty::I1,
                    InstKind::ICmp {
                        pred: IPred::Ne,
                        lhs: s,
                        rhs: o,
                    },
                );
                let z = self.read_flag(Flag::Zf);
                self.emit(
                    Ty::I1,
                    InstKind::Bin {
                        op: BinOp::Or,
                        lhs: z,
                        rhs: ne,
                    },
                )
            }
            Cond::G => {
                let s = self.read_flag(Flag::Sf);
                let o = self.read_flag(Flag::Of);
                let eq = self.emit(
                    Ty::I1,
                    InstKind::ICmp {
                        pred: IPred::Eq,
                        lhs: s,
                        rhs: o,
                    },
                );
                let z = self.read_flag(Flag::Zf);
                let nz = self.not1(z);
                self.emit(
                    Ty::I1,
                    InstKind::Bin {
                        op: BinOp::And,
                        lhs: nz,
                        rhs: eq,
                    },
                )
            }
        }
    }

    // ---- addresses & memory ----------------------------------------------

    /// The i64 value of an absolute address, resolving symbols.
    fn symbol_value(&mut self, addr: u64) -> Operand {
        if let Some((gid, off)) = self.env.global_at(addr) {
            let p = self.emit(
                Ty::I64,
                InstKind::Cast {
                    op: CastOp::PtrToInt,
                    val: Operand::Global(gid),
                },
            );
            if off == 0 {
                p
            } else {
                self.emit(
                    Ty::I64,
                    InstKind::Bin {
                        op: BinOp::Add,
                        lhs: p,
                        rhs: Operand::i64(off as i64),
                    },
                )
            }
        } else if let Some((fid, _)) = self.env.funcs.get(&addr) {
            self.emit(
                Ty::I64,
                InstKind::Cast {
                    op: CastOp::PtrToInt,
                    val: Operand::Func(*fid),
                },
            )
        } else {
            Operand::i64(addr as i64)
        }
    }

    /// Computes the effective address of a memory operand as an i64 value —
    /// raw integer arithmetic, exactly as the machine does (§5 motivates why
    /// this must later be refined back into pointer form).
    fn addr_value(&mut self, m: &MemRef) -> Operand {
        if m.rip_relative {
            return self.symbol_value(m.disp as u64);
        }
        let mut acc: Option<Operand> = m.base.map(|b| self.read_gpr64(b));
        if let Some(i) = m.index {
            let mut idx = self.read_gpr64(i);
            if m.scale > 1 {
                idx = self.emit(
                    Ty::I64,
                    InstKind::Bin {
                        op: BinOp::Mul,
                        lhs: idx,
                        rhs: Operand::i64(i64::from(m.scale)),
                    },
                );
            }
            acc = Some(match acc {
                Some(a) => self.emit(
                    Ty::I64,
                    InstKind::Bin {
                        op: BinOp::Add,
                        lhs: a,
                        rhs: idx,
                    },
                ),
                None => idx,
            });
        }
        match (acc, m.disp) {
            (None, d) => self.symbol_value(d as u64),
            (Some(a), 0) => a,
            (Some(a), d) => self.emit(
                Ty::I64,
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: a,
                    rhs: Operand::i64(d),
                },
            ),
        }
    }

    fn mem_ptr(&mut self, m: &MemRef, pointee: Pointee) -> Operand {
        let a = self.addr_value(m);
        self.emit(
            Ty::Ptr(pointee),
            InstKind::Cast {
                op: CastOp::IntToPtr,
                val: a,
            },
        )
    }

    fn load_mem(&mut self, m: &MemRef, w: Width) -> Operand {
        let p = self.mem_ptr(m, width_pointee(w));
        self.emit(
            width_ty(w),
            InstKind::Load {
                ptr: p,
                order: Ordering::NotAtomic,
            },
        )
    }

    fn store_mem(&mut self, m: &MemRef, w: Width, v: Operand) {
        let p = self.mem_ptr(m, width_pointee(w));
        self.emit_void(InstKind::Store {
            ptr: p,
            val: v,
            order: Ordering::NotAtomic,
        });
    }

    fn read_rm(&mut self, rm: &Rm, w: Width) -> Operand {
        match rm {
            Rm::Reg(r) => self.read_gpr(*r, w),
            Rm::Mem(m) => self.load_mem(m, w),
        }
    }

    fn write_rm(&mut self, rm: &Rm, w: Width, v: Operand) {
        match rm {
            Rm::Reg(r) => self.write_gpr(*r, w, v),
            Rm::Mem(m) => self.store_mem(m, w, v),
        }
    }

    // ---- XMM slots ---------------------------------------------------------

    fn xmm_slot(&mut self, x: Xmm) -> Operand {
        Operand::Inst(self.xmm_slot[x.encoding() as usize].expect("xmm slot not preallocated"))
    }

    fn xmm_ptr(&mut self, x: Xmm, pointee: Pointee, byte_off: u64) -> Operand {
        let slot = self.xmm_slot(x);
        let base = if byte_off == 0 {
            slot
        } else {
            self.emit(
                PTR_I8,
                InstKind::Gep {
                    base: slot,
                    offset: Operand::i64(byte_off as i64),
                    elem_size: 1,
                },
            )
        };
        self.emit(
            Ty::Ptr(pointee),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: base,
            },
        )
    }

    fn read_xmm_scalar(&mut self, x: Xmm, prec: FpPrec) -> Operand {
        let (pe, ty) = scalar_pt(prec);
        let p = self.xmm_ptr(x, pe, 0);
        self.emit(
            ty,
            InstKind::Load {
                ptr: p,
                order: Ordering::NotAtomic,
            },
        )
    }

    fn write_xmm_scalar(&mut self, x: Xmm, prec: FpPrec, v: Operand) {
        let (pe, _) = scalar_pt(prec);
        let p = self.xmm_ptr(x, pe, 0);
        self.emit_void(InstKind::Store {
            ptr: p,
            val: v,
            order: Ordering::NotAtomic,
        });
    }

    /// Zeroes bytes `from..16` of an XMM slot (movss/movsd load semantics).
    fn zero_xmm_upper(&mut self, x: Xmm, from: u64) {
        if from < 8 {
            let p = self.xmm_ptr(x, Pointee::I32, from);
            self.emit_void(InstKind::Store {
                ptr: p,
                val: Operand::i32(0),
                order: Ordering::NotAtomic,
            });
        }
        let p = self.xmm_ptr(x, Pointee::I64, 8);
        self.emit_void(InstKind::Store {
            ptr: p,
            val: Operand::i64(0),
            order: Ordering::NotAtomic,
        });
    }

    fn read_xmm_vec(&mut self, x: Xmm) -> Operand {
        let p = self.xmm_ptr(x, Pointee::V128, 0);
        self.emit(
            Ty::V2F64,
            InstKind::Load {
                ptr: p,
                order: Ordering::NotAtomic,
            },
        )
    }

    fn write_xmm_vec(&mut self, x: Xmm, v: Operand) {
        let p = self.xmm_ptr(x, Pointee::V128, 0);
        self.emit_void(InstKind::Store {
            ptr: p,
            val: v,
            order: Ordering::NotAtomic,
        });
    }

    fn read_xmmrm_scalar(&mut self, rm: &XmmRm, prec: FpPrec) -> Operand {
        match rm {
            XmmRm::Reg(x) => self.read_xmm_scalar(*x, prec),
            XmmRm::Mem(m) => {
                let (pe, ty) = scalar_pt(prec);
                let p = self.mem_ptr(m, pe);
                self.emit(
                    ty,
                    InstKind::Load {
                        ptr: p,
                        order: Ordering::NotAtomic,
                    },
                )
            }
        }
    }

    fn read_xmmrm_vec(&mut self, rm: &XmmRm) -> Operand {
        match rm {
            XmmRm::Reg(x) => self.read_xmm_vec(*x),
            XmmRm::Mem(m) => {
                let p = self.mem_ptr(m, Pointee::V128);
                self.emit(
                    Ty::V2F64,
                    InstKind::Load {
                        ptr: p,
                        order: Ordering::NotAtomic,
                    },
                )
            }
        }
    }
}

fn scalar_pt(prec: FpPrec) -> (Pointee, Ty) {
    match prec {
        FpPrec::Single => (Pointee::F32, Ty::F32),
        FpPrec::Double => (Pointee::F64, Ty::F64),
    }
}

fn sse_binop(op: SseOp) -> BinOp {
    match op {
        SseOp::Add => BinOp::FAdd,
        SseOp::Sub => BinOp::FSub,
        SseOp::Mul => BinOp::FMul,
        SseOp::Div => BinOp::FDiv,
        SseOp::Min => BinOp::FMin,
        SseOp::Max => BinOp::FMax,
        SseOp::Sqrt => BinOp::FAdd, // handled separately
    }
}

/// Translates one function.
///
/// `sqrt_extern` must be the module's declaration for `sqrt`, used to lift
/// `sqrtsd` (LIR has no sqrt instruction, matching how mctoll lowers it to
/// a libm call).
///
/// # Errors
///
/// Returns a [`TranslateError`] for unsupported instruction shapes or calls
/// to unknown targets.
pub fn translate_function(
    name: &str,
    cfg: &XCfg,
    fty: &FuncType,
    env: &SymbolEnv,
    sqrt_extern: ExternId,
) -> Result<Function, TranslateError> {
    let live_after = analyze_flags(cfg).after;
    Ok(lift_body(name, cfg, fty, env, sqrt_extern, &live_after)?.f)
}

/// Lowers every block of `cfg`, materialising after the `k`-th instruction
/// of block `b` only the flags in `live_after[b][k]`.
fn lift_body<'a>(
    name: &str,
    cfg: &XCfg,
    fty: &FuncType,
    env: &'a SymbolEnv,
    sqrt_extern: ExternId,
    live_after: &[Vec<FlagSet>],
) -> Result<Tr<'a>, TranslateError> {
    let mut f = Function::new(name, fty.params.clone(), fty.ret);

    // One LIR block per machine block, plus the entry preamble (block 0).
    // Machine block `k` is LIR block `k + 1`, and its successors are the
    // LIR terminator's, in the same order.
    let mut block_map: BTreeMap<u64, BlockId> = BTreeMap::new();
    for b in &cfg.blocks {
        block_map.insert(b.start, f.add_block());
    }
    let mut edges = vec![(BlockId(0), block_map[&cfg.entry])];
    for (k, b) in cfg.blocks.iter().enumerate() {
        let from = BlockId(k as u32 + 1);
        edges.extend(b.succs.iter().map(|s| (from, block_map[s])));
    }
    let mut var_tys = vec![Ty::I64; 16];
    var_tys.extend([Ty::I1; 5]);
    let ssa = SsaBuilder::new(var_tys, cfg.blocks.len() + 1, &edges);

    let mut tr = Tr {
        f,
        env,
        cur: BlockId(0),
        ssa,
        xmm_slot: [None; 16],
        sqrt_ext: sqrt_extern,
        written_params: BTreeSet::new(),
        al_const: None,
        live: FlagSet::EMPTY,
        #[cfg(test)]
        flag_io: ([0; 5], [0; 5]),
    };

    // ---- preamble: XMM slots + parameters + stack setup ----
    tr.cur = BlockId(0);
    for x in 0..16u8 {
        let id = tr.f.push(BlockId(0), PTR_I8, InstKind::Alloca { size: 16 });
        tr.xmm_slot[x as usize] = Some(id);
    }
    // Reconstructed stack (§4.2.3): an i8 array; RSP starts at its end.
    let stack =
        tr.f.push(BlockId(0), PTR_I8, InstKind::Alloca { size: STACK_SIZE });
    let sp_base = tr.emit(
        Ty::I64,
        InstKind::Cast {
            op: CastOp::PtrToInt,
            val: Operand::Inst(stack),
        },
    );
    let sp_top = tr.emit(
        Ty::I64,
        InstKind::Bin {
            op: BinOp::Add,
            lhs: sp_base,
            rhs: Operand::i64(STACK_SIZE as i64),
        },
    );
    tr.ssa.write(BlockId(0), gpr_var(Gpr::Rsp), sp_top);

    // Parameters into their conventional registers.
    let mut int_idx = 0usize;
    let mut sse_idx = 0usize;
    for (pi, pty) in fty.params.iter().enumerate() {
        if pty.is_float() || pty.is_vector() {
            let x = Xmm::PARAMS[sse_idx];
            sse_idx += 1;
            match pty {
                Ty::F32 => tr.write_xmm_scalar(x, FpPrec::Single, Operand::Param(pi as u32)),
                Ty::F64 => tr.write_xmm_scalar(x, FpPrec::Double, Operand::Param(pi as u32)),
                _ => tr.write_xmm_vec(x, Operand::Param(pi as u32)),
            }
        } else {
            let r = Gpr::PARAMS[int_idx];
            int_idx += 1;
            tr.ssa
                .write(BlockId(0), gpr_var(r), Operand::Param(pi as u32));
            tr.written_params.insert(r);
        }
    }
    let entry_block = block_map[&cfg.entry];
    tr.f.set_term(BlockId(0), Terminator::Br { dest: entry_block });
    tr.ssa.fill(&mut tr.f, BlockId(0));

    // ---- translate each machine block ----
    for (xb, live_after) in cfg.blocks.iter().zip(live_after) {
        tr.cur = block_map[&xb.start];
        tr.al_const = None;
        let mut terminated = false;
        for (d, live) in xb.insts.iter().zip(live_after) {
            tr.live = *live;
            if d.inst.is_terminator() {
                let term = tr.lower_terminator(&d.inst, xb, &block_map)?;
                let cur = tr.cur;
                tr.f.set_term(cur, term);
                terminated = true;
                break;
            }
            tr.lower(d.addr, &d.inst)?;
        }
        if !terminated {
            // Fallthrough.
            let next = xb.succs.first().copied().ok_or_else(|| {
                TranslateError::Unsupported(format!("block at {:#x} has no terminator", xb.start))
            })?;
            let cur = tr.cur;
            tr.f.set_term(
                cur,
                Terminator::Br {
                    dest: block_map[&next],
                },
            );
        }
        tr.ssa.fill(&mut tr.f, tr.cur);
    }
    tr.ssa.finish(&mut tr.f);
    Ok(tr)
}

impl Tr<'_> {
    fn lower_terminator(
        &mut self,
        inst: &Inst,
        _xb: &crate::xcfg::XBlock,
        block_map: &BTreeMap<u64, BlockId>,
    ) -> Result<Terminator, TranslateError> {
        Ok(match inst {
            Inst::Jmp {
                target: Target::Abs(t),
            } => {
                if let Some(dest) = block_map.get(t) {
                    Terminator::Br { dest: *dest }
                } else {
                    // Tail call: call the target, forward its return value.
                    self.lower_call(0, &Target::Abs(*t))?;
                    let val = match self.f.ret {
                        Ty::Void => None,
                        Ty::F64 => Some(self.read_xmm_scalar(Xmm(0), FpPrec::Double)),
                        Ty::F32 => Some(self.read_xmm_scalar(Xmm(0), FpPrec::Single)),
                        _ => Some(self.read_gpr64(Gpr::Rax)),
                    };
                    Terminator::Ret { val }
                }
            }
            Inst::Jcc {
                cc,
                target: Target::Abs(t),
            } => {
                let cond = self.cond_value(*cc);
                let next = _xb.succs.get(1).copied().ok_or_else(|| {
                    TranslateError::Unsupported("jcc with no fallthrough".to_string())
                })?;
                Terminator::CondBr {
                    cond,
                    if_true: block_map[t],
                    if_false: block_map[&next],
                }
            }
            Inst::Ret => {
                let val = match self.f.ret {
                    Ty::Void => None,
                    Ty::F64 => Some(self.read_xmm_scalar(Xmm(0), FpPrec::Double)),
                    Ty::F32 => Some(self.read_xmm_scalar(Xmm(0), FpPrec::Single)),
                    _ => Some(self.read_gpr64(Gpr::Rax)),
                };
                Terminator::Ret { val }
            }
            Inst::Ud2 => Terminator::Unreachable,
            Inst::Jmp {
                target: Target::Indirect(_),
            } => {
                return Err(TranslateError::Unsupported(
                    "indirect jump (jump tables not supported)".to_string(),
                ))
            }
            other => return Err(TranslateError::Unsupported(format!("terminator {other}"))),
        })
    }

    #[allow(clippy::too_many_lines)]
    fn lower(&mut self, addr: u64, inst: &Inst) -> Result<(), TranslateError> {
        match inst {
            Inst::Nop => {}
            Inst::MovRRm { w, dst, src } => {
                let v = self.read_rm(src, *w);
                self.write_gpr(*dst, *w, v);
                self.track_al(*dst, *w, None);
            }
            Inst::MovRmR { w, dst, src } => {
                let v = self.read_gpr(*src, *w);
                self.write_rm(dst, *w, v);
            }
            Inst::MovRmI { w, dst, imm } => {
                self.write_rm(dst, *w, cint(*w, i64::from(*imm)));
                if let Rm::Reg(r) = dst {
                    self.track_al(*r, *w, Some(*imm));
                }
            }
            Inst::MovAbs { dst, imm } => {
                // An absolute 64-bit immediate may be a code or data address.
                let v = if self.env.funcs.contains_key(imm) || self.env.global_at(*imm).is_some() {
                    self.symbol_value(*imm)
                } else {
                    Operand::i64(*imm as i64)
                };
                self.write_gpr(*dst, Width::W64, v);
            }
            Inst::MovZx { dw, sw, dst, src } => {
                let v = self.read_rm(src, *sw);
                let z = self.emit(
                    width_ty(*dw),
                    InstKind::Cast {
                        op: CastOp::ZExt,
                        val: v,
                    },
                );
                self.write_gpr(*dst, *dw, z);
            }
            Inst::MovSx { dw, sw, dst, src } => {
                let v = self.read_rm(src, *sw);
                let z = self.emit(
                    width_ty(*dw),
                    InstKind::Cast {
                        op: CastOp::SExt,
                        val: v,
                    },
                );
                self.write_gpr(*dst, *dw, z);
            }
            Inst::Lea { w, dst, addr: m } => {
                let a = self.addr_value(m);
                let v = if *w == Width::W64 {
                    a
                } else {
                    self.emit(
                        width_ty(*w),
                        InstKind::Cast {
                            op: CastOp::Trunc,
                            val: a,
                        },
                    )
                };
                self.write_gpr(*dst, *w, v);
            }
            Inst::AluRRm { op, w, dst, src } => {
                let a = self.read_gpr(*dst, *w);
                let b = self.read_rm(src, *w);
                let res = self.alu(*op, *w, a, b);
                if op.writes_dst() {
                    self.write_gpr(*dst, *w, res);
                }
            }
            Inst::AluRmR { op, w, dst, src } => {
                let a = self.read_rm(dst, *w);
                let b = self.read_gpr(*src, *w);
                let res = self.alu(*op, *w, a, b);
                if op.writes_dst() {
                    self.write_rm(dst, *w, res);
                }
            }
            Inst::AluRmI { op, w, dst, imm } => {
                let a = self.read_rm(dst, *w);
                let b = cint(*w, i64::from(*imm));
                let res = self.alu(*op, *w, a, b);
                if op.writes_dst() {
                    self.write_rm(dst, *w, res);
                }
            }
            Inst::Test { w, a, b } => {
                let x = self.read_rm(a, *w);
                let y = self.read_gpr(*b, *w);
                let r = self.emit(
                    width_ty(*w),
                    InstKind::Bin {
                        op: BinOp::And,
                        lhs: x,
                        rhs: y,
                    },
                );
                self.set_flags_logic(r, *w);
            }
            Inst::TestI { w, a, imm } => {
                let x = self.read_rm(a, *w);
                let r = self.emit(
                    width_ty(*w),
                    InstKind::Bin {
                        op: BinOp::And,
                        lhs: x,
                        rhs: cint(*w, i64::from(*imm)),
                    },
                );
                self.set_flags_logic(r, *w);
            }
            Inst::ShiftI { op, w, dst, imm } => {
                let a = self.read_rm(dst, *w);
                let res = self.shift(*op, *w, a, cint(*w, i64::from(*imm)));
                self.write_rm(dst, *w, res);
            }
            Inst::ShiftCl { op, w, dst } => {
                let a = self.read_rm(dst, *w);
                let cl = self.read_gpr(Gpr::Rcx, Width::W8);
                let amt = if *w == Width::W8 {
                    cl
                } else {
                    self.emit(
                        width_ty(*w),
                        InstKind::Cast {
                            op: CastOp::ZExt,
                            val: cl,
                        },
                    )
                };
                let res = self.shift(*op, *w, a, amt);
                self.write_rm(dst, *w, res);
            }
            Inst::IMul2 { w, dst, src } => {
                let a = self.read_gpr(*dst, *w);
                let b = self.read_rm(src, *w);
                let res = self.emit(
                    width_ty(*w),
                    InstKind::Bin {
                        op: BinOp::Mul,
                        lhs: a,
                        rhs: b,
                    },
                );
                // CF/OF approximated as cleared; imul sets them only on overflow.
                self.write_flag_const(Flag::Cf, false);
                self.write_flag_const(Flag::Of, false);
                self.write_gpr(*dst, *w, res);
            }
            Inst::IMul3 { w, dst, src, imm } => {
                let b = self.read_rm(src, *w);
                let res = self.emit(
                    width_ty(*w),
                    InstKind::Bin {
                        op: BinOp::Mul,
                        lhs: b,
                        rhs: cint(*w, i64::from(*imm)),
                    },
                );
                self.write_flag_const(Flag::Cf, false);
                self.write_flag_const(Flag::Of, false);
                self.write_gpr(*dst, *w, res);
            }
            Inst::MulDiv { op, w, src } => self.mul_div(*op, *w, src),
            Inst::Cqo { w } => {
                let a = self.read_gpr(Gpr::Rax, *w);
                let sh = cint(*w, i64::from(w.bits()) - 1);
                let sign = self.emit(
                    width_ty(*w),
                    InstKind::Bin {
                        op: BinOp::AShr,
                        lhs: a,
                        rhs: sh,
                    },
                );
                self.write_gpr(Gpr::Rdx, *w, sign);
            }
            Inst::Neg { w, dst } => {
                let a = self.read_rm(dst, *w);
                let res = self.emit(
                    width_ty(*w),
                    InstKind::Bin {
                        op: BinOp::Sub,
                        lhs: cint(*w, 0),
                        rhs: a,
                    },
                );
                self.set_flags_sub(cint(*w, 0), a, res, *w);
                self.write_rm(dst, *w, res);
            }
            Inst::Not { w, dst } => {
                let a = self.read_rm(dst, *w);
                let res = self.emit(
                    width_ty(*w),
                    InstKind::Bin {
                        op: BinOp::Xor,
                        lhs: a,
                        rhs: cint(*w, -1),
                    },
                );
                self.write_rm(dst, *w, res);
            }
            Inst::Push { src } => {
                let sp = self.read_gpr64(Gpr::Rsp);
                let nsp = self.emit(
                    Ty::I64,
                    InstKind::Bin {
                        op: BinOp::Add,
                        lhs: sp,
                        rhs: Operand::i64(-8),
                    },
                );
                self.write_gpr(Gpr::Rsp, Width::W64, nsp);
                let v = self.read_gpr64(*src);
                let p = self.emit(
                    Ty::Ptr(Pointee::I64),
                    InstKind::Cast {
                        op: CastOp::IntToPtr,
                        val: nsp,
                    },
                );
                self.emit_void(InstKind::Store {
                    ptr: p,
                    val: v,
                    order: Ordering::NotAtomic,
                });
            }
            Inst::Pop { dst } => {
                let sp = self.read_gpr64(Gpr::Rsp);
                let p = self.emit(
                    Ty::Ptr(Pointee::I64),
                    InstKind::Cast {
                        op: CastOp::IntToPtr,
                        val: sp,
                    },
                );
                let v = self.emit(
                    Ty::I64,
                    InstKind::Load {
                        ptr: p,
                        order: Ordering::NotAtomic,
                    },
                );
                self.write_gpr(*dst, Width::W64, v);
                let sp2 = self.read_gpr64(Gpr::Rsp);
                let nsp = self.emit(
                    Ty::I64,
                    InstKind::Bin {
                        op: BinOp::Add,
                        lhs: sp2,
                        rhs: Operand::i64(8),
                    },
                );
                self.write_gpr(Gpr::Rsp, Width::W64, nsp);
            }
            Inst::Call { target } => self.lower_call(addr, target)?,
            Inst::Setcc { cc, dst } => {
                let c = self.cond_value(*cc);
                let v = self.emit(
                    Ty::I8,
                    InstKind::Cast {
                        op: CastOp::ZExt,
                        val: c,
                    },
                );
                self.write_rm(dst, Width::W8, v);
            }
            Inst::Cmovcc { cc, w, dst, src } => {
                let c = self.cond_value(*cc);
                let a = self.read_rm(src, *w);
                let b = self.read_gpr(*dst, *w);
                let v = self.emit(
                    width_ty(*w),
                    InstKind::Select {
                        cond: c,
                        if_true: a,
                        if_false: b,
                    },
                );
                self.write_gpr(*dst, *w, v);
            }
            Inst::MovssLoad { prec, dst, src } => {
                let v = self.read_xmmrm_scalar(src, *prec);
                self.write_xmm_scalar(*dst, *prec, v);
                if matches!(src, XmmRm::Mem(_)) {
                    // Load from memory zeroes the rest of the register.
                    self.zero_xmm_upper(*dst, prec.bytes());
                }
            }
            Inst::MovssStore { prec, dst, src } => {
                let v = self.read_xmm_scalar(*src, *prec);
                let (pe, _) = scalar_pt(*prec);
                let p = self.mem_ptr(dst, pe);
                self.emit_void(InstKind::Store {
                    ptr: p,
                    val: v,
                    order: Ordering::NotAtomic,
                });
            }
            Inst::MovapsLoad { dst, src, .. } => {
                let v = self.read_xmmrm_vec(src);
                self.write_xmm_vec(*dst, v);
            }
            Inst::MovapsStore { dst, src, .. } => {
                let v = self.read_xmm_vec(*src);
                let p = self.mem_ptr(dst, Pointee::V128);
                self.emit_void(InstKind::Store {
                    ptr: p,
                    val: v,
                    order: Ordering::NotAtomic,
                });
            }
            Inst::MovXmmToGpr { w, dst, src } => match w {
                Width::W64 => {
                    let v = self.read_xmm_scalar(*src, FpPrec::Double);
                    let b = self.emit(
                        Ty::I64,
                        InstKind::Cast {
                            op: CastOp::BitCast,
                            val: v,
                        },
                    );
                    self.write_gpr(*dst, Width::W64, b);
                }
                _ => {
                    let v = self.read_xmm_scalar(*src, FpPrec::Single);
                    let b = self.emit(
                        Ty::I32,
                        InstKind::Cast {
                            op: CastOp::BitCast,
                            val: v,
                        },
                    );
                    self.write_gpr(*dst, Width::W32, b);
                }
            },
            Inst::MovGprToXmm { w, dst, src } => match w {
                Width::W64 => {
                    let v = self.read_gpr64(*src);
                    let b = self.emit(
                        Ty::F64,
                        InstKind::Cast {
                            op: CastOp::BitCast,
                            val: v,
                        },
                    );
                    self.write_xmm_scalar(*dst, FpPrec::Double, b);
                    self.zero_xmm_upper(*dst, 8);
                }
                _ => {
                    let v = self.read_gpr(*src, Width::W32);
                    let b = self.emit(
                        Ty::F32,
                        InstKind::Cast {
                            op: CastOp::BitCast,
                            val: v,
                        },
                    );
                    self.write_xmm_scalar(*dst, FpPrec::Single, b);
                    self.zero_xmm_upper(*dst, 4);
                }
            },
            Inst::SseScalar {
                op: SseOp::Sqrt,
                prec,
                dst,
                src,
            } => {
                let v = self.read_xmmrm_scalar(src, *prec);
                let arg = if *prec == FpPrec::Single {
                    self.emit(
                        Ty::F64,
                        InstKind::Cast {
                            op: CastOp::FpExt,
                            val: v,
                        },
                    )
                } else {
                    v
                };
                let r = self.emit(
                    Ty::F64,
                    InstKind::Call {
                        callee: Callee::Extern(self.sqrt_extern()),
                        args: vec![arg],
                    },
                );
                let out = if *prec == FpPrec::Single {
                    self.emit(
                        Ty::F32,
                        InstKind::Cast {
                            op: CastOp::FpTrunc,
                            val: r,
                        },
                    )
                } else {
                    r
                };
                self.write_xmm_scalar(*dst, *prec, out);
            }
            Inst::SseScalar { op, prec, dst, src } => {
                let a = self.read_xmm_scalar(*dst, *prec);
                let b = self.read_xmmrm_scalar(src, *prec);
                let (_, ty) = scalar_pt(*prec);
                let r = self.emit(
                    ty,
                    InstKind::Bin {
                        op: sse_binop(*op),
                        lhs: a,
                        rhs: b,
                    },
                );
                self.write_xmm_scalar(*dst, *prec, r);
            }
            Inst::SsePacked { op, dst, src, .. } => {
                if *op == SseOp::Sqrt {
                    return Err(TranslateError::Unsupported("packed sqrt".to_string()));
                }
                let a = self.read_xmm_vec(*dst);
                let b = self.read_xmmrm_vec(src);
                let r = self.emit(
                    Ty::V2F64,
                    InstKind::Bin {
                        op: sse_binop(*op),
                        lhs: a,
                        rhs: b,
                    },
                );
                self.write_xmm_vec(*dst, r);
            }
            Inst::Xorps { dst, src } => {
                if *src == XmmRm::Reg(*dst) {
                    // Zeroing idiom.
                    let p0 = self.xmm_ptr(*dst, Pointee::I64, 0);
                    self.emit_void(InstKind::Store {
                        ptr: p0,
                        val: Operand::i64(0),
                        order: Ordering::NotAtomic,
                    });
                    let p1 = self.xmm_ptr(*dst, Pointee::I64, 8);
                    self.emit_void(InstKind::Store {
                        ptr: p1,
                        val: Operand::i64(0),
                        order: Ordering::NotAtomic,
                    });
                } else {
                    let a = self.read_xmm_vec(*dst);
                    let b = self.read_xmmrm_vec(src);
                    let r = self.emit(
                        Ty::V2F64,
                        InstKind::Bin {
                            op: BinOp::Xor,
                            lhs: a,
                            rhs: b,
                        },
                    );
                    self.write_xmm_vec(*dst, r);
                }
            }
            Inst::Ucomis { prec, a, b } => {
                let x = self.read_xmm_scalar(*a, *prec);
                let y = self.read_xmmrm_scalar(b, *prec);
                let (zf, cf) = (self.is_live(Flag::Zf), self.is_live(Flag::Cf));
                if zf || cf || self.is_live(Flag::Pf) {
                    let fcmp = |tr: &mut Self, pred| {
                        tr.emit(
                            Ty::I1,
                            InstKind::FCmp {
                                pred,
                                lhs: x,
                                rhs: y,
                            },
                        )
                    };
                    let unord = fcmp(self, FPred::Uno);
                    let or = |tr: &mut Self, c| {
                        tr.emit(
                            Ty::I1,
                            InstKind::Bin {
                                op: BinOp::Or,
                                lhs: c,
                                rhs: unord,
                            },
                        )
                    };
                    let oeq = zf.then(|| fcmp(self, FPred::Oeq));
                    let olt = cf.then(|| fcmp(self, FPred::Olt));
                    // ZF = equal or unordered; CF = less or unordered.
                    let zf = oeq.map(|c| or(self, c));
                    let cf = olt.map(|c| or(self, c));
                    if let Some(v) = zf {
                        self.write_flag(Flag::Zf, v);
                    }
                    if let Some(v) = cf {
                        self.write_flag(Flag::Cf, v);
                    }
                    self.write_flag(Flag::Pf, unord);
                }
                self.write_flag_const(Flag::Of, false);
                self.write_flag_const(Flag::Sf, false);
            }
            Inst::CvtSi2F { prec, iw, dst, src } => {
                let v = self.read_rm(src, *iw);
                let (_, ty) = scalar_pt(*prec);
                let r = self.emit(
                    ty,
                    InstKind::Cast {
                        op: CastOp::SiToFp,
                        val: v,
                    },
                );
                self.write_xmm_scalar(*dst, *prec, r);
            }
            Inst::CvtF2Si { prec, iw, dst, src } => {
                let v = self.read_xmmrm_scalar(src, *prec);
                let r = self.emit(
                    width_ty(*iw),
                    InstKind::Cast {
                        op: CastOp::FpToSi,
                        val: v,
                    },
                );
                self.write_gpr(*dst, *iw, r);
            }
            Inst::CvtF2F { to, dst, src } => {
                let (from, op) = match to {
                    FpPrec::Double => (FpPrec::Single, CastOp::FpExt),
                    FpPrec::Single => (FpPrec::Double, CastOp::FpTrunc),
                };
                let v = self.read_xmmrm_scalar(src, from);
                let (_, ty) = scalar_pt(*to);
                let r = self.emit(ty, InstKind::Cast { op, val: v });
                self.write_xmm_scalar(*dst, *to, r);
            }
            Inst::Mfence => {
                self.emit_void(InstKind::Fence {
                    kind: FenceKind::Fsc,
                });
            }
            Inst::LockCmpxchg { w, mem, src } => {
                let expected = self.read_gpr(Gpr::Rax, *w);
                let new = self.read_gpr(*src, *w);
                let p = self.mem_ptr(mem, width_pointee(*w));
                let old = self.emit(
                    width_ty(*w),
                    InstKind::CmpXchg {
                        ptr: p,
                        expected,
                        new,
                    },
                );
                self.write_flag_icmp(Flag::Zf, IPred::Eq, old, expected);
                self.write_gpr(Gpr::Rax, *w, old);
            }
            Inst::LockXadd { w, mem, src } => {
                let v = self.read_gpr(*src, *w);
                let p = self.mem_ptr(mem, width_pointee(*w));
                let old = self.emit(
                    width_ty(*w),
                    InstKind::AtomicRmw {
                        op: RmwOp::Add,
                        ptr: p,
                        val: v,
                    },
                );
                let res = self.emit(
                    width_ty(*w),
                    InstKind::Bin {
                        op: BinOp::Add,
                        lhs: old,
                        rhs: v,
                    },
                );
                self.set_flags_add(old, v, res, *w);
                self.write_gpr(*src, *w, old);
            }
            Inst::LockAddI { w, mem, imm } => {
                let p = self.mem_ptr(mem, width_pointee(*w));
                self.emit(
                    width_ty(*w),
                    InstKind::AtomicRmw {
                        op: RmwOp::Add,
                        ptr: p,
                        val: cint(*w, i64::from(*imm)),
                    },
                );
            }
            Inst::Xchg { w, mem, src } => {
                let v = self.read_gpr(*src, *w);
                let p = self.mem_ptr(mem, width_pointee(*w));
                let old = self.emit(
                    width_ty(*w),
                    InstKind::AtomicRmw {
                        op: RmwOp::Xchg,
                        ptr: p,
                        val: v,
                    },
                );
                self.write_gpr(*src, *w, old);
            }
            Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Ret | Inst::Ud2 => {
                unreachable!("terminators handled by lower_terminator")
            }
        }
        Ok(())
    }

    fn sqrt_extern(&self) -> ExternId {
        self.sqrt_ext
    }

    fn alu(&mut self, op: AluOp, w: Width, a: Operand, b: Operand) -> Operand {
        let ty = width_ty(w);
        match op {
            AluOp::Add => {
                let r = self.emit(
                    ty,
                    InstKind::Bin {
                        op: BinOp::Add,
                        lhs: a,
                        rhs: b,
                    },
                );
                self.set_flags_add(a, b, r, w);
                r
            }
            AluOp::Sub | AluOp::Cmp => {
                let r = self.emit(
                    ty,
                    InstKind::Bin {
                        op: BinOp::Sub,
                        lhs: a,
                        rhs: b,
                    },
                );
                self.set_flags_sub(a, b, r, w);
                r
            }
            AluOp::And => {
                let r = self.emit(
                    ty,
                    InstKind::Bin {
                        op: BinOp::And,
                        lhs: a,
                        rhs: b,
                    },
                );
                self.set_flags_logic(r, w);
                r
            }
            AluOp::Or => {
                let r = self.emit(
                    ty,
                    InstKind::Bin {
                        op: BinOp::Or,
                        lhs: a,
                        rhs: b,
                    },
                );
                self.set_flags_logic(r, w);
                r
            }
            AluOp::Xor => {
                let r = self.emit(
                    ty,
                    InstKind::Bin {
                        op: BinOp::Xor,
                        lhs: a,
                        rhs: b,
                    },
                );
                self.set_flags_logic(r, w);
                r
            }
            AluOp::Adc => {
                let c = self.read_flag(Flag::Cf);
                let cw = self.emit(
                    ty,
                    InstKind::Cast {
                        op: CastOp::ZExt,
                        val: c,
                    },
                );
                let ab = self.emit(
                    ty,
                    InstKind::Bin {
                        op: BinOp::Add,
                        lhs: a,
                        rhs: b,
                    },
                );
                let r = self.emit(
                    ty,
                    InstKind::Bin {
                        op: BinOp::Add,
                        lhs: ab,
                        rhs: cw,
                    },
                );
                self.set_flags_add(a, b, r, w);
                r
            }
            AluOp::Sbb => {
                let c = self.read_flag(Flag::Cf);
                let cw = self.emit(
                    ty,
                    InstKind::Cast {
                        op: CastOp::ZExt,
                        val: c,
                    },
                );
                let ab = self.emit(
                    ty,
                    InstKind::Bin {
                        op: BinOp::Sub,
                        lhs: a,
                        rhs: b,
                    },
                );
                let r = self.emit(
                    ty,
                    InstKind::Bin {
                        op: BinOp::Sub,
                        lhs: ab,
                        rhs: cw,
                    },
                );
                self.set_flags_sub(a, b, r, w);
                r
            }
        }
    }

    fn shift(&mut self, op: ShiftOp, w: Width, a: Operand, amt: Operand) -> Operand {
        let ty = width_ty(w);
        let bin = match op {
            ShiftOp::Shl => BinOp::Shl,
            ShiftOp::Shr => BinOp::LShr,
            ShiftOp::Sar => BinOp::AShr,
        };
        let r = self.emit(
            ty,
            InstKind::Bin {
                op: bin,
                lhs: a,
                rhs: amt,
            },
        );
        // CF/OF after shifts are rarely consumed; ZF/SF/PF modelled exactly.
        self.write_flag_const(Flag::Cf, false);
        self.write_flag_const(Flag::Of, false);
        self.set_zsp(r, w);
        r
    }

    fn mul_div(&mut self, op: MulDivOp, w: Width, src: &Rm) {
        let b = self.read_rm(src, w);
        let a = self.read_gpr(Gpr::Rax, w);
        match op {
            MulDivOp::Mul | MulDivOp::IMul => {
                let lo = self.emit(
                    width_ty(w),
                    InstKind::Bin {
                        op: BinOp::Mul,
                        lhs: a,
                        rhs: b,
                    },
                );
                self.write_gpr(Gpr::Rax, w, lo);
                if w == Width::W32 {
                    // Exact high half via 64-bit widening.
                    let (ca, cb) = if op == MulDivOp::IMul {
                        (
                            self.emit(
                                Ty::I64,
                                InstKind::Cast {
                                    op: CastOp::SExt,
                                    val: a,
                                },
                            ),
                            self.emit(
                                Ty::I64,
                                InstKind::Cast {
                                    op: CastOp::SExt,
                                    val: b,
                                },
                            ),
                        )
                    } else {
                        (
                            self.emit(
                                Ty::I64,
                                InstKind::Cast {
                                    op: CastOp::ZExt,
                                    val: a,
                                },
                            ),
                            self.emit(
                                Ty::I64,
                                InstKind::Cast {
                                    op: CastOp::ZExt,
                                    val: b,
                                },
                            ),
                        )
                    };
                    let wide = self.emit(
                        Ty::I64,
                        InstKind::Bin {
                            op: BinOp::Mul,
                            lhs: ca,
                            rhs: cb,
                        },
                    );
                    let hi64 = self.emit(
                        Ty::I64,
                        InstKind::Bin {
                            op: BinOp::LShr,
                            lhs: wide,
                            rhs: Operand::i64(32),
                        },
                    );
                    let hi = self.emit(
                        Ty::I32,
                        InstKind::Cast {
                            op: CastOp::Trunc,
                            val: hi64,
                        },
                    );
                    self.write_gpr(Gpr::Rdx, w, hi);
                } else {
                    // 64-bit high half unavailable without i128; the Phoenix
                    // programs never consume RDX after a 64-bit multiply.
                    self.write_gpr(Gpr::Rdx, w, cint(w, 0));
                }
            }
            MulDivOp::Div => {
                let q = self.emit(
                    width_ty(w),
                    InstKind::Bin {
                        op: BinOp::UDiv,
                        lhs: a,
                        rhs: b,
                    },
                );
                let r = self.emit(
                    width_ty(w),
                    InstKind::Bin {
                        op: BinOp::URem,
                        lhs: a,
                        rhs: b,
                    },
                );
                self.write_gpr(Gpr::Rax, w, q);
                self.write_gpr(Gpr::Rdx, w, r);
            }
            MulDivOp::IDiv => {
                let q = self.emit(
                    width_ty(w),
                    InstKind::Bin {
                        op: BinOp::SDiv,
                        lhs: a,
                        rhs: b,
                    },
                );
                let r = self.emit(
                    width_ty(w),
                    InstKind::Bin {
                        op: BinOp::SRem,
                        lhs: a,
                        rhs: b,
                    },
                );
                self.write_gpr(Gpr::Rax, w, q);
                self.write_gpr(Gpr::Rdx, w, r);
            }
        }
    }

    fn track_al(&mut self, dst: Gpr, w: Width, imm: Option<i32>) {
        if dst == Gpr::Rax && (w == Width::W8 || w == Width::W32) {
            self.al_const = imm.and_then(|v| u8::try_from(v).ok());
        }
    }

    fn lower_call(&mut self, at: u64, target: &Target) -> Result<(), TranslateError> {
        let t = match target {
            Target::Abs(t) => *t,
            Target::Indirect(r) => {
                // Indirect call: all argument registers written so far are
                // passed as i64 (conservative; §4.2.1).
                let fv = self.read_gpr64(*r);
                let fp = self.emit(
                    PTR_I8,
                    InstKind::Cast {
                        op: CastOp::IntToPtr,
                        val: fv,
                    },
                );
                let mut args = Vec::new();
                for reg in Gpr::PARAMS {
                    if self.written_params.contains(&reg) {
                        args.push(self.read_gpr64(reg));
                    } else {
                        break;
                    }
                }
                let r = self.emit(
                    Ty::I64,
                    InstKind::Call {
                        callee: Callee::Indirect(fp),
                        args,
                    },
                );
                self.write_gpr(Gpr::Rax, Width::W64, r);
                return Ok(());
            }
        };
        if let Some((fid, fty)) = self.env.funcs.get(&t).cloned() {
            let args = self.gather_args(&fty, false);
            let call = self.emit_call_result(fty.ret, Callee::Func(fid), args);
            self.store_return(fty.ret, call);
            return Ok(());
        }
        if let Some((eid, fty, variadic)) = self.env.externs.get(&t).cloned() {
            let args = self.gather_args(&fty, variadic);
            let call = self.emit_call_result(fty.ret, Callee::Extern(eid), args);
            self.store_return(fty.ret, call);
            return Ok(());
        }
        Err(TranslateError::UnknownCallTarget { at, target: t })
    }

    fn emit_call_result(&mut self, ret: Ty, callee: Callee, args: Vec<Operand>) -> Option<Operand> {
        if ret == Ty::Void {
            self.emit_void(InstKind::Call { callee, args });
            None
        } else {
            Some(self.emit(ret, InstKind::Call { callee, args }))
        }
    }

    fn store_return(&mut self, ret: Ty, val: Option<Operand>) {
        match (ret, val) {
            (Ty::Void, _) => {}
            (Ty::Ptr(_), Some(v)) => {
                // Returned pointers (e.g. from malloc) live in RAX as raw
                // integers at the machine level.
                let raw = self.emit(
                    Ty::I64,
                    InstKind::Cast {
                        op: CastOp::PtrToInt,
                        val: v,
                    },
                );
                self.write_gpr(Gpr::Rax, Width::W64, raw);
            }
            (Ty::F64, Some(v)) => {
                self.write_xmm_scalar(Xmm(0), FpPrec::Double, v);
                self.zero_xmm_upper(Xmm(0), 8);
            }
            (Ty::F32, Some(v)) => {
                self.write_xmm_scalar(Xmm(0), FpPrec::Single, v);
                self.zero_xmm_upper(Xmm(0), 4);
            }
            (Ty::I32, Some(v)) => self.write_gpr(Gpr::Rax, Width::W32, v),
            (Ty::I16, Some(v)) => self.write_gpr(Gpr::Rax, Width::W16, v),
            (Ty::I8, Some(v)) => self.write_gpr(Gpr::Rax, Width::W8, v),
            (_, Some(v)) => self.write_gpr(Gpr::Rax, Width::W64, v),
            _ => {}
        }
    }

    /// Collects call arguments per the System-V convention and the callee's
    /// signature; for variadic callees extra integer registers written so
    /// far and `AL`-counted SSE registers are appended (§4.2.1).
    fn gather_args(&mut self, fty: &FuncType, variadic: bool) -> Vec<Operand> {
        let mut args = Vec::new();
        let mut int_idx = 0usize;
        let mut sse_idx = 0usize;
        for pty in &fty.params {
            if pty.is_float() || pty.is_vector() {
                let x = Xmm::PARAMS[sse_idx];
                sse_idx += 1;
                let prec = if *pty == Ty::F32 {
                    FpPrec::Single
                } else {
                    FpPrec::Double
                };
                args.push(self.read_xmm_scalar(x, prec));
            } else {
                let r = Gpr::PARAMS[int_idx];
                int_idx += 1;
                args.push(self.read_gpr64(r));
            }
        }
        if variadic {
            for r in Gpr::PARAMS.iter().skip(int_idx) {
                if self.written_params.contains(r) {
                    args.push(self.read_gpr64(*r));
                } else {
                    break;
                }
            }
            let n_sse = usize::from(self.al_const.unwrap_or(0));
            for x in Xmm::PARAMS.iter().take(n_sse) {
                args.push(self.read_xmm_scalar(*x, FpPrec::Double));
            }
        }
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::{flag_reads, flag_writes};
    use crate::xcfg::build_xcfg;
    use lasagne_x86::asm::Asm;

    /// Every flag-touching instruction form: all ALU ops in all three
    /// operand shapes, tests, shifts, multiplies, the atomics, `ucomis`,
    /// the flag-transparent near misses (`not`, `mul`/`div`, `lock add`),
    /// and `setcc`/`cmovcc`/`jcc` under every condition.
    fn flag_forms() -> Vec<Inst> {
        let w = Width::W64;
        let mem = MemRef::base_disp(Gpr::Rdi, 8);
        let mut v = Vec::new();
        for op in [
            AluOp::Add,
            AluOp::Or,
            AluOp::Adc,
            AluOp::Sbb,
            AluOp::And,
            AluOp::Sub,
            AluOp::Xor,
            AluOp::Cmp,
        ] {
            v.push(Inst::AluRRm {
                op,
                w,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rcx),
            });
            v.push(Inst::AluRmR {
                op,
                w: Width::W32,
                dst: Rm::Mem(mem),
                src: Gpr::Rdx,
            });
            v.push(Inst::AluRmI {
                op,
                w: Width::W8,
                dst: Rm::Reg(Gpr::Rsi),
                imm: 3,
            });
        }
        v.push(Inst::Test {
            w,
            a: Rm::Reg(Gpr::Rax),
            b: Gpr::Rcx,
        });
        v.push(Inst::TestI {
            w: Width::W16,
            a: Rm::Mem(mem),
            imm: 5,
        });
        for op in [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar] {
            v.push(Inst::ShiftI {
                op,
                w,
                dst: Rm::Reg(Gpr::Rax),
                imm: 3,
            });
            v.push(Inst::ShiftCl {
                op,
                w: Width::W32,
                dst: Rm::Reg(Gpr::Rdx),
            });
        }
        v.push(Inst::Neg {
            w,
            dst: Rm::Reg(Gpr::Rax),
        });
        v.push(Inst::Not {
            w,
            dst: Rm::Reg(Gpr::Rax),
        });
        v.push(Inst::IMul2 {
            w,
            dst: Gpr::Rax,
            src: Rm::Reg(Gpr::Rcx),
        });
        v.push(Inst::IMul3 {
            w: Width::W32,
            dst: Gpr::Rax,
            src: Rm::Mem(mem),
            imm: 9,
        });
        for op in [MulDivOp::Mul, MulDivOp::IMul, MulDivOp::Div, MulDivOp::IDiv] {
            v.push(Inst::MulDiv {
                op,
                w,
                src: Rm::Reg(Gpr::Rcx),
            });
        }
        for prec in [FpPrec::Single, FpPrec::Double] {
            v.push(Inst::Ucomis {
                prec,
                a: Xmm(0),
                b: XmmRm::Reg(Xmm(1)),
            });
        }
        v.push(Inst::LockCmpxchg {
            w,
            mem,
            src: Gpr::Rcx,
        });
        v.push(Inst::LockXadd {
            w,
            mem,
            src: Gpr::Rcx,
        });
        v.push(Inst::LockAddI { w, mem, imm: 1 });
        for cc in Cond::ALL {
            v.push(Inst::Setcc {
                cc,
                dst: Rm::Reg(Gpr::Rax),
            });
            v.push(Inst::Cmovcc {
                cc,
                w,
                dst: Gpr::Rax,
                src: Rm::Reg(Gpr::Rcx),
            });
            v.push(Inst::Jcc {
                cc,
                target: Target::Abs(0),
            });
        }
        v
    }

    fn flag_counts(s: FlagSet) -> [u32; 5] {
        Flag::ALL.map(|f| u32::from(s.contains(f)))
    }

    /// With every flag live, lowering `inst` reads and writes each flag
    /// exactly as often as the liveness table says it does: once if the
    /// table lists it, never otherwise. A table entry the lowering
    /// disagrees with would make the analysis drop a live flag's write.
    #[test]
    fn flag_table_matches_lowering() {
        let env = SymbolEnv::default();
        let fty = FuncType {
            params: Vec::new(),
            ret: Ty::Void,
        };
        for inst in flag_forms() {
            let mut a = Asm::new();
            if let Inst::Jcc { cc, .. } = inst {
                let next = a.label();
                a.jcc(cc, next);
                a.bind(next);
            } else {
                a.push(inst);
            }
            a.push(Inst::Ret);
            let cfg = build_xcfg(&a.finish(0).unwrap(), 0, |_| false).unwrap();
            let all_live: Vec<Vec<FlagSet>> = cfg
                .blocks
                .iter()
                .map(|b| vec![FlagSet::ALL; b.insts.len()])
                .collect();
            let tr = lift_body("f", &cfg, &fty, &env, ExternId(0), &all_live).unwrap();
            let (reads, writes) = tr.flag_io;
            assert_eq!(reads, flag_counts(flag_reads(&inst)), "reads of {inst}");
            assert_eq!(writes, flag_counts(flag_writes(&inst)), "writes of {inst}");
        }
    }

    /// The analysis drives the lowering: after a `cmp` whose only reader
    /// is `jl`, only SF and OF are stored, and the parity chain is gone.
    #[test]
    fn dead_flags_are_not_materialised() {
        let mut a = Asm::new();
        let done = a.label();
        a.push(Inst::AluRRm {
            op: AluOp::Cmp,
            w: Width::W64,
            dst: Gpr::Rdi,
            src: Rm::Reg(Gpr::Rsi),
        });
        a.jcc(Cond::L, done);
        a.bind(done);
        a.push(Inst::Ret);
        let cfg = build_xcfg(&a.finish(0).unwrap(), 0, |_| false).unwrap();
        let fty = FuncType {
            params: vec![Ty::I64, Ty::I64],
            ret: Ty::Void,
        };
        let env = SymbolEnv::default();
        let live = crate::liveness::analyze_flags(&cfg).after;
        let tr = lift_body("f", &cfg, &fty, &env, ExternId(0), &live).unwrap();
        assert_eq!(tr.flag_io.1, [0, 0, 0, 1, 1]);
        let lshrs =
            tr.f.iter_insts()
                .filter(|(_, i)| {
                    matches!(
                        tr.f.inst(*i).kind,
                        InstKind::Bin {
                            op: BinOp::LShr,
                            ..
                        }
                    )
                })
                .count();
        assert_eq!(lshrs, 0, "dead PF still computed");
    }
}
