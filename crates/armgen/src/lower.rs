//! LIR → AArch64 lowering, implementing the IR→Arm mapping of Figure 8b:
//!
//! * `ld_na ⇒ ldr`, `st_na ⇒ str` (plain accesses);
//! * `Frm ⇒ dmb ishld`, `Fww ⇒ dmb ishst`, `Fsc ⇒ dmb ish`;
//! * `RMWsc ⇒ dmb ish ; (ldxr/stxr loop) ; dmb ish` — the §2.1 ll/sc
//!   expansion with leading and trailing full barriers.
//!
//! The lowering itself is a straightforward frame-based (-O0 style)
//! backend: every LIR value lives in a stack slot, operands are loaded
//! into scratch registers (`x9`–`x15`, `d8`–`d15`) and results stored
//! back. φ-nodes get shadow slots written by predecessors.

use crate::inst::{
    ABlock, ACallee, AFunc, AInst, AMem, AModule, ARet, ATerm, AluOp as AAlu, Blk, Cc, Dmb, FpOp,
    Sz, D, X,
};
use lasagne_lir::func::{Function, Module};
use lasagne_lir::inst::{
    BinOp, Callee, CastOp, FPred, FenceKind, IPred, InstId, InstKind, Operand, RmwOp, Terminator,
};
use lasagne_lir::types::Ty;

/// Frame base register (x29, the platform frame pointer).
const FP: X = X(29);
/// Scratch integer registers.
const S0: X = X(9);
const S1: X = X(10);
const S2: X = X(11);
const S3: X = X(12);
/// Scratch FP registers.
const F0: D = D(8);
const F1: D = D(9);

/// Lowers a whole LIR module and cleans the result with the
/// [frame-slot peephole](crate::peephole) (store-to-load forwarding and
/// dead-store elimination on private slots).
pub fn lower_module(m: &Module) -> AModule {
    let mut am = lower_module_raw(m);
    let _ = crate::peephole::peephole_module(&mut am);
    am
}

/// Lowers a whole LIR module with no machine-level cleanup — every LIR
/// value round-trips through its frame slot. Used by the ablation bench to
/// quantify what the peephole buys.
pub fn lower_module_raw(m: &Module) -> AModule {
    let funcs = m.funcs.iter().map(|f| lower_function(m, f)).collect();
    assemble_module(m, funcs)
}

/// Assembles an [`AModule`] from per-function lowering results, carrying
/// the extern and global tables over from the LIR module. `funcs` must be
/// in `m.funcs` order.
///
/// This is the deterministic merge step of the parallel pipeline driver:
/// [`lower_function`] takes the module immutably and writes nothing shared,
/// so distinct functions may be lowered on worker threads and the results
/// stitched together here, byte-identical to [`lower_module_raw`].
pub fn assemble_module(m: &Module, funcs: Vec<AFunc>) -> AModule {
    AModule {
        funcs,
        externs: m.externs.iter().map(|e| e.name.clone()).collect(),
        globals: m
            .globals
            .iter()
            .map(|g| (g.name.clone(), g.addr, g.size, g.init.clone()))
            .collect(),
    }
}

/// "No slot" in a per-instruction offset table (frame offsets are
/// non-negative).
const NO_SLOT: i32 = -1;

struct Lower<'a> {
    m: &'a Module,
    f: &'a Function,
    blocks: Vec<ABlock>,
    cur: usize,
    /// Value slot byte offset, indexed by instruction id.
    slot: Vec<i32>,
    /// Shadow slot offset, indexed by φ id.
    shadow: Vec<i32>,
    /// Param slot offsets.
    param_slot: Vec<i32>,
    /// Alloca base offset, indexed by alloca id.
    alloca_off: Vec<i32>,
    frame_size: i64,
    /// LIR block → A block index.
    block_map: Vec<u32>,
}

fn ty_sz(ty: Ty) -> Sz {
    match ty {
        Ty::I1 | Ty::I8 => Sz::B,
        Ty::I16 => Sz::H,
        Ty::I32 | Ty::F32 => Sz::W,
        Ty::V2F64 | Ty::V4F32 | Ty::V2I64 | Ty::V4I32 => Sz::Q,
        _ => Sz::X,
    }
}

fn int_bits(ty: Ty) -> u32 {
    ty.int_bits().unwrap_or(64)
}

/// The Arm floating-point operation of a float (or float-vector) `op`.
fn fp_op(op: BinOp) -> Option<FpOp> {
    Some(match op {
        BinOp::FAdd => FpOp::FAdd,
        BinOp::FSub => FpOp::FSub,
        BinOp::FMul => FpOp::FMul,
        BinOp::FDiv => FpOp::FDiv,
        BinOp::FMin => FpOp::FMin,
        BinOp::FMax => FpOp::FMax,
        _ => return None,
    })
}

/// The offset `table` assigns to `id`; every lookup is of an id the slot
/// assignment gave one.
fn off_of(table: &[i32], id: InstId) -> i32 {
    let off = table[id.0 as usize];
    assert!(off != NO_SLOT, "%{} has no frame slot", id.0);
    off
}

/// Lowers one function.
pub fn lower_function(m: &Module, f: &Function) -> AFunc {
    let mut lw = Lower {
        m,
        f,
        blocks: Vec::new(),
        cur: 0,
        slot: vec![NO_SLOT; f.insts.len()],
        shadow: vec![NO_SLOT; f.insts.len()],
        param_slot: Vec::new(),
        alloca_off: vec![NO_SLOT; f.insts.len()],
        frame_size: 0,
        block_map: Vec::new(),
    };

    // Assign slots: params, then instruction results, then φ shadows, then
    // alloca storage.
    let mut off: i64 = 0;
    for _ in &f.params {
        lw.param_slot.push(off as i32);
        off += 16;
    }
    for (_, id) in f.iter_insts() {
        let inst = f.inst(id);
        if inst.ty != Ty::Void {
            lw.slot[id.0 as usize] = off as i32;
            off += 16;
        }
        if matches!(inst.kind, InstKind::Phi { .. }) {
            lw.shadow[id.0 as usize] = off as i32;
            off += 16;
        }
    }
    for (_, id) in f.iter_insts() {
        if let InstKind::Alloca { size } = f.inst(id).kind {
            lw.alloca_off[id.0 as usize] = off as i32;
            off += ((size + 15) & !15) as i64;
        }
    }
    lw.frame_size = (off + 15) & !15;

    // One A block per LIR block (extra blocks appended for ll/sc loops).
    for _ in f.block_ids() {
        lw.block_map.push(lw.blocks.len() as u32);
        lw.blocks.push(ABlock::default());
    }

    // Entry: spill parameters.
    lw.cur = lw.block_map[0] as usize;
    let mut int_idx = 0u8;
    let mut fp_idx = 0u8;
    for (pi, pty) in f.params.iter().enumerate() {
        let mem = AMem {
            base: FP,
            off: lw.param_slot[pi],
        };
        if pty.is_float() || pty.is_vector() {
            let sz = if pty.is_vector() { Sz::Q } else { ty_sz(*pty) };
            lw.emit(AInst::StrF {
                sz,
                dt: D(fp_idx),
                mem,
            });
            fp_idx += 1;
        } else {
            lw.emit(AInst::Str {
                sz: Sz::X,
                rt: X(int_idx),
                mem,
            });
            int_idx += 1;
        }
    }

    // Lower blocks.
    for b in f.block_ids() {
        lw.cur = lw.block_map[b.0 as usize] as usize;
        // If the entry block, we already emitted the spills above; continue
        // appending.
        for &id in &f.block(b).insts {
            lw.lower_inst(id);
        }
        lw.lower_term(b);
    }

    let ret = match f.ret {
        Ty::Void => ARet::Void,
        t if t.is_float() => ARet::Fp,
        _ => ARet::Int,
    };
    AFunc {
        name: f.name.clone(),
        int_params: f
            .params
            .iter()
            .filter(|t| !t.is_float() && !t.is_vector())
            .count(),
        fp_params: f
            .params
            .iter()
            .filter(|t| t.is_float() || t.is_vector())
            .count(),
        frame_size: lw.frame_size as u64,
        ret,
        blocks: lw.blocks,
    }
}

impl Lower<'_> {
    fn emit(&mut self, i: AInst) {
        self.blocks[self.cur].insts.push(i);
    }

    fn new_block(&mut self) -> Blk {
        self.blocks.push(ABlock::default());
        Blk(self.blocks.len() as u32 - 1)
    }

    fn slot_mem(&self, id: InstId) -> AMem {
        AMem {
            base: FP,
            off: off_of(&self.slot, id),
        }
    }

    /// Loads an integer-classed operand into `rd`.
    fn load_int(&mut self, op: &Operand, rd: X) {
        match op {
            // Allocas evaluate to their frame address too, materialised
            // from the slot (stored at definition) for uniformity.
            Operand::Inst(id) => self.emit(AInst::Ldr {
                sz: Sz::X,
                rt: rd,
                mem: self.slot_mem(*id),
            }),
            Operand::Param(p) => self.emit(AInst::Ldr {
                sz: Sz::X,
                rt: rd,
                mem: AMem {
                    base: FP,
                    off: self.param_slot[*p as usize],
                },
            }),
            Operand::ConstInt { val, .. } => self.emit(AInst::MovImm { rd, imm: *val }),
            Operand::ConstF32(b) => self.emit(AInst::MovImm {
                rd,
                imm: u64::from(*b),
            }),
            Operand::ConstF64(b) => self.emit(AInst::MovImm { rd, imm: *b }),
            Operand::Global(g) => self.emit(AInst::AdrGlobal { rd, global: g.0 }),
            Operand::Func(fi) => self.emit(AInst::AdrFunc { rd, func: fi.0 }),
            Operand::Undef(_) => self.emit(AInst::MovImm { rd, imm: 0 }),
        }
    }

    /// Loads an FP-classed operand into `dd` (scalar; bits for vectors).
    fn load_fp(&mut self, op: &Operand, dd: D, vec: bool) {
        let sz = if vec { Sz::Q } else { Sz::X };
        match op {
            Operand::Inst(id) => self.emit(AInst::LdrF {
                sz,
                dt: dd,
                mem: self.slot_mem(*id),
            }),
            Operand::Param(p) => self.emit(AInst::LdrF {
                sz,
                dt: dd,
                mem: AMem {
                    base: FP,
                    off: self.param_slot[*p as usize],
                },
            }),
            Operand::ConstF64(b) => {
                self.emit(AInst::MovImm { rd: S3, imm: *b });
                self.emit(AInst::FMovFromX { dd, rn: S3 });
            }
            Operand::ConstF32(b) => {
                self.emit(AInst::MovImm {
                    rd: S3,
                    imm: u64::from(*b),
                });
                self.emit(AInst::FMovFromX { dd, rn: S3 });
            }
            Operand::Undef(_) => {
                self.emit(AInst::MovImm { rd: S3, imm: 0 });
                self.emit(AInst::FMovFromX { dd, rn: S3 });
            }
            other => {
                // Integer-looking operand used as FP bits.
                self.load_int(other, S3);
                self.emit(AInst::FMovFromX { dd, rn: S3 });
            }
        }
    }

    fn store_int(&mut self, id: InstId, rs: X) {
        self.emit(AInst::Str {
            sz: Sz::X,
            rt: rs,
            mem: self.slot_mem(id),
        });
    }

    fn store_fp(&mut self, id: InstId, ds: D, vec: bool) {
        let sz = if vec { Sz::Q } else { Sz::X };
        self.emit(AInst::StrF {
            sz,
            dt: ds,
            mem: self.slot_mem(id),
        });
    }

    /// Masks `rd` down to `bits` (no-op for 64).
    fn mask(&mut self, rd: X, bits: u32) {
        if bits < 64 {
            self.emit(AInst::ZExt {
                rd,
                rn: rd,
                bits: bits as u8,
            });
        }
    }

    fn sext(&mut self, rd: X, rn: X, bits: u32) {
        if bits < 64 {
            self.emit(AInst::SExt {
                rd,
                rn,
                bits: bits as u8,
            });
        } else if rd != rn {
            self.emit(AInst::MovReg { rd, rm: rn });
        }
    }

    #[allow(clippy::too_many_lines)]
    fn lower_inst(&mut self, id: InstId) {
        let f = self.f;
        let inst = f.inst(id);
        let ty = inst.ty;
        match &inst.kind {
            InstKind::Bin { op, lhs, rhs } if ty.is_vector() => {
                self.load_fp(lhs, F0, true);
                self.load_fp(rhs, F1, true);
                if *op == BinOp::Xor {
                    // Lower vector xor through the integer file (two 64-bit
                    // halves via the frame).
                    self.load_int_pair_xor(lhs, rhs, id);
                    return;
                }
                let fop = fp_op(*op).unwrap_or_else(|| panic!("vector op {op:?} unsupported"));
                let dp = matches!(ty, Ty::V2F64 | Ty::V2I64);
                self.emit(AInst::FpVec {
                    op: fop,
                    dp,
                    dd: F0,
                    dn: F0,
                    dm: F1,
                });
                self.store_fp(id, F0, true);
            }
            InstKind::Bin { op, lhs, rhs } if op.is_float() => {
                let dp = ty == Ty::F64;
                self.load_fp(lhs, F0, false);
                self.load_fp(rhs, F1, false);
                let fop = fp_op(*op).expect("float op");
                self.emit(AInst::Fp {
                    op: fop,
                    dp,
                    dd: F0,
                    dn: F0,
                    dm: F1,
                });
                self.store_fp(id, F0, false);
            }
            InstKind::Bin { op, lhs, rhs } => {
                let bits = int_bits(ty);
                self.load_int(lhs, S0);
                self.load_int(rhs, S1);
                // LIR register shifts take the count modulo the operand
                // width (`lslv w` semantics). The scratch ALU is 64-bit, so
                // narrow shifts must reduce the count explicitly or an i32
                // shift by 34 would shift by 34 instead of 2.
                let mask_shift_count = |this: &mut Self| {
                    if bits < 64 {
                        this.emit(AInst::MovImm {
                            rd: S2,
                            imm: u64::from(bits - 1),
                        });
                        this.emit(AInst::Alu {
                            op: AAlu::And,
                            rd: S1,
                            rn: S1,
                            rm: S2,
                            ra: X::ZR,
                        });
                    }
                };
                match op {
                    BinOp::Add
                    | BinOp::Sub
                    | BinOp::Mul
                    | BinOp::And
                    | BinOp::Or
                    | BinOp::Xor
                    | BinOp::Shl
                    | BinOp::LShr => {
                        let a = match op {
                            BinOp::Add => AAlu::Add,
                            BinOp::Sub => AAlu::Sub,
                            BinOp::Mul => AAlu::Mul,
                            BinOp::And => AAlu::And,
                            BinOp::Or => AAlu::Orr,
                            BinOp::Xor => AAlu::Eor,
                            BinOp::Shl => AAlu::Lsl,
                            BinOp::LShr => AAlu::Lsr,
                            _ => unreachable!(),
                        };
                        if matches!(op, BinOp::Shl | BinOp::LShr) {
                            mask_shift_count(self);
                        }
                        self.emit(AInst::Alu {
                            op: a,
                            rd: S0,
                            rn: S0,
                            rm: S1,
                            ra: X::ZR,
                        });
                        self.mask(S0, bits);
                    }
                    BinOp::AShr => {
                        mask_shift_count(self);
                        self.sext(S0, S0, bits);
                        self.emit(AInst::Alu {
                            op: AAlu::Asr,
                            rd: S0,
                            rn: S0,
                            rm: S1,
                            ra: X::ZR,
                        });
                        self.mask(S0, bits);
                    }
                    BinOp::UDiv => {
                        self.emit(AInst::Alu {
                            op: AAlu::UDiv,
                            rd: S0,
                            rn: S0,
                            rm: S1,
                            ra: X::ZR,
                        });
                    }
                    BinOp::SDiv => {
                        self.sext(S0, S0, bits);
                        self.sext(S1, S1, bits);
                        self.emit(AInst::Alu {
                            op: AAlu::SDiv,
                            rd: S0,
                            rn: S0,
                            rm: S1,
                            ra: X::ZR,
                        });
                        self.mask(S0, bits);
                    }
                    BinOp::URem => {
                        self.emit(AInst::Alu {
                            op: AAlu::UDiv,
                            rd: S2,
                            rn: S0,
                            rm: S1,
                            ra: X::ZR,
                        });
                        self.emit(AInst::Alu {
                            op: AAlu::MSub,
                            rd: S0,
                            rn: S2,
                            rm: S1,
                            ra: S0,
                        });
                    }
                    BinOp::SRem => {
                        self.sext(S0, S0, bits);
                        self.sext(S1, S1, bits);
                        self.emit(AInst::Alu {
                            op: AAlu::SDiv,
                            rd: S2,
                            rn: S0,
                            rm: S1,
                            ra: X::ZR,
                        });
                        self.emit(AInst::Alu {
                            op: AAlu::MSub,
                            rd: S0,
                            rn: S2,
                            rm: S1,
                            ra: S0,
                        });
                        self.mask(S0, bits);
                    }
                    _ => unreachable!("float handled above"),
                }
                self.store_int(id, S0);
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                let lt = self.m.operand_ty(self.f, lhs);
                let bits = int_bits(lt);
                self.load_int(lhs, S0);
                self.load_int(rhs, S1);
                let signed = matches!(pred, IPred::Slt | IPred::Sle | IPred::Sgt | IPred::Sge);
                if signed {
                    self.sext(S0, S0, bits);
                    self.sext(S1, S1, bits);
                }
                self.emit(AInst::Cmp { rn: S0, rm: S1 });
                let cc = match pred {
                    IPred::Eq => Cc::Eq,
                    IPred::Ne => Cc::Ne,
                    IPred::Ult => Cc::Lo,
                    IPred::Ule => Cc::Ls,
                    IPred::Ugt => Cc::Hi,
                    IPred::Uge => Cc::Hs,
                    IPred::Slt => Cc::Lt,
                    IPred::Sle => Cc::Le,
                    IPred::Sgt => Cc::Gt,
                    IPred::Sge => Cc::Ge,
                };
                self.emit(AInst::CSet { rd: S0, cc });
                self.store_int(id, S0);
            }
            InstKind::FCmp { pred, lhs, rhs } => {
                let dp = self.m.operand_ty(self.f, lhs) == Ty::F64;
                self.load_fp(lhs, F0, false);
                self.load_fp(rhs, F1, false);
                self.emit(AInst::FCmp { dp, dn: F0, dm: F1 });
                match pred {
                    FPred::Oeq => self.emit(AInst::CSet { rd: S0, cc: Cc::Eq }),
                    FPred::Ogt => self.emit(AInst::CSet { rd: S0, cc: Cc::Gt }),
                    FPred::Oge => self.emit(AInst::CSet { rd: S0, cc: Cc::Ge }),
                    FPred::Olt => self.emit(AInst::CSet { rd: S0, cc: Cc::Mi }),
                    FPred::Ole => self.emit(AInst::CSet { rd: S0, cc: Cc::Ls }),
                    FPred::Une => self.emit(AInst::CSet { rd: S0, cc: Cc::Ne }),
                    FPred::Uno => self.emit(AInst::CSet { rd: S0, cc: Cc::Vs }),
                    FPred::Ord => self.emit(AInst::CSet { rd: S0, cc: Cc::Vc }),
                    FPred::One => {
                        // ordered-and-not-equal = mi ∨ gt.
                        self.emit(AInst::CSet { rd: S0, cc: Cc::Mi });
                        self.emit(AInst::CSet { rd: S1, cc: Cc::Gt });
                        self.emit(AInst::Alu {
                            op: AAlu::Orr,
                            rd: S0,
                            rn: S0,
                            rm: S1,
                            ra: X::ZR,
                        });
                    }
                }
                self.store_int(id, S0);
            }
            InstKind::Load { ptr, .. } => {
                self.load_int(ptr, S0);
                if ty.is_float() {
                    self.emit(AInst::LdrF {
                        sz: ty_sz(ty),
                        dt: F0,
                        mem: AMem { base: S0, off: 0 },
                    });
                    self.store_fp(id, F0, false);
                } else if ty.is_vector() {
                    self.emit(AInst::LdrF {
                        sz: Sz::Q,
                        dt: F0,
                        mem: AMem { base: S0, off: 0 },
                    });
                    self.store_fp(id, F0, true);
                } else {
                    self.emit(AInst::Ldr {
                        sz: ty_sz(ty),
                        rt: S1,
                        mem: AMem { base: S0, off: 0 },
                    });
                    self.store_int(id, S1);
                }
            }
            InstKind::Store { ptr, val, .. } => {
                let vt = self.m.operand_ty(self.f, val);
                self.load_int(ptr, S0);
                if vt.is_float() {
                    self.load_fp(val, F0, false);
                    self.emit(AInst::StrF {
                        sz: ty_sz(vt),
                        dt: F0,
                        mem: AMem { base: S0, off: 0 },
                    });
                } else if vt.is_vector() {
                    self.load_fp(val, F0, true);
                    self.emit(AInst::StrF {
                        sz: Sz::Q,
                        dt: F0,
                        mem: AMem { base: S0, off: 0 },
                    });
                } else {
                    self.load_int(val, S1);
                    self.emit(AInst::Str {
                        sz: ty_sz(vt),
                        rt: S1,
                        mem: AMem { base: S0, off: 0 },
                    });
                }
            }
            InstKind::Fence { kind } => {
                let dmb = match kind {
                    FenceKind::Frm => Dmb::Ld,
                    FenceKind::Fww => Dmb::St,
                    FenceKind::Fsc => Dmb::Ff,
                };
                self.emit(AInst::DmbI { kind: dmb });
            }
            InstKind::AtomicRmw { op, ptr, val } => {
                // Figure 8b: DMBFF ; RMW ; DMBFF with the ll/sc loop of §2.1.
                let sz = ty_sz(ty);
                let bits = int_bits(ty);
                self.load_int(ptr, S0);
                self.load_int(val, S1);
                self.emit(AInst::DmbI { kind: Dmb::Ff });
                let loop_blk = self.new_block();
                let done_blk = self.new_block();
                self.blocks[self.cur].term = Some(ATerm::B(loop_blk));
                self.cur = loop_blk.0 as usize;
                self.emit(AInst::Ldxr { sz, rt: S2, rn: S0 });
                let aop = match op {
                    RmwOp::Xchg => None,
                    RmwOp::Add => Some(AAlu::Add),
                    RmwOp::Sub => Some(AAlu::Sub),
                    RmwOp::And => Some(AAlu::And),
                    RmwOp::Or => Some(AAlu::Orr),
                    RmwOp::Xor => Some(AAlu::Eor),
                };
                match aop {
                    Some(a) => {
                        self.emit(AInst::Alu {
                            op: a,
                            rd: S3,
                            rn: S2,
                            rm: S1,
                            ra: X::ZR,
                        });
                        self.mask(S3, bits);
                    }
                    None => self.emit(AInst::MovReg { rd: S3, rm: S1 }),
                }
                self.emit(AInst::Stxr {
                    sz,
                    rs: X(15),
                    rt: S3,
                    rn: S0,
                });
                self.blocks[self.cur].term = Some(ATerm::Cbnz {
                    rn: X(15),
                    then: loop_blk,
                    els: done_blk,
                });
                self.cur = done_blk.0 as usize;
                self.emit(AInst::DmbI { kind: Dmb::Ff });
                self.store_int(id, S2);
            }
            InstKind::CmpXchg { ptr, expected, new } => {
                let sz = ty_sz(ty);
                self.load_int(ptr, S0);
                self.load_int(expected, S1);
                self.load_int(new, S2);
                self.emit(AInst::DmbI { kind: Dmb::Ff });
                let loop_blk = self.new_block();
                let store_blk = self.new_block();
                let done_blk = self.new_block();
                self.blocks[self.cur].term = Some(ATerm::B(loop_blk));
                // loop: ldxr; cmp; b.ne done (failed); stxr; cbnz loop
                self.cur = loop_blk.0 as usize;
                self.emit(AInst::Ldxr { sz, rt: S3, rn: S0 });
                self.emit(AInst::Cmp { rn: S3, rm: S1 });
                self.emit(AInst::CSet {
                    rd: X(14),
                    cc: Cc::Ne,
                });
                self.blocks[self.cur].term = Some(ATerm::Cbnz {
                    rn: X(14),
                    then: done_blk,
                    els: store_blk,
                });
                self.cur = store_blk.0 as usize;
                self.emit(AInst::Stxr {
                    sz,
                    rs: X(15),
                    rt: S2,
                    rn: S0,
                });
                self.blocks[self.cur].term = Some(ATerm::Cbnz {
                    rn: X(15),
                    then: loop_blk,
                    els: done_blk,
                });
                self.cur = done_blk.0 as usize;
                self.emit(AInst::DmbI { kind: Dmb::Ff });
                self.store_int(id, S3);
            }
            InstKind::Alloca { .. } => {
                let off = off_of(&self.alloca_off, id);
                self.emit(AInst::AddImm {
                    rd: S0,
                    rn: FP,
                    imm: off,
                });
                self.store_int(id, S0);
            }
            InstKind::Gep {
                base,
                offset,
                elem_size,
            } => {
                self.load_int(base, S0);
                self.load_int(offset, S1);
                if *elem_size != 1 {
                    self.emit(AInst::MovImm {
                        rd: S2,
                        imm: *elem_size,
                    });
                    self.emit(AInst::Alu {
                        op: AAlu::Mul,
                        rd: S1,
                        rn: S1,
                        rm: S2,
                        ra: X::ZR,
                    });
                }
                self.emit(AInst::Alu {
                    op: AAlu::Add,
                    rd: S0,
                    rn: S0,
                    rm: S1,
                    ra: X::ZR,
                });
                self.store_int(id, S0);
            }
            InstKind::Cast { op, val } => self.lower_cast(id, *op, val, ty),
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => {
                // Float and vector selects go through the integer file too
                // (frame slots hold raw bits).
                self.load_int(cond, S2);
                self.load_int(if_true, S0);
                self.load_int(if_false, S1);
                self.emit(AInst::Cmp { rn: S2, rm: X::ZR });
                self.emit(AInst::CSel {
                    rd: S0,
                    rn: S1,
                    rm: S0,
                    cc: Cc::Eq,
                });
                self.store_int(id, S0);
            }
            InstKind::Call { callee, args } => {
                // Marshal arguments.
                let mut int_idx = 0u8;
                let mut fp_idx = 0u8;
                for a in args {
                    let at = self.m.operand_ty(self.f, a);
                    if at.is_float() {
                        self.load_fp(a, D(fp_idx), false);
                        fp_idx += 1;
                    } else if at.is_vector() {
                        self.load_fp(a, D(fp_idx), true);
                        fp_idx += 1;
                    } else {
                        self.load_int(a, X(int_idx));
                        int_idx += 1;
                    }
                }
                let target = match callee {
                    Callee::Func(fi) => ACallee::Func(fi.0),
                    Callee::Extern(e) => ACallee::Extern(e.0),
                    Callee::Indirect(op) => {
                        self.load_int(op, X(16));
                        ACallee::Reg(X(16))
                    }
                };
                self.emit(AInst::Bl { callee: target });
                if ty != Ty::Void {
                    if ty.is_float() {
                        self.store_fp(id, D(0), false);
                    } else if ty.is_vector() {
                        self.store_fp(id, D(0), true);
                    } else {
                        self.store_int(id, X(0));
                    }
                }
            }
            InstKind::Phi { .. } => {
                // Copy shadow → slot.
                let sh = off_of(&self.shadow, id);
                self.emit(AInst::Ldr {
                    sz: Sz::X,
                    rt: S0,
                    mem: AMem { base: FP, off: sh },
                });
                self.store_int(id, S0);
                if ty.is_vector() {
                    self.emit(AInst::Ldr {
                        sz: Sz::X,
                        rt: S0,
                        mem: AMem {
                            base: FP,
                            off: sh + 8,
                        },
                    });
                    self.emit(AInst::Str {
                        sz: Sz::X,
                        rt: S0,
                        mem: AMem {
                            base: FP,
                            off: off_of(&self.slot, id) + 8,
                        },
                    });
                }
            }
            InstKind::ExtractElement { vec, idx } => {
                // Slots hold raw vector bytes; read the lane from the slot.
                let lane = ty.size() as i32;
                match vec {
                    Operand::Inst(v) => {
                        let m = AMem {
                            base: FP,
                            off: off_of(&self.slot, *v) + *idx as i32 * lane,
                        };
                        self.emit(AInst::Ldr {
                            sz: ty_sz(ty),
                            rt: S0,
                            mem: m,
                        });
                    }
                    _ => self.emit(AInst::MovImm { rd: S0, imm: 0 }),
                }
                self.store_int(id, S0);
            }
            InstKind::InsertElement { vec, elt, idx } => {
                // Copy the whole vector, then overwrite one lane.
                self.load_fp(vec, F0, true);
                self.store_fp(id, F0, true);
                let et = self.m.operand_ty(self.f, elt);
                let lane = et.size() as i32;
                self.load_int(elt, S0);
                self.emit(AInst::Str {
                    sz: ty_sz(et),
                    rt: S0,
                    mem: AMem {
                        base: FP,
                        off: off_of(&self.slot, id) + *idx as i32 * lane,
                    },
                });
            }
        }
    }

    /// 128-bit xor through the integer file (two 64-bit halves).
    fn load_int_pair_xor(&mut self, lhs: &Operand, rhs: &Operand, id: InstId) {
        // Store both operands to their slots is already done; xor halves.
        for half in 0..2 {
            let off = half * 8;
            let get = |lw: &mut Self, op: &Operand, rd: X| match op {
                Operand::Inst(v) => lw.emit(AInst::Ldr {
                    sz: Sz::X,
                    rt: rd,
                    mem: AMem {
                        base: FP,
                        off: off_of(&lw.slot, *v) + off,
                    },
                }),
                _ => lw.emit(AInst::MovImm { rd, imm: 0 }),
            };
            get(self, lhs, S0);
            get(self, rhs, S1);
            self.emit(AInst::Alu {
                op: AAlu::Eor,
                rd: S0,
                rn: S0,
                rm: S1,
                ra: X::ZR,
            });
            self.emit(AInst::Str {
                sz: Sz::X,
                rt: S0,
                mem: AMem {
                    base: FP,
                    off: off_of(&self.slot, id) + off,
                },
            });
        }
    }

    fn lower_cast(&mut self, id: InstId, op: CastOp, val: &Operand, ty: Ty) {
        match op {
            CastOp::Trunc | CastOp::ZExt => {
                let from = self.m.operand_ty(self.f, val);
                self.load_int(val, S0);
                let bits = int_bits(if op == CastOp::Trunc { ty } else { from });
                self.mask(S0, bits);
                self.store_int(id, S0);
            }
            CastOp::SExt => {
                let from = self.m.operand_ty(self.f, val);
                self.load_int(val, S0);
                self.sext(S0, S0, int_bits(from));
                self.mask(S0, int_bits(ty));
                self.store_int(id, S0);
            }
            CastOp::BitCast | CastOp::IntToPtr | CastOp::PtrToInt => {
                // Raw bit copy between slots (vectors copy both halves).
                if ty.is_vector() || self.m.operand_ty(self.f, val).is_vector() {
                    self.load_fp(val, F0, true);
                    self.store_fp(id, F0, true);
                } else {
                    self.load_int(val, S0);
                    self.store_int(id, S0);
                }
            }
            CastOp::SiToFp => {
                let from = self.m.operand_ty(self.f, val);
                self.load_int(val, S0);
                self.sext(S0, S0, int_bits(from));
                self.emit(AInst::Scvtf {
                    dp: ty == Ty::F64,
                    from64: true,
                    dd: F0,
                    rn: S0,
                });
                self.store_fp(id, F0, false);
            }
            CastOp::FpToSi => {
                let from = self.m.operand_ty(self.f, val);
                self.load_fp(val, F0, false);
                self.emit(AInst::Fcvtzs {
                    dp: from == Ty::F64,
                    to64: true,
                    rd: S0,
                    dn: F0,
                });
                self.mask(S0, int_bits(ty));
                self.store_int(id, S0);
            }
            CastOp::FpExt => {
                self.load_fp(val, F0, false);
                self.emit(AInst::Fcvt {
                    to_double: true,
                    dd: F0,
                    dn: F0,
                });
                self.store_fp(id, F0, false);
            }
            CastOp::FpTrunc => {
                self.load_fp(val, F0, false);
                self.emit(AInst::Fcvt {
                    to_double: false,
                    dd: F0,
                    dn: F0,
                });
                self.store_fp(id, F0, false);
            }
        }
    }

    fn lower_term(&mut self, b: lasagne_lir::BlockId) {
        // First: φ shadow writes for successors.
        let f = self.f;
        let term = &f.block(b).term;
        for succ in term.successors() {
            for &pid in &f.block(succ).insts {
                let InstKind::Phi { incoming } = &f.inst(pid).kind else {
                    break;
                };
                let Some((_, val)) = incoming.iter().find(|(p, _)| *p == b) else {
                    continue;
                };
                let sh = off_of(&self.shadow, pid);
                let vty = self.m.operand_ty(f, val);
                if vty.is_vector() {
                    self.load_fp(val, F0, true);
                    self.emit(AInst::StrF {
                        sz: Sz::Q,
                        dt: F0,
                        mem: AMem { base: FP, off: sh },
                    });
                } else if vty.is_float() {
                    self.load_fp(val, F0, false);
                    self.emit(AInst::StrF {
                        sz: Sz::X,
                        dt: F0,
                        mem: AMem { base: FP, off: sh },
                    });
                } else {
                    self.load_int(val, S0);
                    self.emit(AInst::Str {
                        sz: Sz::X,
                        rt: S0,
                        mem: AMem { base: FP, off: sh },
                    });
                }
            }
        }
        let aterm = match term {
            Terminator::Br { dest } => ATerm::B(Blk(self.block_map[dest.0 as usize])),
            Terminator::CondBr {
                cond,
                if_true,
                if_false,
            } => {
                self.load_int(cond, S0);
                ATerm::Cbnz {
                    rn: S0,
                    then: Blk(self.block_map[if_true.0 as usize]),
                    els: Blk(self.block_map[if_false.0 as usize]),
                }
            }
            Terminator::Ret { val } => {
                if let Some(v) = val {
                    let vt = self.m.operand_ty(self.f, v);
                    if vt.is_float() {
                        self.load_fp(v, D(0), false);
                    } else if vt.is_vector() {
                        self.load_fp(v, D(0), true);
                    } else {
                        self.load_int(v, X(0));
                    }
                }
                ATerm::Ret
            }
            Terminator::Unreachable => ATerm::Brk,
        };
        if self.blocks[self.cur].term.is_none() {
            self.blocks[self.cur].term = Some(aterm);
        }
    }
}
