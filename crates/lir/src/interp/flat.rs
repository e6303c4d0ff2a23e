//! The form the [`Machine`] runs: each LIR function lowered once, on its
//! first call, into a flat list of operations over dense frame slots, and
//! the explicit frame stack that runs it.
//!
//! Lowering gives every parameter, every instruction in a block and every
//! distinct constant a slot. An operand becomes a slot index: a constant's
//! slot is filled from the function's slot template when its frame is
//! pushed, with global and function addresses already resolved. Each
//! operation carries what `Function` would otherwise be asked for on every
//! step: its cycle cost, the operand types that `icmp`, `store`, casts,
//! `insertelement` and extern calls depend on, and each extern call's
//! [`Extern`]. A block's phis become per-edge copy lists, so a branch copies
//! its successor's incoming values without searching for them.
//!
//! Calls push a [`Frame`] instead of recursing on the host stack, so guest
//! recursion is bounded by the guest stack ([`FRAME_BYTES`] per call below
//! [`STACK_TOP`](super::STACK_TOP)) and traps when that runs out. A
//! `pthread_create` pushes the child's frame with a thread-end return
//! marker and, as before, runs it to completion before its parent resumes.
//!
//! Every observable is that of the tree-walking interpreter this replaced
//! (kept as `interp::reference` for tests): the same result, statistics
//! and output, and the same first error, a step-limit stop included. A
//! slot holds `None` until its instruction runs, so a use of a value not
//! yet evaluated, or of a parameter past the call's argument count, traps
//! as it did.

use super::runtime::{Extern, Thread};
use super::{
    alloca_below, cost, cost_of, eval_bin, eval_cast, eval_fcmp, eval_icmp, load_typed, mask_ty,
    store_typed, ExecError, Machine, Val, FUNC_ADDR_BASE,
};
use crate::func::{Block, Function, Module};
use crate::hash::FxHashMap;
use crate::inst::{
    BinOp, BlockId, Callee, CastOp, FPred, FenceKind, FuncId, IPred, InstId, InstKind, Operand,
    RmwOp, Terminator,
};
use crate::types::Ty;

/// Bytes of guest stack each call reserves below its caller's.
pub(super) const FRAME_BYTES: u64 = 1 << 16;

/// Index of a value in its frame's slots.
type Slot = u32;

/// The source of a phi copy whose phi has no entry for the edge.
const MISSING: Slot = Slot::MAX;

/// What `Flat::insts` holds for a constant's slot.
const NO_INST: InstId = InstId(u32::MAX);

/// One lowered operation. Operands are slots of the running frame;
/// `dst` is the slot the result goes to.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A 64-bit integer operation that cannot trap.
    Int64 {
        op: IntOp,
        dst: Slot,
        l: Slot,
        r: Slot,
    },
    Bin {
        op: BinOp,
        ty: Ty,
        cost: u8,
        dst: Slot,
        l: Slot,
        r: Slot,
    },
    ICmp {
        pred: IPred,
        ty: Ty,
        dst: Slot,
        l: Slot,
        r: Slot,
    },
    FCmp {
        pred: FPred,
        f32: bool,
        dst: Slot,
        l: Slot,
        r: Slot,
    },
    /// A scalar load of `size` bytes.
    Load {
        size: u8,
        dst: Slot,
        ptr: Slot,
    },
    LoadVec {
        dst: Slot,
        ptr: Slot,
    },
    /// A store of a value whose type is `size` bytes.
    Store {
        size: u8,
        ptr: Slot,
        val: Slot,
    },
    Fence(FenceKind),
    Rmw {
        op: RmwOp,
        ty: Ty,
        dst: Slot,
        ptr: Slot,
        val: Slot,
    },
    CmpXchg {
        ty: Ty,
        dst: Slot,
        ptr: Slot,
        expected: Slot,
        new: Slot,
    },
    /// `size` is a constant's slot.
    Alloca {
        dst: Slot,
        size: Slot,
    },
    /// `elem` is a constant's slot.
    Gep {
        dst: Slot,
        base: Slot,
        offset: Slot,
        elem: Slot,
    },
    /// A cast that reinterprets bits (`bitcast`, `inttoptr`, `ptrtoint`)
    /// to a scalar.
    Move {
        dst: Slot,
        val: Slot,
    },
    Cast {
        op: CastOp,
        from: Ty,
        to: Ty,
        dst: Slot,
        val: Slot,
    },
    Select {
        dst: Slot,
        cond: Slot,
        if_true: Slot,
        if_false: Slot,
    },
    /// `call` indexes [`Flat::calls`].
    Call {
        dst: Slot,
        call: u32,
    },
    /// A phi after the block's first non-phi instruction.
    PhiOutOfPrefix,
    Extract {
        ty: Ty,
        idx: u32,
        dst: Slot,
        vec: Slot,
    },
    Insert {
        elt_ty: Ty,
        idx: u32,
        dst: Slot,
        vec: Slot,
        elt: Slot,
    },
    /// An instruction that panics when run, as the type it needs panicked
    /// when asked for: an operand's (a parameter past the declared ones),
    /// or the size of `void` for a load or store.
    IllTyped {
        inst: InstId,
    },
    /// Heads a block with no instructions that branches: it takes no step,
    /// but stops the frame if it keeps reaching such blocks with no step
    /// between them, the guest then spinning in a cycle of empty blocks.
    Idle,
    /// Terminators, which take no step. A `Jump` is a branch along an
    /// edge with no phi copies.
    Jump {
        target: u32,
    },
    Br {
        edge: u32,
    },
    CondBr {
        cond: Slot,
        if_true: u32,
        if_false: u32,
    },
    Ret {
        val: Slot,
    },
    RetVoid,
    Unreachable,
}

/// The [`BinOp`]s of an [`Op::Int64`].
#[derive(Debug, Clone, Copy)]
enum IntOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
}

impl IntOp {
    fn of(op: BinOp) -> Option<IntOp> {
        Some(match op {
            BinOp::Add => IntOp::Add,
            BinOp::Sub => IntOp::Sub,
            BinOp::Mul => IntOp::Mul,
            BinOp::And => IntOp::And,
            BinOp::Or => IntOp::Or,
            BinOp::Xor => IntOp::Xor,
            BinOp::Shl => IntOp::Shl,
            BinOp::LShr => IntOp::LShr,
            BinOp::AShr => IntOp::AShr,
            _ => return None,
        })
    }
}

/// A control-flow edge: where it lands and the phi copies it makes.
#[derive(Debug)]
struct Edge {
    /// The code index of the target block's first non-phi operation.
    target: u32,
    /// The predecessor, for a missing-incoming trap.
    from: BlockId,
    /// `(phi slot, incoming slot)` copies, in `Flat::copies`.
    copies: std::ops::Range<u32>,
}

/// A call site's target and argument slots.
#[derive(Debug)]
enum Target {
    Func(FuncId),
    Indirect(Slot),
    /// A runtime extern; `floats` says which arguments are floating point.
    Extern(Extern, Box<[bool]>),
    /// An extern the runtime does not implement.
    Unknown(String),
}

#[derive(Debug)]
struct CallSite {
    target: Target,
    args: Box<[Slot]>,
}

/// A function lowered for the [`Machine`].
#[derive(Debug)]
pub(super) struct Flat<'m> {
    name: &'m str,
    code: Vec<Op>,
    /// Where a frame starts: the entry block, or an edge into it that
    /// runs its phis.
    start: u32,
    edges: Vec<Edge>,
    copies: Vec<(Slot, Slot)>,
    calls: Vec<CallSite>,
    /// Slots `0..params` are parameters `0..params`.
    params: u32,
    /// The instruction of each slot from `params` on (`NO_INST` for a
    /// constant's).
    insts: Vec<InstId>,
    /// A new frame's slots: `None` but for the constants.
    template: Vec<Option<Val>>,
}

/// How a returning frame's result reaches its caller.
#[derive(Debug)]
pub(super) enum Ret {
    /// The frame `Machine::run` started.
    Root,
    /// Into this slot of the caller.
    Slot(Slot),
    /// The frame ran a `pthread_create`d thread: end it, restore the
    /// parent's stack, and give the `pthread_create` call (`dst`) zero.
    Thread {
        thread: Thread,
        parent_stack: u64,
        dst: Slot,
    },
}

/// One activation on the frame stack.
#[derive(Debug)]
pub(super) struct Frame {
    func: FuncId,
    /// The next operation, while a callee runs.
    pc: u32,
    /// Its first slot in `Machine::slots`.
    base: usize,
    /// How many arguments it was called with.
    args: usize,
    alloca_next: u64,
    /// The caller's guest stack pointer, restored on return.
    saved_stack: u64,
    ret: Ret,
}

/// Scratch buffers reused across steps.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    /// Arguments of the call being made.
    argv: Vec<Val>,
    /// Values a phi copy list has read, before any is written.
    phis: Vec<Val>,
    ints: Vec<u64>,
    floats: Vec<f64>,
}

/// What ended a frame's straight-line run.
enum Exit {
    /// A call: the callee's arguments are in `Scratch::argv`.
    Call(FuncId, Ret),
    Return(Option<Val>),
}

impl<'m> Flat<'m> {
    /// Lowers `f`. Never fails: what would fail when run lowers to an
    /// operation that fails the same way when it runs.
    pub(super) fn lower(module: &'m Module, f: &'m Function) -> Flat<'m> {
        Lowering::new(module, f).finish()
    }

    /// The error for reading slot `s` before anything was written to it.
    #[cold]
    fn undefined(&self, s: Slot, args: usize) -> ExecError {
        ExecError::Trap(if s < self.params {
            format!(
                "@{} called with {args} args but uses parameter {s}",
                self.name
            )
        } else {
            format!(
                "use of unevaluated %{} in @{}",
                self.insts[(s - self.params) as usize].0,
                self.name
            )
        })
    }
}

/// Lowering state for one function.
struct Lowering<'m> {
    module: &'m Module,
    f: &'m Function,
    flat: Flat<'m>,
    /// Slot of each arena instruction, once it has one.
    inst_slot: Vec<Option<Slot>>,
    /// Next free slot.
    next: Slot,
    /// Slots of scalar constants, by bits, and of the vector zero.
    consts: FxHashMap<u64, Slot>,
    vector_zero: Option<Slot>,
    /// Edge index of each `(from, to)` pair lowered so far.
    edge_of: FxHashMap<(BlockId, BlockId), u32>,
    /// Code index of each block's first non-phi operation.
    block_pc: Vec<u32>,
}

impl<'m> Lowering<'m> {
    fn new(module: &'m Module, f: &'m Function) -> Lowering<'m> {
        let mut params = 0;
        let mut see = |op: &Operand| {
            if let Operand::Param(i) = op {
                params = params.max(i + 1);
            }
        };
        for b in &f.blocks {
            for id in &b.insts {
                f.inst(*id).kind.for_each_operand(&mut see);
            }
            b.term.for_each_operand(&mut see);
        }
        let mut inst_slot = vec![None; f.insts.len()];
        let mut insts = Vec::new();
        let mut next = params;
        for b in &f.blocks {
            for id in &b.insts {
                inst_slot[id.0 as usize] = Some(next);
                insts.push(*id);
                next += 1;
            }
        }
        // A phi prefix is entered through an edge; the rest of a block
        // and its terminator are one operation each, after an `Idle` if
        // the block is empty and branches.
        let entry_phis = phi_count(f, f.entry()) > 0;
        let mut block_pc = Vec::with_capacity(f.blocks.len());
        let mut pc = u32::from(entry_phis);
        for (i, b) in f.blocks.iter().enumerate() {
            block_pc.push(pc);
            pc += (b.insts.len() - phi_count(f, BlockId(i as u32))) as u32 + 1;
            pc += u32::from(idles(b));
        }
        Lowering {
            module,
            f,
            flat: Flat {
                name: &f.name,
                code: Vec::with_capacity(pc as usize),
                start: 0,
                edges: Vec::new(),
                copies: Vec::new(),
                calls: Vec::new(),
                params,
                insts,
                template: Vec::new(),
            },
            inst_slot,
            next,
            consts: FxHashMap::default(),
            vector_zero: None,
            edge_of: FxHashMap::default(),
            block_pc,
        }
    }

    fn finish(mut self) -> Flat<'m> {
        let f = self.f;
        let entry = f.entry();
        if phi_count(f, entry) > 0 {
            // A frame enters its entry block as if from the entry block.
            let edge = self.edge(entry, entry);
            self.flat.code.push(Op::Br { edge });
        } else {
            self.flat.start = self.block_pc[entry.0 as usize];
        }
        for (i, b) in f.blocks.iter().enumerate() {
            let bid = BlockId(i as u32);
            debug_assert_eq!(self.flat.code.len() as u32, self.block_pc[i]);
            if idles(b) {
                self.flat.code.push(Op::Idle);
            }
            for id in &b.insts[phi_count(f, bid)..] {
                let op = self.inst(*id);
                self.flat.code.push(op);
            }
            let op = match &b.term {
                Terminator::Br { dest } => {
                    let edge = self.edge(bid, *dest);
                    let e = &self.flat.edges[edge as usize];
                    if e.copies.is_empty() {
                        Op::Jump { target: e.target }
                    } else {
                        Op::Br { edge }
                    }
                }
                Terminator::CondBr {
                    cond,
                    if_true,
                    if_false,
                } => Op::CondBr {
                    cond: self.slot(cond),
                    if_true: self.edge(bid, *if_true),
                    if_false: self.edge(bid, *if_false),
                },
                Terminator::Ret { val: Some(v) } => Op::Ret { val: self.slot(v) },
                Terminator::Ret { val: None } => Op::RetVoid,
                Terminator::Unreachable => Op::Unreachable,
            };
            self.flat.code.push(op);
        }
        // Slots past the instructions' are constants or arena
        // instructions no block holds; those are never written.
        let mut template = vec![None; self.next as usize];
        for (bits, s) in &self.consts {
            template[*s as usize] = Some(Val::B64(*bits));
        }
        if let Some(s) = self.vector_zero {
            template[s as usize] = Some(Val::B128([0; 16]));
        }
        self.flat.template = template;
        self.flat
    }

    /// The slot of operand `op`.
    fn slot(&mut self, op: &Operand) -> Slot {
        let bits = match *op {
            Operand::Inst(id) => return self.inst_slot(id),
            Operand::Param(i) => return i,
            Operand::ConstInt { val, .. } => val,
            Operand::ConstF32(b) => u64::from(b),
            Operand::ConstF64(b) => b,
            Operand::Global(g) => self.module.global(g).addr,
            Operand::Func(fi) => FUNC_ADDR_BASE + 16 * u64::from(fi.0),
            Operand::Undef(ty) if ty.is_vector() => {
                return match self.vector_zero {
                    Some(s) => s,
                    None => {
                        let s = self.fresh(NO_INST);
                        self.vector_zero = Some(s);
                        s
                    }
                };
            }
            Operand::Undef(_) => 0,
        };
        self.constant(bits)
    }

    /// The slot of the scalar constant `bits`.
    fn constant(&mut self, bits: u64) -> Slot {
        match self.consts.get(&bits) {
            Some(s) => *s,
            None => {
                let s = self.fresh(NO_INST);
                self.consts.insert(bits, s);
                s
            }
        }
    }

    /// The slot of instruction `id`; one no block holds gets a slot that
    /// stays unwritten.
    fn inst_slot(&mut self, id: InstId) -> Slot {
        if let Some(Some(s)) = self.inst_slot.get(id.0 as usize) {
            return *s;
        }
        let s = self.fresh(id);
        if let Some(entry) = self.inst_slot.get_mut(id.0 as usize) {
            *entry = Some(s);
        }
        s
    }

    /// A new slot past the instructions', for `inst` (or a constant).
    fn fresh(&mut self, inst: InstId) -> Slot {
        self.flat.insts.push(inst);
        self.next += 1;
        self.next - 1
    }

    /// The type of operand `op`, as `Module::operand_ty` gives it; `None`
    /// where that would panic.
    fn ty(&self, op: &Operand) -> Option<Ty> {
        match op {
            Operand::Param(i) => self.f.params.get(*i as usize).copied(),
            Operand::Inst(id) if id.0 as usize >= self.f.insts.len() => None,
            _ => Some(self.module.operand_ty(self.f, op)),
        }
    }

    /// The edge `from → to`, lowering its phi copies on first use.
    fn edge(&mut self, from: BlockId, to: BlockId) -> u32 {
        if let Some(e) = self.edge_of.get(&(from, to)) {
            return *e;
        }
        let f = self.f;
        let start = self.flat.copies.len() as u32;
        for id in &f.block(to).insts[..phi_count(f, to)] {
            let InstKind::Phi { incoming } = &f.inst(*id).kind else {
                unreachable!("a phi prefix holds phis only");
            };
            let src = match incoming.iter().find(|(p, _)| *p == from) {
                Some((_, op)) => self.slot(op),
                None => MISSING,
            };
            let dst = self.inst_slot(*id);
            self.flat.copies.push((dst, src));
        }
        let e = self.flat.edges.len() as u32;
        self.flat.edges.push(Edge {
            target: self.block_pc[to.0 as usize],
            from,
            copies: start..self.flat.copies.len() as u32,
        });
        self.edge_of.insert((from, to), e);
        e
    }

    /// Lowers non-prefix instruction `id`.
    fn inst(&mut self, id: InstId) -> Op {
        let inst = self.f.inst(id);
        let (ty, dst) = (inst.ty, self.inst_slot(id));
        let ill = Op::IllTyped { inst: id };
        match &inst.kind {
            InstKind::Bin { op, lhs, rhs } => {
                let (l, r) = (self.slot(lhs), self.slot(rhs));
                match IntOp::of(*op) {
                    Some(op) if ty == Ty::I64 => Op::Int64 { op, dst, l, r },
                    _ => Op::Bin {
                        op: *op,
                        ty,
                        cost: cost_of(&inst.kind) as u8,
                        dst,
                        l,
                        r,
                    },
                }
            }
            InstKind::ICmp { pred, lhs, rhs } => match self.ty(lhs) {
                Some(lty) => Op::ICmp {
                    pred: *pred,
                    ty: lty,
                    dst,
                    l: self.slot(lhs),
                    r: self.slot(rhs),
                },
                None => ill,
            },
            InstKind::FCmp { pred, lhs, rhs } => match self.ty(lhs) {
                Some(lty) => Op::FCmp {
                    pred: *pred,
                    f32: lty == Ty::F32,
                    dst,
                    l: self.slot(lhs),
                    r: self.slot(rhs),
                },
                None => ill,
            },
            InstKind::Load { ptr, .. } => {
                let ptr = self.slot(ptr);
                match ty {
                    Ty::Void => ill,
                    t if t.is_vector() => Op::LoadVec { dst, ptr },
                    t => Op::Load {
                        size: t.size() as u8,
                        dst,
                        ptr,
                    },
                }
            }
            InstKind::Store { ptr, val, .. } => match self.ty(val) {
                Some(Ty::Void) | None => ill,
                Some(vty) => Op::Store {
                    size: vty.size() as u8,
                    ptr: self.slot(ptr),
                    val: self.slot(val),
                },
            },
            InstKind::Fence { kind } => Op::Fence(*kind),
            InstKind::AtomicRmw { op, ptr, val } => Op::Rmw {
                op: *op,
                ty,
                dst,
                ptr: self.slot(ptr),
                val: self.slot(val),
            },
            InstKind::CmpXchg { ptr, expected, new } => Op::CmpXchg {
                ty,
                dst,
                ptr: self.slot(ptr),
                expected: self.slot(expected),
                new: self.slot(new),
            },
            InstKind::Alloca { size } => Op::Alloca {
                dst,
                size: self.constant(*size),
            },
            InstKind::Gep {
                base,
                offset,
                elem_size,
            } => Op::Gep {
                dst,
                base: self.slot(base),
                offset: self.slot(offset),
                elem: self.constant(*elem_size),
            },
            InstKind::Cast {
                op: CastOp::BitCast | CastOp::IntToPtr | CastOp::PtrToInt,
                val,
            } if !ty.is_vector() && self.ty(val).is_some() => Op::Move {
                dst,
                val: self.slot(val),
            },
            InstKind::Cast { op, val } => match self.ty(val) {
                Some(from) => Op::Cast {
                    op: *op,
                    from,
                    to: ty,
                    dst,
                    val: self.slot(val),
                },
                None => ill,
            },
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => Op::Select {
                dst,
                cond: self.slot(cond),
                if_true: self.slot(if_true),
                if_false: self.slot(if_false),
            },
            InstKind::Call { callee, args } => {
                let target = match callee {
                    Callee::Func(fi) => Target::Func(*fi),
                    Callee::Indirect(t) => Target::Indirect(self.slot(t)),
                    Callee::Extern(e) => {
                        let name = &self.module.ext(*e).name;
                        match Extern::parse(name) {
                            None => Target::Unknown(name.clone()),
                            Some(ext) => {
                                let floats: Option<Box<[bool]>> =
                                    args.iter().map(|a| Some(self.ty(a)?.is_float())).collect();
                                match floats {
                                    Some(floats) => Target::Extern(ext, floats),
                                    None => return ill,
                                }
                            }
                        }
                    }
                };
                let args = args.iter().map(|a| self.slot(a)).collect();
                self.flat.calls.push(CallSite { target, args });
                Op::Call {
                    dst,
                    call: self.flat.calls.len() as u32 - 1,
                }
            }
            InstKind::Phi { .. } => Op::PhiOutOfPrefix,
            InstKind::ExtractElement { vec, idx } => Op::Extract {
                ty,
                idx: *idx,
                dst,
                vec: self.slot(vec),
            },
            InstKind::InsertElement { vec, elt, idx } => match self.ty(elt) {
                Some(elt_ty) => Op::Insert {
                    elt_ty,
                    idx: *idx,
                    dst,
                    vec: self.slot(vec),
                    elt: self.slot(elt),
                },
                None => ill,
            },
        }
    }
}

/// Whether block `b` holds no instruction, not even a phi, and branches:
/// with no step between them, a run of such blocks changes nothing, so
/// one that outlasts the code can only be an endless cycle.
fn idles(b: &Block) -> bool {
    b.insts.is_empty() && matches!(b.term, Terminator::Br { .. } | Terminator::CondBr { .. })
}

/// The number of phis that open block `b`.
fn phi_count(f: &Function, b: BlockId) -> usize {
    f.block(b)
        .insts
        .iter()
        .take_while(|id| matches!(f.inst(**id).kind, InstKind::Phi { .. }))
        .count()
}

impl<'m> Machine<'m> {
    /// Runs function `id` on `args` to completion on a fresh frame stack.
    pub(super) fn exec(&mut self, id: FuncId, args: &[Val]) -> Result<Option<Val>, ExecError> {
        self.frames.clear();
        self.slots.clear();
        self.scratch.argv.clear();
        self.scratch.argv.extend_from_slice(args);
        self.push_frame(id, Ret::Root)?;
        loop {
            match self.run_frame()? {
                Exit::Call(callee, ret) => self.push_frame(callee, ret)?,
                Exit::Return(v) => {
                    let frame = self.frames.pop().expect("a returning frame");
                    self.stack_next = frame.saved_stack;
                    self.slots.truncate(frame.base);
                    let caller = self.frames.last().map_or(0, |f| f.base);
                    match frame.ret {
                        Ret::Root => return Ok(v),
                        Ret::Slot(dst) => self.slots[caller + dst as usize] = v,
                        Ret::Thread {
                            thread,
                            parent_stack,
                            dst,
                        } => {
                            self.stack_next = parent_stack;
                            self.rt.end_thread(thread, self.stats.cycles);
                            self.slots[caller + dst as usize] = Some(Val::B64(0));
                        }
                    }
                }
            }
        }
    }

    /// Pushes a frame for `id` called with `Scratch::argv`, lowering `id`
    /// on its first call.
    fn push_frame(&mut self, id: FuncId, ret: Ret) -> Result<(), ExecError> {
        let flat = match &mut self.flats[id.0 as usize] {
            Some(flat) => flat,
            empty => empty.insert(Flat::lower(self.module, self.module.func(id))),
        };
        let saved_stack = self.stack_next;
        self.stack_next = saved_stack.checked_sub(FRAME_BYTES).ok_or_else(|| {
            ExecError::Trap(format!("guest stack overflow calling @{}", flat.name))
        })?;
        let base = self.slots.len();
        self.slots.extend_from_slice(&flat.template);
        let argv = &self.scratch.argv;
        for (i, s) in self.slots[base..base + flat.params as usize]
            .iter_mut()
            .enumerate()
        {
            *s = argv.get(i).copied();
        }
        self.frames.push(Frame {
            func: id,
            pc: flat.start,
            base,
            args: argv.len(),
            alloca_next: saved_stack,
            saved_stack,
            ret,
        });
        Ok(())
    }

    /// Runs the top frame until it calls or returns.
    fn run_frame(&mut self) -> Result<Exit, ExecError> {
        let Machine {
            module,
            mem,
            rt,
            stack_next,
            stats,
            steps_left,
            flats,
            frames,
            slots,
            scratch,
        } = self;
        let frame = frames.last_mut().expect("a frame to run");
        let flat = flats[frame.func.0 as usize].as_ref().expect("lowered");
        let fr = &mut slots[frame.base..];
        let mut pc = frame.pc as usize;
        // The step budget and the cycle count live in locals while the
        // frame runs; instructions retired are the budget spent.
        let budget = *steps_left;
        let (mut left, mut cycles) = (budget, stats.cycles);
        // `left` when the current streak of `Idle`s began, and its length.
        let (mut idle_mark, mut idle_runs) = (left, 0usize);

        let out = 'run: loop {
            macro_rules! fail {
                ($e:expr) => {
                    break 'run Err($e)
                };
            }
            macro_rules! tri {
                ($r:expr) => {
                    match $r {
                        Ok(v) => v,
                        Err(e) => fail!(e),
                    }
                };
            }
            macro_rules! tick {
                ($cost:expr) => {{
                    if left == 0 {
                        fail!(ExecError::StepLimit);
                    }
                    left -= 1;
                    cycles += u64::from($cost);
                }};
            }
            macro_rules! val {
                ($s:expr) => {{
                    let s = $s;
                    match fr[s as usize] {
                        Some(v) => v,
                        None => fail!(flat.undefined(s, frame.args)),
                    }
                }};
            }
            macro_rules! bits {
                ($s:expr) => {{
                    let s = $s;
                    match fr[s as usize] {
                        Some(Val::B64(b)) => b,
                        Some(v) => v.bits(),
                        None => fail!(flat.undefined(s, frame.args)),
                    }
                }};
            }
            // Takes edge `e`: reads every incoming value of the target's
            // phis, then writes them one step each; yields the target.
            macro_rules! edge {
                ($e:expr) => {{
                    let edge = &flat.edges[$e as usize];
                    let copies = &flat.copies[edge.copies.start as usize..edge.copies.end as usize];
                    let vals = &mut scratch.phis;
                    vals.clear();
                    for &(_, src) in copies {
                        if src == MISSING {
                            fail!(ExecError::Trap(format!(
                                "phi missing incoming for {} in @{}",
                                edge.from, flat.name
                            )));
                        }
                        vals.push(val!(src));
                    }
                    for (&(dst, _), v) in copies.iter().zip(vals.iter()) {
                        fr[dst as usize] = Some(*v);
                        tick!(cost::OTHER);
                    }
                    edge.target as usize
                }};
            }

            let op = flat.code[pc];
            pc += 1;
            match op {
                Op::Int64 { op, dst, l, r } => {
                    tick!(cost::OTHER);
                    let (a, b) = (val!(l).bits(), val!(r).bits());
                    let v = match op {
                        IntOp::Add => a.wrapping_add(b),
                        IntOp::Sub => a.wrapping_sub(b),
                        IntOp::Mul => a.wrapping_mul(b),
                        IntOp::And => a & b,
                        IntOp::Or => a | b,
                        IntOp::Xor => a ^ b,
                        IntOp::Shl => a.wrapping_shl(b as u32 % 64),
                        IntOp::LShr => a.wrapping_shr(b as u32 % 64),
                        IntOp::AShr => ((a as i64) >> (b as u32 % 64)) as u64,
                    };
                    fr[dst as usize] = Some(Val::B64(v));
                }
                Op::Bin {
                    op,
                    ty,
                    cost,
                    dst,
                    l,
                    r,
                } => {
                    tick!(cost);
                    let (a, b) = (val!(l), val!(r));
                    fr[dst as usize] = Some(tri!(eval_bin(op, ty, a, b)));
                }
                Op::ICmp {
                    pred,
                    ty,
                    dst,
                    l,
                    r,
                } => {
                    tick!(cost::OTHER);
                    let (a, b) = (bits!(l), bits!(r));
                    fr[dst as usize] = Some(Val::B64(u64::from(eval_icmp(pred, ty, a, b))));
                }
                Op::FCmp {
                    pred,
                    f32,
                    dst,
                    l,
                    r,
                } => {
                    tick!(cost::OTHER);
                    let (a, b) = if f32 {
                        (f64::from(val!(l).f32()), f64::from(val!(r).f32()))
                    } else {
                        (val!(l).f64(), val!(r).f64())
                    };
                    fr[dst as usize] = Some(Val::B64(u64::from(eval_fcmp(pred, a, b))));
                }
                Op::Load { size, dst, ptr } => {
                    tick!(cost::ACCESS);
                    stats.loads += 1;
                    let addr = bits!(ptr);
                    fr[dst as usize] = Some(Val::B64(mem.read_uint(addr, usize::from(size))));
                }
                Op::LoadVec { dst, ptr } => {
                    tick!(cost::ACCESS);
                    stats.loads += 1;
                    let addr = bits!(ptr);
                    fr[dst as usize] = Some(Val::B128(mem.read(addr, 16)));
                }
                Op::Store { size, ptr, val } => {
                    tick!(cost::ACCESS);
                    stats.stores += 1;
                    let addr = bits!(ptr);
                    match val!(val) {
                        Val::B64(v) => mem.write_uint(addr, usize::from(size), v),
                        Val::B128(bytes) => mem.write(addr, &bytes),
                    }
                }
                Op::Fence(kind) => match kind {
                    FenceKind::Frm => {
                        tick!(cost::FENCE);
                        stats.fences.0 += 1;
                    }
                    FenceKind::Fww => {
                        tick!(cost::FENCE);
                        stats.fences.1 += 1;
                    }
                    FenceKind::Fsc => {
                        tick!(cost::FENCE_SC);
                        stats.fences.2 += 1;
                    }
                },
                Op::Rmw {
                    op,
                    ty,
                    dst,
                    ptr,
                    val,
                } => {
                    tick!(cost::RMW);
                    stats.rmws += 1;
                    let addr = bits!(ptr);
                    let v = bits!(val);
                    let old = load_typed(mem, addr, ty).bits();
                    let new = match op {
                        RmwOp::Xchg => v,
                        RmwOp::Add => old.wrapping_add(v),
                        RmwOp::Sub => old.wrapping_sub(v),
                        RmwOp::And => old & v,
                        RmwOp::Or => old | v,
                        RmwOp::Xor => old ^ v,
                    };
                    store_typed(mem, addr, ty, Val::B64(new));
                    fr[dst as usize] = Some(Val::B64(mask_ty(old, ty)));
                }
                Op::CmpXchg {
                    ty,
                    dst,
                    ptr,
                    expected,
                    new,
                } => {
                    tick!(cost::RMW);
                    stats.rmws += 1;
                    let addr = bits!(ptr);
                    let exp = mask_ty(bits!(expected), ty);
                    let newv = bits!(new);
                    let old = mask_ty(load_typed(mem, addr, ty).bits(), ty);
                    if old == exp {
                        store_typed(mem, addr, ty, Val::B64(newv));
                    }
                    fr[dst as usize] = Some(Val::B64(old));
                }
                Op::Alloca { dst, size } => {
                    tick!(cost::OTHER);
                    match alloca_below(frame.alloca_next, bits!(size)) {
                        Some(next) => frame.alloca_next = next,
                        None => fail!(ExecError::Trap(format!(
                            "guest stack overflow in @{}",
                            flat.name
                        ))),
                    }
                    fr[dst as usize] = Some(Val::B64(frame.alloca_next));
                }
                Op::Gep {
                    dst,
                    base,
                    offset,
                    elem,
                } => {
                    tick!(cost::OTHER);
                    let (b, o) = (bits!(base), bits!(offset));
                    let elem = match fr[elem as usize] {
                        Some(Val::B64(e)) => e,
                        _ => unreachable!("a GEP's element size is a constant"),
                    };
                    let v = b.wrapping_add(o.wrapping_mul(elem));
                    fr[dst as usize] = Some(Val::B64(v));
                }
                Op::Move { dst, val } => {
                    tick!(cost::OTHER);
                    fr[dst as usize] = Some(match val!(val) {
                        Val::B128(b) => Val::B64(u64::from_le_bytes(b[..8].try_into().unwrap())),
                        v => v,
                    });
                }
                Op::Cast {
                    op,
                    from,
                    to,
                    dst,
                    val,
                } => {
                    tick!(cost::OTHER);
                    let v = val!(val);
                    fr[dst as usize] = Some(eval_cast(op, from, to, v));
                }
                Op::Select {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    tick!(cost::OTHER);
                    let v = if bits!(cond) & 1 != 0 {
                        val!(if_true)
                    } else {
                        val!(if_false)
                    };
                    fr[dst as usize] = Some(v);
                }
                Op::Call { dst, call } => {
                    tick!(cost::ACCESS);
                    let site = &flat.calls[call as usize];
                    scratch.argv.clear();
                    for s in site.args.iter() {
                        let v = val!(*s);
                        scratch.argv.push(v);
                    }
                    let (callee, ret) = match &site.target {
                        Target::Func(fi) => (*fi, Ret::Slot(dst)),
                        Target::Indirect(t) => {
                            (tri!(resolve_func(module, bits!(*t))), Ret::Slot(dst))
                        }
                        Target::Unknown(name) => {
                            fail!(ExecError::BadCall(format!("unknown extern @{name}")))
                        }
                        Target::Extern(ext, floats) => {
                            let Scratch {
                                argv,
                                ints,
                                floats: fls,
                                ..
                            } = &mut *scratch;
                            ints.clear();
                            fls.clear();
                            for (v, is_float) in argv.iter().zip(floats.iter()) {
                                if *is_float {
                                    fls.push(v.f64());
                                } else {
                                    ints.push(v.bits());
                                }
                            }
                            let val = match ext {
                                Extern::Sqrt => {
                                    Some(fls.first().map_or(0.0, |x| x.sqrt()).to_bits())
                                }
                                Extern::PthreadCreate => {
                                    let thread = rt.begin_thread(mem, ints, cycles);
                                    let fi = tri!(resolve_func(module, thread.entry));
                                    argv.clear();
                                    argv.push(Val::B64(thread.arg));
                                    let parent_stack =
                                        std::mem::replace(stack_next, thread.stack_top);
                                    frame.pc = pc as u32;
                                    let ret = Ret::Thread {
                                        thread,
                                        parent_stack,
                                        dst,
                                    };
                                    break 'run Ok(Exit::Call(fi, ret));
                                }
                                _ => match rt.call(*ext, mem, ints, fls) {
                                    Ok((val, c)) => {
                                        cycles += c;
                                        val
                                    }
                                    Err(t) => fail!(ExecError::Trap(t.0)),
                                },
                            };
                            fr[dst as usize] = val.map(Val::B64);
                            continue;
                        }
                    };
                    frame.pc = pc as u32;
                    break 'run Ok(Exit::Call(callee, ret));
                }
                Op::PhiOutOfPrefix => {
                    tick!(cost::OTHER);
                    fail!(ExecError::Trap("phi executed out of prefix".to_string()));
                }
                Op::Extract { ty, idx, dst, vec } => {
                    tick!(cost::OTHER);
                    let v = val!(vec).v128();
                    let lane = ty.size() as usize;
                    let off = idx as usize * lane;
                    let mut b = [0u8; 8];
                    b[..lane].copy_from_slice(&v[off..off + lane]);
                    fr[dst as usize] = Some(Val::B64(u64::from_le_bytes(b)));
                }
                Op::Insert {
                    elt_ty,
                    idx,
                    dst,
                    vec,
                    elt,
                } => {
                    tick!(cost::OTHER);
                    let mut v = match val!(vec) {
                        Val::B128(b) => b,
                        Val::B64(_) => [0u8; 16],
                    };
                    let lane = elt_ty.size() as usize;
                    let e = bits!(elt);
                    let off = idx as usize * lane;
                    v[off..off + lane].copy_from_slice(&e.to_le_bytes()[..lane]);
                    fr[dst as usize] = Some(Val::B128(v));
                }
                Op::IllTyped { inst } => {
                    // It still stops at the step limit first.
                    if left == 0 {
                        fail!(ExecError::StepLimit);
                    }
                    panic!("%{} in @{} has an operand of no type", inst.0, flat.name);
                }
                Op::Idle => {
                    if left != idle_mark {
                        (idle_mark, idle_runs) = (left, 0);
                    }
                    idle_runs += 1;
                    if idle_runs > flat.code.len() {
                        fail!(ExecError::StepLimit);
                    }
                }
                Op::Jump { target } => pc = target as usize,
                Op::Br { edge } => pc = edge!(edge),
                Op::CondBr {
                    cond,
                    if_true,
                    if_false,
                } => {
                    let e = if bits!(cond) & 1 != 0 {
                        if_true
                    } else {
                        if_false
                    };
                    pc = edge!(e);
                }
                Op::Ret { val } => break 'run Ok(Exit::Return(Some(val!(val)))),
                Op::RetVoid => break 'run Ok(Exit::Return(None)),
                Op::Unreachable => fail!(ExecError::Trap(format!(
                    "reached unreachable in @{}",
                    flat.name
                ))),
            }
        };
        *steps_left = left;
        stats.insts += budget - left;
        stats.cycles = cycles;
        out
    }
}

/// The function at pseudo-address `addr`.
pub(super) fn resolve_func(module: &Module, addr: u64) -> Result<FuncId, ExecError> {
    if addr >= FUNC_ADDR_BASE {
        let idx = (addr - FUNC_ADDR_BASE) / 16;
        if (idx as usize) < module.funcs.len() && (addr - FUNC_ADDR_BASE) % 16 == 0 {
            return Ok(FuncId(idx as u32));
        }
    }
    Err(ExecError::BadCall(format!("no function at {addr:#x}")))
}
