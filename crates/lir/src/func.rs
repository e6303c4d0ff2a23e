//! LIR functions, basic blocks, and modules.

use crate::inst::{
    BlockId, Callee, ExternId, FuncId, GlobalId, Inst, InstId, InstKind, Operand, Terminator,
};
use crate::types::Ty;

/// A basic block: an ordered list of instruction ids plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Instructions in execution order (ids into [`Function::insts`]).
    pub insts: Vec<InstId>,
    /// Terminator ([`Terminator::Unreachable`] while under construction).
    pub term: Terminator,
}

impl Block {
    fn new() -> Block {
        Block {
            insts: Vec::new(),
            term: Terminator::Unreachable,
        }
    }
}

/// A function: parameters, an instruction arena, and a block list.
///
/// Instruction *identity* lives in the arena ([`Function::insts`]); program
/// order lives in the per-block `insts` vectors. Passes that delete code
/// remove ids from blocks; the arena slot stays behind as garbage until
/// [`Function::compact`] (ids are never reused in between, so passes can
/// keep side tables keyed by [`InstId`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
    /// Instruction arena.
    pub insts: Vec<Inst>,
    /// Basic blocks; `BlockId(0)` is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Creates a function with a single empty entry block.
    pub fn new(name: &str, params: Vec<Ty>, ret: Ty) -> Function {
        Function {
            name: name.to_string(),
            params,
            ret,
            insts: Vec::new(),
            blocks: vec![Block::new()],
        }
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Adds a new empty block.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::new());
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Appends an instruction to `block`, returning its id.
    pub fn push(&mut self, block: BlockId, ty: Ty, kind: InstKind) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(Inst { ty, kind });
        self.block_mut(block).insts.push(id);
        id
    }

    /// Inserts an instruction at position `at` of `block`.
    pub fn insert(&mut self, block: BlockId, at: usize, ty: Ty, kind: InstKind) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(Inst { ty, kind });
        self.block_mut(block).insts.insert(at, id);
        id
    }

    /// Sets the terminator of `block`.
    pub fn set_term(&mut self, block: BlockId, term: Terminator) {
        self.block_mut(block).term = term;
    }

    /// Immutable instruction access.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.0 as usize]
    }

    /// Mutable instruction access.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.0 as usize]
    }

    /// Immutable block access.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable block access.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// All block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Iterates `(block, inst)` pairs in layout order.
    pub fn iter_insts(&self) -> impl Iterator<Item = (BlockId, InstId)> + '_ {
        self.block_ids()
            .flat_map(move |b| self.block(b).insts.iter().map(move |i| (b, *i)))
    }

    /// Number of live (reachable-from-blocks) instructions.
    pub fn live_inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Replaces every use of `from` (an instruction result) with operand
    /// `to`, in all instructions and terminators.
    ///
    /// One call costs O(arena): it visits every instruction ever pushed,
    /// dead or alive. It exists only as the eager reference the
    /// [`Subst`](crate::subst::Subst) tests compare against; passes record
    /// replacements in a `Subst` and apply it once.
    #[cfg(test)]
    pub fn replace_all_uses(&mut self, from: InstId, to: Operand) {
        for inst in &mut self.insts {
            inst.kind.for_each_operand_mut(|op| {
                if *op == Operand::Inst(from) {
                    *op = to;
                }
            });
        }
        for block in &mut self.blocks {
            block.term.for_each_operand_mut(|op| {
                if *op == Operand::Inst(from) {
                    *op = to;
                }
            });
        }
    }

    /// Counts uses of each instruction result (in instructions and
    /// terminators), indexed by instruction id.
    pub fn use_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.insts.len()];
        let mut bump = |op: &Operand| {
            if let Operand::Inst(id) = op {
                counts[id.0 as usize] += 1;
            }
        };
        for b in &self.blocks {
            for id in &b.insts {
                self.inst(*id).kind.for_each_operand(&mut bump);
            }
            b.term.for_each_operand(&mut bump);
        }
        counts
    }

    /// Whether [`Function::compact`] would be a no-op: the arena holds no
    /// dead instructions and the block-walk order already assigns ids
    /// `0..n` in sequence. When this holds, `compact()` rebuilds the arena
    /// into byte-identical state, so callers may skip it.
    pub fn is_compacted(&self) -> bool {
        if self.live_inst_count() != self.insts.len() {
            return false;
        }
        let mut next = 0u32;
        for b in &self.blocks {
            for id in &b.insts {
                if id.0 != next {
                    return false;
                }
                next += 1;
            }
        }
        true
    }

    /// Rebuilds the arena keeping only instructions referenced by blocks,
    /// renumbering ids densely. Returns the number of dropped instructions.
    /// Live instructions are moved into the new arena, not cloned.
    pub fn compact(&mut self) -> usize {
        let mut old = std::mem::take(&mut self.insts);
        let mut remap = vec![None::<InstId>; old.len()];
        let mut new_insts = Vec::with_capacity(self.live_inst_count());
        for b in &self.blocks {
            for id in &b.insts {
                let new_id = InstId(new_insts.len() as u32);
                let moved = Inst {
                    ty: Ty::Void,
                    kind: InstKind::Alloca { size: 0 },
                };
                new_insts.push(std::mem::replace(&mut old[id.0 as usize], moved));
                remap[id.0 as usize] = Some(new_id);
            }
        }
        let dropped = old.len() - new_insts.len();
        let fix = |op: &mut Operand| {
            if let Operand::Inst(id) = op {
                *op = Operand::Inst(remap[id.0 as usize].expect("use of dead instruction"));
            }
        };
        for inst in &mut new_insts {
            inst.kind.for_each_operand_mut(fix);
        }
        for b in &mut self.blocks {
            for id in &mut b.insts {
                *id = remap[id.0 as usize].unwrap();
            }
            b.term.for_each_operand_mut(fix);
        }
        self.insts = new_insts;
        dropped
    }
}

/// A module-level global data object.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalVar {
    /// Symbol name.
    pub name: String,
    /// Byte size.
    pub size: u64,
    /// Initial bytes (zero-filled to `size` if shorter).
    pub init: Vec<u8>,
    /// Load address carried over from the source binary, used by the
    /// interpreter and the Arm backend to lay out the data section.
    pub addr: u64,
}

/// An external function declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternDecl {
    /// Symbol name (e.g. `pthread_create`).
    pub name: String,
    /// Parameter types (best-effort; variadic externs accept more).
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
    /// Whether extra arguments are allowed (`printf`).
    pub variadic: bool,
}

/// A compilation module: functions, globals, and extern declarations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Functions; indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// Globals; indexed by [`GlobalId`].
    pub globals: Vec<GlobalVar>,
    /// Extern declarations; indexed by [`ExternId`].
    pub externs: Vec<ExternDecl>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Adds a function, returning its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        self.funcs.push(f);
        FuncId(self.funcs.len() as u32 - 1)
    }

    /// Adds a global, returning its id.
    pub fn add_global(&mut self, g: GlobalVar) -> GlobalId {
        self.globals.push(g);
        GlobalId(self.globals.len() as u32 - 1)
    }

    /// Adds (or finds) an extern declaration by name.
    pub fn declare_extern(&mut self, decl: ExternDecl) -> ExternId {
        if let Some(i) = self.externs.iter().position(|e| e.name == decl.name) {
            return ExternId(i as u32);
        }
        self.externs.push(decl);
        ExternId(self.externs.len() as u32 - 1)
    }

    /// Function lookup by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Immutable function access.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Mutable function access.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.0 as usize]
    }

    /// Immutable global access.
    pub fn global(&self, id: GlobalId) -> &GlobalVar {
        &self.globals[id.0 as usize]
    }

    /// Immutable extern access.
    pub fn ext(&self, id: ExternId) -> &ExternDecl {
        &self.externs[id.0 as usize]
    }

    /// The type of an operand, resolved against function `f`.
    pub fn operand_ty(&self, f: &Function, op: &Operand) -> Ty {
        match op {
            Operand::Inst(id) => f.inst(*id).ty,
            Operand::Param(i) => f.params[*i as usize],
            Operand::ConstInt { ty, .. } => *ty,
            Operand::ConstF32(_) => Ty::F32,
            Operand::ConstF64(_) => Ty::F64,
            Operand::Global(_) => Ty::Ptr(crate::types::Pointee::I8),
            Operand::Func(_) => Ty::Ptr(crate::types::Pointee::I8),
            Operand::Undef(ty) => *ty,
        }
    }

    /// Total live instruction count across all functions — the code-size
    /// metric of Figure 16 ("in terms of LLVM instructions").
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(Function::live_inst_count).sum()
    }

    /// Counts instructions matching a predicate across all functions.
    pub fn count_insts(&self, mut pred: impl FnMut(&Inst) -> bool) -> usize {
        self.funcs
            .iter()
            .flat_map(|f| f.iter_insts().map(move |(_, id)| f.inst(id)))
            .filter(|i| pred(i))
            .count()
    }
}

/// Resolves a [`Callee`] to a printable name.
pub fn callee_name(m: &Module, callee: &Callee) -> String {
    match callee {
        Callee::Func(id) => format!("@{}", m.func(*id).name),
        Callee::Extern(id) => format!("@{}", m.ext(*id).name),
        Callee::Indirect(_) => "@<indirect>".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Ordering};

    fn sample() -> Function {
        let mut f = Function::new("f", vec![Ty::I64, Ty::I64], Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::Param(1),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(a)),
            },
        );
        f
    }

    #[test]
    fn build_and_count() {
        let f = sample();
        assert_eq!(f.live_inst_count(), 1);
        assert_eq!(f.use_counts(), vec![1]);
    }

    #[test]
    fn replace_uses() {
        let mut f = sample();
        f.replace_all_uses(InstId(0), Operand::i64(7));
        match &f.block(f.entry()).term {
            Terminator::Ret { val: Some(v) } => assert_eq!(v.as_const_int(), Some(7)),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn compact_drops_dead() {
        let mut f = sample();
        // Make a dead arena entry by clearing the block and re-adding a ret.
        let dead = f.push(
            f.entry(),
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Operand::i64(1),
                rhs: Operand::i64(2),
            },
        );
        let e = f.entry();
        f.block_mut(e).insts.retain(|i| *i != dead);
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::i64(0)),
            },
        );
        assert_eq!(f.compact(), 1);
        assert_eq!(f.insts.len(), 1);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        let id = m.add_func(sample());
        assert_eq!(m.func_by_name("f"), Some(id));
        assert_eq!(m.func_by_name("missing"), None);
        let e1 = m.declare_extern(ExternDecl {
            name: "malloc".into(),
            params: vec![Ty::I64],
            ret: Ty::Ptr(crate::types::Pointee::I8),
            variadic: false,
        });
        let e2 = m.declare_extern(ExternDecl {
            name: "malloc".into(),
            params: vec![],
            ret: Ty::Void,
            variadic: false,
        });
        assert_eq!(e1, e2);
    }

    #[test]
    fn operand_types() {
        let m = Module::new();
        let f = sample();
        assert_eq!(m.operand_ty(&f, &Operand::Param(0)), Ty::I64);
        assert_eq!(m.operand_ty(&f, &Operand::Inst(InstId(0))), Ty::I64);
        assert_eq!(m.operand_ty(&f, &Operand::f64(1.0)), Ty::F64);
    }

    #[test]
    fn store_in_block_has_effects() {
        let mut f = Function::new("g", vec![Ty::Ptr(crate::types::Pointee::I64)], Ty::Void);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(1),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        assert!(f.inst(InstId(0)).kind.has_side_effects());
    }
}
