//! SSA construction, two ways.
//!
//! - [`SsaBuilder`] builds SSA while code is being produced, for a fixed
//!   set of variables (Braun et al., CC 2013). The lifter keeps the 16
//!   GPRs and 5 status flags in one, so registers and EFLAGS are SSA
//!   values from the start, as in mctoll; no slot is ever emitted for
//!   them.
//! - [`promote_allocas`] promotes memory slots (`alloca`s) that already
//!   exist, with φ-insertion: the classic `mem2reg` algorithm (iterated
//!   dominance frontiers + dominator-tree renaming). The optimizer
//!   re-exports it as the `mem2reg` pass of Figure 17, which finds the
//!   XMM slots the lifter leaves in memory.

use crate::analysis::{Cfg, Dominators};
use crate::func::Function;
use crate::inst::{BlockId, Inst, InstId, InstKind, Operand, Ordering};
use crate::subst::{group_of, Subst, NO_GROUP};
use crate::types::Ty;

/// Operand type resolvable without a module (globals/functions are `i8*`).
fn local_operand_ty(f: &Function, op: &Operand) -> Ty {
    match op {
        Operand::Inst(id) => f.inst(*id).ty,
        Operand::Param(i) => f.params[*i as usize],
        Operand::ConstInt { ty, .. } => *ty,
        Operand::ConstF32(_) => Ty::F32,
        Operand::ConstF64(_) => Ty::F64,
        Operand::Global(_) | Operand::Func(_) => Ty::Ptr(crate::types::Pointee::I8),
        Operand::Undef(ty) => *ty,
    }
}

/// A promotion candidate while its uses are being checked.
struct Candidate {
    id: InstId,
    ok: bool,
    /// The type every load agrees on, so far.
    loaded: Option<Ty>,
    /// The value of the first store in layout order (types a store-only
    /// slot).
    first_store: Option<Operand>,
}

/// Decides, in one pass over the instructions, which eligible `alloca`s
/// can be promoted. An alloca is promotable when every use is the direct
/// pointer operand of a non-atomic load or store (which must not store
/// the pointer itself as a value) and all loads agree on one loaded type;
/// a slot that is only stored to takes the type of its first stored
/// value. Uses in terminators are not examined.
///
/// Returns the promotable slots with their types, in layout order, and
/// `slot_of`: for each arena id, the index of its slot or [`NO_GROUP`].
fn promotable_slots(
    f: &Function,
    mut eligible: impl FnMut(&Function, InstId) -> bool,
) -> (Vec<(InstId, Ty)>, Vec<u32>) {
    let mut slot_of = vec![NO_GROUP; f.insts.len()];
    let mut cands: Vec<Candidate> = Vec::new();
    for (_, id) in f.iter_insts() {
        if matches!(f.inst(id).kind, InstKind::Alloca { .. }) && eligible(f, id) {
            slot_of[id.0 as usize] = cands.len() as u32;
            cands.push(Candidate {
                id,
                ok: true,
                loaded: None,
                first_store: None,
            });
        }
    }
    if cands.is_empty() {
        return (Vec::new(), slot_of);
    }
    let cand = |op: &Operand| group_of(&slot_of, op);
    for (_, iid) in f.iter_insts() {
        let inst = f.inst(iid);
        match &inst.kind {
            InstKind::Load { ptr, order } => {
                if let Some(c) = cand(ptr) {
                    let c = &mut cands[c];
                    match (order, c.loaded) {
                        (Ordering::NotAtomic, None) => c.loaded = Some(inst.ty),
                        (Ordering::NotAtomic, Some(t)) if t == inst.ty => {}
                        _ => c.ok = false,
                    }
                }
            }
            InstKind::Store { ptr, val, order } => {
                if let Some(c) = cand(ptr) {
                    let c = &mut cands[c];
                    c.first_store.get_or_insert(*val);
                    if *order != Ordering::NotAtomic || val == ptr {
                        c.ok = false;
                    }
                }
                // Storing a slot's address lets it escape.
                if let Some(c) = cand(val) {
                    cands[c].ok = false;
                }
            }
            kind => kind.for_each_operand(|op| {
                if let Some(c) = cand(op) {
                    cands[c].ok = false;
                }
            }),
        }
    }
    let mut slots = Vec::new();
    for c in &cands {
        let ty = c
            .loaded
            .or_else(|| c.first_store.map(|v| local_operand_ty(f, &v)));
        slot_of[c.id.0 as usize] = match ty {
            Some(ty) if c.ok => {
                slots.push((c.id, ty));
                slots.len() as u32 - 1
            }
            _ => NO_GROUP,
        };
    }
    (slots, slot_of)
}

/// Promotes eligible `alloca`s in `f` to SSA, inserting φ-nodes.
///
/// `eligible` filters which allocas to consider (use `|_| true` for all).
/// Returns the number of promoted slots.
///
/// Runs in time linear in the function plus the φs it places and a
/// blocks × slots table of exit values: the slots are found in one pass,
/// and the renaming walk records replaced loads in a [`Subst`] that is
/// applied in one final sweep.
pub fn promote_allocas(f: &mut Function, eligible: impl FnMut(&Function, InstId) -> bool) -> usize {
    let (slots, slot_of) = promotable_slots(f, eligible);
    if slots.is_empty() {
        return 0;
    }
    let slot_at = |op: &Operand| group_of(&slot_of, op);
    let cfg = Cfg::compute(f);
    let doms = Dominators::compute(&cfg);
    let df = doms.frontiers(&cfg);
    let nblocks = f.blocks.len();
    let nslots = slots.len();

    // Phase 1: place φs at iterated dominance frontiers of def (store)
    // blocks. `new_phis[b]` lists `(slot, φ)` in creation order; each φ is
    // spliced in at the top of its block, newest first.
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); nslots];
    for b in f.block_ids() {
        for iid in &f.block(b).insts {
            if let InstKind::Store { ptr, .. } = &f.inst(*iid).kind {
                if let Some(si) = slot_at(ptr) {
                    if def_blocks[si].last() != Some(&b) {
                        def_blocks[si].push(b);
                    }
                }
            }
        }
    }
    let mut new_phis: Vec<Vec<(usize, InstId)>> = vec![Vec::new(); nblocks];
    // `placed[b]`: the slot that last got a φ at `b`.
    let mut placed = vec![NO_GROUP; nblocks];
    for (si, mut work) in def_blocks.into_iter().enumerate() {
        while let Some(b) = work.pop() {
            if !cfg.reachable(b) {
                continue;
            }
            for &fb in &df[b.0 as usize] {
                if placed[fb.0 as usize] != si as u32 {
                    placed[fb.0 as usize] = si as u32;
                    let phi = InstId(f.insts.len() as u32);
                    f.insts.push(Inst {
                        ty: slots[si].1,
                        kind: InstKind::Phi { incoming: vec![] },
                    });
                    new_phis[fb.0 as usize].push((si, phi));
                    work.push(fb);
                }
            }
        }
    }
    for (b, phis) in new_phis.iter().enumerate() {
        if !phis.is_empty() {
            let insts = &mut f.blocks[b].insts;
            insts.splice(0..0, phis.iter().rev().map(|(_, phi)| *phi));
        }
    }

    // Phase 2: rename along the dominator tree. A block enters with its
    // immediate dominator's exit values; `exit[b * nslots + si]` holds
    // slot `si`'s value at the end of block `b`.
    let mut exit: Vec<Operand> = vec![Operand::Undef(Ty::Void); nblocks * nslots];
    let mut visited = vec![false; nblocks];
    let mut delete = vec![false; f.insts.len()];
    let mut subst = Subst::new();
    let mut vals: Vec<Operand> = Vec::with_capacity(nslots);
    let mut stack: Vec<BlockId> = vec![BlockId(0)];
    while let Some(b) = stack.pop() {
        vals.clear();
        match doms.idom[b.0 as usize] {
            Some(d) => {
                let d = d.0 as usize * nslots;
                vals.extend_from_slice(&exit[d..d + nslots]);
            }
            None => vals.extend(slots.iter().map(|(_, ty)| Operand::Undef(*ty))),
        }
        // φs at block start define new values.
        for &(si, phi) in &new_phis[b.0 as usize] {
            vals[si] = Operand::Inst(phi);
        }
        for &iid in &f.block(b).insts {
            match &f.inst(iid).kind {
                InstKind::Load { ptr, .. } => {
                    if let Some(si) = slot_at(ptr) {
                        subst.replace(iid, vals[si]);
                        delete[iid.0 as usize] = true;
                    }
                }
                InstKind::Store { ptr, val, .. } => {
                    if let Some(si) = slot_at(ptr) {
                        vals[si] = subst.resolve(*val);
                        delete[iid.0 as usize] = true;
                    }
                }
                _ => {}
            }
        }
        let at = b.0 as usize * nslots;
        exit[at..at + nslots].copy_from_slice(&vals);
        visited[b.0 as usize] = true;
        stack.extend_from_slice(doms.children(b));
    }
    subst.apply(f);

    // Phase 3: fill φ incoming lists from predecessor exit values.
    for (b, phis) in new_phis.iter().enumerate() {
        for &(si, phi) in phis {
            let mut incoming = Vec::new();
            for &p in &cfg.preds[b] {
                if !cfg.reachable(p) {
                    continue;
                }
                // A self-referencing φ through a loop is fine and correct.
                let v = if visited[p.0 as usize] {
                    exit[p.0 as usize * nslots + si]
                } else {
                    Operand::Undef(slots[si].1)
                };
                incoming.push((p, v));
            }
            if let InstKind::Phi { incoming: inc } = &mut f.inst_mut(phi).kind {
                *inc = incoming;
            }
        }
    }

    // Phase 4: delete promoted loads/stores and the allocas themselves.
    for (slot, _) in &slots {
        delete[slot.0 as usize] = true;
    }
    for block in &mut f.blocks {
        block.insts.retain(|i| !delete[i.0 as usize]);
    }

    // Prune trivial φs (single unique incoming value, or only self + one).
    prune_trivial_phis(f);

    slots.len()
}

/// Removes φs whose incoming values are all identical (ignoring
/// self-references), replacing them with that value. Sweeps the φs in
/// layout order to a fixpoint and returns the number removed.
///
/// Replacements are recorded in one [`Subst`] and incoming values are
/// read through it, so each sweep is linear and the function is
/// rewritten once, at the end.
pub fn prune_trivial_phis(f: &mut Function) -> usize {
    let phis: Vec<InstId> = f
        .iter_insts()
        .map(|(_, id)| id)
        .filter(|id| matches!(f.inst(*id).kind, InstKind::Phi { .. }))
        .collect();
    let mut subst = Subst::new();
    let mut removed = vec![false; f.insts.len()];
    let mut count = 0;
    loop {
        let mut did = false;
        for &id in &phis {
            if removed[id.0 as usize] {
                continue;
            }
            let InstKind::Phi { incoming } = &f.inst(id).kind else {
                unreachable!("φ list out of date");
            };
            let mut unique: Option<Operand> = None;
            let mut trivial = true;
            for (_, v) in incoming {
                let v = subst.resolve(*v);
                if v == Operand::Inst(id) {
                    continue; // self-reference through loop
                }
                match unique {
                    None => unique = Some(v),
                    Some(u) if u == v => {}
                    _ => {
                        trivial = false;
                        break;
                    }
                }
            }
            if trivial {
                let rep = unique.unwrap_or(Operand::Undef(f.inst(id).ty));
                subst.replace(id, rep);
                removed[id.0 as usize] = true;
                count += 1;
                did = true;
            }
        }
        if !did {
            break;
        }
    }
    if count > 0 {
        for block in &mut f.blocks {
            block.insts.retain(|i| !removed[i.0 as usize]);
        }
        subst.apply(f);
    }
    count
}

/// On-the-fly SSA construction for a fixed set of variables, after Braun
/// et al., "Simple and Efficient Construction of SSA Form" (CC 2013).
///
/// A producer that knows its CFG up front (the lifter: one LIR block per
/// machine block) fills blocks in any order, calling [`SsaBuilder::write`]
/// for each definition of a variable and [`SsaBuilder::read`] for each use,
/// and [`SsaBuilder::fill`] once a block's last instruction and terminator
/// are in place. No memory slot, load or store is ever emitted, so there
/// is nothing for [`promote_allocas`] to clean up.
///
/// - A block is *sealed* once all its predecessors are filled. A read in
///   an unsealed block makes an incomplete φ, completed when the block is
///   sealed.
/// - A read in a sealed block with one predecessor continues in that
///   predecessor; with several it makes a φ and reads each incoming value
///   from its predecessor (iteratively, through a work list, so long
///   chains of blocks cost no stack).
/// - Trivial φs (one distinct incoming value besides themselves) are
///   recorded in a [`Subst`] as they are found. [`SsaBuilder::finish`]
///   runs one fixpoint over the created φs, then removes redundant φ
///   cycles (the SCC pass that makes the result minimal for irreducible
///   control flow too), splices the survivors at their block heads,
///   highest variable first, and applies the `Subst` once.
///
/// Predecessors are taken in [`Cfg::compute`] order and unreachable ones
/// are ignored; a read in a block no path from the entry reaches is
/// `undef`. For programs without copies this gives every read the value
/// [`promote_allocas`] gives the equivalent slot load, with none of the
/// dead φs promotion leaves behind: a φ is made only when a read needs it.
pub struct SsaBuilder {
    /// The type of each variable.
    tys: Vec<Ty>,
    /// Successors per block: `succ_list[succ_start[b]..succ_start[b + 1]]`.
    succ_start: Vec<u32>,
    succ_list: Vec<BlockId>,
    /// Reachable predecessors per block, in `Cfg::compute` order.
    pred_start: Vec<u32>,
    pred_list: Vec<BlockId>,
    /// Whether the entry reaches each block.
    reachable: Vec<bool>,
    /// Predecessors of each block not yet filled; a block is sealed at 0.
    unfilled: Vec<u32>,
    /// The current definition of variable `v` in block `b`, at
    /// `defs[b * nvars + v]`.
    defs: Vec<Option<Operand>>,
    /// Incomplete φs of each unsealed block, as `(variable, φ)`.
    incomplete: Vec<Vec<(u32, InstId)>>,
    /// Every φ made, as `(block, variable, φ)`.
    phis: Vec<(BlockId, u32, InstId)>,
    /// φs whose incoming values are still to be read.
    pending: Vec<(BlockId, u32, InstId)>,
    /// Blocks a lookup walked through (scratch).
    chain: Vec<BlockId>,
    subst: Subst,
}

impl SsaBuilder {
    /// A builder for variables of types `tys` over `nblocks` blocks whose
    /// CFG edges are `edges`, listed by source block in block order and,
    /// within a block, in terminator successor order (the order
    /// [`crate::inst::Terminator::successors`] gives). Block 0 is the
    /// entry.
    pub fn new(tys: Vec<Ty>, nblocks: usize, edges: &[(BlockId, BlockId)]) -> SsaBuilder {
        let mut succ_start = vec![0u32; nblocks + 1];
        for (from, _) in edges {
            succ_start[from.0 as usize + 1] += 1;
        }
        for b in 0..nblocks {
            succ_start[b + 1] += succ_start[b];
        }
        let succ_list: Vec<BlockId> = edges.iter().map(|(_, to)| *to).collect();
        let mut reachable = vec![false; nblocks];
        let mut stack = vec![BlockId(0)];
        reachable[0] = true;
        while let Some(b) = stack.pop() {
            let b = b.0 as usize;
            for &s in &succ_list[succ_start[b] as usize..succ_start[b + 1] as usize] {
                if !reachable[s.0 as usize] {
                    reachable[s.0 as usize] = true;
                    stack.push(s);
                }
            }
        }
        // A stable counting sort by target keeps each block's predecessors
        // in source-block order, as `Cfg::compute` lists them.
        let mut pred_start = vec![0u32; nblocks + 1];
        for (from, to) in edges {
            if reachable[from.0 as usize] {
                pred_start[to.0 as usize + 1] += 1;
            }
        }
        for b in 0..nblocks {
            pred_start[b + 1] += pred_start[b];
        }
        let mut next = pred_start.clone();
        let mut pred_list = vec![BlockId(0); pred_start[nblocks] as usize];
        for (from, to) in edges {
            if reachable[from.0 as usize] {
                pred_list[next[to.0 as usize] as usize] = *from;
                next[to.0 as usize] += 1;
            }
        }
        let unfilled = (0..nblocks)
            .map(|b| pred_start[b + 1] - pred_start[b])
            .collect();
        let nvars = tys.len();
        SsaBuilder {
            tys,
            succ_start,
            succ_list,
            pred_start,
            pred_list,
            reachable,
            unfilled,
            defs: vec![None; nblocks * nvars],
            incomplete: vec![Vec::new(); nblocks],
            phis: Vec::new(),
            pending: Vec::new(),
            chain: Vec::new(),
            subst: Subst::new(),
        }
    }

    fn preds(&self, b: BlockId) -> std::ops::Range<usize> {
        self.pred_start[b.0 as usize] as usize..self.pred_start[b.0 as usize + 1] as usize
    }

    fn def_at(&self, b: BlockId, var: usize) -> usize {
        b.0 as usize * self.tys.len() + var
    }

    /// Records `v` as the current value of `var` in block `b`.
    pub fn write(&mut self, b: BlockId, var: usize, v: Operand) {
        let at = self.def_at(b, var);
        self.defs[at] = Some(v);
    }

    /// The value of `var` at the current end of block `b`, making φs in
    /// `f` as needed.
    pub fn read(&mut self, f: &mut Function, b: BlockId, var: usize) -> Operand {
        let v = self.lookup(f, b, var);
        self.complete_pending(f);
        v
    }

    /// Marks block `b` filled: its definitions are final. Each successor
    /// whose predecessors are now all filled is sealed.
    pub fn fill(&mut self, f: &mut Function, b: BlockId) {
        if !self.reachable[b.0 as usize] {
            return;
        }
        let b = b.0 as usize;
        for i in self.succ_start[b] as usize..self.succ_start[b + 1] as usize {
            let s = self.succ_list[i];
            self.unfilled[s.0 as usize] -= 1;
            if self.unfilled[s.0 as usize] == 0 {
                for (var, phi) in std::mem::take(&mut self.incomplete[s.0 as usize]) {
                    self.pending.push((s, var, phi));
                }
                self.complete_pending(f);
            }
        }
    }

    /// Looks `var` up from the end of `b`, walking single-predecessor
    /// chains. A φ made at a sealed join is queued on `pending`; the value
    /// found is recorded in every block walked through.
    fn lookup(&mut self, f: &mut Function, b: BlockId, var: usize) -> Operand {
        self.chain.clear();
        let mut cur = b;
        let val = loop {
            if let Some(v) = self.defs[self.def_at(cur, var)] {
                break self.subst.resolve(v);
            }
            if self.unfilled[cur.0 as usize] > 0 {
                let phi = self.new_phi(f, cur, var);
                self.incomplete[cur.0 as usize].push((var as u32, phi));
                break Operand::Inst(phi);
            }
            let preds = self.preds(cur);
            match preds.len() {
                0 => break Operand::Undef(self.tys[var]),
                1 => {
                    self.chain.push(cur);
                    cur = self.pred_list[preds.start];
                }
                _ => {
                    let phi = self.new_phi(f, cur, var);
                    self.pending.push((cur, var as u32, phi));
                    break Operand::Inst(phi);
                }
            }
        };
        let at = self.def_at(cur, var);
        self.defs[at] = Some(val);
        for i in 0..self.chain.len() {
            let at = self.def_at(self.chain[i], var);
            self.defs[at] = Some(val);
        }
        val
    }

    fn new_phi(&mut self, f: &mut Function, b: BlockId, var: usize) -> InstId {
        let phi = InstId(f.insts.len() as u32);
        f.insts.push(Inst {
            ty: self.tys[var],
            kind: InstKind::Phi {
                incoming: Vec::new(),
            },
        });
        self.phis.push((b, var as u32, phi));
        phi
    }

    /// Reads the incoming values of every queued φ (which may queue
    /// more) and records each φ that turns out trivial.
    fn complete_pending(&mut self, f: &mut Function) {
        while let Some((b, var, phi)) = self.pending.pop() {
            let mut incoming = Vec::with_capacity(self.preds(b).len());
            for i in self.preds(b) {
                let p = self.pred_list[i];
                incoming.push((p, self.lookup(f, p, var as usize)));
            }
            f.inst_mut(phi).kind = InstKind::Phi { incoming };
            if let Some(v) = self.trivial_value(f, phi) {
                self.subst.replace(phi, v);
            }
        }
    }

    /// The value `phi` stands for if it is trivial: its one distinct
    /// incoming value other than itself (`undef` if it has none).
    fn trivial_value(&mut self, f: &Function, phi: InstId) -> Option<Operand> {
        let inst = f.inst(phi);
        let InstKind::Phi { incoming } = &inst.kind else {
            unreachable!("not a φ");
        };
        let mut unique: Option<Operand> = None;
        for (_, v) in incoming {
            let v = self.subst.resolve(*v);
            if v == Operand::Inst(phi) {
                continue;
            }
            match unique {
                None => unique = Some(v),
                Some(u) if u == v => {}
                _ => return None,
            }
        }
        Some(unique.unwrap_or(Operand::Undef(inst.ty)))
    }

    /// Whether `phi` has not been replaced.
    fn kept(&mut self, phi: InstId) -> bool {
        self.subst.resolve(Operand::Inst(phi)) == Operand::Inst(phi)
    }

    /// Removes the remaining trivial and redundant φs, places the others
    /// and rewrites `f` through the recorded replacements. Every block
    /// must have been filled; the builder is spent afterwards.
    pub fn finish(&mut self, f: &mut Function) {
        debug_assert!(self.pending.is_empty());
        debug_assert!(self.incomplete.iter().all(Vec::is_empty));
        // Trivial φs whose operands were replaced after they were read.
        loop {
            let mut changed = false;
            for i in 0..self.phis.len() {
                let phi = self.phis[i].2;
                if self.kept(phi) {
                    if let Some(v) = self.trivial_value(f, phi) {
                        self.subst.replace(phi, v);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut kept: Vec<(BlockId, u32, InstId)> = Vec::new();
        for i in 0..self.phis.len() {
            if self.kept(self.phis[i].2) {
                kept.push(self.phis[i]);
            }
        }
        if !kept.is_empty() {
            let nodes: Vec<InstId> = kept.iter().map(|p| p.2).collect();
            let mut marks = PhiMarks::new(f.insts.len());
            self.remove_redundant(f, &nodes, &mut marks);
            kept.retain(|p| self.kept(p.2));
            // Highest variable first at each block head.
            kept.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
            for group in kept.chunk_by(|a, b| a.0 == b.0) {
                let insts = &mut f.blocks[group[0].0 .0 as usize].insts;
                insts.splice(0..0, group.iter().map(|p| p.2));
            }
        }
        self.subst.apply(f);
    }

    /// Braun et al.'s Algorithm 5: in each strongly connected component
    /// of the φ graph over `nodes` (operands first), a set of φs whose
    /// operands from outside the component are one value `v` all stand
    /// for `v`; otherwise the search recurses into the φs whose operands
    /// all lie inside.
    fn remove_redundant(&mut self, f: &Function, nodes: &[InstId], marks: &mut PhiMarks) {
        let stamp = marks.stamp(nodes);
        let mut adj_start = Vec::with_capacity(nodes.len() + 1);
        let mut adj: Vec<u32> = Vec::new();
        adj_start.push(0u32);
        for &phi in nodes {
            let InstKind::Phi { incoming } = &f.inst(phi).kind else {
                unreachable!("not a φ");
            };
            for (_, v) in incoming {
                if let Operand::Inst(q) = self.subst.resolve(*v) {
                    if let Some(j) = marks.index(stamp, q) {
                        adj.push(j);
                    }
                }
            }
            adj_start.push(adj.len() as u32);
        }
        for scc in tarjan(&adj_start, &adj) {
            let scc: Vec<InstId> = scc.iter().map(|&i| nodes[i as usize]).collect();
            if scc.len() == 1 {
                if let Some(v) = self.trivial_value(f, scc[0]) {
                    self.subst.replace(scc[0], v);
                }
                continue;
            }
            let inside = marks.stamp(&scc);
            let mut outer: Option<Operand> = None;
            let mut several = false;
            let mut inner = Vec::new();
            for &phi in &scc {
                let InstKind::Phi { incoming } = &f.inst(phi).kind else {
                    unreachable!("not a φ");
                };
                let mut is_inner = true;
                for (_, v) in incoming {
                    let v = self.subst.resolve(*v);
                    if let Operand::Inst(q) = v {
                        if marks.index(inside, q).is_some() {
                            continue;
                        }
                    }
                    is_inner = false;
                    match outer {
                        None => outer = Some(v),
                        Some(o) if o == v => {}
                        _ => several = true,
                    }
                }
                if is_inner {
                    inner.push(phi);
                }
            }
            match outer {
                Some(v) if !several => {
                    for &phi in &scc {
                        self.subst.replace(phi, v);
                    }
                }
                _ if several && !inner.is_empty() => self.remove_redundant(f, &inner, marks),
                _ => {}
            }
        }
    }
}

/// Membership of φs in the node set of the current SCC search: an
/// arena-indexed `(stamp, index)` table, so each new set costs only its
/// own size.
struct PhiMarks {
    at: Vec<(u32, u32)>,
    next: u32,
}

impl PhiMarks {
    fn new(arena: usize) -> PhiMarks {
        PhiMarks {
            at: vec![(0, 0); arena],
            next: 0,
        }
    }

    /// Numbers `nodes` under a fresh stamp and returns it.
    fn stamp(&mut self, nodes: &[InstId]) -> u32 {
        self.next += 1;
        for (i, phi) in nodes.iter().enumerate() {
            self.at[phi.0 as usize] = (self.next, i as u32);
        }
        self.next
    }

    fn index(&self, stamp: u32, phi: InstId) -> Option<u32> {
        match self.at[phi.0 as usize] {
            (s, i) if s == stamp => Some(i),
            _ => None,
        }
    }
}

/// Tarjan's strongly connected components of the graph whose node `i`
/// has the successors `adj[adj_start[i]..adj_start[i + 1]]`, iteratively.
/// Components come out successors first.
fn tarjan(adj_start: &[u32], adj: &[u32]) -> Vec<Vec<u32>> {
    const NONE: u32 = u32::MAX;
    let n = adj_start.len() - 1;
    let mut index = vec![NONE; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut sccs = Vec::new();
    let mut next = 0u32;
    // (node, position of the next successor to visit)
    let mut calls: Vec<(u32, u32)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != NONE {
            continue;
        }
        calls.push((root, adj_start[root as usize]));
        index[root as usize] = next;
        low[root as usize] = next;
        next += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        while let Some(&mut (v, ref mut pos)) = calls.last_mut() {
            let vi = v as usize;
            if *pos < adj_start[vi + 1] {
                let w = adj[*pos as usize];
                *pos += 1;
                let wi = w as usize;
                if index[wi] == NONE {
                    index[wi] = next;
                    low[wi] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[wi] = true;
                    calls.push((w, adj_start[wi]));
                } else if on_stack[wi] {
                    low[vi] = low[vi].min(index[wi]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(u, _)) = calls.last() {
                low[u as usize] = low[u as usize].min(low[vi]);
            }
            if low[vi] == index[vi] {
                let mut scc = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack");
                    on_stack[w as usize] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                sccs.push(scc);
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Module;
    use crate::inst::{BinOp, IPred, Terminator};
    use crate::types::Pointee;
    use crate::verify::verify_module;

    /// Builds: slot = alloca; store 0; loop { v = load; store v+1 } while
    /// v+1 < n; return load slot.
    fn loop_through_slot() -> Function {
        let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
        let entry = f.entry();
        let body = f.add_block();
        let exit = f.add_block();
        let slot = f.push(entry, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        f.push(
            entry,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(0),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(entry, Terminator::Br { dest: body });
        let v = f.push(
            body,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        let v1 = f.push(
            body,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(v),
                rhs: Operand::i64(1),
            },
        );
        f.push(
            body,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::Inst(v1),
                order: Ordering::NotAtomic,
            },
        );
        let c = f.push(
            body,
            Ty::I1,
            InstKind::ICmp {
                pred: IPred::Ult,
                lhs: Operand::Inst(v1),
                rhs: Operand::Param(0),
            },
        );
        f.set_term(
            body,
            Terminator::CondBr {
                cond: Operand::Inst(c),
                if_true: body,
                if_false: exit,
            },
        );
        let fin = f.push(
            exit,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            exit,
            Terminator::Ret {
                val: Some(Operand::Inst(fin)),
            },
        );
        f
    }

    #[test]
    fn promotes_loop_slot_and_preserves_semantics() {
        let mut f = loop_through_slot();
        let promoted = promote_allocas(&mut f, |_, _| true);
        assert_eq!(promoted, 1);
        // No loads/stores/allocas remain.
        for (_, id) in f.iter_insts() {
            assert!(
                !matches!(
                    f.inst(id).kind,
                    InstKind::Alloca { .. } | InstKind::Load { .. } | InstKind::Store { .. }
                ),
                "leftover memory op: {:?}",
                f.inst(id).kind
            );
        }
        let mut m = Module::new();
        let id = m.add_func(f);
        verify_module(&m).unwrap();
        let mut machine = crate::interp::Machine::new(&m);
        let r = machine.run(id, &[crate::interp::Val::B64(10)]).unwrap();
        assert_eq!(r.ret, Some(crate::interp::Val::B64(10)));
    }

    #[test]
    fn escaping_alloca_not_promoted() {
        let mut f = Function::new("f", vec![], Ty::I64);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        // Address escapes through ptrtoint.
        let escaped = f.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: crate::inst::CastOp::PtrToInt,
                val: Operand::Inst(slot),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(escaped)),
            },
        );
        let mut g = f.clone();
        assert_eq!(promote_allocas(&mut g, |_, _| true), 0);
        assert_eq!(g, f, "function must be unchanged");
    }

    #[test]
    fn atomic_slot_not_promoted() {
        let mut f = Function::new("f", vec![], Ty::I64);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        let l = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::SeqCst,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        assert_eq!(promote_allocas(&mut f, |_, _| true), 0);
    }

    #[test]
    fn diamond_gets_phi() {
        // slot := alloca; if p { store 1 } else { store 2 }; ret load
        let mut f = Function::new("f", vec![Ty::I1], Ty::I64);
        let e = f.entry();
        let t = f.add_block();
        let el = f.add_block();
        let j = f.add_block();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        f.set_term(
            e,
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: t,
                if_false: el,
            },
        );
        f.push(
            t,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(1),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(t, Terminator::Br { dest: j });
        f.push(
            el,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(2),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(el, Terminator::Br { dest: j });
        let l = f.push(
            j,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            j,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );

        assert_eq!(promote_allocas(&mut f, |_, _| true), 1);
        let has_phi = f
            .iter_insts()
            .any(|(_, id)| matches!(f.inst(id).kind, InstKind::Phi { .. }));
        assert!(has_phi, "join block needs a phi");

        let mut m = Module::new();
        let id = m.add_func(f);
        verify_module(&m).unwrap();
        let mut machine = crate::interp::Machine::new(&m);
        assert_eq!(
            machine.run(id, &[crate::interp::Val::B64(1)]).unwrap().ret,
            Some(crate::interp::Val::B64(1))
        );
        let mut machine = crate::interp::Machine::new(&m);
        assert_eq!(
            machine.run(id, &[crate::interp::Val::B64(0)]).unwrap().ret,
            Some(crate::interp::Val::B64(2))
        );
    }

    #[test]
    fn trivial_phi_pruned() {
        let mut f = Function::new("f", vec![Ty::I1], Ty::I64);
        let e = f.entry();
        let t = f.add_block();
        let el = f.add_block();
        let j = f.add_block();
        f.set_term(
            e,
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: t,
                if_false: el,
            },
        );
        f.set_term(t, Terminator::Br { dest: j });
        f.set_term(el, Terminator::Br { dest: j });
        let p = f.push(
            j,
            Ty::I64,
            InstKind::Phi {
                incoming: vec![(t, Operand::i64(5)), (el, Operand::i64(5))],
            },
        );
        f.set_term(
            j,
            Terminator::Ret {
                val: Some(Operand::Inst(p)),
            },
        );
        assert_eq!(prune_trivial_phis(&mut f), 1);
        match &f.block(j).term {
            Terminator::Ret { val: Some(v) } => assert_eq!(v.as_const_int(), Some(5)),
            t => panic!("unexpected {t:?}"),
        }
    }

    /// The eager `prune_trivial_phis`: repeated layout-order sweeps with a
    /// whole-function rewrite per removed φ.
    fn prune_by_sweeps(f: &mut Function) -> usize {
        let mut removed = 0;
        loop {
            let mut did = false;
            for b in f.block_ids() {
                for id in f.block(b).insts.clone() {
                    let InstKind::Phi { incoming } = &f.inst(id).kind else {
                        continue;
                    };
                    let mut unique: Option<Operand> = None;
                    let mut trivial = true;
                    for (_, v) in incoming {
                        if *v == Operand::Inst(id) {
                            continue;
                        }
                        match unique {
                            None => unique = Some(*v),
                            Some(u) if u == *v => {}
                            _ => {
                                trivial = false;
                                break;
                            }
                        }
                    }
                    if trivial {
                        let rep = unique.unwrap_or(Operand::Undef(f.inst(id).ty));
                        f.replace_all_uses(id, rep);
                        f.block_mut(b).insts.retain(|i| *i != id);
                        removed += 1;
                        did = true;
                    }
                }
            }
            if !did {
                return removed;
            }
        }
    }

    /// Random φ webs (φs referring to φs in earlier and later blocks, to
    /// themselves and to two constants) prune to the same function, with
    /// the same count, as the eager sweeps.
    #[test]
    fn deferred_pruning_matches_eager_sweeps() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for _ in 0..300 {
            let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
            let nblocks = 1 + next(4) as usize;
            let nphis = 1 + next(12) as u32;
            let blocks: Vec<BlockId> = (0..nblocks)
                .map(|i| if i == 0 { f.entry() } else { f.add_block() })
                .collect();
            let mut phis = Vec::new();
            for _ in 0..nphis {
                let b = blocks[next(nblocks as u64) as usize];
                phis.push(f.push(b, Ty::I64, InstKind::Phi { incoming: vec![] }));
            }
            for &p in &phis {
                let incoming = (0..1 + next(3))
                    .map(|_| {
                        let v = match next(5) {
                            0 => Operand::i64(1),
                            1 => Operand::i64(2),
                            2 => Operand::Param(0),
                            _ => Operand::Inst(phis[next(nphis as u64) as usize]),
                        };
                        (blocks[0], v)
                    })
                    .collect();
                f.inst_mut(p).kind = InstKind::Phi { incoming };
            }
            let users: Vec<Operand> = phis.iter().map(|p| Operand::Inst(*p)).collect();
            let call = f.push(
                blocks[0],
                Ty::I64,
                InstKind::Call {
                    callee: crate::inst::Callee::Indirect(Operand::Param(0)),
                    args: users,
                },
            );
            f.set_term(
                blocks[0],
                Terminator::Ret {
                    val: Some(Operand::Inst(call)),
                },
            );
            let mut want = f.clone();
            let want_count = prune_by_sweeps(&mut want);
            let count = prune_trivial_phis(&mut f);
            assert_eq!(count, want_count);
            assert_eq!(f, want);
        }
    }
}
