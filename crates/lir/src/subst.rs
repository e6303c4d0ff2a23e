//! Deferred value replacement, and the one-pass use lists that go with
//! it.
//!
//! Replacing a value eagerly walks the whole instruction arena, so a pass
//! that replaces one value per instruction that way costs time quadratic
//! in the function. [`Subst`] is the only way passes replace values: it
//! records each replacement in a table indexed by [`InstId`] and rewrites
//! the function once, in [`Subst::apply`]. The eager
//! `Function::replace_all_uses` survives only in tests, as the reference
//! `Subst` is checked against. Until the sweep a pass must read every operand through
//! [`Subst::resolve`] (or resolve an instruction's operands in place with
//! [`Subst::resolve_operands`]); it then sees exactly the operands the
//! eager rewrite would have left behind. A pass that asks a question per
//! value (can this slot be split? is it dead?) gets the users of all of
//! them from one [`users_by_group`] pass instead of one scan per value.

use crate::func::Function;
use crate::inst::{InstId, InstKind, Operand};

/// A substitution table: `from → to` pairs recorded by [`Subst::replace`],
/// resolved on read and applied in one sweep.
///
/// The table is a flat `Vec` indexed by instruction id, allocated on the
/// first replacement, so a pass that replaces nothing pays nothing.
#[derive(Debug, Default)]
pub struct Subst {
    to: Vec<Option<Operand>>,
}

impl Subst {
    /// An empty table.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// Whether no replacement has been recorded.
    pub fn is_empty(&self) -> bool {
        self.to.is_empty()
    }

    /// Records that every use of `from` becomes `to`. Replacing a value by
    /// itself is a no-op.
    pub fn replace(&mut self, from: InstId, to: Operand) {
        let to = self.resolve(to);
        if to == Operand::Inst(from) {
            return;
        }
        let i = from.0 as usize;
        if self.to.len() <= i {
            self.to.resize(i + 1, None);
        }
        self.to[i] = Some(to);
    }

    /// The operand `op` stands for once every recorded replacement has
    /// been applied. Chains are followed and compressed.
    pub fn resolve(&mut self, op: Operand) -> Operand {
        let mut cur = op;
        while let Operand::Inst(id) = cur {
            match self.to.get(id.0 as usize) {
                Some(Some(next)) => cur = *next,
                _ => break,
            }
        }
        // Point every link of the chain straight at its end.
        let mut link = op;
        while let Operand::Inst(id) = link {
            match self.to.get_mut(id.0 as usize) {
                Some(Some(next)) if *next != cur => link = std::mem::replace(next, cur),
                _ => break,
            }
        }
        cur
    }

    /// Resolves every operand of `kind` in place.
    pub fn resolve_operands(&mut self, kind: &mut InstKind) {
        if !self.is_empty() {
            kind.for_each_operand_mut(|op| *op = self.resolve(*op));
        }
    }

    /// Rewrites every operand of `f` — all arena entries, dead or alive,
    /// and all terminators — through the table, in one sweep, and empties
    /// the table.
    pub fn apply(&mut self, f: &mut Function) {
        if self.is_empty() {
            return;
        }
        for inst in &mut f.insts {
            inst.kind.for_each_operand_mut(|op| *op = self.resolve(*op));
        }
        for block in &mut f.blocks {
            block
                .term
                .for_each_operand_mut(|op| *op = self.resolve(*op));
        }
        self.to.clear();
    }
}

/// "No group" in an arena-indexed group table.
pub const NO_GROUP: u32 = u32::MAX;

/// The group arena-indexed `table` assigns to the instruction `op` names,
/// if `op` is an instruction with a group.
pub fn group_of(table: &[u32], op: &Operand) -> Option<usize> {
    match op {
        Operand::Inst(p) if table[p.0 as usize] != NO_GROUP => Some(table[p.0 as usize] as usize),
        _ => None,
    }
}

/// Groups the users of selected values in one pass over the function.
/// `table[p]` is the group of instruction `p` (one of `0..n`) or
/// [`NO_GROUP`]. For each live instruction, in layout order, and each
/// operand in group `g`, the instruction is listed under `g` (once,
/// however many of its operands fall in `g`). Only the `n` groups a pass
/// asks about get lists; no whole-function use index is built.
pub fn users_by_group(f: &Function, n: usize, table: &[u32]) -> Vec<Vec<InstId>> {
    let mut users: Vec<Vec<InstId>> = vec![Vec::new(); n];
    for (_, id) in f.iter_insts() {
        f.inst(id).kind.for_each_operand(|op| {
            if let Some(g) = group_of(table, op) {
                if users[g].last() != Some(&id) {
                    users[g].push(id);
                }
            }
        });
    }
    users
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Terminator};
    use crate::types::Ty;

    /// `a = p0 + p1; b = a + a; c = b + a; ret c`.
    fn chain() -> (Function, [InstId; 3]) {
        let mut f = Function::new("f", vec![Ty::I64, Ty::I64], Ty::I64);
        let e = f.entry();
        let bin = |lhs, rhs| InstKind::Bin {
            op: BinOp::Add,
            lhs,
            rhs,
        };
        let a = f.push(e, Ty::I64, bin(Operand::Param(0), Operand::Param(1)));
        let b = f.push(e, Ty::I64, bin(Operand::Inst(a), Operand::Inst(a)));
        let c = f.push(e, Ty::I64, bin(Operand::Inst(b), Operand::Inst(a)));
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(c)),
            },
        );
        (f, [a, b, c])
    }

    #[test]
    fn matches_eager_replacement() {
        let (f, [a, b, c]) = chain();
        let steps = [
            (b, Operand::Inst(a)),
            (a, Operand::Param(0)),
            (c, Operand::Param(1)),
        ];
        let mut eager = f.clone();
        let mut lazy = f.clone();
        let mut s = Subst::new();
        for (from, to) in steps {
            eager.replace_all_uses(from, to);
            s.replace(from, to);
        }
        assert_eq!(s.resolve(Operand::Inst(b)), Operand::Param(0));
        assert_eq!(s.resolve(Operand::Inst(c)), Operand::Param(1));
        s.apply(&mut lazy);
        assert_eq!(lazy, eager);
        assert!(s.is_empty());
    }

    #[test]
    fn self_replacement_is_a_no_op() {
        let (mut f, [a, b, _]) = chain();
        let mut s = Subst::new();
        s.replace(a, Operand::Inst(a));
        assert!(s.is_empty());
        // `b → a` then `a → b`: the second target resolves to `a` itself.
        s.replace(b, Operand::Inst(a));
        s.replace(a, Operand::Inst(b));
        assert_eq!(s.resolve(Operand::Inst(b)), Operand::Inst(a));
        let mut eager = f.clone();
        eager.replace_all_uses(b, Operand::Inst(a));
        s.apply(&mut f);
        assert_eq!(f, eager);
    }
}
