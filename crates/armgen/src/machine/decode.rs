//! The form [`ArmMachine`](super::ArmMachine) runs: each function decoded
//! once, on its first call, into runs.
//!
//! A run is a block's instructions up to a `bl` or to the block end. Its
//! steps, cycles and barriers are summed here, so the machine charges a
//! whole run at once and executes its instructions with no per-instruction
//! cost lookup or barrier count. Only the `bl` that may end a run can
//! fail, so every statistic, and the first error, are those of charging
//! each instruction on its own step. A run's end holds what the machine
//! does next: the `bl`'s callee, with an extern's [`Extern`] resolved, or
//! the block's terminator, with block targets resolved to run indices.
//!
//! All functions' runs share one table, appended to as functions are
//! first called, so a branch target or a return point is one `u32`.

use super::{cost, cost_of};
use crate::inst::{ACallee, AInst, AModule, ATerm, Dmb, X};
use lasagne_lir::interp::runtime::Extern;

/// The run index of a branch target that is not a block of its function.
pub(super) const MISSING: u32 = u32::MAX;

/// What a run's end does once its instructions have run.
#[derive(Debug, Clone, Copy)]
pub(super) enum End {
    /// The `bl` ending the run; the caller resumes at the next run.
    Call(Call),
    /// `b`, to this run.
    B(u32),
    /// `cbnz`, to these runs.
    Cbnz {
        rn: X,
        then: u32,
        els: u32,
    },
    Ret,
    /// `brk` in this function.
    Brk(u32),
}

/// A `bl`'s callee.
#[derive(Debug, Clone, Copy)]
pub(super) enum Call {
    Func(u32),
    Extern(Extern),
    /// An extern the runtime does not implement, by its index in the
    /// module's extern table.
    Unknown(u32),
    /// `blr`.
    Reg(X),
}

/// A run and its charges.
#[derive(Debug, Clone, Copy)]
pub(super) struct Run<'m> {
    /// Its instructions; a `bl` ending the run is in `end` instead.
    pub insts: &'m [AInst],
    /// One per instruction, the `bl` included.
    pub steps: u64,
    /// The cycles of those steps.
    pub cycles: u64,
    /// The `(dmb ishld, dmb ishst, dmb ish)` among them.
    pub dmbs: [u64; 3],
    pub end: End,
}

impl<'m> Run<'m> {
    fn new(insts: &'m [AInst], end: End) -> Run<'m> {
        let call = matches!(end, End::Call(_));
        let mut cycles = if call { cost::CALL } else { 0 };
        let mut dmbs = [0; 3];
        for inst in insts {
            cycles += cost_of(inst);
            if let AInst::DmbI { kind } = inst {
                dmbs[dmb_index(*kind)] += 1;
            }
        }
        Run {
            insts,
            steps: insts.len() as u64 + u64::from(call),
            cycles,
            dmbs,
            end,
        }
    }
}

/// `kind`'s place in [`ArmStats::dmbs`](super::ArmStats::dmbs).
fn dmb_index(kind: Dmb) -> usize {
    match kind {
        Dmb::Ld => 0,
        Dmb::St => 1,
        Dmb::Ff => 2,
    }
}

/// Appends the runs of function `f` to `runs` and returns the index of
/// its entry run ([`MISSING`] if it has no blocks).
pub(super) fn decode<'m>(module: &'m AModule, f: u32, runs: &mut Vec<Run<'m>>) -> u32 {
    let func = &module.funcs[f as usize];
    let base = runs.len();
    // The index of each block's first run.
    let mut first = Vec::with_capacity(func.blocks.len());
    for block in &func.blocks {
        first.push(runs.len() as u32);
        let mut rest = block.insts.as_slice();
        let bl = |(i, inst): (usize, &AInst)| match inst {
            AInst::Bl { callee } => Some((i, *callee)),
            _ => None,
        };
        while let Some((i, callee)) = rest.iter().enumerate().find_map(bl) {
            runs.push(Run::new(&rest[..i], End::Call(resolve(module, callee))));
            rest = &rest[i + 1..];
        }
        runs.push(Run::new(rest, terminator(block.term, f)));
    }
    let target = |t: u32| first.get(t as usize).copied().unwrap_or(MISSING);
    for run in &mut runs[base..] {
        match &mut run.end {
            End::B(t) => *t = target(*t),
            End::Cbnz { then, els, .. } => {
                *then = target(*then);
                *els = target(*els);
            }
            _ => {}
        }
    }
    target(0)
}

/// The end of a block's last run, its targets still block indices.
fn terminator(term: Option<ATerm>, f: u32) -> End {
    match term.unwrap_or(ATerm::Brk) {
        ATerm::B(t) => End::B(t.0),
        ATerm::Cbnz { rn, then, els } => End::Cbnz {
            rn,
            then: then.0,
            els: els.0,
        },
        ATerm::Ret => End::Ret,
        ATerm::Brk => End::Brk(f),
    }
}

fn resolve(module: &AModule, callee: ACallee) -> Call {
    match callee {
        ACallee::Func(f) => Call::Func(f),
        ACallee::Extern(e) => match module
            .externs
            .get(e as usize)
            .and_then(|n| Extern::parse(n))
        {
            Some(ext) => Call::Extern(ext),
            None => Call::Unknown(e),
        },
        ACallee::Reg(r) => Call::Reg(r),
    }
}
