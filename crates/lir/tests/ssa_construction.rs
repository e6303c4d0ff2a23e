//! Property test: on-the-fly SSA construction (`SsaBuilder`) gives every
//! read the value slot promotion (`promote_allocas`, which ends in
//! `prune_trivial_phis`) gives the equivalent load, and leaves exactly
//! promotion's φs minus its dead ones.
//!
//! Each case is a CFG (a straight line, a diamond, a loop, a self-loop,
//! unreachable blocks that loop among themselves, a two-entry
//! irreducible loop, or a random graph) with random reads and writes of
//! three variables. The case is built twice: once through `alloca` slots
//! with loads and stores, then promoted; once through the builder, its
//! blocks filled in a random order. Every read and every write gets a
//! marker instruction (`add v, k`), so values can be matched across the
//! two functions: a written value by its marker, a φ by its block and
//! type (the three variables have three types), anything else as is.
//! Writes store fresh values, never a copy of a variable: with copies,
//! promotion can keep φ cycles that all carry one value, which the
//! builder removes.
//!
//! A dead φ is one with no transitive non-φ user; promotion leaves them,
//! the builder must not make any. Reads in blocks the entry does not
//! reach are not compared (promotion does not rename them).

use lasagne_lir::analysis::Cfg;
use lasagne_lir::func::{Function, Module};
use lasagne_lir::inst::{BinOp, BlockId, InstId, InstKind, Operand, Ordering, Terminator};
use lasagne_lir::ssa::{promote_allocas, SsaBuilder};
use lasagne_lir::types::{Pointee, Ty};
use lasagne_lir::verify::verify_module;
use lasagne_qc::collection;
use lasagne_qc::prelude::*;
use std::collections::BTreeMap;

/// The variables' types; a φ's type names its variable.
const TYS: [Ty; 3] = [Ty::I64, Ty::I32, Ty::I16];
/// Markers of writes start here; markers of reads count from 0.
const WRITE_MARK: u64 = 1000;

/// One access: `(is_write, variable)`.
type Op = (bool, u8);

#[derive(Debug, Clone)]
struct Case {
    /// 0 straight, 1 diamond, 2 loop, 3 self-loop, 4 unreachable,
    /// 5 irreducible, 6 random.
    shape: u8,
    /// Terminators of a random graph: `(kind, a, b)`.
    random: Vec<(u8, u8, u8)>,
    /// Accesses per block (blocks beyond the list have none).
    ops: Vec<Vec<Op>>,
    /// Seeds the builder's block fill order.
    order: u64,
}

fn case() -> impl Strategy<Value = Case> {
    (
        0..7u8,
        collection::vec((0..3u8, 0..8u8, 0..8u8), 2..9),
        collection::vec(collection::vec((any::<bool>(), 0..3u8), 0..6), 8),
        any::<u64>(),
    )
        .prop_map(|(shape, random, ops, order)| Case {
            shape,
            random,
            ops,
            order,
        })
}

fn br(dest: u32) -> Terminator {
    Terminator::Br {
        dest: BlockId(dest),
    }
}

fn cond(t: u32, f: u32) -> Terminator {
    Terminator::CondBr {
        cond: Operand::Param(0),
        if_true: BlockId(t),
        if_false: BlockId(f),
    }
}

fn ret() -> Terminator {
    Terminator::Ret { val: None }
}

/// The terminators of the case's CFG, block 0 first.
fn terminators(c: &Case) -> Vec<Terminator> {
    match c.shape {
        0 => vec![br(1), br(2), br(3), ret()],
        1 => vec![cond(1, 2), br(3), br(3), ret()],
        2 => vec![br(1), cond(2, 3), br(1), ret()],
        3 => vec![br(1), cond(1, 2), ret()],
        // Blocks 2 and 3 loop among themselves; nothing reaches them.
        4 => vec![br(1), ret(), cond(3, 1), br(2)],
        // Blocks 1 and 2 form a loop entered at both.
        5 => vec![cond(1, 2), cond(2, 3), cond(1, 3), ret()],
        _ => {
            // No edge returns to the entry, which LIR does not allow.
            let n = c.random.len() as u8 - 1;
            let target = |t: u8| u32::from(1 + t % n);
            c.random
                .iter()
                .map(|&(kind, a, b)| match kind {
                    0 => ret(),
                    1 => br(target(a)),
                    _ => cond(target(a), target(b)),
                })
                .collect()
        }
    }
}

fn mark(ty: Ty, k: u64) -> Operand {
    Operand::ConstInt { ty, val: k }
}

/// Emits the access sequence of block `b` through `slots` (loads and
/// stores) or, with `slots` empty, through `ssa`.
fn emit_block(
    f: &mut Function,
    b: BlockId,
    ops: &[Op],
    slots: &[InstId],
    ssa: &mut Option<SsaBuilder>,
    next_read: &mut u64,
    next_write: &mut u64,
) {
    for &(write, var) in ops {
        let var = var as usize;
        let ty = TYS[var];
        if write {
            let v = f.push(
                b,
                ty,
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Operand::Undef(ty),
                    rhs: mark(ty, WRITE_MARK + *next_write),
                },
            );
            *next_write += 1;
            match ssa {
                Some(ssa) => ssa.write(b, var, Operand::Inst(v)),
                None => {
                    f.push(
                        b,
                        Ty::Void,
                        InstKind::Store {
                            ptr: Operand::Inst(slots[var]),
                            val: Operand::Inst(v),
                            order: Ordering::NotAtomic,
                        },
                    );
                }
            }
        } else {
            let v = match ssa {
                Some(ssa) => ssa.read(f, b, var),
                None => Operand::Inst(f.push(
                    b,
                    ty,
                    InstKind::Load {
                        ptr: Operand::Inst(slots[var]),
                        order: Ordering::NotAtomic,
                    },
                )),
            };
            f.push(
                b,
                ty,
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: v,
                    rhs: mark(ty, *next_read),
                },
            );
            *next_read += 1;
        }
    }
}

/// The case through slots, promoted.
fn promoted(c: &Case, terms: &[Terminator]) -> Function {
    let mut f = Function::new("f", vec![Ty::I1], Ty::Void);
    for _ in 1..terms.len() {
        f.add_block();
    }
    let slots: Vec<InstId> = TYS
        .iter()
        .map(|_| {
            f.push(
                BlockId(0),
                Ty::Ptr(Pointee::I64),
                InstKind::Alloca { size: 8 },
            )
        })
        .collect();
    let (mut reads, mut writes) = (0, 0);
    for (b, term) in terms.iter().enumerate() {
        let b = BlockId(b as u32);
        emit_block(
            &mut f,
            b,
            &c.ops[b.0 as usize],
            &slots,
            &mut None,
            &mut reads,
            &mut writes,
        );
        f.set_term(b, term.clone());
    }
    promote_allocas(&mut f, |_, _| true);
    f
}

/// The case through the builder, blocks filled in a seeded order. Each
/// block's markers are numbered as in block order, so markers match
/// [`promoted`]'s.
fn built(c: &Case, terms: &[Terminator]) -> Function {
    let mut f = Function::new("f", vec![Ty::I1], Ty::Void);
    for _ in 1..terms.len() {
        f.add_block();
    }
    let mut edges = Vec::new();
    for (b, term) in terms.iter().enumerate() {
        edges.extend(
            term.successors()
                .into_iter()
                .map(|s| (BlockId(b as u32), s)),
        );
    }
    let mut ssa = Some(SsaBuilder::new(TYS.to_vec(), terms.len(), &edges));
    // Marker numbers where each block's reads and writes start.
    let mut starts = Vec::new();
    let (mut r, mut w) = (0u64, 0u64);
    for ops in &c.ops[..terms.len()] {
        starts.push((r, w));
        r += ops.iter().filter(|o| !o.0).count() as u64;
        w += ops.iter().filter(|o| o.0).count() as u64;
    }
    let mut order: Vec<usize> = (0..terms.len()).collect();
    let mut seed = c.order;
    for i in (1..order.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (seed >> 33) as usize % (i + 1));
    }
    for b in order {
        let (mut reads, mut writes) = starts[b];
        let bid = BlockId(b as u32);
        emit_block(
            &mut f,
            bid,
            &c.ops[b],
            &[],
            &mut ssa,
            &mut reads,
            &mut writes,
        );
        f.set_term(bid, terms[b].clone());
        ssa.as_mut().unwrap().fill(&mut f, bid);
    }
    ssa.unwrap().finish(&mut f);
    f
}

/// A value as both constructions can name it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Val {
    Write(u64),
    Phi(u32, Ty),
    Other(Operand),
}

fn canon(f: &Function, phi_block: &BTreeMap<InstId, BlockId>, v: Operand) -> Val {
    let Operand::Inst(id) = v else {
        return Val::Other(v);
    };
    match &f.inst(id).kind {
        InstKind::Phi { .. } => Val::Phi(phi_block[&id].0, f.inst(id).ty),
        InstKind::Bin { rhs, .. } => Val::Write(rhs.as_const_int().expect("marker")),
        k => panic!("unexpected value {k:?}"),
    }
}

/// Per reachable read marker, the value read; per live φ, its block, type
/// and canonical incoming list; and the number of dead φs.
#[allow(clippy::type_complexity)]
fn summarize(
    f: &Function,
) -> (
    BTreeMap<u64, Val>,
    BTreeMap<(u32, Ty), Vec<(u32, Val)>>,
    usize,
) {
    let cfg = Cfg::compute(f);
    let mut phi_block = BTreeMap::new();
    for (b, id) in f.iter_insts() {
        if matches!(f.inst(id).kind, InstKind::Phi { .. }) {
            phi_block.insert(id, b);
        }
    }
    let mut reads = BTreeMap::new();
    let mut live: Vec<InstId> = Vec::new();
    for (b, id) in f.iter_insts() {
        match &f.inst(id).kind {
            InstKind::Phi { .. } => {}
            InstKind::Bin { lhs, rhs, .. } => {
                if let Operand::Inst(p) = lhs {
                    if phi_block.contains_key(p) {
                        live.push(*p);
                    }
                }
                let k = rhs.as_const_int().expect("marker");
                if k < WRITE_MARK && cfg.reachable(b) {
                    reads.insert(k, canon(f, &phi_block, *lhs));
                }
            }
            _ => {}
        }
    }
    // φs with a transitive non-φ user.
    let mut seen = std::collections::BTreeSet::new();
    while let Some(p) = live.pop() {
        if !seen.insert(p) {
            continue;
        }
        if let InstKind::Phi { incoming } = &f.inst(p).kind {
            for (_, v) in incoming {
                if let Operand::Inst(q) = v {
                    if phi_block.contains_key(q) {
                        live.push(*q);
                    }
                }
            }
        }
    }
    let mut phis = BTreeMap::new();
    for &p in &seen {
        let InstKind::Phi { incoming } = &f.inst(p).kind else {
            unreachable!()
        };
        let inc = incoming
            .iter()
            .map(|(b, v)| (b.0, canon(f, &phi_block, *v)))
            .collect();
        let key = (phi_block[&p].0, f.inst(p).ty);
        assert!(phis.insert(key, inc).is_none(), "two φs for {key:?}");
    }
    (reads, phis, phi_block.len() - seen.len())
}

properties! {
    config = Config::with_cases(256);

    fn builder_matches_slot_promotion(c in case()) {
        let terms = terminators(&c);
        let want = promoted(&c, &terms);
        let got = built(&c, &terms);
        let mut m = Module::new();
        m.add_func(got.clone());
        verify_module(&m).map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
        let (want_reads, want_phis, _) = summarize(&want);
        let (got_reads, got_phis, got_dead) = summarize(&got);
        prop_assert_eq!(got_reads, want_reads);
        prop_assert_eq!(got_phis, want_phis);
        prop_assert_eq!(got_dead, 0, "dead φs left");
    }
}
