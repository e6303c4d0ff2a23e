//! LLVM-style optimization passes over LIR, kept sound for concurrent code
//! by the LIMM legality rules of `lasagne-fences` (paper §7.2).
//!
//! The pass set is exactly the one the paper's Figure 17 evaluates on the
//! lifted kmeans program: `instcombine`, `dce`, `adce`, `licm`,
//! `reassociate`, `gvn`, `mem2reg`, `sroa`, `sccp`, `ipsccp` and `dse`.
//! Passes that move or remove memory operations (`gvn`'s load forwarding,
//! `dse`, `licm`) consult the Figure 11 tables before acting, which is what
//! makes running them after fence placement legal.
//!
//! # Example
//!
//! ```
//! use lasagne_lir::func::{Function, Module};
//! use lasagne_lir::inst::{BinOp, InstKind, Operand, Terminator};
//! use lasagne_lir::types::Ty;
//! use lasagne_opt::{run_pass, PassKind};
//!
//! let mut m = Module::new();
//! let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
//! let e = f.entry();
//! let a = f.push(e, Ty::I64, InstKind::Bin {
//!     op: BinOp::Add, lhs: Operand::Param(0), rhs: Operand::i64(0),
//! });
//! f.set_term(e, Terminator::Ret { val: Some(Operand::Inst(a)) });
//! m.add_func(f);
//!
//! run_pass(PassKind::InstCombine, &mut m);
//! run_pass(PassKind::Dce, &mut m);
//! assert_eq!(m.inst_count(), 0, "x + 0 folded away");
//! ```

#![warn(missing_docs)]

pub mod combine;
pub mod dce;
pub mod dse;
pub mod fold;
pub mod gvn;
pub mod licm;
pub mod mem;
pub mod sccp;
pub mod sched;

use lasagne_lir::func::{Function, Module};
use lasagne_lir::types::Ty;
pub use sched::{Analyses, FuncState, PassEffect, SchedStats};

/// The optimization passes of Figure 17.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Peephole algebraic simplification + constant folding.
    InstCombine,
    /// Basic dead-code elimination.
    Dce,
    /// Aggressive dead-code elimination.
    Adce,
    /// Loop-invariant code motion.
    Licm,
    /// Reassociation of constant chains.
    Reassociate,
    /// Global value numbering + legality-gated load forwarding.
    Gvn,
    /// Promotion of memory slots to SSA.
    Mem2Reg,
    /// Scalar replacement of aggregates.
    Sroa,
    /// Sparse conditional constant propagation.
    Sccp,
    /// Interprocedural SCCP.
    IpSccp,
    /// Dead-store elimination (Figure 11b WAW rules).
    Dse,
}

impl PassKind {
    /// All passes, in the order Figure 17 lists them.
    pub const ALL: [PassKind; 11] = [
        PassKind::InstCombine,
        PassKind::Dce,
        PassKind::Adce,
        PassKind::Licm,
        PassKind::Reassociate,
        PassKind::Gvn,
        PassKind::Mem2Reg,
        PassKind::Sroa,
        PassKind::Sccp,
        PassKind::IpSccp,
        PassKind::Dse,
    ];

    /// Whether the pass has an interprocedural component that must run
    /// with exclusive access to the whole module (a serial barrier in the
    /// parallel pipeline driver). Only `ipsccp` qualifies; every other
    /// pass mutates one function at a time and reads the module solely for
    /// operand typing, so it may run on distinct functions concurrently.
    pub fn is_interprocedural(self) -> bool {
        matches!(self, PassKind::IpSccp)
    }

    /// The LLVM pass name used in the paper's Figure 17.
    pub fn name(self) -> &'static str {
        match self {
            PassKind::InstCombine => "instcombine",
            PassKind::Dce => "dce",
            PassKind::Adce => "adce",
            PassKind::Licm => "licm",
            PassKind::Reassociate => "reassociate",
            PassKind::Gvn => "gvn",
            PassKind::Mem2Reg => "mem2reg",
            PassKind::Sroa => "sroa",
            PassKind::Sccp => "sccp",
            PassKind::IpSccp => "ipsccp",
            PassKind::Dse => "dse",
        }
    }
}

/// Runs one pass over a whole module. Returns the number of changes made.
pub fn run_pass(kind: PassKind, m: &mut Module) -> usize {
    // Interprocedural component first (ipsccp), then the per-function
    // half over every function. For ipsccp that propagates the discovered
    // constants locally afterwards, as LLVM does.
    let mut total = 0;
    if kind.is_interprocedural() {
        total += sccp::ipsccp(m, &mut Vec::new(), &lasagne_trace::TraceCtx::disabled());
    }
    total
        + for_each_function(m, |mm, f| {
            run_pass_on_function(kind, mm, f, &mut Analyses::new()).changes
        })
}

/// Runs the per-function half of one pass on a single function against a
/// shared per-function analysis cache `an`, reporting a full
/// [`PassEffect`].
///
/// For local passes this *is* the whole pass; for [`PassKind::IpSccp`] it
/// is the local constant-propagation cleanup that follows the
/// interprocedural analysis (which only [`run_pass`] performs). The
/// function reads `m` solely for operand typing — never for other function
/// bodies — so the pipeline driver may invoke it on distinct functions
/// concurrently with results identical to any serial order.
///
/// Every arm upholds the scheduler's soundness invariant — **a clean
/// effect means the pass made zero mutations** — and keeps `an` honest:
/// passes that maintain the cached use counts incrementally (`dce`,
/// `instcombine`'s erasure) store them back, everything else notes the
/// class of state it invalidated. Only sccp can change control flow, so
/// only its arm ever drops the cached CFG/dominators.
pub fn run_pass_on_function(
    kind: PassKind,
    m: &Module,
    f: &mut Function,
    an: &mut Analyses,
) -> PassEffect {
    match kind {
        PassKind::IpSccp | PassKind::Sccp => sccp::sccp_eff(m, f, an),
        PassKind::InstCombine => PassEffect::insts(combine::instcombine_with(m, f, an)),
        PassKind::Dce => PassEffect::insts(dce::dce_with(f, an)),
        PassKind::Adce => PassEffect::insts(dce::adce_with(f, an)),
        PassKind::Licm => {
            let n = licm::licm_with(f, an);
            if n > 0 {
                an.note_insts_changed();
            }
            PassEffect::insts(n)
        }
        PassKind::Reassociate => {
            let n = combine::reassociate(m, f);
            if n > 0 {
                an.note_insts_changed();
            }
            PassEffect::insts(n)
        }
        PassKind::Gvn => {
            let n = gvn::gvn_with(m, f, an) + gvn::load_elim(f);
            if n > 0 {
                an.note_insts_changed();
            }
            PassEffect::insts(n)
        }
        PassKind::Mem2Reg => {
            let n = mem::mem2reg(f);
            if n > 0 {
                an.note_insts_changed();
            }
            PassEffect::insts(n)
        }
        // LLVM's SROA both splits and promotes; mirror that.
        PassKind::Sroa => {
            let n = mem::sroa(f);
            if n > 0 {
                mem::mem2reg(f);
                an.note_insts_changed();
            }
            PassEffect::insts(n)
        }
        PassKind::Dse => {
            let n = dse::dse(f) + dse::dse_dead_slots(f);
            if n > 0 {
                an.note_insts_changed();
            }
            PassEffect::insts(n)
        }
    }
}

fn for_each_function(
    m: &mut Module,
    mut pass: impl FnMut(&Module, &mut Function) -> usize,
) -> usize {
    let mut total = 0;
    for fi in 0..m.funcs.len() {
        let mut f = std::mem::replace(&mut m.funcs[fi], Function::new("", vec![], Ty::Void));
        total += pass(m, &mut f);
        m.funcs[fi] = f;
    }
    total
}

/// The 13 pass slots of one optimization round, in pipeline order. Shared
/// by [`standard_pipeline`], [`blind_pipeline`], and `lasagne::pipeline`'s
/// fused driver (whose `pass_list()` cache key is derived from it — the
/// order is load-bearing for warm-cache compatibility).
pub const OPT_ORDER: [PassKind; 13] = [
    PassKind::Mem2Reg,
    PassKind::Sroa,
    PassKind::Mem2Reg,
    PassKind::InstCombine,
    PassKind::Reassociate,
    PassKind::InstCombine,
    PassKind::Sccp,
    PassKind::IpSccp,
    PassKind::Gvn,
    PassKind::Licm,
    PassKind::Dse,
    PassKind::Adce,
    PassKind::Dce,
];

/// The standard optimization pipeline ("Opt" in the paper's Figure 12):
/// iterates the full pass set until a fixpoint (bounded at `max_rounds`).
/// Returns the total number of changes.
///
/// Since the change-driven scheduler landed this is a shim over
/// [`scheduled_pipeline`]; the module bytes and change total are identical
/// to the old blind driver (see [`blind_pipeline`], kept as the oracle).
pub fn standard_pipeline(m: &mut Module, max_rounds: usize) -> usize {
    scheduled_pipeline(m, max_rounds).changes
}

/// The change-driven optimization pipeline: the same 13 slots per round as
/// [`blind_pipeline`], but each (function, pass) pair runs only while
/// dirty (see [`sched`]), analyses are cached per function across passes,
/// and converged functions skip whole rounds plus their final `compact()`.
///
/// Byte-identical to [`blind_pipeline`] by construction: a skipped pair is
/// one whose rerun would provably mutate nothing and report 0 changes, so
/// per-round change sums — and therefore the round count, the fixpoint,
/// and the final module — are the blind driver's exactly.
pub fn scheduled_pipeline(m: &mut Module, max_rounds: usize) -> SchedStats {
    let mut states: Vec<FuncState> = m.funcs.iter().map(|_| FuncState::new()).collect();
    let mut st = SchedStats::default();
    for _ in 0..max_rounds {
        st.rounds += 1;
        st.retired += states.iter().filter(|s| s.is_converged()).count() as u64;
        let mut round = 0usize;
        for p in OPT_ORDER {
            if p.is_interprocedural() {
                // The ipSCCP superstep (gather → join → apply), exactly as
                // `sccp::ipsccp` runs it; a function that received
                // substitutions is externally mutated and must be fully
                // reconsidered.
                let mut summaries: Vec<sccp::CallSummary> =
                    m.funcs.iter().map(sccp::summarize_calls).collect();
                let param_counts: Vec<usize> = m.funcs.iter().map(|f| f.params.len()).collect();
                let new = sccp::ipsccp_join(&param_counts, &mut summaries, &mut Vec::new());
                for (target, f) in m.funcs.iter_mut().enumerate() {
                    let subs = sccp::apply_ipsccp_facts(f, target as u32, &new);
                    if subs > 0 {
                        states[target].note_external_change();
                    }
                    round += subs;
                }
            }
            for fi in 0..m.funcs.len() {
                if !states[fi].should_run(p) {
                    st.skipped += 1;
                    continue;
                }
                st.ran += 1;
                let mut f =
                    std::mem::replace(&mut m.funcs[fi], Function::new("", vec![], Ty::Void));
                let eff = run_pass_on_function(p, m, &mut f, &mut states[fi].analyses);
                m.funcs[fi] = f;
                states[fi].note_ran(p, &eff);
                round += eff.changes;
            }
        }
        st.changes += round;
        if round == 0 {
            break;
        }
    }
    for f in &mut m.funcs {
        if f.is_compacted() {
            st.compact_skipped += 1;
        } else {
            f.compact();
            st.compacted += 1;
        }
    }
    st
}

/// The pre-scheduler driver, verbatim: every pass over every function
/// every round until a whole-round fixpoint, then unconditional
/// compaction. Kept as the byte-identity oracle for the change-driven
/// scheduler (the qc suite pins `scheduled_pipeline` against it) and for
/// counter reconciliation. Returns `(total changes, pass invocations)` —
/// the invocation count is what `ran + skipped` must equal.
pub fn blind_pipeline(m: &mut Module, max_rounds: usize) -> (usize, u64) {
    let mut total = 0;
    let mut invocations = 0u64;
    for _ in 0..max_rounds {
        let mut round = 0;
        for p in OPT_ORDER {
            invocations += m.funcs.len() as u64;
            round += run_pass(p, m);
        }
        total += round;
        if round == 0 {
            break;
        }
    }
    for f in &mut m.funcs {
        f.compact();
    }
    (total, invocations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::inst::{BinOp, InstKind, Operand, Ordering, Terminator};
    use lasagne_lir::interp::{Machine, Val};
    use lasagne_lir::types::Pointee;
    use lasagne_lir::verify::verify_module;

    /// Build a deliberately messy function and check the pipeline shrinks it
    /// without changing behaviour.
    fn messy_module() -> (Module, lasagne_lir::FuncId) {
        let mut m = Module::new();
        let mut f = Function::new("messy", vec![Ty::I64], Ty::I64);
        let e = f.entry();
        // Slot traffic that mem2reg should kill.
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        let v = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        // Identity chains instcombine should kill.
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(v),
                rhs: Operand::i64(0),
            },
        );
        let b = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Operand::Inst(a),
                rhs: Operand::i64(1),
            },
        );
        // Redundant pair gvn should kill.
        let c1 = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(b),
                rhs: Operand::i64(5),
            },
        );
        let c2 = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(b),
                rhs: Operand::i64(5),
            },
        );
        let s = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(c1),
                rhs: Operand::Inst(c2),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(s)),
            },
        );
        let id = m.add_func(f);
        (m, id)
    }

    #[test]
    fn pipeline_shrinks_and_preserves_semantics() {
        let (mut m, id) = messy_module();
        let before = m.inst_count();
        let mut machine = Machine::new(&m);
        let expect = machine.run(id, &[Val::B64(10)]).unwrap().ret;

        standard_pipeline(&mut m, 4);
        verify_module(&m).unwrap();
        let after = m.inst_count();
        assert!(after < before, "pipeline should shrink {before} -> {after}");

        let mut machine = Machine::new(&m);
        assert_eq!(machine.run(id, &[Val::B64(10)]).unwrap().ret, expect);
        // (10+5)*2 = 30
        assert_eq!(expect, Some(Val::B64(30)));
    }

    #[test]
    fn pipeline_on_lifted_code() {
        use lasagne_x86::asm::Asm;
        use lasagne_x86::binary::BinaryBuilder;
        use lasagne_x86::inst::{AluOp, Inst, MemRef, Rm};
        use lasagne_x86::reg::{Cond, Gpr, Width};

        // Loop summing memory: for(i=0;i<n;i++) acc += data[i]
        let mut bin = BinaryBuilder::new();
        let mut a = Asm::new();
        let top = a.label();
        let done = a.label();
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rax),
            imm: 0,
        });
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rcx),
            imm: 0,
        });
        a.bind(top);
        a.push(Inst::AluRRm {
            op: AluOp::Cmp,
            w: Width::W64,
            dst: Gpr::Rcx,
            src: Rm::Reg(Gpr::Rsi),
        });
        a.jcc(Cond::E, done);
        a.push(Inst::AluRRm {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax,
            src: Rm::Mem(MemRef::base_index(Gpr::Rdi, Gpr::Rcx, 8, 0)),
        });
        a.push(Inst::AluRmI {
            op: AluOp::Add,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rcx),
            imm: 1,
        });
        a.jmp(top);
        a.bind(done);
        a.push(Inst::Ret);
        let addr = bin.next_function_addr();
        bin.add_function("sum", a.finish(addr).unwrap());
        let mut m = lasagne_lifter::lift_binary(&bin.finish()).unwrap();

        let id = m.func_by_name("sum").unwrap();
        // Write some data into the heap and sum it, before and after.
        let run = |m: &Module| {
            let mut machine = Machine::new(m);
            for i in 0..10u64 {
                machine
                    .mem
                    .write_u64(lasagne_lir::interp::HEAP_BASE + 8 * i, i * i);
            }
            machine
                .run(
                    id,
                    &[Val::B64(lasagne_lir::interp::HEAP_BASE), Val::B64(10)],
                )
                .unwrap()
        };
        let before_result = run(&m);
        let before_count = m.inst_count();

        standard_pipeline(&mut m, 4);
        verify_module(&m).unwrap();

        let after_result = run(&m);
        assert_eq!(after_result.ret, before_result.ret);
        assert_eq!(
            after_result.ret,
            Some(Val::B64((0..10).map(|i| i * i).sum()))
        );
        assert!(
            m.inst_count() * 2 < before_count,
            "optimizer should halve lifted code: {} -> {}",
            before_count,
            m.inst_count()
        );
        // And the optimized version executes fewer instructions.
        assert!(after_result.stats.insts < before_result.stats.insts);
    }

    #[test]
    fn fences_survive_optimization() {
        // Place fences, optimize hard, and check the fences are still there.
        let mut m = Module::new();
        let mut f = Function::new(
            "f",
            vec![Ty::Ptr(Pointee::I64), Ty::Ptr(Pointee::I64)],
            Ty::I64,
        );
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
        let l = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(1),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        m.add_func(f);
        lasagne_fences::place_fences_module(&mut m, lasagne_fences::Strategy::Naive);
        let before = lasagne_fences::count_fences(&m);
        standard_pipeline(&mut m, 4);
        let after = lasagne_fences::count_fences(&m);
        assert_eq!(before, after, "optimization must not drop fences");
    }
}
