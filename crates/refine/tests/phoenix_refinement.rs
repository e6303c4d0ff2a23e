//! IR-refinement invariants measured on the real lifted Phoenix modules
//! (the same programs Figure 13 is computed from):
//!
//! * refinement removes a substantial share of integer↔pointer casts;
//! * it promotes at least one pointer parameter per benchmark (each has a
//!   worker taking a context/array pointer passed as `i64`);
//! * it never changes the benchmark checksum;
//! * it reaches a fixpoint (re-running does nothing);
//! * tracing it changes nothing but the trace.

use lasagne_lir::interp::{Machine, Val};
use lasagne_lir::verify::verify_module;
use lasagne_lir::{Module, Ty};
use lasagne_phoenix::{all_benchmarks, Workload};
use lasagne_refine::{promote_pointer_params, refine_function, refine_module};
use lasagne_trace::TraceCtx;

fn casts(m: &Module) -> usize {
    m.count_insts(|i| i.kind.is_int_ptr_cast())
}

fn checksum(m: &Module, w: &Workload) -> u64 {
    let id = m.func_by_name("main").expect("main");
    let mut machine = Machine::new(m);
    for (addr, bytes) in &w.mem_init {
        machine.mem.write(*addr, bytes);
    }
    let args: Vec<Val> = w.args.iter().map(|a| Val::B64(*a)).collect();
    machine
        .run(id, &args)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
        .ret
        .unwrap()
        .bits()
}

#[test]
fn refinement_removes_casts_and_preserves_checksums() {
    for b in all_benchmarks(48) {
        let mut m =
            lasagne_lifter::lift_binary(&b.binary).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let before = casts(&m);
        let stats = refine_module(&mut m);
        let after = casts(&m);
        verify_module(&m).unwrap_or_else(|e| panic!("{}: {e:?}", b.name));
        assert!(
            after < before,
            "{}: refinement removed no casts ({before} -> {after})",
            b.name
        );
        assert!(
            stats.inttoptr_rewritten > 0,
            "{}: no inttoptr rewritten despite cast reduction",
            b.name
        );
        assert_eq!(
            checksum(&m, &b.workload),
            b.workload.expected_ret,
            "{}",
            b.name
        );
    }
}

#[test]
fn worker_context_parameters_become_pointers() {
    for b in all_benchmarks(32) {
        let mut m = lasagne_lifter::lift_binary(&b.binary).unwrap();
        let stats = refine_module(&mut m);
        assert!(
            stats.params_promoted > 0,
            "{}: every Phoenix worker takes a pointer argument; none promoted",
            b.name
        );
        let pointer_params = m
            .funcs
            .iter()
            .flat_map(|f| f.params.iter())
            .filter(|t| matches!(t, Ty::Ptr(_)))
            .count();
        assert!(
            pointer_params >= stats.params_promoted,
            "{}: promoted params must surface in signatures",
            b.name
        );
    }
}

#[test]
fn refinement_is_a_fixpoint() {
    for b in all_benchmarks(32) {
        let mut m = lasagne_lifter::lift_binary(&b.binary).unwrap();
        refine_module(&mut m);
        let casts_once = casts(&m);
        let insts_once = m.inst_count();
        let again = refine_module(&mut m);
        assert_eq!(
            again.inttoptr_rewritten, 0,
            "{}: second run rewrote more",
            b.name
        );
        assert_eq!(
            again.params_promoted, 0,
            "{}: second run promoted more",
            b.name
        );
        assert_eq!(casts(&m), casts_once, "{}: cast count drifted", b.name);
        assert_eq!(m.inst_count(), insts_once, "{}: inst count drifted", b.name);
    }
}

/// One refinement round (every function, then parameter promotion) under
/// `ctx`; returns `(inttoptr rewritten, params promoted)`.
fn refine_round(m: &mut Module, ctx: &TraceCtx) -> (usize, usize) {
    let mut rewritten = 0;
    for fi in 0..m.funcs.len() {
        let mut f = std::mem::replace(
            &mut m.funcs[fi],
            lasagne_lir::Function::new("", vec![], Ty::Void),
        );
        rewritten += refine_function(m, &mut f, ctx);
        m.funcs[fi] = f;
    }
    (rewritten, promote_pointer_params(m, ctx))
}

/// A collecting context must leave the refined module and the counts
/// exactly as a disabled one does, and its counters must mirror them.
#[test]
fn collecting_trace_leaves_refinement_unchanged() {
    for b in all_benchmarks(32) {
        let lifted = lasagne_lifter::lift_binary(&b.binary).unwrap();
        let mut plain = lifted.clone();
        let plain_counts = refine_round(&mut plain, &TraceCtx::disabled());
        let mut traced = lifted;
        let ctx = TraceCtx::collecting();
        let counts = refine_round(&mut traced, &ctx);
        assert_eq!(traced, plain, "{}: tracing changed the module", b.name);
        assert_eq!(counts, plain_counts, "{}", b.name);
        let snap = ctx.metrics_snapshot().expect("collecting context");
        assert_eq!(
            snap.counter("refine.params.promoted"),
            counts.1 as u64,
            "{}",
            b.name
        );
        let rules: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("refine.rule."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(
            rules, counts.0 as u64,
            "{}: one rule firing per rewrite",
            b.name
        );
    }
}
