//! IR-refinement invariants measured on the real lifted Phoenix modules
//! (the same programs Figure 13 is computed from):
//!
//! * refinement removes a substantial share of integer↔pointer casts;
//! * it promotes at least one pointer parameter per benchmark (each has a
//!   worker taking a context/array pointer passed as `i64`);
//! * it never changes the benchmark checksum;
//! * it reaches a fixpoint (re-running does nothing).

use lasagne_lir::interp::{Machine, Val};
use lasagne_lir::verify::verify_module;
use lasagne_lir::{Module, Ty};
use lasagne_phoenix::{all_benchmarks, Workload};
use lasagne_refine::refine_module;

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
