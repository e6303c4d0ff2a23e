//! The frame-slot peephole must be a pure optimization: on every Phoenix
//! benchmark, under every pipeline configuration, the cleaned module
//! computes the same checksum as the raw lowering, preserves every `dmb`,
//! and strictly shrinks the instruction stream.

use lasagne_armgen::lower::{lower_module, lower_module_raw};
use lasagne_armgen::machine::ArmMachine;
use lasagne_armgen::peephole::peephole_module;
use lasagne_armgen::AModule;
use lasagne_phoenix::{all_benchmarks, Workload};

fn run(am: &AModule, w: &Workload) -> u64 {
    let idx = am.func_by_name("main").expect("main");
    let mut arm = ArmMachine::new(am);
    for (addr, bytes) in &w.mem_init {
        arm.mem.write(*addr, bytes);
    }
    arm.run(idx, &w.args, &[])
        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
        .ret
}

fn pipelines() -> Vec<(&'static str, fn(&mut lasagne_lir::Module))> {
    fn lifted(_: &mut lasagne_lir::Module) {}
    fn optimized(m: &mut lasagne_lir::Module) {
        lasagne_refine::refine_module(m);
        lasagne_fences::place_fences_module(m, lasagne_fences::Strategy::StackAware);
        lasagne_fences::merge_fences_module(m);
        lasagne_opt::scheduled_pipeline(m, 3);
    }
    vec![("lifted", lifted), ("optimized", optimized)]
}

#[test]
fn peephole_preserves_checksums_and_barriers() {
    for b in all_benchmarks(48) {
        for (pname, prep) in pipelines() {
            let mut m = lasagne_lifter::lift_binary(&b.binary)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            prep(&mut m);
            let raw = lower_module_raw(&m);
            let mut cleaned = raw.clone();
            let stats = peephole_module(&mut cleaned);

            assert_eq!(
                run(&raw, &b.workload),
                b.workload.expected_ret,
                "{} {pname} raw checksum",
                b.name
            );
            assert_eq!(
                run(&cleaned, &b.workload),
                b.workload.expected_ret,
                "{} {pname} peepholed checksum",
                b.name
            );
            assert_eq!(
                raw.count_dmbs(),
                cleaned.count_dmbs(),
                "{} {pname}: peephole must never touch barriers",
                b.name
            );
            assert!(
                cleaned.inst_count() < raw.inst_count(),
                "{} {pname}: peephole removed nothing",
                b.name
            );
            assert!(
                stats.loads_forwarded + stats.loads_deleted > 0,
                "{} {pname}: no slot traffic forwarded",
                b.name
            );
        }
    }
}

#[test]
fn default_lowering_applies_the_peephole() {
    let b = &all_benchmarks(32)[0];
    let m = lasagne_lifter::lift_binary(&b.binary).unwrap();
    let default = lower_module(&m);
    let raw = lower_module_raw(&m);
    assert!(default.inst_count() < raw.inst_count());
    assert_eq!(run(&default, &b.workload), b.workload.expected_ret);
}

#[test]
fn peephole_is_idempotent() {
    for b in all_benchmarks(32) {
        let m = lasagne_lifter::lift_binary(&b.binary).unwrap();
        let mut am = lower_module_raw(&m);
        peephole_module(&mut am);
        let once = am.inst_count();
        let again = peephole_module(&mut am);
        assert_eq!(again.removed(), 0, "{}: second pass removed more", b.name);
        assert_eq!(
            again.loads_forwarded, 0,
            "{}: second pass rewrote more",
            b.name
        );
        assert_eq!(am.inst_count(), once);
    }
}

/// Runtime must improve: cycle counts with the peephole are strictly lower
/// on every benchmark (slot traffic costs MEM cycles).
#[test]
fn peephole_reduces_simulated_runtime() {
    for b in all_benchmarks(48) {
        let m = lasagne_lifter::lift_binary(&b.binary).unwrap();
        let raw = lower_module_raw(&m);
        let mut cleaned = raw.clone();
        peephole_module(&mut cleaned);
        let cycles = |am: &AModule| {
            let idx = am.func_by_name("main").unwrap();
            let mut arm = ArmMachine::new(am);
            for (addr, bytes) in &b.workload.mem_init {
                arm.mem.write(*addr, bytes);
            }
            arm.run(idx, &b.workload.args, &[])
                .unwrap()
                .critical_path_cycles()
        };
        assert!(
            cycles(&cleaned) < cycles(&raw),
            "{}: peephole did not reduce simulated cycles",
            b.name
        );
    }
}
