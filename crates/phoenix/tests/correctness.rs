//! End-to-end correctness: every Phoenix binary, lifted and interpreted,
//! must produce its reference checksum — and keep producing it through
//! every stage of the Lasagne pipeline (refinement, fence placement,
//! optimization, Arm lowering).

use lasagne_armgen::lower::lower_module;
use lasagne_armgen::machine::ArmMachine;
use lasagne_lir::interp::{Machine, Val};
use lasagne_lir::Module;
use lasagne_phoenix::{all_benchmarks, Benchmark, Workload};

fn run_lir(m: &Module, w: &Workload) -> u64 {
    let id = m.func_by_name("main").expect("main");
    let mut machine = Machine::new(m);
    for (addr, bytes) in &w.mem_init {
        machine.mem.write(*addr, bytes);
    }
    let args: Vec<Val> = w.args.iter().map(|a| Val::B64(*a)).collect();
    let r = machine
        .run(id, &args)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    r.ret.expect("return value").bits()
}

fn run_arm(m: &Module, w: &Workload) -> u64 {
    let amod = lower_module(m);
    let idx = amod.func_by_name("main").expect("main");
    let mut arm = ArmMachine::new(&amod);
    for (addr, bytes) in &w.mem_init {
        arm.mem.write(*addr, bytes);
    }
    let r = arm
        .run(idx, &w.args, &[])
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    r.ret
}

fn lifted(b: &Benchmark) -> Module {
    lasagne_lifter::lift_binary(&b.binary).unwrap_or_else(|e| panic!("{}: {e}", b.name))
}

#[test]
fn lifted_binaries_compute_reference_checksums() {
    for b in all_benchmarks(96) {
        let m = lifted(&b);
        let got = run_lir(&m, &b.workload);
        assert_eq!(got, b.workload.expected_ret, "{} lifted checksum", b.name);
    }
}

#[test]
fn native_baselines_compute_reference_checksums() {
    for b in all_benchmarks(96) {
        lasagne_lir::verify::verify_module(&b.native)
            .unwrap_or_else(|e| panic!("{}: {e:?}", b.name));
        let got = run_lir(&b.native, &b.workload);
        assert_eq!(got, b.workload.expected_ret, "{} native checksum", b.name);
    }
}

#[test]
fn full_pipeline_preserves_checksums() {
    for b in all_benchmarks(64) {
        let mut m = lifted(&b);
        lasagne_refine::refine_module(&mut m);
        lasagne_fences::place_fences_module(&mut m, lasagne_fences::Strategy::StackAware);
        lasagne_fences::merge_fences_module(&mut m);
        lasagne_opt::scheduled_pipeline(&mut m, 3);
        lasagne_lir::verify::verify_module(&m).unwrap_or_else(|e| panic!("{}: {e:?}", b.name));
        let got = run_lir(&m, &b.workload);
        assert_eq!(
            got, b.workload.expected_ret,
            "{} optimized checksum",
            b.name
        );
    }
}

#[test]
fn arm_translations_compute_reference_checksums() {
    for b in all_benchmarks(48) {
        let mut m = lifted(&b);
        lasagne_refine::refine_module(&mut m);
        lasagne_fences::place_fences_module(&mut m, lasagne_fences::Strategy::StackAware);
        lasagne_fences::merge_fences_module(&mut m);
        lasagne_opt::scheduled_pipeline(&mut m, 3);
        let got = run_arm(&m, &b.workload);
        assert_eq!(got, b.workload.expected_ret, "{} Arm checksum", b.name);
        // Native baseline on Arm too.
        let native_got = run_arm(&b.native, &b.workload);
        assert_eq!(
            native_got, b.workload.expected_ret,
            "{} native Arm checksum",
            b.name
        );
    }
}

/// Chunking edge cases: inputs that are tiny (n < threads), not divisible
/// by the thread count, and larger — every size must still verify.
#[test]
fn workload_scales_and_remainders() {
    // histogram and linear_regression take arbitrary n directly.
    for scale in [16usize, 33, 101] {
        let w = lasagne_phoenix::histogram::workload(scale);
        let m = lasagne_lifter::lift_binary(&lasagne_phoenix::histogram::binary()).unwrap();
        assert_eq!(run_lir(&m, &w), w.expected_ret, "histogram n={scale}");

        let w = lasagne_phoenix::linreg::workload(scale);
        let m = lasagne_lifter::lift_binary(&lasagne_phoenix::linreg::binary()).unwrap();
        assert_eq!(run_lir(&m, &w), w.expected_ret, "linreg n={scale}");
    }
    // A remainder-heavy kmeans (n % 4 != 0).
    let w = lasagne_phoenix::kmeans::workload(29);
    let m = lasagne_lifter::lift_binary(&lasagne_phoenix::kmeans::binary()).unwrap();
    assert_eq!(run_lir(&m, &w), w.expected_ret, "kmeans n=29");
    // string_match with remainder.
    let w = lasagne_phoenix::strmatch::workload(27);
    let m = lasagne_lifter::lift_binary(&lasagne_phoenix::strmatch::binary()).unwrap();
    assert_eq!(run_lir(&m, &w), w.expected_ret, "strmatch n=27");
    // matrix_multiply with an odd dimension.
    let w = lasagne_phoenix::matmul::workload(9);
    let m = lasagne_lifter::lift_binary(&lasagne_phoenix::matmul::binary()).unwrap();
    assert_eq!(run_lir(&m, &w), w.expected_ret, "matmul n=9");
}
