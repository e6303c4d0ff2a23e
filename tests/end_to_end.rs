//! Workspace-level integration tests: the complete translator exercised
//! across crates, from machine code to simulated Arm execution, including
//! the concurrency-semantics guarantees the paper proves.

use lasagne_repro::bench::{measure_native, measure_version, run_arm};
use lasagne_repro::memmodel::mapping::check_chain;
use lasagne_repro::memmodel::{litmus, outcomes, Model};
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::pool::Pool;
use lasagne_repro::translator::{translate, Pipeline, Version};

/// The headline result (Figure 14): the full pipeline reduces fences by a
/// large factor versus the unrefined placement, on every benchmark, while
/// preserving the reference checksum.
#[test]
fn headline_fence_reduction() {
    let mut reductions = Vec::new();
    for b in all_benchmarks(96) {
        let (t, m, _) = measure_version(&b, &Pipeline::new(Version::PPOpt));
        assert_eq!(m.checksum, b.workload.expected_ret);
        reductions.push(t.stats.fence_reduction_pct());
    }
    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    assert!(
        avg > 35.0,
        "average fence reduction should be paper-scale (≈45%), got {avg:.1}%"
    );
    assert!(
        reductions.iter().cloned().fold(0.0, f64::max) > 50.0,
        "some benchmark should reach a large reduction (paper: up to ~65%)"
    );
}

/// Figure 12's shape: translated code is slower than native but the
/// full pipeline recovers most of the gap on every benchmark.
#[test]
fn runtime_shape() {
    for b in all_benchmarks(96) {
        let native = measure_native(&b).runtime_cycles as f64;
        let (_, lifted, _) = measure_version(&b, &Pipeline::new(Version::Lifted));
        let (_, ppopt, _) = measure_version(&b, &Pipeline::new(Version::PPOpt));
        let lifted_norm = lifted.runtime_cycles as f64 / native;
        let ppopt_norm = ppopt.runtime_cycles as f64 / native;
        assert!(
            lifted_norm > 1.5,
            "{}: Lifted should be well above native",
            b.name
        );
        assert!(
            ppopt_norm < lifted_norm / 2.0,
            "{}: PPOpt should recover most of the gap",
            b.name
        );
        assert!(
            ppopt_norm >= 1.0,
            "{}: translated code cannot beat native",
            b.name
        );
    }
}

/// The concurrency contract, end to end: on every paper litmus program the
/// mapped Arm code admits no behavior the x86 source forbids.
#[test]
fn concurrency_contract_on_litmus_suite() {
    for (name, p) in litmus::paper_suite() {
        check_chain(Pool::shared(), 1, &p).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// The MP example of Figure 2: an incorrect (fence-free) translation
/// exhibits the bug the paper opens with; Lasagne's mapping does not.
#[test]
fn figure2_motivating_example() {
    let mp = litmus::mp();
    let weak = |o: &lasagne_repro::memmodel::Outcome| {
        let a = o
            .regs
            .iter()
            .find(|((t, r), _)| *t == 2 && *r == 0)
            .unwrap()
            .1;
        let b = o
            .regs
            .iter()
            .find(|((t, r), _)| *t == 2 && *r == 1)
            .unwrap()
            .1;
        a == 1 && b == 0
    };
    // The naive translation (reuse the same program on Arm) is buggy…
    assert!(outcomes(Model::Arm, &mp).iter().any(weak));
    // …the verified mapping is not.
    let fixed = lasagne_repro::memmodel::mapping::x86_to_arm(&mp);
    assert!(!outcomes(Model::Arm, &fixed).iter().any(weak));
}

/// Translating twice is deterministic (a requirement for a production SBT:
/// reproducible builds).
#[test]
fn translation_is_deterministic() {
    let b = &all_benchmarks(48)[0];
    let t1 = translate(&b.binary, Version::PPOpt).unwrap();
    let t2 = translate(&b.binary, Version::PPOpt).unwrap();
    assert_eq!(t1.stats, t2.stats);
    assert_eq!(t1.arm.inst_count(), t2.arm.inst_count());
    let m1 = run_arm(&t1.arm, &b.workload);
    let m2 = run_arm(&t2.arm, &b.workload);
    assert_eq!(m1, m2);
}

/// Dynamic barrier counts drop from Lifted to PPOpt (the mechanism behind
/// Figure 15).
#[test]
fn dynamic_barriers_drop() {
    for b in all_benchmarks(48) {
        let (_, lifted, _) = measure_version(&b, &Pipeline::new(Version::Lifted));
        let (_, ppopt, _) = measure_version(&b, &Pipeline::new(Version::PPOpt));
        let ld = lifted.dmbs.0 + lifted.dmbs.1 + lifted.dmbs.2;
        let pp = ppopt.dmbs.0 + ppopt.dmbs.1 + ppopt.dmbs.2;
        assert!(pp <= ld, "{}: dynamic barriers grew {ld} -> {pp}", b.name);
    }
}
