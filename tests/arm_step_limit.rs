//! Step-limit exactness of the Arm core on real code: every Phoenix
//! benchmark at scale 48, its PPOpt translation and its native baseline.
//! A limit equal to the run's step count completes with the unlimited
//! result; any smaller limit `k` stops the run with `StepLimit`, and the
//! partial statistics it leaves (instructions retired, cycles, barriers
//! and exclusives) are the pinned ones in `arm_step_limit.txt`. Those were
//! recorded while the core still charged every instruction on its own
//! step, so they hold charging per run to charging per step wherever the
//! budget runs out: inside a run, on a `bl`, just before a `cbnz` (which
//! retires without taking a step) or in a spawned thread.

use std::fmt::Write;

use lasagne_repro::armgen::machine::{ArmError, ArmMachine};
use lasagne_repro::armgen::{lower_module, AModule};
use lasagne_repro::phoenix::{all_benchmarks, Workload};
use lasagne_repro::translator::{Pipeline, Version};

const SCALE: usize = 48;

/// Steps each module takes at `SCALE`: `(benchmark, PPOpt, native)`.
/// A `cbnz` retires without a step, so these are below the instruction
/// counts.
const STEPS: &[(&str, u64, u64)] = &[
    ("HT", 61298, 50670),
    ("KM", 96999, 72259),
    ("LR", 4948, 5100),
    ("MM", 37648, 30633),
    ("PCA", 56569, 50809),
    ("SM", 32421, 15358),
    ("WC", 239426, 234705),
];

/// `<module> <limit> <insts> <cycles> <ishld> <ishst> <ish> <exclusives>`
/// after each swept limit, one line each.
const PINNED: &str = include_str!("arm_step_limit.txt");

/// Limits below `steps` to try, as `tests/interp_step_limit.rs` picks
/// them: every step of the first 64, 48 spread probes each nudged by a
/// different small offset, and the last 16 steps.
fn sweep(steps: u64) -> Vec<u64> {
    let mut ks: Vec<u64> = (0..64.min(steps)).collect();
    ks.extend((1..48).map(|i| (i * steps / 48 + i % 7).min(steps - 1)));
    ks.extend(steps.saturating_sub(16)..steps);
    ks.sort_unstable();
    ks.dedup();
    ks
}

fn machine<'m>(module: &'m AModule, w: &Workload, limit: Option<u64>) -> ArmMachine<'m> {
    let mut m = ArmMachine::new(module);
    for (addr, bytes) in &w.mem_init {
        m.mem.write(*addr, bytes);
    }
    if let Some(limit) = limit {
        m.set_step_limit(limit);
    }
    m
}

#[test]
fn every_arm_step_limit_leaves_the_pinned_partial_statistics() {
    let mut got = String::new();
    for b in all_benchmarks(SCALE) {
        let (_, ppopt_steps, native_steps) = *STEPS.iter().find(|s| s.0 == b.abbrev).unwrap();
        let (t, _) = Pipeline::new(Version::PPOpt)
            .run(&b.binary)
            .expect("PPOpt translation");
        let native = lower_module(&b.native);
        let w = &b.workload;
        for (version, module, steps) in [
            ("PPOpt", &t.arm, ppopt_steps),
            ("native", &native, native_steps),
        ] {
            let name = format!("{}/{version}", b.abbrev);
            let main = module.func_by_name("main").expect("main");
            let full = machine(module, w, None)
                .run(main, &w.args, &[])
                .expect("Arm run");
            assert_eq!(full.ret, w.expected_ret, "{name}");
            assert!(!full.thread_cycles.is_empty(), "{name} spawns");
            let exact = machine(module, w, Some(steps)).run(main, &w.args, &[]);
            assert_eq!(exact.as_ref(), Ok(&full), "{name} limit {steps}");

            for k in sweep(steps) {
                let mut m = machine(module, w, Some(k));
                let r = m.run(main, &w.args, &[]);
                assert_eq!(r, Err(ArmError::StepLimit), "{name} limit {k}");
                let s = m.stats();
                let (ld, st, ff) = s.dmbs;
                writeln!(
                    got,
                    "{name} {k} {} {} {ld} {st} {ff} {}",
                    s.insts, s.cycles, s.exclusives
                )
                .unwrap();
            }
        }
    }
    for (i, (g, p)) in got.lines().zip(PINNED.lines()).enumerate() {
        assert_eq!(g, p, "arm_step_limit.txt line {}", i + 1);
    }
    assert_eq!(got.lines().count(), PINNED.lines().count(), "line count");
}
