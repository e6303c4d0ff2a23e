//! Step-limit exactness of the byte-level x86 interpreter on real code:
//! every Phoenix benchmark at scale 48. A limit equal to the run's step
//! count completes with the unlimited result; any smaller limit `k` stops
//! the run with `StepLimit`, and the partial statistics it leaves
//! (instructions retired, cycles, loads, stores, fences and RMWs) are the
//! pinned ones in `x86_step_limit.txt`. Those were recorded while the
//! interpreter still charged every instruction on its own step, so they
//! hold charging per run to charging per step wherever the budget runs
//! out: inside a run, on the branch, call or `ret` that ends one, or in a
//! spawned thread.

use std::fmt::Write;

use lasagne_repro::phoenix::{all_benchmarks, Workload};
use lasagne_repro::x86::binary::Binary;
use lasagne_repro::x86::{X86Error, X86Machine};

const SCALE: usize = 48;

/// Steps each benchmark takes at `SCALE`. Every x86 instruction takes
/// one, so these are the instruction counts `tests/interp_golden.rs`
/// pins.
const STEPS: &[(&str, u64)] = &[
    ("HT", 9360),
    ("KM", 19898),
    ("LR", 1105),
    ("MM", 7797),
    ("PCA", 9445),
    ("SM", 8758),
    ("WC", 39745),
];

/// `<benchmark> <limit> <insts> <cycles> <loads> <stores> <fences> <rmws>`
/// after each swept limit, one line each; `<fences>` is the three buckets
/// joined by `/`.
const PINNED: &str = include_str!("x86_step_limit.txt");

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

fn machine<'b>(bin: &'b Binary, w: &Workload, limit: Option<u64>) -> X86Machine<'b> {
    let mut m = X86Machine::new(bin);
    for (addr, bytes) in &w.mem_init {
        m.mem.write(*addr, bytes);
    }
    if let Some(limit) = limit {
        m.set_step_limit(limit);
    }
    m
}

#[test]
fn every_x86_step_limit_leaves_the_pinned_partial_statistics() {
    let mut got = String::new();
    for b in all_benchmarks(SCALE) {
        let (name, steps) = *STEPS.iter().find(|s| s.0 == b.abbrev).unwrap();
        let w = &b.workload;
        let full = machine(&b.binary, w, None)
            .run("main", &w.args, &[])
            .expect("x86 run");
        assert_eq!(full.ret, w.expected_ret, "{name}");
        assert_eq!(full.stats.insts, steps, "{name}");
        assert!(!full.thread_cycles.is_empty(), "{name} spawns");
        let exact = machine(&b.binary, w, Some(steps)).run("main", &w.args, &[]);
        assert_eq!(exact.as_ref(), Ok(&full), "{name} limit {steps}");

        for k in sweep(steps) {
            let mut m = machine(&b.binary, w, Some(k));
            let r = m.run("main", &w.args, &[]);
            assert_eq!(r, Err(X86Error::StepLimit), "{name} limit {k}");
            let s = m.stats();
            let (ld, st, sc) = s.fences;
            writeln!(
                got,
                "{name} {k} {} {} {} {} {ld}/{st}/{sc} {}",
                s.insts, s.cycles, s.loads, s.stores, s.rmws
            )
            .unwrap();
        }
    }
    for (i, (g, p)) in got.lines().zip(PINNED.lines()).enumerate() {
        assert_eq!(g, p, "x86_step_limit.txt line {}", i + 1);
    }
    assert_eq!(got.lines().count(), PINNED.lines().count(), "line count");
}
