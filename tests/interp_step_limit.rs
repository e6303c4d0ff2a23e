//! Step-limit exactness of the LIR interpreter on real code: every
//! Phoenix benchmark at scale 48, translated under PPOpt. A limit equal
//! to the run's instruction count completes with the unlimited result;
//! any smaller limit `k` stops the run with `StepLimit` after exactly `k`
//! instructions, whether step `k + 1` is a phi, a call, a terminator's
//! successor or an instruction of a spawned thread. The counts are the
//! ones `tests/interp_golden.rs` pins.

use lasagne_repro::lir::interp::{ExecError, Machine, Val};
use lasagne_repro::phoenix::{all_benchmarks, Workload};
use lasagne_repro::translator::{Pipeline, Version};

const SCALE: usize = 48;

/// Instructions each PPOpt module retires at `SCALE`.
const INSTS: &[(&str, u64)] = &[
    ("HT", 21894),
    ("KM", 35033),
    ("LR", 1650),
    ("MM", 12648),
    ("PCA", 19572),
    ("SM", 10038),
    ("WC", 84061),
];

/// Limits below `insts` to try: every step of the first 64 (`main`'s
/// set-up, its first calls and loop heads), 48 evenly spread probes each
/// nudged by a different small offset (most land inside the spawned
/// threads, which retire most of each run), and the last 16 steps.
fn sweep(insts: u64) -> Vec<u64> {
    let mut ks: Vec<u64> = (0..64.min(insts)).collect();
    ks.extend((1..48).map(|i| (i * insts / 48 + i % 7).min(insts - 1)));
    ks.extend(insts.saturating_sub(16)..insts);
    ks.sort_unstable();
    ks.dedup();
    ks
}

fn machine<'m>(module: &'m lasagne_repro::lir::Module, w: &Workload) -> Machine<'m> {
    let mut m = Machine::new(module);
    for (addr, bytes) in &w.mem_init {
        m.mem.write(*addr, bytes);
    }
    m
}

#[test]
fn every_step_limit_below_the_count_stops_at_exactly_that_step() {
    for b in all_benchmarks(SCALE) {
        let (_, insts) = *INSTS.iter().find(|(n, _)| *n == b.abbrev).unwrap();
        let (t, _) = Pipeline::new(Version::PPOpt)
            .run(&b.binary)
            .expect("PPOpt translation");
        let main = t.module.func_by_name("main").expect("main");
        let w = &b.workload;
        let args: Vec<Val> = w.args.iter().map(|a| Val::B64(*a)).collect();

        let full = machine(&t.module, w).run(main, &args).expect("LIR run");
        assert_eq!(full.stats.insts, insts, "{}", b.abbrev);
        assert!(!full.thread_cycles.is_empty(), "{} spawns", b.abbrev);

        let mut m = machine(&t.module, w);
        m.set_step_limit(insts);
        assert_eq!(m.run(main, &args).as_ref(), Ok(&full), "{}", b.abbrev);

        for k in sweep(insts) {
            let mut m = machine(&t.module, w);
            m.set_step_limit(k);
            assert_eq!(
                m.run(main, &args),
                Err(ExecError::StepLimit),
                "{} limit {k}",
                b.abbrev
            );
            assert_eq!(m.stats().insts, k, "{} limit {k}", b.abbrev);
        }
    }
}
