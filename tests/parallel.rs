//! Determinism of the parallel translation driver: for every Phoenix
//! benchmark and every pipeline configuration, translating with 4 worker
//! threads must produce byte-identical Arm output and identical statistics
//! to the single-threaded run.
//!
//! This is the acceptance gate for `--jobs`: parallelism is an
//! implementation detail that may never leak into the translation. The
//! timing report's wall accounting must stay consistent at any job count,
//! and the fan-out structure of a jobs=4 run is pinned exactly.

use lasagne_repro::armgen::print::print_module;
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::pool::Pool;
use lasagne_repro::translator::{Pipeline, Version};

#[test]
fn jobs4_is_byte_identical_to_serial_on_all_benchmarks() {
    for b in all_benchmarks(48) {
        for v in Version::ALL {
            let (serial, _) = Pipeline::new(v).run(&b.binary).unwrap();
            let (parallel, _) = Pipeline::new(v).with_jobs(4).run(&b.binary).unwrap();
            assert_eq!(
                print_module(&serial.arm),
                print_module(&parallel.arm),
                "{} under {}: parallel Arm output diverged",
                b.name,
                v.name()
            );
            assert_eq!(
                serial.stats,
                parallel.stats,
                "{} under {}: parallel statistics diverged",
                b.name,
                v.name()
            );
        }
    }
}

#[test]
fn job_count_beyond_function_count_is_safe() {
    // More workers than work items: excess threads must idle, not panic,
    // and the output must still match the serial run.
    let b = &all_benchmarks(16)[0];
    let (serial, _) = Pipeline::new(Version::PPOpt).run(&b.binary).unwrap();
    let (wide, _) = Pipeline::new(Version::PPOpt)
        .with_jobs(64)
        .run(&b.binary)
        .unwrap();
    assert_eq!(print_module(&serial.arm), print_module(&wide.arm));
}

#[test]
fn report_covers_every_function_in_every_stage() {
    let b = &all_benchmarks(24)[1]; // kmeans: several functions
    let nfuncs = b.binary.functions.len();
    let (_, report) = Pipeline::new(Version::PPOpt)
        .with_jobs(2)
        .run(&b.binary)
        .unwrap();
    assert!(report.total_nanos > 0);
    for st in &report.stages {
        assert_eq!(
            st.funcs.len(),
            nfuncs,
            "stage {} missing per-function entries",
            st.stage.name()
        );
        for f in &st.funcs {
            assert!(
                f.nanos > 0,
                "{}: zero-time entry for {}",
                st.stage.name(),
                f.func
            );
        }
    }
}

#[test]
fn wall_accounting_invariants_hold_at_every_jobs_value() {
    for b in all_benchmarks(48) {
        for v in Version::ALL {
            for jobs in [1, 4] {
                let (_, r) = Pipeline::new(v).with_jobs(jobs).run(&b.binary).unwrap();
                let at = format!("{} under {} at jobs={jobs}", b.name, v.name());
                // Stage walls are disjoint extents inside the run.
                let walls: u128 = r.stages.iter().map(|s| s.wall_nanos).sum();
                assert!(
                    walls <= r.total_nanos,
                    "{at}: stage walls {walls} exceed total {}",
                    r.total_nanos
                );
                assert!(
                    r.fused_wall_nanos <= r.total_nanos,
                    "{at}: fused wall {} exceeds total {}",
                    r.fused_wall_nanos,
                    r.total_nanos
                );
                for st in &r.stages {
                    assert!(
                        st.funcs.windows(2).all(|w| w[0].index < w[1].index),
                        "{at}: stage {} funcs not strictly increasing by index",
                        st.stage.name()
                    );
                    if jobs == 1 {
                        assert_eq!(
                            st.parallel_sections,
                            0,
                            "{at}: serial run counted a parallel section in {}",
                            st.stage.name()
                        );
                    }
                }
                if jobs == 1 {
                    assert!(
                        r.barrier_wait_nanos.is_empty(),
                        "{at}: serial run recorded barrier waits"
                    );
                }
            }
        }
    }
}

/// Fan-out structure of a PPOpt translation at jobs=4, per benchmark:
/// parallel sections per stage (lift, refine, fences, merge, opt,
/// armgen), fused sections, and pool tasks submitted.
const FANOUT: [(&str, [u64; 6], u64, u64); 7] = [
    ("HT", [1, 3, 2, 1, 7, 1], 3, 40),
    ("KM", [1, 4, 2, 1, 9, 1], 4, 52),
    ("LR", [1, 3, 2, 1, 7, 1], 3, 20),
    ("MM", [1, 3, 2, 1, 7, 1], 3, 30),
    ("PCA", [1, 3, 2, 1, 10, 1], 3, 52),
    ("SM", [1, 4, 2, 1, 7, 1], 4, 44),
    ("WC", [1, 3, 2, 1, 7, 1], 3, 40),
];

#[test]
fn jobs4_fan_out_structure_is_pinned() {
    // Each run gets a private pool, so its counters describe this run
    // alone. A fan-out that bypasses the pool (scoped threads per
    // section) drops `submitted`; a fused region split back into
    // per-stage sections drops `fused`.
    for b in all_benchmarks(48) {
        let pool = Pool::new(4);
        let (_, r) = Pipeline::new(Version::PPOpt)
            .with_jobs(4)
            .with_pool(pool.clone())
            .run(&b.binary)
            .unwrap();
        let p = r.pool.as_ref().expect("jobs=4 run reports pool activity");
        let sections: Vec<u64> = r.stages.iter().map(|s| s.parallel_sections).collect();
        assert!(p.submitted > 0, "{}: nothing ran on the pool", b.name);
        assert_eq!(p.submitted, p.executed, "{}: tasks left unexecuted", b.name);
        assert!(pool.workers() <= 4, "{}: pool grew past 4 workers", b.name);
        let (_, want_sections, want_fused, want_submitted) = FANOUT
            .iter()
            .find(|(abbrev, ..)| *abbrev == b.abbrev)
            .unwrap_or_else(|| panic!("{}: no pinned fan-out", b.abbrev));
        assert_eq!(
            (sections.as_slice(), r.fused_sections, p.submitted),
            (&want_sections[..], *want_fused, *want_submitted),
            "{}: fan-out structure changed",
            b.name
        );
        pool.shutdown();
    }
}

#[test]
fn report_invariants_hold_and_function_entries_are_jobs_invariant() {
    // The sink folds every unit of work into the report as it is
    // recorded; whatever order the workers deliver records in, the
    // report's totals must be the sums of its parts and its per-function
    // structure must not depend on the job count.
    for b in all_benchmarks(48) {
        for v in Version::ALL {
            let entries = |jobs: usize| {
                let (_, r) = Pipeline::new(v).with_jobs(jobs).run(&b.binary).unwrap();
                let ctx = format!("{} under {} at jobs={jobs}", b.name, v.name());
                for st in &r.stages {
                    let funcs: u128 = st.funcs.iter().map(|f| f.nanos).sum();
                    assert_eq!(
                        st.nanos,
                        funcs + st.module_nanos,
                        "{ctx}: stage {} nanos != funcs + module",
                        st.stage.name()
                    );
                }
                let invocations: u64 = r.opt_passes.iter().map(|p| p.invocations).sum();
                assert_eq!(
                    invocations,
                    r.opt_sched.map_or(0, |s| s.ran),
                    "{ctx}: opt-pass invocations != opt_sched.ran"
                );
                for p in &r.opt_passes {
                    assert_eq!(
                        p.hist.iter().sum::<u64>(),
                        p.invocations,
                        "{ctx}: {} histogram does not sum to its invocations",
                        p.pass
                    );
                }
                r.stages
                    .iter()
                    .map(|st| {
                        st.funcs
                            .iter()
                            .map(|f| (f.func.clone(), f.index, f.changes, f.insts))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                entries(1),
                entries(4),
                "{} under {}: per-function report entries differ between jobs 1 and 4",
                b.name,
                v.name()
            );
        }
    }
}
