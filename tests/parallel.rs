//! Determinism of the parallel translation driver: for every Phoenix
//! benchmark and every pipeline configuration, translating with 4 worker
//! threads must produce byte-identical Arm output and identical statistics
//! to the single-threaded run.
//!
//! This is the acceptance gate for `--jobs`: parallelism is an
//! implementation detail that may never leak into the translation. The
//! timing report's wall accounting must stay consistent at any job count.

use lasagne_repro::armgen::print::print_module;
use lasagne_repro::phoenix::all_benchmarks;
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
